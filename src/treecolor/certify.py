"""Trajectory integration and subcriticality certification.

The certifier integrates dz/dx = drift(z) from the fresh state, watches the
cascade growth rate along the way, and looks for the first time the remainder
growth rate drops below the certification threshold.  A certificate records
that time, the margins, and enough trajectory samples to recheck everything.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from typing import Any, Callable

import numpy as np

from . import __version__ as _version
from .dynamics import (
    PaletteConfig,
    TuningParams,
    TypeDistribution,
    VertexType,
    drift_field,
    growth_rates,
    type_space,
)
from .errors import (
    CertificateParseError,
    CertificateVerificationError,
    ComparisonFailureError,
    ConfigurationError,
    DegenerateDistributionError,
    SupercriticalError,
    read_text,
)

DEFAULT_THRESHOLD = 0.99999
GROWTH_ABORT = 1.0 - 1e-6
MAX_STORED_SAMPLES = 2048
# most steps of the finest refinement between two stored samples: `verify`
# re-integrates each gap, and one this long took 7.8 s on a 2-core Xeon
MAX_SAMPLE_GAP = 2 ** 16
# parareal: slice length, slices past the coarse crossing, settled update and
# iteration cap; and the entries of a stack that one RK4 pass takes at once
_SLICE = 0.05
_MARGIN_SLICES, _CONVERGED, _MAX_ITERATIONS, _BLOCK = 2, 1e-14, 30, 16384


@dataclass(frozen=True)
class IntegrationControl:
    """Fixed-step RK4 integration settings."""

    step: float = 1e-3
    max_time: float = 2000.0
    sample_stride: int = 1
    halvings: int = 2

    def __post_init__(self) -> None:
        if not (0.0 < self.step <= 0.1):
            raise ConfigurationError(f"step must be in (0, 0.1], got {self.step}")
        if not (0.0 < self.max_time < math.inf):
            raise ConfigurationError(f"max_time must be positive and finite, got {self.max_time}")
        if type(self.sample_stride) is not int or self.sample_stride < 1:
            raise ConfigurationError("sample_stride must be a positive integer")
        if type(self.halvings) is not int or self.halvings < 0:
            raise ConfigurationError("halvings must be a nonnegative integer")
        if self.max_time / self.step >= 2.0 ** (63 - self.halvings):  # int64 step index
            raise ConfigurationError(f"max_time {self.max_time} at halvings {self.halvings} "
                                     "needs 2^63 finest steps or more")


@dataclass
class Trajectory:
    """Sampled solution of the drift ODE.

    `step_g_max[i]` is the largest growth value at any integration step from
    sample i - 1 through sample i, so threshold checks cover every step
    where samples are further apart than one step: sample_stride > 1, or
    the record multiple of a `certify` refinement.
    """

    cfg: PaletteConfig
    times: np.ndarray
    states: np.ndarray  # shape (n_samples, |T|), canonical type order
    g_values: np.ndarray
    remainder_values: np.ndarray
    step_g_max: np.ndarray
    aborted: bool = False
    abort_reason: str | None = None
    clamp_events: int = 0
    parareal_iterations: int | None = None  # None: integrated as one slice
    slice_starts: np.ndarray | None = None  # z0, then the slice ends of parareal's last sweep

    def state_at(self, i: int) -> TypeDistribution:
        return TypeDistribution(self.cfg, self.states[i].copy())


def integrate(
    tuning: TuningParams,
    control: IntegrationControl,
    stop_at_remainder_below: float | None = None,
    _guess: np.ndarray | None = None,
    _keep: Callable[[int], int] = lambda points: 1,
) -> Trajectory:
    """Integrate the drift ODE of `tuning`'s palette from the fresh state
    with a fixed step.

    Runs until max_time, until growth reaches 1 - 1e-6 (recorded as an abort,
    not raised), until the positive-degree mass is exhausted, or, when
    stop_at_remainder_below is given, until the first sample whose remainder
    growth is below that value, a threshold in (0, 1].  Only `certify`
    passes `_guess`, which parareal starts from: the `slice_starts` of its
    previous refinement, or their Richardson extrapolation from the two
    before; and `_keep`, which maps the sample-grid points of the horizon a
    run knows before it records to a multiple of that grid: only the samples
    on the multiple and where the run stops are recorded, and `step_g_max`
    spans the rest.
    """
    _check_threshold(stop_at_remainder_below)
    return _integrate(tuning, control.step, control.max_time, control.sample_stride,
                      stop_at_remainder_below, guess=_guess, keep=_keep)


def _rk4(field, h: float):
    """The increment of one RK4 step of size h, for a state or a stack of
    states; a large stack goes through in row blocks of about `_BLOCK`
    entries, whose temporaries stay in cache."""
    def increment(z: np.ndarray) -> np.ndarray:
        if z.size > _BLOCK:
            rows = _BLOCK // z.shape[-1]
            return np.concatenate([increment(z[a:a + rows]) for a in range(0, len(z), rows)])
        # stage inputs may dip microscopically below zero; evaluate on the clip
        k1 = field(np.maximum(z, 0.0))
        k2 = field(np.maximum(z + 0.5 * h * k1, 0.0))
        k3 = field(np.maximum(z + 0.5 * h * k2, 0.0))
        k4 = field(np.maximum(z + h * k3, 0.0))
        return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return increment


def _integrate(tuning: TuningParams, h: float, max_time: float, sample_stride: int,
               stop_below: float | None, euler: bool = False,
               guess: np.ndarray | None = None, keep=lambda points: 1) -> Trajectory:
    """`integrate` with the control's fields unpacked: fixed-step RK4 by
    parareal, or as one slice where parareal gives up.  Only the Euler
    comparison sets `euler`; it always runs as one slice, and only it takes
    steps above the certifier's 0.1 cap."""
    space = type_space(tuning.cfg)
    field = drift_field(space, tuning.vector())
    n_steps = int(math.floor(max_time / h + 1e-9))
    below = -math.inf if stop_below is None else stop_below
    z0 = TypeDistribution.initial(tuning.cfg).vec
    increment = (lambda z: h * field(np.maximum(z, 0.0))) if euler else _rk4(field, h)
    found = None if euler else _parareal(space, field, z0, h, n_steps, sample_stride, below,
                                         guess, keep)
    (_, (idx, states, g, rem, peak), _, clamps, error), iterations, starts = found or (_sweep(
        space, increment, z0[None], np.zeros(1, dtype=np.int64), n_steps, n_steps,
        sample_stride, below, keep(n_steps // sample_stride)), None, None)
    abort = "supercritical" if g[-1] >= GROWTH_ABORT else error
    return Trajectory(tuning.cfg, idx * h, states, g, rem, peak, abort is not None, abort,
                      clamps, iterations, starts)


def _sweep(space, increment, starts, first, n_fine, n_total, stride, stop_below, keep=1):
    """Advance each row of `starts`, the state at global step `first[s]` (a
    multiple of `stride`; the rows are consecutive slices), by up to
    `n_fine` steps, all rows as one stack.  A row stops at `n_total`, where
    g reaches GROWTH_ABORT or at the first multiple of `stride` with
    remainder below `stop_below`, and records state, g, remainder and the
    largest g since the record before (inclusive, across slices) there and
    at multiples of `keep * stride`.  A step that raises ends the sweep,
    closing each live row with its last accepted state.  Returns the end
    states; the records (global step, state, g, remainder, largest g) in
    global order up to the first stop; whether a row stopped; the clamped
    undershoots up to there; and the error, if any."""
    z, (g, rem) = starts, growth_rates(space, starts)
    peak, alive, ends = g, np.ones(len(z), dtype=bool), n_total - first
    # row s records at the steps j with j % grid == phase[s]; some row ends at each of `closing`
    grid, closing, records, clamps = keep * stride, set(ends.tolist()), [], [first[:0]]
    rows, phase, error = np.arange(len(z)), -first % grid, None

    def record(at, j, stop):  # the rows `at` (None: all) at step j: only they are copied
        records.append((rows, j, stop, z, g, rem, peak) if at is None else
                       (rows[at], j, stop[at], z[at], g[at], rem[at], peak[at]))

    record(slice(1), 0, ~alive)  # row 0 starts the run at step 0
    for j in range(1, n_fine + 1):
        try:
            nxt = z + increment(z)
            if nxt.min() < -1e-9:
                clamps.append(first[(nxt < -1e-9).any(axis=1) & alive] + j)
            np.clip(nxt, 0.0, None, out=nxt)
            g_nxt, rem_nxt = growth_rates(space, nxt)
        except (DegenerateDistributionError, SupercriticalError) as exc:
            error = ("supercritical" if isinstance(exc, SupercriticalError)
                     else "mass_exhausted")
            close = alive & (phase != (j - 1) % grid if j > 1 else first != 0)
            record(close, j - 1, close)  # the live rows that did not record step j - 1
            break
        z, g, rem = nxt, g_nxt, rem_nxt
        peak = np.maximum(peak, g)
        stop = g >= GROWTH_ABORT
        if j in closing:
            stop = stop | (ends == j)
        if j % stride == 0:  # a row that stopped may record again: the cut drops it
            stop = stop | (rem < stop_below)
            kept = stop | (phase == j % grid)
        elif stop.any():
            kept = stop
        else:
            continue
        count = np.count_nonzero(kept)
        if count:
            every = count == len(kept)
            record(None if every else kept, j, stop)
            peak = g if every else np.where(kept, g, peak)
        if np.count_nonzero(stop):
            alive = alive & ~stop
            if not alive.any():
                break
    row, steps, *columns = zip(*records)
    steps = np.repeat(steps, [len(r) for r in row])
    row, *columns = (np.concatenate(c) for c in (row, *columns))
    order = np.argsort(row, kind="stable")  # by row, then by step: by global step
    row, steps, stop, *columns = (c[order] for c in (row, steps, *columns))
    # each slice's tail, past its last record, goes to the next record's peak
    heads = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    tails = np.maximum.reduceat(peak, row[heads])[:-1]
    columns[-1][heads[1:]] = np.maximum(columns[-1][heads[1:]], tails)
    n = int(np.argmax(stop)) + 1 if stop.any() else len(stop)
    idx = first[row[:n]] + steps[:n]
    rec = (idx, *(c[:n] for c in columns))
    return z, rec, bool(stop.any()), int((np.concatenate(clamps) <= idx[-1]).sum()), error


def _parareal(space, field, z0, h, n_steps, stride, stop_below, guess, keep):
    """Fixed-step RK4 by parareal (Lions, Maday & Turinici, C. R. Acad. Sci.
    Paris 332, 2001) over slices of about `_SLICE`: a sequential sweep of one
    coarse RK4 step per slice corrects a fine `_sweep` of all slices as one
    stack, U_{s+1} = F(U_s) + G_new(U_s) - G_old(U_s), until the slice
    starts settle; then one more fine sweep runs.  The first slice starts
    are `guess` past its row 0, which stays z0, with G_old the coarse step
    from each; without a guess, a coarse sweep that ends a few slices past
    its first crossing or growth abort.  Returns the last sweep, the number
    of corrections and the starts the sweep ends on (z0, then each slice's
    end but the last), or None where one slice must run instead: a stage
    raised, or no row stopped, or nothing settled.  Sweeps record on the
    multiple that `keep` gives for the sample points the slices cover."""
    m = stride * max(1, round(_SLICE / (h * stride)))  # fine steps per slice
    n_slices = -(-n_steps // m)
    coarse, fine = _rk4(field, m * h), _rk4(field, h)
    horizon, starts, incs = n_slices, [z0], []
    try:
        if guess is not None:
            starts = [z0, *guess[1:n_slices]]
            horizon, incs = len(starts), [coarse(s) for s in starts[:-1]]
        while len(starts) < horizon:
            incs.append(coarse(starts[-1]))
            starts.append(starts[-1] + incs[-1])
            g, rem = growth_rates(space, starts[-1])
            if horizon == n_slices and (g >= GROWTH_ABORT or rem < stop_below):
                horizon = min(len(starts) - 1 + _MARGIN_SLICES, n_slices)
        u, incs = np.array(starts), np.array(incs)
        if len(u) < 2:
            return None
        first, multiple = np.arange(len(u), dtype=np.int64) * m, keep(len(u) * m // stride)
        settled, last_update = False, math.inf
        for sweeps in range(1, _MAX_ITERATIONS + 2):
            run = ends, (idx, *_), stopped, _, error = _sweep(
                space, fine, u, first, m, n_steps, stride, stop_below, multiple)
            if error is not None or not stopped:
                return None
            # after k corrections slices 0..k start exactly: a stop in them is final
            if settled or idx[-1] <= sweeps * m:
                return run, sweeps - 1, np.concatenate([u[:1], ends[:-1]])
            # G_new - G_old as two small differences: no state-sized rounding
            new = u.copy()
            for s in range(len(u) - 1):
                inc = coarse(new[s])
                new[s + 1] = ends[s] + ((new[s] - u[s]) + (inc - incs[s]))
                incs[s] = inc
            # below 100 * _CONVERGED, an update that stops shrinking is rounding
            # both clauses stay: m*2**-52 moves (7,5) 4x off one slice; (8,5) settles by the 2nd
            update = np.abs(new - u).max()
            settled = update <= _CONVERGED or last_update <= update <= 100 * _CONVERGED
            u, last_update = new, update
    except (DegenerateDistributionError, SupercriticalError):
        pass
    return None


def _check_threshold(threshold: float | None) -> None:
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")


def find_stop_time(traj: Trajectory, threshold: float = DEFAULT_THRESHOLD) -> dict[str, Any]:
    """The refinement entry of `traj` without its step: the first sample time
    `r` where remainder growth is below the threshold, valid only if cascade
    growth stayed below the threshold at every step up to it, with the
    largest growth on [0, r] and the remainder growth at r; or else the
    reason there is none, and the time growth reached the threshold."""
    _check_threshold(threshold)
    below = np.nonzero(traj.remainder_values < threshold)[0]
    if below.size == 0:
        aborted = f" (aborted: {traj.abort_reason})" if traj.aborted else ""
        return {"found": False, "reason": "no remainder crossing" + aborted}
    idx = int(below[0])
    g_violations = np.nonzero(traj.step_g_max[: idx + 1] >= threshold)[0]
    if g_violations.size > 0:
        return {"found": False,
                "reason": "growth reached threshold before remainder crossing",
                "violation_time": float(traj.times[g_violations[0]])}
    return {"found": True, "r": float(traj.times[idx]),
            "max_g_on_0_r": float(traj.step_g_max[: idx + 1].max()),
            "remainder_growth_at_r": float(traj.remainder_values[idx])}


@dataclass
class Certificate:
    """Self-contained record of a certification run.  Field names mirror the
    JSON serialization; `r` is the certified stopping time (the cfg's `r` is
    the graph degree)."""

    schema_version: str
    status: str
    cfg: PaletteConfig
    tuning: dict[VertexType, float]
    control: IntegrationControl
    threshold: float
    r: float | None
    max_g_on_0_r: float | None
    remainder_growth_at_r: float | None
    margin_g: float | None
    margin_remainder: float | None
    samples: dict[str, Any]
    refinements: list[dict[str, Any]]
    diagnostics: dict[str, Any] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _verdict(
    refinements: list[dict[str, Any]], threshold: float
) -> tuple[str, str | None, dict[str, float | None]]:
    """The certification rule, which `certify` applies and
    `verify_certificate` applies again: the status, the failure (None when
    certified) and the five summary numbers, from the refinement entries.

    Certified means: every refinement found a finite stopping time,
    consecutive stopping times agree to 1%, and both margins at the finest
    step are positive.
    """
    failure = None
    missed = [e for e in refinements if not e["found"]]
    if missed:
        failure = "no stable stopping time: " + "; ".join(str(e.get("reason")) for e in missed)
    else:
        r_values = [e["r"] for e in refinements]
        if any(abs(cur - prev) > 0.01 * abs(prev)
               for prev, cur in zip(r_values, r_values[1:])):
            failure = f"stopping time unstable under step halving: {r_values}"
    summary = dict.fromkeys(("r", "max_g_on_0_r", "remainder_growth_at_r",
                             "margin_g", "margin_remainder"))
    if failure is None:
        fin = refinements[-1]
        g, rem = fin["max_g_on_0_r"], fin["remainder_growth_at_r"]
        summary.update(r=fin["r"], max_g_on_0_r=g, remainder_growth_at_r=rem,
                       margin_g=threshold - g, margin_remainder=threshold - rem)
        if not (summary["margin_g"] > 0.0 and summary["margin_remainder"] > 0.0):
            failure = "nonpositive margin"
    return ("failed" if failure else "certified"), failure, summary


def certify(
    cfg: PaletteConfig,
    tuning: TuningParams,
    threshold: float = DEFAULT_THRESHOLD,
    control: IntegrationControl = IntegrationControl(),
) -> Certificate:
    """Run the integration at the configured step and at each halved step,
    and judge the runs by `_verdict`.  `cfg` must be `tuning.cfg`.  Each
    refinement writes one line to stderr: its step, its fine steps, its
    seconds and how it was integrated."""
    if tuning.cfg != cfg:
        raise ConfigurationError("tuning and palette configs differ")
    # the finest refinement records a sample every `stride` steps or sooner
    stride = control.sample_stride * 2 ** control.halvings
    if stride > MAX_SAMPLE_GAP:
        raise ConfigurationError(
            f"halvings {control.halvings} at sample_stride {control.sample_stride} records "
            f"samples {stride} steps apart, more than verify takes ({MAX_SAMPLE_GAP})")
    # refinements record on the multiple of the base grid that leaves at most
    # MAX_STORED_SAMPLES samples (its start and a last one off it included) in
    # the horizon known before recording, with no gap over MAX_SAMPLE_GAP steps
    def multiple(points: int) -> int:
        return max(1, min(-(-points // (MAX_STORED_SAMPLES - 2)), MAX_SAMPLE_GAP // stride))
    refinements, older, starts = [], None, None
    for k in range(control.halvings + 1):
        # keep samples on the base grid so stopping times are comparable
        refined = replace(control, step=control.step / (2 ** k),
                          sample_stride=control.sample_stride * (2 ** k))
        start = time.perf_counter()
        # the slices are `_SLICE` long at every step: refinement k's slice
        # starts are a close guess for refinement k + 1.  Their RK4 error
        # shrinks 16-fold per halving, so from two refinements in a row
        # s1 + (s1 - s0) / 16 cancels its leading term (Richardson)
        guess = starts if older is None or starts is None else starts + (starts - older) / 16
        traj = integrate(tuning, refined, stop_at_remainder_below=threshold, _guess=guess,
                         _keep=multiple)
        how, older, starts = traj.parareal_iterations, starts, traj.slice_starts
        print(f"certify: step {refined.step:g}: {round(traj.times[-1] / refined.step)} "
              f"fine steps in {time.perf_counter() - start:.3f} s, "
              + ("one slice" if how is None else f"parareal {how} iterations"),
              file=sys.stderr)
        refinements.append({"step": refined.step, **find_stop_time(traj, threshold)})
    status, failure, summary = _verdict(refinements, threshold)
    samples = {"times": traj.times.tolist(), "g": traj.g_values.tolist(),  # the finest's
               "remainder": traj.remainder_values.tolist(), "states": traj.states.tolist()}
    return Certificate(
        schema_version="1",
        status=status,
        cfg=cfg,
        tuning=dict(tuning.weights),
        control=control,
        threshold=threshold,
        **summary,
        samples=samples,
        refinements=refinements,
        diagnostics={
            "failure": failure,
            "clamp_events": int(traj.clamp_events),
            "aborted": bool(traj.aborted),
            "abort_reason": traj.abort_reason,
        },
        metadata={
            "generator": f"treecolor {_version}",
            "type_order": [str(t) for t in type_space(cfg).types],
        },
    )


# ---------------------------------------------------------------------------
# Certificate serialization: deterministic field order; `json` writes each
# float in its shortest round-trip form, so values reload bit for bit.
# ---------------------------------------------------------------------------

def certificate_to_json(cert: Certificate) -> str:
    payload = {f.name: getattr(cert, f.name) for f in fields(Certificate)}
    payload.update(
        cfg={"r": cert.cfg.r, "p": cert.cfg.p},
        tuning={str(t): float(w) for t, w in sorted(cert.tuning.items())},
        control={"method": "rk4", **asdict(cert.control)},
    )
    return json.dumps(payload, separators=(",", ":")) + "\n"


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_to_json(cert))


def _number(value: Any, name: str) -> float:
    """A finite JSON number; anything else raises CertificateParseError
    naming the field."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise CertificateParseError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def _finite(values: list) -> bool:
    """Whether every entry of `values` is a finite JSON number, in one pass."""
    try:
        return (set(map(type, values)) <= {int, float}
                and bool(np.isfinite(np.array(values, dtype=np.float64)).all()))
    except OverflowError:  # an integer beyond the float range
        return False


def _field_value(f: Field, value: Any) -> Any:
    """A top-level JSON value checked against its field's annotation (kept
    as text by this module's `from __future__ import annotations`): a
    `float` field holds a finite number, or null where None is allowed; a
    `str` field text; a `list` field a list; every other field an object."""
    if f.type.startswith("float"):
        if value is None and f.type.endswith("None"):
            return None
        return _number(value, f.name)
    kind = str if f.type == "str" else list if f.type.startswith("list") else dict
    if not isinstance(value, kind):
        raise CertificateParseError(f"field {f.name!r} has wrong type")
    return value


def load_certificate(path: str) -> Certificate:
    """Parse a certificate file; malformed content raises CertificateParseError
    naming the offending field.  The fields of `Certificate` are the schema,
    and each one without a default is required.  No recomputation happens
    here."""
    text = read_text(path, CertificateParseError)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateParseError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CertificateParseError("top level: expected an object")
    schema = fields(Certificate)
    for f in schema:
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise CertificateParseError(f"missing field {f.name!r}")
    values = {f.name: _field_value(f, raw[f.name]) for f in schema if f.name in raw}
    if values["status"] not in ("certified", "failed"):
        raise CertificateParseError(f"status: unknown value {values['status']!r}")
    if values["schema_version"] != "1":
        raise CertificateParseError(
            f"schema_version: expected '1', got {values['schema_version']!r}")
    try:
        _check_threshold(values["threshold"])
    except ConfigurationError as exc:
        raise CertificateParseError(str(exc)) from None
    cfg_raw = values["cfg"]
    for name in ("r", "p"):
        if type(cfg_raw.get(name)) is not int:
            raise CertificateParseError(
                f"cfg.{name}: expected an integer, got {cfg_raw.get(name)!r}")
    try:
        cfg = values["cfg"] = PaletteConfig(cfg_raw["r"], cfg_raw["p"])
    except ConfigurationError as exc:
        raise CertificateParseError(f"cfg: {exc}") from None
    ctl_raw = values["control"]
    if ctl_raw.get("method") != "rk4":
        raise CertificateParseError(
            f"control.method: expected 'rk4', got {ctl_raw.get('method')!r}")
    try:  # each message of IntegrationControl begins with its field's name
        control = values["control"] = IntegrationControl(
            step=_number(ctl_raw.get("step"), "control.step"),
            max_time=_number(ctl_raw.get("max_time"), "control.max_time"),
            sample_stride=ctl_raw.get("sample_stride"),
            halvings=ctl_raw.get("halvings"),
        )
    except ConfigurationError as exc:
        raise CertificateParseError(f"control.{exc}") from None
    space = type_space(cfg)
    tuning = {}
    for key, value in values["tuning"].items():
        try:
            t = VertexType.parse(key)
            space.position(t)
        except (ValueError, ConfigurationError):
            raise CertificateParseError(
                f"tuning.{key}: not a type d,c of {cfg}") from None
        tuning[t] = _number(value, f"tuning.{key}")
    missing = [t for t in space.types if t not in tuning]
    if missing:
        raise CertificateParseError(f"tuning.{missing[0]}: missing")
    values["tuning"] = tuning
    samples = values["samples"]
    for name in ("times", "g", "remainder", "states"):
        if name not in samples or not isinstance(samples[name], list):
            raise CertificateParseError(f"samples.{name}: missing or wrong type")
    n = len(samples["times"])
    if any(len(samples[k]) != n for k in ("g", "remainder", "states")):
        raise CertificateParseError("samples: arrays have mismatched lengths")
    # each array is checked at once; only a bad one is walked, to name its entry
    for name in ("times", "g", "remainder"):
        if not _finite(samples[name]):
            for i, value in enumerate(samples[name]):
                _number(value, f"samples.{name}[{i}]")
    rows = samples["states"]
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {space.size}
            and _finite(list(itertools.chain.from_iterable(rows)))):
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != space.size:
                raise CertificateParseError(f"samples.states[{i}]: wrong length")
            for j, value in enumerate(row):
                _number(value, f"samples.states[{i}][{j}]")
    # what `_verdict` reads, one entry per refinement
    entries = values["refinements"]
    if len(entries) != control.halvings + 1:
        raise CertificateParseError(
            f"refinements: expected {control.halvings + 1} entries "
            f"(halvings + 1), got {len(entries)}")
    for i, entry in enumerate(entries):
        name = f"refinements[{i}]"
        if not isinstance(entry, dict):
            raise CertificateParseError(f"{name}: expected an object")
        _number(entry.get("step"), f"{name}.step")
        if type(entry.get("found")) is not bool:
            raise CertificateParseError(
                f"{name}.found: expected true or false, got {entry.get('found')!r}")
        if entry["found"]:
            for key in ("r", "max_g_on_0_r", "remainder_growth_at_r"):
                _number(entry.get(key), f"{name}.{key}")
    return Certificate(**values)


def verify_certificate(cert: Certificate) -> None:
    """Check the stored states, recompute growth and remainder at every
    stored sample, derive the status, summary, failure and refinement steps
    again (they must match exactly), tie a certified summary to the samples
    and re-integrate the flow between them.  Raises
    CertificateVerificationError on any mismatch."""
    space = type_space(cert.cfg)
    times = np.asarray(cert.samples["times"], dtype=np.float64)
    states = np.asarray(cert.samples["states"], dtype=np.float64).reshape(-1, space.size)
    g_stored = np.asarray(cert.samples["g"], dtype=np.float64)
    rem_stored = np.asarray(cert.samples["remainder"], dtype=np.float64)
    # every check below is written as `not (ok)`, so that a NaN fails it.
    # g and the remainder are ratios, so they recompute even from a rescaled
    # state: the states are checked first, as a flow from the fresh state.
    initial = TypeDistribution.initial(cert.cfg).vec
    if not (len(states) and (np.abs(states[0] - initial) <= 1e-12).all()):
        raise CertificateVerificationError("sample 0: state is not the fresh state")
    if not times[0] == 0.0:
        raise CertificateVerificationError(f"sample 0: time {float(times[0])!r} is not 0")
    mass = states.sum(axis=1)
    checks = (
        ("has a negative or non-finite entry",
         ~(np.isfinite(states) & (states >= 0.0)).all(axis=1)),
        ("has mass above 1", ~(mass <= 1.0)),
        ("has more mass than the sample before it",
         np.r_[False, ~(np.diff(mass) <= 0.0)]),
    )
    for what, bad in checks:
        if bad.any():
            raise CertificateVerificationError(
                f"sample {int(np.argmax(bad))}: state {what}")
    try:
        g, rem = growth_rates(space, states)
    except DegenerateDistributionError:
        i = int(np.argmin(states @ space.deg > 0.0))
        raise CertificateVerificationError(
            f"sample {i}: state has no positive-degree mass"
        ) from None
    for name, stored, fresh in (("growth", g_stored, g), ("remainder", rem_stored, rem)):
        bad = np.flatnonzero(~(np.abs(fresh - stored) <= 1e-9))
        if bad.size:
            i = int(bad[0])
            raise CertificateVerificationError(
                f"sample {i}: stored {name} {float(stored[i])!r} does not recompute "
                f"({float(fresh[i])!r})"
            )
    h = cert.control.step / 2 ** cert.control.halvings  # the step of the samples
    steps = np.rint(np.diff(times) / h)
    if not ((steps >= 1) & (np.abs(np.diff(times) / h - steps) <= 1e-6)).all():
        raise CertificateVerificationError(
            f"sample times do not increase by whole steps of {h!r}")
    if not steps.max(initial=0) <= MAX_SAMPLE_GAP:
        i = int(np.argmax(steps))
        raise CertificateVerificationError(
            f"samples.times[{i}] and [{i + 1}] are {steps[i]:.0f} steps of {h!r} apart, "
            f"more than {MAX_SAMPLE_GAP}")
    # all samples but the last, which may fall anywhere up to max_time, are on the grid
    grid = times[:-1] / (cert.control.sample_stride * cert.control.step)
    if not (np.abs(grid - np.rint(grid)) <= 1e-6).all():
        raise CertificateVerificationError("sample times are off the sample_stride grid")
    if not (np.rint(times[-1] / h) <= math.floor(cert.control.max_time / h + 1e-9)):
        raise CertificateVerificationError(
            f"last sample time {float(times[-1])!r} is past max_time")
    for k, entry in enumerate(cert.refinements):
        if entry["step"] != cert.control.step / 2 ** k:
            raise CertificateVerificationError(
                f"refinements[{k}].step {entry['step']!r} is not control.step / 2**{k}")
    status, failure, summary = _verdict(cert.refinements, cert.threshold)
    for name, derived in {"status": status, **summary}.items():
        if getattr(cert, name) != derived:
            raise CertificateVerificationError(
                f"stored {name} {getattr(cert, name)!r} does not follow from the "
                f"refinements ({derived!r})"
            )
    if cert.diagnostics.get("failure") != failure:
        raise CertificateVerificationError(
            f"stored failure {cert.diagnostics.get('failure')!r} does not follow "
            f"from the refinements ({failure!r})")
    if cert.status == "certified":
        # the crossing sample itself must be stored and match
        at_r = np.isclose(times, cert.r, rtol=0.0, atol=1e-12)
        if not at_r.any():
            raise CertificateVerificationError("crossing sample for r not stored")
        idx = int(np.nonzero(at_r)[0][0])
        if not abs(rem_stored[idx] - cert.remainder_growth_at_r) <= 1e-9:
            raise CertificateVerificationError(
                "stored remainder at r does not match remainder_growth_at_r"
            )
        if not rem_stored[idx] < cert.threshold:
            raise CertificateVerificationError("remainder at r not below threshold")
    # the samples must lie on the flow of RK4 at h: each interval, re-run
    # from its first sample (all as one stack), must end within h**3 of the
    # next one, far below the O(h**4) error per unit time that the
    # refinements compare, plus 1e-15 of rounding per step; a certified run,
    # which ends at R, must keep g within 1e-9 of max_g_on_0_r at every step
    order = np.argsort(-steps, kind="stable")  # so the rows still running are a prefix
    steps, z = steps[order], states[:-1][order]
    increment = _rk4(drift_field(space, TuningParams(cert.cfg, cert.tuning).vector()), h)
    g_cap = cert.max_g_on_0_r + 1e-9 if cert.certified else math.inf
    try:
        for j in range(1, int(steps.max(initial=0)) + 1):
            live = int(np.count_nonzero(steps >= j))
            z[:live] = np.clip(z[:live] + increment(z[:live]), 0.0, None)
            mass, growth = (z[:live] @ space.rate_rows[:2].T).T  # g = growth / mass
            high = ~(growth <= g_cap * mass)
            if high.any():
                raise CertificateVerificationError(
                    f"sample {int(order[np.argmax(high)])}: g exceeds max_g_on_0_r "
                    "before the next sample")
    except (DegenerateDistributionError, SupercriticalError) as exc:
        raise CertificateVerificationError(f"samples do not re-integrate: {exc}") from None
    off = ~(np.abs(z - states[1:][order]).max(axis=1, initial=0.0) <= h ** 3 + 1e-15 * steps)
    if off.any():
        raise CertificateVerificationError(
            f"sample {int(order[off].min()) + 1}: state is off the flow from the sample "
            "before it")


def euler_ode_compare(
    tuning: TuningParams,
    epsilon: float,
    control: IntegrationControl = IntegrationControl(),
) -> float:
    """Sup max-norm distance, over all Euler points n*eps up to the stopping
    time, between the Euler sequence with step eps and an rk4 reference whose
    step is at most eps/10."""
    if not (0.0 < epsilon <= 0.2):
        raise ConfigurationError(f"epsilon must be in (0, 0.2], got {epsilon}")
    # reference step divides eps exactly so sample times align by index
    substeps = max(10, int(math.ceil(epsilon / control.step - 1e-12)))
    ref = integrate(tuning, replace(control, step=epsilon / substeps, sample_stride=1),
                    stop_at_remainder_below=DEFAULT_THRESHOLD)
    if ref.aborted and ref.abort_reason == "supercritical":
        raise ComparisonFailureError("reference trajectory went supercritical")
    # no crossing (e.g. zero weights) is not an error: compare over what ran
    stop_time = find_stop_time(ref, DEFAULT_THRESHOLD).get("r", float(ref.times[-1]))

    euler = _integrate(tuning, epsilon, stop_time + 1e-12, 1, None, euler=True)
    if euler.abort_reason == "supercritical":
        raise ComparisonFailureError("euler sequence went supercritical")
    # Euler point n sits at reference index n * substeps
    ref_states = ref.states[::substeps]
    n = min(len(euler.states), len(ref_states))
    return float(np.abs(euler.states[:n] - ref_states[:n]).max())
