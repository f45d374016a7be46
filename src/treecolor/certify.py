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
from typing import Any

import numpy as np

from . import __version__ as _version
from .dynamics import (
    PaletteConfig,
    TuningParams,
    TypeDistribution,
    VertexType,
    drift_series,
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
# most grid steps of the finest refinement between two stored samples, which
# bounds the grid points `verify` checks per gap
MAX_SAMPLE_GAP = 2 ** 16
# Taylor steps (A. Jorba and M. Zou, Experimental Mathematics 14, 2005): the
# order of each step's series; the local error that refinement k of
# `certify` allows a step, relative to the state, _TOLERANCE / 10**k; and
# the most entries held at once: a chunk of a step's grid points times the
# state, or the two rates of each gap, evaluated there, or a block's series
_ORDER, _TOLERANCE, _BATCH = 16, 1e-14, 2 ** 16
# how far from the next sample `verify` lets a re-integrated gap end
GAP_TOLERANCE = 1e-13


@dataclass(frozen=True)
class IntegrationControl:
    """The grid a flow is sampled on: growth is checked at every `step`, the
    stop rule every `sample_stride` steps, up to `max_time`; `certify` also
    halves the step `halvings` times."""

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

    `step_g_max[i]` is the largest growth value at any grid point from
    sample i - 1 through sample i, so threshold checks cover every grid
    point where samples are further apart than one step: sample_stride > 1,
    or the record multiple of a `certify` refinement.
    """

    cfg: PaletteConfig
    times: np.ndarray
    states: np.ndarray  # shape (n_samples, |T|), canonical type order
    g_values: np.ndarray
    remainder_values: np.ndarray
    step_g_max: np.ndarray
    abort_reason: str | None = None
    clamp_events: int = 0
    taylor_steps: int = 0

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def state_at(self, i: int) -> TypeDistribution:
        return TypeDistribution(self.cfg, self.states[i].copy())


def integrate(
    tuning: TuningParams,
    control: IntegrationControl,
    stop_at_remainder_below: float | None = None,
    _every: int = 1,
    _tolerance: float = _TOLERANCE,
) -> Trajectory:
    """Integrate the drift ODE of `tuning`'s palette from the fresh state by
    Taylor steps, and sample it on the grid of `control.step`.

    Runs until max_time, until growth reaches 1 - 1e-6 at a grid point
    (recorded as an abort, not raised) or on the way to the next one, until
    the positive-degree mass is exhausted, or, when stop_at_remainder_below
    is given, until the first sample whose remainder growth is below that
    value, a threshold in (0, 1].  Only `certify` passes `_every`: only the
    samples on that multiple of the sample grid and where the run stops are
    recorded, and `step_g_max` spans the rest; and `_tolerance`, each
    step's local error relative to the state.
    """
    _check_threshold(stop_at_remainder_below)
    space = type_space(tuning.cfg)
    series = drift_series(space, tuning.vector(), _ORDER)
    h, stride = control.step, control.sample_stride
    last = int(math.floor(control.max_time / h + 1e-9))
    below = -math.inf if stop_at_remainder_below is None else stop_at_remainder_below
    z = TypeDistribution.initial(tuning.cfg).vec
    g, rem = growth_rates(space, z)
    held = z[None], g[None], rem[None]  # grid point j, where an error closes the run
    records = [(np.zeros(1, dtype=np.int64), *held, g[None])]
    j, peak, steps, clamps, error = 0, g, 0, 0, None
    try:
        for steps, idx, states in _taylor_steps(space, series, z.copy(), (last,), h, _tolerance):
            clamps += int(np.count_nonzero(states.min(axis=1) < -1e-9))
            np.clip(states, 0.0, None, out=states)
            g, rem = growth_rates(space, states)
            stop = (g >= GROWTH_ABORT) | (idx == last) | ((idx % stride == 0) & (rem < below))
            n = int(np.argmax(stop)) + 1 if stop.any() else len(idx)
            keep = idx[:n] % (stride * _every) == 0
            keep[-1] |= stop[n - 1]
            rec = np.flatnonzero(keep)
            # the largest g from the record before up to each record, then since the last
            tops = np.maximum.reduceat(np.concatenate(([peak], g[:n])),
                                       np.concatenate(([0], rec + 1)))
            peak = tops[-1]
            if rec.size:  # both records included
                records.append((idx[rec], states[rec], g[rec], rem[rec],
                                np.maximum(tops[:-1], g[rec])))
            if stop[n - 1]:
                break
            j, held = idx[-1], (states[-1:], g[-1:], rem[-1:])
    except (DegenerateDistributionError, SupercriticalError) as exc:
        error = _reason(exc)
    if error is not None and records[-1][0][-1] != j:
        records.append((np.array([j]), *held, np.array([peak])))
    idx, states, g, rem, tops = (np.concatenate(c) for c in zip(*records))
    abort = "supercritical" if g[-1] >= GROWTH_ABORT else error
    return Trajectory(tuning.cfg, idx * h, states, g, rem, tops, abort, clamps, steps)


def _taylor_steps(space, series, z, ends, h, tolerance, project=None):
    """Taylor steps at local error `tolerance` from the state z, or from each
    row of a stack z to grid point ends[i] of h (decreasing, so the rows
    still running are a prefix), advancing z in place.  A step ends on the
    last grid point it reaches, or short of the next, where g reaching
    GROWTH_ABORT raises SupercriticalError.  For the grid points a step
    covers it yields, in chunks of at most _BATCH values: the step's number,
    the points, and the flow's value there, each state running or its
    product with `project`."""
    t, j, k, stack = 0.0, 0, 0, z.ndim > 1
    while j < ends[0]:
        k += 1
        live = int(np.count_nonzero(ends > j)) if stack else 1
        rows = z[:live] if stack else z
        zs = series(rows)
        length = _step_length(zs, tolerance)
        end = min(int(ends[live - 1]), math.floor((t + length) / h))
        coef = zs if project is None else zs @ project
        flat = coef.reshape(_ORDER + 1, -1)
        chunk = max(1, _BATCH // flat.shape[1])
        for a in range(j, end, chunk):
            idx = np.arange(a + 1, min(a + chunk, end) + 1)
            at = np.vander(idx * h - t, _ORDER + 1, increasing=True) @ flat
            yield k, idx, at.reshape(len(idx), *coef.shape[1:])
        tau = end * h - t if end > j else length
        state = tau ** np.arange(_ORDER + 1) @ zs.reshape(_ORDER + 1, -1)
        np.maximum(state.reshape(rows.shape), 0.0, out=rows)
        if end == j and (growth_rates(space, rows)[0] >= GROWTH_ABORT).any():
            raise SupercriticalError("the flow nears g = 1 before the next grid point")
        t, j = (end * h, end) if end > j else (t + length, j)


def _reason(exc: Exception) -> str:
    return "supercritical" if isinstance(exc, SupercriticalError) else "mass_exhausted"


def _step_length(zs: np.ndarray, tolerance: float) -> float:
    """Jorba and Zou's step for the series `zs` of a state, or of a stack of
    states (the shortest): (tolerance |z_0| / |z_k|)^(1/k) for the last two
    orders k, in max-norms, the smaller one times exp(-0.7 / (order - 1))."""
    size = np.abs(zs).max(axis=-1)
    radius = np.minimum(*((tolerance * size[0] / np.maximum(size[k], 1e-300)) ** (1.0 / k)
                          for k in (_ORDER - 1, _ORDER)))
    return math.exp(-0.7 / (_ORDER - 1)) * float(radius.min())


def _euler(tuning: TuningParams, h: float, max_time: float) -> Trajectory:
    """The explicit Euler sequence z + h F(z) from the fresh state, each state
    clipped at zero and sampled, up to max_time or a growth abort: the
    process's own step, which criterion 5 compares with the flow."""
    space = type_space(tuning.cfg)
    series = drift_series(space, tuning.vector(), 1)
    z = TypeDistribution.initial(tuning.cfg).vec
    rows, clamps, error = [(z, *growth_rates(space, z))], 0, None
    for _ in range(int(math.floor(max_time / h + 1e-9))):
        try:
            nxt = z + h * series(z)[1]
            z = np.clip(nxt, 0.0, None)
            rows.append((z, *growth_rates(space, z)))
        except (DegenerateDistributionError, SupercriticalError) as exc:
            error = _reason(exc)
            break
        clamps += bool(nxt.min() < -1e-9)
        if rows[-1][1] >= GROWTH_ABORT:
            error = "supercritical"
            break
    states, g, rem = (np.array(c) for c in zip(*rows))
    return Trajectory(tuning.cfg, np.arange(len(g)) * h, states, g, rem,
                      np.maximum(g, np.r_[g[:1], g[:-1]]), error, clamps)


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
    refinement k at the local error _TOLERANCE / 10**k, and judge the runs
    by `_verdict`.  `cfg` must be `tuning.cfg`.  Each refinement writes one
    line to stderr: its grid step, its Taylor steps, the time it stopped at
    and its seconds."""
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
    # the horizon of the run before, with no gap over MAX_SAMPLE_GAP steps: the
    # first refinement's is its window, and under halvings 0, which is stored,
    # a first run of its own
    points = math.floor(control.max_time / control.step + 1e-9) // control.sample_stride
    refinements = []
    for k in range(control.halvings + 1):
        # keep samples on the base grid so stopping times are comparable
        refined = replace(control, step=control.step / (2 ** k),
                          sample_stride=control.sample_stride * (2 ** k))
        start = time.perf_counter()
        for _ in range(1 + (control.halvings == 0)):
            every = max(1, min(-(-points // (MAX_STORED_SAMPLES - 2)), MAX_SAMPLE_GAP // stride))
            traj = integrate(tuning, refined, stop_at_remainder_below=threshold, _every=every,
                             _tolerance=_TOLERANCE / 10 ** k)
            points = -(-round(traj.times[-1] / refined.step) // refined.sample_stride)
        print(f"certify: step {refined.step:g}: {traj.taylor_steps} Taylor steps, stop at "
              f"t = {traj.times[-1]:.6f}, {time.perf_counter() - start:.3f} s", file=sys.stderr)
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
        diagnostics={"failure": failure, "clamp_events": int(traj.clamp_events),
                     "aborted": traj.aborted, "abort_reason": traj.abort_reason},
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
        control={"method": "taylor", **asdict(cert.control)},
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
    if ctl_raw.get("method") not in ("taylor", "rk4"):  # older certificates were made by RK4
        raise CertificateParseError(
            f"control.method: expected 'taylor' or 'rk4', got {ctl_raw.get('method')!r}")
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
    # the samples must lie on the flow: each gap, re-integrated from its first
    # sample by the finest refinement's Taylor steps (blocks of gaps as stacks),
    # must end within GAP_TOLERANCE of the next sample.  Every certificate
    # tried, the RK4-made ones included, ends its gaps within 3e-15; a weight
    # of (4,3) off by a relative 1e-9 moves them by up to 1.3e-12.  A
    # certified run, which ends at R, must keep g within 1e-9 of
    # max_g_on_0_r at every point of the grid of h
    order = np.argsort(-steps, kind="stable")  # so the rows still running are a prefix
    z, gaps = states[:-1][order], steps[order]  # each gap's start, advanced to its end
    series = drift_series(space, TuningParams(cert.cfg, cert.tuning).vector(), _ORDER)
    tolerance = _TOLERANCE / 10 ** cert.control.halvings
    g_cap = cert.max_g_on_0_r + 1e-9 if cert.certified else math.inf
    # a row's series holds z_k and z_k's n + 3 products for each order k
    rows = max(1, _BATCH // ((_ORDER + 1) * (2 * space.size + 3)))
    try:
        for a in range(0, len(z), rows):
            for _, _, rates in _taylor_steps(space, series, z[a:a + rows], gaps[a:a + rows],
                                             h, tolerance, space.rate_rows[:2].T):
                mass, growth = rates.T
                high = ~(growth <= g_cap * mass)  # g = growth / mass
                if high.any():
                    raise CertificateVerificationError(
                        f"sample {int(order[a + np.nonzero(high)[0].min()])}: g exceeds "
                        "max_g_on_0_r before the next sample")
    except (DegenerateDistributionError, SupercriticalError) as exc:
        raise CertificateVerificationError(f"samples do not re-integrate: {exc}") from None
    off = ~(np.abs(z - states[1:][order]).max(axis=1, initial=0.0) <= GAP_TOLERANCE)
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
    time, between the Euler sequence with step eps and the flow sampled on
    a grid of eps/10 or finer."""
    if not (0.0 < epsilon <= 0.2):
        raise ConfigurationError(f"epsilon must be in (0, 0.2], got {epsilon}")
    # reference step divides eps exactly so sample times align by index
    substeps = max(10, int(math.ceil(epsilon / control.step - 1e-12)))
    ref = integrate(tuning, replace(control, step=epsilon / substeps, sample_stride=1),
                    stop_at_remainder_below=DEFAULT_THRESHOLD)
    if ref.abort_reason == "supercritical":
        raise ComparisonFailureError("reference trajectory went supercritical")
    # no crossing (e.g. zero weights) is not an error: compare over what ran
    stop_time = find_stop_time(ref, DEFAULT_THRESHOLD).get("r", float(ref.times[-1]))

    euler = _euler(tuning, epsilon, stop_time + 1e-12)
    if euler.abort_reason == "supercritical":
        raise ComparisonFailureError("euler sequence went supercritical")
    # Euler point n sits at reference index n * substeps
    ref_states = ref.states[::substeps]
    n = min(len(euler.states), len(ref_states))
    return float(np.abs(euler.states[:n] - ref_states[:n]).max())
