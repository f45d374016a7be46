import dataclasses
import hashlib
import importlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from treecolor.certify import (
    DEFAULT_THRESHOLD,
    Certificate,
    IntegrationControl,
    Trajectory,
    _integrate,
    certificate_to_json,
    certify,
    euler_ode_compare,
    find_stop_time,
    integrate,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from treecolor.dynamics import (
    PaletteConfig,
    TuningParams,
    TypeDistribution,
    cascade_growth,
    default_tuning,
    remainder_growth,
    type_space,
)
from treecolor.errors import (
    CertificateParseError,
    CertificateVerificationError,
    ComparisonFailureError,
    ConfigurationError,
)

CFG43 = PaletteConfig(4, 3)
TUNING43 = default_tuning(CFG43)
# the module, not the `certify` function the package exports under its name
CERTIFY = importlib.import_module("treecolor.certify")


@pytest.fixture(scope="module")
def cert43():
    # small but real certification run shared by the roundtrip tests
    return certify(CFG43, TUNING43, control=IntegrationControl(step=2e-3, halvings=1))


def test_integration_control_validation():
    with pytest.raises(ConfigurationError):
        IntegrationControl(step=0.0)
    with pytest.raises(ConfigurationError):
        IntegrationControl(step=0.2)
    with pytest.raises(ConfigurationError):
        IntegrationControl(max_time=-1.0)
    with pytest.raises(ConfigurationError):
        IntegrationControl(sample_stride=0)
    with pytest.raises(ConfigurationError):
        IntegrationControl(halvings=-1)
    for bad in (math.nan, math.inf, 1e300):
        with pytest.raises(ConfigurationError, match="^max_time"):
            IntegrationControl(max_time=bad)
    # the finest step of 1e-3 halved twice fits 2^62 steps, halved thrice 2^63 does not
    IntegrationControl(max_time=2.0 ** 62 * 2.5e-4)
    with pytest.raises(ConfigurationError, match="^max_time"):
        IntegrationControl(max_time=2.0 ** 62 * 2.5e-4, halvings=3)


def test_certify_rejects_mismatched_tuning():
    with pytest.raises(ConfigurationError, match="differ"):
        certify(PaletteConfig(6, 4), TUNING43, control=IntegrationControl(max_time=0.01))


def test_first_euler_step_matches_drift():
    # one explicit Euler step from the fresh state: z + h * F(z)
    for h in (1e-3, 0.01):
        traj = _integrate(TUNING43, h, h, 1, None, euler=True)
        assert len(traj.times) == 2
        state = traj.state_at(1)
        assert abs(state[(4, 3)] - (1.0 - h * 0.078125)) < 1e-15
        assert abs(state[(3, 2)] - h * 0.0625) < 1e-15
        assert traj.clamp_events == 0


def test_euler_integrator_clamps_and_counts():
    # Euler at h=0.1 overshoots once on the way to t=40: the undershoot is
    # counted and clipped, so every stored state stays nonnegative
    traj = _integrate(TUNING43, 0.1, 40.0, 1, None, euler=True)
    assert not traj.aborted
    assert traj.times[-1] == pytest.approx(40.0)
    assert traj.clamp_events == 1
    assert traj.states.min() >= 0.0
    # RK4 on the same grid clamps nothing
    assert integrate(TUNING43, IntegrationControl(step=0.1, max_time=40.0)).clamp_events == 0


def test_zero_weights_constant_trajectory():
    space = type_space(CFG43)
    zero = TuningParams(CFG43, {t: 0.0 for t in space.types})
    traj = integrate(zero, IntegrationControl(step=5e-3, max_time=0.05))
    initial = TypeDistribution.initial(CFG43).vec
    assert np.array_equal(traj.states, np.tile(initial, (len(traj.times), 1)))
    assert np.all(traj.g_values == 0.0)
    assert np.all(traj.remainder_values == 3.0)


def test_trajectory_samples_recomputable():
    traj = integrate(TUNING43, IntegrationControl(step=1e-3, max_time=2.0, sample_stride=5))
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.array_equal(traj.states[0], TypeDistribution.initial(CFG43).vec)
    for i in range(len(traj.times)):
        state = traj.state_at(i)
        assert traj.g_values[i] == cascade_growth(state)
        assert traj.remainder_values[i] == remainder_growth(state)
    # per-interval step maxima dominate the sampled values
    assert np.all(traj.step_g_max >= traj.g_values - 1e-15)


def test_monotone_mass_along_trajectory():
    traj = integrate(TUNING43, IntegrationControl(step=1e-3, max_time=3.0))
    masses = traj.states.sum(axis=1)
    assert np.all(np.diff(masses) <= 1e-9)
    assert traj.states.min() >= 0.0


def test_sample_stride_and_final_point():
    traj = integrate(TUNING43, IntegrationControl(step=1e-3, max_time=0.05, sample_stride=7))
    # samples at multiples of the stride plus the final step
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.050)
    assert len(traj.times) == 9  # 0, 7, ..., 49 thousandths, then 50


def test_rk4_halved_step_richardson():
    h, T = 0.1, 8.0
    ref = integrate(TUNING43, IntegrationControl(step=h / 32, max_time=T, sample_stride=32))
    coarse = integrate(TUNING43, IntegrationControl(step=h, max_time=T, sample_stride=1))
    fine = integrate(TUNING43, IntegrationControl(step=h / 2, max_time=T, sample_stride=2))
    n = min(len(ref.times), len(coarse.times), len(fine.times))
    assert np.allclose(ref.times[:n], coarse.times[:n])
    err_coarse = np.abs(coarse.states[:n] - ref.states[:n]).max()
    err_fine = np.abs(fine.states[:n] - ref.states[:n]).max()
    assert err_coarse / err_fine >= 8.0


def test_supercritical_tuning_reports_abort():
    # weights favoring high uncolored degree drive the cascade growth past 1
    space = type_space(CFG43)
    tuning = TuningParams(CFG43, {t: 2.0 ** (2 * t.d) for t in space.types})
    traj = integrate(tuning, IntegrationControl(step=1e-3, max_time=30.0))
    assert traj.aborted
    assert traj.abort_reason == "supercritical"
    entry = find_stop_time(traj)
    assert not entry["found"]
    assert "supercritical" in entry["reason"]


def _synthetic_trajectory(remainder, g):
    n = len(remainder)
    times = np.arange(n, dtype=np.float64)
    states = np.tile(TypeDistribution.initial(CFG43).vec, (n, 1))
    g = np.asarray(g, dtype=np.float64)
    return Trajectory(
        cfg=CFG43,
        times=times,
        states=states,
        g_values=g,
        remainder_values=np.asarray(remainder, dtype=np.float64),
        step_g_max=g.copy(),
    )


def test_find_stop_time_first_crossing():
    traj = _synthetic_trajectory([3.0, 2.0, 0.5], [0.0, 0.0, 0.0])
    entry = find_stop_time(traj, DEFAULT_THRESHOLD)
    assert entry["found"]
    assert entry["r"] == 2.0


def test_find_stop_time_growth_violation():
    traj = _synthetic_trajectory([3.0, 2.0, 0.5], [0.0, 0.99999, 0.0])
    entry = find_stop_time(traj, DEFAULT_THRESHOLD)
    assert not entry["found"]
    assert entry["violation_time"] == 1.0
    assert "growth" in entry["reason"]


def test_find_stop_time_no_crossing():
    traj = _synthetic_trajectory([3.0, 3.0, 3.0], [0.0, 0.0, 0.0])
    entry = find_stop_time(traj, DEFAULT_THRESHOLD)
    assert not entry["found"]
    assert "no remainder crossing" in entry["reason"]


def test_find_stop_time_threshold_validation():
    traj = _synthetic_trajectory([3.0, 0.5], [0.0, 0.0])
    with pytest.raises(ConfigurationError):
        find_stop_time(traj, 0.0)
    with pytest.raises(ConfigurationError):
        find_stop_time(traj, 1.5)
    assert find_stop_time(traj, 1.0)["found"]


# `certify` writes each refinement as its step, then `find_stop_time`'s entry
# as it comes: the keys keep the order the certificate JSON has
def test_find_stop_time_keys_follow_the_refinement_entries(cert43):
    found = find_stop_time(_synthetic_trajectory([3.0, 0.5], [0.0, 0.0]))
    assert [list(e) for e in cert43.refinements] == [["step", *found]] * 2
    violated = find_stop_time(_synthetic_trajectory([3.0, 0.5], [1.0, 0.0]))
    assert list(violated) == ["found", "reason", "violation_time"]


def test_certify_low_threshold_fails_with_diagnostics():
    cert = certify(
        CFG43,
        TUNING43,
        threshold=0.01,
        control=IntegrationControl(step=1e-3, max_time=1.0, halvings=0),
    )
    assert cert.status == "failed"
    assert not cert.certified
    assert cert.r is None
    assert cert.margin_g is None
    assert "crossing" in cert.diagnostics["failure"] or "growth" in cert.diagnostics["failure"]


def test_certify_43_small_run(cert43):
    assert cert43.status == "certified"
    assert 8.0 < cert43.r < 12.0
    assert cert43.margin_g > 0.0
    assert cert43.margin_remainder > 0.0
    assert len(cert43.refinements) == 2
    r_values = [e["r"] for e in cert43.refinements]
    for prev, cur in zip(r_values, r_values[1:]):
        assert abs(cur - prev) <= 0.01 * prev
    # the crossing sample is stored even after decimation
    assert cert43.r in cert43.samples["times"]
    assert len(cert43.samples["times"]) <= 2049


def test_certify_threshold_sensitivity_recorded(capsys):
    # diagnostic property: outcome at the looser threshold is recorded, not required
    cert = certify(
        CFG43, TUNING43, threshold=0.9999,
        control=IntegrationControl(step=1e-3, halvings=0),
    )
    assert cert.status in ("certified", "failed")
    if cert.status == "failed":
        assert cert.diagnostics["failure"]
    print(f"threshold 0.9999 for (4,3): {cert.status}")


def test_certificate_roundtrip_verifies(cert43, tmp_path):
    path = str(tmp_path / "cert.json")
    save_certificate(cert43, path)
    loaded = load_certificate(path)
    verify_certificate(loaded)
    assert loaded.status == cert43.status
    assert loaded.r == cert43.r
    assert loaded.max_g_on_0_r == cert43.max_g_on_0_r
    assert loaded.tuning == cert43.tuning
    assert loaded.samples["times"] == cert43.samples["times"]
    assert loaded.samples["states"] == cert43.samples["states"]


def test_certificate_bytes_stable(cert43, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_certificate(cert43, str(p1))
    save_certificate(cert43, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# the serializer takes its field list from the `Certificate` dataclass; these
# digests pin its bytes for the certified fixture and for the failed
# certificate of test_certify_low_threshold_fails_with_diagnostics
def test_certificate_bytes_pinned(cert43):
    failed = certify(CFG43, TUNING43, threshold=0.01,
                     control=IntegrationControl(step=1e-3, max_time=1.0, halvings=0))
    digests = [hashlib.sha256(certificate_to_json(c).encode()).hexdigest()
               for c in (cert43, failed)]
    assert digests == [
        "c9651d1dda9ff5c815504737ad38e17e68950fb0c8d8e4e83bc696b574a46a8f",
        "c7c3ae3066ecf129b048193ecb2d663e6ab47c9336108fd395a37f5a42027560",
    ]
    verify_certificate(failed)  # a failed status re-derives as well


def test_certificate_field_order_and_float_format(cert43):
    text = certificate_to_json(cert43)
    assert list(json.loads(text).keys()) == [
        "schema_version", "status", "cfg", "tuning", "control",
        "threshold", "r", "max_g_on_0_r", "remainder_growth_at_r",
        "margin_g", "margin_remainder", "samples", "refinements",
        "diagnostics", "metadata",
    ]
    # every number reloads bit for bit, down to signed zero, the smallest
    # subnormal and the largest float in the free-form diagnostics; a numpy
    # scalar in the payload would have been refused by `json.dumps`
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    for cert in (cert43, dataclasses.replace(
            cert43, diagnostics=dict(cert43.diagnostics, extremes=extremes))):
        expected = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
        expected.update(
            cfg={"r": cert.cfg.r, "p": cert.cfg.p},
            tuning={str(t): w for t, w in sorted(cert.tuning.items())},
            control={"method": "rk4", **dataclasses.asdict(cert.control)},
        )
        loaded = json.loads(certificate_to_json(cert))
        assert _spelled(loaded) == _spelled(expected)


def _spelled(value) -> list:
    """The leaves of a JSON-like value in order, a float as its `float.hex`
    and every other leaf as itself, beside its type."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _spelled(v)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _spelled(v)]
    return [(type(value), float.hex(value) if type(value) is float else value)]


def test_certificate_tampered_summary_rejected(cert43, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert43, str(path))
    raw = json.loads(path.read_text())
    raw["max_g_on_0_r"] = 0.5
    path.write_text(json.dumps(raw))
    loaded = load_certificate(str(path))
    with pytest.raises(CertificateVerificationError):
        verify_certificate(loaded)


def test_certificate_tampered_sample_rejected(cert43, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert43, str(path))
    raw = json.loads(path.read_text())
    raw["samples"]["g"][3] += 1e-6
    path.write_text(json.dumps(raw))
    loaded = load_certificate(str(path))
    with pytest.raises(CertificateVerificationError, match="sample 3"):
        verify_certificate(loaded)


@pytest.mark.parametrize("name", ["g", "remainder"])
def test_certificate_non_finite_sample_rejected(cert43, name):
    # NaN fails every `diff > tol` test, so a stored NaN must fail by being NaN
    n = len(cert43.samples["times"])
    samples = dict(cert43.samples, **{name: [math.nan] * n})
    with pytest.raises(CertificateVerificationError, match="sample 0"):
        verify_certificate(dataclasses.replace(cert43, samples=samples))


def test_certificate_truncated_file_parse_error(cert43, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert43, str(path))
    path.write_text(path.read_text()[:100])
    with pytest.raises(CertificateParseError):
        load_certificate(str(path))


def test_certificate_missing_field_named(cert43, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert43, str(path))
    raw = json.loads(path.read_text())
    del raw["threshold"]
    path.write_text(json.dumps(raw))
    with pytest.raises(CertificateParseError, match="threshold"):
        load_certificate(str(path))


def test_certificate_bad_type_key_named(cert43, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert43, str(path))
    raw = json.loads(path.read_text())
    raw["tuning"]["banana"] = 1.0
    path.write_text(json.dumps(raw))
    with pytest.raises(CertificateParseError, match="banana"):
        load_certificate(str(path))


# the loader checks each sample array at once; a bad one is walked only to
# name its first bad entry, with the message each entry check gives
@pytest.mark.parametrize("bad", ["x", True, None, math.nan, 10 ** 400],
                         ids=["str", "true", "null", "nan", "huge-int"])
@pytest.mark.parametrize("name, index", [
    ("times", (3,)), ("g", (0,)), ("remainder", (7,)), ("states", (2, 5)),
])
def test_one_bad_sample_entry_is_named(cert43, tmp_path, bad, name, index):
    raw = json.loads(certificate_to_json(cert43))
    *rows, last = index
    target = raw["samples"][name]
    for i in rows:
        target = target[i]
    target[last] = bad
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CertificateParseError) as exc:
        load_certificate(str(path))
    where = "".join(f"[{i}]" for i in index)
    assert str(exc.value) == f"samples.{name}{where}: expected a finite number, got {bad!r}"


@pytest.mark.parametrize("row", [[0.5], 0.5, "x"], ids=["short", "number", "str"])
def test_bad_state_row_is_named(cert43, tmp_path, row):
    raw = json.loads(certificate_to_json(cert43))
    raw["samples"]["states"][4] = row
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CertificateParseError) as exc:
        load_certificate(str(path))
    assert str(exc.value) == "samples.states[4]: wrong length"


def test_euler_ode_compare_first_order_ratio():
    d_coarse = euler_ode_compare(TUNING43, 0.02)
    d_fine = euler_ode_compare(TUNING43, 0.01)
    assert d_coarse > 0.0
    assert 1.7 <= d_coarse / d_fine <= 2.3


def test_euler_ode_compare_zero_weights():
    space = type_space(CFG43)
    zero = TuningParams(CFG43, {t: 0.0 for t in space.types})
    control = IntegrationControl(step=5e-3, max_time=0.3)
    assert euler_ode_compare(zero, 0.05, control) == 0.0


def test_euler_ode_compare_reports_supercritical_euler_sequence():
    # the flow of these weights stays subcritical (max g 0.926), but Euler
    # steps of 0.2, above the integrator's own 0.1 cap, overshoot past g = 1
    space = type_space(CFG43)
    tuning = TuningParams(
        CFG43, {t: 2.0 ** (1 - t.d) if t.d != 1 else 2.0 ** -10 for t in space.types}
    )
    control = IntegrationControl(step=1e-2)
    assert euler_ode_compare(tuning, 0.1, control) > 0.0
    with pytest.raises(ComparisonFailureError, match="euler"):
        euler_ode_compare(tuning, 0.2, control)


def test_euler_ode_compare_epsilon_validation():
    with pytest.raises(ConfigurationError):
        euler_ode_compare(TUNING43, 0.25)
    with pytest.raises(ConfigurationError):
        euler_ode_compare(TUNING43, 0.0)


def _one_slice(run):
    """`run()` with the slice length so long that parareal gives way to one
    slice, the sequential integration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CERTIFY, "_SLICE", 1e9)
        return run()


SUPERCRITICAL43 = TuningParams(CFG43, {t: 2.0 ** (2 * t.d) for t in type_space(CFG43).types})
ZERO43 = TuningParams(CFG43, {t: 0.0 for t in type_space(CFG43).types})


def _never_called(*args, **kwargs):
    raise AssertionError("integrate ran")


# ZERO43 never crosses, so the finest refinement (h = 0.05, 2 steps per
# point of the 0.1 base grid) knows its whole window as its horizon: 2,047
# base points at 204.75 and 4,094 or 4,095 at 409.4 and 409.5.  It records
# on the multiple max(1, min(ceil(points / 2046), cap // 2)) of that grid,
# and where it stops, at max_time.  The cap decides every row: at 204.75 and
# 409.4, cap 3 allows a multiple of 1, so certify stores each base point,
# 0 to 204.7 and the end at 204.75 (2,049), or 0 to 409.4 (4,095); at 409.5,
# ceil(4095 / 2046) = 3 but cap 5 allows only 2, so it stores 0, 0.2, ...,
# 409.4 and the end at 409.5 (2,049).  Each certificate verifies.  A cap
# below the 2 steps between base points refuses the run before it integrates
@pytest.mark.parametrize("max_time, cap, stored", [
    pytest.param(204.7, 1, None, id="204.7"),
    pytest.param(204.75, 3, 2049, id="204.75"),
    pytest.param(409.4, 3, 4095, id="409.4"),
    pytest.param(409.5, 5, 2049, id="409.5"),
])
def test_certify_refuses_a_sample_gap_over_the_cap(monkeypatch, max_time, cap, stored):
    control = IntegrationControl(step=0.1, max_time=max_time, halvings=1)
    monkeypatch.setattr(CERTIFY, "MAX_SAMPLE_GAP", cap)
    if stored is None:
        monkeypatch.setattr(CERTIFY, "integrate", _never_called)
        with pytest.raises(ConfigurationError, match="^halvings 1 "):
            certify(CFG43, ZERO43, control=control)
        return
    cert = certify(CFG43, ZERO43, control=control)
    assert len(cert.samples["times"]) == stored
    assert np.rint(np.diff(cert.samples["times"]) / 0.05).max() <= cap
    verify_certificate(cert)


# with 10 stored samples each refinement records every 622 points of the
# 2e-3 base grid, 1.244 apart, and parareal's 0.05 slices mostly hold no
# record: the peak of g, at t = 8.276, lies in one of them.  It reaches the
# next record only through the tail each slice hands on.  So the entries
# equal those of the same runs recording every point, and match one slice
# up to rounding; every record's `step_g_max` matches a one-slice run's at
# that multiple; and `verify` finds no g above the certified one
def test_slice_tails_carry_the_largest_g_to_the_next_record(monkeypatch):
    monkeypatch.setattr(CERTIFY, "MAX_STORED_SAMPLES", 10)
    control = IntegrationControl(step=2e-3, halvings=1)
    cert = certify(CFG43, TUNING43, control=control)
    full, _ = _recorded(lambda: certify(CFG43, TUNING43, control=control))
    slow = _one_slice(lambda: certify(CFG43, TUNING43, control=control))
    assert cert.refinements == full.refinements
    for a, b in zip(cert.refinements, slow.refinements):
        assert a["r"] == b["r"]
        assert abs(a["max_g_on_0_r"] - b["max_g_on_0_r"]) <= 1e-14
    times = np.array(cert.samples["times"])
    assert np.rint(times / 2e-3).astype(int).tolist() == [*range(0, 4924, 622), 4924]
    finest = dataclasses.replace(control, step=1e-3, sample_stride=2)
    every = integrate(TUNING43, finest, DEFAULT_THRESHOLD)
    assert np.abs(times - every.times[np.argmax(every.g_values)]).min() > 0.4
    verify_certificate(cert)
    sparse = integrate(TUNING43, finest, DEFAULT_THRESHOLD, _keep=lambda points: 622)
    assert sparse.parareal_iterations is not None
    _assert_same_rk4(sparse, _one_slice(
        lambda: integrate(TUNING43, finest, DEFAULT_THRESHOLD, _keep=lambda points: 622)))


# a never-crossing run records on a multiple that grows with its window, so
# four times the window leaves the stored samples at most MAX_STORED_SAMPLES
# and the peak of traced memory far below four times as high; a record of
# every base-grid point would bring it close to four times
def test_certify_memory_does_not_follow_the_horizon():
    peaks = []
    for max_time in (10.0, 40.0):
        tracemalloc.start()
        cert = certify(CFG43, ZERO43, control=IntegrationControl(step=2e-3, max_time=max_time,
                                                                 halvings=1))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(cert.samples["times"]) <= CERTIFY.MAX_STORED_SAMPLES
        assert cert.samples["times"][-1] == max_time
    assert peaks[1] < 2 * peaks[0], peaks


# parareal and one slice compute the same fixed-step RK4; only their
# rounding differs
@pytest.mark.parametrize("tuning, control, stop", [
    *[pytest.param(TUNING43, IntegrationControl(step=1e-3 / 2 ** k, sample_stride=2 ** k),
                   DEFAULT_THRESHOLD, id=f"default-43-refinement-{k}") for k in range(3)],
    pytest.param(TUNING43, IntegrationControl(step=1e-3, sample_stride=3),
                 DEFAULT_THRESHOLD, id="stride-3"),
    pytest.param(SUPERCRITICAL43, IntegrationControl(step=1e-3, max_time=30.0), None,
                 id="supercritical"),
    pytest.param(TUNING43, IntegrationControl(step=1e-3, max_time=1.0), 0.01,
                 id="no-crossing"),
    pytest.param(ZERO43, IntegrationControl(step=5e-3, max_time=1.0), DEFAULT_THRESHOLD,
                 id="zero-weights"),
    pytest.param(TUNING43, IntegrationControl(step=0.01), DEFAULT_THRESHOLD, id="step-0.01"),
])
def test_parareal_matches_one_slice(tuning, control, stop):
    fast = integrate(tuning, control, stop)
    slow = _one_slice(lambda: integrate(tuning, control, stop))
    assert slow.parareal_iterations is None
    # the supercritical flow aborts in its first slice, so it runs as one slice
    assert (fast.parareal_iterations is None) == (tuning is SUPERCRITICAL43)
    threshold = DEFAULT_THRESHOLD if stop is None else stop
    a, b = find_stop_time(fast, threshold), find_stop_time(slow, threshold)
    assert ([a["found"], a.get("r"), a.get("reason")]
            == [b["found"], b.get("r"), b.get("reason")])
    _assert_same_rk4(fast, slow)


def _assert_same_rk4(fast, slow):
    assert np.array_equal(fast.times, slow.times)
    assert ((fast.clamp_events, fast.aborted, fast.abort_reason)
            == (slow.clamp_events, slow.aborted, slow.abort_reason))
    for name in ("states", "g_values", "remainder_values", "step_g_max"):
        assert np.abs(getattr(fast, name) - getattr(slow, name)).max() <= 1e-14, name


def _recorded(run, warm=True):
    """`run()` and each of its `integrate` calls as (control, stop, guess,
    trajectory); with warm=False every call ignores its guess, as `certify`
    ran before it passed one.  Every call ignores its record multiple, so
    each trajectory holds every sample, as a one-slice run does."""
    calls = []

    def recording(tuning, control, stop_at_remainder_below=None, _guess=None, _keep=None):
        traj = integrate(tuning, control, stop_at_remainder_below, _guess if warm else None)
        calls.append((control, stop_at_remainder_below, _guess, traj))
        return traj

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CERTIFY, "integrate", recording)
        return run(), calls


# each refinement after the first starts parareal from the slice starts of
# the one before it; the guess changes only how many corrections run
def test_warm_started_refinements_match_one_slice():
    _, calls = _recorded(lambda: certify(CFG43, TUNING43,
                                         control=IntegrationControl(step=2e-3, halvings=1)))
    assert [guess is None for _, _, guess, _ in calls] == [True, False]
    assert calls[1][2] is calls[0][3].slice_starts
    for control, stop, _, traj in calls:
        _assert_same_rk4(traj, _one_slice(lambda: integrate(TUNING43, control, stop)))


# from the third refinement on, the guess is the Richardson extrapolation
# s1 + (s1 - s0) / 16 of the two refinements before it, since RK4's
# slice-start error shrinks 16-fold per halving; every refinement still ends
# on the one-slice flow.  (From base step 2e-3, the h = 5e-4 refinement's
# remainder is 1.7e-14 off one slice from either start: rounding, over twice
# the steps)
def test_third_refinement_starts_from_the_extrapolated_guess():
    _, calls = _recorded(lambda: certify(CFG43, TUNING43,
                                         control=IntegrationControl(step=4e-3, halvings=2)))
    s0, s1 = (traj.slice_starts for *_, traj in calls[:2])
    guesses = [guess for _, _, guess, _ in calls]
    assert guesses[0] is None and guesses[1] is s0
    assert np.array_equal(guesses[2], s1 + (s1 - s0) / 16)
    for control, stop, _, traj in calls:
        _assert_same_rk4(traj, _one_slice(lambda: integrate(TUNING43, control, stop)))


# under the default control the extrapolated guess is within 1e-14 of the
# finest refinement's slice starts, so it settles after one correction
# (from the plain s1 it takes two).  Every refinement ends on the one-slice
# flow, the finest within 1e-14 throughout.  The remainder, a difference of
# near-equal sums, may carry one rounding of 2^-52 per fine step of a slice:
# the warm-started h = 5e-4 refinement ends 1.8e-14 off, at m = 100
def test_default_43_finest_refinement_takes_one_correction():
    _, calls = _recorded(lambda: certify(CFG43, TUNING43))
    assert tuple(traj.parareal_iterations for *_, traj in calls) == (4, 2, 1)
    for control, stop, _, traj in calls:
        slow = _one_slice(lambda: integrate(TUNING43, control, stop))
        stride = control.sample_stride
        m = stride * max(1, round(CERTIFY._SLICE / (control.step * stride)))
        gap = np.abs(traj.remainder_values - slow.remainder_values).max()
        assert gap <= m * 2.0 ** -52, (control.step, gap)
        _assert_same_rk4(dataclasses.replace(traj, remainder_values=slow.remainder_values),
                         slow)
    _assert_same_rk4(traj, slow)  # the finest, its remainder included


# a guess off by 1e-6 still ends on the same flow: after k corrections the
# first k + 1 slice starts are exact, so only the number of corrections moves.
# The short run ends in its second slice, where that exactness ends the loop.
@pytest.mark.parametrize("cold, warm, stop", [
    (IntegrationControl(step=2e-3), IntegrationControl(step=1e-3, sample_stride=2),
     DEFAULT_THRESHOLD),
    (IntegrationControl(step=1e-3, max_time=0.0605),
     IntegrationControl(step=1e-3, max_time=0.0605), None),
], ids=["fixture-refinement-1", "ends-in-slice-1"])
def test_perturbed_guess_takes_more_corrections_not_another_flow(cold, warm, stop):
    guess = integrate(TUNING43, cold, stop).slice_starts
    perturbed = guess.copy()
    perturbed[1:] *= 1.0 + 1e-6
    exact = integrate(TUNING43, warm, stop, _guess=guess)
    traj = integrate(TUNING43, warm, stop, _guess=perturbed)
    assert traj.parareal_iterations >= exact.parareal_iterations
    _assert_same_rk4(traj, _one_slice(lambda: integrate(TUNING43, warm, stop)))


# a refinement after one that ran as one slice starts cold, so a tuning whose
# refinements all fall back gives the certificate it gave without the guess
@pytest.mark.parametrize("tuning, control, failure", [
    # the halved step crosses at 0.005, before the flow aborts
    (SUPERCRITICAL43, IntegrationControl(step=1e-3, max_time=30.0, halvings=1),
     "no remainder crossing (aborted: supercritical)"),
    (TUNING43, IntegrationControl(step=1e-3, max_time=0.04, halvings=2),
     "no remainder crossing; no remainder crossing; no remainder crossing"),
], ids=["supercritical", "one-slice-horizon"])
def test_one_slice_refinements_stay_cold(tuning, control, failure):
    cert, calls = _recorded(lambda: certify(CFG43, tuning, control=control))
    cold, _ = _recorded(lambda: certify(CFG43, tuning, control=control), warm=False)
    assert [traj.parareal_iterations for *_, traj in calls] == [None] * len(calls)
    assert [guess for _, _, guess, _ in calls] == [None] * len(calls)
    assert cert.diagnostics["failure"] == "no stable stopping time: " + failure
    assert certificate_to_json(cert) == certificate_to_json(cold)


# the record contract of a sweep where it leaves the stride grid: a stage
# that raises closes the record with the last accepted state, recorded once;
# a growth abort and the end of the run are recorded at the step they fall on
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_supercritical_close_is_recorded_once(stride):
    traj = integrate(SUPERCRITICAL43,
                     IntegrationControl(step=1e-3, max_time=30.0, sample_stride=stride))
    assert traj.times.tolist() == [0.0, 0.001]
    assert traj.step_g_max.tolist() == pytest.approx([0.0, 0.77326], abs=1e-5)
    assert (traj.aborted, traj.abort_reason, traj.clamp_events) == (True, "supercritical", 0)


@pytest.mark.parametrize("stride, steps", [(1, [0, 1, 2]), (2, [0, 2]), (3, [0, 2])])
def test_growth_abort_is_recorded_where_it_falls(stride, steps):
    # the state after step 2 has g = 1.017 although no stage of the step raised
    tuning = TuningParams(CFG43, {t: 2.0 ** t.d for t in type_space(CFG43).types})
    traj = integrate(tuning, IntegrationControl(step=0.01, max_time=30.0, sample_stride=stride))
    assert np.rint(traj.times / 0.01).tolist() == steps
    assert traj.g_values[-1] == traj.step_g_max[-1] == pytest.approx(1.01703, abs=1e-5)
    assert (traj.aborted, traj.abort_reason, traj.clamp_events) == (True, "supercritical", 0)


@pytest.mark.parametrize("max_time, n, iterations", [(0.0105, 10, None), (0.2005, 200, 2)])
def test_end_off_the_stride_grid_is_recorded(max_time, n, iterations):
    traj = integrate(TUNING43, IntegrationControl(step=1e-3, max_time=max_time, sample_stride=3))
    assert np.rint(traj.times / 1e-3).tolist() == [*range(0, n, 3), n]
    assert traj.parareal_iterations == iterations
    assert (traj.aborted, traj.abort_reason, traj.clamp_events) == (False, None, 0)


def test_step_g_max_is_the_largest_g_since_the_record_before_inclusive():
    # g rises to its peak near t = 8 and falls after it; the end is off the grid
    control = IntegrationControl(step=1e-3, max_time=12.0)
    every = integrate(TUNING43, control)
    strided = integrate(TUNING43, dataclasses.replace(control, sample_stride=7))
    steps = np.rint(strided.times / 1e-3).astype(int)
    assert steps[-1] == 12000 and steps[-2] == 11998
    expected = [every.g_values[0]] + [every.g_values[a:b + 1].max()
                                      for a, b in zip(steps, steps[1:])]
    assert np.abs(strided.step_g_max - expected).max() <= 1e-14


def test_certify_reports_each_refinement_on_stderr(capsys):
    cert = certify(CFG43, TUNING43, control=IntegrationControl(step=2e-3, halvings=1))
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    iterations = []
    for line, entry in zip(lines, cert.refinements):
        match = re.fullmatch(r"certify: step (\S+): (\d+) fine steps in \d+\.\d{3} s, "
                             r"parareal (\d+) iterations", line)
        assert match, line
        assert float(match[1]) == entry["step"]
        assert int(match[2]) == round(entry["r"] / entry["step"])
        iterations.append(int(match[3]))
    # the second refinement starts from the first one's slice starts
    assert iterations[1] < iterations[0]
    _one_slice(lambda: certify(CFG43, TUNING43,
                               control=IntegrationControl(step=2e-3, halvings=0)))
    assert capsys.readouterr().err.endswith(" s, one slice\n")
