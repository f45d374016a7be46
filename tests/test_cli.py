"""Command-line behavior: exit codes, artifacts, determinism, config files."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from treecolor import cli
from treecolor.certify import IntegrationControl, _verdict, integrate
from treecolor.cli import main
from treecolor.dynamics import PaletteConfig, default_tuning, growth_rates, type_space
from treecolor.errors import ConfigurationError
from treecolor.graphs import parse_fixture, write_coloring

FAST_CERT = ["--step", "0.005", "--halvings", "1"]
STORED_CERT43 = os.path.join(os.path.dirname(__file__), "..", "perfbench", "certs",
                             "cert43.json")


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("certs") / "cert_4_3.json")
    assert main(["certify", "--r", "4", "--p", "3", *FAST_CERT,
                 "--out", path]) == 0
    return path


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# certify / verify --cert
# ---------------------------------------------------------------------------

def test_certify_writes_certificate_and_reports(cert_path, capsys):
    assert main(["verify", "--cert", cert_path]) == 0
    out = capsys.readouterr().out
    assert "verified (4,3)" in out
    body = json.loads(open(cert_path).read())
    assert body["status"] == "certified"
    assert body["cfg"] == {"r": 4, "p": 3}


# max_time only bounds the run: it stops at its crossing, R = 9.9 at step 0.1, and
# its 100 records, one step apart, are all stored
def test_certify_with_a_long_max_time_writes_a_certificate_that_verifies(tmp_path):
    path = str(tmp_path / "long.json")
    assert main(["certify", "--r", "4", "--p", "3", "--step", "0.1", "--halvings", "0",
                 "--max-time", "1e8", "--out", path]) == 0
    assert main(["verify", "--cert", path]) == 0


def test_certify_low_threshold_fails_with_diagnostics(capsys):
    code = main(["certify", "--r", "4", "--p", "3", "--threshold", "0.01",
                 "--step", "0.01", "--halvings", "0"])
    assert code == 1
    out = capsys.readouterr().out
    assert "certification failed" in out
    assert "growth" in out  # names the binding constraint


def test_verify_rejects_malformed_certificate(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--cert", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text("{}", encoding="utf-8")
    assert main(["verify", "--cert", str(missing)]) == 2
    # no certify run could have stepped this far: an int64 step index overflows
    raw = json.loads(open(STORED_CERT43).read())
    raw["control"]["max_time"] = 1e300
    far = tmp_path / "far.json"
    far.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--cert", str(far)]) == 2
    assert "control.max_time" in capsys.readouterr().err


# Each of these ended in a traceback with exit 1, or (--jobs, the run
# length) ran anyway.
@pytest.mark.parametrize("argv, named", [
    pytest.param(["certify", "--max-time", "nan"], "max_time", id="max-time-nan"),
    pytest.param(["certify", "--max-time", "inf"], "max_time", id="max-time-inf"),
    pytest.param(["certify", "--max-time", "1e300"], "max_time", id="max-time-1e300"),
    pytest.param(["certify", "--halvings", "100"], "halvings", id="halvings-100"),
    # records 131,072 steps apart, beyond what verify re-integrates
    pytest.param(["certify", "--step", "0.1", "--halvings", "17"], "halvings 17",
                 id="halvings-beyond-the-sample-gap"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "40", "--steps", "2",
                  "--weight", "9,9=1"], "9,9 outside type space for (4,3)",
                 id="weight-outside-the-space"),
    pytest.param(["simulate", "--epsilon", "inf", "--n", "40", "--steps", "2"],
                 "epsilon must be finite", id="simulate-epsilon-inf"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "40", "--steps", "2",
                  "--weight", "4,3=inf"], "4,3 must be finite", id="weight-inf"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "40", "--steps", "2",
                  "--seed", "-1"], "--seed", id="simulate-seed"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "40", "--steps", "2",
                  "--graph-seed", "-2"], "graph seed", id="simulate-graph-seed"),
    pytest.param(["sweep", "--epsilons", "0.1", "--seeds", "-1", "--n", "40",
                  "--steps", "2", "--jobs", "1"], "--seeds", id="sweep-seeds"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "40", "--steps", "2",
                  "--seed", "-1", "--graph-seed", "3"], "--seed",
                 id="simulate-seed-negative-with-graph-seed"),
    pytest.param(["sweep", "--epsilons", "0.1", "--seeds=-1", "--graph-seed", "3",
                  "--n", "40", "--steps", "2", "--jobs", "1"], "--seeds",
                 id="sweep-seeds-negative-with-graph-seed"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "40", "--steps", "2",
                  "--seed", str(2 ** 64)], "--seed", id="simulate-seed-2**64"),
    pytest.param(["sweep", "--epsilons", "0.1", "--seeds", "1,99999999999999999999999",
                  "--n", "40", "--steps", "2", "--jobs", "1"], "--seeds",
                 id="sweep-seeds-huge"),
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "100",
                  "--steps", "99999999999999"], "--steps", id="simulate-steps-huge"),
    pytest.param(["simulate", "--epsilon", "1e-9", "--n", "100", "--cert",
                  STORED_CERT43], "--epsilon", id="simulate-cert-epsilon-tiny"),
    pytest.param(["sweep", "--epsilons", "1e-300", "--seeds", "1", "--n", "100",
                  "--cert", STORED_CERT43, "--jobs", "1"], "--epsilons",
                 id="sweep-cert-epsilons-tiny"),
    pytest.param(["sweep", "--epsilons", "nan", "--seeds", "1", "--n", "100",
                  "--cert", STORED_CERT43, "--jobs", "1"], "--epsilons",
                 id="sweep-cert-epsilons-nan"),
    pytest.param(["sweep", "--epsilons", "0.1", "--seeds", "1", "--n", "40",
                  "--steps", "2", "--jobs", "0"], "--jobs", id="sweep-jobs-0"),
    pytest.param(["sweep", "--epsilons", "0.1", "--seeds", "1", "--n", "40",
                  "--steps", "2", "--jobs", "-3"], "--jobs", id="sweep-jobs-negative"),
    # checked before the dump is read, so the missing file is never reached
    pytest.param(["verify", "--dump", "missing.dump", "--bound", "nan"], "--bound",
                 id="verify-bound-nan"),
    pytest.param(["verify", "--dump", "missing.dump", "--bound", "-1"], "--bound",
                 id="verify-bound-negative"),
    pytest.param(["verify", "--dump", "missing.dump", "--bound", "1.5"], "--bound",
                 id="verify-bound-above-1"),
])
def test_malformed_run_flags_exit_2(capsys, argv, named):
    palette = [] if argv[0] == "verify" else ["--r", "4", "--p", "3"]
    assert main([*argv, *palette]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "PaletteConfig(" not in err  # the palette is written (r,p)


def test_largest_process_seed_runs(capsys):
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.1", "--n", "40",
                 "--steps", "2", "--seed", str(2 ** 64 - 1)]) == 0


def test_verify_detects_tampered_certificate(cert_path, tmp_path):
    raw = json.loads(open(cert_path).read())
    raw["samples"]["g"][3] += 1e-3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(tampered)]) == 1


def _halve_every_state(raw):
    raw["samples"]["states"] = [[x / 2 for x in row] for row in raw["samples"]["states"]]


# g and the remainder are ratios of the state, so both tamperings leave them
# recomputing; only the checks on the states themselves catch them
@pytest.mark.parametrize("mutate", [
    pytest.param(_halve_every_state, id="states-halved"),
    pytest.param(lambda raw: raw["samples"]["states"][5].__setitem__(0, -0.5),
                 id="state-negative"),
])
def test_verify_checks_the_stored_states(tmp_path, capsys, mutate):
    raw = json.loads(open(STORED_CERT43).read())
    mutate(raw)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(tampered)]) == 1
    assert "verification failed" in capsys.readouterr().err


def _move_one_state_off_the_flow(raw):
    # mass kept, g and the remainder recomputed: only the flow shows the move
    row = raw["samples"]["states"][1000]
    big = np.argsort(row)[-2:]
    row[big[0]] += 1e-6
    row[big[1]] -= 1e-6
    g, rem = growth_rates(type_space(PaletteConfig(4, 3)), np.array(row))
    raw["samples"]["g"][1000], raw["samples"]["remainder"][1000] = float(g), float(rem)


def _shift_the_window(raw):
    # intervals, grid, max_time and the crossing all still agree
    raw["samples"]["times"] = [t + 0.5 for t in raw["samples"]["times"]]
    for entry in (raw, *raw["refinements"]):
        entry["r"] += 0.5


def _understate_max_g(raw):
    # the summary and the finest refinement agree, so the verdict re-derives
    low = raw["max_g_on_0_r"] - 1e-6
    raw["refinements"][-1]["max_g_on_0_r"] = raw["max_g_on_0_r"] = low
    raw["margin_g"] = raw["threshold"] - low


# each of these verified while verify did not re-integrate the samples,
# never compared a refinement's step, the stored failure or the sample times
# with the control block, and let the first sample time differ from 0 (the
# samples run to 9.848 on a grid of 1e-3)
@pytest.mark.parametrize("mutate, message", [
    pytest.param(_move_one_state_off_the_flow, "sample 1000: state is off the flow",
                 id="state-off-flow"),
    pytest.param(lambda raw: raw["refinements"][0].update(step=0.5),
                 "refinements[0].step", id="refinement-step"),
    pytest.param(lambda raw: raw["diagnostics"].update(failure="made up"),
                 "stored failure 'made up'", id="failure"),
    pytest.param(_understate_max_g, "exceeds max_g_on_0_r", id="max-g-understated"),
    pytest.param(lambda raw: raw["control"].update(max_time=5.0),
                 "last sample time 9.848 is past max_time", id="max-time"),
    pytest.param(lambda raw: raw["control"].update(sample_stride=7),
                 "off the sample_stride grid", id="sample-stride"),
    pytest.param(_shift_the_window, "sample 0: time 0.5 is not 0", id="window-shifted"),
])
def test_verify_rederives_the_flow_steps_and_failure(tmp_path, capsys, mutate, message):
    raw = json.loads(open(STORED_CERT43).read())
    mutate(raw)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(tampered)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--epsilon", "0.1"],
    ["sweep", "--epsilons", "0.1", "--seeds", "1", "--jobs", "1"],
])
def test_run_commands_verify_their_certificate(tmp_path, capsys, command):
    raw = json.loads(open(STORED_CERT43).read())
    raw["samples"]["g"][3] = 0.5
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(raw), encoding="utf-8")
    assert main([*command, "--r", "4", "--p", "3", "--n", "100", "--steps", "3",
                 "--cert", str(tampered)]) == 1
    assert "verification failed" in capsys.readouterr().err


# each of these verified at the parent, whose verify never read the
# refinements that the status and summary come from
@pytest.mark.parametrize("mutate, code", [
    pytest.param(lambda raw: raw.update(refinements=[]), 2, id="empty"),
    pytest.param(lambda raw: raw["refinements"][0].update(r=5.0), 1, id="r-moved"),
    pytest.param(lambda raw: raw["refinements"][1].update(found=False), 1,
                 id="not-found"),
    pytest.param(lambda raw: raw.update(refinements=[1, "x"]), 2, id="not-entries"),
    pytest.param(lambda raw: raw["refinements"][2].update(found="yes"), 2,
                 id="found-str"),
    pytest.param(lambda raw: raw["refinements"][2].pop("max_g_on_0_r"), 2,
                 id="found-without-max-g"),
])
def test_verify_rederives_the_status_from_the_refinements(tmp_path, capsys,
                                                          mutate, code):
    raw = json.loads(open(STORED_CERT43).read())
    mutate(raw)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(tampered)]) == code
    assert "refinements" in capsys.readouterr().err


# the certificate's flow is the run's only under the certificate's weights
@pytest.mark.parametrize("command", [
    ["simulate", "--epsilon", "0.05", "--seed", "1"],
    ["sweep", "--epsilons", "0.05,0.1", "--seeds", "1", "--jobs", "1"],
])
def test_run_commands_reject_a_certificate_of_another_tuning(capsys, command):
    assert main([*command, "--r", "4", "--p", "3", "--n", "2000",
                 "--cert", STORED_CERT43,
                 "--weight", "0,2=0.001", "--weight", "2,2=10"]) == 2
    assert "tuning differs from the run's at type 0,2" in capsys.readouterr().err


def _set_every_g_null(raw):
    raw["samples"]["g"] = [None] * len(raw["samples"]["g"])


def _loosen_threshold(raw):
    # with both margins recomputed, a remainder growth of 1.2 would count as
    # certified: the loader must hold the threshold to (0, 1]
    raw["threshold"] = 1.5
    raw["margin_g"] = 1.5 - raw["max_g_on_0_r"]
    raw["margin_remainder"] = 1.5 - raw["remainder_growth_at_r"]


@pytest.mark.parametrize("field, mutate", [
    pytest.param("tuning.4,3", lambda raw: raw["tuning"].update({"4,3": "abc"}),
                 id="tuning-str"),
    pytest.param("tuning.4,3", lambda raw: raw["tuning"].update({"4,3": [1]}),
                 id="tuning-list"),
    pytest.param("tuning.4,3", lambda raw: raw["tuning"].update({"4,3": 10 ** 400}),
                 id="tuning-huge-int"),
    pytest.param("cfg.r", lambda raw: raw["cfg"].update(r="x"), id="cfg-r-str"),
    pytest.param("samples.times[2]",
                 lambda raw: raw["samples"]["times"].__setitem__(2, "x"), id="times-str"),
    pytest.param("samples.states[2][5]",
                 lambda raw: raw["samples"]["states"][2].__setitem__(5, "x"),
                 id="states-str"),
    pytest.param("samples.g[0]", _set_every_g_null, id="g-null"),
    pytest.param("control.step", lambda raw: raw["control"].update(step="0.005"),
                 id="step-str"),
    # JSON true is no integer: it passed as a stride of 1 and as one halving
    pytest.param("control.sample_stride",
                 lambda raw: raw["control"].update(sample_stride=True), id="stride-bool"),
    pytest.param("control.halvings", lambda raw: raw["control"].update(halvings=True),
                 id="halvings-bool"),
    pytest.param("threshold", _loosen_threshold, id="threshold-above-1"),
    pytest.param("tuning.9,9", lambda raw: raw["tuning"].update({"9,9": 1.0}),
                 id="tuning-type-outside-the-space"),
    pytest.param("tuning.4,3", lambda raw: raw["tuning"].pop("4,3"), id="tuning-type-missing"),
    *(pytest.param("schema_version", lambda raw, v=v: raw.update(schema_version=v),
                   id=f"schema-{v or 'empty'}") for v in ("2", "", "banana")),
])
def test_verify_names_non_numeric_certificate_field(cert_path, tmp_path, capsys,
                                                    field, mutate):
    raw = json.loads(open(cert_path).read())
    mutate(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(bad)]) == 2
    assert field in capsys.readouterr().err


def test_simulate_names_a_certificate_weight_outside_the_space(tmp_path, capsys):
    raw = json.loads(open(STORED_CERT43).read())
    raw["tuning"]["9,9"] = 1.0
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.1", "--n", "100",
                 "--steps", "3", "--cert", str(path)]) == 2
    assert "tuning.9,9" in capsys.readouterr().err


# Re-integrating a gap of MAX_SAMPLE_GAP + 1 steps took about 10 s; one of
# 2**44 steps, from the same file with 40 halvings, would never end.
def test_verify_refuses_samples_further_apart_than_the_cap(tmp_path, capsys):
    from treecolor.certify import MAX_SAMPLE_GAP

    raw = json.loads(open(STORED_CERT43).read())
    raw["control"].update(step=0.0625, halvings=4)
    raw["refinements"] = [{"step": 0.0625 / 2 ** k, "found": False, "reason": "x"}
                          for k in range(5)]
    status, failure, summary = _verdict(raw["refinements"], raw["threshold"])
    raw.update(status=status, **summary)
    raw["diagnostics"]["failure"] = failure
    samples = raw["samples"]
    for name in ("g", "remainder", "states"):
        samples[name] = [samples[name][0], samples[name][5]]
    samples["times"] = [0.0, (MAX_SAMPLE_GAP + 1) * 0.0625 / 2 ** 4]
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(path)]) == 1
    assert "samples.times" in capsys.readouterr().err
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.1", "--n", "100",
                 "--steps", "3", "--cert", str(path)]) == 1
    assert "samples.times" in capsys.readouterr().err


def test_simulate_rejects_a_certificate_with_a_loose_threshold(tmp_path, capsys):
    raw = json.loads(open(STORED_CERT43).read())
    _loosen_threshold(raw)
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.1", "--n", "100",
                 "--steps", "3", "--cert", str(loose)]) == 2
    assert "threshold" in capsys.readouterr().err


def test_verify_flags_failed_status_certificate(tmp_path):
    path = str(tmp_path / "failed.json")
    assert main(["certify", "--r", "4", "--p", "3", "--threshold", "0.5",
                 "--step", "0.02", "--halvings", "0", "--out", path]) == 1
    assert main(["verify", "--cert", path]) == 1


def test_certify_rejects_bad_threshold():
    assert main(["certify", "--r", "4", "--p", "3", "--threshold", "1.5"]) == 2


@pytest.mark.parametrize("threshold", ["2", "0", "nan"])
def test_integrate_rejects_bad_threshold_before_writing(tmp_path, capsys, threshold):
    out = tmp_path / "t.csv"
    assert main(["integrate", "--r", "4", "--p", "3", "--threshold", threshold,
                 "--out", str(out)]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["certify", "integrate"])
def test_rk4_is_the_only_method(mode):
    with pytest.raises(SystemExit) as exc:
        main([mode, "--r", "4", "--p", "3", "--method", "rk4"])
    assert exc.value.code == 2


def test_halvings_is_a_certify_flag():
    # integrate runs one step size, so step halving has nothing to act on
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--r", "4", "--p", "3", "--halvings", "1"])
    assert exc.value.code == 2


# Without the cap each of these built the dense (r+1)(p-1)-square drift
# matrices, about 298 GiB for r=100000, and died with a traceback.
@pytest.mark.parametrize("source", ["certify", "simulate", "config", "certificate"])
def test_degree_is_capped(cert_path, tmp_path, capsys, source):
    huge = ["--r", "100000", "--p", "3"]
    if source == "certify":
        argv = ["certify", *huge]
    elif source == "simulate":
        argv = ["simulate", *huge, "--epsilon", "0.1", "--n", "100", "--steps", "1"]
    elif source == "config":
        config = tmp_path / "huge.cfg"
        config.write_text("r=100000\np=3\n", encoding="utf-8")
        argv = ["certify", "--config", str(config)]
    else:
        raw = json.loads(open(cert_path).read())
        raw["cfg"]["r"] = 100000
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["verify", "--cert", str(bad)]
    assert main(argv) == 2
    assert "degree r must be <= 32, got 100000" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda ctl: ctl.update(method="euler"), id="euler"),
    pytest.param(lambda ctl: ctl.pop("method"), id="missing"),
])
def test_verify_rejects_a_certificate_not_made_by_rk4(cert_path, tmp_path, capsys,
                                                      mutate):
    raw = json.loads(open(cert_path).read())
    mutate(raw["control"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", "--cert", str(bad)]) == 2
    assert "control.method" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_emits_selfdescribing_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--r", "4", "--p", "3", "--step", "0.01",
                 "--threshold", "0.99999", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("r=4" in ln for ln in comments)
    assert "# method=rk4" in comments
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.startswith("time,g,remainder,z_0_2")
    first = lines[lines.index(header) + 1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[2]) == 3.0  # initial remainder growth is r - 1
    assert "crossed" in capsys.readouterr().out


# the bytes of the trajectory CSV, with and without a threshold
@pytest.mark.parametrize("flags, digest", [
    (["--step", "0.01", "--threshold", "0.99999"],
     "bae402d5dd669f53f040ac818e0854ff8e0ef0767ba2d14845b3a1c1041380da"),
    (["--step", "0.05", "--max-time", "3"],
     "27b52021fdb14d7c1005587399c8721b57909461ce88a33a136ddeb380ff7488"),
], ids=["threshold", "max-time"])
def test_integrate_csv_pinned(tmp_path, flags, digest):
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--r", "4", "--p", "3", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, message", [
    (["integrate", "--r", "4", "--p", "3", "--step", "0.05", "--max-time", "12",
      "--threshold", "0.99999"], "remainder crossed 0.99999 at t=9.850000"),
    (["integrate", "--r", "3", "--p", "2", "--step", "0.05", "--max-time", "12"],
     "integration aborted: supercritical"),
    (["sweep", "--r", "4", "--p", "3", "--epsilons", "0.2,0.1", "--seeds", "1",
      "--n", "200", "--steps", "5", "--jobs", "1"], "epsilon  mean red fraction"),
], ids=["integrate-crossing", "integrate-aborted", "sweep"])
def test_table_on_stdout_keeps_status_lines_out(capsys, argv, message):
    """Without --out the CSV alone goes to stdout: every row has the
    header's columns, and the status lines go to stderr."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    rows = [ln for ln in captured.out.splitlines() if not ln.startswith("#")]
    assert len(rows) > 1
    assert all(ln.count(",") == rows[0].count(",") for ln in rows)
    assert message in captured.err.splitlines()


def test_integrate_streams_its_csv(tmp_path):
    """Writing 100,001 rows to --out peaks, under tracemalloc, less than one
    16,384-row chunk of the CSV above the bare `integrate` call."""
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        integrate(default_tuning(PaletteConfig(4, 3)),
                  IntegrationControl(step=1e-3, max_time=100.0))
        bare = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["integrate", "--r", "4", "--p", "3", "--step", "0.001",
                     "--max-time", "100", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(1 for ln in out.read_text().splitlines() if ln[0].isdigit())
    assert rows == 100_001
    assert peak - bare < out.stat().st_size * 16384 / rows


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate_args(tmp, *, seed=7, extra=()):
    return [
        "simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
        "--n", "2000", "--steps", "197", "--seed", str(seed),
        "--out", str(tmp / f"run{seed}.csv"), *extra,
    ]


def test_simulate_end_to_end_is_proper(tmp_path, capsys):
    dump = tmp_path / "final.dump"
    code = main(simulate_args(tmp_path, extra=("--dump", str(dump))))
    assert code == 0
    body = read_json(capsys)
    assert body["proper"] is True
    assert body["violations"] == 0
    assert list(body["failure_counts"]) == ["completion", "tidy"]
    # histogram keys are component sizes, written as strings in size order
    hist = body["component_histogram"]
    assert list(hist) == [str(k) for k in sorted(int(k) for k in hist)]
    assert sum(hist.values()) == body["uncolored_component_count"]
    if hist:
        assert max(int(k) for k in hist) == body["uncolored_component_max"]
    assert body["final_uncolored_frac"] == 0.0
    assert body["config"]["seed"] == 7
    assert body["config"]["resolved_steps"] == 197
    assert dump.exists() and (tmp_path / "final.dump.graph").exists()
    assert main(["verify", "--dump", str(dump)]) == 0


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    assert main(simulate_args(tmp_path, seed=3)) == 0
    first_csv = (tmp_path / "run3.csv").read_bytes()
    first_json = capsys.readouterr().out
    assert main(simulate_args(tmp_path, seed=3)) == 0
    assert (tmp_path / "run3.csv").read_bytes() == first_csv
    assert capsys.readouterr().out == first_json


def test_simulate_seed_changes_output(tmp_path, capsys):
    assert main(simulate_args(tmp_path, seed=4)) == 0
    capsys.readouterr()
    assert main(simulate_args(tmp_path, seed=5)) == 0
    capsys.readouterr()
    a = (tmp_path / "run4.csv").read_bytes()
    b = (tmp_path / "run5.csv").read_bytes()
    assert a != b


def test_simulate_uses_certificate_run_length(cert_path, tmp_path, capsys):
    code = main([
        "simulate", "--r", "4", "--p", "3", "--epsilon", "0.1",
        "--n", "2000", "--seed", "1", "--cert", cert_path,
        "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 0
    body = read_json(capsys)
    assert body["steps"] == 99  # ceil(9.85 / 0.1)
    assert "trajectory_distance" in body
    assert 0.0 <= body["trajectory_distance"] < 1.0


def test_simulate_requires_a_run_length(tmp_path):
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
                 "--n", "2000"]) == 2


def test_simulate_rejects_mismatched_certificate(cert_path):
    assert main(["simulate", "--r", "6", "--p", "4", "--epsilon", "0.05",
                 "--n", "600", "--cert", cert_path]) == 2


def test_simulate_rejects_odd_pairing():
    assert main(["simulate", "--r", "3", "--p", "2", "--epsilon", "0.05",
                 "--n", "2001", "--steps", "5"]) == 2


# Without the cap these died with an allocation traceback, or filled memory
# first; with it each exits 2 before any graph array exists.
@pytest.mark.parametrize("argv, named", [
    pytest.param(["simulate", "--epsilon", "0.1", "--n", "99999999999999"], "n=",
                 id="simulate-n"),
    pytest.param(["sweep", "--epsilons", "0.1", "--seeds", "1,2", "--jobs", "2",
                  "--n", "99999999999999"], "n=", id="sweep-n"),
    pytest.param(["simulate", "--epsilon", "0.1", "--graph-kind", "tree-ball",
                  "--radius", "40"], "radius=", id="tree-ball-radius"),
])
def test_graph_size_is_capped(capsys, argv, named):
    assert main([*argv, "--r", "4", "--p", "3", "--steps", "1"]) == 2
    assert named in capsys.readouterr().err


# A graph flag the chosen graph never reads is a mistake in the command line.
@pytest.mark.parametrize("argv, named", [
    pytest.param(["simulate", "--n", "100", "--radius", "3"], "--radius",
                 id="random-regular-radius"),
    pytest.param(["simulate", "--graph-kind", "tree-ball", "--radius", "3",
                  "--n", "100"], "--n", id="tree-ball-n"),
    pytest.param(["simulate", "--graph-kind", "tree-ball", "--radius", "3",
                  "--graph-seed", "1"], "--graph-seed", id="tree-ball-graph-seed"),
    pytest.param(["verify", "--cert", STORED_CERT43, "--graph", "unused.graph"],
                 "--graph", id="verify-cert-graph"),
    pytest.param(["verify", "--cert", STORED_CERT43, "--bound", "0.5"],
                 "--bound", id="verify-cert-bound"),
])
def test_graph_flags_that_do_nothing_are_rejected(capsys, argv, named):
    if argv[0] == "simulate":
        argv = [*argv, "--r", "4", "--p", "3", "--epsilon", "0.1", "--steps", "1"]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


ROOT = os.path.join(os.path.dirname(__file__), "..")


# sha256 of the summary and of the per-step CSV of two seeded runs, so a
# change to the random stream or to either output shows here.
@pytest.mark.parametrize("argv, summary_digest, csv_digest", [
    pytest.param(
        ["--r", "4", "--p", "3", "--cert", "perfbench/certs/cert43.json", "--seed", "1"],
        "cc69fff801b97299e6bacd44bc10facbc94d0efb4046e52cd74da831bcebe10e",
        "ddd486992c15f0392a82c7527c888c6e4b260dc64e8c927c6a74ef5b381c5e10",
        id="greedy-43"),
    pytest.param(
        ["--r", "6", "--p", "4", "--cert", "perfbench/certs/cert64.json", "--seed", "3",
         "--modified"],
        "ae5b699ae62a808330fe8b78bcabe8c0c7c9cd8a345f7f93308ee3b3b1ede4c4",
        "0410f47aeca9e0c6acf2a142fee55298882ca43a58e76997bcd0451da21ac61b",
        id="modified-64"),
])
def test_simulate_outputs_pinned(tmp_path, monkeypatch, argv, summary_digest,
                                 csv_digest):
    monkeypatch.chdir(ROOT)  # the summary echoes the --cert path as given
    summary, csv = tmp_path / "summary.json", tmp_path / "steps.csv"
    assert main(["simulate", *argv, "--epsilon", "0.05", "--n", "2000",
                 "--summary", str(summary), "--out", str(csv)]) == 0
    assert "trajectory_distance" in json.loads(summary.read_text())
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_digest
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest


def test_simulate_tree_ball_graph(capsys):
    code = main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
                 "--graph-kind", "tree-ball", "--radius", "4",
                 "--steps", "60", "--seed", "2"])
    assert code == 0
    body = read_json(capsys)
    assert body["n"] == 161  # |B_4| in the 4-regular tree
    assert body["proper"] is True


def test_simulate_weight_override_changes_activity(tmp_path, capsys):
    # zero weight on the fresh type freezes the fresh graph completely
    code = main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
                 "--n", "2000", "--steps", "10", "--seed", "1",
                 "--weight", "4,3=0", "--weight", "3,3=0",
                 "--weight", "2,3=0"])
    assert code == 0
    body = read_json(capsys)
    assert body["total_cascades"] == 0
    assert body["completion_colored"] == 2000


def test_simulate_bad_weight_syntax():
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
                 "--n", "2000", "--steps", "5", "--weight", "oops"]) == 2


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\nr=4\np=3\nepsilon=0.05\nn=2000\nseed=9\nsteps=40\n",
        encoding="utf-8",
    )
    code = main(["simulate", "--config", str(cfg), "--steps", "12"])
    assert code == 0
    body = read_json(capsys)
    assert body["steps"] == 12  # flag beat the file
    assert body["epsilon"] == 0.05
    assert body["config"]["seed"] == 9


def test_config_file_boolean_and_underscore_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "r=4\np=3\nepsilon=0.05\nn=2000\nsteps=5\nmodified=true\n"
        "graph_seed=11\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    body = read_json(capsys)
    assert body["config"]["modified"] is True
    assert body["config"]["graph-seed"] == 11


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not a pair\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_grid_table_and_scaling(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--r", "4", "--p", "3",
                 "--epsilons", "0.08,0.04,0.02", "--seeds", "1,2,3",
                 "--n", "600", "--steps", "25", "--jobs", "2",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "mean red fraction" in text
    lines = [ln for ln in out.read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0] == "epsilon,seed,red_frac,steps"
    assert len(lines) == 1 + 9
    # deterministic ordering: sorted by (epsilon, seed)
    keys = [tuple(map(float, ln.split(",")[:2])) for ln in lines[1:]]
    assert keys == sorted(keys)


def test_sweep_outputs_pinned(tmp_path, capsys, monkeypatch):
    # the table of means, a ratio line and the scaling fit, byte for byte
    monkeypatch.chdir(tmp_path)  # stdout names the --out path as given
    assert main(["sweep", "--r", "4", "--p", "3",
                 "--epsilons", "0.2,0.1,0.07", "--seeds", "1,2,3",
                 "--n", "600", "--steps", "25", "--jobs", "1",
                 "--out", "sweep.csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "6ea131a358b3dab4a6177bf475b38d23b02ed223e399de8dacc288002c20d5a1")
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
        "b773e913bc4fab4ce02fe5b764442111a0c7d67f47bb2113ff2f325ab453115c")


def test_sweep_names_the_epsilons_without_reds(tmp_path, capsys):
    """One epsilon with no reds makes the fit degenerate; the message names
    that epsilon, while the others' reds still show in the table."""
    assert main(["sweep", "--r", "4", "--p", "3", "--epsilons", "0.2,0.1,0.05",
                 "--seeds", "1,2,3", "--n", "600", "--steps", "25", "--jobs", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("epsilon  mean red fraction") + 1:][:3]
    means = dict(map(float, ln.split()) for ln in table)
    assert means[0.05] == 0.0 and means[0.1] > 0.0 and means[0.2] > 0.0
    assert lines[-1] == "red scaling: degenerate (no reds at epsilon 0.05)"


def test_sweep_names_every_improper_cell(tmp_path, capsys, monkeypatch):
    real = cli.verify_proper
    checked = []

    def second_cell_bad(graph, colors):
        checked.append(colors)
        report = real(graph, colors)
        if len(checked) == 2:
            report.violations.append((0, 1))
        return report

    monkeypatch.setattr(cli, "verify_proper", second_cell_bad)
    code = main(["sweep", "--r", "4", "--p", "3", "--epsilons", "0.08",
                 "--seeds", "1,2,3", "--n", "600", "--steps", "25", "--jobs", "1",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 1
    assert len(checked) == 3  # every cell is verified
    flagged = [ln for ln in capsys.readouterr().out.splitlines() if "NOT proper" in ln]
    assert len(flagged) == 1
    assert "epsilon=0.08 seed=2" in flagged[0] and "(0, 1)" in flagged[0]


def test_simulate_counts_every_bad_edge(tmp_path, capsys, monkeypatch):
    bad = [(v, v + 1) for v in range(12)]
    monkeypatch.setattr(cli, "verify_proper",
                        lambda graph, colors: cli.ProperReport(violations=bad, red_red=[]))
    assert main(simulate_args(tmp_path)) == 1
    flagged = [ln for ln in capsys.readouterr().out.splitlines() if "NOT proper" in ln]
    assert len(flagged) == 1
    assert "12 bad edges" in flagged[0]
    assert flagged[0].endswith(f"e.g. {bad[:10]}")


def test_sweep_cell_matches_simulate(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--r", "4", "--p", "3", "--epsilons", "0.05",
                 "--seeds", "3", "--n", "2000", "--steps", "197", "--jobs", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    row = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")][1]
    assert main(simulate_args(tmp_path, seed=3)) == 0
    body = read_json(capsys)
    assert body["red_before_tidy"] > 0
    assert float(row.split(",")[2]) == body["red_before_tidy"] / body["n"]


def test_sweep_verifies_its_certificate_once(monkeypatch, capsys):
    real, calls = cli.verify_certificate, []
    monkeypatch.setattr(cli, "verify_certificate",
                        lambda cert: calls.append(cert) or real(cert))
    assert main(["sweep", "--r", "4", "--p", "3", "--epsilons", "0.1,0.05",
                 "--seeds", "1", "--n", "100", "--steps", "3", "--jobs", "1",
                 "--cert", STORED_CERT43]) == 0
    assert len(calls) == 1


def test_sweep_workers_are_clamped_to_the_cores(tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("one core needs no worker pool")

    argv = ["sweep", "--r", "4", "--p", "3", "--epsilons", "0.1", "--seeds", "1,2",
            "--n", "40", "--steps", "2"]
    assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "one.csv")]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main([*argv, "--jobs", "3", "--out", str(tmp_path / "three.csv")]) == 0
    assert (tmp_path / "three.csv").read_text() == (tmp_path / "one.csv").read_text()


def test_sweep_rejects_bad_grid():
    assert main(["sweep", "--r", "4", "--p", "3", "--epsilons", "0.1,zap",
                 "--seeds", "1,2,3", "--n", "600", "--steps", "5"]) == 2
    assert main(["sweep", "--r", "4", "--p", "3", "--epsilons", "0.1,-0.2",
                 "--seeds", "1", "--n", "600", "--steps", "5"]) == 2


# ---------------------------------------------------------------------------
# verify --dump
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def finished_dump(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dumps")
    dump = tmp / "run.dump"
    args = [
        "simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
        "--n", "2000", "--steps", "197", "--seed", "7",
        "--dump", str(dump),
    ]
    assert main(args) == 0
    return dump


def test_verify_dump_accepts_good_run(finished_dump, capsys):
    assert main(["verify", "--dump", str(finished_dump)]) == 0
    assert "proper" in capsys.readouterr().out


def test_verify_dump_lists_corrupted_edge(finished_dump, tmp_path, capsys):
    lines = finished_dump.read_text().splitlines()
    graph_lines = (finished_dump.parent / "run.dump.graph").read_text().splitlines()
    u, v = graph_lines[1].split()
    u_color = lines[1 + int(u)].split()[1]
    lines[1 + int(v)] = f"{v} {u_color}"
    bad = tmp_path / "bad.dump"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["verify", "--dump", str(bad),
                 "--graph", str(finished_dump) + ".graph"])
    assert code == 1
    out = capsys.readouterr().out
    assert "violating" in out and f"({u},{v})" in out or f"({v},{u})" in out


def test_verify_dump_enforces_extra_bound(finished_dump):
    assert main(["verify", "--dump", str(finished_dump),
                 "--bound", "0.0000001"]) == 1


def test_verify_dump_rejects_malformed_input(tmp_path):
    empty = tmp_path / "empty.dump"
    empty.write_text("", encoding="utf-8")
    assert main(["verify", "--dump", str(empty)]) == 2
    garbled = tmp_path / "garbled.dump"
    garbled.write_text("3 4\n0 x\n", encoding="utf-8")
    assert main(["verify", "--dump", str(garbled)]) == 2
    assert main(["verify", "--dump", str(tmp_path / "nope.dump")]) == 2


@pytest.mark.parametrize("bad", [-1, -2, 4])
def test_dump_colors_outside_0_to_p_are_refused_by_writer_and_reader(tmp_path, capsys, bad):
    # one rule on both sides: every dumped color lies in 0..p, here p = 3
    text = "3 4\n0 1\n1 2\n"
    with pytest.raises(ConfigurationError, match=f"vertex 1 has color {bad},"):
        write_coloring(parse_fixture(text)[0], np.array([0, bad, 1]), 3,
                       str(tmp_path / "never.dump"))
    assert not (tmp_path / "never.dump").exists()
    (tmp_path / "run.dump.graph").write_text(text, encoding="utf-8")
    (tmp_path / "run.dump").write_text(f"3 4 3\n0 0\n1 {bad}\n2 1\n", encoding="utf-8")
    assert main(["verify", "--dump", str(tmp_path / "run.dump")]) == 2
    assert f"color {bad} out of range" in capsys.readouterr().err


def test_verify_dump_rejects_non_integer_graph_field(finished_dump, tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("2000 4\n0 1\n2 x\n", encoding="utf-8")
    assert main(["verify", "--dump", str(finished_dump), "--graph", str(graph)]) == 2
    err = capsys.readouterr().err
    assert "edge endpoint" in err and "'x'" in err


def test_verify_dump_rejects_graph_of_another_degree(finished_dump, tmp_path, capsys):
    lines = finished_dump.read_text().splitlines()
    assert lines[0] == "2000 4 3"
    lines[0] = "2000 3 3"
    other = tmp_path / "r3.dump"
    other.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--dump", str(other),
                 "--graph", str(finished_dump) + ".graph"]) == 2
    assert "r=3" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["config", "cert", "dump", "graph"])
def test_non_utf8_input_names_the_file(finished_dump, tmp_path, capsys, reader):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("r=4 # caf\u00e9\n".encode("latin-1"))
    graph = str(finished_dump) + ".graph"
    argv = {
        "config": ["certify", "--config", str(bad)],
        "cert": ["verify", "--cert", str(bad)],
        "dump": ["verify", "--dump", str(bad), "--graph", graph],
        "graph": ["verify", "--dump", str(finished_dump), "--graph", str(bad)],
    }[reader]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("reader", ["config", "graph"])
def test_missing_input_file_names_the_path(finished_dump, tmp_path, capsys, reader):
    absent = str(tmp_path / "absent.txt")
    argv = {
        "config": ["simulate", "--config", absent],
        "graph": ["verify", "--dump", str(finished_dump), "--graph", absent],
    }[reader]
    assert main(argv) == 2
    assert absent in capsys.readouterr().err


def test_verify_needs_exactly_one_target(cert_path, finished_dump):
    assert main(["verify"]) == 2
    assert main(["verify", "--cert", cert_path,
                 "--dump", str(finished_dump)]) == 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "treecolor.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "treecolor" in proc.stdout
