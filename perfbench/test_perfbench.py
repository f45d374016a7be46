"""Smoke tests for the benchmark harness at toy sizes.

They check that every metric BENCHMARK.json names is emitted with its unit,
that the traced run reproduces the untraced outputs, that the correctness
checks are not vacuous, and that the stored certificates are still valid.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TOY_CERTIFY = bench.Workload("toy-certify", "certify", 4, 3,
                             certify_flags=("--step", "0.01"), r_printed="9.850")
TOY_GREEDY = bench.Workload("toy-greedy", "simulate", 4, 3, epsilon=0.02, n=2000,
                            cert="cert43.json")
TOY_MODIFIED = bench.Workload("toy-modified", "simulate", 6, 4, epsilon=0.08, n=1000,
                              modified=True, cert="cert64.json")
TOYS = [TOY_CERTIFY, TOY_GREEDY, TOY_MODIFIED]


def run_toy(w, trace, tmp_path, tamper=None):
    return bench.run_workload(w, seed=1, seconds=0, trace=trace, out=str(tmp_path),
                              setup_runs=1, tamper=tamper)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("w", TOYS, ids=lambda w: w.name)
def test_end_to_end_metrics_have_their_units(w, tmp_path):
    result = run_toy(w, False, tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 0), result["ops"]
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["ops"][0]["probe_samples"] >= 1


@pytest.mark.parametrize("w", TOYS, ids=lambda w: w.name)
def test_traced_run_matches_untraced_and_emits_every_layer(w, tmp_path):
    result = run_toy(w, True, tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 0), result["ops"]
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if w.kind == "certify":
        assert metrics["certify.ode_steps"]["value"] == 985 + 1970 + 3940
        assert metrics["process.run_phase1_s"]["value"] == 0
    else:
        steps = {"toy-greedy": 493, "toy-modified": 1415}[w.name]  # ceil(R / epsilon)
        assert metrics["process.steps"]["value"] == steps
        assert metrics["certify.refine_s.0"]["value"] == 0
        assert (metrics["process.buffer_calls"]["value"] > 0) == w.modified
    assert metrics["trace.child_coverage"]["value"] > 0.5
    assert os.path.exists(tmp_path / f"{w.name}-seed1-spans.jsonl")


def test_monochromatic_edge_is_a_failed_operation(tmp_path):
    def paint_one_edge(w, files):
        with open(files["dump"] + ".graph", encoding="utf-8") as fh:
            u, v = (int(x) for x in fh.read().splitlines()[1].split())
        with open(files["dump"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        color_u = lines[1 + u].split()[1]
        lines[1 + v] = f"{v} {color_u}"
        with open(files["dump"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    result = run_toy(TOY_GREEDY, False, tmp_path, tamper=paint_one_edge)
    assert (result["attempted"], result["failed"]) == (1, 1)
    (problem,) = result["ops"][0]["problems"]
    assert problem.endswith("monochromatic edges")


def test_certificate_with_wrong_r_is_a_failed_operation(tmp_path):
    def shift_r(w, files):
        with open(files["cert"], encoding="utf-8") as fh:
            body = json.load(fh)
        body["r"] += 0.01
        with open(files["cert"], "w", encoding="utf-8") as fh:
            json.dump(body, fh)

    result = run_toy(TOY_CERTIFY, False, tmp_path, tamper=shift_r)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "does not reload and verify" in result["ops"][0]["problems"][0]


def test_certified_r_other_than_expected_is_a_failed_operation(tmp_path):
    expects_other_r = dataclasses.replace(TOY_CERTIFY, r_printed="9.848")
    result = run_toy(expects_other_r, False, tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["ops"][0]["problems"] == ["R = 9.85, want 9.848"]


@pytest.mark.parametrize("name", ["cert43.json", "cert64.json"])
def test_stored_certificates_load_and_verify(name):
    tc = bench.import_treecolor()
    cert = tc.load_certificate(os.path.join(bench.CERTS, name))
    tc.verify_certificate(cert)
    assert cert.certified


def test_stored_43_certificate_matches_a_fresh_certify():
    tc = bench.import_treecolor()
    stored = tc.load_certificate(os.path.join(bench.CERTS, "cert43.json"))
    cfg = tc.PaletteConfig(4, 3)
    fresh = tc.certify(cfg, tc.default_tuning(cfg))
    # compared at the precision `treecolor certify` prints, not byte for byte
    assert f"{fresh.r:.6f}" == f"{stored.r:.6f}"
