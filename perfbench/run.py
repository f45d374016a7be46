#!/usr/bin/env python3
"""Benchmark for treecolor: certification and the simulate pipeline, end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload greedy-43 --seed 1 --seconds 56 --trace 0

The package is imported from `src/` next to this directory and driven only
through its command-line entry point `treecolor.cli.main`.  Each operation is
one `treecolor certify` (plus `treecolor verify --cert`) or one
`treecolor simulate` call; its outputs are re-checked by this file's own code
and a failed check counts one failed operation without stopping the run.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh interpreters importing the package) and the median time of the
operations run within --seconds, both at nominal machine speed (see
`SpeedProbe`), and peak resident memory.  The whole run keeps to one CPU
(see `pin_to_one_cpu`).

--trace 1 runs one operation untraced and the same operation again with
span wrappers installed around the package's public functions (see
spans.py), checks that both produce byte-identical outputs, and reports the
per-layer metrics of the traced one.

Each run writes its context (machine, versions, commit, seed, load average)
and all metrics to perfbench/out/.  Standard output carries the context, a
summary line (certify_s or pipeline_s as measured, the end-to-end metrics,
overflow_frac, failed_frac) and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CERTS = os.path.join(HERE, "certs")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 9
PROBE_INTERVAL_S = 0.1  # between speed-probe samples during an operation
PROBE_NOMINAL_S = 0.003  # probe time that defines nominal machine speed
SETUP_PROBES = 5  # probe samples on each side of a set-up measurement
REFINEMENTS = 3  # the step and its two halvings under the default control
OVERFLOW_BOUND = 0.05  # acceptance bound on the overflow-color fraction


@dataclass(frozen=True)
class Workload:
    """One fixed set of inputs.  `certify` workloads run `treecolor certify`;
    `simulate` workloads run the pipeline on a fresh random graph per
    operation, seeded from the benchmark seed."""

    name: str
    kind: str  # "certify" or "simulate"
    r: int
    p: int
    certify_flags: tuple[str, ...] = ()
    r_printed: str = ""  # expected certified R, formatted with three decimals
    epsilon: float = 0.0
    n: int = 0
    modified: bool = False
    cert: str = ""  # stored certificate fixing the step count ceil(R/epsilon)


WORKLOADS = {
    w.name: w for w in [
        # Analytics only: three RK4 integrations (h = 1e-3, 5e-4, 2.5e-4),
        # the same drift kernel as certify (6,4) at a twelfth of its length.
        Workload("certify-43", "certify", 4, 3, r_printed="9.848"),
        # Process engine in greedy mode: 1,970 steps on n = 1e5, dominated by
        # the per-step O(n) terms (activation and color draws, invariant
        # scan, type snapshot).
        Workload("greedy-43", "simulate", 4, 3, epsilon=0.005, n=100_000,
                 cert="cert43.json"),
        # Process engine in modified mode: 5,658 steps on n = 2e4 with few
        # activations per step and a buffer-rounds call after every step.
        # Not in BENCHMARK.json: its wall time follows the seed's red count
        # (19-37 s over nine seeds), so compare it at one seed only.
        Workload("modified-64", "simulate", 6, 4, epsilon=0.02, n=20_000,
                 modified=True, cert="cert64.json"),
    ]
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def import_treecolor():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "treecolor", "__init__.py")):
        raise SystemExit(f"error: no treecolor sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import treecolor
    import treecolor.cli  # noqa: F401
    where = os.path.dirname(os.path.abspath(treecolor.__file__))
    if where != os.path.join(SRC, "treecolor"):
        raise SystemExit(f"error: treecolor imported from {where}, not {SRC}")
    return treecolor


class SpeedProbe:
    """Samples this CPU's speed while an operation runs.

    The host this benchmark was written on is shared, and the speed one CPU
    gives a process moves by a third within seconds, in CPU time as much as
    in wall time; a probe run before and after an operation, or on the other
    CPU during it, follows that only loosely.  So a timer signal interrupts
    the operation every PROBE_INTERVAL_S and runs a fixed kernel (a Python
    loop, small-array and 1e5-entry numpy work, as in the two workloads) in
    the same thread.  `nominal` then takes the kernel's time out of the
    operation's wall time and scales the rest by PROBE_NOMINAL_S over the
    kernel's mean time.  The kernel's code is fixed here, so only a change in
    the package moves the result.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.x, self.y = rng.random(100_000), rng.integers(0, 4, 100_000)
        self.z, self.gather = np.linspace(0.0, 1.0, 12), np.arange(12) % 5
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        np = self.np
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(4000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        z = self.z
        for _ in range(100):
            q = z[self.gather] * 0.5 + z
            z = np.clip(z + 1e-3 * (q - q.sum() / 12.0), 0.0, None)
        mask = self.x < 0.3
        counts = np.bincount(self.y[mask], minlength=4)
        hits = int((np.where(mask, self.y, -1) == 2).sum())
        self.samples.append(time.perf_counter() - t0)
        assert hits == counts[2], "speed probe miscounted"

    @contextlib.contextmanager
    def during(self):
        """Sample once now and then on every timer tick until the block ends."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self.sample)
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def measure_setup(runs: int, probe: SpeedProbe) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import the package and its CLI,
    each with the mean speed-probe time of samples taken just before and
    just after it (the child runs outside the probe's reach)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(runs):
        probe.samples = []
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import treecolor.cli"],
                       env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        for _ in range(SETUP_PROBES):
            probe.sample()
        samples.append((wall, statistics.fmean(probe.samples)))
    return samples


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the threads and interpreters it starts, on the
    first CPU it may use.  Unpinned, a fresh interpreter's set-up time moves
    with where the scheduler puts it and its numpy threads, and the speed
    probe samples only the CPU it runs on.  Returns the CPU, or None where
    the platform does not allow pinning."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (ru_maxrss
    is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# Operations and their independent checks
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation: its wall and CPU time, the files it wrote, and
    the problems the checks found (empty means correct).  `probes` are the
    speed-probe samples taken during it, if it ran under a SpeedProbe."""

    wall: float
    cpu: float
    files: dict[str, str]
    problems: list[str]
    overflow_frac: float | None = None
    probes: tuple[float, ...] = ()

    @property
    def nominal(self) -> float:
        """Wall time without the probe's share, at nominal machine speed."""
        return ((self.wall - sum(self.probes)) * PROBE_NOMINAL_S
                / statistics.fmean(self.probes))


def run_cli(cli, argv: list[str]) -> int:
    """Call `treecolor.cli.main`, keeping its printing off this stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        return cli.main(argv)


def certify_argv(w: Workload, cert_path: str) -> list[list[str]]:
    return [
        ["certify", "--r", str(w.r), "--p", str(w.p), *w.certify_flags,
         "--out", cert_path],
        ["verify", "--cert", cert_path],
    ]


def simulate_argv(w: Workload, seed: int, files: dict[str, str]) -> list[list[str]]:
    argv = ["simulate", "--r", str(w.r), "--p", str(w.p),
            "--epsilon", repr(w.epsilon), "--n", str(w.n),
            "--cert", os.path.join(CERTS, w.cert), "--seed", str(seed),
            "--summary", files["summary"], "--dump", files["dump"]]
    if w.modified:
        argv.append("--modified")
    return [argv]


def check_certificate(tc, w: Workload, path: str) -> list[str]:
    problems = []
    try:
        cert = tc.load_certificate(path)
        tc.verify_certificate(cert)
    except tc.TreecolorError as exc:
        return [f"certificate does not reload and verify: {exc}"]
    if not cert.certified:
        problems.append(f"status is {cert.status!r}")
    if len(cert.refinements) != REFINEMENTS:
        problems.append(f"{len(cert.refinements)} refinements, want {REFINEMENTS}")
    if cert.r is None or f"{cert.r:.3f}" != w.r_printed:
        problems.append(f"R = {cert.r!r}, want {w.r_printed}")
    return problems


def _int_table(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        return [int(tok) for tok in fh.read().split()]


def check_coloring(w: Workload, expected_steps: int, files: dict[str, str]):
    """Scan the dumped coloring against the dumped graph fixture.  Returns
    (problems, overflow fraction)."""
    import numpy as np

    problems = []
    with open(files["summary"], encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary.get("steps") != expected_steps:
        problems.append(f"ran {summary.get('steps')} steps, want {expected_steps}")

    dump = _int_table(files["dump"])
    n, r, p = dump[:3]
    body = np.array(dump[3:], dtype=np.int64)
    if (n, r, p) != (w.n, w.r, w.p) or body.size != 2 * n:
        return problems + [f"dump header {(n, r, p)} or length {body.size} is wrong"], None
    verts, cols = body[0::2], body[1::2]
    if not np.array_equal(np.sort(verts), np.arange(n)):
        problems.append("dump does not list every vertex exactly once")
        return problems, None
    colors = np.empty(n, dtype=np.int64)
    colors[verts] = cols
    if colors.min() < 0 or colors.max() > p:
        problems.append(f"colors outside 0..{p}")

    fixture = _int_table(files["dump"] + ".graph")
    gn, gr = fixture[:2]
    edges = np.array(fixture[2:], dtype=np.int64).reshape(-1, 2)
    if (gn, gr) != (n, r) or len(edges) != n * r // 2:
        problems.append(f"graph fixture ({gn}, {gr}, {len(edges)} edges) does not fit")
    elif edges.min() < 0 or edges.max() >= n:
        problems.append("graph fixture has an edge endpoint out of range")
    else:
        clash = int((colors[edges[:, 0]] == colors[edges[:, 1]]).sum())
        if clash:
            problems.append(f"{clash} monochromatic edges")

    overflow = float((colors == p).sum()) / n
    if overflow > OVERFLOW_BOUND:
        problems.append(f"overflow fraction {overflow} exceeds {OVERFLOW_BOUND}")
    return problems, overflow


class Runner:
    """Runs and checks operations of one workload in a scratch directory."""

    def __init__(self, tc, w: Workload, workdir: str, tamper=None):
        self.tc = tc
        self.cli = sys.modules["treecolor.cli"]
        self.w = w
        self.workdir = workdir
        self.tamper = tamper  # test hook: corrupts an op's files before checking
        self.expected_steps = None
        if w.kind == "simulate":
            cert = tc.load_certificate(os.path.join(CERTS, w.cert))
            self.expected_steps = math.ceil(cert.r / w.epsilon)

    def op(self, index: int, seed: int, tag: str = "", probe: SpeedProbe | None = None) -> Op:
        w = self.w
        prefix = os.path.join(self.workdir, f"op{index}{tag}")
        if w.kind == "certify":
            files = {"cert": prefix + "-cert.json"}
            commands = certify_argv(w, files["cert"])
        else:
            files = {"summary": prefix + "-summary.json", "dump": prefix + "-coloring.txt"}
            commands = simulate_argv(w, seed, files)

        problems: list[str] = []
        t0, c0 = time.perf_counter(), time.process_time()
        with probe.during() if probe else contextlib.nullcontext():
            try:
                for argv in commands:
                    code = run_cli(self.cli, argv)
                    if code != 0:
                        problems.append(f"treecolor {argv[0]} exited with {code}")
                        break
            except Exception:  # a crash is one failed operation; the run goes on
                traceback.print_exc()
                problems.append("treecolor raised")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

        result = Op(wall, cpu, files, problems, probes=tuple(probe.samples) if probe else ())
        if problems:
            return result
        if self.tamper is not None:
            self.tamper(w, files)
        if w.kind == "certify":
            problems += check_certificate(self.tc, w, files["cert"])
        else:
            found, result.overflow_frac = check_coloring(w, self.expected_steps, files)
            problems += found
        return result


def instance_seed(seed: int, index: int) -> int:
    """Process and graph seed of the index-th operation of a run."""
    return seed * 1000 + index


def file_digest(files: dict[str, str]) -> dict[str, str]:
    """SHA-256 of every file an operation wrote, keyed by its role."""
    paths = dict(files)
    if "dump" in files:
        paths["graph"] = files["dump"] + ".graph"
    out = {}
    for key, path in paths.items():
        with open(path, "rb") as fh:
            out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Traced run: wrappers at the layer boundaries and the per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER = {
    "certify.refine_s.0": "s", "certify.refine_s.1": "s", "certify.refine_s.2": "s",
    "certify.ode_steps": "count", "certify.find_stop_time_s": "s",
    "certify.roundtrip_s": "s", "certify.cpu_s": "s", "certify.cpu_per_wall": "ratio",
    "dynamics.drift_evals": "count", "dynamics.drift_eval_us": "us",
    "graphs.gen_regular_graph_s": "s", "graphs.edges": "count",
    "process.run_phase1_s": "s", "process.greedy_step_s": "s",
    "process.activation_sample_s": "s", "process.color_draw_s": "s",
    "process.invariant_check_s": "s", "process.snapshot_s": "s",
    "process.round_engine_s": "s", "process.step_overhead_ms": "ms",
    "process.steps": "count", "process.activations": "count",
    "process.forced": "count", "process.reds": "count",
    "process.engine_rounds": "count", "process.activation_yield": "ratio",
    "process.buffer_rounds_s": "s", "process.buffer_calls": "count",
    "process.buffer_work_rounds": "count", "process.buffer_useful_ratio": "ratio",
    "process.complete_remainder_s": "s", "process.tidy_s": "s",
    "process.verify_proper_s": "s", "process.completion_failures": "count",
    "process.tidy_erased": "count", "process.overflow_frac": "fraction",
    "listcolor.color_component_s": "s", "listcolor.calls": "count",
    "listcolor.unsolved": "count",
    "stats.collect_run_stats_s": "s", "stats.component_stats_s": "s",
    "stats.trajectory_distance_s": "s", "stats.trajectory_distance": "fraction",
    "trace.overhead_frac": "fraction", "trace.child_coverage": "fraction",
}


def install_wrappers(tracer, kind: str) -> None:
    """Wrap each public function where its caller looks it up."""
    cli = sys.modules["treecolor.cli"]
    if kind == "certify":
        certify_mod = sys.modules["treecolor.certify"]
        tracer.wrap(certify_mod, "integrate", "integrate", keep_result=True)
        tracer.wrap(certify_mod, "find_stop_time", "find_stop_time")
        for name in ("save_certificate", "load_certificate", "verify_certificate"):
            tracer.wrap(cli, name, name)
        return
    process = sys.modules["treecolor.process"]
    for name in ("gen_regular_graph", "run_phase1", "collect_run_stats",
                 "component_stats", "trajectory_distance", "complete_remainder",
                 "tidy_to_proper", "verify_proper"):
        tracer.wrap(cli, name, name, keep_result=True)
    tracer.wrap(process, "greedy_step", "greedy_step")
    tracer.wrap(process, "buffer_rounds", "buffer_rounds", keep_result=True)
    tracer.wrap(process, "color_component", "color_component", keep_result=True)
    tracer.wrap(process.ProcessRandomness, "activation_mask", "activation_mask")
    tracer.wrap(process.ProcessRandomness, "choose_color", "choose_color")
    tracer.wrap(process.ColoringState, "check_invariants", "check_invariants")
    tracer.wrap(process.ColoringState, "empirical_distribution", "empirical_distribution")


def layer_metrics(tracer, kind: str, op: Op) -> dict[str, float]:
    """Per-layer values from the spans of one traced operation; layers the
    workload does not exercise read 0."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    if kind == "certify":
        runs = tracer.named("integrate")
        with open(op.files["cert"], encoding="utf-8") as fh:
            grid = [entry["step"] for entry in json.load(fh)["refinements"]]
        steps = 0
        for k, (span, h) in enumerate(zip(runs, grid)):
            m[f"certify.refine_s.{k}"] = span.end - span.start
            # the last sample sits on the fixed grid, so it counts the steps
            steps += round(float(span.result.times[-1]) / h)
        m["certify.ode_steps"] = steps
        m["certify.find_stop_time_s"] = tracer.total("find_stop_time")
        m["certify.roundtrip_s"] = sum(tracer.total(n) for n in (
            "save_certificate", "load_certificate", "verify_certificate"))
        m["certify.cpu_s"] = op.cpu
        m["certify.cpu_per_wall"] = op.cpu / op.wall
        m["dynamics.drift_evals"] = 4 * steps  # computed: four stages per RK4 step
        refine = sum(s.end - s.start for s in runs)
        m["dynamics.drift_eval_us"] = refine / (4 * steps) * 1e6  # computed
        m["trace.child_coverage"] = refine / op.wall
        return m

    def one(name):
        (span,) = tracer.named(name)
        return span

    phase1 = one("run_phase1")
    phase1_s = phase1.end - phase1.start
    reports, dists = phase1.result
    graph = one("gen_regular_graph").result
    steps = len(reports)
    m["graphs.gen_regular_graph_s"] = tracer.total("gen_regular_graph")
    m["graphs.edges"] = graph.m
    m["process.run_phase1_s"] = phase1_s
    m["process.greedy_step_s"] = tracer.total("greedy_step")
    m["process.activation_sample_s"] = tracer.total("activation_mask")
    m["process.color_draw_s"] = tracer.total("choose_color")
    m["process.invariant_check_s"] = tracer.within("run_phase1", "check_invariants")
    m["process.snapshot_s"] = tracer.within("run_phase1", "empirical_distribution")
    m["process.round_engine_s"] = (m["process.greedy_step_s"]
                                   - tracer.children_total("greedy_step"))
    m["process.step_overhead_ms"] = 1e3 * (
        m["process.activation_sample_s"] + m["process.color_draw_s"]
        + m["process.invariant_check_s"] + m["process.snapshot_s"]) / steps
    m["process.steps"] = steps
    m["process.activations"] = sum(rep.active for rep in reports)
    m["process.forced"] = sum(rep.rule2 for rep in reports)
    m["process.reds"] = sum(rep.new_red + (rep.buffer.red_created if rep.buffer else 0)
                            for rep in reports)
    m["process.engine_rounds"] = sum(rep.rounds for rep in reports)
    exposed = sum(z.mass() for z in dists[:-1]) * graph.n
    m["process.activation_yield"] = m["process.activations"] / exposed
    buffers = tracer.named("buffer_rounds")
    m["process.buffer_rounds_s"] = tracer.total("buffer_rounds")
    m["process.buffer_calls"] = len(buffers)
    m["process.buffer_work_rounds"] = sum(1 for s in buffers if s.result.rounds > 0)
    if buffers:
        m["process.buffer_useful_ratio"] = m["process.buffer_work_rounds"] / len(buffers)
    m["process.complete_remainder_s"] = tracer.total("complete_remainder")
    m["process.tidy_s"] = tracer.total("tidy_to_proper")
    m["process.verify_proper_s"] = tracer.total("verify_proper")
    m["process.completion_failures"] = one("complete_remainder").result.failures
    m["process.tidy_erased"] = one("tidy_to_proper").result.erased
    m["process.overflow_frac"] = op.overflow_frac
    solves = tracer.named("color_component")
    m["listcolor.color_component_s"] = tracer.total("color_component")
    m["listcolor.calls"] = len(solves)
    m["listcolor.unsolved"] = sum(1 for s in solves if s.result[0] != "colored")
    m["stats.collect_run_stats_s"] = tracer.total("collect_run_stats")
    m["stats.component_stats_s"] = tracer.total("component_stats")
    m["stats.trajectory_distance_s"] = tracer.total("trajectory_distance")
    m["stats.trajectory_distance"] = one("trajectory_distance").result
    m["trace.child_coverage"] = tracer.children_total("run_phase1") / phase1_s
    return m


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MiB"}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out: str = OUT,
                 setup_runs: int = SETUP_RUNS, tamper=None) -> dict:
    """Run one workload and return its result record: context, per-operation
    outcomes, and the metrics for the requested trace mode.  Scratch files
    and the span log go under `out`."""
    tc = import_treecolor()
    ctx = context(seed)
    workdir = os.path.join(out, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probe = SpeedProbe()
        probe.sample()  # warm-up
        setup = measure_setup(setup_runs, probe)
        runner = Runner(tc, w, workdir, tamper)
        if trace:
            ops, metrics = traced_run(runner, seed, out)
        else:
            ops = []
            start = time.perf_counter()
            # start another operation only if it is expected to end in time
            while not ops or (time.perf_counter() - start) / len(ops) * (len(ops) + 1) <= seconds:
                ops.append(runner.op(len(ops), instance_seed(seed, len(ops)), probe=probe))
            metrics = {
                "setup_s": statistics.median(wall * PROBE_NOMINAL_S / speed
                                             for wall, speed in setup),
                "command_s": statistics.median(op.nominal for op in ops),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ctx["loadavg_after"] = list(os.getloadavg())
    failed = sum(1 for op in ops if op.problems)
    return {
        "workload": w.name,
        "trace": int(trace),
        "context": ctx,
        "setup_samples": [{"wall_s": wall, "probe_mean_s": speed} for wall, speed in setup],
        "ops": [{"wall_s": op.wall, "cpu_s": op.cpu, "probe_samples": len(op.probes),
                 "probe_s": sum(op.probes), "nominal_s": op.nominal if op.probes else None,
                 "overflow_frac": op.overflow_frac, "problems": op.problems} for op in ops],
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def traced_run(runner: Runner, seed: int, out: str):
    """One untraced and one traced operation on the same inputs."""
    from spans import Tracer

    base = runner.op(0, instance_seed(seed, 0))
    tracer = Tracer()
    install_wrappers(tracer, runner.w.kind)
    try:
        traced = runner.op(0, instance_seed(seed, 0), tag="-traced")
    finally:
        tracer.restore()
    ops = [base, traced]
    if base.problems or traced.problems:
        return ops, {k: {"value": 0.0, "unit": u} for k, u in PER_LAYER.items()}
    if file_digest(base.files) != file_digest(traced.files):
        traced.problems.append("traced outputs differ from the untraced run's")
    tracer.write(os.path.join(out, f"{runner.w.name}-seed{seed}-spans.jsonl"))
    values = layer_metrics(tracer, runner.w.kind, traced)
    values["trace.overhead_frac"] = (traced.wall - base.wall) / base.wall
    return ops, {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}


def summary_line(w: Workload, result: dict) -> str:
    """Human-readable line with the user-facing numbers of the run."""
    ops = result["ops"]
    walls = [op["wall_s"] for op in (ops[:1] if result["trace"] else ops)]
    parts = [f"{w.name} seed={result['context']['seed']} trace={result['trace']}:",
             f"{'certify_s' if w.kind == 'certify' else 'pipeline_s'}="
             f"{statistics.median(walls):.4f} s (median of {len(walls)})"]
    if not result["trace"]:
        m = result["metrics"]
        parts += [f"command_s={m['command_s']['value']:.4f} s and "
                  f"setup_s={m['setup_s']['value']:.4f} s at nominal speed",
                  f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MiB"]
    fracs = [op["overflow_frac"] for op in ops if op["overflow_frac"] is not None]
    if fracs:
        parts.append(f"overflow_frac={statistics.median(fracs):.6g}")
    parts.append(f"failed_frac={result['failed'] / result['attempted']:.4g}")
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    w = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()  # before numpy starts its threads
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    result["context"]["pinned_cpu"] = cpu
    path = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for i, op in enumerate(result["ops"]):
        for problem in op["problems"]:
            print(f"operation {i} failed: {problem}", file=sys.stderr)
    print("context: " + json.dumps(result["context"]))
    print(summary_line(w, result))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
