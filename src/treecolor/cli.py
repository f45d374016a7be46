"""Command-line front end.

Five subcommands cover the package's workflows:

  certify    integrate the drift ODE and emit a subcriticality certificate
  integrate  integrate the drift ODE and emit the raw trajectory as CSV
  simulate   run the coloring process on a random graph end to end
  sweep      run an (epsilon x seed) grid in parallel and fit red scaling
  verify     re-validate a certificate file or a coloring dump

Exit codes: 0 success/certified, 1 certification or verification failure,
2 invalid configuration or malformed input, 3 internal error.

Flags may also be supplied via `--config FILE` holding `key=value` lines
(hyphens and underscores are interchangeable in keys); explicit flags win.
Every artifact embeds the resolved configuration and seeds, either as JSON
fields or as leading `#` comment lines.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from . import __version__
from .certify import (
    DEFAULT_THRESHOLD,
    Certificate,
    IntegrationControl,
    certify,
    integrate,
    find_stop_time,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from .dynamics import (
    PaletteConfig,
    TuningParams,
    VertexType,
    default_tuning,
    type_space,
)
from .errors import (
    CertificateParseError,
    CertificateVerificationError,
    ConfigurationError,
    TreecolorError,
    read_text,
)
from .graphs import (Graph, format_rows, gen_regular_graph, gen_tree_ball, parse_fixture,
                     read_coloring, write_coloring, write_fixture)
from .process import (
    MAX_SEED,
    ColoringState,
    CompletionReport,
    ProperReport,
    TidyReport,
    complete_remainder,
    run_phase1,
    tidy_to_proper,
    uncolored_components,
    verify_proper,
)
from .stats import (
    ComponentStats,
    RunStats,
    collect_run_stats,
    component_stats,
    red_scaling,
    stats_csv,
    trajectory_distance,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
MAX_STEPS = 10 ** 6  # longest run; phase 1 keeps up to about 1 KB per step


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _parse_weight(text: str) -> tuple[VertexType, float]:
    """Parse one `d,c=value` tuning override."""
    lhs, _, rhs = text.partition("=")
    try:
        return VertexType.parse(lhs), float(rhs)
    except ValueError:
        raise ConfigurationError(f"weight override must look like d,c=value: {text!r}") from None


def _read_config_file(path: str) -> list[tuple[str, str]]:
    """Ordered key=value pairs; blank lines and #-comments skipped."""
    raw = read_text(path, ConfigurationError)
    pairs = []
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {line!r}"
            )
        pairs.append((key.strip().replace("_", "-"), value.strip()))
    return pairs


_BOOL_KEYS = {"modified"}


def _config_tokens(pairs: list[tuple[str, str]]) -> list[str]:
    tokens = []
    for key, value in pairs:
        if key in _BOOL_KEYS:
            if value.lower() in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
            elif value.lower() in ("0", "false", "no", "off"):
                pass
            else:
                raise ConfigurationError(f"boolean key {key!r} has value {value!r}")
        else:
            tokens += [f"--{key}", value]
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """If --config FILE appears, splice its tokens in right after the
    subcommand so explicit flags (parsed later) win."""
    if not argv or argv[0].startswith("-"):
        return argv
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigurationError("--config needs a file path")
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    tokens = _config_tokens(_read_config_file(path))
    return [argv[0]] + tokens + argv[1:]


def _add_palette_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r", type=int, required=True, help="graph degree")
    sub.add_argument("--p", type=int, required=True, help="palette size")
    sub.add_argument(
        "--weight", action="append", default=[], metavar="d,c=VALUE",
        help="override one activation weight (repeatable)",
    )


def _add_control_flags(sub: argparse.ArgumentParser, max_time: float | None = None) -> None:
    sub.add_argument("--step", type=float, default=None, help="integration step")
    sub.add_argument("--max-time", type=float, default=max_time,
                     help="integration horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecolor",
        description="Greedy coloring process on random regular graphs: "
                    "ODE certification, simulation, and verification.",
    )
    parser.add_argument("--version", action="version", version=f"treecolor {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)

    cert = subs.add_parser("certify", help="emit a subcriticality certificate")
    _add_palette_flags(cert)
    _add_control_flags(cert)
    cert.add_argument("--halvings", type=int, default=None,
                      help="step-halving refinements")
    cert.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    cert.add_argument("--out", default=None, help="certificate JSON path")
    cert.add_argument("--config", default=None, help="key=value config file")

    integ = subs.add_parser("integrate", help="emit the ODE trajectory as CSV")
    _add_palette_flags(integ)
    _add_control_flags(integ, max_time=500.0)  # it records every sample
    integ.add_argument("--threshold", type=float, default=None,
                       help="stop when remainder growth falls below this")
    integ.add_argument("--out", default=None, help="trajectory CSV path")
    integ.add_argument("--config", default=None, help="key=value config file")

    sim = subs.add_parser("simulate", help="run the process end to end")
    _add_palette_flags(sim)
    sim.add_argument("--epsilon", type=float, required=True)
    sim.add_argument("--n", type=int, default=None, help="number of vertices")
    sim.add_argument("--steps", type=int, default=None,
                     help="number of greedy steps (overrides --cert)")
    sim.add_argument("--cert", default=None,
                     help="certificate; run ceil(R/epsilon) steps and report "
                          "the trajectory distance")
    sim.add_argument("--seed", type=int, default=0, help="process seed")
    sim.add_argument("--graph-seed", type=int, default=None,
                     help="graph seed (default: same as --seed)")
    sim.add_argument("--graph-kind", choices=("random-regular", "tree-ball"),
                     default="random-regular")
    sim.add_argument("--radius", type=int, default=None,
                     help="tree-ball radius (tree-ball graphs only)")
    sim.add_argument("--modified", action="store_true",
                     help="buffer rounds after every step")
    sim.add_argument("--out", default=None, help="per-step stats CSV path")
    sim.add_argument("--summary", default=None, help="summary JSON path")
    sim.add_argument("--dump", default=None,
                     help="final coloring dump path (writes PATH and PATH.graph)")
    sim.add_argument("--config", default=None, help="key=value config file")

    sweep = subs.add_parser("sweep", help="epsilon x seed grid, red scaling fit")
    _add_palette_flags(sweep)
    sweep.add_argument("--epsilons", required=True,
                       help="comma-separated epsilon grid")
    sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--steps", type=int, default=None,
                       help="fixed step count per cell (overrides --cert)")
    sweep.add_argument("--cert", default=None,
                       help="certificate; each cell runs ceil(R/epsilon) steps")
    sweep.add_argument("--graph-seed", type=int, default=None,
                       help="shared graph seed (default: per-cell seed)")
    sweep.add_argument("--modified", action="store_true")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="parallel workers (default: cpu count)")
    sweep.add_argument("--out", default=None, help="per-cell CSV path")
    sweep.add_argument("--config", default=None, help="key=value config file")

    ver = subs.add_parser("verify", help="re-validate a certificate or a dump")
    ver.add_argument("--cert", default=None, help="certificate JSON to verify")
    ver.add_argument("--dump", default=None, help="coloring dump to verify")
    ver.add_argument("--graph", default=None,
                     help="graph fixture for --dump (default: DUMP.graph)")
    ver.add_argument("--bound", type=float, default=None,
                     help="maximum extra-color fraction for --dump, in [0, 1] (default 0.05)")
    ver.add_argument("--config", default=None, help="key=value config file")

    return parser


def _tuning_for(args, epsilon=None) -> TuningParams:
    cfg = PaletteConfig(args.r, args.p)
    tuning = default_tuning(cfg, epsilon)
    if args.weight:
        weights = dict(tuning.weights)
        weights.update(map(_parse_weight, args.weight))
        tuning = TuningParams(cfg, weights, epsilon)
    return tuning


def _control_for(args) -> IntegrationControl:
    given = {k: vars(args).get(k) for k in ("step", "max_time", "halvings")}
    return IntegrationControl(**{k: v for k, v in given.items() if v is not None})


def _config_echo(args, keys: list[str]) -> dict:
    out = {}
    for key in keys:
        out[key] = getattr(args, key.replace("-", "_"))
    return out


def _comment_block(config: dict) -> str:
    lines = [f"# {k}={config[k]}" for k in config]
    lines.insert(0, f"# treecolor {__version__}")
    return "\n".join(lines) + "\n"


def _emit(args, chunks: Iterable[str], what: str) -> TextIO:
    """Write the text `chunks` to `--out` and say so, or else to stdout.
    Returns the stream for status lines, which stay out of the table:
    stdout beside an `--out` file, stderr when the table is on stdout."""
    if not args.out:
        sys.stdout.writelines(chunks)
        return sys.stderr
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    print(f"wrote {args.out} ({what})")
    return sys.stdout


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    tuning = _tuning_for(args)
    cfg = tuning.cfg
    cert = certify(cfg, tuning, threshold=args.threshold, control=_control_for(args))
    if args.out:
        save_certificate(cert, args.out)
        print(f"wrote {args.out}")
    if cert.certified:
        print(
            f"certified {cfg}: R={cert.r:.6f}  "
            f"max g on [0,R]={cert.max_g_on_0_r:.6f}  "
            f"remainder at R={cert.remainder_growth_at_r:.6f}  "
            f"margins g={cert.margin_g:.3e} remainder={cert.margin_remainder:.3e}"
        )
        return EXIT_OK
    print(f"certification failed {cfg}: "
          f"{cert.diagnostics.get('failure')}")
    for entry in cert.refinements:
        if entry.get("found"):
            print(f"  step {entry['step']:g}: crossing at {entry['r']:.6f}")
        else:
            extra = (f" (growth violation at t={entry['violation_time']:.6f})"
                     if "violation_time" in entry else "")
            print(f"  step {entry['step']:g}: {entry.get('reason')}{extra}")
    return EXIT_FAILURE


def cmd_integrate(args) -> int:
    tuning = _tuning_for(args)
    control = _control_for(args)
    traj = integrate(tuning, control, stop_at_remainder_below=args.threshold)
    space = type_space(tuning.cfg)
    config = _config_echo(args, ["r", "p", "threshold", "weight"])
    config.update(method="rk4", step=control.step, max_time=control.max_time)
    header = _comment_block(config) + "time,g,remainder," + ",".join(
        f"z_{t.d}_{t.c}" for t in space.types) + "\n"
    rows = format_rows(",".join(["%r"] * (3 + len(space.types))) + "\n",
                       traj.times, traj.g_values, traj.remainder_values, traj.states)
    status = _emit(args, itertools.chain([header], rows), f"{len(traj.times)} samples")
    if traj.aborted:
        print(f"integration aborted: {traj.abort_reason}", file=status)
    if args.threshold is not None:
        entry = find_stop_time(traj, args.threshold)
        if entry["found"]:
            print(f"remainder crossed {args.threshold:g} at t={entry['r']:.6f}", file=status)
        else:
            print(f"no crossing: {entry['reason']}", file=status)
    return EXIT_OK


def _run_certificate(args, tuning: TuningParams) -> Certificate | None:
    """The `--cert` certificate, if given: verified, then required to be
    made for the run's degree, palette and weights."""
    if not args.cert:
        return None
    cert = load_certificate(args.cert)
    verify_certificate(cert)
    if cert.cfg != tuning.cfg:
        raise ConfigurationError(
            f"certificate is for {cert.cfg}, run is {tuning.cfg}"
        )
    for t in sorted(set(cert.tuning) | set(tuning.weights)):
        if cert.tuning.get(t) != tuning.weights.get(t):
            raise ConfigurationError(
                f"certificate tuning differs from the run's at type {t}: "
                f"weight {cert.tuning.get(t)!r} vs {tuning.weights.get(t)!r}")
    return cert


def _resolve_steps(args, epsilon: float, cert: Certificate | None) -> int:
    """`--steps`, or else ceil(R / epsilon) for the certificate's R."""
    flag = "--epsilons" if args.mode == "sweep" else "--epsilon"
    if not epsilon > 0.0:
        raise ConfigurationError(f"{flag} must be positive, got {epsilon!r}")
    if args.steps is not None:
        if not 0 <= args.steps <= MAX_STEPS:
            raise ConfigurationError(f"--steps must be in [0, {MAX_STEPS}], got {args.steps}")
        return args.steps
    if cert is None:
        raise ConfigurationError("need --steps or --cert to fix the run length")
    if not cert.certified:
        raise ConfigurationError(f"{args.cert} is not a certified certificate")
    if cert.r / epsilon > MAX_STEPS:
        raise ConfigurationError(f"{flag} {epsilon!r}: ceil(R/epsilon) steps exceed {MAX_STEPS}")
    return math.ceil(cert.r / epsilon)


def _build_graph(args):
    if args.graph_kind == "tree-ball":
        for flag, value in (("--n", args.n), ("--graph-seed", args.graph_seed)):
            if value is not None:
                raise ConfigurationError(f"{flag} does not apply to tree-ball graphs")
        if args.radius is None:
            raise ConfigurationError("tree-ball graphs need --radius")
        return gen_tree_ball(args.r, args.radius)
    if args.radius is not None:
        raise ConfigurationError("--radius applies only to tree-ball graphs")
    if args.n is None:
        raise ConfigurationError("random-regular graphs need --n")
    graph_seed = args.graph_seed if args.graph_seed is not None else args.seed
    return gen_regular_graph(args.n, args.r, seed=graph_seed)


class RunResult(NamedTuple):
    """Every stage's output of one end-to-end run, plus the final state."""

    state: ColoringState
    stats: RunStats
    components: ComponentStats
    completion: CompletionReport
    tidy: TidyReport
    proper: ProperReport


def run_pipeline(graph: Graph, tuning: TuningParams, steps: int, seed: int,
                 modified: bool) -> RunResult:
    """Color `graph` end to end: phase 1, uncolored-component stats, phase 2,
    tidy-up and an independent properness check.  The stages are looked up
    in this module's globals, so wrapping them on `treecolor.cli` traces them."""
    state = ColoringState(graph, tuning.cfg, seed=seed)
    reports, dists = run_phase1(state, tuning, steps, modified=modified)
    stats = collect_run_stats(state, tuning.epsilon, reports, dists)
    remainder = uncolored_components(state)
    comp = component_stats(state, remainder)
    completion = complete_remainder(state, remainder)
    tidy = tidy_to_proper(state)
    proper = verify_proper(state.graph, state.color)
    return RunResult(state, stats, comp, completion, tidy, proper)


def summary_json(args, run: RunResult, cert) -> str:
    """The run's summary JSON: phase-1 tallies, the final fractions after
    tidy-up, the later stages, the resolved configuration and, given a
    certified certificate, the trajectory distance."""
    state, stats, comp, completion, tidy, proper = run
    counts = state.counts()
    body = {
        "r": stats.r,
        "p": stats.p,
        "epsilon": stats.epsilon,
        "n": stats.n,
        "steps": stats.steps,
        "final_uncolored_frac": counts["uncolored"] / stats.n,
        "final_red_frac": counts["red"] / stats.n,
        "final_extra_frac": counts["extra"] / stats.n,
        "total_cascades": sum(rep.active for rep in stats.reports),
        "buffer_colored_per_round": list(stats.buffer_colored_per_round),
        "component_histogram": {str(k): v for k, v in sorted(comp.histogram.items())},
        "violations": len(proper.violations) + len(proper.red_red),
        "failure_counts": {"completion": completion.failures, "tidy": tidy.failures},
        "red_before_tidy": tidy.red_before,
        "completion_components": completion.components,
        "completion_colored": completion.colored,
        "tidy_erased": tidy.erased,
        "uncolored_component_count": comp.count,
        "uncolored_component_mean": comp.mean_size,
        "uncolored_component_max": comp.max_size,
        "proper": proper.ok,
        "config": _config_echo(args, [
            "r", "p", "epsilon", "n", "steps", "seed", "graph-seed",
            "graph-kind", "radius", "modified", "weight", "cert",
        ]) | {"resolved_steps": stats.steps},
    }
    if cert is not None and cert.certified:
        body["trajectory_distance"] = trajectory_distance(stats, cert)
    return json.dumps(body, indent=2) + "\n"


def cmd_simulate(args) -> int:
    if not 0 <= args.seed <= MAX_SEED:
        raise ConfigurationError(
            f"--seed must be a process seed in [0, {MAX_SEED}], got {args.seed}")
    tuning = _tuning_for(args, epsilon=args.epsilon)
    cert = _run_certificate(args, tuning)
    steps = _resolve_steps(args, args.epsilon, cert)
    graph = _build_graph(args)
    run = run_pipeline(graph, tuning, steps, args.seed, args.modified)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(stats_csv(run.stats))
    text = summary_json(args, run, cert)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.dump:
        write_coloring(graph, run.state.color, tuning.cfg.p, args.dump)
        with open(args.dump + ".graph", "w", encoding="utf-8") as fh:
            fh.write(write_fixture(graph))
    sys.stdout.write(text)
    if not run.proper.ok:
        bad = run.proper.violations + run.proper.red_red
        print(f"final coloring is NOT proper: {len(bad)} bad edges, e.g. {bad[:10]}")
        return EXIT_FAILURE
    return EXIT_OK


def _sweep_cell(cell: tuple) -> dict:
    """One (epsilon, seed) cell; runs in a worker process."""
    tuning, n, seed, graph_seed, steps, modified = cell
    graph = gen_regular_graph(n, tuning.cfg.r, seed=graph_seed)
    result = run_pipeline(graph, tuning, steps, seed, modified)
    return {
        "epsilon": tuning.epsilon,
        "seed": seed,
        "red_frac": result.tidy.red_before / n,
        "steps": steps,
        "bad_edges": result.proper.violations + result.proper.red_red,
    }


def cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        epsilons = [float(x) for x in args.epsilons.split(",") if x.strip()]
        seeds = [int(x) for x in args.seeds.split(",") if x.strip()]
    except ValueError:
        raise ConfigurationError(
            "--epsilons and --seeds must be comma-separated numbers"
        ) from None
    if not epsilons or not seeds:
        raise ConfigurationError("need at least one epsilon and one seed")
    for seed in seeds:
        if not 0 <= seed <= MAX_SEED:
            raise ConfigurationError(
                f"--seeds entries must be process seeds in [0, {MAX_SEED}], got {seed}")
    cert = _run_certificate(args, _tuning_for(args))
    cells = []  # in (epsilon, seed) order, which the output keeps
    for eps in sorted(set(epsilons)):
        steps = _resolve_steps(args, eps, cert)
        tuning = _tuning_for(args, epsilon=eps)  # validates eps * max weight
        for seed in sorted(set(seeds)):
            graph_seed = args.graph_seed if args.graph_seed is not None else seed
            cells.append((tuning, args.n, seed, graph_seed, steps, args.modified))
    # fork starts every worker at the first submit: no more of them than cores
    jobs = min(args.jobs or math.inf, len(cells), os.cpu_count() or 1)
    if jobs == 1:
        results = [_sweep_cell(c) for c in cells]
    else:
        # imported here, so no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_cell, cells))

    config = _config_echo(args, [
        "r", "p", "epsilons", "seeds", "n", "steps", "cert", "graph-seed",
        "modified", "weight",
    ])
    lines = [_comment_block(config).rstrip("\n"), "epsilon,seed,red_frac,steps"]
    for row in results:
        lines.append(f"{row['epsilon']!r},{row['seed']},{row['red_frac']!r},"
                     f"{row['steps']}")
    status = _emit(args, ["\n".join(lines) + "\n"], f"{len(results)} cells")

    by_eps: dict[float, list[float]] = {}
    for row in results:
        by_eps.setdefault(row["epsilon"], []).append(row["red_frac"])
    means = {eps: float(np.mean(v)) for eps, v in by_eps.items()}
    grid = sorted(means)
    print("epsilon  mean red fraction", file=status)
    for eps in grid:
        print(f"{eps:<8g} {means[eps]:.6g}", file=status)
    for small, big in zip(grid, grid[1:]):
        if abs(big / small - 2.0) < 1e-9 and means[big] > 0:
            print(f"ratio red({small:g})/red({big:g}) = "
                  f"{means[small] / means[big]:.4f}", file=status)
    if len(by_eps) >= 3 and all(len(v) >= 3 for v in by_eps.values()):
        fit = red_scaling([(row["epsilon"], row["red_frac"]) for row in results])
        if fit.degenerate:
            none = ", ".join(f"{eps:g}" for eps, mean in fit.means.items() if mean == 0.0)
            print(f"red scaling: degenerate (no reds at epsilon {none})", file=status)
        else:
            print(f"red scaling: log-log slope {fit.slope:.4f}", file=status)
    improper = [row for row in results if row["bad_edges"]]
    for row in improper:
        print(f"cell epsilon={row['epsilon']!r} seed={row['seed']}: final coloring "
              f"is NOT proper: {len(row['bad_edges'])} bad edges, "
              f"e.g. {row['bad_edges'][:10]}", file=status)
    return EXIT_FAILURE if improper else EXIT_OK


def _verify_dump(args) -> int:
    bound = 0.05 if args.bound is None else args.bound
    if not 0.0 <= bound <= 1.0:
        raise ConfigurationError(f"--bound must be in [0, 1], got {bound!r}")
    n, r, p, colors = read_coloring(args.dump)
    graph_path = args.graph if args.graph else args.dump + ".graph"
    graph, _ = parse_fixture(read_text(graph_path, ConfigurationError))
    if (graph.n, graph.r) != (n, r):
        raise ConfigurationError(
            f"dump has n={n}, r={r} but graph has n={graph.n}, r={graph.r}"
        )
    # a dump lists every vertex with a color in [0, p], so no edge is red-red
    clash = verify_proper(graph, colors).violations
    extra_frac = float((colors == p).sum()) / n if n else 0.0
    if clash:
        print(f"{args.dump}: {len(clash)} violating edges")
        for u, v in clash[:10]:
            print(f"  edge ({u},{v}): both colored {int(colors[u])}")
        return EXIT_FAILURE
    print(f"{args.dump}: proper, extra-color fraction {extra_frac:.6g} "
          f"(bound {bound:g})")
    if extra_frac > bound:
        print(f"extra-color fraction exceeds the bound {bound:g}")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_verify(args) -> int:
    if (args.cert is None) == (args.dump is None):
        raise ConfigurationError("verify needs exactly one of --cert or --dump")
    if args.cert:
        for flag, value in (("--graph", args.graph), ("--bound", args.bound)):
            if value is not None:
                raise ConfigurationError(f"{flag} applies only to --dump")
        cert = load_certificate(args.cert)
        verify_certificate(cert)
        if not cert.certified:
            print(f"{args.cert}: consistent but status is {cert.status!r}")
            return EXIT_FAILURE
        print(
            f"{args.cert}: verified {cert.cfg} "
            f"R={cert.r:.6f} margins g={cert.margin_g:.3e} "
            f"remainder={cert.margin_remainder:.3e}"
        )
        return EXIT_OK
    return _verify_dump(args)


_COMMANDS = {
    "certify": cmd_certify,
    "integrate": cmd_integrate,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        return _COMMANDS[args.mode](args)
    except (ConfigurationError, CertificateParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificateVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except TreecolorError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
