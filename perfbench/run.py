"""tlradapt benchmark: one workload per invocation, one JSON result as the last line.

    python3 perfbench/run.py --workload grid_linear_lowrank --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its ``src``
directory. With ``--trace 0`` the result holds the end-to-end metrics named
in BENCHMARK.json, with ``--trace 1`` the per-layer metrics from a run whose
operations alternate between untraced and traced. ``--smoke`` runs every
workload once at a tiny size in both modes and validates the result schema.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-up (input generation, CSV writing, z-scoring, warm-up) runs this many
# times per invocation; setup_s is the median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Printed with the end-to-end metrics but left out of the JSON result: each is
# 0, missing or a fixed multiple of wall_s on some workload (see README.md).
PRINTED_UNITS = {
    "configs_per_s": "1/s",
    "fit_s": "s",
    "serve_s": "s",
    "target_accuracy": "fraction",
    "error_rate": "fraction",
}

PER_LAYER_UNITS = {
    "tlr.eigen_basis.s": "s",
    "tlr.eigen_basis.calls": "count",
    "tlr.eigen_basis.order": "rows",
    "tlr.eigen_basis.useful_ratio": "ratio",
    "tlr.build_AB.s": "s",
    "tlr.solve_W.s": "s",
    "tlr.fit.s": "s",
    "tlr.save_model.s": "s",
    "tlr.load_model.s": "s",
    "tlr.embed.s": "s",
    "classify.knn1_predict.s": "s",
    "classify.accuracy.calls": "count",
    "bench.grid_search.self_s": "s",
    "bench.knn_distances.s": "s",
    "bench.knn_distances.calls": "count",
    "bench.emit_report.s": "s",
    "bench.report_bytes": "bytes",
    "kernels.build_joint_kernel.s": "s",
    "kernels.median_bandwidth.s": "s",
    "kernels.gram.s": "s",
    "dataset.load_csv.s": "s",
    "dataset.standardize_pair.s": "s",
    "dataset.sample_per_class.s": "s",
    "dataset.sample_per_class.calls": "count",
    "mmd.mmd_matrix.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "env.blas_threads": "count",
    "env.nproc": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name, see perfbench/README.md")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument(
        "--blas-threads",
        type=int,
        default=None,
        help="BLAS threads set at process start (default: nproc, what a user gets)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, every workload, schema check"
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def environment(blas_threads: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    def openblas(module) -> str:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": nproc,
        "blas_threads": blas_threads,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": openblas(np),
        "scipy_blas": openblas(scipy),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of the largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds, trace, tracer):
    """Set up SETUP_REPEATS times, then run operations for `seconds` and check each.

    With trace, odd-numbered operations run under the tracer, so a run has
    both traced and untraced operations; it always has at least two.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.prepare()
        setup_times.append(time.perf_counter() - started)
    outcomes, problems_by_op = [], []
    first = None
    minimum_ops = 2 if trace else 1
    started = time.perf_counter()
    while len(outcomes) < minimum_ops or time.perf_counter() - started < seconds:
        op = len(outcomes)
        try:
            if trace and op % 2 == 1:
                with tracer.installed(op):
                    outcome = workload.operation()
            else:
                outcome = workload.operation()
            problems = workload.check(outcome, first)
        except Exception:
            outcome, problems = None, [traceback.format_exc()]
        outcomes.append(outcome)
        problems_by_op.append(problems)
        if first is None and not problems:
            first = outcome
    return setup_times, outcomes, problems_by_op


def median_of(outcomes, key, ops):
    return statistics.median(outcomes[i][key] for i in ops if outcomes[i] is not None)


def end_to_end(name, setup_times, outcomes, failed, log):
    """The BENCHMARK.json end-to-end metrics; prints them and the workload's other figures."""
    ok = [o for o in outcomes if o is not None]
    every = range(len(outcomes))
    metrics = {
        "wall_s": median_of(outcomes, "wall_s", every),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    shown = dict(metrics)
    if ok and "grid" in ok[0]:
        grid = ok[0]["grid"]
        shown["configs_per_s"] = len(grid.configs) * grid.runs / metrics["wall_s"]
        shown["target_accuracy"] = grid.best()[3]
        log["best"] = list(grid.best())
    if ok and "fit_s" in ok[0]:
        shown["fit_s"] = median_of(outcomes, "fit_s", every)
        shown["serve_s"] = median_of(outcomes, "serve_s", every)
        shown["target_accuracy"] = ok[0]["accuracy"]
    shown["error_rate"] = failed / len(outcomes)
    log["shown"] = shown
    units = {**PRINTED_UNITS, **END_TO_END_UNITS}
    for key, value in shown.items():
        print(f"{name}  {key:<16} {value:>14.6f} {units[key]}")
    walls = ", ".join(f"{o['wall_s']:.4f}" for o in ok)
    print(f"{name}  wall_s of {len(ok)} operation(s): {walls}")
    return metrics


def per_layer(name, outcomes, tracer, env):
    """The BENCHMARK.json per-layer metrics, per traced operation; prints them."""
    traced = [i for i in range(len(outcomes)) if i % 2 == 1]
    untraced = [i for i in range(len(outcomes)) if i % 2 == 0]
    summary = tracer.summary()
    metrics = {}
    for metric in PER_LAYER_UNITS:
        span, _, key = metric.rpartition(".")
        if key in ("s", "self_s", "calls"):
            metrics[metric] = summary.get(span, {}).get(key, 0) / len(traced)
    eigen = summary.get("tlr.eigen_basis", {"calls": 0})
    calls = metrics["tlr.eigen_basis.calls"]
    useful = [outcomes[i]["useful_solves"] for i in traced if outcomes[i] is not None]
    metrics["tlr.eigen_basis.order"] = eigen["order_sum"] / eigen["calls"] if eigen["calls"] else 0.0
    metrics["tlr.eigen_basis.useful_ratio"] = statistics.mean(useful) / calls if calls else 0.0
    metrics["bench.report_bytes"] = statistics.mean(
        len(o.get("report", b"")) for o in outcomes if o is not None
    )
    metrics["trace.overhead_s"] = median_of(outcomes, "wall_s", traced) - median_of(
        outcomes, "wall_s", untraced
    )
    metrics["trace.spans"] = len(tracer.spans) / len(traced)
    metrics["env.blas_threads"] = env["blas_threads"]
    metrics["env.nproc"] = env["nproc"]
    metrics = {key: metrics[key] for key in PER_LAYER_UNITS}
    for key, value in metrics.items():
        print(f"{name}  {key:<32} {value:>14.6f} {PER_LAYER_UNITS[key]}")
    if name == "protocol_cli_4da":
        print(f"{name}  traced run calls tlradapt.cli.main in-process instead of a subprocess")
    return metrics


def run_workload(name, seed, seconds, trace, smoke, env):
    """Measure one workload and check every operation; return the result and a log."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT_DIR / ("smoke" if smoke else "runs"), smoke)
    if trace:
        workload.in_process = True
    tracer = spans.Tracer()
    setup_times, outcomes, problems_by_op = measure(workload, seconds, trace, tracer)
    failed = sum(1 for problems in problems_by_op if problems)
    for op, problems in enumerate(problems_by_op):
        for problem in problems:
            print(f"operation {op} failed: {problem}", file=sys.stderr)
    if all(outcome is None for outcome in outcomes):
        raise RuntimeError(f"every operation of {name} raised; nothing was timed")
    log = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": env,
        "setup_s": setup_times,
        "wall_s": [o["wall_s"] if o is not None else None for o in outcomes],
        "failed_ops": {op: p for op, p in enumerate(problems_by_op) if p},
    }
    if trace:
        metrics, units = per_layer(name, outcomes, tracer, env), PER_LAYER_UNITS
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json", {"workload": name, "seed": seed})
    else:
        metrics, units = end_to_end(name, setup_times, outcomes, failed, log), END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, log


def validate(result, trace) -> list[str]:
    """Differences between a result and the schema BENCHMARK.json fixes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be an integer >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be an integer")
    expected = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            problems.append(f"metric {name} is malformed: {metric}")
    if not result["correct"] or result["failed"]:
        problems.append("outputs failed their checks")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = args.blas_threads or nproc
    # BLAS reads these once, when numpy and scipy load, so they are set first.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(threads)
    src = ROOT / "src"
    if not (src / "tlradapt" / "__init__.py").is_file():
        print(f"error: no tlradapt package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(threads, nproc)
    print("env " + json.dumps(env))
    import workloads

    if args.smoke:
        failures = 0
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                result, _ = run_workload(name, args.seed, 0.0, trace, True, env)
                problems = validate(result, trace)
                failures += bool(problems)
                status = "ok" if not problems else "FAILED: " + "; ".join(problems)
                print(f"smoke {name} trace={trace}: {status}")
        return 1 if failures else 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, log = run_workload(args.workload, args.seed, args.seconds, args.trace, False, env)
    log["result"] = result
    log_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log_path.write_text(json.dumps(log, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
