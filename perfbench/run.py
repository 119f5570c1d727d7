"""svopt benchmark: decoder scheduling and 960x540 disparity propagation.

One workload in one process:

    python3 perfbench/run.py --workload ism_960 --seed 1 --seconds 40 --trace 0

prints detail lines and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. All workloads, timed and
traced, with every metric and its unit and the tracing overhead:

    python3 perfbench/run.py --all [--smoke] [--seed 1] [--seconds 40]

--smoke shrinks every input so that all three workloads finish in
seconds. See perfbench/README.md for why each workload exists.
"""

import os
import sys
from pathlib import Path

# single-threaded BLAS, set before numpy loads: at most nproc threads, steadier timings
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "svopt" / "__init__.py").is_file():
    print(f"error: no svopt sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import gen  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
# a bare interpreter start, timed beside each set-up to scale it to a nominal host speed
BARE_START = [sys.executable, "-c", "pass"]
BARE_START_NOMINAL_S = 0.04
# per-workload names printed beside the result metrics
DETAIL_UNITS = {
    "model_s.baseline": "s", "model_s.convr": "s", "model_s.ilar": "s", "ism_run_s": "s",
    "nonkey_frame_s.p50": "s", "nonkey_frame_s.tail": "s", "op_s.tail": "s",
    "ism_3px_pct": "%", "failed_ratio": "ratio", "separation": "",
}
UNITS = {"setup_s": "s", "run_s": "s", "op_s.p50": "s", "op_s.slowest": "s",
         "peak_rss_mb": "MB", "quality_pct": "%"}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10 samples above it.

    That is the sample with exactly 10 above it; with 10 samples or fewer
    none qualifies and the maximum is returned, flagged by percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "platform": platform.platform(),
    }


def wall_seconds(cmd: list[str]) -> float:
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(cmd, check=True)
    return time.perf_counter() - start


def setup_seconds(inputs_dir: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import svopt and load the inputs,
    and of bare interpreter starts alternated with them."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(inputs_dir)]
    times, bare = [], []
    for _ in range(SETUP_REPEATS):
        bare.append(wall_seconds(BARE_START))
        times.append(wall_seconds(probe))
    return times, bare


def measure(args) -> int:
    traced = bool(args.trace)
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.write_inputs(args.workload, args.seed, work / "inputs", args.smoke)
    setup, bare = setup_seconds(work / "inputs")
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    bench = workloads.Bench(args.workload, inputs, work / "out", tracer, traced)
    passes = []
    with bench.installed():
        start = time.perf_counter()
        while True:
            passes.append(bench.run_pass())
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].seconds > args.seconds:
                break
    problems = [found for p in passes for found in p.problems]
    attempted = len(problems)
    failed = sum(1 for found in problems if found)
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        failed += 1
        problems.append([f"passes emitted different outputs: {digests}"])
    op_medians = workloads.op_medians(passes)
    values = {
        "setup_s": statistics.median(setup) * BARE_START_NOMINAL_S / statistics.median(bare),
        "run_s": workloads.pass_seconds(passes),
        "op_s.p50": statistics.median(op_medians),
        "op_s.slowest": max(op_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality_pct": passes[0].quality,
    }
    rule_tail, tail_pct, n_ops = tail([s * p.scale for p in passes for _, s in p.ops])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "machine": machine(), "passes": len(passes),
        "pass_s": [p.seconds for p in passes], "setup_s_samples": setup,
        "bare_start_s_samples": bare,
        "pass_scale": [p.scale for p in passes], "reference_samples": len(bench.samples),
        "op_s.tail": {"value": rule_tail, "percentile": tail_pct, "samples": n_ops},
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": [f for found in problems for f in found][:20],
        "digest": digests[0], "inputs_digest": workloads.digest(work / "inputs"),
        "counts": dict(sorted(passes[0].counts.items())),
    }
    if args.workload == "ism_960":
        detail.update({
            "ism_run_s": values["run_s"], "nonkey_frame_s.p50": values["op_s.p50"],
            "nonkey_frame_s.tail": rule_tail, "ism_3px_pct": values["quality_pct"],
        })
    else:
        for mode in workloads.MODES[args.workload]:
            detail[f"model_s.{mode}"] = statistics.median(
                p.mode_seconds[mode] * p.scale for p in passes)
    if traced:
        spans = work / "spans.jsonl"
        tracer.write(spans)
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in bench.layer_metrics(passes).items()}
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["separation"] = bench.separation(passes)
        top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:12]
        detail["self_s_top"] = [[name, mode, s / len(passes)] for (name, mode), s in top]
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    # only the spans of a traced run are kept: the inputs and outputs are tens of MB
    for sub in ("inputs", "out") if traced else ("",):
        shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload timed, then traced, each in its own process."""
    seconds = args.seconds if args.seconds is not None else (2 if args.smoke else 40)
    ok = True
    for workload in workloads.WORKLOADS:
        results, details = {}, {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[trace] = json.loads(lines[-1])
            detail = details[trace] = json.loads(lines[-2])
            ok &= results[trace]["correct"]
            print(f"== {workload} trace={trace} correct={results[trace]['correct']} "
                  f"attempted={results[trace]['attempted']} failed={results[trace]['failed']} "
                  f"digest={detail['digest'][:16]}")
            for name, m in results[trace]["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
            for key, unit in DETAIL_UNITS.items():
                if key in detail:
                    print(f"  ({key}) {detail[key]} {unit}")
        # on unscaled wall times: traced runs run no reference kernel
        overhead = (statistics.median(details[1]["pass_s"])
                    - statistics.median(details[0]["pass_s"]))
        print(f"  trace.overhead_s {overhead:.6g} s (median traced minus timed pass wall time)")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="svopt benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.seconds is None:
        args.seconds = 40.0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
