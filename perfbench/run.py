"""Closed-loop benchmark of the dwf package: one client, one process, one thread.

    python3 perfbench/run.py --workload census|flows|cli --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's ops until S seconds have passed and at
least MIN_OPS ops were timed, checks every op's output, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of perfbench/layers.py, from a run whose layers
are wrapped.  The line before it reports the run itself: rounds, ops,
the set-up samples and a calibration loop timed at the start and end.
Run from the root of a checkout; the package is imported from src/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("census", "flows", "cli")
MIN_OPS = 100  # so that op_p90_ms leaves at least ten ops above it
COLD_STARTS = 7

_SETUP_CODE = {
    "census": "import workload_census as w; w.setup()",
    "flows": "import workload_flows as w; w.setup()",
    "cli": "import dwf.cli",
}


def calibrate() -> dict:
    """Milliseconds of a fixed pure-Python loop and a fixed numpy loop
    (median of three); a drift of the host moves these, the program does not."""
    import numpy as np

    def python_loop():
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    def numpy_loop():
        a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        for _ in range(300):
            a = np.tanh(a @ a.T / 64.0)
        return a

    out = {}
    for name, loop in (("python", python_loop), ("numpy", numpy_loop)):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            loop()
            samples.append((time.perf_counter() - t0) * 1e3)
        out[name] = round(statistics.median(samples), 3)
    return out


def cold_start(workload: str) -> float:
    """Seconds from the first import to the end of set-up in a fresh interpreter."""
    code = (
        f"import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, {HERE!r}); "
        f"{_SETUP_CODE[workload]}; print(repr(time.perf_counter() - t0))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def make_workload(name: str, seed: int, workdir: str, spans_dir):
    if name == "census":
        import workload_census

        return workload_census.Census(seed), workload_census.STATES_PER_OP
    if name == "flows":
        import workload_flows

        return workload_flows.Flows(seed), workload_flows.STATES_PER_OP
    import workload_cli

    return workload_cli.Cli(seed, workdir, spans_dir), workload_cli.STATES_PER_OP


def run_op(run, check):
    """(nanoseconds, failed, wrong-answer message or None) of one op."""
    gc.collect()
    gc.disable()
    t0 = time.perf_counter_ns()
    try:
        result = run()
        error = None
    except Exception as exc:  # the op failed; counted, and the run goes on
        error = exc
    elapsed = time.perf_counter_ns() - t0
    gc.enable()
    if error is not None:
        print(f"op failed: {error!r}", file=sys.stderr)
        return elapsed, True, None
    try:
        return elapsed, not check(result), None
    except Exception as exc:  # a wrong or unreadable output
        return elapsed, False, f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dwf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dwf", "__init__.py")):
        print(f"error: no dwf package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = SRC
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    import layers

    calibration = {"start": calibrate()}

    recorder = spans_dir = None
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace and args.workload == "cli":
        spans_dir = os.path.join(OUT, f"trace-{tag}")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    elif args.trace:
        recorder = layers.Recorder()
        recorder.install()
    workload, states_per_op = make_workload(args.workload, args.seed, workdir, spans_dir)

    wrong = []
    if args.workload != "cli":  # let lazy caches fill before timing
        for run, check in workload.round():
            _, failed, message = run_op(run, check)
            if message:
                wrong.append(message)

    latencies, windows, setups, failed_ops, rounds = [], [], [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(latencies) < MIN_OPS:
        # Cold starts are spread over the run, between rounds, so that
        # their median does not hang on one moment of the host.
        while len(setups) < COLD_STARTS * min(1.0, (time.perf_counter() - start) / args.seconds):
            setups.append(cold_start(args.workload))
        for run, check in workload.round():
            first = len(recorder) if recorder else 0
            elapsed, failed, message = run_op(run, check)
            if recorder:
                windows.append((first, len(recorder)))
            latencies.append(elapsed)
            failed_ops += failed
            if message:
                wrong.append(message)
        rounds += 1
    measured_s = time.perf_counter() - start
    while len(setups) < COLD_STARTS:
        setups.append(cold_start(args.workload))
    calibration["end"] = calibrate()

    for message in wrong[:3]:
        print(f"wrong answer: {message}", file=sys.stderr)
    ops = len(latencies)
    lat_ms = [ns / 1e6 for ns in latencies]
    deciles = statistics.quantiles(lat_ms, n=10)
    if args.trace:
        metrics = layer_metrics(layers, recorder, windows, workload, ops, states_per_op)
        if recorder:
            recorder.uninstall()
            recorder.save(os.path.join(OUT, f"trace-{tag}.npz"), windows=windows)
    else:
        if args.workload == "cli":
            rss_kb = workload.max_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (ops / (sum(latencies) / 1e9), "1/s"),
            "op_p90_ms": (deciles[8], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops": ops,
        "measured_s": round(measured_s, 3),
        "latency_ms": {
            "min": round(min(lat_ms), 3),
            "p10": round(deciles[0], 3),
            "p25": round(statistics.quantiles(lat_ms, n=4)[0], 3),
            "p50": round(statistics.median(lat_ms), 3),
            "p90": round(deciles[8], 3),
            "mean": round(statistics.mean(lat_ms), 3),
        },
        "setup_samples_s": [round(s, 4) for s in setups],
        "calibration_ms": calibration,
    }))
    print(json.dumps({
        "correct": not wrong,
        "attempted": ops,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(layers, recorder, windows, workload, ops: int, states_per_op: float) -> dict:
    import numpy as np

    totals: dict = {}
    if recorder:
        for first, last in windows:
            layers.merge(totals, layers.self_times(recorder.arrays(first, last)))
    else:
        for path in workload.span_files:
            with np.load(path) as spans:
                layers.merge(totals, layers.self_times({k: spans[k] for k in spans.files}))
    return layers.layer_metrics(totals, ops, ops * states_per_op)


if __name__ == "__main__":
    sys.exit(main())
