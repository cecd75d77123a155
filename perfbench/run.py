"""waveinv benchmark: one workload per invocation, closed loop, one call at a time.

    python3 perfbench/run.py --workload invert-phase --seed 1 --seconds 22 --trace 0

Run from the root of a waveinv checkout; the package is imported from its
``src`` directory.  The run sets up the workload's inputs from the seed,
repeats whole iterations for ``--seconds`` (at least two), checks the
correctness gates, prints machine facts and every metric by name with its
unit, and prints one JSON object as the last line.  A failed gate exits 1;
a checkout without ``src/waveinv`` exits 2.

``--trace 0`` reports the end-to-end metrics, with times host-normalized
(see ``hostspeed.py``; raw times are printed next to them).  ``--trace 1``
spends half the time untraced and half traced, and reports the per-layer
metrics: span counts and times per traced iteration, FFT and I/O counters,
optimizer ratios, run latencies from the untraced half, and the tracing
overhead.
"""

from time import perf_counter, process_time, thread_time

_PROCESS_START = perf_counter()  # set-up is timed from here, before waveinv is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("invert-phase", "invert-raw", "scan", "cli-pipeline")
SETUP_PROBES = 4  # extra fresh processes whose set-up time joins the median
CAL_SAMPLES = 9  # host-speed samples after set-up and after each iteration


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _make_workload(name: str, seed: int):
    import workloads

    if name == "invert-phase":
        return workloads.InvertPhase(seed)
    if name == "invert-raw":
        return workloads.InvertRaw(seed)
    if name == "scan":
        return workloads.Scan(seed)
    return workloads.CliPipeline(seed, WORK / f"cli-seed{seed}-{os.getpid()}")


def _setup_probes(args) -> list[float]:
    """Host-normalized set-up seconds of fresh processes, run one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


@dataclass
class Iteration:
    """Seconds of one iteration, without the host-speed samples taken in it."""

    wall: float
    busy: float  # CPU time of the calling thread: wall time minus waiting for a CPU
    cpu: float  # CPU time of the process, all threads
    scale: float  # HostSpeed.scale() over the samples inside and right after it
    outcome: object


def _iterate(workload, seconds: float, minimum: int, wrap, host) -> list[Iteration]:
    """Whole iterations, repeated until ``seconds`` have passed and at least
    ``minimum`` are done; ``wrap`` is a context manager factory around the
    timed call."""
    done = []
    start = perf_counter()
    while len(done) < minimum or perf_counter() - start < seconds:
        host.reset()
        with wrap():
            w0, b0, c0 = perf_counter(), thread_time(), process_time()
            raw = workload.run()
            wall, busy, cpu = perf_counter() - w0, thread_time() - b0, process_time() - c0
        spent, spent_wall = host.spent, host.spent_wall
        host.sample(CAL_SAMPLES)
        done.append(Iteration(wall - spent_wall, busy - spent, cpu - spent, host.scale(), workload.outcome(raw)))
    return done


def _pct(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def _end_to_end(setup: list[float], iterations: list[Iteration]) -> dict:
    """Metrics that do not grow with the seed's amount of work: the number of
    evaluations an inversion needs, and so an iteration's time, depends on
    the seed (by up to 17% on ``invert-raw``).  Throughput is per second of
    the calling thread's CPU time, which is the wall time on an idle host and
    leaves out the time the host gives the CPU to other work."""
    outcomes = [it.outcome for it in iterations]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "evals_per_s": (statistics.median(it.outcome.evals / (it.busy * it.scale) for it in iterations), "1/s"),
        "cpu_ratio": (statistics.median(it.cpu / it.busy for it in iterations), "ratio"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(untraced: list[Iteration], traced: list[Iteration], run_times, recorder) -> dict:
    n = len(traced)
    metrics = {}
    for name, (calls, total, own) in recorder.layer_totals().items():
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (own / n, "s")
        metrics[f"{name}.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
    evals = recorder.evals
    metrics["forward.fft_calls_per_eval"] = (recorder.fft_calls / evals if evals else 0.0, "count")
    metrics["forward.fft_bytes_per_eval"] = (recorder.fft_bytes / evals if evals else 0.0, "B")

    outcome = traced[0].outcome
    runs = {opt: [r for r in outcome.runs if r.optimizer == opt] for opt in ("modified-lm", "bfgs")}
    for key, opt in (("lm", "modified-lm"), ("bfgs", "bfgs")):
        spent = sum(r.evals for r in runs[opt])
        useful = sum(r.evals_to_success or 0 for r in runs[opt])
        wins = [r.evals_to_success for r in runs[opt] if r.evals_to_success is not None]
        times = [1e3 * t for o, t in run_times if o == opt]
        metrics[f"optim.{key}.useful_eval_ratio"] = (useful / spent if spent else 0.0, "ratio")
        metrics[f"{key}_evals_p50"] = (float(statistics.median(wins)) if wins else 0.0, "count")
        metrics[f"{key}_success_rate"] = (len(wins) / len(runs[opt]) if runs[opt] else 0.0, "ratio")
        metrics[f"{key}_run_p50_ms"] = (_pct(times, 50), "ms")
        metrics[f"{key}_run_p90_ms"] = (_pct(times, 90), "ms")
    steps = sum(r.steps for r in runs["bfgs"])
    metrics["optim.bfgs.evals_per_step"] = (sum(r.evals for r in runs["bfgs"]) / steps if steps else 0.0, "count")
    metrics["io.bytes_written"] = (float(outcome.bytes_written), "B")
    metrics["io.bytes_read"] = (float(outcome.bytes_read), "B")
    untraced_wall = statistics.median(it.wall * it.scale for it in untraced)
    metrics["wall_s"] = (untraced_wall, "s")
    metrics["cpu_s"] = (statistics.median(it.cpu * it.scale for it in untraced), "s")
    metrics["inversions_per_s"] = (len(outcome.runs) / untraced_wall, "1/s")
    metrics["nodes_per_s"] = (outcome.nodes / untraced_wall, "1/s")
    traced_wall = statistics.median(it.wall * it.scale for it in traced)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "waveinv" / "__init__.py").is_file():
        print(f"no waveinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = _make_workload(args.workload, args.seed)
    setup_raw = perf_counter() - _PROCESS_START
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample(CAL_SAMPLES)
    setup = [setup_raw * host.scale()]
    if args.setup_probe:
        workload.close()
        print(repr(setup[0]))
        return 0

    import tracing

    run_times: list = []
    try:
        if args.trace:
            untraced = _iterate(workload, args.seconds / 2, 1, lambda: tracing.run_timer(run_times), host)
            recorder = tracing.Recorder()
            traced = _iterate(workload, args.seconds / 2, 1, recorder.active, host)
            recorder.write(WORK / f"spans_{args.workload}_seed{args.seed}.csv")
            iterations = untraced + traced
            metrics = _per_layer(untraced, traced, run_times, recorder)
        else:
            setup += _setup_probes(args)
            iterations = _iterate(workload, args.seconds, 2, lambda: tracing.before_each_evaluation(host.tick), host)
            metrics = _end_to_end(setup, iterations)
        outcomes = [it.outcome for it in iterations]
        failures = workload.check(outcomes)
    finally:
        workload.close()

    print("facts " + json.dumps(_machine_facts(), sort_keys=True))
    print(f"iterations {len(iterations)}: raw wall_s " + " ".join(f"{it.wall:.4f}" for it in iterations))
    print("  raw busy_s " + " ".join(f"{it.busy:.4f}" for it in iterations))
    print("  raw cpu_s " + " ".join(f"{it.cpu:.4f}" for it in iterations))
    print("  host scale " + " ".join(f"{it.scale:.4f}" for it in iterations))
    if not args.trace:
        print(f"  raw setup_s {setup_raw:.4f}, normalized " + " ".join(f"{t:.4f}" for t in setup))
    for opt in ("modified-lm", "bfgs"):
        times = [t for o, t in run_times if o == opt]
        if times:
            print(f"{opt} runs: {len(times)} timed, p50 {1e3 * _pct(times, 50):.2f} ms, p90 {1e3 * _pct(times, 90):.2f} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
