"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nerve-s3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The items of a workload run in this process, on one thread, as a closed
loop: the next item starts when the previous one returns.  Passes over
the item list repeat until --seconds have gone by (at least one pass), and
every answer is checked exactly against its reference.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the same untraced passes, then wraps the library's entry points and
runs one more pass (after rebuilding the inputs, so their set-up is traced
too) to report the per-layer metrics.  `--workload all` runs every workload
in its own process and prints all of their metrics.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every answer was
right, 1 when one was wrong, and 2 when the benchmark could not run.
"""

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(args):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _setup_seconds(workload, seed):
    """Median time from starting a fresh interpreter to inputs ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


class Tally:
    """Pass times, slowest items and failures of one run."""

    def __init__(self):
        self.pass_s = []
        self.item_max_s = []
        self.attempted = 0
        self.failures = []

    def run_pass(self, items):
        """Run every item once; returns the pass time."""
        total = slowest = 0.0
        for item in items:
            start = perf_counter()
            try:
                value = item.run()
            except Exception as exc:  # a raised item counts as a failure
                elapsed = perf_counter() - start
                ok, value = False, f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = perf_counter() - start
                ok = item.accepts(value)
            total += elapsed
            slowest = max(slowest, elapsed)
            self.attempted += 1
            if not ok:
                self.failures.append((item.name, value))
        self.pass_s.append(total)
        self.item_max_s.append(slowest)
        return total


def _run_passes(items, seconds, tally):
    start = perf_counter()
    while True:
        tally.run_pass(items)
        if perf_counter() - start >= seconds:
            return


def _run_workload(args, spec):
    import workloads

    tally = Tally()
    if args.trace:
        items = workloads.build(args.workload, args.seed)
        _run_passes(items, args.seconds, tally)
        del items
        untraced_pass_s = statistics.median(tally.pass_s)

        import tracer

        recorder = tracer.Tracer()
        recorder.install()
        try:
            start = perf_counter()
            items = workloads.build(args.workload, args.seed)
            traced_pass_s = tally.run_pass(items)
            traced_wall_s = perf_counter() - start
        finally:
            recorder.remove()
        values = recorder.metrics(traced_wall_s, untraced_pass_s, traced_pass_s)
        if recorder.missing:
            print("missing entry points: " + ", ".join(recorder.missing))
        wanted = spec["per_layer"]
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        items = workloads.build(args.workload, args.seed)
        _run_passes(items, args.seconds, tally)
        values = {
            "wall_s": statistics.median(tally.pass_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "item_max_s": statistics.median(tally.item_max_s),
            "ok_frac": (tally.attempted - len(tally.failures)) / tally.attempted,
        }
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["missing"] = True
    return tally, metrics


def _run_all(args):
    """Every workload in its own process; prints each one's metrics, then
    one JSON line with the metrics of all of them, prefixed by workload."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return _fail(f"workload {name} did not run (exit {proc.returncode})")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"no BENCHMARK.json next to {HERE.name}/")
    if not (SRC / "coarsehom" / "__init__.py").is_file():
        return _fail(f"no coarsehom sources under {SRC}; run from a checkout of the repository")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path[:0] = [str(SRC), str(HERE)]
    import coarsehom

    if Path(coarsehom.__file__).resolve().parent != SRC / "coarsehom":
        return _fail(f"imported coarsehom from {coarsehom.__file__}, not from {SRC}")
    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS + ("all",)))

    print("env " + json.dumps(_environment(args), sort_keys=True))
    try:
        tally, metrics = _run_workload(args, spec)
    except RuntimeError as exc:
        return _fail(str(exc))
    print(f"{args.workload}: {tally.attempted} items in {len(tally.pass_s)} passes, "
          f"{len(tally.failures)} failed (fail_frac {len(tally.failures) / tally.attempted:.6g}); "
          "pass seconds: " + " ".join(f"{t:.4f}" for t in tally.pass_s))
    for name, value in tally.failures:
        print(f"  FAILED {name}: {value!r}")
    for name, entry in metrics.items():
        shown = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:28s} {shown:>14s} {entry['unit']}")
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
