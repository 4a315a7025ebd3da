"""cycaut benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

A run imports the program from `src/` of the checkout this file sits in,
sets up the workload's inputs from the seed several times (set-up time is
the median), then runs passes of the workload back to back for
`--seconds` (a pass starts only while one of median length still fits),
and checks every pass's outputs afterwards.  Every pass runs the same
items, so each timing is taken as the item's median time over the run's
passes (see README.md, "Noise").

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (see README.md).  With `--trace 1` a
traced set-up is followed by passes that alternate between untraced and
traced with spans around the calls into each cycaut layer; the metrics
are then the per-layer table and the tracing overhead, and the spans are
written to `.bench_out/` once, at the end.  `--workload all` runs every workload in
its own process and prints each one's metrics.

Exit status is 0 when the run completed (even if a check failed, which
the result reports); 2 when the program cannot be imported or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, per_layer_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "manifest", "construct", "verify", "group", "perm", "code", "gf2poly")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
]


def import_program() -> dict:
    """Import every cycaut layer afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cycaut" or m.startswith("cycaut.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"cycaut.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cycaut imported from {origin}, not from {SRC}")
    return mods


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, to identify the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def set_up(workload, seed: int, repeats: int):
    """Import and prepare `repeats` times; the last state is kept."""
    times = []
    state = mods = None
    for _ in range(repeats):
        state = mods = None
        t0 = perf_counter()
        mods = import_program()
        state = workload.prepare(mods, seed, OUT)
        times.append(perf_counter() - t0)
    return mods, state, times


def time_left(start: float, seconds: float, pass_s: list[float]) -> bool:
    """True while another pass of median length still ends within
    `seconds` of `start`; the first pass always runs."""
    return not pass_s or perf_counter() - start + statistics.median(pass_s) <= seconds


def typical(pass_s: list[float], pass_ms: list[list[float]]):
    """Each item's median latency (ms) over the passes, and the time of a
    pass with every item at its median (s): the sum of those latencies
    plus the median time a pass spent outside its items."""
    item_ms = [statistics.median(times) for times in zip(*pass_ms)]
    outside = statistics.median(p - sum(items) / 1000.0 for p, items in zip(pass_s, pass_ms))
    return item_ms, sum(item_ms) / 1000.0 + outside


def measure(workload, state, seconds: float):
    """Closed loop: run passes back to back for `seconds`."""
    outputs, pass_s, pass_ms = [], [], []
    start = perf_counter()
    while time_left(start, seconds, pass_s):
        t0 = perf_counter()
        out, latencies = workload.run_pass(state, None)
        pass_s.append(perf_counter() - t0)
        outputs.append(out)
        pass_ms.append(latencies)
    return outputs, pass_s, pass_ms


def measure_traced(workload, mods, args, tracer):
    """Traced set-up, then passes alternating untraced and traced until
    `--seconds` have gone by; alternating keeps drift and warm-up out of
    the tracing overhead."""

    def traced(fn, *fn_args):
        tracer.install(mods)
        try:
            return fn(*fn_args)
        finally:
            tracer.uninstall()

    state = traced(workload.prepare, mods, args.seed, OUT)
    outputs = []
    plain, traced_runs = ([], []), ([], [])  # (pass_s, pass_ms) each
    start = perf_counter()
    while not traced_runs[0] or time_left(start, args.seconds, plain[0] + traced_runs[0]):
        if len(plain[0]) > len(traced_runs[0]):
            tracer.item = (len(traced_runs[0]), 0)
            t0 = perf_counter()
            out, latencies = traced(workload.run_pass, state, tracer)
            runs = traced_runs
        else:
            t0 = perf_counter()
            out, latencies = workload.run_pass(state, None)
            runs = plain
        runs[0].append(perf_counter() - t0)
        runs[1].append(latencies)
        outputs.append(out)
    return state, outputs, plain, traced_runs


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    env = environment()
    OUT.mkdir(exist_ok=True)
    os.environ.pop("CYCAUT_MANIFEST", None)
    try:
        mods, state, setup_times = set_up(workload, args.seed, workload.setup_repeats)
    except ImportError as exc:
        print(f"error: cannot import cycaut from {SRC}: {exc}", file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        state, outputs, plain, traced_runs = measure_traced(workload, mods, args, tracer)
        plain_s, traced_s = plain[0], traced_runs[0]
        metrics = tracer.per_layer(len(traced_s))
        metrics["trace.overhead_s"] = typical(*traced_runs)[1] - typical(*plain)[1]
        units = {name: unit for name, unit, _ in per_layer_names()}
        spans_path = OUT / f"spans-{tag}.json"
        tracer.write(spans_path)
        detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
                  "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    else:
        outputs, pass_s, pass_ms = measure(workload, state, args.seconds)
        item_ms, wall_s = typical(pass_s, pass_ms)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_ms": statistics.median(item_ms),
            "op_p99_ms": quantile(item_ms, 99),
        }
        units = dict(END_TO_END)
        detail = {"passes": len(pass_s), "items": len(item_ms), "pass_s": pass_s, "setup_s": setup_times}

    attempted, failed = workload.check(state, outputs)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **detail, "fail_ratio": failed / attempted,
              "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"workload": workload.name, "seed": args.seed, "env": env, **detail}))
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name} fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; their metric lines, then one
    JSON line with the metrics keyed <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        print("\n".join(lines[1:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
