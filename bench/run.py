#!/usr/bin/env python3
"""Run one intprob benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports intprob from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. The line before it is
the run's informational record, which is also written to ``.bench_out/``.
bench/README.md describes the workloads and every metric.
"""

import os

# One caller on one core: pin BLAS before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import math
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# A loop stops at the end of the block running at this time, well inside 180 s.
MAX_LOOP_S = 100.0
# Roughly the reference work's median time on a 2-core x86-64 VM (Python
# 3.11, numpy 2.4) with no other load (27-30 ms). Timing metrics are given at
# that speed: see reference_work.
REFERENCE_S = 0.03


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: measure one fresh-interpreter set-up and exit.
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def reference_work() -> None:
    """Fixed work of the two kinds intprob does: a Python dict loop over pairs
    of bit masks, and numpy passes over a 2^16 table.

    On a shared machine, CPU speed drifts by up to 40%, and at times by a
    factor of two, over seconds to minutes with other tenants' load, for
    Python and numpy code alike and in CPU time as much as in wall time. The
    loop times this work between every two operations; each operation's time
    is scaled by REFERENCE_S over the mean of the reference timings just
    before and just after it, which takes most of that drift out.
    """
    import numpy as np

    table = {}
    for b in range(1, 250):
        for c in range(1, 250):
            a = b & c
            table[a] = table.get(a, 0.0) + b * c * 1e-6
    x = np.arange(1 << 16, dtype=float)
    for _ in range(8):
        for i in range(16):
            bit = 1 << i
            view = x.reshape(-1, 2 * bit)
            view[:, bit:] += view[:, :bit]


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@dataclass
class Loop:
    """What one closed loop over a pool of operations did.

    An operation is one input of the pool. The loop may run an input more
    than once; each run is a timing sample, and an input that failed on any
    run is a failed operation. Every run of an input gives the same outcome,
    so ``attempted`` and ``failed`` depend on the pool alone, not on how many
    runs the machine's speed allowed.
    """

    wrong: int = 0  # wrong outputs and exceptions of a kind not tolerated
    failures: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)  # (seconds, passed) of each run, in order
    inputs: set = field(default_factory=set)  # pool indices run
    failed_inputs: set = field(default_factory=set)  # pool indices that failed

    @property
    def attempted(self) -> int:
        return len(self.inputs)

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)

    @property
    def runs(self) -> int:
        return len(self.samples)

    @property
    def passed_runs(self) -> int:
        return sum(passed for _, passed in self.samples)

    @property
    def latencies(self) -> list[float]:
        """Seconds of each passed run."""
        return [seconds for seconds, passed in self.samples if passed]

    @property
    def busy_s(self) -> float:
        """Time inside operations, oracles excluded."""
        return sum(seconds for seconds, _ in self.samples)

    @property
    def rate(self) -> float:
        return self.passed_runs / self.busy_s


def describe(exc: BaseException) -> str:
    """Exception type and message with numbers masked, to group failures."""
    return f"{type(exc).__name__}: {re.sub(r'[-+]?[0-9][0-9.e+-]*', '#', str(exc))[:80]}"


def closed_loop(workload, pool, seconds, before_op=None, max_s=MAX_LOOP_S) -> Loop:
    """Run the pool's operations back to back, cycling it if need be.

    Runs every input of the pool at least once, then stops at the end of the
    block of ``workload.block`` operations during which ``seconds`` of
    operation time are reached; after ``max_s`` it stops at the next block's
    end in any case. An exception or an oracle mismatch is a failed run; the
    loop carries on.
    """
    loop = Loop()
    start = time.perf_counter()
    for i in itertools.count():
        if i and i % workload.block == 0 and (
            (i >= len(pool) and loop.busy_s >= seconds) or time.perf_counter() - start > max_s
        ):
            return loop
        item = pool[i % len(pool)]
        loop.inputs.add(i % len(pool))
        if before_op:
            before_op(i)
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except workload.tolerated as exc:
            out, failure = None, describe(exc)
        except Exception as exc:  # a wrong result, not a crash: count it and go on
            out, failure = None, "unexpected " + describe(exc)
            loop.wrong += 1
        else:
            failure = None
        elapsed = time.perf_counter() - t0
        if failure is None:
            try:
                workload.check(item, out)
            except Exception as exc:  # malformed output fails the oracle too
                loop.wrong += 1
                failure = "wrong output: " + describe(exc)
        loop.samples.append((elapsed, failure is None))
        if failure is not None:
            loop.failures[failure] += 1
            loop.failed_inputs.add(i % len(pool))


def tail(done: list, samples: int) -> tuple[float, int]:
    """Latency at the highest whole percentile with ten completed samples beyond it.

    ``done`` holds the completed samples in ascending order. Failed samples
    rank after every completed one, as if they never finished, so failures
    lower the percentile that can be reported. Returns latency and percentile.
    """
    for p in range(99, 0, -1):
        rank = math.ceil(p * samples / 100)
        if 1 <= rank <= len(done) - 10:
            return done[rank - 1], p
    return done[-1], 100


def setup_child(args) -> int:
    """A fresh interpreter's import, input generation and warm-up, timed."""
    t0 = time.perf_counter()
    import intprob.cli  # the package and its CLI, as a user loads them

    import_s = time.perf_counter() - t0
    import numpy as np

    import workloads

    workloads.WORKLOADS[args.workload].make(np.random.default_rng(args.seed))
    workloads.warmup()
    print(json.dumps({"setup_s": time.perf_counter() - t0, "import_s": import_s}))
    return 0


def measure_setup(args) -> list[dict]:
    """SETUP_REPEATS fresh-interpreter set-ups, each after a reference timing."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-child"]
    samples = []
    for _ in range(SETUP_REPEATS):
        reference_s = time_reference()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        samples.append({**json.loads(done.stdout.strip().splitlines()[-1]), "reference_s": reference_s})
    return samples


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": git_commit(), "src_sha256": digest.hexdigest(), "src_lines": lines}


def end_to_end(loop: Loop, reference: list[float], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over every operation of the run.

    Times are put at the reference speed. ``reference`` holds the timings
    taken before each run and one after the last: each run is scaled by the
    two around it, and set-up by those taken before its children.
    """
    scales = [2 * REFERENCE_S / (before + after) for before, after in zip(reference, reference[1:])]
    scaled = [(seconds * scale, passed) for (seconds, passed), scale in zip(loop.samples, scales, strict=True)]
    done = sorted(seconds for seconds, passed in scaled if passed)
    tail_s, percentile = tail(done, loop.runs)
    setup_scale = REFERENCE_S / statistics.median(s["reference_s"] for s in setups)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        "ops_per_s": (loop.passed_runs / sum(seconds for seconds, _ in scaled), "1/s"),
        "op_median_s": (statistics.median(done), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_passed_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = sorted(loop.latencies)
    unscaled = {"ops_per_s": loop.rate, "op_median_s": statistics.median(raw),
                "op_tail_s": tail(raw, loop.runs)[0], "setup_s": setup_s}
    return metrics, {"tail_percentile": percentile, "unscaled": unscaled,
                     "scale_quartiles": statistics.quantiles(scales, n=4),
                     "setup_scale": setup_scale, "reference_samples": len(reference)}


def per_layer(workload, pool, args, setups) -> tuple[dict, dict, tuple]:
    import tracing

    subset = pool[: workload.trace_ops]
    base = closed_loop(workload, subset, args.seconds / 4, max_s=MAX_LOOP_S / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, subset, args.seconds / 4,
                             before_op=lambda i: setattr(tracer, "current_op", i), max_s=MAX_LOOP_S / 2)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_file)
    values = tracer.summary(traced.runs, traced.busy_s, spans)
    values["trace.overhead_ratio"] = traced.rate / base.rate if base.passed_runs and traced.passed_runs else 0.0
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    sweep, omitted = tracing.sweep(args.seed)
    metrics = {name: (value, per_layer_unit(name)) for name, value in {**values, **sweep}.items()}
    extra = {
        "traced_runs": traced.runs,
        "untraced_runs": base.runs,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "sweep_omitted": omitted,
    }
    return metrics, extra, (base, traced)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "intprob" / "__init__.py").is_file():
        print(f"bench: no intprob sources at {SRC}; run from the root of an intprob checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setups = measure_setup(args)
    pool = workload.make(np.random.default_rng(args.seed))
    workloads.warmup()
    if args.trace:
        metrics, extra, loops = per_layer(workload, pool, args, setups)
    else:
        reference = []
        loop = closed_loop(workload, pool, args.seconds, before_op=lambda i: reference.append(time_reference()))
        reference.append(time_reference())
        if not loop.passed_runs:
            print(f"bench: no operation passed: {dict(loop.failures)}", file=sys.stderr)
            return 1
        metrics, extra = end_to_end(loop, reference, setups)
        loops = (loop,)

    # The traced run's two loops run the same inputs: count each input once.
    attempted = len(set().union(*(loop.inputs for loop in loops)))
    failed = len(set().union(*(loop.failed_inputs for loop in loops)))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": workloads.input_digest(pool),
        **source_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "runs": sum(loop.runs for loop in loops),
        "passed_runs": sum(loop.passed_runs for loop in loops),
        "failures": dict(sum((loop.failures for loop in loops), Counter())),
        "setup_samples": setups,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not any(loop.wrong for loop in loops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
