"""The benchmark's workloads: seeded inputs, one operation, its oracle.

Each workload is a closed loop: one caller runs one operation at a time and
starts the next only when the previous one has finished. Inputs are made by
this module from the workload seed with numpy alone; ``intprob`` only ever
receives the generated inputs. Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from intprob import Frame, MassFunction, cli, combine, intervals, transforms

# verify's witness search passes while at most 5% of its generic pairs
# commute. A rare generic pair does commute (seed 780659344, n=3), and with
# fewer than 20 generic pairs that one pair fails the report. 25 trials
# nearly always give 20 or more (about 3% of pairs are not generic), so the
# search is checked with the tolerance verify means it to have.
VERIFY_TRIALS = 25
VERIFY_MAX_N = 6
FUSION_DENSE_N = 10
FUSION_DENSE_SOURCES = 4
FUSION_SPARSE_N = 16
# The normalisation defect trips some chains of 7-10 sources (kappa ~0.88)
# and, in 3000 seeded chains, every chain of 11. Lengths keep clear of that
# band on both sides, so at the seed each length passes or fails whatever the
# seed and the failure share is the same for every seed. Each length comes
# once in every block of the pool.
CHAIN_LENGTHS = (2, 3, 4, 11, 12, 13)
OPTIONS = 8
# Inputs per pool. The loop cycles a pool it exhausts; fusion-dense's is kept
# small because its inputs would otherwise outweigh intprob in peak_rss_mb.
VERIFY_POOL = 32
FUSION_DENSE_POOL = 24
FUSION_SPARSE_BLOCKS = 20


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


@functools.cache
def focal_masks(n: int, k: int | None) -> np.ndarray:
    """Every nonempty subset of n elements, or those of size <= k, as bit masks."""
    if k is None:
        masks = np.arange(1, 1 << n, dtype=np.int64)
    else:
        masks = np.array(sorted(sum(1 << i for i in c) for size in range(1, k + 1)
                                for c in itertools.combinations(range(n), size)), dtype=np.int64)
    masks.flags.writeable = False
    return masks


def random_focal(rng: np.random.Generator, n: int, k: int | None = None) -> dict:
    """Exponential weights over every nonempty subset, or those of size <= k."""
    masks = focal_masks(n, k)
    values = rng.exponential(size=masks.size)
    values /= values.sum()
    return {"masks": masks, "values": values, "_dict": dict(zip(masks.tolist(), values.tolist()))}


def mass_document(n: int, source: dict) -> dict:
    names = labels(n)
    return {
        "frame": list(names),
        "masses": [
            {"set": [names[i] for i in range(n) if mask >> i & 1], "mass": value}
            for mask, value in source["_dict"].items()
        ],
        "pseudo": False,
    }


def utilities(rng: np.random.Generator, n: int) -> dict:
    return {"options": [f"o{j}" for j in range(OPTIONS)], "utilities": rng.uniform(size=(OPTIONS, n))}


def rank(dist, options, table: np.ndarray) -> list[tuple[str, float]]:
    """Expected-utility ranking as ``intprob decide`` computes it."""
    names = dist.frame.labels
    ranking = [
        (option, sum(dist.value(x) * float(u) for x, u in zip(names, row)))
        for option, row in sorted(zip(options, table))
    ]
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranking


def input_digest(pool: list) -> str:
    """sha256 of the generated inputs, skipping derived ``_`` fields."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(obj.dtype.str.encode() + repr(obj.shape).encode() + obj.tobytes())
        elif isinstance(obj, dict):
            for key in sorted(k for k in obj if not k.startswith("_")):
                h.update(key.encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[%d" % len(obj))
            for x in obj:
                feed(x)
        else:
            h.update(repr(obj).encode())

    feed(pool)
    return h.hexdigest()


@dataclass(frozen=True)
class CliRun:
    """One in-process ``intprob`` command: exit code and output."""

    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return CliRun(code, stdout.getvalue(), stderr.getvalue())


class ChainDefect(Exception):
    """A Dempster chain whose sum error intprob's own checks reject.

    ``ConjunctiveResult.normalized`` divides by 1 - kappa, not by the actual
    total, so each step multiplies the sum error by about 1 / (1 - kappa)
    until ``MassFunction`` refuses a step's result, or the fused singleton
    intervals no longer admit a probability. fusion-sparse's long chains are
    meant to show this; on any other workload it is a wrong result.
    """


@dataclass(frozen=True)
class Workload:
    """How to make a workload's inputs, run one operation and check it.

    ``make(rng)`` returns the pool of operation inputs, which holds the
    workload's mix. The timed loop stops only after a whole ``block`` of
    inputs, so a mix spread over each block stays balanced. An exception of
    a ``tolerated`` type is a failed operation; any other exception is a
    wrong result. The traced run repeats the first ``trace_ops`` inputs.
    """

    name: str
    make: Callable[[np.random.Generator], list]
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], None]
    trace_ops: int
    tolerated: tuple[type[Exception], ...] = ()
    block: int = 1


# -- verify ---------------------------------------------------------------


def make_verify(rng, count=VERIFY_POOL):
    base = int(rng.integers(2**30))
    return [{"seed": base + i * VERIFY_TRIALS} for i in range(count)]


def run_verify(item):
    return run_cli(["verify", "--seed", str(item["seed"]), "--trials", str(VERIFY_TRIALS),
                    "--max-n", str(VERIFY_MAX_N)])


def check_verify(item, run):
    oracles.check_verify(run.code, [json.loads(line) for line in run.stdout.splitlines()])


# -- fusion-dense and fusion-sparse ---------------------------------------


def fusion_item(rng, n, sources, k=None):
    return {"n": n, "sources": [random_focal(rng, n, k) for _ in range(sources)], **utilities(rng, n)}


def make_fusion_dense(rng, count=FUSION_DENSE_POOL):
    return [fusion_item(rng, FUSION_DENSE_N, FUSION_DENSE_SOURCES) for _ in range(count)]


def make_fusion_sparse(rng, blocks=FUSION_SPARSE_BLOCKS):
    """Each block holds every chain length once, in seeded order."""
    pool = []
    for _ in range(blocks):
        pool += [fusion_item(rng, FUSION_SPARSE_N, int(length), k=2)
                 for length in rng.permutation(CHAIN_LENGTHS)]
    return pool


def fuse(item):
    """Dempster-fuse the sources left to right, keeping every step."""
    frame = Frame(labels(item["n"]))
    ms = [MassFunction(frame, s["_dict"]) for s in item["sources"]]
    steps = []
    fused = ms[0]
    for m in ms[1:]:
        try:
            fused = combine.dempster(fused, m)
        except ValueError as exc:
            if not str(exc).startswith("masses must sum to 1"):
                raise
            raise ChainDefect(f"Dempster step {len(steps) + 1} of {len(ms) - 1}: {exc}") from exc
        steps.append(fused)
    return fused, steps


def intersection_of_fused(fused, n):
    """The fused intersection probability; a sum error too large for it is the chain defect.

    Fused masses off 1 by d are still accepted (within 1e-9), but the
    singleton plausibilities then total as little as 1 - (n - 1) d, and the
    interval system reads as empty once that falls 1e-9 short of 1.
    """
    try:
        return transforms.intersection_probability(intervals.from_belief(fused))
    except intervals.InconsistentSystemError as exc:
        drift = math.fsum(fused.masses.values()) - 1.0
        if (n - 1) * drift < 1e-9:
            raise
        raise ChainDefect(f"fused masses sum to 1 + {drift:.1e}: {exc}") from exc


def run_fusion_dense(item):
    fused, steps = fuse(item)
    p = intersection_of_fused(fused, item["n"])
    return {"steps": steps, "intersection": p, "ranking": rank(p, item["options"], item["utilities"])}


def run_fusion_sparse(item):
    out = run_fusion_dense(item)
    out["pignistic"] = transforms.pignistic(out["steps"][-1])
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", make_verify, run_verify, check_verify, trace_ops=6),
        Workload("fusion-dense", make_fusion_dense, run_fusion_dense, oracles.check_fusion, trace_ops=8),
        Workload("fusion-sparse", make_fusion_sparse, run_fusion_sparse, oracles.check_fusion,
                 trace_ops=2 * len(CHAIN_LENGTHS), tolerated=(ChainDefect,), block=len(CHAIN_LENGTHS)),
    )
}


def warmup() -> None:
    """One small operation of every kind, unchecked: lazy imports and first-call costs."""
    run_cli(["verify", "--seed", "0", "--trials", "4", "--max-n", "4"])
    run_fusion_sparse(fusion_item(np.random.default_rng(0), 5, 3))
