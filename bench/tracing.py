"""Outside-in tracing of intprob's layers, and the per-layer size sweep.

The layers are intprob's modules. :class:`Tracer` wraps every public
function a module defines, plus the few methods in ``METHODS`` that carry a
layer's work, and patches the wrapper in wherever another intprob module
imported the same function by name. Each call records a span (function,
start, end, parent span, operation) in flat arrays kept in memory; self
times and counts are worked out from them once the traced phase is over.
``frame`` gets no span: its cost is property access (``Frame.full`` runs
~190k times per verify operation), which wrapping would swamp, and it
shows in the callers' self time instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("belief", "combine", "intervals", "transforms", "geometry", "verify", "cli")
METHODS = (
    ("belief", "MassFunction", "__post_init__"),
    ("combine", "ConjunctiveResult", "normalized"),
)


def _table_size(args, result) -> int:
    """Entries of a dense 2^n table returned for the frame of args[0], else 0."""
    values = getattr(result, "values", result)
    frame = getattr(args[0], "frame", None) if args else None
    if isinstance(values, np.ndarray) and frame is not None and values.shape == (1 << frame.size,):
        return values.size
    return 0


def _belief_hook(tracer, name, args, result):
    size = _table_size(args, result)
    if size:
        tracer.counts["belief.tables"] += 1
        tracer.counts["belief.table_entries"] += size
        if name == "plausibility_values" and tracer.inside("transforms"):
            tracer.counts["transforms.pl_tables"] += 1


def _pairs_hook(tracer, name, args, result):
    tracer.counts["combine.pairs"] += len(args[0].masses) * len(args[1].masses)
    tracer.counts["combine.kept"] += len(result.masses)


HOOKS = {
    "belief.MassFunction.__post_init__": lambda t, name, args, result: t.counts.update(("belief.mass_objects",)),
    "combine.conjunctive": _pairs_hook,
    "combine.disjunctive": _pairs_hook,
    "geometry.permutation_vertices": lambda t, name, args, result: t.counts.update(
        {"geometry.orderings": math.factorial(args[0].frame.size)}),
    "verify.run_all": lambda t, name, args, result: t.counts.update(
        {"verify.trials": sum(r.trials for r in result)}),
}


class Tracer:
    """Spans and counters of one traced phase; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.patches: list[tuple[object, str, object]] = []

    def inside(self, layer: str) -> bool:
        want = LAYERS.index(layer)
        return any(self.layer_of[self.fn[idx]] == want for idx in self.stack)

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(LAYERS.index(layer))
        hook = HOOKS.get(f"{layer}.{name}", _belief_hook if layer == "belief" else None)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.fn)
            tracer.fn.append(fid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.t1.append(0.0)
            tracer.stack.append(idx)
            tracer.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[idx] = clock()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, name, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"intprob.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in intprob_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(mod, name, wrapped[id(obj)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """Span arrays, with each span's self time."""
        fn = np.frombuffer(self.fn, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        t0 = np.frombuffer(self.t0, dtype=float).copy()
        t1 = np.frombuffer(self.t1, dtype=float).copy()
        duration = t1 - t0
        child = np.zeros(len(fn))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "fn": fn,
            "parent": parent,
            "t0": t0,
            "t1": t1,
            "self": duration - child,
        }

    def summary(self, ops: int, busy_s: float, spans: dict) -> dict[str, float]:
        """Per-operation layer metrics of the traced phase."""
        layer = np.asarray(self.layer_of, dtype=np.int64)[spans["fn"]]
        self_s = np.bincount(layer, weights=spans["self"], minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = float(self_s[i]) / ops
            out[f"{name}.calls"] = float(calls[i]) / ops
        c = self.counts

        def calls_of(name):
            return float(np.count_nonzero(spans["fn"] == self.names.index(name)))

        out.update({
            "belief.tables": c["belief.tables"] / ops,
            "belief.table_entries": c["belief.table_entries"] / ops,
            "belief.mass_objects": c["belief.mass_objects"] / ops,
            "combine.pairs": c["combine.pairs"] / ops,
            "combine.kept_ratio": c["combine.kept"] / c["combine.pairs"] if c["combine.pairs"] else 0.0,
            "transforms.pl_tables": c["transforms.pl_tables"] / ops,
            "geometry.orderings": c["geometry.orderings"] / ops,
            "geometry.focus_solves": calls_of("geometry.focus") / ops,
            "verify.trials": c["verify.trials"] / ops,
            "trace.attributed_ratio": float(spans["self"].sum()) / busy_s,
            "trace.spans": len(spans["fn"]) / ops,
        })
        return out

    def write(self, path: Path) -> None:
        """Spans as recorded: function id, parent span, operation, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), fn=np.frombuffer(self.fn, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc), op=np.frombuffer(self.op, dtype=np.intc),
                 t0=np.frombuffer(self.t0), t1=np.frombuffer(self.t1))


def intprob_modules():
    import intprob

    return [intprob] + [importlib.import_module(f"intprob.{m}") for m in LAYERS + ("frame",)]


SWEEP_SIZES = (4, 8, 12, 14, 16)
SWEEP_FUNCTIONS = (
    "belief.belief_values", "belief.mobius_plausibility", "belief.from_json",
    "intervals.from_belief", "transforms.intersection_probability", "transforms.varsigma",
    "transforms.sudano_prpl", "combine.conjunctive_dense", "combine.conjunctive_2additive",
    "geometry.special_focus", "geometry.credal_vertices",
)
# Sizes left out of the sweep: what the seed commit cannot finish within
# about a second and a half per call, or refuses outright.
SWEEP_OMITTED = {
    "combine.conjunctive_dense": ((12, 14, 16), "4^n pair loop: 4.5 s per call at n=12"),
    "transforms.sudano_prpl": ((16,), "PrPl rebuilds Pl once per singleton: about 5 s per call at n=16"),
    "geometry.special_focus": ((12, 14, 16), "intprob refuses more than 8 vertices"),
    "geometry.credal_vertices": ((8, 12, 14, 16), "pairwise dedup takes 93 s at n=7; intprob refuses n > 8"),
}


def sweep(seed: int) -> tuple[dict[str, float], list[str]]:
    """Median seconds per call of each layer function over frame sizes.

    Returns the ``<layer>.<function>.n<k>_s`` metrics and the omitted cells.
    """
    import workloads
    from intprob import Frame, MassFunction, belief, combine, geometry, intervals, transforms

    rng = np.random.default_rng([seed, 7])
    metrics, omitted = {}, []
    for n in SWEEP_SIZES:
        frame = Frame(workloads.labels(n))
        dense = workloads.random_focal(rng, n)
        m = MassFunction(frame, dense["_dict"])
        other = workloads.random_focal(rng, n)
        a, b = (MassFunction(frame, workloads.random_focal(rng, n, k=2)["_dict"]) for _ in range(2))
        doc = workloads.mass_document(n, dense)
        system = intervals.from_belief(m)
        if n <= 8:
            other = MassFunction(frame, other["_dict"])
            simplices = (geometry.lower_simplex(m), geometry.upper_simplex(m))
        cells = {
            "belief.belief_values": lambda: belief.belief_values(m),
            "belief.mobius_plausibility": lambda: belief.mobius_plausibility(m),
            "belief.from_json": lambda: MassFunction.from_json(doc),
            "intervals.from_belief": lambda: intervals.from_belief(m),
            "transforms.intersection_probability": lambda: transforms.intersection_probability(system),
            "transforms.varsigma": lambda: transforms.varsigma(m),
            "transforms.sudano_prpl": lambda: transforms.sudano(m, "PrPl"),
            "combine.conjunctive_dense": lambda: combine.conjunctive(m, other),
            "combine.conjunctive_2additive": lambda: combine.conjunctive(a, b),
            "geometry.special_focus": lambda: geometry.special_focus(*simplices),
            "geometry.credal_vertices": lambda: geometry.credal_vertices(m),
        }
        for name in SWEEP_FUNCTIONS:
            sizes, reason = SWEEP_OMITTED.get(name, ((), ""))
            if n in sizes:
                omitted.append(f"{name}.n{n}_s: {reason}")
                continue
            times = []
            for _ in range(5 if n <= 12 else 3):
                t0 = time.perf_counter()
                cells[name]()
                times.append(time.perf_counter() - t0)
            metrics[f"{name}.n{n}_s"] = statistics.median(times)
    return metrics, omitted


def sweep_metric_names() -> list[str]:
    return [
        f"{name}.n{n}_s"
        for n in SWEEP_SIZES
        for name in SWEEP_FUNCTIONS
        if n not in SWEEP_OMITTED.get(name, ((),))[0]
    ]
