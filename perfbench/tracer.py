"""Outside-in layer trace for the cubeforge benchmark.

The program is not edited.  Instead every traced function is replaced, in
every ``cubeforge.*`` module namespace that holds it, by a wrapper that
records one span per call: name, start, end, parent span and job id.  Spans
live in flat arrays in memory and are written out once, at the end of a run.
Self time is a span's duration minus the durations of its direct children.

Submodules are looked up in ``sys.modules``: ``import cubeforge.forge``
yields the *function* ``forge``, because the package ``__init__`` rebinds
that name.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# --- per-call counters: observe(counts, args, result, exc) ---


def _count_len(key):
    def observe(counts, args, result, exc):
        if exc is None:
            counts[key] += len(result)

    return observe


def _count_failures(key):
    def observe(counts, args, result, exc):
        if exc is not None:
            counts[key] += 1

    return observe


def _certificate(prefix):
    def observe(counts, args, result, exc):
        if exc is None:
            counts[prefix + ".depth_sum"] += result.bound
            counts[prefix + ".refuted"] += result.witness is not None

    return observe


def _matrix_cells(key):
    def observe(counts, args, result, exc):
        matrix = args[0]
        counts[key] += len(matrix) * (len(matrix[0]) if matrix else 0)

    return observe


def _sol_quad(counts, args, result, exc):
    counts["quadform.sol_quad.orbits"] += exc is None


def _joint_guess(counts, args, result, exc):
    counts["cfinite.joint_guess_recurrence.hits"] += result is not None


def _taylor(counts, args, result, exc):
    counts["cfinite.taylor_coefficients.terms"] += args[1]


# (layer name, module, attribute path, observer).  The layers are the
# functions through which each module's cost enters: self time of anything
# untraced below them (e.g. ``try_exact_div`` under ``exact_div``, ``_rref``
# under ``rational_solve``) is charged to the nearest traced caller.
TRACED = (
    ("cli.main", "cubeforge.cli", "main", None),
    ("parsing.parse_poly", "cubeforge.parsing", "parse_poly", None),
    ("cubic.search_quadruples", "cubeforge.cubic", "search_quadruples",
     _count_len("cubic.search_quadruples.seeds")),
    ("cubic.morph", "cubeforge.cubic", "morph", _count_failures("cubic.morph.degenerate")),
    ("quadform.sol_quad", "cubeforge.quadform", "sol_quad", _sol_quad),
    ("quadform.enumerate_solutions", "cubeforge.quadform", "enumerate_solutions",
     _count_len("quadform.enumerate_solutions.solutions")),
    ("cfinite.joint_guess_recurrence", "cubeforge.cfinite", "joint_guess_recurrence",
     _joint_guess),
    ("cfinite.seq_from_terms", "cubeforge.cfinite", "seq_from_terms",
     _count_failures("cfinite.seq_from_terms.fails")),
    ("cfinite.taylor_coefficients", "cubeforge.cfinite", "taylor_coefficients", _taylor),
    ("cfinite.certify_zero", "cubeforge.cfinite", "certify_zero",
     _certificate("cfinite.certify_zero")),
    ("cfinite.certificate_bound", "cubeforge.cfinite", "certificate_bound", None),
    ("kernel.rational_solve", "cubeforge.kernel", "rational_solve",
     _matrix_cells("kernel.rational_solve.cells")),
    ("kernel.rational_nullspace", "cubeforge.kernel", "rational_nullspace",
     _matrix_cells("kernel.rational_nullspace.cells")),
    ("kernel.resultant", "cubeforge.kernel", "resultant", None),
    ("kernel.exact_div", "cubeforge.kernel", "exact_div", None),
    ("kernel.MultiPoly.mul", "cubeforge.kernel", "MultiPoly.__mul__", None),
    ("kernel.MultiPoly.mul", "cubeforge.kernel", "MultiPoly.__rmul__", None),
    ("kernel.MultiPoly.add", "cubeforge.kernel", "MultiPoly.__add__", None),
    ("kernel.MultiPoly.add", "cubeforge.kernel", "MultiPoly.__radd__", None),
    ("kernel.MultiPoly.evaluate", "cubeforge.kernel", "MultiPoly.evaluate", None),
    ("forge.forge", "cubeforge.forge", "forge", _count_len("forge.forge.theorems")),
    ("forge.certify_theorem", "cubeforge.forge", "certify_theorem",
     _certificate("forge.certify_theorem")),
    ("forge.theorem_from_json", "cubeforge.forge", "theorem_from_json", None),
    ("concoct.implicitize", "cubeforge.concoct", "implicitize", None),
    ("concoct.find_form", "cubeforge.concoct", "find_form", None),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TRACED))


class Tracer:
    """Installs the wrappers, collects spans and turns them into per-layer
    self times and counts.  ``job`` is set by the caller before each job."""

    def __init__(self):
        self.names = list(LAYER_NAMES)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.job_of = array("l")
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        name_id = self.name_ids[name]
        start, end, names, parent, job_of = (
            self.start, self.end, self.name, self.parent, self.job_of)
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job_of.append(tracer.job)
            end.append(0.0)
            stack.append(idx)
            result = exc = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(counts, args, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "cubeforge" or k.startswith("cubeforge."))]
        for name, module, path, observe in TRACED:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, observe))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, observe)
            for ns in namespaces:
                if vars(ns).get(path) is original:
                    self._patch(ns, path, wrapper)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # --- aggregation ---

    def self_times(self) -> dict[str, float]:
        own = [0.0] * len(self.names)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        for i in range(len(start)):
            d = end[i] - start[i]
            own[names[i]] += d
            p = parent[i]
            if p >= 0:
                own[names[p]] -= d
        return dict(zip(self.names, own))

    def calls(self) -> dict[str, int]:
        c = Counter(self.name)
        return {n: c.get(i, 0) for i, n in enumerate(self.names)}

    def nested_calls(self, outer: str, inner: str) -> int:
        """Calls of ``inner`` that have an ``outer`` span among their
        ancestors."""
        o, n = self.name_ids[outer], self.name_ids[inner]
        names, parent = self.name, self.parent
        total = 0
        for i in range(len(names)):
            if names[i] != n:
                continue
            p = parent[i]
            while p >= 0 and names[p] != o:
                p = parent[p]
            total += p >= 0
        return total

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each normalised to one pass over the job list."""
        own = self.self_times()
        calls = self.calls()
        cnt = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}

        def put(layer, **fields):
            for field, value in fields.items():
                m[f"{layer}.{field}"] = value / passes if field in _PER_PASS else value

        put("cli.main", self_s=own["cli.main"])
        put("parsing.parse_poly", calls=calls["parsing.parse_poly"],
            self_s=own["parsing.parse_poly"])
        put("cubic.search_quadruples", self_s=own["cubic.search_quadruples"],
            seeds=cnt["cubic.search_quadruples.seeds"])
        put("cubic.morph", calls=calls["cubic.morph"], self_s=own["cubic.morph"],
            degenerate_ratio=ratio(cnt["cubic.morph.degenerate"], calls["cubic.morph"]))
        put("quadform.sol_quad", calls=calls["quadform.sol_quad"],
            self_s=own["quadform.sol_quad"],
            orbit_ratio=ratio(cnt["quadform.sol_quad.orbits"], calls["quadform.sol_quad"]))
        put("quadform.enumerate_solutions", calls=calls["quadform.enumerate_solutions"],
            self_s=own["quadform.enumerate_solutions"],
            solutions=cnt["quadform.enumerate_solutions.solutions"])
        put("cfinite.joint_guess_recurrence", calls=calls["cfinite.joint_guess_recurrence"],
            self_s=own["cfinite.joint_guess_recurrence"],
            hit_ratio=ratio(cnt["cfinite.joint_guess_recurrence.hits"],
                            calls["cfinite.joint_guess_recurrence"]))
        put("cfinite.seq_from_terms", calls=calls["cfinite.seq_from_terms"],
            self_s=own["cfinite.seq_from_terms"],
            fail_ratio=ratio(cnt["cfinite.seq_from_terms.fails"],
                             calls["cfinite.seq_from_terms"]))
        put("cfinite.taylor_coefficients", calls=calls["cfinite.taylor_coefficients"],
            self_s=own["cfinite.taylor_coefficients"],
            terms=cnt["cfinite.taylor_coefficients.terms"])
        for layer in ("cfinite.certify_zero", "forge.certify_theorem"):
            put(layer, calls=calls[layer], self_s=own[layer],
                depth_sum=cnt[layer + ".depth_sum"],
                refuted_ratio=ratio(cnt[layer + ".refuted"], calls[layer]))
        put("cfinite.certificate_bound", self_s=own["cfinite.certificate_bound"])
        for layer in ("kernel.rational_solve", "kernel.rational_nullspace"):
            put(layer, calls=calls[layer], self_s=own[layer], cells=cnt[layer + ".cells"])
        for layer in ("kernel.resultant", "kernel.exact_div", "kernel.MultiPoly.mul",
                      "kernel.MultiPoly.evaluate"):
            put(layer, calls=calls[layer], self_s=own[layer])
        put("kernel.MultiPoly.add", self_s=own["kernel.MultiPoly.add"])
        put("forge.forge", self_s=own["forge.forge"], theorems=cnt["forge.forge.theorems"])
        put("forge.theorem_from_json", calls=calls["forge.theorem_from_json"],
            self_s=own["forge.theorem_from_json"])
        put("concoct.implicitize", self_s=own["concoct.implicitize"])
        put("concoct.find_form", calls=calls["concoct.find_form"],
            self_s=own["concoct.find_form"],
            nullspace_per_call=ratio(
                self.nested_calls("concoct.find_form", "kernel.rational_nullspace"),
                calls["concoct.find_form"]))
        return m

    def write(self, path: Path, jobs: list[str]) -> None:
        """Write every span as one tab-separated line (index, name, start,
        end, parent, job id) after a JSON header line naming the jobs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"jobs": jobs, "columns": [
                "span", "name", "start_s", "end_s", "parent", "job"]}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job_of[i]}\n")


# fields that accumulate over a run and are reported per pass; ratios are not
_PER_PASS = {"self_s", "calls", "seeds", "solutions", "terms", "depth_sum", "cells",
             "theorems"}
