"""Span recording around algconn's layer functions, installed from outside
the package.

Every function in :data:`TRACED` is replaced at every module binding the
program looks it up through: ``cli`` and ``verification`` import names
directly, so patching only the defining module would miss their calls.
Bindings are found by object identity across the ``algconn.*`` modules.
``GraphStream.__iter__`` is wrapped too: the span from entering it to the
first yielded graph is ``enumeration.first_graph`` (the cold list build).

Spans are kept in memory as ``[name, start, end, parent]`` and written out
by the caller when the run ends; :func:`aggregate` turns them into per-name
call counts, total and self time.
"""

from __future__ import annotations

import functools
import sys
import time

#: Layer functions timed per call, by defining module.
TRACED = {
    "graph": ("parse_graph6", "encode_graph6", "canonical_form", "is_isomorphic"),
    "spectral": (
        "laplacian",
        "eigen_symmetric",
        "algebraic_connectivity",
        "fiedler_vector",
        "classify_fiedler",
    ),
    "matching": (
        "matching_number",
        "edge_cover_number",
        "_bitmask_matching",
        "spanning_tree_preserving_matching",
        "spanning_unicyclic_preserving_matching",
    ),
    "families": ("double_broom", "balanced_broom", "extremal_tree", "relocate_branch"),
}

FIRST_GRAPH = "enumeration.first_graph"

#: Every span name, in report order.
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns) + (FIRST_GRAPH,)


class Tracer:
    """Records nested spans and the computed work counts of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {
            "spectral.eigen_symmetric.work_n3": 0,
            "spectral.eigen_symmetric.order_max": 0,
            "matching.dp_states": 0,
            "enumeration.graphs": 0,
        }

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(*args)
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    def _note_eigen(self, matrix, *_):
        n = len(matrix)
        c = self.counts
        c["spectral.eigen_symmetric.work_n3"] += n**3
        c["spectral.eigen_symmetric.order_max"] = max(c["spectral.eigen_symmetric.order_max"], n)

    def _note_dp(self, g, *_):
        self.counts["matching.dp_states"] += 1 << g.n

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded algconn modules."""
        import algconn  # noqa: F401  (loads every submodule)
        from algconn.enumeration import GraphStream

        notes = {
            "spectral.eigen_symmetric": self._note_eigen,
            "matching._bitmask_matching": self._note_dp,
        }
        replacement: dict[int, tuple[object, object]] = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"algconn.{mod}"]
            for fn_name in fns:
                fn = getattr(module, fn_name)
                name = f"{mod}.{fn_name}"
                replacement[id(fn)] = (fn, self._wrap(name, fn, notes.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "algconn" and not mod_name.startswith("algconn."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        original_iter = GraphStream.__iter__
        tracer = self

        def traced_iter(stream):
            it = original_iter(stream)
            idx = tracer._enter(FIRST_GRAPH)
            try:
                first = next(it, None)
            finally:
                tracer._exit(idx)
            if first is None:
                return
            tracer.counts["enumeration.graphs"] += 1
            yield first
            for g in it:
                tracer.counts["enumeration.graphs"] += 1
                yield g

        GraphStream.__iter__ = traced_iter


def aggregate(span_lists: list[list[list]]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` (duration minus
    the durations of direct children, which nest inside their parent),
    summed over the span lists of several processes."""
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
    return out
