"""In-memory spans recorded by timing wrappers around tlradapt's module-level names.

Nothing inside the package is edited. For a traced operation the wrappers
replace, for its duration only, the names each layer's callers look up (for
example ``tlradapt.bench.eigen_basis``, which ``grid_search`` calls, and
``tlradapt.tlr.eigen_basis``, which ``solve_W`` calls), so every call into a
layer records one span: name, start, end, parent span and operation id.
"""

import functools
import json
import time
from contextlib import contextmanager


def _order_of_first_argument(args, kwargs):
    matrix = args[0] if args else kwargs["A"]
    return {"order": int(matrix.shape[0])}


def traced_names():
    """(owner, attribute, span name, annotate) for every wrapped call site.

    Span names are ``<module that defines the function>.<function>``; the
    owner is the module or class whose attribute the caller looks up.
    """
    from tlradapt import bench, classify, cli, kernels, tlr

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_csv", "dataset.load_csv", None),
        (cli, "standardize_pair", "dataset.standardize_pair", None),
        (cli, "grid_search", "bench.grid_search", None),
        (cli, "emit_report", "bench.emit_report", None),
        (bench, "grid_search", "bench.grid_search", None),
        (bench, "sample_per_class", "dataset.sample_per_class", None),
        (bench, "build_joint_kernel", "kernels.build_joint_kernel", None),
        (bench, "mmd_matrix", "mmd.mmd_matrix", None),
        (bench, "eigen_basis", "tlr.eigen_basis", _order_of_first_argument),
        (bench, "cdist", "bench.knn_distances", None),
        (bench, "accuracy", "classify.accuracy", None),
        (tlr, "fit", "tlr.fit", None),
        (tlr, "build_joint_kernel", "kernels.build_joint_kernel", None),
        (tlr, "mmd_matrix", "mmd.mmd_matrix", None),
        (tlr, "build_AB", "tlr.build_AB", None),
        (tlr, "solve_W", "tlr.solve_W", None),
        (tlr, "eigen_basis", "tlr.eigen_basis", _order_of_first_argument),
        (tlr, "save_model", "tlr.save_model", None),
        (tlr, "load_model", "tlr.load_model", None),
        (tlr, "gram", "kernels.gram", None),
        (tlr.TlrModel, "embed", "tlr.embed", None),
        (kernels, "gram", "kernels.gram", None),
        (kernels, "median_bandwidth", "kernels.median_bandwidth", None),
        (classify, "knn1_predict", "classify.knn1_predict", None),
        (classify, "accuracy", "classify.accuracy", None),
    ]


class Tracer:
    """Collects spans from one benchmark process; single-threaded callers only."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _wrap(self, name, func, annotate, op):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "op": op,
            }
            if annotate is not None:
                span.update(annotate(args, kwargs))
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(self, op):
        """Route every traced name through a span-recording wrapper for one operation."""
        saved = []
        try:
            for owner, attribute, name, annotate in traced_names():
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, original, annotate, op))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, summed over all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = totals.setdefault(
                span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "order_sum": 0}
            )
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[index]
            entry["order_sum"] += span.get("order", 0)
        return totals

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**header, "spans": self.spans}, handle)
