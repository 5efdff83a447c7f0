"""Spans recorded from outside `mexp`, and the per-layer metrics made from them.

`install` replaces every public function of the layer modules, and every
public method of the classes they define, with a wrapper that records one
span per call: name, start, end, parent span and, for a few functions, work
counts read from the arguments or the result. It also rebinds the names that
modules imported from one another (`descriptor` imports the projection
functions, `classify` imports `chi_square`), so calls through those names are
traced too. Spans stay in memory until the run writes them out.

The recorder keeps one stack of open spans, so it assumes one thread; the
benchmark runs the library with its default `jobs = 1`.
"""

import importlib
import inspect
import functools
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "config", "dataset", "rpca", "projection", "encoding", "descriptor",
    "selection", "classify", "pipeline",
)

MB = 1e6


def _decomposition(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _smo(args, result):
    return {"converged": bool(result[3])}


# span name -> function(args, result) -> attributes stored on the span
OBSERVERS = {
    "rpca.decompose_clip": _decomposition,
    "pipeline.compute_descriptor": lambda a, r: {"hit": bool(r[1])},
    "selection.pairwise_group_distances": lambda a, r: {"mb": r.nbytes / MB},
    "selection.laplacian_scores": lambda a, r: {"samples": len(a[0])},
    "classify.smo_solve": _smo,
    "classify.train_pairwise": lambda a, r: {"sv": int(r.support_vectors.shape[0])},
    "classify.PairwiseSvm.decision": lambda a, r: {"sv": int(a[0].support_vectors.shape[0])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end, parent, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 at the top
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_json(cls, row):
        return cls(*row)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), None, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if observe is not None:
                span.attrs = observe(args, result)
            return result

        return traced


def install(tracer, package="mexp"):
    """Wrap the public functions and methods of every layer module."""
    modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{name}")
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(fn, f"{layer}.{name}.{meth}"))
    for mod in [importlib.import_module(package), *modules]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])


# ---------------------------------------------------------------------------
# Analysis


def covered(interval, parts):
    """Length of `interval` covered by the union of the `parts` intervals."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span, its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered((s.start, s.end), children[i])
        for i, s in enumerate(spans)
    ]


SMO_STAGES = {
    "classify.select_penalty": "penalty_cv",
    "classify.train_pairwise": "train",
}


def smo_stage(spans, span):
    """Stage an SMO solve belongs to, by its parent span. The P sweep calls
    the solver from private pipeline code, so its solves have no wrapped
    parent of their own: any other parent counts as the P sweep."""
    parent = spans[span.parent].name if span.parent >= 0 else None
    return SMO_STAGES.get(parent, "p_sweep")


def _within(spans, name):
    """Mask of spans that are a span called `name` or lie below one."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede their children
        inside[i] = s.name == name or (s.parent >= 0 and inside[s.parent])
    return inside


# metric -> unit; the order in which a traced run reports them
LAYER_METRICS = {
    "dataset.load_s": "s",
    "dataset.frames": "count",
    "rpca.decompose_s": "s",
    "rpca.clips": "count",
    "rpca.iterations": "count",
    "rpca.nonconverged": "count",
    "projection.s": "s",
    "projection.calls": "count",
    "encoding.onedlbp_s": "s",
    "encoding.onedlbp_calls": "count",
    "encoding.lbp2d_s": "s",
    "encoding.lbp2d_calls": "count",
    "descriptor.extract_self_s": "s",
    "descriptor.clips": "count",
    "pipeline.descriptors_s": "s",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.cache_hit_ratio": "ratio",
    "pipeline.cache_mb_written": "MB",
    "pipeline.loso_self_s": "s",
    "selection.distances_s": "s",
    "selection.tensor_mb": "MB",
    "selection.fit_s": "s",
    "selection.laplacian_s": "s",
    "selection.laplacian_calls": "count",
    "selection.pair_samples": "count",
    "selection.max_graph_mb": "MB",
    "classify.penalty_cv_s": "s",
    "classify.p_sweep_s": "s",
    "classify.smo_s": "s",
    "classify.smo_solves": "count",
    "classify.smo_nonconverged": "count",
    "classify.smo_cap_hits": "count",
    "classify.train_s": "s",
    "classify.support_vectors": "count",
    "classify.predict_s": "s",
    "classify.predict_sv_rows": "count",
}


def layer_metrics(spans, cache_mb_written, smo_cap_hits):
    """Per-layer metrics of one traced run (everything but the trace
    overhead, which needs an untraced run beside it)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def seconds(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def count(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    selfs = self_times(spans)
    in_extract = _within(spans, "descriptor.extract_descriptor")
    decompositions = by_name["rpca.decompose_clip"]
    hits = sum(1 for s in by_name["pipeline.compute_descriptor"] if s.attrs["hit"])
    misses = count("pipeline.compute_descriptor") - hits
    graphs = [s.attrs["samples"] for s in by_name["selection.laplacian_scores"]]
    smo = by_name["classify.smo_solve"]
    projections = ("projection.horizontal_projection", "projection.vertical_projection")

    return {
        "dataset.load_s": seconds("dataset.load_dataset"),
        "dataset.frames": count("dataset.read_frame"),
        "rpca.decompose_s": seconds("rpca.decompose_clip"),
        "rpca.clips": len(decompositions),
        "rpca.iterations": sum(s.attrs["iterations"] for s in decompositions),
        "rpca.nonconverged": sum(1 for s in decompositions if not s.attrs["converged"]),
        "projection.s": seconds(*projections),
        "projection.calls": sum(count(n) for n in projections),
        "encoding.onedlbp_s": seconds("encoding.onedlbp_histogram"),
        "encoding.onedlbp_calls": count("encoding.onedlbp_histogram"),
        "encoding.lbp2d_s": seconds("encoding.lbp2d_histogram"),
        "encoding.lbp2d_calls": count("encoding.lbp2d_histogram"),
        "descriptor.extract_self_s": sum(
            t for s, t, inside in zip(spans, selfs, in_extract)
            if inside and s.name.startswith("descriptor.")
        ),
        "descriptor.clips": count("descriptor.extract_descriptor"),
        "pipeline.descriptors_s": seconds("pipeline.compute_descriptors"),
        "pipeline.cache_hits": hits,
        "pipeline.cache_misses": misses,
        "pipeline.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.cache_mb_written": cache_mb_written,
        "pipeline.loso_self_s": sum(
            t for s, t in zip(spans, selfs) if s.name == "pipeline.run_loso"
        ),
        "selection.distances_s": seconds("selection.pairwise_group_distances"),
        "selection.tensor_mb": max(
            (s.attrs["mb"] for s in by_name["selection.pairwise_group_distances"]),
            default=0.0,
        ),
        "selection.fit_s": seconds("selection.fit_selection"),
        "selection.laplacian_s": seconds("selection.laplacian_scores"),
        "selection.laplacian_calls": len(graphs),
        "selection.pair_samples": sum(graphs),
        "selection.max_graph_mb": 8 * max(graphs, default=0) ** 2 / MB,
        "classify.penalty_cv_s": seconds("classify.select_penalty"),
        "classify.p_sweep_s": sum(
            s.duration for s in smo if smo_stage(spans, s) == "p_sweep"
        ),
        "classify.smo_s": seconds("classify.smo_solve"),
        "classify.smo_solves": len(smo),
        "classify.smo_nonconverged": sum(1 for s in smo if not s.attrs["converged"]),
        "classify.smo_cap_hits": smo_cap_hits,
        "classify.train_s": seconds("classify.train_pairwise"),
        "classify.support_vectors": attr_sum("classify.train_pairwise", "sv"),
        "classify.predict_s": seconds("classify.MulticlassModel.predict_descriptor"),
        "classify.predict_sv_rows": attr_sum("classify.PairwiseSvm.decision", "sv"),
    }
