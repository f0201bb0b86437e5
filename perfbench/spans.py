"""In-memory span tracer that wraps qmmp's public entry points from outside.

Every wrapped call records one span (name, parent span, start, end) in flat
arrays.  A wrapper replaces the original function object in *every* loaded
``qmmp`` module namespace that binds it, so callers that imported a name
(``from .mmp import distribution``) and callers that go through a module
attribute (``gf.q132_series``) are both traced.  A layer's self time is the
sum of its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, function) pairs wrapped as spans named "<module>.<function>".
ENTRY_POINTS = {
    "perm": ("avoiders", "occurs"),
    "mmp": (
        "bivariate_distribution",
        "quadrants_at",
        "corner_frame_counts",
        "fast_mmp_0k0l",
        "mmp_count",
    ),
    "gf": (
        "q132_series",
        "transport_123",
        "closed_series_123",
        "recurrence_series_123",
        "q123_bivariate",
        "q123_0k00",
        "q132_k0e0",
        "q132_0ke0",
        "q132_kle0",
        "q132_0kel",
        "q132_akel",
        "q132_ekel",
        "closed_poly_0k0l",
        "extremal_coeff",
    ),
    "oracle": ("brute_series", "verify_all"),
    "dyck": ("phi", "phi_inv", "psi", "psi_inv", "stats"),
    "cli": ("paper_table_specs", "write_paper_tables"),
}

# Polynomial methods, wrapped on the class because operator dispatch reads it.
POLY_METHODS = {
    "series.add": ("__add__", "__radd__"),
    "series.render": ("render",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def traced(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: durations minus time covered by children."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (end[i] - start[i] - child[i])
        return out


def _qmmp_namespaces() -> list[dict]:
    return [
        vars(mod)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qmmp" or name.startswith("qmmp."))
    ]


def _rebind(original, wrapper) -> int:
    hits = 0
    for ns in _qmmp_namespaces():
        for key, value in list(ns.items()):
            if value is original:
                ns[key] = wrapper
                hits += 1
    return hits


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.nid(name)
    traced = tracer.traced
    counts = tracer.counts
    calls = name + ".calls"

    def wrapper(*args, **kwargs):
        counts[calls] = counts.get(calls, 0) + 1
        return traced(nid, fn, args, kwargs)

    return wrapper


def _mul_span(tracer: Tracer, fn):
    """A series.mul span that also counts term products, |a| * |b| per call."""
    nid = tracer.nid("series.mul")
    traced = tracer.traced
    counts = tracer.counts

    def mul(a, b):
        counts["series.mul.calls"] = counts.get("series.mul.calls", 0) + 1
        counts["series.mul.term_products"] = (
            counts.get("series.mul.term_products", 0) + _terms(a) * _terms(b)
        )
        return traced(nid, fn, (a, b), {})

    return mul


def _terms(p) -> int:
    return len(p._c) if hasattr(p, "_c") else 1


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point in the already-imported qmmp modules."""
    import qmmp
    from qmmp import mmp, oracle, series

    for module, names in ENTRY_POINTS.items():
        mod = getattr(qmmp, module)
        for name in names:
            fn = getattr(mod, name)
            if _rebind(fn, _span(tracer, f"{module}.{name}", fn)) == 0:
                raise RuntimeError(f"no binding of {module}.{name} found")

    # avoiders: also count the permutations handed to callers.
    avoiders_span = getattr(qmmp.perm, "avoiders")

    def avoiders(n, tau):
        out = avoiders_span(n, tau)
        tracer.count("perm.avoiders.perms", len(out))
        return out

    _rebind(avoiders_span, avoiders)

    # distribution: a call is cold when it is the first for its (n, class).
    distribution = mmp.distribution
    cold_id = tracer.nid("mmp.distribution.cold")
    warm_id = tracer.nid("mmp.distribution.warm")
    seen: set = set()

    def traced_distribution(n, tau, spec):
        key = (n, tau.word)
        cold = key not in seen
        seen.add(key)
        tracer.count("mmp.distribution.calls")
        tracer.count("mmp.distribution.cold_calls", cold)
        return tracer.traced(cold_id if cold else warm_id, distribution, (n, tau, spec), {})

    _rebind(distribution, traced_distribution)

    # verify: one span name per subject.
    verify = oracle.verify

    def traced_verify(subject_id, max_n=None):
        tracer.count("oracle.verify.calls")
        nid = tracer.nid(f"oracle.verify.{subject_id}")
        return tracer.traced(nid, verify, (subject_id, max_n), {})

    _rebind(verify, traced_verify)

    for cls in (series.IntPoly, series.BiPoly):
        for attr in ("__mul__", "__rmul__"):
            setattr(cls, attr, _mul_span(tracer, cls.__dict__[attr]))
        for name, methods in POLY_METHODS.items():
            for attr in methods:
                setattr(cls, attr, _span(tracer, name, cls.__dict__[attr]))
    render_lines = series.TSeries.render_lines
    series.TSeries.render_lines = _span(tracer, "series.render", render_lines)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (``<span>.s``, ``<module>.self_s``) and counts."""
    out: dict[str, float] = {}
    for name, t in tracer.self_times().items():
        if name.startswith("mmp.distribution."):
            out[f"{name}_s"] = t
        else:
            out[f"{name}.s"] = t
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + t
    out.update(tracer.counts)
    out["trace.spans"] = len(tracer.start)
    return out
