"""Span recorder for the traced benchmark run.

install() replaces functions at the boundaries of the fermibose modules
(cli, fock, boson, bridge) with wrappers that record a span per call:
an id, the id of the enclosing span, a name, start and end.  Spans are
kept in memory; the child process writes them out when the CLI returns
and layer_metrics() turns them into the per-layer metrics.

Only module attributes are replaced, so only calls that look the name up
on its module see a wrapper.  lattice.crescent and lattice.ball_points
reach their callers through ``from ... import`` and are read through
their lru_cache counters instead.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import time

# module -> {attribute: span name}; the layer is the part before the dot.
SPANS = {
    "cli": {
        "main": "cli.main",
        "load_config": "cli.load_config",
        "run": "cli.run",
        "write_csv": "cli.write_csv",
        "_write_failures": "cli.write_failures",
    },
    "fock": {"ground_state": "fock.ground_state"},
    "bridge": {
        "phi_monomial_image": "bridge.phi_image",
        "phi_map": "bridge.phi_map",
        "subspace_upper_bound": "bridge.subspace_upper_bound",
        "h2_expectation_audit": "bridge.h2_expectation_audit",
    },
}

# The four "move a particle by k" operators; their counts are pooled
# under fock.apply.* so one kernel rewrite shows up in one place.
APPLY = ("apply_rho", "apply_b", "apply_b_dag", "apply_d")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("lattice.crescent.hit_ratio", "ratio"),
    ("lattice.ball_points.hit_ratio", "ratio"),
    ("fock.sector_basis.s", "s"),
    ("fock.sector_basis.combinations", "count"),
    ("fock.sector_basis.dets", "count"),
    ("fock.sector_basis.yield", "ratio"),
    ("fock.ground_state.self_s", "s"),
    ("fock.eigensolve.s", "s"),
    ("fock.eigensolve.dim", "count"),
    ("fock.apply_rho.s", "s"),
    ("fock.apply_b.s", "s"),
    ("fock.apply_b_dag.s", "s"),
    ("fock.apply_d.s", "s"),
    ("fock.apply.calls", "count"),
    ("fock.apply.terms_in", "count"),
    ("fock.apply.terms_out", "count"),
    ("fock.apply.moves", "count"),
    ("fock.apply.yield", "ratio"),
    ("boson.s", "s"),
    ("boson.calls", "count"),
    ("bridge.phi_image.self_s", "s"),
    ("bridge.phi_image.misses", "count"),
    ("bridge.phi_image.hit_ratio", "ratio"),
    ("bridge.phi_map.self_s", "s"),
    ("bridge.subspace_upper_bound.self_s", "s"),
    ("bridge.h2_expectation_audit.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


class Recorder:
    """Spans as [id, parent id, name, start, end] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.caches = {}  # name -> the lru_cache function to read at the end
        self._stack = []

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def innermost(self):
        return self.spans[self._stack[-1]][2] if self._stack else None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        return traced

    def wrap_apply(self, name, fn):
        """Span plus the fock.apply.* counts, taken outside the span.

        moves is the number of (determinant, particle) pairs the operator
        tries to move: the sum of len(det) over the input terms.
        """
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args):
            terms = args[-1].terms
            self.add("fock.apply.calls", 1)
            self.add("fock.apply.terms_in", len(terms))
            self.add("fock.apply.moves", sum(map(len, terms)))
            out = traced(*args)
            self.add("fock.apply.terms_out", len(out.terms))
            return out

        return counted

    def wrap_sector_basis(self, fn):
        traced = self.wrap("fock.sector_basis", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            basis = traced(*args, **kwargs)
            self.add("fock.sector_basis.dets", len(basis))
            return basis

        return counted

    def wrap_combinations(self, fn):
        """Count the combinations sector_basis filters, without touching
        the iterator it consumes."""

        @functools.wraps(fn)
        def combinations(iterable, r):
            pool = tuple(iterable)
            if self.innermost() == "fock.sector_basis":
                self.add("fock.sector_basis.combinations", math.comb(len(pool), r))
            return fn(pool, r)

        return combinations

    def wrap_eigensolver(self, fn):
        """A span only when ground_state calls the solver directly."""
        traced = self.wrap("fock.eigensolve", fn)

        @functools.wraps(fn)
        def solve(a, *args, **kwargs):
            if self.innermost() != "fock.ground_state":
                return fn(a, *args, **kwargs)
            dim = self.counts.get("fock.eigensolve.dim", 0)
            self.counts["fock.eigensolve.dim"] = max(dim, a.shape[0])
            return traced(a, *args, **kwargs)

        return solve


def install(rec: Recorder):
    """Patch the fermibose modules, itertools.combinations and the scipy
    eigensolvers in this process.  Call once, before the CLI runs."""
    import scipy.linalg
    import scipy.sparse.linalg

    from fermibose import boson, bridge, cli, fock, lattice

    modules = {"cli": cli, "fock": fock, "bridge": bridge}
    rec.caches = {
        "lattice.crescent": lattice.crescent,
        "lattice.ball_points": lattice.ball_points,
        "bridge.phi_image": bridge.phi_monomial_image,
    }
    for module_name, names in SPANS.items():
        module = modules[module_name]
        for attr, span in names.items():
            setattr(module, attr, rec.wrap(span, getattr(module, attr)))
    fock.sector_basis = rec.wrap_sector_basis(fock.sector_basis)
    for attr in APPLY:
        setattr(fock, attr, rec.wrap_apply(f"fock.{attr}", getattr(fock, attr)))
    # boson is predicted idle on every workload: wrap all of its public
    # functions so any use of it shows.
    for attr, fn in inspect.getmembers(boson, inspect.isfunction):
        if not attr.startswith("_") and fn.__module__ == boson.__name__:
            setattr(boson, attr, rec.wrap(f"boson.{attr}", fn))
    itertools.combinations = rec.wrap_combinations(itertools.combinations)
    scipy.linalg.eigh = rec.wrap_eigensolver(scipy.linalg.eigh)
    scipy.sparse.linalg.eigsh = rec.wrap_eigensolver(scipy.sparse.linalg.eigsh)


def cache_counts(rec: Recorder):
    return {
        name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
        for name, fn in rec.caches.items()
    }


# ---------------------------------------------------------------- analysis


def span_times(spans):
    """Per span: (duration, self time).  Self time is the duration minus
    the durations of the direct children; calls nest strictly in one
    thread, so the children never overlap."""
    dur = [end - start for _, _, _, start, end in spans]
    child = [0.0] * len(spans)
    for sid, parent, _, _, _ in spans:
        if parent is not None:
            child[parent] += dur[sid]
    return [(d, d - c) for d, c in zip(dur, child)]


def _nested_in(spans, sid, pred):
    parent = spans[sid][1]
    while parent is not None:
        if pred(spans[parent][2]):
            return True
        parent = spans[parent][1]
    return False


def _is_boson(name):
    return name.startswith("boson.")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, caches, overhead_s):
    """The PER_LAYER metrics from one traced run, as {name: value}.

    name.s is the time inside spans of that name (a recursive call is not
    counted twice), name.self_s the same minus the time of child spans.
    """
    times = span_times(spans)
    total, self_s = {}, {}
    for sid, _, name, _, _ in spans:
        self_s[name] = self_s.get(name, 0.0) + times[sid][1]
        if not _nested_in(spans, sid, name.__eq__):
            total[name] = total.get(name, 0.0) + times[sid][0]
    boson = [sid for sid, _, name, _, _ in spans if _is_boson(name)]
    hit = {
        name: _ratio(c["hits"], c["hits"] + c["misses"])
        for name, c in caches.items()
    }

    def n(key):
        return counts.get(key, 0)

    out = {
        "cli.run.s": total.get("cli.run", 0.0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "lattice.crescent.hit_ratio": hit["lattice.crescent"],
        "lattice.ball_points.hit_ratio": hit["lattice.ball_points"],
        "fock.sector_basis.s": total.get("fock.sector_basis", 0.0),
        "fock.sector_basis.combinations": n("fock.sector_basis.combinations"),
        "fock.sector_basis.dets": n("fock.sector_basis.dets"),
        "fock.sector_basis.yield": _ratio(
            n("fock.sector_basis.dets"), n("fock.sector_basis.combinations")
        ),
        "fock.ground_state.self_s": self_s.get("fock.ground_state", 0.0),
        "fock.eigensolve.s": total.get("fock.eigensolve", 0.0),
        "fock.eigensolve.dim": n("fock.eigensolve.dim"),
    }
    for attr in APPLY:
        out[f"fock.{attr}.s"] = total.get(f"fock.{attr}", 0.0)
    for key in ("calls", "terms_in", "terms_out", "moves"):
        out[f"fock.apply.{key}"] = n(f"fock.apply.{key}")
    out["fock.apply.yield"] = _ratio(n("fock.apply.terms_out"), n("fock.apply.moves"))
    out["boson.s"] = sum(
        times[sid][0] for sid in boson if not _nested_in(spans, sid, _is_boson)
    )
    out["boson.calls"] = len(boson)
    out["bridge.phi_image.self_s"] = self_s.get("bridge.phi_image", 0.0)
    out["bridge.phi_image.misses"] = caches["bridge.phi_image"]["misses"]
    out["bridge.phi_image.hit_ratio"] = hit["bridge.phi_image"]
    for name in ("phi_map", "subspace_upper_bound", "h2_expectation_audit"):
        out[f"bridge.{name}.self_s"] = self_s.get(f"bridge.{name}", 0.0)
    out["trace.overhead_s"] = overhead_s
    out["trace.unaccounted_s"] = self_s.get("cli.run", 0.0)
    return out


def span_tree(spans):
    """One line per call path: 'name total_s xcalls', indented by depth,
    children under their parent in order of first call."""
    paths, agg = {}, {}
    for sid, parent, name, start, end in spans:
        path = paths[sid] = (paths[parent] if parent is not None else ()) + (name,)
        total, calls = agg.get(path, (0.0, 0))
        agg[path] = (total + end - start, calls + 1)
    first = {path: i for i, path in enumerate(agg)}
    order = sorted(agg, key=lambda p: [first[p[: i + 1]] for i in range(len(p))])
    return [
        f"{'  ' * (len(p) - 1)}{p[-1]} {agg[p][0]:.3f} s x{agg[p][1]}" for p in order
    ]
