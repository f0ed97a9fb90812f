"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each quadop module.  Modules import
functions by name, so a wrapper is bound at every module attribute that
holds the original object (``quadop.core.operad.is_s3_stable`` as well as
``quadop.core.free3.is_s3_stable``), and methods are wrapped on their class.
``uninstall`` puts every original back.  The untraced run never imports this
module.

Each span records a name, start, end, parent span and query id (None during
set-up).  Spans stay in memory; after the run their times are converted to
paced time (pace.py) and written out.
``EchelonBasis.add`` and ``EchelonBasis.__init__`` run far too often for a
span each; their wrappers only count.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import Counter
from time import perf_counter

import metrics

MODULES = (
    "quadop", "quadop.cli", "quadop.core.catalog", "quadop.core.free3",
    "quadop.core.operad", "quadop.core.parser", "quadop.dong", "quadop.koszul",
    "quadop.linalg", "quadop.locality", "quadop.manin",
)

# span name -> (home module, function name)
FUNCTIONS = {
    "cli": ("quadop.cli", "main"),
    "parser.parse": ("quadop.core.parser", "parse_relation"),
    "parser.pretty": ("quadop.core.parser", "pretty_print"),
    "free3.closure": ("quadop.core.free3", "s3_closure"),
    "free3.guard": ("quadop.core.free3", "is_s3_stable"),
    "operad.load": ("quadop.core.operad", "load_operad_file"),
    "linalg.perp": ("quadop.linalg", "kernel_basis"),
    "koszul.dual": ("quadop.koszul", "dual_operad"),
    "manin.white": ("quadop.manin", "white_product"),
    "manin.black": ("quadop.manin", "black_product"),
    "manin.split": ("quadop.manin", "split"),
    "dong.verdict": ("quadop.dong", "dong_verdict"),
    "locality.instance": ("quadop.locality", "build_instance"),
}

# span name -> (home module, class, method)
METHODS = {
    "operad.p3_projection": ("quadop.core.operad", "QuadOperad", "p3_projection"),
    "operad.project": ("quadop.core.operad", "QuadOperad", "project"),
    "linalg.contains": ("quadop.linalg", "EchelonBasis", "contains"),
    "linalg.canon": ("quadop.linalg", "SubspaceQ", "from_echelon"),
    "linalg.intersect": ("quadop.linalg", "SubspaceQ", "intersect"),
}

# is_s3_stable(space, sub): the guard checks every basis row of sub.
EXTRA = {"free3.guard": lambda space, sub: sub.dim}

NAME, START, END, PARENT, QUERY, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.query = None
        self.enabled = True
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._sites: list[tuple[object, str, object]] = []
        self._built: set[str] = set()
        self._blocks = weakref.WeakKeyDictionary()

    # -- spans -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs, value=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query, value]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _span(self, name, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, extra(*args) if extra else None)

        return wrapper

    def _catalog(self, fn):
        # The catalog builds an entry on its first lookup in a process.
        @functools.wraps(fn)
        def wrapper(name):
            if not self.enabled or name in self._built:
                return fn(name)
            self._built.add(name)
            return self._call("catalog.build", fn, (name,), {})

        return wrapper

    def _residue(self, fn):
        # The first residue with total index T builds the T-block of that
        # instance; later ones with the same T only test membership.
        @functools.wraps(fn)
        def wrapper(inst, spec):
            if not self.enabled:
                return fn(inst, spec)
            seen = self._blocks.setdefault(inst, set())
            T = spec.k + spec.n + spec.m
            name = "locality.membership" if T in seen else "locality.block_build"
            seen.add(T)
            return self._call(name, fn, (inst, spec), {})

        return wrapper

    def _add(self, fn):
        @functools.wraps(fn)
        def wrapper(eb, vec):
            grew = fn(eb, vec)
            if self.enabled:
                self.counters["add_calls"] += 1
                self.counters["add_useful"] += grew
            return grew

        return wrapper

    def _init(self, fn):
        @functools.wraps(fn)
        def wrapper(eb, ambient_dim):
            fn(eb, ambient_dim)
            if self.enabled and ambient_dim > self.counters["ambient_dim"]:
                self.counters["ambient_dim"] = ambient_dim

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        site = (owner, attr, owner.__dict__[attr])
        self._saved.append(site)
        self._sites.append(site)
        setattr(owner, attr, new)

    def _patch_everywhere(self, home: str, attr: str, new) -> None:
        original = getattr(importlib.import_module(home), attr)
        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (home, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(home), attr)
            self._patch_everywhere(home, attr, self._span(name, fn))
        catalog = importlib.import_module("quadop.core.catalog").catalog
        self._patch_everywhere("quadop.core.catalog", "catalog", self._catalog(catalog))
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._span(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._span(name, raw))
        linalg = importlib.import_module("quadop.linalg")
        locality = importlib.import_module("quadop.locality")
        eb = linalg.EchelonBasis
        self._patch(eb, "add", self._add(eb.__dict__["add"]))
        self._patch(eb, "__init__", self._init(eb.__dict__["__init__"]))
        inst = locality.LocalityInstance
        self._patch(inst, "contains_residue", self._residue(inst.__dict__["contains_residue"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def removed(self) -> bool:
        """True when every name this tracer ever patched holds its original."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self._sites)

    # -- output ----------------------------------------------------------

    def retime(self, clock) -> None:
        """Map every span's start and end through ``clock`` (to paced time)."""
        for rec in self.spans:
            rec[START], rec[END] = clock(rec[START]), clock(rec[END])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query", "value"],
                       "spans": self.spans}, fh)


def _totals(spans: list[list], first: int, last: int) -> dict:
    """Per-name aggregates of spans[first:last]."""
    child = [0.0] * (last - first)
    for k in range(first, last):
        parent = spans[k][PARENT]
        if parent >= first:
            child[parent - first] += spans[k][END] - spans[k][START]
    out: dict[str, Counter] = {}
    for k in range(first, last):
        s = spans[k]
        agg = out.setdefault(s[NAME], Counter())
        dur = s[END] - s[START]
        agg["calls"] += 1
        agg["self"] += dur - child[k - first]
        agg["value"] += s[VALUE] or 0
    return out


def _outermost(spans: list[list], first: int, last: int, names: tuple) -> float:
    total = 0.0
    for k in range(first, last):
        s = spans[k]
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= first and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < first:
            total += s[END] - s[START]
    return total


def per_layer(tracer: Tracer, setup_end: int, setup_counters: Counter,
              passes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics over the traced set-up plus the mean traced pass.

    Spans before ``setup_end`` belong to the set-up, the rest to the
    ``passes`` traced passes.
    """
    spans = tracer.spans
    phases = (
        (0, setup_end, setup_counters, 1.0),
        (setup_end, len(spans), tracer.counters - setup_counters, 1.0 / passes),
    )
    totals = [(_totals(spans, a, b), a, b, counts, w) for a, b, counts, w in phases]
    out = {}
    for name, _unit, _better, source, _moves in metrics.PER_LAYER:
        kind, args = source[0], source[1:]
        if kind == "overhead":
            value = overhead_s
        elif kind == "max":
            value = tracer.counters[args[0]]
        elif kind == "ratio":
            num = sum(w * c[args[0]] for _, _, _, c, w in totals)
            den = sum(w * c[args[1]] for _, _, _, c, w in totals)
            value = num / den if den else 0.0
        elif kind == "counter":
            value = sum(w * c[args[0]] for _, _, _, c, w in totals)
        elif kind == "time":
            value = sum(w * _outermost(spans, a, b, args) for _, a, b, _, w in totals)
        else:
            key = {"self": "self", "calls": "calls", "extra": "value"}[kind]
            value = sum(w * t.get(args[0], Counter())[key] for t, _, _, _, w in totals)
        out[name] = value
    return out
