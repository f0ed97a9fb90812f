"""Built-in operads.

Textual entries are presented directly: generators with their (12)-symmetry
and one relation string per S3-orbit.  Pair-symmetric operations (an
associative product, say) are modelled as two generators exchanged by (12);
relations are stated in the first of the pair and closed under S3.

Derived entries are produced by the package's own constructions (duals,
di-replication, splitting) and renamed to their usual short names.  They
are built lazily and cached per process.
"""

from __future__ import annotations

import functools
import os
import re

from quadop.core.operad import QuadOperad, load_operad_file, make_operad
from quadop.errors import InputError
from quadop.koszul import dual_operad
from quadop.manin import replicate, split

_TEXTUAL: dict[str, tuple[list, list[str]]] = {
    # commutative associative product
    "Com": (
        [("m", "sym")],
        ["(x1 {m} x2) {m} x3 - x1 {m} (x2 {m} x3)"],
    ),
    # Lie bracket
    "Lie": (
        [("b", "antisym")],
        ["(x1 {b} x2) {b} x3 - (x3 {b} x2) {b} x1 - (x1 {b} x3) {b} x2"],
    ),
    # associative product with no symmetry: m2 = (12)m1
    "As": (
        [("m1", {"pair": "m2"}), ("m2", {"pair": "m1"})],
        ["(x1 {m1} x2) {m1} x3 - x1 {m1} (x2 {m1} x3)"],
    ),
    # Poisson: commutative product p, bracket b, Leibniz compatibility
    "Pois": (
        [("p", "sym"), ("b", "antisym")],
        [
            "(x1 {p} x2) {p} x3 - x1 {p} (x2 {p} x3)",
            "(x1 {b} x2) {b} x3 - (x3 {b} x2) {b} x1 - (x1 {b} x3) {b} x2",
            "(x1 {p} x2) {b} x3 - (x1 {b} x3) {p} x2 + (x3 {b} x2) {p} x1",
        ],
    ),
    # Novikov: left-symmetric and right-commutative
    "Nov": (
        [("n1", {"pair": "n2"}), ("n2", {"pair": "n1"})],
        [
            "(x1 {n1} x2) {n1} x3 - (x2 {n1} x1) {n1} x3"
            " - x1 {n1} (x2 {n1} x3) + x2 {n1} (x1 {n1} x3)",
            "(x1 {n1} x2) {n1} x3 - (x1 {n1} x3) {n1} x2",
        ],
    ),
    # commutative product p together with a Novikov product c1, coupled
    "NP": (
        [("p", "sym"), ("c1", {"pair": "c2"}), ("c2", {"pair": "c1"})],
        [
            "(x1 {p} x2) {p} x3 - x1 {p} (x2 {p} x3)",
            "(x1 {c1} x2) {c1} x3 - (x2 {c1} x1) {c1} x3"
            " - x1 {c1} (x2 {c1} x3) + x2 {c1} (x1 {c1} x3)",
            "(x1 {c1} x2) {c1} x3 - (x1 {c1} x3) {c1} x2",
            "(x1 {p} x2) {c1} x3 - x1 {p} (x2 {c1} x3)",
            "(x1 {c1} x2) {p} x3 - x1 {c1} (x2 {p} x3)"
            " - (x2 {c1} x1) {p} x3 + x2 {c1} (x1 {p} x3)",
        ],
    ),
    # Gelfand-Dorfman: Novikov product c1 and a bracket b, coupled
    "GD": (
        [("c1", {"pair": "c2"}), ("c2", {"pair": "c1"}), ("b", "antisym")],
        [
            "(x1 {b} x2) {b} x3 - (x3 {b} x2) {b} x1 - (x1 {b} x3) {b} x2",
            "(x1 {c1} x2) {c1} x3 - (x2 {c1} x1) {c1} x3"
            " - x1 {c1} (x2 {c1} x3) + x2 {c1} (x1 {c1} x3)",
            "(x1 {c1} x2) {c1} x3 - (x1 {c1} x3) {c1} x2",
            "(x1 {c1} x2) {b} x3 - (x1 {c1} x3) {b} x2"
            " + (x1 {b} x2) {c1} x3 - (x1 {b} x3) {c1} x2"
            " - x1 {c1} (x2 {b} x3)",
        ],
    ),
    # alternative algebras: alternating associator
    "Alt": (
        [("m1", {"pair": "m2"}), ("m2", {"pair": "m1"})],
        [
            "(x1 {m1} x2) {m1} x3 - x1 {m1} (x2 {m1} x3)"
            " + (x2 {m1} x1) {m1} x3 - x2 {m1} (x1 {m1} x3)",
            "(x1 {m1} x2) {m1} x3 - x1 {m1} (x2 {m1} x3)"
            " + (x1 {m1} x3) {m1} x2 - x1 {m1} (x3 {m1} x2)",
        ],
    ),
    # associative and left-commutative
    "Perm": (
        [("p1", {"pair": "p2"}), ("p2", {"pair": "p1"})],
        [
            "(x1 {p1} x2) {p1} x3 - x1 {p1} (x2 {p1} x3)",
            "(x1 {p1} x2) {p1} x3 - (x2 {p1} x1) {p1} x3",
        ],
    ),
    # Zinbiel
    "Zinb": (
        [("z1", {"pair": "z2"}), ("z2", {"pair": "z1"})],
        ["(x1 {z1} x2) {z1} x3 - x1 {z1} (x2 {z1} x3) - x1 {z1} (x3 {z1} x2)"],
    ),
}


# Each lambda looks its constructors and catalog() up when it runs, so a
# wrapped catalog() or product is the one called.
_DERIVED = {
    "Leib": lambda: replicate("di", catalog("Lie")),
    "preLie": lambda: dual_operad(catalog("Perm")),
    "diAs": lambda: replicate("di", catalog("As")),
    "preAs": lambda: dual_operad(catalog("diAs")),
    "diNov": lambda: replicate("di", catalog("Nov")),
    "postLie": lambda: split(catalog("Lie"), "post"),
    "ComTriAs": lambda: dual_operad(catalog("postLie")),
}


def catalog_names() -> list[str]:
    return sorted(_TEXTUAL) + sorted(_DERIVED)


@functools.cache
def catalog(name: str) -> QuadOperad:
    """The built-in operad of that name (built once per process)."""
    if name in _TEXTUAL:
        gens, rels = _TEXTUAL[name]
        return make_operad(name, gens, rels)
    if name in _DERIVED:
        return _DERIVED[name]().renamed(name)
    raise InputError(f"unknown operad {name!r}; known: {', '.join(catalog_names())}")


_DUAL_RE = re.compile(r"^dual\((.+)\)$")


def resolve(spec: str) -> QuadOperad:
    """Turn a CLI operand into an operad: a catalog name, dual(NAME) with any
    resolvable NAME inside, nested to any depth, or a path to a JSON operad
    file."""
    # Peel the dual( layers in a loop and apply the duals from the inside
    # out, so that the nesting depth is not bounded by the call stack.
    spec = spec.strip()
    layers = 0
    while m := _DUAL_RE.match(spec):
        spec = m.group(1).strip()
        layers += 1
    if spec in _TEXTUAL or spec in _DERIVED:
        op = catalog(spec)
    elif spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        op = load_operad_file(spec)
    else:
        raise InputError(
            f"cannot resolve operad {spec!r}: not a catalog name, dual(...), or file path; "
            f"known names: {', '.join(catalog_names())}"
        )
    for _ in range(layers):
        op = dual_operad(op)
    return op
