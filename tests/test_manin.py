"""White and black products, replication, and dendriform-style splitting."""

import hashlib
import random
from fractions import Fraction

import pytest

from quadop.core.catalog import catalog, catalog_names
from quadop.core.operad import make_operad
from quadop.core.parser import parse_relation
from quadop.dong import dong_verdict
from quadop.errors import InputError
from quadop.koszul import dual_operad
from quadop.linalg import SubspaceQ
from quadop.manin import (
    _product_space,
    _tensor_rows,
    black_product,
    replicate,
    split,
    split_partner,
    verify_black_tensor,
    white_product,
)

from helpers import (
    fresh_perp,
    random_operad,
    reference_tensor_rows,
    split_in_model_space,
    white_by_projection,
)


def transport_relations(src, dst, G):
    """Push src's relations through the generator dictionary G, where
    dst-coordinates of the image of src generator i are column i of G."""
    d = src.space.dim
    rows = []
    for row in src.relations.basis():
        out = {}
        for c, coeff in row.items():
            sigma, i, j = src.space.unflat(c)
            for a in range(d):
                if not G[a][i]:
                    continue
                for b in range(d):
                    f = G[a][i] * G[b][j]
                    if f:
                        idx = dst.space.flat(sigma, a, b)
                        out[idx] = out.get(idx, Fraction(0)) + coeff * f
        rows.append({k: v for k, v in out.items() if v})
    return SubspaceQ.from_vectors(dst.space.free3_dim, rows)


def signed_perm(d, assignment):
    """Columns of G from {source index: (target index, sign)}."""
    G = [[Fraction(0)] * d for _ in range(d)]
    for i, (a, s) in assignment.items():
        G[a][i] = Fraction(s)
    return G


# -- white ------------------------------------------------------------


def test_white_with_com_is_identity():
    for name in ("As", "Lie", "Nov", "NP"):
        P = catalog(name)
        W = white_product(catalog("Com"), P)
        assert W.space.swap == P.space.swap
        assert W.relations == P.relations


def test_white_com_on_the_right():
    P = catalog("ComTriAs")
    W = white_product(P, catalog("Com"))
    assert W.relations == P.relations


def test_white_perm_as_is_diassociative():
    W = white_product(catalog("Perm"), catalog("As"))
    assert (W.dim_gens, W.dim_relations, W.dim_p3) == (4, 30, 18)
    assert W.relations == catalog("diAs").relations


@pytest.mark.parametrize("a", ["Com", "Lie", "As", "Perm", "Nov", "diAs"])
def test_white_matches_projection_reference(a):
    # white_product shares its tensor loop with black_product; the reference
    # builds the same kernel from the Fraction columns of monomial_projection.
    for b in ("Com", "Lie", "As", "Perm", "Nov", "diAs"):
        P, Q = catalog(a), catalog(b)
        assert white_product(P, Q).relations == white_by_projection(P, Q), (a, b)


def test_white_matches_projection_reference_at_d24():
    P, Q = replicate("tri", catalog("As")), catalog("diAs")
    W = white_product(P, Q)
    assert W.dim_gens == 24
    assert W.relations == white_by_projection(P, Q)


def _tensor_pairs():
    yield catalog("Perm"), catalog("Lie")
    yield catalog("As"), catalog("Pois")
    yield split(catalog("Lie"), "post"), catalog("As")
    rng = random.Random(18)
    proper = []
    while len(proper) < 8:
        # Neither R = 0 nor R = F(3), so both products have tensor rows.
        P = random_operad(rng, rng.randint(1, 3), nseeds=1)
        if 0 < P.dim_relations < P.dim_free3:
            proper.append(P)
    yield from zip(proper[::2], proper[1::2])


def test_tensor_rows_match_the_entrywise_reference():
    # Both products' rows, in order: the white product's from the
    # annihilator rows, the black product's from the relation rows.
    for P, Q in _tensor_pairs():
        for fmt, sign, rows in (("{0}*{1}", 1, lambda X: X.relations.annihilator_rows()),
                                ("{0}•{1}", -1, lambda X: X.relations.rows())):
            space = _product_space(P, Q, fmt, sign)
            got = _tensor_rows(P, rows(P), Q, rows(Q), space)
            assert got, (P.dims(), Q.dims(), fmt)
            assert got == reference_tensor_rows(P, rows(P), Q, rows(Q), space), (P.dims(), Q.dims(), fmt)


def _relations_digest(P):
    return hashlib.sha256("\n".join(P.show_relations()).encode()).hexdigest()[:16]


def test_d64_white_product_dual_and_verdict_are_pinned():
    # Frozen from the construction before the column-indexed back-substitution
    # and the sparse involution check; any change in the canonical relations
    # changes the digests.
    diAs = catalog("diAs")
    W = white_product(diAs, white_product(diAs, diAs))
    dual = dual_operad(W)
    report = dong_verdict(W, dual)
    assert W.dims() == {"gen": 64, "free3": 12288, "relations": 7752, "p3": 4536}
    assert dual.dims() == {"gen": 64, "free3": 12288, "relations": 4536, "p3": 7752}
    assert _relations_digest(W) == "00f53c6899c563b2"
    assert _relations_digest(dual) == "94e2ab640ee90ff1"
    assert (report.verdict, report.kernel_dim) == ("NotDong", 1296)


def test_diassociative_dictionary():
    """Generators p2*m1 and p1*m1 of diAs act as the left and right actions
    of an associative pair: both associative, with the five interleaving
    identities."""
    diAs = catalog("diAs")
    L, R = "p2*m1", "p1*m1"
    for ident in (
        f"(x1 {{{L}}} x2) {{{L}}} x3 - x1 {{{L}}} (x2 {{{L}}} x3)",
        f"x1 {{{L}}} (x2 {{{L}}} x3) - x1 {{{L}}} (x2 {{{R}}} x3)",
        f"(x1 {{{R}}} x2) {{{L}}} x3 - x1 {{{R}}} (x2 {{{L}}} x3)",
        f"(x1 {{{L}}} x2) {{{R}}} x3 - (x1 {{{R}}} x2) {{{R}}} x3",
        f"(x1 {{{R}}} x2) {{{R}}} x3 - x1 {{{R}}} (x2 {{{R}}} x3)",
    ):
        assert diAs.relations.contains(parse_relation(diAs.space, ident)), ident


# -- black ------------------------------------------------------------


def test_black_with_lie_keeps_dimensions():
    for name in ("As", "Nov", "Pois"):
        P = catalog(name)
        B = black_product(P, catalog("Lie"))
        assert B.dims()["relations"] == P.dims()["relations"]
        assert B.dims()["p3"] == P.dims()["p3"]


def test_black_is_dual_of_white_of_duals():
    for left, right in (("Leib", "Nov"), ("Nov", "Pois"), ("As", "Lie")):
        P, Q = catalog(left), catalog(right)
        B = black_product(P, Q)
        assert B.dim_gens == P.dim_gens * Q.dim_gens
        W = white_product(dual_operad(P), dual_operad(Q))
        assert B.relations == fresh_perp(W.relations)
        assert B.space.swap == dual_operad(W).space.swap


def test_black_tensor_certificate():
    As, Lie = catalog("As"), catalog("Lie")
    good = black_product(As, Lie)
    assert verify_black_tensor(As, Lie, good)
    assert not verify_black_tensor(As, Lie, white_product(As, Lie))
    assert not verify_black_tensor(As, Lie, black_product(catalog("Nov"), Lie))
    with pytest.raises(InputError):
        verify_black_tensor(As, catalog("Nov"), good)  # wrong generator count


# -- replication ------------------------------------------------------


def test_replicate_dimensions():
    di = replicate("di", catalog("As"))
    assert di.name == "di(As)"
    assert di.relations == catalog("diAs").relations
    tri = replicate("tri", catalog("Com"))
    assert tri.relations == catalog("ComTriAs").relations
    with pytest.raises(InputError):
        replicate("quad", catalog("As"))


def test_di_lie_is_leibniz():
    assert replicate("di", catalog("Lie")).relations == catalog("Leib").relations


# -- splitting --------------------------------------------------------


def test_split_modes_and_dims():
    pre = split(catalog("Lie"), "pre")
    post = split(catalog("Lie"), "post")
    assert (pre.dim_gens, pre.dim_relations, pre.dim_p3) == (2, 3, 9)
    assert (post.dim_gens, post.dim_relations, post.dim_p3) == (3, 7, 20)
    with pytest.raises(InputError):
        split(catalog("Lie"), "mid")


def test_split_swap_convention():
    post = split(catalog("Lie"), "post")
    names = post.space.names
    assert names == ("b_succ", "b_prec", "b_perp")
    sw = post.space.swap
    # (12) exchanges succ and prec (the Lie antisymmetry cancels the twist)
    # and negates perp.
    assert sw[1][0] == 1 and sw[0][1] == 1
    assert sw[2][2] == -1
    assert sw[0][0] == sw[1][1] == 0


def _random_split_operands():
    # Seeded draws with 1 to 3 generators; some swaps are non-integral.
    rng = random.Random(7)
    draws = [random_operad(rng, rng.randint(1, 3)) for _ in range(150)]
    assert sum(any(x.denominator != 1 for col in P.space.swap_columns for _, x in col)
               for P in draws) >= 10
    return draws


_SPLIT_OPERANDS = {
    **{name: lambda name=name: [catalog(name)] for name in catalog_names()},
    "dual(NP)": lambda: [dual_operad(catalog("NP"))],
    "no-generators": lambda: [make_operad("none", [], [])],
    "no-relations": lambda: [make_operad("free", [("a", {"pair": "b"}), ("b", {"pair": "a"}),
                                                  ("c", "antisym")], [])],
    "zero-relation": lambda: [make_operad("zero", [("a", "sym")], ["0"])],
    "random": _random_split_operands,
}


@pytest.mark.parametrize("name", _SPLIT_OPERANDS)
def test_split_matches_model_space_reference(name):
    for Q in _SPLIT_OPERANDS[name]():
        for mode in ("pre", "post"):
            got, ref = split(Q, mode), split_in_model_space(Q, mode)
            assert got.name == ref.name
            assert got.space.names == ref.space.names
            assert got.space.swap == ref.space.swap
            assert got.relations == ref.relations, (Q.show_relations(), mode)


def test_split_partner_is_split_lie():
    # Lie is the unit of the black product, so split(Lie, mode) is the
    # partner itself with the parts named b_succ, b_prec, b_perp.
    for mode in ("pre", "post"):
        partner, lie = split_partner(mode), split(catalog("Lie"), mode)
        assert lie.space.names == tuple(f"b_{x}" for x in partner.space.names)
        assert lie.space.swap == partner.space.swap
        assert lie.relations == partner.relations


def test_split_pre_lie_is_dual_perm():
    pre = split(catalog("Lie"), "pre")
    preLie = catalog("preLie")
    G = signed_perm(2, {0: (0, 1), 1: (1, -1)})  # b_succ -> p1', b_prec -> -p2'
    assert transport_relations(pre, preLie, G) == preLie.relations


def test_split_pre_as_is_dual_dias():
    pre = split(catalog("As"), "pre")
    preAs = catalog("preAs")
    G = signed_perm(4, {0: (0, 1), 1: (1, -1), 2: (2, -1), 3: (3, 1)})
    assert transport_relations(pre, preAs, G) == preAs.relations


def test_split_post_lie_matches_catalog():
    post = split(catalog("Lie"), "post")
    assert post.relations == catalog("postLie").relations
    D = dual_operad(post)
    assert (D.dim_gens, D.dim_relations, D.dim_p3) == (3, 20, 7)
