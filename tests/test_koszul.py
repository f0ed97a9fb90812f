"""Koszul duals: involutivity, the pairing, and known dual pairs."""

import random

import pytest
from helpers import fresh_perp, pairing_equivariant, random_involutive_space, random_operad

from quadop import koszul
from quadop.core.catalog import catalog, catalog_names
from quadop.core.free3 import GeneratorSpace, s3_closure
from quadop.core.operad import QuadOperad, make_operad
from quadop.core.parser import parse_relation
from quadop.core.perms import S3, sign
from quadop.dong import dong_verdict
from quadop.errors import InputError
from quadop.koszul import dual_generators, dual_operad, twisted_columns, verify_jacobi_duality
from quadop.linalg import SubspaceQ


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_dual_dimension_complement(name):
    P = catalog(name)
    D = dual_operad(P)
    assert P.dim_relations + D.dim_relations == P.dim_free3
    # priming toggles, so duals of dual-built entries drop their primes
    assert D.space.names == tuple(
        n[:-1] if n.endswith("'") else n + "'" for n in P.space.names
    )


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_double_dual_is_identity(name):
    P = catalog(name)
    D = dual_operad(P)
    DD = dual_operad(D)
    assert DD.relations == P.relations
    assert fresh_perp(D.relations) == P.relations
    assert DD.space.names == P.space.names
    assert DD.space.swap == P.space.swap


def test_double_dual_on_random_operads():
    rng = random.Random(20)
    for _ in range(8):
        P = random_operad(rng, rng.randint(1, 3))
        D = dual_operad(P)
        DD = dual_operad(D)
        assert DD.relations == P.relations
        assert fresh_perp(D.relations) == P.relations


def test_double_dual_reads_the_relations_back(monkeypatch):
    # The dual's relations remember the subspace they are the complement of,
    # so the double dual holds P's relations themselves; the S3-stability
    # guard still runs on both duals.
    import quadop.core.operad

    guard = quadop.core.operad.is_s3_stable
    calls = []
    monkeypatch.setattr(quadop.core.operad, "is_s3_stable",
                        lambda space, sub: calls.append(sub) or guard(space, sub))
    rng = random.Random(21)
    operads = [catalog(name) for name in ("Lie", "As", "NP", "Zinb")]
    operads += [random_operad(rng, rng.randint(1, 3)) for _ in range(4)]
    for P in operads:
        calls.clear()
        DD = dual_operad(dual_operad(P))
        assert DD.relations is P.relations
        assert len(calls) == 2 and calls[1] is P.relations


@pytest.mark.parametrize("name", ["Lie", "As", "NP", "postLie"])
def test_pairing_sign_equivariance(name):
    space = catalog(name).space
    for p in S3:
        assert pairing_equivariant(space, p, sign(p))


def test_twisted_dual_matches_a_dense_reference():
    # Random rational swaps, most of them neither monomial nor symmetric,
    # unlike every catalog entry.  The dual's swap is -S^T; a space whose
    # swap is -S is refused as a dual unless S is symmetric.  P is free, so
    # its duals have every weight-3 relation and only the degree-2 part of
    # verify_jacobi_duality can fail.
    rng = random.Random(40)
    asymmetric = 0
    for _ in range(40):
        d = rng.randint(1, 4)
        space = random_involutive_space(rng, d)
        S = space.swap
        minus_st = tuple(tuple(-S[j][i] for j in range(d)) for i in range(d))
        D = dual_generators(space)
        assert D.swap == minus_st
        assert twisted_columns(space) == D.swap_columns

        n = space.free3_dim
        P = QuadOperad("P", space, SubspaceQ.from_vectors(n, ()))
        everything = SubspaceQ.from_vectors(n, [{c: 1} for c in range(n)])
        assert verify_jacobi_duality(P)
        assert verify_jacobi_duality(P, QuadOperad("D", D, everything))
        untwisted = GeneratorSpace(D.names, tuple(tuple(-x for x in row) for row in D.swap))
        assert not verify_jacobi_duality(P, QuadOperad("U", untwisted, everything))

        negated = GeneratorSpace(D.names, tuple(tuple(-x for x in row) for row in S))
        wrong = QuadOperad("W", negated, SubspaceQ.from_vectors(n, ()))
        if negated.swap == minus_st:
            assert dong_verdict(P, wrong) == dong_verdict(P)
        else:
            asymmetric += 1
            with pytest.raises(InputError, match="not a Koszul dual of P"):
                dong_verdict(P, wrong)
        assert verify_jacobi_duality(P, QuadOperad("W", negated, everything)) == (
            negated.swap == minus_st)
    assert asymmetric >= 20


def test_jacobi_duality_passes_on_catalog():
    for name in catalog_names():
        assert verify_jacobi_duality(catalog(name)), name


def test_jacobi_duality_fails_on_mismatched_pair():
    # Poisson without the compatibility between product and bracket, checked
    # against the dual of the full Poisson operad.
    broken = make_operad(
        "Pois-no-compat",
        [("p", "sym"), ("b", "antisym")],
        [
            "(x1 {p} x2) {p} x3 - x1 {p} (x2 {p} x3)",
            "(x1 {b} x2) {b} x3 - (x3 {b} x2) {b} x1 - (x1 {b} x3) {b} x2",
        ],
    )
    assert not verify_jacobi_duality(broken, dual=dual_operad(catalog("Pois")))


def test_jacobi_duality_checks_the_dual_it_builds(monkeypatch):
    # With no dual given, the degree-2 check runs on the dual that
    # dual_generators builds through twisted_columns, so it must not test
    # that dual against twisted_columns itself: a twist that drops the
    # sign has to fail it.
    def transposed(space):
        cols = [[] for _ in range(space.dim)]
        for j, col in enumerate(space.swap_columns):
            for m, x in col:
                cols[m].append((j, x))
        return tuple(map(tuple, cols))

    rng = random.Random(41)
    spaces = [random_involutive_space(rng, d) for d in (1, 2, 3)]
    free = [QuadOperad("P", s, SubspaceQ.from_vectors(s.free3_dim, ())) for s in spaces]
    assert all(verify_jacobi_duality(P) for P in free)
    monkeypatch.setattr(koszul, "twisted_columns", transposed)
    assert not any(verify_jacobi_duality(P) for P in free)


@pytest.mark.parametrize("name, dual_name", [
    ("Zinb", "Lie"),  # another generator count
    ("Com", "Com"),  # the untwisted sign: Com's swap is +1, its dual's must be -1
])
def test_jacobi_duality_fails_without_the_twisted_swap(name, dual_name):
    assert not verify_jacobi_duality(catalog(name), catalog(dual_name))


def test_dual_of_leibniz_is_zinbiel():
    D = dual_operad(catalog("Leib"))
    z1, z2 = D.space.names
    right = (f"x1 {{{z1}}} (x2 {{{z1}}} x3) - (x1 {{{z1}}} x2) {{{z1}}} x3"
             f" - (x2 {{{z1}}} x1) {{{z1}}} x3")
    left = (f"(x1 {{{z2}}} x2) {{{z2}}} x3 - x1 {{{z2}}} (x2 {{{z2}}} x3)"
            f" - x1 {{{z2}}} (x3 {{{z2}}} x2)")
    for ident in (right, left):
        v = parse_relation(D.space, ident)
        assert D.relations.contains(v)
        assert s3_closure(D.space, [v]) == D.relations


def test_dual_of_perm_is_right_symmetric():
    P = catalog("preLie")
    g = P.space.names[1]
    ident = (f"(x1 {{{g}}} x2) {{{g}}} x3 - x1 {{{g}}} (x2 {{{g}}} x3)"
             f" - (x1 {{{g}}} x3) {{{g}}} x2 + x1 {{{g}}} (x3 {{{g}}} x2)")
    v = parse_relation(P.space, ident)
    assert P.relations.contains(v)
    assert s3_closure(P.space, [v]) == P.relations


def test_three_generator_dual_matches_its_presentation():
    """dual(NP) agrees with the presentation by bracket and circle-product
    identities, including the sign-twisted pair symmetry of the circle."""
    D = dual_operad(catalog("NP"))
    textual = make_operad(
        "NP-dual-by-hand",
        [("p'", "antisym"),
         ("c1'", {"swap": {"c2'": "-1"}}),
         ("c2'", {"swap": {"c1'": "-1"}})],
        [
            "(x1 {p'} x2) {p'} x3 + (x2 {p'} x3) {p'} x1 + (x3 {p'} x1) {p'} x2",
            "(x1 {c1'} x2) {c1'} x3 - x1 {c1'} (x2 {c1'} x3)"
            " - (x1 {c1'} x3) {c1'} x2 + x1 {c1'} (x3 {c1'} x2)",
            "x1 {c1'} (x2 {c1'} x3) - x2 {c1'} (x1 {c1'} x3)",
            "x1 {c1'} (x2 {p'} x3) + x2 {c1'} (x3 {p'} x1) + x3 {c1'} (x1 {p'} x2)",
            "(x1 {c1'} x2) {p'} x3 + x1 {p'} (x3 {c1'} x2)"
            " - (x1 {p'} x3) {c1'} x2 - x2 {c1'} (x1 {p'} x3)",
        ],
    )
    assert textual.space.swap == D.space.swap
    assert textual.relations == D.relations


def test_dual_name_and_prime_toggle():
    D = dual_operad(catalog("Zinb"))
    assert D.name == "dual(Zinb)"
    assert dual_operad(D).space.names == catalog("Zinb").space.names


@pytest.mark.parametrize("names, dual_names", [
    (("'",), ("''",)),
    (("'''",), ("''''",)),
    (("a '", "b '"), ("a ''", "b ''")),
    (("a '", "b'"), ("a ''", "b''")),
    (("a'", "b''"), ("a", "b'")),
    (("a''",), ("a'''",)),
    (("a", "b'"), ("a'", "b''")),
])
def test_prime_toggle_leaves_valid_names_and_is_an_involution(names, dual_names):
    # A prime is stripped only where every stripped name is valid, and only
    # when the dual's names could not lose one too: else a'' -> a' -> a.
    P = make_operad("P", [[n, "sym"] for n in names], [])
    D = dual_operad(P)
    assert D.space.names == dual_names
    assert dual_operad(D).space.names == names
