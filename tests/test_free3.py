"""The weight-3 free space and its S3-action."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadop.core.catalog import _TEXTUAL, catalog, catalog_names
from quadop.core.free3 import GeneratorSpace, act, act_all, is_s3_stable, s3_closure
from quadop.core.parser import parse_relation
from quadop.core.perms import IDENT, REPS, S3, SWAP12, compose
from quadop.errors import InputError
from quadop.koszul import dual_operad
from quadop.linalg import SubspaceQ
from quadop.manin import replicate, white_product
from helpers import (
    MIXING, apply_columns, free3_action, random_involutive_space, reference_is_s3_stable,
)

SYM = GeneratorSpace(("m",), ((Fraction(1),),))
ANTI = GeneratorSpace(("b",), ((Fraction(-1),),))
PAIR = GeneratorSpace(
    ("l", "r"),
    ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
)
# Swaps that are not signed permutation matrices.  RESCALE: (12) e_0 =
# 1/2 e_1 and (12) e_1 = 2 e_0, a monomial swap.  MIXING (tests/helpers.py)
# is not monomial: two terms of a vector can land on one monomial.
RESCALE = GeneratorSpace(
    ("u", "v"),
    ((Fraction(0), Fraction(2)), (Fraction(1, 2), Fraction(0))),
)


def test_dims():
    assert SYM.dim == 1
    assert SYM.free3_dim == 3
    assert PAIR.free3_dim == 12


def test_flat_unflat_roundtrip():
    for space in (SYM, PAIR):
        for idx in range(space.free3_dim):
            sigma, i, j = space.unflat(idx)
            assert sigma in REPS
            assert space.flat(sigma, i, j) == idx


def test_bad_spaces_rejected():
    with pytest.raises(InputError):
        GeneratorSpace(("x",), ((Fraction(2),),))  # not an involution
    with pytest.raises(InputError):
        GeneratorSpace(("x", "x"), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    with pytest.raises(InputError):
        GeneratorSpace(("x",), ((Fraction(1), Fraction(0)),))  # not square


def _dense_is_involution(swap):
    """Reference: S*S == I entry by entry, dense, in Fraction arithmetic."""
    d = len(swap)
    return all(
        sum((Fraction(swap[i][m]) * swap[m][j] for m in range(d)), Fraction(0)) == (i == j)
        for i in range(d)
        for j in range(d)
    )


def _accepted(swap):
    try:
        GeneratorSpace(tuple(f"g{i}" for i in range(len(swap))), swap)
    except InputError as exc:
        assert str(exc) == "swap matrix is not an involution"
        return False
    return True


_small_entry = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
)


@st.composite
def swap_matrices(draw):
    """Random involutions, the same with one entry perturbed, and small
    matrices with many zeros (mostly not involutions)."""
    d = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["involution", "perturbed", "small"]))
    if kind == "small":
        return tuple(
            tuple(Fraction(draw(_small_entry)) for _ in range(d)) for _ in range(d)
        )
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    swap = [list(row) for row in random_involutive_space(rng, d).swap]
    if kind == "perturbed":
        i = draw(st.integers(min_value=0, max_value=d - 1))
        j = draw(st.integers(min_value=0, max_value=d - 1))
        swap[i][j] += draw(_small_entry.filter(bool))
    return tuple(tuple(row) for row in swap)


@given(swap_matrices())
@settings(max_examples=200, deadline=None)
def test_involution_check_matches_dense_product(swap):
    assert _accepted(swap) == _dense_is_involution(swap)


@pytest.mark.parametrize(
    "swap, involution",
    [
        # Off-diagonal terms of S*S cancel exactly.
        (((0, 2), (Fraction(1, 2), 0)), True),
        (((1, 0), (Fraction(1, 2), -1)), True),
        (((Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(-1, 2))), True),
        # Off-diagonal terms cancel but the diagonal is 2 or -1.
        (((1, 1), (1, -1)), False),
        (((0, 1), (-1, 0)), False),
        # Only one off-diagonal term survives.
        (((1, 0), (Fraction(1, 2), 1)), False),
    ],
)
def test_involution_check_with_cancellation(swap, involution):
    swap = tuple(tuple(Fraction(x) for x in row) for row in swap)
    assert _dense_is_involution(swap) == involution
    assert _accepted(swap) == involution


def _random_vec(space, rng, k=4):
    vec = {}
    for idx in rng.sample(range(space.free3_dim), k=min(k, space.free3_dim)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if coeff:
            vec[idx] = coeff
    return vec


def _monomial_involution(rng, d):
    """A swap that moves each generator onto one generator: e_i -> +-e_i,
    or e_i -> a e_j and e_j -> e_i / a for a pair.  Integral when every
    scale a is +-1, so these spaces give int swaps as well as Fraction ones."""
    cols = [None] * d
    free = list(range(d))
    rng.shuffle(free)
    while free:
        i = free.pop()
        if free and rng.random() < 0.6:
            j = free.pop()
            a = Fraction(rng.choice((1, -1, 1, -1, 2, -3)))
            cols[i], cols[j] = {j: a}, {i: 1 / a}
        else:
            cols[i] = {i: rng.choice((1, -1))}
    return GeneratorSpace.from_columns([f"g{i}" for i in range(d)], cols)


# Monomial swaps with a Fraction scale (a pair e_i -> a e_j, e_j -> e_i / a
# with a = 2 or -3) and with integral ones only.
_MONOMIAL = [_monomial_involution(random.Random(seed), d)
             for seed, d in ((3, 2), (5, 3), (8, 4), (1, 3))]


@pytest.mark.parametrize(
    "space",
    [SYM, ANTI, PAIR, RESCALE, MIXING, catalog("diAs").space, catalog("NP").space, *_MONOMIAL],
    ids=["SYM", "ANTI", "PAIR", "RESCALE", "MIXING", "diAs", "NP",
         *(f"monomial{k}" for k in range(len(_MONOMIAL)))],
)
def test_support_action_matches_matrix(space):
    # One act_all call on a list of several vectors, integer ones, an empty
    # one and one with explicit zero entries, against the dense column
    # matrix, and act on each vector alone; integer rows must stay int on
    # an integral swap, through either branch of the loop.
    rng = random.Random(11)
    n = space.free3_dim
    vecs = [_random_vec(space, rng, k) for k in (1, 4, n) for _ in range(3)]
    vecs += [{c: rng.choice((1, -2, 3)) for c in rng.sample(range(n), k=min(5, n))}
             for _ in range(3)]
    vecs += [{}, {0: 0, n - 1: 3, 1: Fraction(0)}]
    for p in S3:
        cols = free3_action(space, p)
        images = act_all(space, p, vecs)
        assert images == [apply_columns(cols, v) for v in vecs]
        assert [act(space, p, v) for v in vecs] == images
        if space.integral_swap:
            for v, image in zip(vecs, images):
                if all(type(x) is int for x in v.values()):
                    assert all(type(x) is int for x in image.values()), (p, v)


def test_action_is_a_group_homomorphism():
    rng = random.Random(7)
    for space in (SYM, ANTI, PAIR, RESCALE, MIXING):
        for _ in range(10):
            v = _random_vec(space, rng)
            for p in S3:
                for q in S3:
                    via_two = act(space, p, act(space, q, v))
                    direct = act(space, compose(p, q), v)
                    assert {k: c for k, c in via_two.items() if c} == {
                        k: c for k, c in direct.items() if c
                    }


def test_identity_acts_trivially():
    rng = random.Random(1)
    v = _random_vec(PAIR, rng)
    assert act(PAIR, IDENT, v) == v


def test_closure_is_stable_and_idempotent():
    rng = random.Random(3)
    vecs = [_random_vec(PAIR, rng) for _ in range(2)]
    closed = s3_closure(PAIR, vecs)
    assert is_s3_stable(PAIR, closed)
    again = s3_closure(PAIR, [dict(r) for r in closed.basis()])
    assert again == closed


def test_instability_detected():
    # A single antisymmetric-generator monomial is not an S3-stable span.
    one = SubspaceQ.from_vectors(ANTI.free3_dim, [{0: Fraction(1)}])
    assert not is_s3_stable(ANTI, one)


def test_monomial_and_integral_swap_facts():
    assert RESCALE.monomial_swap == ((1, Fraction(1, 2)), (-1, 2))
    assert not RESCALE.integral_swap
    diAs = catalog("diAs").space
    assert diAs.monomial_swap is not None and diAs.integral_swap
    assert MIXING.monomial_swap is None and not MIXING.integral_swap
    assert any(not space.integral_swap for space in _MONOMIAL)
    assert any(space.integral_swap for space in _MONOMIAL)
    for space in _MONOMIAL:
        assert space.monomial_swap is not None


def _perturbed(sub, rng, how):
    """sub with one canonical row dropped, or with one entry of one row
    changed (set, cleared or moved off zero)."""
    rows = [dict(r) for r in sub.rows()]
    k = rng.randrange(len(rows))
    if how == "dropped":
        del rows[k]
    else:
        col = rng.randrange(sub.ambient_dim)
        rows[k][col] = rows[k].get(col, 0) + rng.choice((1, -1, 2))
    return SubspaceQ.from_vectors(sub.ambient_dim, rows)


@st.composite
def guard_cases(draw):
    """A space (Fraction or int swap) and a subspace of its F(3): an S3
    closure, the same perturbed, a (12)-closure, which is (12)-stable but
    mostly not (123)-stable, or a plain span of random vectors."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    d = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        space = random_involutive_space(rng, d)
    else:
        space = _monomial_involution(rng, d)
    vecs = [_random_vec(space, rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
    kind = draw(st.sampled_from(["closure", "dropped", "changed", "swap_closure", "span"]))
    if kind == "span":
        return space, SubspaceQ.from_vectors(space.free3_dim, vecs)
    if kind == "swap_closure":
        images = [act(space, SWAP12, v) for v in vecs]
        return space, SubspaceQ.from_vectors(space.free3_dim, vecs + images)
    closed = s3_closure(space, vecs)
    if kind == "closure" or closed.dim == 0:
        return space, closed
    return space, _perturbed(closed, rng, kind)


@given(guard_cases())
@settings(max_examples=300, deadline=None)
def test_guard_matches_the_membership_loop(case):
    space, sub = case
    assert is_s3_stable(space, sub) == reference_is_s3_stable(space, sub)


def test_guard_matches_the_membership_loop_on_the_catalog():
    # The wide benchmark's operands too: most images of a dual's rows are
    # plus or minus the canonical row at their leading column, and those
    # of a white product's rows fall through to the reduction as well.
    rng = random.Random(5)
    ops = [catalog(name) for name in catalog_names()]
    diAs = catalog("diAs")
    for wide in (white_product(diAs, diAs), white_product(replicate("tri", catalog("As")), diAs)):
        ops += [wide, dual_operad(wide)]
    assert [P.space.dim for P in ops[-4:]] == [16, 16, 24, 24]
    for P in ops:
        assert is_s3_stable(P.space, P.relations), P.name
        assert reference_is_s3_stable(P.space, P.relations), P.name
        if P.dim_relations:
            for how in ("dropped", "changed"):
                sub = _perturbed(P.relations, rng, how)
                assert is_s3_stable(P.space, sub) == reference_is_s3_stable(P.space, sub), P.name


def _orbit_span(space, seeds):
    """Reference for s3_closure: the span of every seed's images under all
    six permutations, each read off the dense column matrix of
    free3_action, so it shares neither act nor the worklist."""
    images = [apply_columns(free3_action(space, p), v) for p in S3 for v in seeds]
    return SubspaceQ.from_vectors(space.free3_dim, images)


@pytest.mark.parametrize("name", sorted(_TEXTUAL))
def test_closure_is_the_orbit_span_of_the_catalog_seeds(name):
    space = catalog(name).space
    seeds = [parse_relation(space, text) for text in _TEXTUAL[name][1]]
    assert s3_closure(space, seeds) == _orbit_span(space, seeds)


def test_closure_is_the_orbit_span_on_random_spaces():
    # Rational swaps (a conjugated sign matrix), signed and rescaled
    # monomial swaps, and the fixed RESCALE and MIXING spaces; d 1-4.
    rng = random.Random(29)
    spaces = [RESCALE, MIXING]
    for d in range(1, 5):
        spaces += [random_involutive_space(rng, d) for _ in range(6)]
        spaces += [_monomial_involution(rng, d) for _ in range(6)]
    for space in spaces:
        for _ in range(2):
            seeds = [_random_vec(space, rng, rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3))]
            assert s3_closure(space, seeds) == _orbit_span(space, seeds), space.swap


def test_jacobi_span_has_dimension_one():
    jac = {ANTI.flat(rep, 0, 0): Fraction(1) for rep in REPS}
    closed = s3_closure(ANTI, [jac])
    assert closed.dim == 1


def test_catalog_swaps_keep_integer_rows_integer():
    # An integral swap coefficient is an int, so the S3 closure and the
    # stability guard never turn an integer relation row into Fractions.
    for name in catalog_names():
        P = catalog(name)
        for col in P.space.swap_columns:
            assert all(type(x) is int for _, x in col), name
        for row in P.relations.rows():
            for p in S3:
                assert all(type(v) is int for v in act(P.space, p, row).values()), name


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
@example(0, 1)  # a one-generator swap is +-1, held as an integral Fraction
def test_from_columns_reproduces_the_swap_matrix(seed, d):
    space = random_involutive_space(random.Random(seed), d)
    # Every entry a Fraction, integral ones included, as a dense matrix holds them.
    cols = [{m: Fraction(space.swap[m][j]) for m in range(d) if space.swap[m][j]}
            for j in range(d)]
    rebuilt = GeneratorSpace.from_columns(space.names, cols)
    assert rebuilt.names == space.names
    assert rebuilt.swap == space.swap
    assert rebuilt == space and hash(rebuilt) == hash(space)
    assert [dict(col) for col in rebuilt.swap_columns] == cols
    for col in space.swap_columns + rebuilt.swap_columns:
        assert [m for m, _ in col] == sorted(m for m, _ in col)
        for _, x in col:
            assert type(x) is int or x.denominator != 1
    # Pairs in any order, with a zero among them, give the same space.
    pairs = [sorted(col.items(), reverse=True) + [(0, Fraction(0))] for col in cols]
    assert GeneratorSpace.from_columns(space.names, pairs) == space
    for attr, value in (("names", ()), ("swap_columns", ()), ("swap", ())):
        with pytest.raises(AttributeError):
            setattr(rebuilt, attr, value)


def test_from_columns_refuses_a_column_outside_the_space():
    for cols in ([{0: 1}], [{0: 1}, {1: 1}, {2: 1}], [{0: 1}, {2: 1}], [{0: 1}, {-1: 1}]):
        with pytest.raises(InputError, match="swap matrix must be 2x2"):
            GeneratorSpace.from_columns(("a", "b"), cols)
