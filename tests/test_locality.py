"""Windowed locality lab: frozen sweep outcomes and structural checks."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadop.core.catalog import catalog, resolve
from quadop.core.operad import change_basis, make_operad
from quadop.core.perms import IDENT, REPS
from quadop.dong import dong_verdict
from quadop.errors import InputError, InternalCheckError
from quadop.koszul import dual_generators
from quadop.linalg import EchelonBasis, SubspaceQ, add_scaled, primitive_row
from quadop.locality import MAX_WINDOW, LocalityInstance, ResidueSpec, build_instance
from quadop.manin import black_product, replicate, split

import helpers
import quadop.core.operad
from helpers import (
    TABLE_ORDERS,
    SummandDecomposition,
    block_index,
    block_points,
    hub_block,
    hub_generators,
    hub_plane,
    ideal_subspace,
    identity_level,
    join_labels,
    level_contains,
    nested_reference,
    pair_bases,
    plane_generators,
    printed_kernel,
    projected,
    random_operad,
    random_swap_commuting,
    reference_sweep,
    residue_function,
    residue_vector,
    sigma_lines,
    window_coordinate,
)


def test_window_size_validation():
    with pytest.raises(InputError):
        LocalityInstance(catalog("Lie"), 0)


# The Zinbiel presentation, for tests that build an operad with nothing
# cached yet (the catalog builds each entry once per process).
_ZINB = ([("z1", {"pair": "z2"}), ("z2", {"pair": "z1"})],
         ["(x1 {z1} x2) {z1} x3 - x1 {z1} (x2 {z1} x3) - x1 {z1} (x3 {z1} x2)"])


def test_window_cap_is_checked_before_building(monkeypatch):
    # The first elimination of R's rows follows the checks; if the cap were
    # checked later, this would fail with the AssertionError instead.
    def never(ambient_dim):
        raise AssertionError("R eliminated for an over-cap window")

    P = make_operad("Zinb", *_ZINB)
    monkeypatch.setattr(quadop.core.operad, "EchelonBasis", never)
    assert MAX_WINDOW >= 8
    with pytest.raises(InputError, match=f"exceeds the cap of {MAX_WINDOW}"):
        LocalityInstance(P, MAX_WINDOW + 1)
    with pytest.raises(InputError, match="exceeds the cap"):
        build_instance(P, 10**6)


def test_identity_block_is_eliminated_once_per_operad(monkeypatch):
    """Every window of a freshly built operad, its sweeps and the windows of
    a renamed copy made afterwards share one identity-block analysis: two
    eliminations of R's rows in Q^(3 d^2) in all.  dong_verdict makes none."""
    P = make_operad("Zinb", *_ZINB)
    free3 = P.dim_free3
    made = Counter()
    init = EchelonBasis.__init__

    def counting(eb, ambient_dim):
        made[ambient_dim] += 1
        init(eb, ambient_dim)

    monkeypatch.setattr(EchelonBasis, "__init__", counting)
    dong_verdict(P)
    assert made[free3] == 0
    sweeps = [LocalityInstance(P, K).sweep(Nmax=3) for K in range(3, MAX_WINDOW + 1)]
    for K in (1, 2):
        LocalityInstance(P, K)
    assert made[free3] == 2
    assert all(sweep == sweeps[0] for sweep in sweeps)
    assert LocalityInstance(P.renamed("Zinb'"), 3).sweep(Nmax=3) == sweeps[0]
    assert made[free3] == 2


def test_lie_bracket_is_local_of_order_two():
    lab = LocalityInstance(catalog("Lie"), 4)
    assert lab.sweep() == {(0, 0): 2}


def test_com_product_is_local_of_order_one():
    lab = LocalityInstance(catalog("Com"), 2)
    assert lab.sweep() == {(0, 0): 1}


def test_novikov_sweep():
    lab = build_instance(catalog("Nov"))
    assert lab.sweep() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_prelie_sweep_is_one_sided():
    lab = LocalityInstance(catalog("preLie"), 5)
    assert lab.sweep() == {(0, 0): None, (0, 1): 2, (1, 0): None, (1, 1): 2}


def test_zinbiel_sweep_is_one_sided():
    lab = build_instance(catalog("Zinb"))
    assert lab.sweep() == {(0, 0): 1, (0, 1): None, (1, 0): 1, (1, 1): None}


def test_anchor_translation_consistency():
    """The verdict at order N must not depend on where the difference is
    expanded; the ideal only ever moves indices along lines of constant
    total index."""
    lab = LocalityInstance(catalog("Lie"), 4)
    for n, m in ((0, 0), (1, 0), (0, 1), (-1, 1), (1, -1)):
        assert lab.min_locality_order(0, 0, 0, n=n, m=m) == 2


def test_membership_monotone_in_order():
    lab = LocalityInstance(catalog("Lie"), 6)
    outcomes = [lab.contains_residue(ResidueSpec(0, 0, 0, N)) for N in range(5)]
    assert outcomes == [False, False, True, True, True]


def test_order_recursion():
    """residue(N+1) at (n, m) equals residue(N) at (n, m) minus residue(N)
    at (n-1, m+1), which is what makes membership monotone in N."""
    lab = LocalityInstance(catalog("preLie"), 5)
    for N in (0, 1, 2):
        lhs = residue_vector(lab, ResidueSpec(0, 1, 1, N + 1, n=1, m=-1))
        a = residue_vector(lab, ResidueSpec(0, 1, 1, N, n=1, m=-1))
        b = residue_vector(lab, ResidueSpec(0, 1, 1, N, n=0, m=0))
        diff = dict(a)
        for idx, c in b.items():
            v = diff.get(idx, Fraction(0)) - c
            if v:
                diff[idx] = v
            else:
                diff.pop(idx, None)
        assert lhs == diff


def test_residue_is_homogeneous_in_total_index():
    lab = LocalityInstance(catalog("Nov"), 3)
    spec = ResidueSpec(1, 1, 0, 2, n=0, m=-1)
    W = 2 * lab.K + 1
    total = spec.k + spec.n + spec.m
    vec = residue_vector(lab, spec)
    assert vec
    for idx in vec:
        rem = idx % W**3
        n_a = rem // W**2 - lab.K
        n_b = rem % W**2 // W - lab.K
        n_c = rem % W - lab.K
        assert n_a + n_b + n_c == total


def test_blockwise_membership_matches_dense_ideal():
    lab = LocalityInstance(catalog("Lie"), 2)
    ideal = ideal_subspace(lab)
    assert ideal.dim == 213
    for N in range(3):
        for n, m in ((0, 0), (1, -1)):
            spec = ResidueSpec(0, 0, 0, N, n=n, m=m)
            if spec.required_radius() > lab.K:
                continue
            dense = ideal.contains(residue_vector(lab, spec))
            assert lab.contains_residue(spec) == dense


def test_window_too_small_reports_needed_radius():
    lab = LocalityInstance(catalog("Lie"), 2)
    with pytest.raises(InputError, match="requires K >= 5"):
        lab.contains_residue(ResidueSpec(0, 0, 0, 5))


@pytest.mark.parametrize(
    "spec",
    [
        ResidueSpec(0, -1, 0, 1),
        ResidueSpec(0, 0, 0, -1),
        ResidueSpec(2, 0, 0, 1),
        ResidueSpec(0, 0, -1, 1),
    ],
)
def test_bad_spec_parameters(spec):
    lab = LocalityInstance(catalog("preLie"), 4)
    with pytest.raises(InputError):
        lab.contains_residue(spec)


def test_negative_nmax_is_an_input_error():
    lab = LocalityInstance(catalog("Com"), 2)
    with pytest.raises(InputError, match="Nmax must be >= 0"):
        lab.min_locality_order(0, 0, 0, Nmax=-1)
    with pytest.raises(InputError, match="Nmax must be >= 0"):
        lab.sweep(Nmax=-1)


@pytest.mark.parametrize("name", sorted(TABLE_ORDERS))
def test_whole_table_sweep(name):
    P = resolve(name)
    outcomes = build_instance(P, 6).sweep(k=0, Nmax=4, n=0, m=0)
    d = P.dim_gens
    got = "".join(
        "-" if outcomes[i, j] is None else str(outcomes[i, j])
        for i in range(d)
        for j in range(d)
    )
    assert got == TABLE_ORDERS[name]


@pytest.mark.parametrize("name", sorted(TABLE_ORDERS))
def test_hub_blocks_span_the_neighbour_differences(name):
    """Each reference T-block, as eliminated from the hub generators, spans
    exactly the neighbour differences of total index T."""
    P = resolve(name)
    for K in (2, 3):
        lab = LocalityInstance(P, K)
        for T in range(-3 * K, 3 * K + 1):
            index, basis = hub_block(lab, T)
            point = {h: p for p, h in index.items()}
            rows = []
            for row in basis.rows():
                flat = {}
                for key, c in row.items():
                    r, h = divmod(key, len(index))
                    flat[window_coordinate(lab, r, point[h])] = c
                rows.append(flat)
            ref = ideal_subspace(lab, T)
            assert SubspaceQ.from_vectors(ref.ambient_dim, rows) == ref, (K, T)


@pytest.mark.parametrize("name", sorted(TABLE_ORDERS))
def test_hub_rows_of_one_sigma_have_distinct_pivots(name):
    """Within one sigma the reference hub rows are already in echelon form."""
    P = resolve(name)
    for K in (2, 3):
        lab = LocalityInstance(P, K)
        pair_rows = [V.rows() for V in pair_bases(P)]
        for blk in range(len(pair_rows)):
            only = [rows if b == blk else [] for b, rows in enumerate(pair_rows)]
            for T in range(-3 * K, 3 * K + 1):
                index = block_index(K, T)
                pivots = [min(row) for row in hub_generators(lab, T, index, only)]
                assert len(set(pivots)) == len(pivots), (K, blk, T)


# -- level-wise membership and the summand reference ----------------------


def _functions(rng, points):
    """Integer functions on a T-block's points: single points, sparse random
    ones, and sums of sigma-line differences (zero sums on the lines of the
    chosen sigmas), some of them with one point disturbed."""
    out = [{p: 1} for p in rng.sample(points, min(2, len(points)))]
    out.append({p: rng.randint(-3, 3) for p in rng.sample(points, min(3, len(points)))})
    for chosen in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        f = {}
        for s in chosen:
            outer = REPS[s][2] - 1
            for _ in range(3):
                p = rng.choice(points)
                line = [q for q in points if q[outer] == p[outer]]
                q = rng.choice(line)
                c = rng.randint(-2, 2)
                f[p] = f.get(p, 0) + c
                f[q] = f.get(q, 0) - c
        out.append(f)
        if rng.random() < 0.3:
            g = dict(f)
            p = rng.choice(points)
            g[p] = g.get(p, 0) + 1
            out.append(g)
    return out


def _v1_functions(rng, points):
    """_functions, and second differences that move index from n_b to n_c:
    zero sum and zero moment in n_c, but nonzero sums over each value of
    n_c, the functions that tell level 2 from level 3."""
    out = _functions(rng, points)
    inside = set(points)
    for _ in range(2):
        na, nb, nc = rng.choice(points)
        steps = [(na, nb - t, nc + t) for t in range(3)]
        if all(p in inside for p in steps):
            out.append(dict(zip(steps, (1, -2, 1))))
    return out


def _flat(lab, base, f):
    vec = {}
    for point, c in f.items():
        add_scaled(vec, ((window_coordinate(lab, r, point), c * x) for r, x in base.items()))
    return vec


def _bases(P, rng):
    """P(3) rows to tensor with: the image of every monomial of every sigma,
    so rows of all three pair spaces, and two random rows."""
    d = P.dim_gens
    bases = [projected(P, sigma, i, j) for sigma in REPS for i in range(d) for j in range(d)]
    for _ in range(2):
        bases.append({r: rng.randint(-2, 2) for r in range(P.dim_p3)})
    return [b for b in bases if any(b.values())]


def _identity_block_rows(P, rng):
    """Rows on the identity block, one of each: every unit row (the rows
    residues use), the rows of Z_0, Z_1 and Z_2 as nested_reference
    computes them with a random integer combination of each, and two
    random integer rows."""
    n = P.dim_gens ** 2
    rows = [{c: 1} for c in range(n)]
    for Z in nested_reference(P):
        rows += Z.rows()
        combo = {}
        for row in Z.rows():
            add_scaled(combo, row, rng.randint(-2, 2))
        rows.append(combo)
    rows += [{c: x for c in range(n) if (x := rng.randint(-2, 2))} for _ in range(2)]
    return list({tuple(sorted(u.items())): u for u in rows}.values())


def _v1_bases(lab, ref, rng):
    """Rows of V_1 = V_id as (base, production level, reference checks):
    the P(3) images of _identity_block_rows, with the level of each row
    asserted equal to the reference's level of its image."""
    out = []
    for u in _identity_block_rows(lab.P, rng):
        base = primitive_row(lab.P.project(u))
        level = identity_level(lab.P, u)
        assert level == ref.level(base), (u, base, level)
        out.append((base, level, ref.checks(base)))
    return out


def _decide_v1(lab, ref, case, f, ideal):
    """The level test of base (x) f (helpers.level_contains) at the
    production level of a case of _v1_bases, asserted equal to the
    membership that the dense ideal and the summand-wise reference
    decide."""
    base, level, checks = case
    got = level_contains(level, f)
    dense = ideal.contains(_flat(lab, base, f))
    assert got == dense == ref.contains(checks, f), (level, base, f)
    return got


@pytest.mark.parametrize("name", sorted(TABLE_ORDERS))
def test_summand_membership_matches_the_dense_ideal(name):
    """In every T-block (corners included) at K = 2 and 3, base (x) f is
    decided summand by summand by the reference exactly as membership in
    the neighbour-difference ideal decides it, for rows of every pair
    space; the level test at the production level decides the same for
    every row of V_1 tried; and contains_residue decides the same for every
    residue of several (k, N, anchor) specs."""
    P = resolve(name)
    rng = random.Random(name)
    d = P.dim_gens
    outcomes, v1_outcomes = set(), set()
    for K in (2, 3):
        lab = LocalityInstance(P, K)
        ref = SummandDecomposition(lab)
        bases, v1_bases = _bases(P, rng), _v1_bases(lab, ref, rng)
        ideals = {T: ideal_subspace(lab, T) for T in range(-3 * K, 3 * K + 1)}
        for T, ideal in ideals.items():
            for f in _v1_functions(rng, block_points(K, T)):
                for base in rng.sample(bases, min(4, len(bases))):
                    got = ref.contains(ref.checks(base), f)
                    assert got == ideal.contains(_flat(lab, base, f)), (K, T, base, f)
                    outcomes.add(got)
                for case in v1_bases:
                    v1_outcomes.add(_decide_v1(lab, ref, case, f, ideal))
        for k, N, n, m in itertools.product((0, 1), range(4), (-1, 0, 1), (-1, 0, 1)):
            specs = [ResidueSpec(i, k, j, N, n, m) for i in range(d) for j in range(d)]
            if specs[0].required_radius() > K:
                continue
            ideal = ideals[k + n + m]
            for spec in specs:
                got = lab.contains_residue(spec)
                assert got == ideal.contains(residue_vector(lab, spec)), (K, spec)
                outcomes.add(got)
    assert outcomes == v1_outcomes == {True, False}


def _codimension(ref, K, T):
    """Codimension of the ideal's T-block from the closed forms, summed over
    the reference summands: npts for a line of type (1; empty), the number
    of sigma-lines for (1; sigma), 1 for two or more sigmas, and 3 for a
    plane (2 when the block is one point)."""
    npts = len(block_points(K, T))
    nlines = sum(1 for gamma in range(-K, K + 1) if abs(T - gamma) <= 2 * K)
    lines = sum(npts if not S else nlines if len(S) == 1 else 1 for S, _ in ref.lines)
    return lines + len(ref.planes) * (2 if npts == 1 else 3)


@pytest.mark.parametrize("name", sorted(TABLE_ORDERS))
def test_summand_codimension_matches_the_reference_block(name):
    P = resolve(name)
    for K in (2, 3):
        lab = LocalityInstance(P, K)
        ref = SummandDecomposition(lab)
        for T in range(-3 * K, 3 * K + 1):
            index, basis = hub_block(lab, T)
            assert _codimension(ref, K, T) == P.dim_p3 * len(index) - basis.rank, (K, T)


def _blocks(max_window):
    """(K, T, npts, sigma-lines) for every window radius K up to
    max_window and every total index T of it."""
    for K in range(1, max_window + 1):
        for T in range(-3 * K, 3 * K + 1):
            index = block_index(K, T)
            yield K, T, len(index), sigma_lines(K, T, index)


def test_joins_of_two_or_more_sigmas_are_one_part():
    """The closed-form line test for |S| >= 2 is sum g = 0: the union-find
    join of the sigma-line partitions is one part in every block up to the
    window cap."""
    for K, T, npts, lines in _blocks(MAX_WINDOW):
        for S in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
            assert len(set(join_labels(npts, lines, S))) == 1, (K, T, S)


def test_plane_block_is_cut_out_by_three_functionals():
    """The closed-form plane test: sum g over e1, sum g over e2 and
    g(p) (gamma_1(p) on e1, -gamma_2(p) on e2) vanish on every hub
    generator of the plane block, and the eliminated block has codimension
    3 (2 when the block is one point), so these functionals span its
    annihilator, in every block up to the window cap."""
    first, second = (sigma[2] - 1 for sigma in REPS[:2])
    for K, T, npts, lines in _blocks(MAX_WINDOW):
        points = block_points(K, T)
        functionals = [
            [1] * npts + [0] * npts,
            [0] * npts + [1] * npts,
            [p[first] for p in points] + [-p[second] for p in points],
        ]
        for row in plane_generators(lines, npts):
            for phi in functionals:
                assert sum(c * phi[col] for col, c in row.items()) == 0, (K, T)
        codim = 2 * npts - hub_plane(lines, npts).rank
        assert codim == (2 if npts == 1 else 3), (K, T)


def _types(ref):
    return Counter(S for S, _ in ref.lines)


def test_codimension_grows_by_six_kernel_dims_per_unit_of_window():
    """At T = 0 the reference block's codimension is
    #(1; pair) + #(1; ABC) + 3 #planes + (2K+1) #(1; sigma), as the closed
    forms give when there is no (1; empty) summand, so with the observed
    multiplicity identity below it grows by 6 * kernel_dim from K = 2 to 3
    (the multiplicity is tested on the NotDong entries, not derived)."""
    for name in ("Zinb", "preLie", "GD", "postLie", "preAs"):
        P = resolve(name)
        codim = {}
        for K in (2, 3):
            lab = LocalityInstance(P, K)
            ref = SummandDecomposition(lab)
            index, basis = hub_block(lab, 0)
            codim[K] = P.dim_p3 * len(index) - basis.rank
            types = _types(ref)
            predicted = (sum(c for S, c in types.items() if len(S) >= 2)
                         + 3 * len(ref.planes)
                         + (2 * K + 1) * sum(c for S, c in types.items() if len(S) == 1))
            assert codim[K] == predicted, (name, K)
        assert codim[3] - codim[2] == 6 * dong_verdict(P).kernel_dim, name


def _criterion_9_products():
    """The 45 products of acceptance criterion 9."""
    core = ["Com", "Lie", "As", "Nov", "Pois"]
    products = [black_product(catalog(a), catalog(b))
                for a, b in itertools.combinations_with_replacement(core, 2)]
    products += [replicate(kind, catalog(name)) for name in core for kind in ("di", "tri")]
    products += [split(catalog(name), mode)
                 for name in ("Alt", "As", "Com", "GD", "Lie", "NP", "Nov", "Perm", "Pois", "Zinb")
                 for mode in ("pre", "post")]
    return products


def _operads():
    """The 19 table entries, the 45 criterion-9 products and 40 seeded
    random operads."""
    rng = random.Random(11)
    operads = [resolve(name) for name in sorted(TABLE_ORDERS)] + _criterion_9_products()
    return operads + [random_operad(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(40)]


def test_sigma_only_summands_count_the_dong_kernel():
    """Tested observation: each pair space has exactly kernel_dim summands
    of its own type (1; sigma), and no summand lies outside all three.  The
    decomposition reads only P's projection, never dong.py."""
    for P in _operads():
        types = _types(SummandDecomposition(LocalityInstance(P, 1)))
        kernel = dong_verdict(P).kernel_dim
        assert [types[(s,)] for s in range(3)] == [kernel] * 3, (P.name, types, kernel)
        assert types[()] == 0, P.name


def _identity_levels(lab):
    """The level of the image of every identity monomial (x1 {i} x2) {j} x3,
    keyed by (i, j), as the lab's table holds it."""
    d, flat = lab.P.dim_gens, lab.P.space.flat
    return {(i, j): lab.levels[flat(IDENT, j, i)] for i in range(d) for j in range(d)}


def test_level_of_any_identity_block_row_matches_the_summand_reference():
    """The level read off R's rows (helpers.identity_level over
    P.identity_block()), for any row u on the identity block
    (_identity_block_rows), is the summand reference's level of u's
    image in P(3), on the table entries, the criterion-9 products and
    seeded random operads, and every level occurs.  The subspaces equal
    nested_reference's Zassenhaus intersections."""
    rng = random.Random(24)
    seen = set()
    for P in _operads():
        assert P.identity_block() == nested_reference(P), P.name
        lab = LocalityInstance(P, 1)
        ref = SummandDecomposition(lab)
        for u in _identity_block_rows(P, rng):
            level = identity_level(P, u)
            assert level == ref.level(P.project(u)), (P.name, u, level)
            seen.add(level)
    assert seen == {0, 1, 2, 3}


def test_levels_one_to_three_occur_on_the_table():
    """The table's residue bases reach every nonzero level, and
    black(As, As) reaches level 0 (an identity monomial that vanishes in
    P(3))."""
    levels = set()
    for name in sorted(TABLE_ORDERS):
        levels.update(_identity_levels(LocalityInstance(resolve(name), 1)).values())
    assert levels == {1, 2, 3}
    zero = _identity_levels(LocalityInstance(black_product(catalog("As"), catalog("As")), 1))
    assert 0 in zero.values()


# The anchors (n, m) of the closed-form grid.
ANCHORS = ((0, 0), (1, -1), (-1, 1), (2, 0), (0, -2))


def test_centred_sweep_order_is_the_level():
    """The residue of (k, N) at the anchor (n, m) has (N + 1)(k + 1)
    distinct points, and its sum over n_c = m + s is
    (-1)**s C(N, s) (1 - 1)**k.  At k = 0 and anchor (0, 0) its sum
    vanishes iff N >= 1, its sum and its moment in n_c both iff N >= 2,
    and its sum over each value of n_c never.  So the centred order found
    is the level, and level 3 finds none.  Over the whole grid (K 1-8,
    k 0-2, N 0-5, five anchors, every pair) of the table entries and
    seeded random operads, contains_residue decides as the level tests
    decide on the expanded residue wherever its points fit in the window,
    and raises wherever they do not."""
    for k, N, (n, m) in itertools.product(range(3), range(9), ANCHORS):
        f = residue_function(ResidueSpec(0, k, 0, N, n, m))
        assert len(f) == (N + 1) * (k + 1) and all(f.values()), (k, N, n, m)
        sums = Counter()
        for (_, _, nc), c in f.items():
            sums[nc] += c
        assert sums == {m + s: (-1) ** s * comb(N, s) * 0 ** k for s in range(N + 1)}
    for N in range(9):
        f = residue_function(ResidueSpec(0, 0, 0, N))
        total = sum(f.values())
        moment = sum(c * nc for (_, _, nc), c in f.items())
        assert (total == 0) == (N >= 1)
        assert (total == moment == 0) == (N >= 2)
    for P in _operads():
        lab = LocalityInstance(P, 3)
        ref = SummandDecomposition(lab)
        expected = {}
        for (i, j), level in _identity_levels(lab).items():
            assert level == ref.level(projected(P, IDENT, j, i)), (P.name, i, j)
            expected[i, j] = None if level == 3 else level
        assert lab.sweep(k=0, Nmax=3) == expected, P.name
    rng = random.Random(23)
    grid = [resolve(name) for name in sorted(TABLE_ORDERS)]
    grid += [random_operad(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(12)]
    decided = set()
    for P in grid:
        levels = _identity_levels(LocalityInstance(P, 1))
        for K in range(1, 9):
            lab = LocalityInstance(P, K)
            for ((i, j), level), k, N, (n, m) in itertools.product(
                    levels.items(), range(3), range(6), ANCHORS):
                spec = ResidueSpec(i, k, j, N, n, m)
                f = residue_function(spec)
                if max(abs(x) for point in f for x in point) > K:
                    with pytest.raises(InputError, match="does not fit in window"):
                        lab.contains_residue(spec)
                    continue
                got = lab.contains_residue(spec)
                assert got == level_contains(level, f), (P.name, K, spec, level)
                decided.add((level, got))
    assert decided == {(0, True)} | {(level, b) for level in (1, 2, 3) for b in (True, False)}


def test_level_three_is_the_dong_support():
    """Pair (i, j) has level 3 exactly when some vector of the Dong block
    kernel, as dong_verdict prints it, is nonzero at the column of the
    identity monomial (x1 {i} x2) {j} x3: that kernel is the dual of
    P(3)/(V_2 + V_3) (locality module docstring).  The levels come from
    LocalityInstance and the kernel from dong.py's printed witnesses, so
    either one can fail the test."""
    mixed = 0
    for P in _operads():
        report = dong_verdict(P)
        support = {c for w in printed_kernel(report, dual_generators(P.space)).rows() for c in w}
        levels = _identity_levels(LocalityInstance(P, 1))
        level_3 = {pair for pair, level in levels.items() if level == 3}
        assert level_3 == {(i, j) for i, j in levels
                           if P.space.flat(REPS[0], j, i) in support}, P.name
        assert bool(level_3) == (report.verdict == "NotDong"), P.name
        mixed += 0 < len(level_3) < len(levels)
    assert mixed


def _check_summands(ref):
    """Each summand meets each pair space as its type says, checked by plain
    membership: a line of type S lies in V_sigma exactly for sigma in S; a
    plane's lines e1, e2, e1 - e2 lie in V_1, V_2, V_3 and in no other."""
    V = ref.pair_bases
    for S, u in ref.lines:
        assert [V[s].contains(u) for s in range(3)] == [s in S for s in range(3)], S
    for e1, e2 in ref.planes:
        diff = add_scaled(dict(e1), e2, -1)
        for s, line in enumerate((e1, e2, diff)):
            assert [V[t].contains(line) for t in range(3)] == [t == s for t in range(3)]


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_random_operads_decompose_and_sweep_as_the_reference(seed, d, nseeds):
    P = random_operad(random.Random(seed), d, nseeds)
    lab = LocalityInstance(P, 2)
    ref = SummandDecomposition(lab)
    _check_summands(ref)
    for (i, j), level in _identity_levels(lab).items():
        assert level == ref.level(projected(P, IDENT, j, i)), (i, j)
    for k, n, m in ((0, 0, 0), (1, 0, 0), (0, 1, -1)):
        assert lab.sweep(k=k, Nmax=2, n=n, m=m) == reference_sweep(lab, k=k, Nmax=2, n=n, m=m)


# The table entries whose P(3) has a plane summand; random_operad almost never
# yields one.
PLANE_ENTRIES = ("Lie", "Pois", "GD", "Alt", "Leib", "preLie", "postLie", "dual(NP)")


@pytest.mark.parametrize("name", PLANE_ENTRIES)
def test_plane_entries_under_basis_changes_decide_as_the_reference(name):
    """Random changes of generators that commute with the swap (the
    construction of acceptance criterion 10; two at K = 2, one at K = 3)
    keep the planes, and in every T-block the summand-wise reference and the
    level test at the production level match the dense ideal, and sweeps
    match the hub blocks, with residues that meet a plane, and level-2 rows,
    found both inside and outside the ideal."""
    rng = random.Random(name)
    P = resolve(name)
    plane_outcomes, level_2_outcomes = set(), set()
    for K, changes in ((2, 2), (3, 1)):
        for _ in range(changes):
            lab = LocalityInstance(change_basis(P, random_swap_commuting(rng, P.space)), K)
            ref = SummandDecomposition(lab)
            assert ref.planes, name
            _check_summands(ref)
            bases, v1_bases = _bases(lab.P, rng), _v1_bases(lab, ref, rng)
            for T in range(-3 * K, 3 * K + 1):
                ideal = ideal_subspace(lab, T)
                for f in _v1_functions(rng, block_points(K, T)):
                    for base in rng.sample(bases, min(4, len(bases))):
                        checks = ref.checks(base)
                        got = ref.contains(checks, f)
                        assert got == ideal.contains(_flat(lab, base, f)), (K, T, base, f)
                        if checks[1]:
                            plane_outcomes.add(got)
                    for case in v1_bases:
                        got = _decide_v1(lab, ref, case, f, ideal)
                        if case[1] == 2:
                            level_2_outcomes.add(got)
            for k, n, m in ((0, 0, 0), (1, 0, 0), (0, 1, -1)):
                assert (lab.sweep(k=k, Nmax=2, n=n, m=m)
                        == reference_sweep(lab, k=k, Nmax=2, n=n, m=m))
    assert plane_outcomes == level_2_outcomes == {True, False}, name


def test_decomposition_self_check_can_fail(monkeypatch):
    """A plane whose third line is not the one V_3 meets fails the
    reference decomposition's check."""
    monkeypatch.setattr(helpers, "PLANE_LINES", ((1, 0), (0, 1), (1, 1)))
    with pytest.raises(InternalCheckError, match="do not span pair space 3"):
        SummandDecomposition(LocalityInstance(catalog("Lie"), 1))
