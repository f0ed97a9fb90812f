"""Windowed locality lab: frozen sweep outcomes and structural checks."""

from fractions import Fraction

import pytest

from quadop.core.catalog import catalog, resolve
from quadop.errors import InputError
from quadop.linalg import SubspaceQ
from quadop.locality import MAX_WINDOW, LocalityInstance, ResidueSpec, build_instance

from helpers import (
    TABLE_ORDERS,
    ideal_subspace,
    neighbour_generators,
    residue_vector,
    window_coordinate,
)


def test_window_size_validation():
    with pytest.raises(InputError):
        LocalityInstance(catalog("Lie"), 0)


def test_window_cap_is_checked_before_building(monkeypatch):
    # The pair bases are built first thing after the checks; if the cap were
    # checked later, this would fail with the AssertionError instead.
    def never(self):
        raise AssertionError("pair bases built for an over-cap window")

    monkeypatch.setattr(LocalityInstance, "_build_pair_bases", never)
    assert MAX_WINDOW >= 8
    with pytest.raises(InputError, match=f"exceeds the cap of {MAX_WINDOW}"):
        LocalityInstance(catalog("Lie"), MAX_WINDOW + 1)
    with pytest.raises(InputError, match="exceeds the cap"):
        build_instance(catalog("Lie"), 10**6)


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
    """Each T-block, as eliminated from the hub generators, spans exactly
    the neighbour differences of total index T."""
    P = resolve(name)
    for K in (2, 3):
        lab = LocalityInstance(P, K)
        for T in range(-3 * K, 3 * K + 1):
            index, basis = lab._block(T)
            point = {h: p for p, h in index.items()}
            rows = []
            for row in basis.rows():
                flat = {}
                for key, c in row.items():
                    r, h = divmod(key, len(index))
                    flat[window_coordinate(lab, r, point[h])] = c
                rows.append(flat)
            hub = SubspaceQ.from_vectors(lab.space_dim, rows)
            neighbours = SubspaceQ.from_vectors(lab.space_dim, neighbour_generators(lab, T))
            assert hub == neighbours, (K, T)


@pytest.mark.parametrize("name", sorted(TABLE_ORDERS))
def test_hub_rows_of_one_sigma_have_distinct_pivots(name):
    """Within one sigma the hub rows are already in echelon form."""
    P = resolve(name)
    for K in (2, 3):
        lab = LocalityInstance(P, K)
        pair_bases = lab._pair_bases
        for blk in range(len(pair_bases)):
            lab._pair_bases = [pb if b == blk else [] for b, pb in enumerate(pair_bases)]
            for T in range(-3 * K, 3 * K + 1):
                index = {p: h for h, p in enumerate(lab._points(T))}
                pivots = [min(row) for row in lab._block_generators(T, index)]
                assert len(set(pivots)) == len(pivots), (K, blk, T)
