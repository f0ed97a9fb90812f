"""Exact subspace arithmetic: canonical forms, membership, perp, intersections."""

import functools
import gc
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadop.linalg
from quadop import catalog
from quadop.core.catalog import catalog_names
from quadop.errors import InternalCheckError
from quadop.linalg import (
    EchelonBasis,
    SubspaceQ,
    _as_int_row,
    _eliminate,
    _strip_content,
    add_scaled,
    invert_matrix,
    kernel_basis,
)
from helpers import (
    contains_subspace,
    fresh_perp,
    reference_primitive,
    reference_residual,
    span_sum,
)


def _span(ambient, *vecs):
    return SubspaceQ.from_vectors(ambient, [dict(enumerate(v)) for v in vecs])


def _dot(u, w):
    return sum(x * w[c] for c, x in u.items() if c in w)


def _dense_rref(rows, n):
    """Reduced row echelon form of a row list by dense Gauss-Jordan on
    Fraction lists, with no use of this package's elimination.  Returns the
    nonzero rows and their pivot columns."""
    mat = [[Fraction(r.get(c, 0)) for c in range(n)] for r in rows]
    pivots = []
    for col in range(n):
        k = len(pivots)
        pivot = next((i for i in range(k, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[k], mat[pivot] = mat[pivot], mat[k]
        lead = mat[k][col]
        mat[k] = [x / lead for x in mat[k]]
        for i in range(len(mat)):
            if i != k and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[k])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


def _dense_kernel(rows, n):
    """Kernel of a row list from its dense RREF: one vector per free column."""
    mat, pivots = _dense_rref(rows, n)
    kern = []
    for free in range(n):
        if free in pivots:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -mat[k][free]
        kern.append(v)
    return kern


@st.composite
def subspace_and_ambient(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    nvecs = draw(st.integers(min_value=0, max_value=n + 2))
    vecs = [
        draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n))
        for _ in range(nvecs)
    ]
    return n, vecs


@st.composite
def sparse_rational_rows(draw, max_dim=12):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    row = st.dictionaries(st.integers(min_value=0, max_value=n - 1), entry, max_size=4)
    return n, draw(st.lists(row, max_size=n + 2))


_mixed_entry = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def sparse_mixed_rows(draw, max_dim=10):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    row = st.dictionaries(st.integers(min_value=0, max_value=n - 1), _mixed_entry, max_size=5)
    return n, draw(st.lists(row, max_size=n + 3)), draw(st.lists(row, min_size=1, max_size=4))


@given(sparse_mixed_rows())
@settings(max_examples=150, deadline=None)
def test_add_files_the_primitive_reduced_residual(data):
    n, rows, probes = data
    eb = EchelonBasis(n)
    for vec in rows + probes:
        before = dict(vec)
        want = reference_residual(eb, vec)
        pivots = {min(r) for r in eb.rows()}
        grew = eb.add(vec)
        assert vec == before
        assert grew == bool(want)
        new = [r for r in eb.rows() if min(r) not in pivots]
        assert new == ([want] if want else [])
        for got in new:
            assert got[min(got)] > 0
            assert math.gcd(*got.values()) == 1
            assert all(type(x) is int for x in got.values())
    for row in eb.rows():
        assert row[min(row)] > 0 and math.gcd(*row.values()) == 1
    dense, pivots = _dense_rref(rows + probes, n)
    canon = SubspaceQ.from_echelon(eb)
    assert canon.pivots == tuple(pivots)
    assert canon.basis() == [{c: x for c, x in enumerate(r) if x} for r in dense]
    for row in canon.rows():
        assert all(type(x) is int for x in row.values())
        assert row[min(row)] > 0 and math.gcd(*row.values()) == 1
    assert canon.rows() == [reference_primitive(b) for b in canon.basis()]


@given(sparse_mixed_rows(), st.lists(_mixed_entry, max_size=6))
@settings(max_examples=200, deadline=None)
@example(data=(3, [{0: 2, 2: Fraction(1, 2)}, {1: 1, 2: 1}], [{}]), coeffs=[3, Fraction(-1, 2)])
def test_canonical_membership_matches_the_echelon_search(data, coeffs):
    # SubspaceQ.contains makes one elimination per pivot column in the
    # support; EchelonBasis.contains searches for the smallest column on
    # every step.  They must agree on every vector, and leave it as it was.
    n, rows, probes = data
    eb = EchelonBasis(n)
    for r in rows:
        eb.add(r)
    canon = SubspaceQ.from_vectors(n, rows)
    inside: dict = {}
    for c, r in zip(coeffs, rows):
        add_scaled(inside, r, c)
    free = [{c: Fraction(1, 3)} for c in range(n) if c not in canon.pivots]
    for vec in probes + [inside, {}] + free[:1]:
        before = dict(vec)
        assert canon.contains(vec) == eb.contains(vec)
        assert vec == before
    assert canon.contains(inside) and canon.contains({})
    assert not any(canon.contains(v) for v in free)


def _leading_column_probes(canon, rng):
    """Integer rows to decide against a canonical subspace: the empty row;
    each canonical row, its negation and twice it; the row and its negation
    with one entry after the pivot changed; and a row leading at each free
    column."""
    n = canon.ambient_dim
    probes = [{}]
    for p, r in zip(canon.pivots, canon.rows()):
        neg = {c: -x for c, x in r.items()}
        probes += [dict(r), neg, {c: 2 * x for c, x in r.items()}]
        for base in ((r, neg) if p + 1 < n else ()):
            changed = dict(base)
            c = rng.randrange(p + 1, n)
            changed[c] = changed.get(c, 0) + rng.choice((1, -1, 2))
            probes.append({c: x for c, x in changed.items() if x})
    for f in range(n):
        if f not in canon.pivots:
            row = {c: rng.randint(-3, 3) for c in range(f + 1, n) if rng.random() < 0.5}
            probes.append({c: x for c, x in row.items() if x} | {f: rng.choice((1, -2, 3))})
    return probes


@given(sparse_mixed_rows(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
@example(data=(2, [{0: 1}], []), seed=0)
@example(data=(3, [{0: 2, 2: 1}, {1: 1, 2: -1}], []), seed=1)
def test_leading_column_pass_matches_the_echelon_search(data, seed):
    # SubspaceQ.contains_rows decides a row at its leading column: a lead
    # off the pivots is outside, plus or minus the canonical row there is
    # inside with no elimination, and any other row is reduced.
    # EchelonBasis.contains searches for the smallest column on every step.
    n, rows, _ = data
    eb = EchelonBasis(n)
    for r in rows:
        eb.add(r)
    canon = SubspaceQ.from_vectors(n, rows)
    probes = _leading_column_probes(canon, random.Random(seed))
    for vec in probes:
        assert canon.contains_rows([dict(vec)]) == eb.contains(vec), vec
    inside = [v for v in probes if eb.contains(v)]
    assert canon.contains_rows([dict(v) for v in inside])
    for out in (v for v in probes if not eb.contains(v)):
        assert not canon.contains_rows([dict(v) for v in inside] + [dict(out)]), out


@st.composite
def wide_sparse_rows(draw, max_dim=24):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    row = st.dictionaries(st.integers(min_value=0, max_value=n - 1), _mixed_entry, max_size=8)
    return n, draw(st.lists(row, max_size=n + 3))


@given(wide_sparse_rows())
@settings(max_examples=100, deadline=None)
@example(data=(3, [{0: 1, 2: 3}, {1: 2, 2: 1}]))
def test_from_echelon_matches_dense_rref(data):
    # Rows with up to 8 entries carry several pivot columns each, so the
    # back-substitution clears them in more than one order.  basis() has
    # the reference's values, as ints on a row whose canonical pivot value
    # is 1 and as Fractions on any other row.
    n, rows = data
    eb = EchelonBasis(n)
    for vec in rows:
        eb.add(vec)
    before = [dict(r) for r in eb.rows()]
    canon = SubspaceQ.from_echelon(eb)
    assert eb.rows() == before
    dense, pivots = _dense_rref(rows, n)
    assert canon.pivots == tuple(pivots)
    assert canon.basis() == [{c: x for c, x in enumerate(r) if x} for r in dense]
    assert canon.rows() == [reference_primitive(b) for b in canon.basis()]
    _assert_canonical(canon)
    # The dense rows, made primitive and stored as they are, with no use of
    # this package's elimination.
    ref = SubspaceQ(n, {p: reference_primitive({c: x for c, x in enumerate(r) if x})
                        for p, r in zip(pivots, dense)})
    assert canon == ref and hash(canon) == hash(ref)
    for p, row, vec in zip(canon.pivots, canon.rows(), canon.basis()):
        assert {type(x) for x in vec.values()} == ({int} if row[p] == 1 else {Fraction})
        assert vec is not row


def test_non_rational_entries_are_rejected():
    with pytest.raises(TypeError, match="not a rational number"):
        EchelonBasis(2).add({0: 0.5})
    with pytest.raises(TypeError, match="not a rational number"):
        EchelonBasis(2).add(["1/2", 1])


def test_canonical_form_is_generating_set_independent():
    a = _span(3, [1, 0, 1], [0, 1, 1])
    b = _span(3, [1, 1, 2], [2, 1, 3], [3, 2, 5])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    # The same plane from generators that carry denominators.
    c = _span(3, [Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)],
              [Fraction(-2, 7), 0, Fraction(-2, 7)])
    assert a == c
    assert hash(a) == hash(c)


def test_membership():
    s = _span(4, [1, 2, 0, 0], [0, 0, 1, 1])
    assert s.contains({0: Fraction(1), 1: Fraction(2)})
    assert s.contains({0: Fraction(1, 2), 1: Fraction(1), 2: Fraction(3), 3: Fraction(3)})
    assert not s.contains({0: Fraction(1)})
    assert s.contains({})


def test_zero_subspace():
    z = _span(3)
    assert z.dim == 0
    assert z.contains({})
    assert not z.contains({1: Fraction(1)})
    assert z.perp().dim == 3


@given(subspace_and_ambient())
@settings(max_examples=60, deadline=None)
def test_perp_is_involutive(data):
    n, vecs = data
    s = _span(n, *vecs)
    p = s.perp()
    assert s.dim + p.dim == n
    assert fresh_perp(p) == s
    _assert_canonical_copy(p, fresh_perp(s))


def _assert_canonical(s):
    """s is stored in its canonical form: rows in ascending pivot order
    (dict equality ignores it; the hash reads it), each an int row with
    content 1, led by a positive entry at its pivot, and holding no other
    pivot column.  The order of a row's entries is not part of the form."""
    assert list(s.pivots) == sorted(s.pivots)
    for p, row in zip(s.pivots, s.rows()):
        assert all(type(x) is int for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(q in row for q in s.pivots if q != p)


def _assert_canonical_copy(got, want):
    """got is stored in its canonical form and equals want, hash too."""
    _assert_canonical(got)
    assert got == want and hash(got) == hash(want)


def _reachable(obj) -> set[int]:
    """Ids of every subspace, echelon basis and dict reachable from obj
    through gc.get_referents (types and modules are not followed)."""
    seen, todo = {id(obj)}, [obj]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and isinstance(ref, (SubspaceQ, EchelonBasis, dict)):
                seen.add(id(ref))
                todo.append(ref)
    return seen


@given(subspace_and_ambient())
@settings(max_examples=40, deadline=None)
def test_perp_links_its_result_back_to_its_source_only(data):
    n, vecs = data
    s = _span(n, *vecs)
    p = s.perp()
    assert p.perp() is s
    assert id(s) in _reachable(p)
    assert id(p) not in _reachable(s)
    # A subspace that perp() did not make is complemented afresh.
    q = fresh_perp(s)
    assert q == p and q.perp() is not s and q.perp() == s


@given(subspace_and_ambient())
@settings(max_examples=60, deadline=None)
def test_perp_annihilates(data):
    n, vecs = data
    s = _span(n, *vecs)
    for u in s.basis():
        for w in s.perp().basis():
            assert _dot(u, w) == 0


@given(sparse_rational_rows())
@settings(max_examples=100, deadline=None)
def test_perp_of_sparse_rational_rows(data):
    n, rows = data
    s = SubspaceQ.from_vectors(n, rows)
    p = s.perp()
    for w in p.basis():
        for r in rows:
            assert _dot(r, w) == 0
    assert s.dim + p.dim == n
    assert fresh_perp(p) == s
    assert p == _span(n, *_dense_kernel(rows, n))
    _assert_canonical_copy(p, fresh_perp(s))


@given(subspace_and_ambient(), subspace_and_ambient())
@settings(max_examples=60, deadline=None)
def test_dimension_formula(data_a, data_b):
    n = max(data_a[0], data_b[0])
    a = _span(n, *[v + [0] * (n - len(v)) for v in data_a[1]])
    b = _span(n, *[v + [0] * (n - len(v)) for v in data_b[1]])
    meet = a.intersect(b)
    join = span_sum(a, b)
    assert a.dim + b.dim == meet.dim + join.dim
    for row in meet.basis():
        assert a.contains(row) and b.contains(row)
    assert contains_subspace(join, a) and contains_subspace(join, b)


def test_intersect_subset_case():
    big = _span(3, [1, 0, 0], [0, 1, 0])
    small = _span(3, [1, 1, 0])
    assert big.intersect(small) == small
    assert span_sum(big, small) == big


def test_echelon_rank_matches_subspace_dim():
    eb = EchelonBasis(4)
    assert eb.add({0: 1, 1: 1})
    assert not eb.add({0: 2, 1: 2})
    assert eb.add({2: 1})
    assert len(eb.rows()) == 2
    assert eb.contains({0: Fraction(3), 1: Fraction(3), 2: Fraction(-1)})
    assert not eb.contains({3: Fraction(1)})


def test_reduce_raises_when_an_elimination_leaves_the_leading_column(monkeypatch):
    # An elimination that does not clear its column would keep the reduction
    # on that column forever; the fake stops after 100 calls so that such a
    # loop fails the test instead of hanging it.
    calls = []

    def stuck(vec, row, col):
        calls.append(col)
        if len(calls) > 100:
            raise AssertionError("the reduction kept eliminating the same column")

    eb = EchelonBasis(3)
    eb.add({0: 1})
    monkeypatch.setattr(quadop.linalg, "_eliminate", stuck)
    with pytest.raises(InternalCheckError, match="column 0"):
        eb.add({0: 2, 1: 1})
    assert calls == [0]


def test_kernel_basis_kills_rows():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}]
    ker = kernel_basis(rows, 4)
    assert ker.dim == 2
    for v in ker.basis():
        for r in rows:
            assert sum(r.get(c, 0) * x for c, x in v.items()) == 0


@st.composite
def kernel_rows(draw, max_dim=10):
    """Rows with int, Fraction and zero entries, some all zero; half the
    draws append an upper-triangular system, which makes them full rank."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.one_of(st.just(0), st.just(Fraction(0)), _mixed_entry)
    row = st.dictionaries(st.integers(min_value=0, max_value=n - 1), entry, max_size=6)
    rows = draw(st.lists(row, max_size=n + 3))
    if draw(st.booleans()):
        rows += [{c: Fraction(c + 1, 2), **{e: 1 for e in range(c + 1, n)}} for c in range(n)]
    return n, rows


@given(kernel_rows())
@example((0, []))
@example((3, []))
@example((3, [{}, {0: 0, 2: Fraction(0)}]))
@example((2, [{0: 1}, {1: Fraction(-3, 2)}]))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_is_the_complement_computed_from_scratch(data):
    n, rows = data
    before = [dict(r) for r in rows]
    ker = kernel_basis(rows, n)
    assert rows == before
    span = SubspaceQ.from_vectors(n, rows)
    _assert_canonical_copy(ker, fresh_perp(span))
    assert ker == _span(n, *_dense_kernel(rows, n))
    back = ker.perp()
    assert back == span and hash(back) == hash(span)
    assert id(ker) not in _reachable(back)


@given(subspace_and_ambient(), st.data())
@settings(max_examples=80, deadline=None)
def test_truncated_is_the_span_of_the_cut_rows(data, draw):
    n, vecs = data
    s = _span(n, *vecs)
    k = draw.draw(st.integers(min_value=0, max_value=n))
    cut = s.truncated(k)
    want = SubspaceQ.from_vectors(k, [{c: x for c, x in enumerate(v) if c < k} for v in vecs])
    assert cut == want and hash(cut) == hash(want)
    assert cut.ambient_dim == k
    assert s.truncated(n) == s
    assert s.truncated(0) == SubspaceQ.from_vectors(0, [])
    for bad in (n + 1, -1):
        with pytest.raises(ValueError):
            s.truncated(bad)


def _shuffled_entries(s, rng):
    """s with each canonical row's entries stored in a random order."""
    rows = {}
    for p, row in zip(s.pivots, s.rows()):
        items = list(row.items())
        rng.shuffle(items)
        rows[p] = dict(items)
    return SubspaceQ(s.ambient_dim, rows)


@pytest.mark.parametrize("name", catalog_names())
def test_entry_order_is_not_part_of_the_canonical_form(name):
    # The entries of each row go in shuffled, so a truncation that tests a
    # row's last entry for its end, or a hash that reads the entries in
    # order, tells the two apart.
    s = catalog(name).relations
    rng = random.Random(name)
    for _ in range(3):
        t = _shuffled_entries(s, rng)
        _assert_canonical_copy(t, s)
        for n in range(s.ambient_dim + 1):
            _assert_canonical_copy(t.truncated(n), s.truncated(n))
        _assert_canonical_copy(t.perp(), s.perp())


def test_integer_rows_are_copied_without_their_zero_entries():
    vec = {3: 2, 0: 0, 1: -4}
    got = _as_int_row(vec)
    assert got == {3: 2, 1: -4} and got is not vec
    assert vec == {3: 2, 0: 0, 1: -4}
    eb = EchelonBasis(4)
    for caller in ({0: 2, 1: 4, 2: 0}, {1: 3, 3: -6}):
        before = dict(caller)
        assert eb.add(caller)
        assert caller == before
        assert eb.contains(caller)
        assert caller == before
    assert eb.rows() == [{0: 1, 1: 2}, {1: 1, 3: -2}]


_integral_entry = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.booleans(),
    st.integers(min_value=-6, max_value=6).map(Fraction),
)


@given(st.lists(st.dictionaries(st.integers(min_value=0, max_value=5), _integral_entry,
                                max_size=5), max_size=6))
@settings(max_examples=100, deadline=None)
def test_bool_and_fraction_entries_give_the_integer_rows(rows):
    as_ints = [{c: int(v) for c, v in r.items()} for r in rows]
    for r, w in zip(rows, as_ints):
        got = _as_int_row(r)
        assert got == _as_int_row(w) == {c: v for c, v in w.items() if v}
        assert all(type(v) is int for v in got.values())
    assert SubspaceQ.from_vectors(6, rows).rows() == SubspaceQ.from_vectors(6, as_ints).rows()


@st.composite
def caller_rows(draw, max_dim=8):
    """Rows as a caller passes them: all-int dicts with no zero entry, some
    of them multiples of an earlier one or an earlier one with its tail
    changed, so that their reduction eliminates; and rows with zero,
    Fraction and bool entries."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    col = st.integers(min_value=0, max_value=n - 1)
    nonzero = st.integers(min_value=-6, max_value=6).filter(bool)
    ints = st.dictionaries(col, nonzero, max_size=5)
    mixed = st.dictionaries(col, st.one_of(_integral_entry, _mixed_entry), max_size=5)
    rows = draw(st.lists(st.one_of(ints, mixed), max_size=n + 2))
    for r in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else ():
        k = draw(nonzero)
        rows.append({c: k * x for c, x in r.items()}
                    if draw(st.booleans()) else {**r, n - 1: draw(nonzero)})
    return n, rows


@given(caller_rows())
@example((3, [{0: 1, 1: 2}, {0: 2, 1: 1}, {0: 3, 1: 6}, {0: 0, 1: True, 2: Fraction(1, 2)}]))
@example((2, [{1: -2}, {0: 1, 1: 4}, {0: 1, 1: 3}]))
@settings(max_examples=150, deadline=None)
def test_caller_rows_are_never_changed_or_held(data):
    # add copies each caller's row once, on entry, and reduces and files
    # that copy: no caller dict is reachable from the basis or from any
    # subspace built from the rows, so a caller that changes its rows
    # afterwards changes none of them.  A row that no step changes (the
    # second row of the second example) is where holding the caller's dict
    # would show.
    n, rows = data
    before = [dict(r) for r in rows]
    ids = {id(r) for r in rows}
    eb = EchelonBasis(n)
    for r in rows:
        eb.add(r)
        assert rows == before
    assert not ids & _reachable(eb)
    built = [SubspaceQ.from_echelon(eb), SubspaceQ.from_vectors(n, rows), kernel_basis(rows, n)]
    assert rows == before
    kept = [([dict(r) for r in s.rows()], hash(s)) for s in built]
    for s in built:
        assert not ids & _reachable(s)
    for r in rows:
        for c in r:
            r[c] += 1
        r[n] = 5
    want = SubspaceQ.from_vectors(n, before)
    for s, (srows, h), ref in zip(built, kept, (want, want, want.perp())):
        assert s.rows() == srows and hash(s) == h
        assert s == ref and hash(s) == hash(ref)


def _reference_strip(row, lead):
    """Reference: the gcd of every value, with the sign of the lead."""
    g = functools.reduce(math.gcd, row.values(), 0)
    return {c: x // (g if row[lead] > 0 else -g) for c, x in row.items()}


@st.composite
def int_rows_in_any_column_order(draw):
    """Nonzero int rows stored in a random column order, with a common
    factor half the time, and a value of plus or minus 1 first a third of
    the time, ahead of larger ones and of a lead of either sign."""
    cols = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6,
                         unique=True))
    vals = draw(st.lists(st.integers(min_value=-30, max_value=30).filter(bool),
                         min_size=len(cols), max_size=len(cols)))
    k = draw(st.sampled_from((1, 1, 2, -3, 6)))
    vals = [k * v for v in vals]
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        vals[0] = draw(st.sampled_from((1, -1)))
    return dict(zip(cols, vals))


@given(int_rows_in_any_column_order(), st.booleans())
@example({3: 1, 0: -4, 1: 6}, False)
@example({2: -1, 0: 6, 1: 4}, True)
@example({4: 1, 1: 12, 0: -18}, True)
@example({0: -6, 1: 4}, False)
@example({0: 1, 3: 12, 5: -18}, True)
@example({0: -1, 3: 12, 5: -18}, True)
@example({0: -1, 3: 12, 5: -18}, False)
@example({5: -18, 3: 12, 1: -1}, True)
@example({5: -18, 3: 12, 1: -1}, False)
@example({2: 1, 4: -1, 6: 30}, False)
@example({0: -6, 2: 1}, True)
def test_strip_content_matches_the_full_gcd(row, pass_lead):
    # _strip_content ends its gcd scan once the gcd reaches 1, and a row
    # led by plus or minus 1 is decided by its lead alone: returned as it
    # is, or negated.
    lead = min(row)
    before = dict(row)
    got = _strip_content(row, lead if pass_lead else None)
    assert got == _reference_strip(before, lead)
    assert list(got) == list(before)
    assert row == before
    if got == before:
        assert got is row
    assert _strip_content({}) == {}


# Rows that need no elimination: each branch that skips work, tested next
# to the branch that does it.


def test_add_files_rows_with_and_without_reduction_as_the_reference_echelon():
    rows = [
        {2: -1, 5: 3},       # leads at a free column with -1: only negated
        {0: 4, 3: -6},       # free lead, content 2
        {1: 1, 4: 7},        # free lead 1: filed as it is
        {0: 2, 2: 5},        # leads at pivot 0: reduced twice, ends at column 3
        {2: 3, 5: -9},       # a multiple of the row at pivot 2: nothing left
        {4: -5, 5: 10},      # free lead -5
        {0: -6, 3: 9, 4: 2},  # leads at pivot 0 with the opposite sign
        {6: Fraction(-1, 2), 7: 2},  # free lead -1 once the denominator is cleared
    ]
    want = [{2: 1, 5: -3}, {0: 2, 3: -3}, {1: 1, 4: 7}, {3: 1, 5: 5}, {}, {4: 1, 5: -2},
            {5: 1}, {6: 1, 7: -4}]
    eb = EchelonBasis(8)
    ref: dict[int, dict] = {}
    for vec, filed in zip(rows, want):
        before = dict(vec)
        residual = reference_residual(SimpleNamespace(rows=lambda: list(ref.values())), vec)
        assert residual == filed
        grew = eb.add(vec)
        assert vec == before
        assert grew == bool(residual)
        if residual:
            ref[min(residual)] = residual
        assert {min(r): r for r in eb.rows()} == ref
        assert all(r is not vec for r in eb.rows())
    assert len(eb.rows()) == 7


_small_entries = st.integers(min_value=-9, max_value=9).filter(bool)


@given(st.dictionaries(st.integers(min_value=0, max_value=6), _small_entries, min_size=1,
                       max_size=5),
       st.dictionaries(st.integers(min_value=0, max_value=6), _small_entries, max_size=4),
       st.sampled_from((1, 1, 1, 2, 3, 6)))
@settings(max_examples=150, deadline=None)
@example(vec={0: 3, 1: 5, 2: -2}, rest={2: 4}, a=1)
@example(vec={0: -4, 2: 6, 3: 1}, rest={3: 2}, a=1)
@example(vec={0: 7, 5: 49}, rest={5: 7}, a=1)
@example(vec={0: 4, 1: 1}, rest={1: 3}, a=6)
def test_eliminate_is_a_times_v_minus_b_times_row(vec, rest, a):
    # row has pivot entry a at the column col = min(vec), half the time 1,
    # where the result is v - b*row with b = v[col].
    col = min(vec)
    row = {col: a, **{c + col + 1: x for c, x in rest.items()}}
    b = vec[col]
    g = math.gcd(a, b)
    want = {c: x for c in set(vec) | set(row)
            if (x := a // g * vec.get(c, 0) - b // g * row.get(c, 0))}
    before = dict(row)
    v = dict(vec)
    _eliminate(v, row, col)
    assert v == want and col not in v
    assert row == before


def _filed_by_perp(s):
    """s.perp() and the rows perp() files in its echelon basis, read where
    it hands them to back-substitution."""
    filed = []
    real = quadop.linalg._back_substitute

    def spy(eb):
        filed.extend(eb.rows())
        return real(eb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadop.linalg, "_back_substitute", spy)
        p = s.perp()
    return p, filed


@given(subspace_and_ambient())
@settings(max_examples=60, deadline=None)
# Spans with a canonical row whose rho-image leads (at the row's largest
# column) with a negative entry, -3 or -1.
@example((3, [[1, 0, -3]]))
@example((4, [[1, 0, 0, -1], [0, 1, 2, -5]]))
@example((5, [[2, 1, 0, 0, -3], [0, 0, 1, -1, 0], [0, 0, 0, 1, -2]]))
@example((5, [[1, 0, 0, 0, -1], [0, 1, 0, 0, -1], [0, 0, 1, 0, 0], [0, 0, 0, 3, 1]]))
def test_perp_files_primitive_rows_with_a_positive_lead(data):
    n, vecs = data
    s = _span(n, *vecs)
    want = fresh_perp(s)
    dense = _span(n, *_dense_kernel([dict(enumerate(v)) for v in vecs], n))
    p, filed = _filed_by_perp(s)
    # perp() files one row per canonical row that is not a unit row, each
    # a primitive integer row with a positive lead, as add() would.
    assert len(filed) == s.dim - len(s.unit_columns())
    for r in filed:
        assert r[min(r)] > 0 and math.gcd(*r.values()) == 1
    _assert_canonical_copy(p, want)
    assert p == dense


def test_truncated_drops_the_rows_pivoted_at_or_past_the_cut():
    s = SubspaceQ.from_vectors(6, [{0: 1, 4: 2}, {1: 2, 2: 6, 5: 1}, {3: 1, 5: 1}, {4: 1, 5: 2}])
    assert s.pivots == (0, 1, 3, 4)
    for n, pivots in ((3, (0, 1)), (4, (0, 1, 3)), (5, (0, 1, 3, 4))):
        cut = s.truncated(n)
        assert cut.pivots == pivots and cut.ambient_dim == n
        assert cut == SubspaceQ.from_vectors(n, [{c: x for c, x in r.items() if c < n}
                                                 for r in s.rows()])
        _assert_canonical(cut)
    assert s.truncated(3).rows() == [{0: 1}, {1: 1, 2: 3}]


def test_invert_matrix_roundtrip():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(m)
    prod = [
        [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    # An integral entry of the inverse is an int, any other a Fraction; the
    # product with M is I on both sides.
    for m in ([[2, 1], [1, 1]], [[2, 0, 1], [0, 3, 0], [1, 0, 1]], [[Fraction(1, 2), 1], [0, 4]]):
        inv = invert_matrix(m)
        n = len(m)
        for row in inv:
            assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in row)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for a, b in ((m, inv), (inv, m)):
            assert [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == identity


def test_invert_matrix_singular_returns_none():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert invert_matrix(m) is None


@pytest.mark.parametrize("mat", [
    [[1, 2]],
    [[1, 0, 0], [0, 1, 0]],
    [[1], [0]],
    [[1, 2], [3]],
    [[1, 0], [0, 1, 0]],
])
def test_invert_matrix_rejects_a_non_square_matrix(mat):
    # Entries past column n would land on the identity half of [M | I].
    with pytest.raises(ValueError):
        invert_matrix(mat)


def test_fractions_survive_canonicalisation():
    s = _span(2, [Fraction(1, 3), Fraction(1, 6)])
    (row,) = s.basis()
    assert row[0] == 1
    assert row[1] == Fraction(1, 2)


def test_ambient_mismatch_raises():
    a = _span(2, [1, 0])
    b = _span(3, [1, 0, 0])
    with pytest.raises(ValueError):
        a.intersect(b)


def test_add_scaled_drops_cancelled_entries():
    out = {0: Fraction(1, 2), 3: Fraction(2)}
    result = add_scaled(out, {0: Fraction(1, 4), 3: Fraction(1)}, -2)
    assert result is out
    assert out == {}


def test_add_scaled_accepts_pairs_and_keeps_the_rest():
    out = {1: 5}
    result = add_scaled(out, iter([(1, 2), (2, -1), (2, 1), (4, 3)]))
    assert result is out
    assert out == {1: 7, 4: 3}


def test_add_scaled_fraction_scale_on_int_values():
    out = add_scaled({}, {0: 2, 1: 3}, Fraction(1, 3))
    assert out == {0: Fraction(2, 3), 1: Fraction(1)}
    assert all(isinstance(v, Fraction) for v in out.values())
