"""Exact linear algebra over the rationals.

Everything downstream (operad relations, Koszul duals, the locality ideal)
reduces to row reduction of sparse matrices with rational entries.  Rows are
sparse dicts mapping column -> value, so the many zero columns of the big
band-structured systems are never touched.

One row type: every row is a primitive integer row (content 1, positive
leading value).  Input entries may be int or Fraction; their numerators and
denominators are read directly, so an int vector never becomes a Fraction.
The kernel owns every row it holds: a caller's row is copied once, where
it enters, and never changed or held.  A row is copied again only where
back-substitution changes it and where basis() hands it out, and it is
stripped of its content or rescaled only when a step changes it: the
content scan stops once the gcd is 1, a row leading with plus or minus 1
is at most negated, and a complement row with pivot entry 1 or a
canonical row that truncated(n) does not cut is kept as it is.  A row
that needs no elimination skips the bookkeeping of one that does: add()
files a copy whose leading column holds no pivot at once, perp() files a
mirrored canonical row that leads at a free column with only its sign
fixed, and an elimination against a row with pivot entry 1 takes no gcd.
EchelonBasis's reduction checks that each elimination clears the leading
column, so a broken elimination raises InternalCheckError instead of
looping forever.

* EchelonBasis: an incremental, order-dependent echelon form.  Cheap add and
  membership, no canonical form: the builder that from_vectors, intersect,
  identity_block and the S3 closure's worklist add rows to (add reports
  whether the rank grew, and the worklist queues on that), and that perp()
  reduces its own fresh rows into.  Elimination is integer-preserving:
  each step forms a*v - b*row in place on the basis's own copy, and the
  content is divided out once, when a reduction ends in a nonzero
  residual.
* SubspaceQ: the canonical form, and the only class that reads it.  Its
  rows, keyed by pivot, are the reduced row echelon form (pivot columns
  cleared in every other row), each scaled to its primitive integer row;
  the order of a row's entries is not part of it.  That form is unique
  for a given subspace, so equality and hashing are structural (the hash
  takes each row as a set of entries).  contains_rows() is the one
  membership test: it decides each fresh row at its leading column,
  outside when that is not a pivot and inside when the row is plus or
  minus the canonical row there, and
  hands any other row to reduce(), the one reduction against canonical
  rows: one elimination per pivot column in a row's support, and the row
  lies in the span exactly when nothing is left.  contains() is that test
  on a copy of one vector, and the S3-stability guard passes it all images
  under one generator at once.  unit_columns() reads off which unit rows
  lie in the span, with no reduction.  basis() is the one output that may hold Fractions,
  for printing: it scales each row to pivot entry 1, and a row whose pivot
  value is already 1 keeps its int entries.  invert_matrix reads the
  inverse off the canonical form of [M | I].

  perp() is the one complement computed by elimination: it eliminates the
  canonical rows once, from the right, and transposes the reduced rows
  straight into the complement's canonical rows; unit rows only zero a
  coordinate, and stay out of the elimination.  It records on its result
  the subspace it came from, and perp() of that result returns it without
  elimination: (U^perp)^perp = U, and the canonical form is unique.  The
  link runs one way, from the complement to its source, so no reference
  cycle is made.  annihilator_rows() reads primitive integer functionals
  whose common kernel is the subspace off the canonical rows, with no
  elimination; they span the complement but are not canonical, and
  canonicalised with from_vectors they give a second route to it that
  shares no elimination with perp().  truncated(n), the projection onto
  the first n columns, reads the canonical rows with no elimination and
  shares each row whose largest column is below n; it stops at the first
  pivot >= n.
  from_echelon reaches the canonical form by column-indexed
  back-substitution, whose cost follows the rows' nonzeros, not the square
  of the rank, and takes its reduced rows as they are.

kernel_basis, the kernel of a row list, is the perp() of the rows' span.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from quadop.errors import InternalCheckError

# An integer row: column index -> nonzero integer value.
IntRow = dict[int, int]


def _as_int_row(vec) -> IntRow:
    """Clear the denominators of a vector (dense sequence or {col: value}
    mapping, entries int or Fraction); the content is not divided out.
    Returns a fresh dict, which the caller may reduce in place."""
    if isinstance(vec, dict):
        for v in vec.values():
            if type(v) is not int:
                break
        else:  # all int (not bool): only copy, dropping zeros
            return dict(vec) if 0 not in vec.values() else {c: v for c, v in vec.items() if v}
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    terms = []
    denom_lcm = 1
    for col, val in items:
        try:
            num, den = val.numerator, val.denominator
        except AttributeError:
            raise TypeError(f"entry {val!r} at column {col} is not a rational number") from None
        if num:
            terms.append((col, num, den))
            if den != 1:
                denom_lcm = denom_lcm // gcd(denom_lcm, den) * den
    if denom_lcm == 1:
        return {col: num for col, num, _ in terms}
    return {col: num * (denom_lcm // den) for col, num, den in terms}


def primitive_row(vec) -> IntRow:
    """The primitive integer row (content 1, positive leading value) on the
    line through vec; empty for the zero vector."""
    return _strip_content(_as_int_row(vec))


def _strip_content(row: IntRow, lead: int | None = None) -> IntRow:
    """Divide out the gcd of the values; make the leading value positive.
    A caller that knows the leading column passes it as lead.  The content
    divides the leading value, so a row that leads with 1 is returned as it
    is and one that leads with -1 is only negated, with no gcd scan."""
    if not row:
        return row
    if lead is None:
        lead = min(row)
    x = row[lead]
    if x == 1:
        return row
    if x == -1:
        return {c: -v for c, v in row.items()}
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if x < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _eliminate(vec: IntRow, row: IntRow, col: int) -> None:
    """Replace vec by a*vec - b*row in place, with the smallest factors that
    cancel column `col`.  Both must be nonzero at `col`, and row[col] > 0.
    A pivot entry of 1, which every canonical row of a catalog-derived
    operad has, gives a = 1 and b = vec[col] with no gcd and no division.
    The content of the result is left in place."""
    a, b = row[col], vec[col]
    if a != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for c, v in vec.items():
                vec[c] = a * v
    for c, v in row.items():
        w = vec.get(c, 0) - b * v
        if w:
            vec[c] = w
        else:
            del vec[c]


class EchelonBasis:
    """Incremental echelon form over Q (kept as primitive integer rows).

    Rows are indexed by their pivot (leftmost nonzero) column, so membership
    testing is just repeated elimination of the current leading column.  The
    form is echelon but not reduced; use SubspaceQ when a canonical basis is
    needed.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, IntRow] = {}

    def _reduce(self, v: IntRow) -> tuple[IntRow, int | None]:
        """Reduce the integer row v, which the basis owns, in place against
        the current rows.  Returns it and its leading column, which no row
        has as pivot, or None when it reduces to zero.  The content is
        left in place.  Each elimination must clear the leading column;
        one that leaves it in v raises InternalCheckError, where the loop
        would otherwise run forever."""
        rows = self._rows
        while v:
            col = min(v)
            row = rows.get(col)
            if row is None:
                return v, col
            _eliminate(v, row, col)
            if col in v:
                raise InternalCheckError(f"an elimination left column {col} in the row")
        return v, None

    def contains(self, vec) -> bool:
        return self._reduce(_as_int_row(vec))[1] is None

    def add(self, vec) -> bool:
        """Add vec to the span, filed under the pivot its reduction ends
        on.  Returns True if the rank grew.  vec is never changed, never
        held: the basis reduces and files its own copy.  A copy whose
        leading column holds no pivot needs no reduction and is filed at
        once."""
        v = _as_int_row(vec)
        if not v:
            return False
        col = min(v)
        if col in self._rows:
            v, col = self._reduce(v)
            if col is None:
                return False
        self._rows[col] = _strip_content(v, col)
        return True

    def rows(self) -> list[IntRow]:
        """The current rows in pivot order (primitive integer form)."""
        return [self._rows[p] for p in sorted(self._rows)]


class SubspaceQ:
    """A subspace of Q^n in canonical form.

    _rows maps each pivot column to its row, in pivot order: the reduced
    row echelon form (pivot columns cleared in all other rows), each row a
    primitive integer row (content 1, positive pivot entry), its entries in
    any order.  This form is unique for a given subspace, so __eq__ and
    __hash__ compare subspaces, not presentations, and contains_rows() is
    the one membership test against it.
    """

    __slots__ = ("ambient_dim", "_rows", "_perp_of")

    def __init__(self, ambient_dim: int, rows: dict[int, IntRow]):
        # Not meant to be called directly; use from_vectors / from_echelon.
        # rows must be canonical, in pivot order; entry order is free.
        self.ambient_dim = ambient_dim
        self._rows = rows
        # The subspace this one is the complement of, when perp() made it.
        self._perp_of: SubspaceQ | None = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "SubspaceQ":
        eb = EchelonBasis(ambient_dim)
        for v in vectors:
            eb.add(v)
        return cls.from_echelon(eb)

    @classmethod
    def from_echelon(cls, eb: EchelonBasis) -> "SubspaceQ":
        reduced = _back_substitute(eb)
        return cls(eb.ambient_dim, dict(reversed(reduced.items())))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows)

    def rows(self) -> list[IntRow]:
        """The canonical rows in pivot order (primitive integer form).  They
        are shared with the subspace; do not modify them."""
        return list(self._rows.values())

    def basis(self) -> list[dict[int, int | Fraction]]:
        """Canonical basis vectors as {col: value} mappings, pivot entry 1.
        A row whose pivot value is 1 keeps its int entries (a fresh dict);
        any other row is divided by its pivot value into Fractions."""
        out = []
        for p, r in self._rows.items():
            lead = r[p]
            out.append(dict(r) if lead == 1 else {c: Fraction(v, lead) for c, v in r.items()})
        return out

    def reduce(self, v: IntRow) -> IntRow:
        """Reduce the caller's integer row v in place against the canonical
        rows and return what is left, which is empty exactly when v lies in
        the span.  A canonical row holds no pivot column but its own, so
        each elimination leaves v's other pivot entries nonzero and makes
        no new ones: one elimination per pivot column in v's support, with
        no search for the smallest column.  The content is left in place."""
        rows = self._rows
        for c in [c for c in v if c in rows]:
            _eliminate(v, rows[c], c)
        return v

    def contains_rows(self, vs) -> bool:
        """Whether every one of the caller's fresh integer rows lies in the
        span; each may be negated or reduced in place, and the first row
        outside ends the pass.  A row is decided at its leading column p: a
        nonzero element of the span leads at a pivot, so a row leading
        anywhere else is outside; a row equal to plus or minus the
        canonical row at p is inside, with no elimination; any other row is
        inside exactly when reduce() leaves nothing."""
        rows = self._rows
        for v in vs:
            if not v:
                continue
            p = min(v)
            r = rows.get(p)
            if r is None:
                return False
            if v[p] == -r[p]:
                for c in v:
                    v[c] = -v[c]
            if v != r and self.reduce(v):
                return False
        return True

    def contains(self, vec) -> bool:
        return self.contains_rows((_as_int_row(vec),))

    def unit_columns(self) -> set[int]:
        """The columns c whose unit row e_c lies in the subspace: those whose
        canonical row is {c: 1}.  e_c is 0 at every pivot but c, so it lies
        in the span only as a multiple of the row at pivot c."""
        return {p for p, r in self._rows.items() if len(r) == 1}

    def truncated(self, n: int) -> "SubspaceQ":
        """The projection onto the first n coordinates, as a subspace of Q^n:
        the rows with pivot < n, cut at column n.  A reduced row cut at a
        column prefix stays reduced and rows with pivot >= n project to 0,
        so only the content is divided out again, and only in a row that
        reaches past n.  A row whose largest column is below n is kept as
        it is, shared with this subspace as rows() shares it.  The rows
        come in ascending pivot order, so the read stops at the first
        pivot >= n."""
        if not 0 <= n <= self.ambient_dim:
            raise ValueError(f"cannot truncate Q^{self.ambient_dim} to Q^{n}")
        rows = {}
        for p, r in self._rows.items():
            if p >= n:
                break
            rows[p] = r if max(r) < n else _strip_content({c: v for c, v in r.items() if c < n}, p)
        return SubspaceQ(n, rows)

    def intersect(self, other: "SubspaceQ") -> "SubspaceQ":
        """Zassenhaus: echelonise rows [u|u] for u in self and [w|0] for w in
        other inside Q^(2n); rows supported entirely in the right half give a
        basis of the intersection."""
        n = self.ambient_dim
        if other.ambient_dim != n:
            raise ValueError(f"ambient dimensions differ: {n} vs {other.ambient_dim}")
        eb = EchelonBasis(2 * n)
        for r in self.rows():
            eb.add(r | {c + n: x for c, x in r.items()})
        for r in other.rows():
            eb.add(r)
        return SubspaceQ.from_vectors(n, ({c - n: v for c, v in row.items()}
                                          for pivot, row in eb._rows.items() if pivot >= n))

    def annihilator_rows(self) -> list[IntRow]:
        """Primitive integer rows spanning the orthogonal complement, one per
        free (non-pivot) column, in column order (see _free_column_rows):
        read off the canonical rows with no elimination, and not canonical
        themselves.  perp() does not read them, so a complement
        canonicalised from them is a second route to perp()'s result."""
        rows = self._rows
        free = [f for f in range(self.ambient_dim) if f not in rows]
        return [_strip_content(row) for row in _free_column_rows(rows, free)]

    def perp(self) -> "SubspaceQ":
        """Orthogonal complement with respect to the standard dot product,
        i.e. the kernel of the matrix whose rows are the basis.  The
        complement of a complement that perp() made is its source, returned
        as it is.

        One elimination, from the right: with rho(c) = n-1-c, the reduced
        rows of the rho-images, read back through rho, have each row's
        largest column as pivot.  The complement row of a free column f
        (rho-side) has pivot rho(f) and its other entries at rho(p) > rho(f)
        for pivots p, which no complement row has as pivot: the rows come
        out canonical once their content is divided out, and in order
        because the reduced rows come in descending pivot order.  A unit
        row e_p only sets coordinate p of the complement to 0: no other
        canonical row holds column p, so it takes no part in the
        elimination, and rho(p) is neither a pivot nor a free column.
        A rho-image that leads at a column no earlier image was filed
        under needs no elimination: a canonical row is primitive and
        relabelling its columns keeps it primitive, so it is filed with
        only its sign fixed."""
        if self._perp_of is not None:
            return self._perp_of
        last = self.ambient_dim - 1
        units = self.unit_columns()
        eb = EchelonBasis(self.ambient_dim)
        filed = eb._rows
        for p, r in self._rows.items():
            if p not in units:
                # A fresh row, filed directly (add would copy it once
                # more).  One that leads at a column no row is filed under
                # is r relabelled, primitive already, so only its sign is
                # fixed; any other
                # is reduced in place, and as the rows are independent
                # each reduction ends on a new pivot.
                v = {last - c: x for c, x in r.items()}
                col = min(v)
                if col in filed:
                    v, col = eb._reduce(v)
                    filed[col] = _strip_content(v, col)
                else:
                    filed[col] = v if v[col] > 0 else {c: -x for c, x in v.items()}
        reduced = _back_substitute(eb)
        free = [f for f in range(last, -1, -1) if f not in reduced and last - f not in units]
        # A row with pivot entry 1 already has content 1 and a positive lead.
        out = SubspaceQ(self.ambient_dim, {
            last - f: row if row[last - f] == 1 else _strip_content(row, last - f)
            for f, row in zip(free, _free_column_rows(reduced, free, last, -1))})
        out._perp_of = self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubspaceQ):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self._rows.values())))

    def __repr__(self) -> str:
        return f"SubspaceQ(dim={self.dim}, ambient={self.ambient_dim})"


def invert_matrix(mat) -> list[list[int | Fraction]] | None:
    """Inverse of a square rational matrix, or None if singular: the
    canonical form of the rows [M | I] is [I | M^-1] exactly when M is
    invertible.  An integral entry of the inverse is an int, any other a
    Fraction.  A matrix that is not square raises ValueError."""
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, one of length {len(row)}")
    aug = SubspaceQ.from_vectors(2 * n, ({**dict(enumerate(row)), n + i: 1}
                                         for i, row in enumerate(mat)))
    if aug.pivots != tuple(range(n)):
        return None
    return [[x.numerator if x.denominator == 1 else x
             for x in (r.get(n + j, 0) for j in range(n))] for r in aug.basis()]


def add_scaled(out: dict, terms, scale=1) -> dict:
    """Add scale times terms (a mapping, or an iterable of (key, value)
    pairs) into out in place, dropping entries that cancel.  Returns out.
    A scale of 1 skips the product, which costs as much as a Fraction sum."""
    for k, v in terms.items() if isinstance(terms, dict) else terms:
        acc = out.get(k, 0) + (v if scale == 1 else scale * v)
        if acc:
            out[k] = acc
        elif k in out:
            del out[k]
    return out


def _back_substitute(eb: EchelonBasis) -> dict[int, IntRow]:
    """The reduced rows of an echelon basis by pivot, in descending pivot
    order.  A reduced row holds no pivot column but its own, so clearing
    the later pivot columns in row p's own support with the reduced rows
    introduces no new ones: one pass per row, then its content is divided
    out.  A row with no later pivot in its support is kept as it is, shared
    with the basis; any other is reduced on a copy, so the basis and the
    subspaces that share its rows never see a row change."""
    reduced: dict[int, IntRow] = {}
    for p in sorted(eb._rows, reverse=True):
        row = eb._rows[p]
        later = [c for c in row if c in reduced]
        if later:
            row = dict(row)
            for q in later:
                _eliminate(row, reduced[q], q)
            row = _strip_content(row, p)
        reduced[p] = row
    return reduced


def _free_column_rows(rows: dict[int, IntRow], free: list[int], off: int = 0, sign: int = 1):
    """The kernel rows of reduced rows (by pivot), [I | C] -> [-C^T | I]: per
    free column f, scale*e_f - sum_p x*(scale/lead_p)*e_p over the rows r_p
    with r_p[f] = x, scale the lcm of those leads.  Pivot columns are cleared
    in every other row, so each non-leading entry sits in a free column.
    Column c is written at off + sign*c, f first and then the pivots in the
    order of rows; the content is left in place.  A free column that only
    rows with lead 1 reach has scale 1: no lcm and no scale // lead."""
    terms: dict[int, list] = {f: [] for f in free}
    scaled = set()  # the free columns that some row with lead != 1 reaches
    for p, r in rows.items():
        lead, at = r[p], off + sign * p
        if lead != 1:
            scaled.update(r)
        for f, x in r.items():
            if f != p:
                terms[f].append((at, x, lead))
    for f, ts in terms.items():
        scale = lcm(*(lead for _, _, lead in ts)) if f in scaled else 1
        row = {off + sign * f: scale}
        for c, x, lead in ts:
            row[c] = -x if scale == 1 else -x * (scale // lead)
        yield row


def kernel_basis(rows, ncols: int) -> SubspaceQ:
    """Kernel of the linear map Q^ncols -> Q^len(rows) given by a row list:
    the perp() of the rows' span, which it returns when asked for its own
    perp().  The span's echelon form files its own copy of each row, so
    neither result holds or changes a caller's row."""
    return SubspaceQ.from_vectors(ncols, rows).perp()
