"""Generator spaces and the weight-3 part of the free binary operad.

A binary quadratic operad is presented by a space V of binary generators
carrying an action of S2 and a space of relations inside the weight-3 part
F(3) of the free operad on V.  With d = dim V, F(3) has dimension 3*d*d and a
basis indexed by triples (sigma, outer, inner):

    (sigma, i, j)  <->  e_i(e_j(x_sigma(1), x_sigma(2)), x_sigma(3))

where sigma runs over the transversal REPS = {id, (123), (132)} of the inner
(12)-symmetry.  Flat index: sigma_idx * d*d + outer * d + inner.

The S2 action on V is recorded as a matrix in column convention:

    (12) . e_j = sum_m swap[m][j] e_m.

Everything but the dense `swap` field reads one sparse form, swap_columns:
the nonzeros of each column as (m, coeff), an int where integral, so an
integer row acts to an integer row.  Derived spaces are built from column
dicts by from_columns, the one place that transposes.  Neither the action on
a vector's support nor the involution check costs a dense d**3 pass.

The action has one body, act_all: one loop that builds the images of a
whole list of vectors and returns them as a list, reading the space's
block moves (already scaled to flat offsets, one table per dimension) and
monomial_swap once; act is that loop on one vector.  When every swap
column has one nonzero entry (every catalog entry, product, dual and
split), no two image terms can meet, so each is written once as
coefficient times scale; any other swap accumulates terms and drops those
that cancel.

s3_closure is a worklist over an EchelonBasis: each vector that grows the
span queues its (12) and (123) images once, so the span ends S3-stable
without a last round that only confirms it.  is_s3_stable hands the images
of all canonical rows under one generator to SubspaceQ.contains_rows,
which decides most of them at their leading column and reduces the rest,
and the QuadOperad constructor runs it on every operad, closures included.
The images are built in full before contains_rows reads them, so its early
exit saves only decisions, and only on the failing path, which the
constructor turns into an InternalCheckError.  Neither reads the canonical
form itself: SubspaceQ is its only home.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from quadop.core.perms import (
    CYC123, IDENT, REP_INDEX, REPS, S3, SWAP12, Perm, compose, coset_decompose,
)
from quadop.errors import InputError
from quadop.linalg import EchelonBasis, SubspaceQ, primitive_row

Vec = dict[int, int | Fraction]


@cache
def _block_moves(d: int) -> dict[Perm, tuple]:
    """For each permutation perm: d, d*d, and for each sigma-block s the
    flat offset that moves it onto its target block and whether the inner
    generator is swapped on the way (perm . REPS[s] = rep . (12)).  One
    table per dimension, shared by every space of that dimension."""
    dd = d * d
    table = {}
    for perm in S3:
        moves = []
        for s, sigma in enumerate(REPS):
            rep, tail = coset_decompose(compose(perm, sigma))
            moves.append(((REP_INDEX[rep] - s) * dd, tail != IDENT))
        table[perm] = (d, dd, tuple(moves))
    return table


@dataclass(frozen=True)
class GeneratorSpace:
    """A finite-dimensional S2-module with a chosen basis of named generators.

    The constructor also records two facts of the swap.  monomial_swap:
    when every swap column has one nonzero entry, so that (12) . e_j =
    scale * e_(j + offset), the (offset, scale) pair of every column j, and
    None for any other swap.  integral_swap: whether every swap coefficient
    is an integer, so that the action maps integer rows to integer rows."""

    names: tuple[str, ...]
    swap: tuple[tuple[int | Fraction, ...], ...]
    monomial_swap: tuple[tuple[int, int | Fraction], ...] | None = field(
        init=False, repr=False, compare=False)
    integral_swap: bool = field(init=False, repr=False, compare=False)
    _moves: dict[Perm, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.names)
        if len(self.swap) != d or any(len(row) != d for row in self.swap):
            raise InputError(f"swap matrix must be {d}x{d}")
        if len(set(self.names)) != d:
            raise InputError("generator names must be distinct")
        for name in self.names:
            # The relation grammar reads a name verbatim between braces, stripped.
            if not name or "{" in name or "}" in name or name != name.strip():
                raise InputError(
                    f"generator name {name!r} must be nonempty, without braces "
                    "and without surrounding whitespace"
                )
        # (12) is an involution, so its matrix must square to the identity:
        # column j of S*S, summed over the nonzeros of S's columns, is e_j.
        cols = self.swap_columns
        for j, col in enumerate(cols):
            acc: dict[int, Fraction] = {}
            for m, x in col:
                for i, y in cols[m]:
                    acc[i] = acc.get(i, 0) + y * x
            if {i: v for i, v in acc.items() if v} != {j: 1}:
                raise InputError("swap matrix is not an involution")
        # No column of an involution is empty, so d pairs mean one per column.
        mono = tuple([(m - j, x) for j, col in enumerate(cols) for m, x in col])
        object.__setattr__(self, "monomial_swap", mono if len(mono) == d else None)
        object.__setattr__(self, "integral_swap",
                           all(type(x) is int for col in cols for _, x in col))
        object.__setattr__(self, "_moves", _block_moves(d))

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def free3_dim(self) -> int:
        return 3 * self.dim * self.dim

    def gen_index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}; have {list(self.names)}") from None

    @cached_property
    def _name_index(self) -> dict[str, int]:
        """Generator name -> basis index, built once per space."""
        return {name: i for i, name in enumerate(self.names)}

    def flat(self, sigma: Perm, outer: int, inner: int) -> int:
        d = self.dim
        return REP_INDEX[sigma] * d * d + outer * d + inner

    def unflat(self, index: int) -> tuple[Perm, int, int]:
        d = self.dim
        sigma_idx, rest = divmod(index, d * d)
        outer, inner = divmod(rest, d)
        return REPS[sigma_idx], outer, inner

    @cached_property
    def swap_columns(self) -> tuple[tuple[tuple[int, int | Fraction], ...], ...]:
        """(12) . e_j as (m, coeff) pairs for every column j, computed once
        per space; an integral coefficient is an int."""
        d = self.dim
        return tuple(
            tuple((m, x.numerator if x.denominator == 1 else x)
                  for m in range(d) if (x := self.swap[m][j]))
            for j in range(d)
        )

    @classmethod
    def from_columns(cls, names, cols) -> "GeneratorSpace":
        """The space with (12) . e_j = sum_m cols[j][m] e_m, cols a list of
        {m: coeff} dicts: the one place that transposes swap columns into
        the row-major matrix.  Entries are stored as given."""
        d = len(cols)
        swap = tuple(tuple(col.get(m, 0) for col in cols) for m in range(d))
        return cls(tuple(names), swap)


def act_all(space: GeneratorSpace, perm: Perm, vecs) -> list[Vec]:
    """Apply perm to each weight-3 vector of vecs, given as {flat index:
    coefficient}: a list of the images in order, each a fresh dict that
    touches only its vector's support.  One loop builds them all, not
    lazily, reading the space's block moves and monomial_swap once.
    Distinct sigma-blocks go to distinct blocks, so only inner swaps inside
    one block can make two terms meet; under a monomial swap none can, and
    each term is written once."""
    d, dd, moves = space._moves[perm]
    mono = space.monomial_swap
    images = []
    for vec in vecs:
        out: Vec = {}
        for c, coeff in vec.items():
            if not coeff:
                continue
            shift, swapped = moves[c // dd]
            if not swapped:
                out[c + shift] = coeff
            elif mono is not None:
                offset, scale = mono[c % d]
                out[c + shift + offset] = coeff * scale
            else:
                inner = c % d
                base = c + shift - inner
                for m, entry in space.swap_columns[inner]:
                    row = base + m
                    val = out.get(row, 0) + coeff * entry
                    if val:
                        out[row] = val
                    elif row in out:
                        del out[row]
        images.append(out)
    return images


def act(space: GeneratorSpace, perm: Perm, vec: Vec) -> Vec:
    """Apply perm to one weight-3 vector: act_all's loop on it alone."""
    return act_all(space, perm, (vec,))[0]


def s3_closure(space: GeneratorSpace, vectors) -> SubspaceQ:
    """Smallest S3-stable subspace of F(3) containing the given vectors.

    A worklist: each vector that grows the span queues its images under
    (12) and (123), which generate S3, once.  The span is then spanned by
    the vectors that grew it and holds their images, so it is S3-stable
    with no confirming sweep."""
    eb = EchelonBasis(space.free3_dim)
    todo = list(vectors)
    while todo:
        v = todo.pop()
        if eb.add(v):
            todo += (act(space, SWAP12, v), act(space, CYC123, v))
    return SubspaceQ.from_echelon(eb)


def is_s3_stable(space: GeneratorSpace, sub: SubspaceQ) -> bool:
    """Whether (12) and (123), which generate S3, map every canonical row of
    sub into sub.  The images of all rows under one generator are fresh
    integer rows (through primitive_row when the swap has a non-integral
    entry), and go to SubspaceQ.contains_rows in one pass, which decides
    most of them at their leading column and reduces the rest."""
    rows = sub.rows()
    for g in (SWAP12, CYC123):
        images = act_all(space, g, rows)
        if not sub.contains_rows(images if space.integral_swap else map(primitive_row, images)):
            return False
    return True
