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

Each space keeps the nonzeros of its swap columns; both the action on a
vector's support and the check that the swap matrix is an involution read
them, so neither costs a dense d**3 pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from quadop.core.perms import (
    CYC123, IDENT, REP_INDEX, REPS, S3, SWAP12, Perm, compose, coset_decompose,
)
from quadop.errors import InputError
from quadop.linalg import EchelonBasis, SubspaceQ

Vec = dict[int, Fraction]


@dataclass(frozen=True)
class GeneratorSpace:
    """A finite-dimensional S2-module with a chosen basis of named generators."""

    names: tuple[str, ...]
    swap: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        d = len(self.names)
        if len(self.swap) != d or any(len(row) != d for row in self.swap):
            raise InputError(f"swap matrix must be {d}x{d}")
        if len(set(self.names)) != d:
            raise InputError("generator names must be distinct")
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

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def free3_dim(self) -> int:
        return 3 * self.dim * self.dim

    def gen_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}; have {list(self.names)}") from None

    def flat(self, sigma: Perm, outer: int, inner: int) -> int:
        d = self.dim
        return REP_INDEX[sigma] * d * d + outer * d + inner

    def unflat(self, index: int) -> tuple[Perm, int, int]:
        d = self.dim
        sigma_idx, rest = divmod(index, d * d)
        outer, inner = divmod(rest, d)
        return REPS[sigma_idx], outer, inner

    def swap_column(self, j: int) -> list[tuple[int, Fraction]]:
        """(12) . e_j as a list of (index, coefficient)."""
        return [(m, self.swap[m][j]) for m in range(self.dim) if self.swap[m][j]]

    @cached_property
    def swap_columns(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """swap_column(j) for every j, computed once per space."""
        return tuple(tuple(self.swap_column(j)) for j in range(self.dim))


def free3_action(space: GeneratorSpace, perm: Perm) -> list[list[tuple[int, Fraction]]]:
    """Matrix of perm on F(3), column-sparse: entry list per basis column.

    perm . (sigma, i, j) relabels the arguments, giving the triple
    (perm . sigma, i, j).  Decompose perm . sigma = rep . tail over the inner
    (12); a nontrivial tail swaps the two inner arguments, which rewrites the
    inner generator e_j through the swap matrix.  This is the reference that
    act, which touches only a vector's support, is tested against.
    """
    d = space.dim
    one = Fraction(1)
    cols: list[list[tuple[int, Fraction]]] = []
    for sigma in REPS:
        rep, tail = coset_decompose(compose(perm, sigma))
        for i in range(d):
            for j in range(d):
                if tail == IDENT:
                    cols.append([(space.flat(rep, i, j), one)])
                else:
                    cols.append(
                        [(space.flat(rep, i, m), c) for m, c in space.swap_column(j)]
                    )
    return cols


def _block_map(perm: Perm) -> tuple[tuple[int, bool], ...]:
    """For each sigma-block s: the index of the block that perm sends it to,
    and whether the inner generator is swapped on the way (perm . REPS[s] =
    rep . (12))."""
    out = []
    for sigma in REPS:
        rep, tail = coset_decompose(compose(perm, sigma))
        out.append((REP_INDEX[rep], tail != IDENT))
    return tuple(out)


_BLOCK_MAP = {perm: _block_map(perm) for perm in S3}


def act(space: GeneratorSpace, perm: Perm, vec: Vec) -> Vec:
    """Apply perm to a weight-3 vector given as {flat index: coefficient}.

    Touches only the vector's support; the result equals applying the
    free3_action matrix.  Distinct sigma-blocks go to distinct blocks, so only
    inner swaps inside one block can make two terms meet.
    """
    d = space.dim
    dd = d * d
    blocks = _BLOCK_MAP[perm]
    cols = space.swap_columns
    out: Vec = {}
    for c, coeff in vec.items():
        if not coeff:
            continue
        s, rest = divmod(c, dd)
        target, swapped = blocks[s]
        if not swapped:
            out[target * dd + rest] = coeff
            continue
        outer, inner = divmod(rest, d)
        base = target * dd + outer * d
        for m, entry in cols[inner]:
            row = base + m
            val = out.get(row, 0) + coeff * entry
            if val:
                out[row] = val
            elif row in out:
                del out[row]
    return out


def s3_closure(space: GeneratorSpace, vectors) -> SubspaceQ:
    """Smallest S3-stable subspace of F(3) containing the given vectors."""
    eb = EchelonBasis(space.free3_dim)
    for v in vectors:
        eb.add(v)
    # (12) and (123) generate S3; sweep until the rank stops growing.
    gens = (SWAP12, CYC123)
    while True:
        before = eb.rank
        for row in eb.rows():
            for g in gens:
                eb.add(act(space, g, row))
        if eb.rank == before:
            return SubspaceQ.from_echelon(eb)


def is_s3_stable(space: GeneratorSpace, sub: SubspaceQ) -> bool:
    for g in (SWAP12, CYC123):
        for row in sub.rows():
            if not sub.contains(act(space, g, row)):
                return False
    return True
