"""Windowed formal-distribution laboratory.

Works in the degree-3 component of a free algebra over ``P`` whose
generators are three families of coefficients a(n), b(n), c(n) with
integer indices restricted to a window [-K, K].  Pairwise locality of
order 1 between the families is imposed as a subspace (the "locality
ideal"), and the question whether an iterated product ``(a k-th b)`` is
local to ``c`` of some order N becomes exact membership of a residue
vector in that subspace.

The ideal preserves the total index T, so it is built one T-block at a
time.  Within a block, each sigma-line (fixed outer index gamma, inner
indices summing to T - gamma) contributes v (x) (e_h - e_hub) for every
canonical pair row v and every placement h other than the line's hub,
the placement with the largest block index.  These differences to one
point span the same sum-zero vectors as the differences of neighbours,
and each row reaches its line's hub in one elimination step.  The pair
rows are the canonical reduced rows of each sigma's pair space, and the
lines are added from gamma = K down to -K, one sigma at a time.

Membership is a sound certificate: every ideal generator is a genuine
relation, so a residue found inside the span really does vanish.  A
failed membership only says no witness exists inside the window, so
negative outcomes are evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from quadop.core.operad import QuadOperad
from quadop.core.perms import REPS
from quadop.errors import InputError
from quadop.linalg import EchelonBasis, IntRow, SubspaceQ, primitive_row

# Largest window radius K.  A T-block has dim P(3) * O(K**2) coordinates and
# as many generators, so the cost of a sweep grows steeply with K.
MAX_WINDOW = 16


@dataclass(frozen=True)
class ResidueSpec:
    """Parameters of one locality test.

    i is the inner operation, j the outer one, k the order of the inner
    n-product, N the candidate locality order, and (n, m) the anchor
    indices at which the order-N difference is expanded.
    """

    i: int
    k: int
    j: int
    N: int
    n: int = 0
    m: int = 0

    def required_radius(self) -> int:
        first = self.k
        second = max(abs(self.n - self.N), abs(self.n + self.k))
        third = max(abs(self.m), abs(self.m + self.N))
        return max(first, second, third)


class LocalityInstance:
    """Window of radius K around index 0 for each coefficient family.

    Vectors live in P(3) tensored with the cube of window positions; the
    flat coordinate of (r, n_a, n_b, n_c) is
    ``r*W**3 + (n_a+K)*W**2 + (n_b+K)*W + (n_c+K)`` with ``W = 2K+1``.
    The locality ideal preserves the total index T = n_a+n_b+n_c, so
    membership tests run inside a single T-graded block; blocks are
    built lazily and cached.
    """

    def __init__(self, P: QuadOperad, K: int):
        if K < 1:
            raise InputError("window radius K must be at least 1")
        if K > MAX_WINDOW:
            raise InputError(f"window radius K={K} exceeds the cap of {MAX_WINDOW}")
        self.P = P
        self.K = K
        self.W = 2 * K + 1
        self.dim_p3 = P.dim_p3
        self.space_dim = self.dim_p3 * self.W**3
        self._pair_bases = self._build_pair_bases()
        self._blocks: dict[int, tuple[dict[tuple[int, int, int], int], EchelonBasis]] = {}

    # -- pair data -----------------------------------------------------

    def _build_pair_bases(self):
        """For each sigma block, the canonical (reduced) rows of the span of
        all projected monomials of that block (the "pair space")."""
        P = self.P
        out = []
        for sigma in REPS:
            eb = EchelonBasis(self.dim_p3)
            for i in range(P.dim_gens):
                for j in range(P.dim_gens):
                    eb.add(self._projected(sigma, i, j))
            out.append(SubspaceQ.from_echelon(eb).rows())
        return out

    def _projected(self, sigma, outer, inner) -> IntRow:
        """Image of one monomial in P(3), scaled to a primitive integer row
        (scaling changes no span and no membership)."""
        flat = self.P.space.flat(sigma, outer, inner)
        return primitive_row(self.P.project({flat: 1}))

    # -- T-graded blocks -----------------------------------------------

    def _points(self, T: int) -> list[tuple[int, int, int]]:
        K = self.K
        pts = []
        for na in range(-K, K + 1):
            for nb in range(max(-K, T - na - K), min(K, T - na + K) + 1):
                pts.append((na, nb, T - na - nb))
        return pts

    def _block(self, T: int):
        cached = self._blocks.get(T)
        if cached is not None:
            return cached
        index = {p: h for h, p in enumerate(self._points(T))}
        basis = EchelonBasis(self.dim_p3 * len(index))
        for gen in self._block_generators(T, index):
            basis.add(gen)
        self._blocks[T] = (index, basis)
        return index, basis

    def _block_generators(self, T, index):
        """Order-1 pair relations, one per (pair row, non-hub placement).

        Block sigma has inner arguments (x_sigma(1), x_sigma(2)) and the
        remaining family outside.  Its placements fall into lines of fixed
        outer index gamma and fixed pair sum; each line ties every
        placement h to its hub, the placement with the largest block index,
        by v (x) (e_h - e_hub).  A row's pivot is (first column of v, h), so
        within one sigma the rows are already in echelon form.  The lines
        are walked from gamma = K down to -K, sigma in REPS order: on the
        benchmark's locality sweeps, that order needs about a third of the
        elimination steps of neighbour differences, while ascending gamma
        needs more than neighbour differences do.
        """
        K = self.K
        npts = len(index)
        for blk, sigma in enumerate(REPS):
            pair_basis = self._pair_bases[blk]
            if not pair_basis:
                continue
            for gamma in range(K, -K - 1, -1):
                s = T - gamma
                line = [
                    index[self._place(sigma, alpha, s - alpha, gamma)]
                    for alpha in range(max(-K, s - K), min(K, s + K) + 1)
                ]
                if len(line) < 2:
                    continue
                hub = max(line)
                for h in line:
                    if h == hub:
                        continue
                    for v in pair_basis:
                        row = {}
                        for r, c in v.items():
                            row[r * npts + h] = c
                            row[r * npts + hub] = -c
                        yield row

    @staticmethod
    def _place(sigma, alpha, beta, gamma) -> tuple[int, int, int]:
        """Lattice point with alpha on the first inner family, beta on
        the second, gamma on the outer one."""
        pt = [0, 0, 0]
        pt[sigma[0] - 1] = alpha
        pt[sigma[1] - 1] = beta
        pt[sigma[2] - 1] = gamma
        return tuple(pt)

    # -- residues ------------------------------------------------------

    def _check_window(self, spec: ResidueSpec) -> None:
        if spec.k < 0:
            raise InputError("n-product order k must be >= 0")
        if spec.N < 0:
            raise InputError("locality order N must be >= 0")
        d = self.P.dim_gens
        for label, op in (("inner", spec.i), ("outer", spec.j)):
            if not 0 <= op < d:
                raise InputError(f"{label} operation index {op} out of range for {d} generators")
        need = spec.required_radius()
        if need > self.K:
            raise InputError(
                f"residue {spec} does not fit in window radius K={self.K}; requires K >= {need}"
            )

    def _residue_terms(self, spec: ResidueSpec):
        base = self._projected(REPS[0], spec.j, spec.i)
        for s in range(spec.N + 1):
            cs = (-1) ** s * math.comb(spec.N, s)
            for t in range(spec.k + 1):
                coeff = cs * (-1) ** t * math.comb(spec.k, t)
                point = (spec.k - t, spec.n - s + t, spec.m + s)
                yield coeff, point, base

    def contains_residue(self, spec: ResidueSpec) -> bool:
        self._check_window(spec)
        T = spec.k + spec.n + spec.m
        index, basis = self._block(T)
        npts = len(index)
        vec: IntRow = {}
        for coeff, point, base in self._residue_terms(spec):
            h = index[point]
            for r, c in base.items():
                key = r * npts + h
                vec[key] = vec.get(key, 0) + coeff * c
        vec = {k: v for k, v in vec.items() if v}
        if not vec:
            return True
        return basis.contains(vec)

    def min_locality_order(self, i: int, k: int, j: int, Nmax: int = 4,
                           n: int = 0, m: int = 0) -> int | None:
        """Smallest N <= Nmax whose residue lies in the ideal, or None.

        None means no certificate exists inside this window, not a proof
        of non-locality.
        """
        if Nmax < 0:
            raise InputError(f"largest locality order Nmax must be >= 0, got {Nmax}")
        for N in range(Nmax + 1):
            if self.contains_residue(ResidueSpec(i=i, k=k, j=j, N=N, n=n, m=m)):
                return N
        return None

    def sweep(self, k: int = 0, Nmax: int = 4, n: int = 0, m: int = 0):
        """min_locality_order for every (inner, outer) operation pair."""
        if Nmax < 0:  # checked here too, for an operad with no pairs to search
            raise InputError(f"largest locality order Nmax must be >= 0, got {Nmax}")
        d = self.P.dim_gens
        return {
            (i, j): self.min_locality_order(i, k, j, Nmax=Nmax, n=n, m=m)
            for i in range(d)
            for j in range(d)
        }


def build_instance(P: QuadOperad, K: int = 6) -> LocalityInstance:
    return LocalityInstance(P, K)
