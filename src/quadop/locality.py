"""Windowed formal-distribution laboratory.

Works in the degree-3 component of a free algebra over ``P`` whose
generators are three families of coefficients a(n), b(n), c(n) with
integer indices restricted to a window [-K, K].  Pairwise locality of
order 1 between the families is imposed as a subspace (the "locality
ideal"), and the question whether an iterated product ``(a k-th b)`` is
local to ``c`` of some order N becomes exact membership of a residue
vector in that subspace.

The ideal preserves the total index T, so it splits into T-blocks.  Each
sigma in REPS has a pair space V_sigma in P(3), the span of the images of
that sigma's monomials, and its placements in a block fall into sigma-lines:
the outer coordinate gamma_sigma(p) = p[sigma[2] - 1] of the point p is
fixed and the two inner indices sum to T - gamma.  The block of the ideal
is the sum over sigma of V_sigma (x) D_sigma, where D_sigma holds the
functions on the block's points that sum to zero on every sigma-line.

Three subspaces of one space decompose it into indecomposable pieces of
only nine types (the D4 quiver is of finite type: Gelfand-Ponomarev 1970,
Gabriel 1972).  Eight are lines (1; S), one for each set S of the sigmas
whose pair space contains the line; the ninth is a plane whose three pair
spaces are three distinct lines e1, e2 and e1 - e2.  P(3) is decomposed
once per instance into such summands, with integer rows only, and the
decomposition checks itself: the summand vectors are a basis of P(3), and
for each sigma the vectors assigned to it span exactly V_sigma.  The block
of the ideal is then the direct sum, over summands, of the summand tensored
with the sum of the D_sigma of its sigmas, so membership is decided summand
by summand.  A residue is base (x) g, with base one P(3) row and g an
integer function on the block's points, and only the summands on which
base has a nonzero coordinate take part.  Each test is a closed form, with
no elimination:

* a line of type S holds u (x) g exactly when g sums to zero on every part
  of the join of the sigma-line partitions, sigma in S (D_P + D_Q is
  D_{P v Q}: the annihilator of both is the functions constant on the parts
  of both).  For S empty every point is its own part, so g = 0; for
  S = {sigma} the parts are the sigma-lines, so g sums to zero over each
  value of gamma_sigma.  For two or more sigmas the join is one part, so
  the test is sum g = 0: for a fixed value x of one outer coordinate, the
  lines of another family that it meets have outer values y in
  [T - K - x, T + K - x] and [-K, K] (the third coordinate T - x - y lies
  in the window), an interval that shifts by 1 when x does, so the
  intervals of consecutive x overlap and every line is joined to every
  other;
* a plane holds (c1 e1 + c2 e2) (x) g exactly when (c1 g, c2 g) lies in
  e1 (x) D_1 + e2 (x) D_2 + (e1 - e2) (x) D_3.  Its annihilator is the
  pairs (phi1, phi2) with phi1 constant on the 1-lines, phi2 on the
  2-lines and phi1 - phi2 on the 3-lines: phi1 = a(gamma_1),
  phi2 = b(gamma_2) and a(gamma_1) - b(gamma_2) a function of
  gamma_3 = T - gamma_1 - gamma_2.  Moving one unit from gamma_2 to gamma_1
  at fixed gamma_3 gives a(x + 1) - a(x) = b(y - 1) - b(y), and by the same
  overlapping intervals these steps are all one constant lambda, so the
  annihilator is (lambda gamma_1 + alpha, -lambda gamma_2 + beta), of
  dimension 3 (2 when the block is one point).  Membership is
  sum g = 0 and sum g(p) (c1 gamma_1(p) - c2 gamma_2(p)) = 0.

Membership is a sound certificate: every ideal generator is a genuine
relation, so a residue found inside the span really does vanish, and a
found order certifies exactly that.  A failed membership only says no
witness exists inside the window (for a line summand: some part with a
nonzero sum), so negative outcomes are evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from quadop.core.operad import QuadOperad
from quadop.core.perms import REPS
from quadop.errors import InputError, InternalCheckError
from quadop.linalg import EchelonBasis, IntRow, SubspaceQ, add_scaled, primitive_row

# Largest window radius K, checked before anything is built.  Membership
# costs the same at every K, so this is a bound on the input, not on the
# work: the tests check the closed forms against the eliminated reference
# blocks for every K up to it.
MAX_WINDOW = 16

# Coefficients (on e1, e2) of the line each sigma, in REPS order, meets a
# plane summand in.
PLANE_LINES = ((1, 0), (0, 1), (1, -1))


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


def _summand_vectors(lines, planes) -> list[IntRow]:
    """The line summands' vectors, then e1 and e2 of each plane."""
    return [u for _, u in lines] + [e for plane in planes for e in plane]


class LocalityInstance:
    """Window of radius K around index 0 for each coefficient family.

    Vectors live in P(3) tensored with the cube of window positions; the
    flat coordinate of (r, n_a, n_b, n_c) is
    ``r*W**3 + (n_a+K)*W**2 + (n_b+K)*W + (n_c+K)`` with ``W = 2K+1``.
    The locality ideal preserves the total index T = n_a+n_b+n_c, so
    membership tests run inside a single T-graded block, by closed forms
    that read only the residue's points and coefficients.
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
        self.line_summands, self.plane_summands = self._decompose()
        self._coordinates = self._coordinate_basis()
        self._checks: dict[tuple[int, int], tuple] = {}

    # -- pair data -----------------------------------------------------

    def _build_pair_bases(self) -> list[SubspaceQ]:
        """For each sigma block, the span of all projected monomials of that
        block (the "pair space")."""
        P = self.P
        out = []
        for sigma in REPS:
            eb = EchelonBasis(self.dim_p3)
            for i in range(P.dim_gens):
                for j in range(P.dim_gens):
                    eb.add(self._projected(sigma, i, j))
            out.append(SubspaceQ.from_echelon(eb))
        return out

    def _projected(self, sigma, outer, inner) -> IntRow:
        """Image of one monomial in P(3), scaled to a primitive integer row
        (scaling changes no span and no membership)."""
        flat = self.P.space.flat(sigma, outer, inner)
        return primitive_row(self.P.project({flat: 1}))

    # -- decomposition of P(3) under the three pair spaces ---------------

    def _decompose(self):
        """Lines (S, u), S the sigma indices whose pair space holds u, and
        planes (e1, e2), together a basis of P(3) adapted to the three pair
        spaces."""
        n = self.dim_p3
        A, B, C = self._pair_bases

        def span(*spaces):
            return SubspaceQ.from_vectors(n, [r for V in spaces for r in V.rows()])

        def complement(sub, rows):
            """The rows that extend the rows of sub to a basis of their
            span, greedily."""
            eb = EchelonBasis(n)
            for r in sub:
                eb.add(r)
            return [r for r in rows if eb.add(r)]

        AB, AC, BC = A.intersect(B), A.intersect(C), B.intersect(C)
        ABC = AB.intersect(C)
        meets = [V.intersect(span(W, X)) for V, W, X in ((A, B, C), (B, A, C), (C, A, B))]
        lines = [((0, 1, 2), u) for u in ABC.rows()]
        for S, V in (((0, 1), AB), ((0, 2), AC), ((1, 2), BC)):
            lines += [(S, u) for u in complement(ABC.rows(), V.rows())]
        planes = [self._split(a, B, C)
                  for a in complement(AB.rows() + AC.rows(), meets[0].rows())]
        for s, V in enumerate((A, B, C)):
            lines += [((s,), u) for u in complement(meets[s].rows(), V.rows())]
        found = _summand_vectors(lines, planes)
        lines += [((), u) for u in complement(found, ({r: 1} for r in range(n)))]
        self._check_decomposition(lines, planes)
        return lines, planes

    def _split(self, a: IntRow, B: SubspaceQ, C: SubspaceQ) -> tuple[IntRow, IntRow]:
        """(e1, e2) = (lam a, lam b) with b in B and a - b in C, for a in
        B + C: the residual of [a | 0 | 1] against the tagged rows
        [b_i | e_i | 0] and [c | 0 | 0] is [0 | -mu | lam] up to scale, with
        lam a = sum mu_i b_i + (a vector of C)."""
        n, brows = self.dim_p3, B.rows()
        lam = n + len(brows)
        eb = EchelonBasis(lam + 1)
        for i, b in enumerate(brows):
            eb.add({**b, n + i: 1})
        for c in C.rows():
            eb.add(c)
        res = eb.residual({**a, lam: 1})
        e2: IntRow = {}
        for i, b in enumerate(brows):
            if res.get(n + i):
                add_scaled(e2, b, -res[n + i])
        return {r: res[lam] * x for r, x in a.items()}, e2

    def _check_decomposition(self, lines, planes) -> None:
        n = self.dim_p3
        vectors = _summand_vectors(lines, planes)
        if len(vectors) != n or SubspaceQ.from_vectors(n, vectors).dim != n:
            raise InternalCheckError(f"locality summands of {self.P.name} are no basis of P(3)")
        assigned: list[list[IntRow]] = [[], [], []]
        for S, u in lines:
            for s in S:
                assigned[s].append(u)
        for e1, e2 in planes:
            for s, (x, y) in enumerate(PLANE_LINES):
                assigned[s].append(add_scaled(add_scaled({}, e1, x), e2, y))
        for s, V in enumerate(self._pair_bases):
            if SubspaceQ.from_vectors(n, assigned[s]) != V:
                raise InternalCheckError(
                    f"locality summands of {self.P.name} do not span pair space {s + 1}"
                )

    def _coordinate_basis(self) -> EchelonBasis:
        """Tagged rows [u_t | e_t], one per summand vector (lines first,
        then e1, e2 of each plane): a row reduced to zero on the left leaves
        its coordinates, up to one common scale, on the right."""
        n = self.dim_p3
        eb = EchelonBasis(2 * n)
        for t, u in enumerate(_summand_vectors(self.line_summands, self.plane_summands)):
            eb.add({**u, n + t: 1})
        return eb

    def _summand_checks(self, base: IntRow):
        """The line types S and the plane coordinates (c1, c2) on which a
        P(3) row has a nonzero component."""
        n, nlines = self.dim_p3, len(self.line_summands)
        coords = {t - n: x for t, x in self._coordinates.residual(base).items()}
        types = sorted({self.line_summands[t][0] for t in coords if t < nlines})
        pairs = []
        for p in range(len(self.plane_summands)):
            c = (coords.get(nlines + 2 * p, 0), coords.get(nlines + 2 * p + 1, 0))
            if any(c) and c not in pairs:
                pairs.append(c)
        return types, pairs

    # -- membership ----------------------------------------------------

    def _contains(self, checks, f: dict[tuple[int, int, int], int]) -> bool:
        """Whether base (x) f lies in the ideal, for the summand checks of
        base and f an integer function on window points of one total index."""
        g = {point: c for point, c in f.items() if c}
        if not g:
            return True
        types, pairs = checks
        total = sum(g.values())
        for S in types:
            if len(S) == 1:
                outer = REPS[S[0]][2] - 1
                sums: dict[int, int] = {}
                for point, c in g.items():
                    sums[point[outer]] = sums.get(point[outer], 0) + c
                if any(sums.values()):
                    return False
            elif not S or total:  # each point its own part, or one part
                return False
        if pairs and total:
            return False
        first, second = (sigma[2] - 1 for sigma in REPS[:2])
        m1 = sum(c * point[first] for point, c in g.items())
        m2 = sum(c * point[second] for point, c in g.items())
        return not any(c1 * m1 - c2 * m2 for c1, c2 in pairs)

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
        for s in range(spec.N + 1):
            cs = (-1) ** s * math.comb(spec.N, s)
            for t in range(spec.k + 1):
                coeff = cs * (-1) ** t * math.comb(spec.k, t)
                yield coeff, (spec.k - t, spec.n - s + t, spec.m + s)

    def contains_residue(self, spec: ResidueSpec) -> bool:
        self._check_window(spec)
        checks = self._checks.get((spec.i, spec.j))
        if checks is None:
            base = self._projected(REPS[0], spec.j, spec.i)
            checks = self._checks[(spec.i, spec.j)] = self._summand_checks(base)
        f: dict[tuple[int, int, int], int] = {}
        for coeff, point in self._residue_terms(spec):
            f[point] = f.get(point, 0) + coeff
        return self._contains(checks, f)

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
