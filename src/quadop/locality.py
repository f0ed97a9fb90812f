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

Every residue is base (x) g, with g an integer function on the points of
one block and base the P(3) image of the identity monomial
(x1 {i} x2) {j} x3, so base lies in V_1 = V_id, whose outer coordinate
gamma_1 is n_c.  Membership depends on base only through its level, and
each level is a closed form, with no elimination:

* level 0, base = 0: always a member;
* level 1, base in V_1 cap V_2 + V_1 cap V_3: sum g = 0;
* level 2, base in V_1 cap (V_2 + V_3): sum g = 0 and sum g(p) n_c(p) = 0;
* level 3, any other base: g sums to zero over each value of n_c.

The level is read off R's rows.  Write B_1, B_2, B_3 for the column blocks
of the three sigmas in F(3) (B_1 the identity block, c < d*d), r_s for the
part of a row r on B_s and pi for the projection onto B_1.  A row u on B_1
maps into V_s exactly when u - w lies in R for some w on B_s, that is when
u = pi(r) for an r in R that is zero on the third block.  So the image of
u is 0, in V_1 cap V_2 + V_1 cap V_3, or in V_2 + V_3 (which for a row of
V_1 is V_1 cap (V_2 + V_3)) exactly when u lies in, respectively,
Z_0 = pi(R cap {r_2 = r_3 = 0}), Z_1 = pi(R cap {r_3 = 0}) + pi(R cap
{r_2 = 0}) or Z_2 = pi(R), the projection dong.py reads.  The pair (i, j)
has the level of the first of these that holds the unit row at
flat(IDENT, j, i), and 3 if none does.  One elimination of R's rows with
the blocks regrouped as (B_3, B_2, B_1) gives R cap {r_3 = 0} (the rows
pivoted past B_3) and R cap {r_2 = r_3 = 0} (those pivoted in B_1).  The
other meet needs none: (12) fixes B_1, swapping the inner leg, and
exchanges B_2 with B_3, so on the (12)-stable R, which the QuadOperad
guard certifies, it maps R cap {r_3 = 0} onto R cap {r_2 = 0}, and
pi(R cap {r_2 = 0}) is the (12) image of pi(R cap {r_3 = 0}).  The
subspaces and the level table of the d*d pairs are found once per
operad, by QuadOperad.identity_block and identity_levels, and every
window of the operad reads them.  On a residue these tests reduce to a
comparison of the level with k and N (below), so no residue is expanded.

Proof.  Three subspaces of one space decompose it into indecomposable
pieces of only nine types (the D4 quiver is of finite type:
Gelfand-Ponomarev 1970, Gabriel 1972).  Eight are lines (1; S), one for
each set S of the sigmas whose pair space contains the line; the ninth is
a plane whose three pair spaces are three distinct lines e1, e2 and
e1 - e2.  The block of the ideal is the direct sum, over summands, of the
summand tensored with the sum of the D_sigma of its sigmas, so base (x) g
is a member exactly when the component of base in every summand is.  Each
summand has a closed form:

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

Each V_sigma is the direct sum of its summands' parts in it, so
meets (cap) and sums of pair spaces are taken summand by summand.  A
base in V_1 has components only in lines (1; S) with sigma_1 in S and in
planes along e1 (c2 = 0), whose conditions are nested:
D_1 lies in {sum g = 0 and sum g gamma_1 = 0}, which lies in {sum g = 0}
(a function with zero sum on every 1-line has zero sum and zero moment in
gamma_1).  So the strictest component decides.  V_1 cap V_2 + V_1 cap V_3
is the sum of the lines (1; S) with sigma_1 and another sigma in S;
V_1 cap (V_2 + V_3) adds the e1 of every plane, as e1 = e2 + (e1 - e2);
outside it base has a (1; sigma_1) component.

The order, read off the level.  The residue of (i, k, j, N) at the anchor
(n, m) has the points (k - t, n - s + t, m + s), 0 <= s <= N and 0 <= t <= k,
with coefficient (-1)^(s+t) C(N, s) C(k, t).  The first coordinate fixes t
and the third fixes s, so no two points coincide.  The sum of g over
n_c = m + s is (-1)^s C(N, s) (1 - 1)^k.

* For k >= 1 every such sum is 0, so every level is a member already at
  N = 0.
* For k = 0 the sum over n_c = m + s is (-1)^s C(N, s), never 0, so level 3
  is never a member.  The total sum g = (1 - 1)^N vanishes from N = 1.  The
  moment sum g n_c = m (1 - 1)^N - N (1 - 1)^(N - 1) vanishes from N = 2
  (it is -1 at N = 1).

So the residue is a member exactly when level = 0, or k > 0, or level < 3
and N >= level: the order is 0 at level 0 or k >= 1, else the level (1 or
2), and none at level 3.  The window radius K and the anchor only decide
whether the residue fits in the window.

Level 3 is the Dong support.  The perp of Z_2 = pi(R) is the Dong block
kernel (dong.py): the functionals w on F(3) supported on B_1 that kill R,
which are the functionals on P(3) that kill V_2 + V_3.  The unit row at c
lies outside Z_2 exactly when w_c != 0 for some kernel vector w, so the
pairs of level 3 are those at which some kernel vector is nonzero.

Membership is a sound certificate: every ideal generator is a genuine
relation, so a residue found inside the span really does vanish, and a
found order certifies exactly that.  A null at level 3 is a proof of
non-locality: for a kernel vector w with w_c != 0, w (x) [n_c = m] kills the
ideal (w kills V_2 and V_3, and [n_c = m] is constant on every 1-line, so
it sums g of D_1 to 0) and takes the value w_c on the residue at k = 0, for
every N and in every window.  A null at levels 1 and 2 only means that Nmax
is below the level.
"""

from __future__ import annotations

from dataclasses import dataclass

from quadop.core.operad import QuadOperad
from quadop.core.perms import IDENT
from quadop.errors import InputError

# Largest window radius K, checked before anything is built.  Membership
# reads only the pair's level, k and N, so this is a bound on the input, not
# on the work: the tests check the level tests against the eliminated
# reference blocks for every K up to it.
MAX_WINDOW = 16


def _order(level: int, k: int, Nmax: int) -> int | None:
    """The least N <= Nmax at which a residue of this level and k is a
    member, or None (module docstring)."""
    if not level or k > 0:
        return 0
    return level if level < 3 and level <= Nmax else None


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

    The locality ideal preserves the total index T = n_a+n_b+n_c, so
    membership tests run inside a single T-graded block.  For a residue the
    test reads only the pair's level, k and N (module docstring).  After
    the checks on K, `levels` is P.identity_levels(), the level of every
    identity monomial by flat column, which the operad tabulates on its
    first window and every later window shares.
    """

    def __init__(self, P: QuadOperad, K: int):
        if K < 1:
            raise InputError("window radius K must be at least 1")
        if K > MAX_WINDOW:
            raise InputError(f"window radius K={K} exceeds the cap of {MAX_WINDOW}")
        self.P = P
        self.K = K
        self.levels = P.identity_levels()

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
        self._check_fit(spec)

    def _check_fit(self, spec: ResidueSpec) -> None:
        need = spec.required_radius()
        if need > self.K:
            raise InputError(
                f"residue {spec} does not fit in window radius K={self.K}; requires K >= {need}"
            )

    def contains_residue(self, spec: ResidueSpec) -> bool:
        self._check_window(spec)
        level = self.levels[self.P.space.flat(IDENT, spec.j, spec.i)]
        return _order(level, spec.k, spec.N) is not None

    def _pair_order(self, i: int, k: int, j: int, Nmax: int, n: int, m: int) -> int | None:
        # The N = 0 residue fits, so |n| <= K and |m| <= K, and the order-N
        # residue fits exactly while n - N >= -K and m + N <= K, that is
        # while N <= K + min(n, -m).  A search of N = 0, 1, ... up to the
        # order (Nmax when there is none) raises at the first N past that.
        order = _order(self.levels[self.P.space.flat(IDENT, j, i)], k, Nmax)
        first_misfit = self.K + 1 + min(n, -m)
        if first_misfit <= (Nmax if order is None else order):
            self._check_fit(ResidueSpec(i, k, j, first_misfit, n, m))
        return order

    def min_locality_order(self, i: int, k: int, j: int, Nmax: int = 4,
                           n: int = 0, m: int = 0) -> int | None:
        """Smallest N <= Nmax whose residue lies in the ideal, or None.

        That is 0 at level 0 or k >= 1, else the pair's level when it is at
        most Nmax (module docstring), read off the level with no search.
        None at level 3 is a proof of non-locality; None at levels 1 and 2
        only means Nmax is below the level.  It raises where a search of
        N = 0, 1, ... would: at the first N up to the order (Nmax when there
        is none) whose residue does not fit in the window, named in the
        message.
        """
        if Nmax < 0:
            raise InputError(f"largest locality order Nmax must be >= 0, got {Nmax}")
        self._check_window(ResidueSpec(i, k, j, 0, n, m))
        return self._pair_order(i, k, j, Nmax, n, m)

    def sweep(self, k: int = 0, Nmax: int = 4, n: int = 0, m: int = 0):
        """min_locality_order for every (inner, outer) operation pair.

        Nmax, k and the fit of the N = 0 residue are checked once up front,
        so an operad with no pair refuses the input that one with pairs
        does.  Each pair's order is then read off its level, in (i, j)
        order, so the first pair whose search would raise is the one that
        raises, with the message min_locality_order gives."""
        if Nmax < 0:
            raise InputError(f"largest locality order Nmax must be >= 0, got {Nmax}")
        if k < 0:
            raise InputError("n-product order k must be >= 0")
        self._check_fit(ResidueSpec(i=0, k=k, j=0, N=0, n=n, m=m))
        d = self.P.dim_gens
        return {(i, j): self._pair_order(i, k, j, Nmax, n, m) for i in range(d) for j in range(d)}


def build_instance(P: QuadOperad, K: int = 6) -> LocalityInstance:
    """LocalityInstance(P, K), kept because perfbench/spans.py times the
    locality set-up by wrapping this name."""
    return LocalityInstance(P, K)
