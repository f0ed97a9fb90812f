"""Koszul duals of binary quadratic operads.

The dual generator space is V* twisted by the sign representation.  In the
paired coordinate basis this means the dual swap matrix is the negated
transpose of the original, -S^T.  The weight-3 pairing between the dual
free space and the free space is then the identity on matching (sigma,
outer, inner) monomials, and is S3-invariant up to the sign of the
permutation; that sign is checked in the tests, not re-derived here.

twisted_columns is the one place that forms -S^T, from S's sparse columns:
dual_generators builds the dual space from it, and dong_verdict tests a
given dual's swap against it.  verify_jacobi_duality checks the convention
on its own terms, as the sparse product swap_dual . S^T = -I.

The dual relation space is the annihilator of R under this pairing, which in
coordinates is a plain kernel computation: SubspaceQ.perp(), one elimination
of R's canonical rows from the right.  When R is itself a complement made by
perp() (a dual, or the relations of a white product, which kernel_basis
makes as the perp() of a span), that kernel is read back from the complement
instead of eliminated again.  The dual still goes through the QuadOperad
constructor, so its S3-stability guard runs on every dual.
"""

from __future__ import annotations

from fractions import Fraction

from quadop.core.free3 import GeneratorSpace
from quadop.core.operad import QuadOperad
from quadop.linalg import add_scaled


def _strippable_primes(name: str) -> int:
    """How many trailing primes name can lose and stay a valid generator
    name: all of them, less one when losing all would leave it empty or
    ending in whitespace."""
    base = name.rstrip("'")
    return len(name) - len(base) - (not base or base != base.strip())


def twisted_columns(space: GeneratorSpace) -> tuple[tuple[tuple[int, int | Fraction], ...], ...]:
    """The swap of the sign-twisted dual, -S^T, in swap_columns form:
    column i is row i of S, negated, read off S's sparse columns in
    column order."""
    cols: list[list] = [[] for _ in range(space.dim)]
    for j, col in enumerate(space.swap_columns):
        for m, x in col:
            cols[m].append((j, -x))
    return tuple(map(tuple, cols))


def dual_generators(space: GeneratorSpace) -> GeneratorSpace:
    """Sign-twisted dual space in paired coordinates: its swap is
    twisted_columns(space), -S^T.

    Names lose a prime when the number of primes all of them can lose
    (_strippable_primes) is odd, and gain one otherwise.  That number
    differs by one between a space and its dual, so the toggle is an
    involution: double duals come back under their own names, and a
    stripped name is always valid.
    """
    if min(map(_strippable_primes, space.names), default=0) % 2:
        names = tuple(n[:-1] for n in space.names)
    else:
        names = tuple(n + "'" for n in space.names)
    return GeneratorSpace.from_columns(names, twisted_columns(space))


def dual_operad(P: QuadOperad) -> QuadOperad:
    """Koszul dual: dual generators with the annihilator of R as relations."""
    space = dual_generators(P.space)
    rel = P.relations.perp()
    # Stability of the annihilator is a theorem given the sign-twisted action;
    # the QuadOperad constructor re-checks it as a guard against convention bugs.
    return QuadOperad(f"dual({P.name})", space, rel)


def verify_jacobi_duality(P: QuadOperad, dual: QuadOperad | None = None) -> bool:
    """Check the canonical pairing elements behave like a bracket.

    Degree 2: r = sum_i e_i' (x) e_i must be (12)-antisymmetric, which is the
    matrix identity swap_dual . S^T = -I.  It is summed over the nonzeros of
    the two spaces' swap columns: entry (i, j) gathers a * b for each (i, a)
    in column m of the dual's and (j, b) in column m of S.  It does not go
    through twisted_columns, so it also tests the dual that dual_operad
    builds from it.  A dual with another generator count fails this test.

    Degree 3: the Jacobiator
        J = sum_{c < 3d^2} e_c' (x) e_c
    over the flat basis of F(3) must vanish in P!(3) (x) P(3): each term
    pairs the P!(3) image of e_c with the P(3) image of e_c.  For pi in
    REPS the unit pi.(id,j,i) is e_c at c = flat(pi, j, i), so this is the
    sum over pi in REPS and i, j of pi.(id,j,i)' (x) pi.(id,j,i).  Passing
    `dual` explicitly lets callers probe a mismatched pair, which must fail.
    """
    if dual is None:
        dual = dual_operad(P)
    prod: dict[tuple[int, int], int | Fraction] = {}
    add_scaled(prod, (((i, j), a * b)
                      for dcol, col in zip(dual.space.swap_columns, P.space.swap_columns)
                      for i, a in dcol for j, b in col))
    if dual.dim_gens != P.dim_gens or prod != {(i, i): -1 for i in range(P.dim_gens)}:
        return False

    jac = {}
    for u, v in zip(dual.p3_projection(), P.p3_projection()):
        add_scaled(jac, (((r, c), a * b) for r, a in u.items() for c, b in v.items()))
    return not jac
