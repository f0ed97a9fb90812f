"""Koszul duals of binary quadratic operads.

The dual generator space is V* twisted by the sign representation.  In the
paired coordinate basis this means the dual swap matrix is the negated
transpose of the original.  The weight-3 pairing between the dual free space
and the free space is then the identity on matching (sigma, outer, inner)
monomials, and is S3-invariant up to the sign of the permutation; that sign
is checked in the tests, not re-derived here.

The dual relation space is the annihilator of R under this pairing, which in
coordinates is a plain kernel computation: SubspaceQ.perp(), one elimination
of R's canonical rows from the right.  When R is itself a complement made by
perp() (a dual, or the relations of a white product, which kernel_basis
makes as the perp() of a span), that kernel is read back from the complement
instead of eliminated again.  The dual still goes through the QuadOperad
constructor, so its S3-stability guard runs on every dual.
"""

from __future__ import annotations

from quadop.core.free3 import GeneratorSpace
from quadop.core.operad import QuadOperad
from quadop.errors import InternalCheckError
from quadop.linalg import add_scaled


def _strippable_primes(name: str) -> int:
    """How many trailing primes name can lose and stay a valid generator
    name: all of them, less one when losing all would leave it empty or
    ending in whitespace."""
    base = name.rstrip("'")
    return len(name) - len(base) - (not base or base != base.strip())


def dual_generators(space: GeneratorSpace) -> GeneratorSpace:
    """Sign-twisted dual space in paired coordinates: swap -> -swap^T.

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
    # Column i of -swap^T is row i of swap, negated.
    cols = [{j: -x for j, x in enumerate(row) if x} for row in space.swap]
    return GeneratorSpace.from_columns(names, cols)


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
    matrix identity swap_dual . swap^T = -I.

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
    space = P.space
    dspace = dual.space
    d = space.dim
    if dspace.dim != d:
        raise InternalCheckError("dual generator count differs from the original")

    for i in range(d):
        for j in range(d):
            acc = sum(dspace.swap[i][m] * space.swap[j][m] for m in range(d))
            if acc != (-1 if i == j else 0):
                return False

    jac = {}
    for u, v in zip(dual.p3_projection(), P.p3_projection()):
        add_scaled(jac, (((r, c), a * b) for r, a in u.items() for c, b in v.items()))
    return not jac
