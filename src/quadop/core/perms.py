"""S3 bookkeeping.

A permutation is the tuple of images (pi(1), pi(2), pi(3)).  Composition is
function composition: compose(p, q) sends t to p(q(t)), so q acts first.

The weight-3 part of a free binary operad is indexed by the three cyclic
permutations (coset representatives of S2 = <(12)> acting on the inner pair),
so we fix that transversal here once and for all.
"""

from __future__ import annotations

from itertools import permutations

Perm = tuple[int, int, int]

IDENT: Perm = (1, 2, 3)
SWAP12: Perm = (2, 1, 3)
CYC123: Perm = (2, 3, 1)  # 1 -> 2 -> 3 -> 1
CYC132: Perm = (3, 1, 2)  # 1 -> 3 -> 2 -> 1

S3: tuple[Perm, ...] = tuple(permutations((1, 2, 3)))
REPS: tuple[Perm, ...] = (IDENT, CYC123, CYC132)

REP_INDEX = {rep: k for k, rep in enumerate(REPS)}


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return (p[q[0] - 1], p[q[1] - 1], p[q[2] - 1])


def sign(p: Perm) -> int:
    inv_count = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
    return -1 if inv_count % 2 else 1


def coset_decompose(p: Perm) -> tuple[Perm, Perm]:
    """Write p = rep . tail with rep in REPS and tail in {id, (12)}.

    tail acts first, so even permutations pair with the identity and odd ones
    with (12).  For example (13) = (123).(12) and (23) = (132).(12).
    """
    if p in REP_INDEX:
        return p, IDENT
    return compose(p, SWAP12), SWAP12
