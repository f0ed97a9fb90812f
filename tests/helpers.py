"""Shared randomised constructions for the test suite."""

from fractions import Fraction
from itertools import product as iproduct

from quadop.core.free3 import GeneratorSpace, s3_closure
from quadop.core.operad import QuadOperad
from quadop.core.perms import REPS
from quadop.linalg import SubspaceQ, invert_matrix, kernel_basis
from quadop.manin import _pair_index, _product_space


def random_involutive_space(rng, d):
    """A random rational S2-module: conjugate of a diagonal sign matrix by a
    random invertible integer matrix."""
    diag = [rng.choice((1, -1)) for _ in range(d)]
    while True:
        T = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        Tinv = invert_matrix(T)
        if Tinv is not None:
            break
    swap = tuple(
        tuple(
            sum((T[i][k] * diag[k] * Tinv[k][j] for k in range(d)), Fraction(0))
            for j in range(d)
        )
        for i in range(d)
    )
    names = tuple(f"g{i}" for i in range(d))
    return GeneratorSpace(names, swap)


def random_operad(rng, d, nseeds=2, name="random"):
    space = random_involutive_space(rng, d)
    seeds = []
    for _ in range(nseeds):
        seeds.append({
            idx: Fraction(rng.randint(-3, 3))
            for idx in rng.sample(range(space.free3_dim), k=min(3, space.free3_dim))
        })
    rel = s3_closure(space, seeds)
    return QuadOperad(name, space, rel)


def span_sum(a, b):
    """The sum of two subspaces of the same ambient space."""
    assert a.ambient_dim == b.ambient_dim
    return SubspaceQ.from_vectors(a.ambient_dim, a.rows() + b.rows())


def contains_subspace(big, small):
    """Whether every canonical row of small lies in big."""
    return all(big.contains(r) for r in small.rows())


def white_by_projection(P, Q):
    """Relations of the white product P o Q as the kernel of the evaluation
    F_{V(x)W}(3) -> P(3) (x) Q(3), read from the Fraction columns of the two
    p3_projection maps.  Kept as the reference for white_product, which
    reaches the same subspace through the annihilator rows."""
    space = _product_space(P, Q, "*", 1)
    pair = _pair_index(P, Q)
    dP, dQ = P.dim_gens, Q.dim_gens
    projP = P.p3_projection()
    projQ = Q.p3_projection()
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for s_idx, sigma in enumerate(REPS):
        for i, p, j, q in iproduct(range(dP), range(dQ), range(dP), range(dQ)):
            col = space.flat(sigma, pair(i, p), pair(j, q))
            colP = projP[P.space.flat(sigma, i, j)]
            colQ = projQ[Q.space.flat(sigma, p, q)]
            for alpha, a in colP.items():
                for beta, b in colQ.items():
                    rows.setdefault((alpha, beta), {})[col] = a * b
    return kernel_basis(list(rows.values()), space.free3_dim)
