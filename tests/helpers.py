"""Shared randomised constructions for the test suite."""

from fractions import Fraction

from quadop.core.free3 import GeneratorSpace, s3_closure
from quadop.core.operad import QuadOperad
from quadop.linalg import SubspaceQ, invert_matrix


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
