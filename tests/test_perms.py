from quadop.core.perms import (
    CYC123,
    CYC132,
    IDENT,
    REPS,
    S3,
    SWAP12,
    compose,
    coset_decompose,
    sign,
)


def test_group_axioms():
    for p in S3:
        assert compose(p, IDENT) == p
        assert compose(IDENT, p) == p
    for p in S3:
        for q in S3:
            for r in S3:
                assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_signs():
    assert sign(IDENT) == 1
    assert sign(SWAP12) == -1
    assert sign(CYC123) == 1
    assert sign(CYC132) == 1
    for p in S3:
        for q in S3:
            assert sign(compose(p, q)) == sign(p) * sign(q)


def test_cycles_compose_as_expected():
    assert compose(CYC123, CYC123) == CYC132
    assert compose(CYC123, CYC132) == IDENT


def test_coset_decomposition():
    # Every permutation factors as rep after tail with rep a chosen cyclic
    # representative and tail either trivial or the transposition.
    for p in S3:
        rep, tail = coset_decompose(p)
        assert rep in REPS
        assert tail in (IDENT, SWAP12)
        assert compose(rep, tail) == p
        assert (tail == IDENT) == (sign(p) == 1)
