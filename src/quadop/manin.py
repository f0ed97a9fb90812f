"""Manin products, replication, and dendriform splitting.

Both Manin products are one tensor construction.  The tensor row of r over
P's F(3) and s over Q's F(3) is their elementwise product on matching
sigma-blocks, (r . s)[(sigma,(i,p),(j,q))] = r[(sigma,i,j)] s[(sigma,p,q)].

White product: generators are pairs g*h, and the relations are the
annihilator of the tensor rows of the annihilators, (R_P^perp . R_Q^perp)^perp.
The annihilator rows of R are the coordinate functionals of P(3), so this is
the kernel of the evaluation F_{V(x)W}(3) -> P(3) (x) Q(3).

Black product: generators g•h, relations spanned by the tensor rows of the
relation bases, R_P . R_Q.  This equals the Koszul dual of the white product
of the duals, (P o Q)^! = P^! • Q^!; that identity is checked by
`quadop selfcheck` and the tests, not on every call.

Splitting (Bai, Bellier, Guo and Ni, IMRN 2013): each generator of Q splits
into succ/prec (and perp in the post flavour), with the (12)-action twisted
by a sign on the succ/prec pair.  The relations of the split operad are
indexed by a relation f of Q and a nonempty subset M of the three argument
positions.  Each monomial of f is rewritten by a 7-entry table, keyed by
the argument slots of the monomial that M holds, into (outer part, inner
part) pairs; the rewrite writes their flat indices in the split space
directly, signed -1 when exactly one leg is a prec.  That sign is D (x) D,
D = -1 on prec generators: the table is S3-consistent for the unsigned
action D S' D, S' the split space's swap, and D conjugates that action
into S', so the seeds span an S3-stable space.  The constructor's guard
checks it.
"""

from __future__ import annotations

from quadop.core.free3 import GeneratorSpace, Vec
from quadop.core.operad import QuadOperad
from quadop.errors import InputError
from quadop.koszul import dual_operad
from quadop.linalg import IntRow, SubspaceQ, add_scaled, kernel_basis


def _pair_index(P: QuadOperad, Q: QuadOperad):
    e = Q.dim_gens

    def pair(i: int, p: int) -> int:
        return i * e + p

    return pair


def _product_space(P: QuadOperad, Q: QuadOperad, sep: str, sign: int) -> GeneratorSpace:
    """Swap columns: the signed Kronecker product of P's and Q's.  The
    generator of the pair (g, h) is named g<sep>h; names that themselves
    contain sep can make two pairs join to one name, which is refused."""
    made: dict[str, tuple[str, str]] = {}
    for g in P.space.names:
        for h in Q.space.names:
            name = f"{g}{sep}{h}"
            if name in made:
                raise InputError(
                    f"product generator name {name!r} is made by two pairs, "
                    f"{made[name]!r} and {(g, h)!r}; rename a generator of either operand"
                )
            made[name] = (g, h)
    names = tuple(made)
    pair = _pair_index(P, Q)
    cols = [
        {pair(m, q): sign * a * b for m, a in col_P for q, b in col_Q}
        for col_P in P.space.swap_columns
        for col_Q in Q.space.swap_columns
    ]
    return GeneratorSpace.from_columns(names, cols)


def _split_by_sigma(rows, d: int, outer_w: int, inner_w: int, block_w: int):
    """Each row over an F(3) with d generators as three lists, one per
    sigma-block, of (block * block_w + outer * outer_w + inner * inner_w,
    value) for its monomials (block, outer, inner)."""
    out = []
    for r in rows:
        blocks = ([], [], [])
        for c, a in r.items():
            s, rest = divmod(c, d * d)
            i, j = divmod(rest, d)
            blocks[s].append((s * block_w + i * outer_w + j * inner_w, a))
        out.append(blocks)
    return out


def _tensor_rows(P: QuadOperad, rows_P, Q: QuadOperad, rows_Q,
                 space: GeneratorSpace) -> list[IntRow]:
    """The nonzero elementwise products of rows over P's and Q's F(3),
    placed in the product space:
    (r . s)[(sigma,(i,p),(j,q))] = r[(sigma,i,j)] s[(sigma,p,q)].

    With e = Q.dim_gens and f = e * P.dim_gens that index is
    sigma*f*f + (i*f + j)*e + p*f + q: a part from r plus a part from s,
    each read off once per row by _split_by_sigma."""
    e, f = Q.dim_gens, space.dim
    split_Q = _split_by_sigma(rows_Q, e, f, 1, 0)
    vectors = []
    for blocks_P in _split_by_sigma(rows_P, P.dim_gens, f * e, e, f * f):
        for blocks_Q in split_Q:
            vec: IntRow = {}
            for block_P, block_Q in zip(blocks_P, blocks_Q):
                for off, b in block_Q:
                    for base, a in block_P:
                        vec[base + off] = a * b
            if vec:
                vectors.append(vec)
    return vectors


def white_product(P: QuadOperad, Q: QuadOperad) -> QuadOperad:
    """Manin white product P o Q: the annihilator of the tensor rows of the
    annihilators, (R_P^perp . R_Q^perp)^perp."""
    space = _product_space(P, Q, "*", 1)
    rows = _tensor_rows(P, P.relations.annihilator_rows(),
                        Q, Q.relations.annihilator_rows(), space)
    return QuadOperad(f"white({P.name},{Q.name})", space, kernel_basis(rows, space.free3_dim))


def black_product(P: QuadOperad, Q: QuadOperad) -> QuadOperad:
    """Manin black product P • Q: the span of the tensor rows of the
    relations, R_P . R_Q."""
    space = _product_space(P, Q, "•", -1)
    rows = _tensor_rows(P, P.relations.rows(), Q, Q.relations.rows(), space)
    rel = SubspaceQ.from_vectors(space.free3_dim, rows)
    return QuadOperad(f"black({P.name},{Q.name})", space, rel)


# Replication kind -> the catalog entry it takes the white product with.
REPLICATION_PARTNERS = {"di": "Perm", "tri": "ComTriAs"}


def replicate(kind: str, P: QuadOperad) -> QuadOperad:
    """Di- or tri-replication, as a white product with the matching operad."""
    from quadop.core.catalog import catalog  # late import; catalog builds use this module

    if kind not in REPLICATION_PARTNERS:
        raise InputError(f"replication kind must be 'di' or 'tri', got {kind!r}")
    return white_product(catalog(REPLICATION_PARTNERS[kind]), P).renamed(f"{kind}({P.name})")


# Splitting: generator g of Q becomes succ/prec (+ perp) copies.


def _split_space(Q: QuadOperad, mode: str) -> GeneratorSpace:
    """Generator space of the split operad, matching the black product's
    sign-twisted tensor: (12)succ_i = -sum swap[m][i] prec_m and likewise for
    prec, while perp keeps the plain action."""
    e = Q.dim_gens
    blocks = ("succ", "prec", "perp") if mode == "post" else ("succ", "prec")
    names = tuple(f"{g}_{suffix}" for suffix in blocks for g in Q.space.names)
    # For each block: the offset of the block (12) sends it to, and the sign.
    images = ((e, -1), (0, -1), (2 * e, 1))[:len(blocks)]
    cols = [
        {offset + m: sign * x for m, x in col}
        for offset, sign in images
        for col in Q.space.swap_columns
    ]
    return GeneratorSpace.from_columns(names, cols)


# The argument slots of e_i(e_j(x_a, x_b), x_c) that a subset M holds, as
# (x_a in M, x_b in M, x_c in M) -> the (outer part, inner part) pairs the
# monomial is rewritten to, parts 0 succ, 1 prec, 2 perp.  M holding x_c
# alone gives the star: every part of the inner leg.
_SPLIT_TABLE = {
    (True, False, False): ((1, 1),),
    (False, True, False): ((1, 0),),
    (False, False, True): ((0, 0), (0, 1), (0, 2)),
    (True, True, False): ((1, 2),),
    (True, False, True): ((2, 1),),
    (False, True, True): ((2, 0),),
    (True, True, True): ((2, 2),),
}


def _split_monomial(space: GeneratorSpace, e: int, sigma, i: int, j: int, M: frozenset):
    """Rewrite of the monomial (sigma, i, j) of Q, e = Q.dim_gens, for the
    argument subset M, as (flat index in the split space, sign) pairs.

    The monomial reads e_i(e_j(x_sigma(1), x_sigma(2)), x_sigma(3)); its
    table row is the slots M holds.  A pair (po, pi) is the unit at
    flat(sigma, po*e + i, pi*e + j): for sigma in REPS that unit is sigma
    applied to (id, po*e + i, pi*e + j), and the split of a permuted
    monomial under M is the permuted split under sigma^-1 M, so no action
    is applied.  The pre flavour has no perp part and drops the pairs that
    need one.  The sign is that of D (x) D, D = -1 on prec legs: -1 when
    exactly one leg is a prec, which carries the table's S3-consistency
    under D S' D over to the split space's own swap S'.
    """
    for po, pi in _SPLIT_TABLE[tuple(k in M for k in sigma)]:
        if pi * e < space.dim:
            yield space.flat(sigma, po * e + i, pi * e + j), -1 if (po == 1) != (pi == 1) else 1


def split(Q: QuadOperad, mode: str) -> QuadOperad:
    """Dendriform-style splitting of Q (mode 'pre') or its perp-extended
    version (mode 'post').

    The relations are spanned by the substitution table applied to the
    canonical relation basis of Q, for every relation and subset M, built
    directly in the split space.  Their span is S3-stable because the table
    is; the constructor's S3-stability guard checks the table.
    """
    if mode not in ("pre", "post"):
        raise InputError(f"split mode must be 'pre' or 'post', got {mode!r}")
    space = _split_space(Q, mode)
    if mode == "post":
        subsets = [frozenset(s) for s in
                   ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]
    else:
        subsets = [frozenset(s) for s in ({1}, {2}, {3})]
    seeds = []
    for f in Q.relations.rows():
        for M in subsets:
            vec: Vec = {}
            for c, coeff in f.items():
                sigma, i, j = Q.space.unflat(c)
                # Distinct monomials and pairs land on distinct indices.
                for col, sign in _split_monomial(space, Q.dim_gens, sigma, i, j, M):
                    vec[col] = sign * coeff
            seeds.append(vec)
    rel = SubspaceQ.from_vectors(space.free3_dim, seeds)
    return QuadOperad(f"split_{mode}({Q.name})", space, rel)


def verify_black_tensor(P: QuadOperad, Q: QuadOperad, B: QuadOperad) -> bool:
    """Check that a P!-algebra tensored with a B-algebra satisfies Q.

    For every relation h of Q the element

        sum_{monomials (tau,jo,ji) of h} c sum_{io,ii}
            [image of (tau,io,ii) in P!(3)] (x) [image of (tau,(io,jo),(ii,ji)) in B(3)]

    must vanish.  B's generators must be indexed like pairs from P and Q.
    """
    dP, dQ = P.dim_gens, Q.dim_gens
    if B.dim_gens != dP * dQ:
        raise InputError(
            f"{B.name} has {B.dim_gens} generators, expected {dP}*{dQ}={dP * dQ}"
        )
    dual = dual_operad(P)
    pair = _pair_index(P, Q)
    projD, projB = dual.p3_projection(), B.p3_projection()
    for h in Q.relations.rows():
        total: dict[tuple[int, int], int] = {}
        for c, coeff in h.items():
            tau, jo, ji = Q.space.unflat(c)
            for io in range(dP):
                for ii in range(dP):
                    u = projD[dual.space.flat(tau, io, ii)]
                    v = projB[B.space.flat(tau, pair(io, jo), pair(ii, ji))]
                    add_scaled(total, (((r, col), a * b) for r, a in u.items()
                                       for col, b in v.items()), coeff)
        if total:
            return False
    return True
