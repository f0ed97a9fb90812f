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
positions; each monomial of f is rewritten according to how M sits relative
to its arguments, and signed when exactly one of its legs is a prec.
"""

from __future__ import annotations

from quadop.core.free3 import GeneratorSpace, Vec, act
from quadop.core.operad import QuadOperad
from quadop.core.perms import IDENT
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


def _split_monomial(space: GeneratorSpace, Q: QuadOperad, mode: str,
                    sigma, i: int, j: int, M: frozenset) -> Vec:
    """Rewrite of the monomial (sigma, i, j) of Q for argument subset M.

    With k1, k2, k3 = sigma(1), sigma(2), sigma(3) the monomial reads
    e_i(e_j(x_k1, x_k2), x_k3); the subset M selects which arguments the
    splitting points at, and the table below assigns the split operations.
    Star is the sum of all components of the split.
    Each shape carries its sign under D (x) D, D = -1 on prec legs: the
    table is S3-consistent for the unsigned (Rota-Baxter) action D S D.
    """
    e = Q.dim_gens
    succ, prec = lambda g: g, lambda g: e + g
    perp = lambda g: 2 * e + g
    k1, k2, k3 = sigma
    star = [succ(j), prec(j)] + ([perp(j)] if mode == "post" else [])
    if M == {k1}:
        shapes = [(prec(i), prec(j))]
    elif M == {k2}:
        shapes = [(prec(i), succ(j))]
    elif M == {k3}:
        shapes = [(succ(i), s) for s in star]
    elif M == {k1, k2}:
        shapes = [(prec(i), perp(j))]
    elif M == {k1, k3}:
        shapes = [(perp(i), prec(j))]
    elif M == {k2, k3}:
        shapes = [(perp(i), succ(j))]
    else:  # M = {k1, k2, k3}
        shapes = [(perp(i), perp(j))]

    out: Vec = {}
    for outer, inner in shapes:
        sign = -1 if (e <= outer < 2 * e) != (e <= inner < 2 * e) else 1
        add_scaled(out, act(space, sigma, {space.flat(IDENT, outer, inner): sign}))
    return out


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
                add_scaled(vec, _split_monomial(space, Q, mode, sigma, i, j, M), coeff)
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
