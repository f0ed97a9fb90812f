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

Splitting is a black product (Bai, Bellier, Guo and Ni, IMRN 2013): with
Lie the unit of •, split(Q, mode) = split(Lie, mode) • Q.  The partner
split(Lie, mode) is pre-Lie on the parts succ and prec, which (12)
exchanges (mode 'pre'), or post-Lie with an antisymmetric part perp as well
(mode 'post').  The black product's pair index x*e + g, e = Q.dim_gens,
puts generator g of Q in part x, named g_x, and its sign-twisted swap is
the split's: with S the swap of Q, (12) sends g_succ to
-sum_m S[m][g] m_prec and g_perp to sum_m S[m][g] m_perp.
"""

from __future__ import annotations

import functools

from quadop.core.free3 import GeneratorSpace
from quadop.core.operad import QuadOperad, make_operad
from quadop.errors import InputError
from quadop.koszul import dual_operad
from quadop.linalg import IntRow, SubspaceQ, add_scaled, kernel_basis


def _product_space(P: QuadOperad, Q: QuadOperad, fmt: str, sign: int) -> GeneratorSpace:
    """Swap columns: the signed Kronecker product of P's and Q's, the pair
    (i, p) at index i * Q.dim_gens + p.  The generator of the pair (g, h)
    is named fmt.format(g, h); names that hold the format's other text can
    make two pairs join to one name, which is refused."""
    made: dict[str, tuple[str, str]] = {}
    for g in P.space.names:
        for h in Q.space.names:
            name = fmt.format(g, h)
            if name in made:
                raise InputError(
                    f"product generator name {name!r} is made by two pairs, "
                    f"{made[name]!r} and {(g, h)!r}; rename a generator of either operand"
                )
            made[name] = (g, h)
    names = tuple(made)
    e = Q.dim_gens
    cols = [
        {m * e + q: sign * a * b for m, a in col_P for q, b in col_Q}
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
    space = _product_space(P, Q, "{0}*{1}", 1)
    rows = _tensor_rows(P, P.relations.annihilator_rows(),
                        Q, Q.relations.annihilator_rows(), space)
    return QuadOperad(f"white({P.name},{Q.name})", space, kernel_basis(rows, space.free3_dim))


def _black(P: QuadOperad, Q: QuadOperad, fmt: str, name: str) -> QuadOperad:
    """The span of the tensor rows of the relations, R_P . R_Q, with the
    generator of the pair (g, h) named fmt.format(g, h)."""
    space = _product_space(P, Q, fmt, -1)
    rows = _tensor_rows(P, P.relations.rows(), Q, Q.relations.rows(), space)
    return QuadOperad(name, space, SubspaceQ.from_vectors(space.free3_dim, rows))


def black_product(P: QuadOperad, Q: QuadOperad) -> QuadOperad:
    """Manin black product P • Q: the span of the tensor rows of the
    relations, R_P . R_Q."""
    return _black(P, Q, "{0}•{1}", f"black({P.name},{Q.name})")


# Replication kind -> the catalog entry it takes the white product with.
REPLICATION_PARTNERS = {"di": "Perm", "tri": "ComTriAs"}


def replicate(kind: str, P: QuadOperad) -> QuadOperad:
    """Di- or tri-replication, as a white product with the matching operad."""
    from quadop.core.catalog import catalog  # late import; catalog builds use this module

    if kind not in REPLICATION_PARTNERS:
        raise InputError(f"replication kind must be 'di' or 'tri', got {kind!r}")
    return white_product(catalog(REPLICATION_PARTNERS[kind]), P).renamed(f"{kind}({P.name})")


# Each split partner, split(Lie, mode) on its parts: generators and one
# relation per S3-orbit.
_SPLIT_PARTNERS = {
    "pre": (
        [("succ", {"pair": "prec"}), ("prec", {"pair": "succ"})],
        ["(x1 {succ} x2) {succ} x3 - (x1 {prec} x2) {succ} x3"
         " - (x2 {succ} x3) {prec} x1 + (x3 {prec} x1) {prec} x2"],
    ),
    "post": (
        [("succ", {"pair": "prec"}), ("prec", {"pair": "succ"}), ("perp", "antisym")],
        [
            "(x1 {succ} x2) {succ} x3 - (x1 {prec} x2) {succ} x3 + (x1 {perp} x2) {succ} x3"
            " - (x2 {succ} x3) {prec} x1 + (x3 {prec} x1) {prec} x2",
            "(x1 {perp} x2) {prec} x3 + (x2 {prec} x3) {perp} x1 - (x3 {succ} x1) {perp} x2",
            "(x1 {perp} x2) {perp} x3 + (x2 {perp} x3) {perp} x1 + (x3 {perp} x1) {perp} x2",
        ],
    ),
}


@functools.cache
def split_partner(mode: str) -> QuadOperad:
    """The operad whose black product with Q is split(Q, mode): pre-Lie
    (mode 'pre') or post-Lie (mode 'post') with the parts succ, prec (and
    perp) as generators.  Built once per process."""
    if mode not in ("pre", "post"):
        raise InputError(f"split mode must be 'pre' or 'post', got {mode!r}")
    gens, rels = _SPLIT_PARTNERS[mode]
    return make_operad(f"split_{mode}(Lie)", gens, rels)


def split(Q: QuadOperad, mode: str) -> QuadOperad:
    """Dendriform-style splitting of Q (mode 'pre') or its perp-extended
    version (mode 'post'): the black product split_partner(mode) • Q, with
    generator g of Q in part x named g_x."""
    return _black(split_partner(mode), Q, "{1}_{0}", f"split_{mode}({Q.name})")


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
    projD, projB = dual.p3_projection(), B.p3_projection()
    for h in Q.relations.rows():
        total: dict[tuple[int, int], int] = {}
        for c, coeff in h.items():
            tau, jo, ji = Q.space.unflat(c)
            for io in range(dP):
                for ii in range(dP):
                    u = projD[dual.space.flat(tau, io, ii)]
                    v = projB[B.space.flat(tau, io * dQ + jo, ii * dQ + ji)]
                    add_scaled(total, (((r, col), a * b) for r, a in u.items()
                                       for col, b in v.items()), coeff)
        if total:
            return False
    return True
