"""Shared randomised constructions for the test suite."""

import re
from fractions import Fraction
from itertools import product as iproduct
from math import comb, gcd, lcm

from quadop.core.free3 import GeneratorSpace, Vec, act, s3_closure
from quadop.core.operad import QuadOperad
from quadop.core.parser import parse_relation
from quadop.core.perms import CYC123, IDENT, REPS, SWAP12, compose, coset_decompose
from quadop.errors import InputError, InternalCheckError
from quadop.koszul import dual_generators
from quadop.linalg import (
    EchelonBasis,
    SubspaceQ,
    add_scaled,
    invert_matrix,
    primitive_row,
)
from quadop.locality import ResidueSpec
from quadop.manin import _product_space


# A swap that is not monomial: (12) e_0 = e_0 + 1/2 e_1 and (12) e_1 = -e_1,
# so the images of two terms of a vector can land on one monomial.
MIXING = GeneratorSpace(
    ("s", "t"),
    ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(-1))),
)


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


def random_swap_commuting(rng, space):
    """A random invertible matrix that commutes with the swap S of space:
    A + S A S for a random integer matrix A, drawn until it is invertible,
    so it is a valid change of generators."""
    d, sw = space.dim, space.swap
    while True:
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        T = [
            [
                A[i][j] + sum(sw[i][a] * A[a][b] * sw[b][j] for a in range(d) for b in range(d))
                for j in range(d)
            ]
            for i in range(d)
        ]
        if invert_matrix(T) is not None:
            return T


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


def free3_action(space, perm):
    """Matrix of perm on F(3), column-sparse: entry list per basis column.

    perm . (sigma, i, j) relabels the arguments, giving the triple
    (perm . sigma, i, j).  Decompose perm . sigma = rep . tail over the inner
    (12); a nontrivial tail swaps the two inner arguments, which rewrites the
    inner generator e_j through the swap columns.  Kept as the reference for
    act, which touches only a vector's support.
    """
    d = space.dim
    cols = []
    for sigma in REPS:
        rep, tail = coset_decompose(compose(perm, sigma))
        for i in range(d):
            for j in range(d):
                if tail == IDENT:
                    cols.append([(space.flat(rep, i, j), 1)])
                else:
                    cols.append(
                        [(space.flat(rep, i, m), c) for m, c in space.swap_columns[j]]
                    )
    return cols


def apply_columns(cols, vec):
    """A column-sparse matrix such as free3_action's applied to a vector,
    term by term, with the zero entries dropped at the end."""
    out = {}
    for c, coeff in vec.items():
        for row, entry in cols[c]:
            out[row] = out.get(row, 0) + coeff * entry
    return {row: val for row, val in out.items() if val}


def reference_is_s3_stable(space, sub):
    """The S3-stability guard as a plain membership loop: the canonical rows
    are swept into an EchelonBasis, and every row's image under (12) and
    (123), read off the dense columns of free3_action, is tested with
    EchelonBasis.contains, which searches for the smallest column on every
    step.  Kept as the reference for is_s3_stable, which builds the images
    with act_all and decides most of them at their leading column in
    SubspaceQ.contains_rows; the two share only the single elimination
    step."""
    eb = EchelonBasis(sub.ambient_dim)
    for row in sub.rows():
        eb.add(row)
    for g in (SWAP12, CYC123):
        cols = free3_action(space, g)
        for row in sub.rows():
            if not eb.contains(apply_columns(cols, row)):
                return False
    return True


def printed_kernel(report, dspace):
    """The span of a Dong report's printed witnesses, parsed in the dual
    generators dspace: the block kernel as the output states it."""
    return SubspaceQ.from_vectors(dspace.free3_dim,
                                  [parse_relation(dspace, w) for w in report.witnesses])


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<var>x[123])
      | \{(?P<gen>[^{}]*)\}
      | (?P<int>\d+)
      | (?P<punct>[()+\-*/])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise InputError(f"cannot tokenize relation at position {pos}: {text[pos:pos + 12]!r}")
        pos = m.end()
        kind = m.lastgroup
        value = m[kind]
        if kind == "var":
            toks.append((kind, int(value[1])))
        elif kind == "gen":
            name = value.strip()
            if not name:
                raise InputError("empty generator name in braces")
            toks.append((kind, name))
        elif kind == "int":
            try:
                toks.append((kind, int(value)))
            except ValueError:  # more digits than int() accepts
                raise InputError(f"integer at position {m.start(kind)} is too long") from None
        else:
            toks.append((kind, value))
    return toks


class _Cursor:
    def __init__(self, toks, text):
        self.toks = toks
        self.text = text
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        if tok[0] is None:
            raise InputError(f"unexpected end of relation: {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        got = self.take()
        if got[0] != kind or (value is not None and got[1] != value):
            want = value if value is not None else kind
            raise InputError(f"expected {want!r}, got {got[1]!r} in {self.text!r}")
        return got[1]

    def at_end(self):
        return self.pos >= len(self.toks)


# The reference's own comb evaluation: one act per basis unit, summed with
# add_scaled, and its own scaling; it shares only act and gen_index with the
# parser.
def _check_vars(x, y, z):
    if sorted((x, y, z)) != [1, 2, 3]:
        raise InputError(f"each of x1, x2, x3 must occur exactly once, got x{x}, x{y}, x{z}")


def _left_comb(space: GeneratorSpace, a, g, b, h, c) -> Vec:
    _check_vars(a, b, c)
    return act(space, (a, b, c), {space.flat(IDENT, space.gen_index(h), space.gen_index(g)): 1})


def _right_comb(space: GeneratorSpace, c, h, a, g, b) -> Vec:
    # e_h(xc, w) = sum_m swap[m][h] e_m(w, xc), one act per term
    _check_vars(c, a, b)
    gi = space.gen_index(g)
    out: Vec = {}
    for m, coeff in space.swap_columns[space.gen_index(h)]:
        add_scaled(out, act(space, (a, b, c), {space.flat(IDENT, m, gi): 1}), coeff)
    return out


def _scaled(mono: Vec, coeff) -> Vec:
    if coeff == 1:
        return mono
    return {k: coeff * v for k, v in mono.items()}


def _parse_mono(space: GeneratorSpace, cur: _Cursor) -> Vec:
    kind, val = cur.peek()
    if kind == "punct" and val == "(":
        cur.take()
        a = cur.expect("var")
        g = cur.expect("gen")
        b = cur.expect("var")
        cur.expect("punct", ")")
        h = cur.expect("gen")
        c = cur.expect("var")
        return _left_comb(space, a, g, b, h, c)
    if kind == "var":
        c = cur.take()[1]
        h = cur.expect("gen")
        cur.expect("punct", "(")
        a = cur.expect("var")
        g = cur.expect("gen")
        b = cur.expect("var")
        cur.expect("punct", ")")
        return _right_comb(space, c, h, a, g, b)
    raise InputError(f"expected a monomial, got {val!r} in {cur.text!r}")


def _parse_term(space: GeneratorSpace, cur: _Cursor) -> Vec:
    coeff = 1
    if cur.peek()[0] == "int":
        num = cur.take()[1]
        denom = 1
        if cur.peek() == ("punct", "/"):
            cur.take()
            denom = cur.expect("int")
            if denom == 0:
                raise InputError("zero denominator")
        coeff = num if denom == 1 else Fraction(num, denom)
        cur.expect("punct", "*")
    return _scaled(_parse_mono(space, cur), coeff)


def reference_parse(space: GeneratorSpace, text: str) -> Vec:
    """The relation parser token by token: tokenize the whole text, then
    parse it with a cursor, evaluating each term as it is read.  Kept as the
    reference for parser.parse_relation, which reads one regex match per
    term and evaluates a right comb with one act; the two share only act
    and gen_index."""
    toks = _tokenize(text)
    if toks == [("int", 0)]:
        return {}
    cur = _Cursor(toks, text)
    out: Vec = {}
    sign = 1
    if cur.peek() == ("punct", "-"):
        cur.take()
        sign = -1
    while True:
        add_scaled(out, _parse_term(space, cur), sign)
        if cur.at_end():
            return out
        kind, val = cur.take()
        if kind != "punct" or val not in "+-":
            raise InputError(f"expected '+' or '-' between terms, got {val!r} in {text!r}")
        sign = 1 if val == "+" else -1


def _reference_monomial(space: GeneratorSpace, index: int) -> str:
    sigma, outer, inner = space.unflat(index)
    a, b, c = sigma
    return f"(x{a} {{{space.names[inner]}}} x{b}) {{{space.names[outer]}}} x{c}"


def reference_pretty_print(space: GeneratorSpace, vec: Vec) -> str:
    """The relation printer through unflat, one monomial string per term.
    Kept as the reference for parser.pretty_print, which reads each term
    off its flat index by divmod and fills a comb template per sigma."""
    items = sorted((idx, c) for idx, c in vec.items() if c)
    if not items:
        return "0"
    parts = []
    for pos, (idx, coeff) in enumerate(items):
        mono = _reference_monomial(space, idx)
        if pos == 0:
            parts.append(mono if coeff == 1 else f"{coeff} * {mono}")
        else:
            op = " + " if coeff > 0 else " - "
            mag = abs(coeff)
            parts.append(op + (mono if mag == 1 else f"{mag} * {mono}"))
    return "".join(parts)


def pairing_equivariant(space, perm, sign_value):
    """Check <perm.u, perm.v> = sign(perm) <u, v> on all basis pairs of the
    weight-3 pairing between the dual free space and the free space."""
    dual = dual_generators(space)
    a_dual = free3_action(dual, perm)
    a_prim = free3_action(space, perm)
    n = space.free3_dim
    for c1 in range(n):
        col1 = dict(a_dual[c1])
        for c2 in range(n):
            acc = Fraction(0)
            for row, val in a_prim[c2]:
                if row in col1:
                    acc += col1[row] * val
            if acc != (sign_value if c1 == c2 else 0):
                return False
    return True


def _model_split_space(Q: QuadOperad, mode: str, twist: int) -> GeneratorSpace:
    """Generator space of the split operad.

    twist=-1 gives the convention used for the result, matching the black
    product's sign-twisted tensor: (12)succ_i = -sum swap[m][i] prec_m and
    likewise for prec, while perp keeps the plain action.  twist=+1 gives the
    Rota-Baxter model convention ((12) acts without the extra sign on all
    three blocks); the substitution table is only S3-consistent there, so the
    seeds are built in that space and transported afterwards.
    """
    e = Q.dim_gens
    blocks = ("succ", "prec", "perp") if mode == "post" else ("succ", "prec")
    names = tuple(f"{g}_{suffix}" for suffix in blocks for g in Q.space.names)
    d = len(blocks) * e
    cols: list[list[Fraction]] = [[Fraction(0)] * d for _ in range(d)]
    sw = Q.space.swap
    for i in range(e):
        for m in range(e):
            if sw[m][i]:
                cols[i][e + m] = twist * sw[m][i]
                cols[e + i][m] = twist * sw[m][i]
                if mode == "post":
                    cols[2 * e + i][2 * e + m] = sw[m][i]
    swap = tuple(tuple(cols[j][m] for j in range(d)) for m in range(d))
    return GeneratorSpace(names, swap)


def _model_split_monomial(space: GeneratorSpace, Q: QuadOperad, mode: str,
                          sigma, i: int, j: int, M: frozenset) -> Vec:
    """Rewrite of the monomial (sigma, i, j) of Q for argument subset M.

    With k1, k2, k3 = sigma(1), sigma(2), sigma(3) the monomial reads
    e_i(e_j(x_k1, x_k2), x_k3); the subset M selects which arguments the
    splitting points at, and the table below assigns the split operations.
    Star is the sum of all components of the split.
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
        add_scaled(out, act(space, sigma, {space.flat(IDENT, outer, inner): Fraction(1)}))
    return out


def split_in_model_space(Q: QuadOperad, mode: str) -> QuadOperad:
    """Dendriform-style splitting of Q (mode 'pre') or its perp-extended
    version (mode 'post'), built in a second space and moved over.

    The relation seeds come from the substitution table applied to the
    canonical relation basis of Q; their span is already S3-stable in the
    Rota-Baxter model convention (splitting a permuted identity with a
    permuted subset is the permuted splitting).  The seeds are expressed in
    the sign-twisted convention by flipping every prec leg, a diagonal change
    of basis that conjugates one S2-action into the other, so the
    constructor's S3-stability guard also checks the substitution table.
    Kept as the reference for manin.split, which takes the black product
    of Q with the split partner, pre- or post-Lie on the parts.
    """
    if mode not in ("pre", "post"):
        raise InputError(f"split mode must be 'pre' or 'post', got {mode!r}")
    model = _model_split_space(Q, mode, +1)
    if mode == "post":
        subsets = [frozenset(s) for s in
                   ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]
    else:
        subsets = [frozenset(s) for s in ({1}, {2}, {3})]
    e = Q.dim_gens

    def flipped(c: int) -> bool:  # exactly one of the two legs is a prec
        _, outer, inner = model.unflat(c)
        return (e <= outer < 2 * e) != (e <= inner < 2 * e)

    moved = []
    for f in Q.relations.rows():
        for M in subsets:
            vec: Vec = {}
            for c, coeff in f.items():
                sigma, i, j = Q.space.unflat(c)
                add_scaled(vec, _model_split_monomial(model, Q, mode, sigma, i, j, M), coeff)
            moved.append({c: -v if flipped(c) else v for c, v in vec.items()})
    space = _model_split_space(Q, mode, -1)
    rel = SubspaceQ.from_vectors(space.free3_dim, moved)
    return QuadOperad(f"split_{mode}({Q.name})", space, rel)


def reference_primitive(v):
    """Reference: clear denominators through Fraction (an int row has
    none), divide out the gcd and make the leading value positive."""
    ints = {c: x for c, x in v.items() if x}
    if not ints:
        return {}
    if not all(type(x) is int for x in ints.values()):
        fracs = {c: Fraction(x) for c, x in ints.items()}
        scale = lcm(*(f.denominator for f in fracs.values()))
        ints = {c: int(f * scale) for c, f in fracs.items()}
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {c: x // g for c, x in ints.items()}


def reference_residual(eb, vec):
    """vec reduced against the rows of the EchelonBasis eb, made primitive
    after every elimination step: empty iff vec lies in the span, else the
    primitive row that eb.add would file under a new pivot.  eb is left as
    it is."""
    rows_by_pivot = {min(r): r for r in eb.rows()}
    v = reference_primitive(vec)
    while v and min(v) in rows_by_pivot:
        col = min(v)
        row = rows_by_pivot[col]
        g = gcd(row[col], v[col])
        fa, fb = row[col] // g, v[col] // g
        out = {c: fa * x for c, x in v.items()}
        for c, x in row.items():
            out[c] = out.get(c, 0) - fb * x
        v = reference_primitive(out)
    return v


def span_sum(a, b):
    """The sum of two subspaces of the same ambient space."""
    assert a.ambient_dim == b.ambient_dim
    return SubspaceQ.from_vectors(a.ambient_dim, a.rows() + b.rows())


def contains_subspace(big, small):
    """Whether every canonical row of small lies in big."""
    return all(big.contains(r) for r in small.rows())


def fresh_perp(V):
    """The orthogonal complement of V computed from scratch: the span of its
    annihilator rows, canonicalised from the left by from_vectors, with no
    link back to V.  V.perp() eliminates V's own rows from the right, so
    the two routes share no elimination and a check of one against the
    other can fail; V.perp().perp() returns V itself."""
    return SubspaceQ.from_vectors(V.ambient_dim, V.annihilator_rows())


def reference_tensor_rows(P, rows_P, Q, rows_Q, space):
    """The tensor rows of manin._tensor_rows computed entry by entry: every
    monomial is split through unflat and every product index built through
    flat and the pair index i * Q.dim_gens + p."""
    e = Q.dim_gens
    vectors = []
    for r in rows_P:
        by_sigma = {sigma: [] for sigma in REPS}
        for c, a in r.items():
            sigma, i, j = P.space.unflat(c)
            by_sigma[sigma].append((i, j, a))
        for s in rows_Q:
            vec = {}
            for c, b in s.items():
                sigma, p, q = Q.space.unflat(c)
                for i, j, a in by_sigma[sigma]:
                    vec[space.flat(sigma, i * e + p, j * e + q)] = a * b
            if vec:
                vectors.append(vec)
    return vectors


def monomial_projection(P):
    """Quotient map F(3) -> P(3) as a column list of Fraction dicts, in the
    coordinates of the monomials that descend to a basis of P(3), the
    non-pivot columns of R: a pivot monomial rewrites through its relation
    row, e_p = -sum_f r_f e_f mod R for the row e_p + sum_f r_f e_f.  Kept
    apart from QuadOperad.p3_projection, which reads the annihilator rows."""
    pivots = set(P.relations.pivots)
    col_of = {c: k for k, c in enumerate(c for c in range(P.dim_free3) if c not in pivots)}
    cols = [{} for _ in range(P.dim_free3)]
    for c, k in col_of.items():
        cols[c] = {k: Fraction(1)}
    for row in P.relations.basis():
        pivot = min(row)
        cols[pivot] = {col_of[f]: -v for f, v in row.items() if f != pivot}
    return cols


def white_by_projection(P, Q):
    """Relations of the white product P o Q as the kernel of the evaluation
    F_{V(x)W}(3) -> P(3) (x) Q(3), read from the two monomial_projection
    maps, complemented from scratch (fresh_perp).  Kept as the reference for
    white_product, which reaches the same subspace through the annihilator
    rows and kernel_basis (the perp() of the tensor rows' span)."""
    space = _product_space(P, Q, "{0}*{1}", 1)
    dP, dQ = P.dim_gens, Q.dim_gens
    projP = monomial_projection(P)
    projQ = monomial_projection(Q)
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for s_idx, sigma in enumerate(REPS):
        for i, p, j, q in iproduct(range(dP), range(dQ), range(dP), range(dQ)):
            col = space.flat(sigma, i * dQ + p, j * dQ + q)
            colP = projP[P.space.flat(sigma, i, j)]
            colQ = projQ[Q.space.flat(sigma, p, q)]
            for alpha, a in colP.items():
                for beta, b in colQ.items():
                    rows.setdefault((alpha, beta), {})[col] = a * b
    return fresh_perp(SubspaceQ.from_vectors(space.free3_dim, rows.values()))


# Minimal locality order of every (inner, outer) pair of the 19 criterion-02
# entries at k=0, anchor (0,0), Nmax 4, in row-major pair order, with "-" for
# "none up to Nmax".  Frozen at window 6; the orders are the same at 8 and 16.
TABLE_ORDERS = {
    "Com": "1",
    "Lie": "2",
    "As": "1111",
    "Pois": "1112",
    "Nov": "1111",
    "NP": "111111111",
    "Alt": "2222",
    "Perm": "1111",
    "Leib": "2222",
    "diAs": "1111111111111111",
    "diNov": "1111111111111111",
    "dual(GD)": "111111111",
    "ComTriAs": "111111111",
    "Zinb": "1-1-",
    "preLie": "-2-2",
    "preAs": "--11--11--11--11",
    "dual(NP)": "222211211",
    "GD": "11-11--22",
    "postLie": "-22-22-22",
}


def projected(P, sigma, outer, inner):
    """Image of one monomial in P(3), scaled to a primitive integer row
    (scaling changes no span and no membership)."""
    return primitive_row(P.p3_projection()[P.space.flat(sigma, outer, inner)])


def pair_bases(P):
    """For each sigma block, the span of all projected monomials of that
    block (the "pair space").  Kept, with projected, as the P(3) reference
    for the levels that LocalityInstance reads off R's rows."""
    d = P.dim_gens
    return [SubspaceQ.from_vectors(P.dim_p3, (projected(P, sigma, i, j)
                                              for i in range(d) for j in range(d)))
            for sigma in REPS]


def identity_level(P, u):
    """The level of the image of a row u on the identity block: the first
    of Z_0, Z_1 and Z_2 (P.identity_block()) that holds u, and 3 if none
    does.  P.identity_levels() tabulates this once per operad for the unit
    rows only, reading unit pivots with no reduction, and LocalityInstance
    reads that table; this reduces u, so it stays a reference for it."""
    return next((level for level, Z in enumerate(P.identity_block()) if Z.contains(u)), 3)


def nested_reference(P):
    """Z_0, Z_1 and Z_2 of the locality module docstring, on the identity
    block, by Zassenhaus intersections of R with coordinate subspaces:
    R cap B_1, then the projections of R cap {r_3 = 0} and R cap {r_2 = 0},
    then the projection of R."""
    n = P.dim_gens ** 2
    R = P.relations

    def on_blocks(*blocks):
        return SubspaceQ.from_vectors(R.ambient_dim, ({b * n + c: 1} for b in blocks
                                                       for c in range(n)))

    meets = [R.intersect(on_blocks(0, t)).truncated(n) for t in (1, 2)]
    return (R.intersect(on_blocks(0)).truncated(n),
            SubspaceQ.from_vectors(n, meets[0].rows() + meets[1].rows()),
            R.truncated(n))


# Coefficients (on e1, e2) of the line each sigma, in REPS order, meets a
# plane summand in.
PLANE_LINES = ((1, 0), (0, 1), (1, -1))


def _summand_vectors(lines, planes):
    """The line summands' vectors, then e1 and e2 of each plane."""
    return [u for _, u in lines] + [e for plane in planes for e in plane]


class SummandDecomposition:
    """The Gelfand-Ponomarev (D4 quiver) decomposition of P(3) under the
    three pair spaces of a LocalityInstance, with integer rows only.

    lines holds (S, u), S the sigma indices whose pair space holds u, and
    planes holds (e1, e2); together they are a basis of P(3) adapted to the
    three pair spaces, which the constructor checks.  Membership of
    base (x) g is decided summand by summand, for any P(3) row base.  Kept
    as the reference for the level test of LocalityInstance and as the
    source of the summand counts that the codimension formula and the
    kernel_dim multiplicity read."""

    def __init__(self, lab):
        self.name = lab.P.name
        self.dim_p3 = lab.P.dim_p3
        self.pair_bases = pair_bases(lab.P)
        self.lines, self.planes = self._decompose()
        n = self.dim_p3
        # Tagged rows [u_t | e_t], one per summand vector: a row reduced to
        # zero on the left leaves its coordinates, up to one common scale,
        # on the right.
        self._coordinates = EchelonBasis(2 * n)
        for t, u in enumerate(_summand_vectors(self.lines, self.planes)):
            self._coordinates.add({**u, n + t: 1})

    def _decompose(self):
        n = self.dim_p3
        A, B, C = self.pair_bases

        def span(*spaces):
            return SubspaceQ.from_vectors(n, [r for V in spaces for r in V.rows()])

        def complement(sub, rows):
            """The rows that extend the rows of sub to a basis of their
            span, greedily."""
            eb = EchelonBasis(n)
            for r in sub:
                eb.add(r)
            return [r for r in rows if eb.add(r)]

        AB, AC, BC = A.intersect(B), A.intersect(C), B.intersect(C)
        ABC = AB.intersect(C)
        meets = [V.intersect(span(W, X)) for V, W, X in ((A, B, C), (B, A, C), (C, A, B))]
        lines = [((0, 1, 2), u) for u in ABC.rows()]
        for S, V in (((0, 1), AB), ((0, 2), AC), ((1, 2), BC)):
            lines += [(S, u) for u in complement(ABC.rows(), V.rows())]
        planes = [self._split(a, B, C)
                  for a in complement(AB.rows() + AC.rows(), meets[0].rows())]
        for s, V in enumerate((A, B, C)):
            lines += [((s,), u) for u in complement(meets[s].rows(), V.rows())]
        found = _summand_vectors(lines, planes)
        lines += [((), u) for u in complement(found, ({r: 1} for r in range(n)))]
        self._check(lines, planes)
        return lines, planes

    def _split(self, a, B, C):
        """(e1, e2) = (lam a, lam b) with b in B and a - b in C, for a in
        B + C: the residual of [a | 0 | 1] against the tagged rows
        [b_i | e_i | 0] and [c | 0 | 0] is [0 | -mu | lam] up to scale, with
        lam a = sum mu_i b_i + (a vector of C)."""
        n, brows = self.dim_p3, B.rows()
        lam = n + len(brows)
        eb = EchelonBasis(lam + 1)
        for i, b in enumerate(brows):
            eb.add({**b, n + i: 1})
        for c in C.rows():
            eb.add(c)
        res = reference_residual(eb, {**a, lam: 1})
        e2 = {}
        for i, b in enumerate(brows):
            if res.get(n + i):
                add_scaled(e2, b, -res[n + i])
        return {r: res[lam] * x for r, x in a.items()}, e2

    def _check(self, lines, planes):
        """The summand vectors are a basis of P(3), and for each sigma the
        vectors assigned to it span exactly V_sigma."""
        n = self.dim_p3
        vectors = _summand_vectors(lines, planes)
        if len(vectors) != n or SubspaceQ.from_vectors(n, vectors).dim != n:
            raise InternalCheckError(f"locality summands of {self.name} are no basis of P(3)")
        assigned = [[], [], []]
        for S, u in lines:
            for s in S:
                assigned[s].append(u)
        for e1, e2 in planes:
            for s, (x, y) in enumerate(PLANE_LINES):
                assigned[s].append(add_scaled(add_scaled({}, e1, x), e2, y))
        for s, V in enumerate(self.pair_bases):
            if SubspaceQ.from_vectors(n, assigned[s]) != V:
                raise InternalCheckError(
                    f"locality summands of {self.name} do not span pair space {s + 1}"
                )

    def checks(self, base):
        """The line types S and the plane coordinates (c1, c2) on which a
        P(3) row has a nonzero component."""
        n, nlines = self.dim_p3, len(self.lines)
        coords = {t - n: x for t, x in reference_residual(self._coordinates, base).items()}
        types = sorted({self.lines[t][0] for t in coords if t < nlines})
        pairs = []
        for p in range(len(self.planes)):
            c = (coords.get(nlines + 2 * p, 0), coords.get(nlines + 2 * p + 1, 0))
            if any(c) and c not in pairs:
                pairs.append(c)
        return types, pairs

    @staticmethod
    def contains(checks, f):
        """Whether base (x) f lies in the ideal, for the summand checks of
        base and f an integer function on window points of one total index:
        each line type and each plane coordinate by its closed form."""
        g = {point: c for point, c in f.items() if c}
        if not g:
            return True
        types, pairs = checks
        total = sum(g.values())
        for S in types:
            if len(S) == 1:
                outer = REPS[S[0]][2] - 1
                sums = {}
                for point, c in g.items():
                    sums[point[outer]] = sums.get(point[outer], 0) + c
                if any(sums.values()):
                    return False
            elif not S or total:  # each point its own part, or one part
                return False
        if pairs and total:
            return False
        first, second = (sigma[2] - 1 for sigma in REPS[:2])
        m1 = sum(c * point[first] for point, c in g.items())
        m2 = sum(c * point[second] for point, c in g.items())
        return not any(c1 * m1 - c2 * m2 for c1, c2 in pairs)

    def level(self, base):
        """The level of a row of V_1 read from its summands: 3 with a
        (1; sigma_1) component, else 2 with a plane component, else 1 with
        any component, else 0.  Asserts that base meets only summands that
        meet V_1, and planes only along e1."""
        types, pairs = self.checks(base)
        assert all(0 in S for S in types) and all(c2 == 0 for _, c2 in pairs), (types, pairs)
        if (0,) in types:
            return 3
        return 2 if pairs else 1 if types else 0


def window_coordinate(lab, r, point):
    """Flat coordinate of P(3) coordinate r at window point (n_a, n_b, n_c):
    r*W**3 + (n_a+K)*W**2 + (n_b+K)*W + (n_c+K) with W = 2K+1."""
    K = lab.K
    W = 2 * K + 1
    na, nb, nc = point
    return r * W**3 + (na + K) * W**2 + (nb + K) * W + (nc + K)


def place(sigma, alpha, beta, gamma):
    """Lattice point with alpha on the family x_sigma(1), beta on
    x_sigma(2) and gamma on the outer family x_sigma(3)."""
    pt = [0, 0, 0]
    for family, n in zip(sigma, (alpha, beta, gamma)):
        pt[family - 1] = n
    return tuple(pt)


def block_points(K, T):
    """The window points of total index T, in block order."""
    return [
        (na, nb, T - na - nb)
        for na in range(-K, K + 1)
        for nb in range(max(-K, T - na - K), min(K, T - na + K) + 1)
    ]


def block_index(K, T):
    """Block index of every window point of total index T."""
    return {p: h for h, p in enumerate(block_points(K, T))}


def sigma_lines(K, T, index):
    """For each sigma in REPS, its sigma-lines in the block of total index
    T (outer index gamma fixed, inner indices summing to T - gamma) as
    ascending lists of block indices, from gamma = K down to -K."""
    return [
        [
            sorted(index[place(sigma, alpha, T - gamma - alpha, gamma)]
                   for alpha in range(max(-K, T - gamma - K), min(K, T - gamma + K) + 1))
            for gamma in range(K, -K - 1, -1)
            if abs(T - gamma) <= 2 * K
        ]
        for sigma in REPS
    ]


def join_labels(npts, lines, S):
    """Part label of every block point in the join of the sigma-line
    partitions of the sigmas in S, by union-find.  Kept as the reference
    for the closed-form line tests of SummandDecomposition.contains."""
    parent = list(range(npts))

    def find(h):
        while parent[h] != h:
            parent[h] = parent[parent[h]]
            h = parent[h]
        return h

    for s in S:
        for line in lines[s]:
            root = find(line[0])
            for h in line[1:]:
                parent[find(h)] = root
    return [find(h) for h in range(npts)]


def plane_generators(lines, npts):
    """Spanning rows of e1 (x) D_1 + e2 (x) D_2 + (e1 - e2) (x) D_3 in
    2 * npts columns (f on e1 first, then f on e2): the difference of each
    placement of a line to the line's hub, the placement with the largest
    block index, sigma by sigma in REPS order."""
    for family, (x, y) in zip(lines, PLANE_LINES):
        for line in family:
            hub = line[-1]
            for h in line[:-1]:
                row = {}
                if x:
                    row[h], row[hub] = x, -x
                if y:
                    row[npts + h], row[npts + hub] = y, -y
                yield row


def hub_plane(lines, npts):
    """The plane block eliminated from its hub rows.  Kept as the reference
    for the closed-form plane test of SummandDecomposition.contains."""
    basis = EchelonBasis(2 * npts)
    for row in plane_generators(lines, npts):
        basis.add(row)
    return basis


def neighbour_generators(lab, T=None):
    """The order-1 locality relations as differences of neighbouring
    placements, in flat window coordinates: for each sigma in REPS, each
    projected monomial u of that sigma and each placement (alpha, beta,
    gamma) (alpha on the family x_sigma(1), beta on x_sigma(2), gamma on the
    outer one) whose twin (alpha-1, beta+1, gamma) is in the window,
    u (x) (e_here - e_twin).  All of them, or only those of total index T.
    Kept as the reference for the hub generators."""
    P, K = lab.P, lab.K
    d = P.dim_gens
    for sigma in REPS:
        monomials = [
            primitive_row(P.project({P.space.flat(sigma, i, j): 1}))
            for i in range(d)
            for j in range(d)
        ]
        for alpha, beta, gamma in iproduct(range(-K + 1, K + 1), range(-K, K), range(-K, K + 1)):
            if T is not None and alpha + beta + gamma != T:
                continue
            here = place(sigma, alpha, beta, gamma)
            twin = place(sigma, alpha - 1, beta + 1, gamma)
            for u in monomials:
                if u:
                    row = {}
                    for r, c in u.items():
                        row[window_coordinate(lab, r, here)] = c
                        row[window_coordinate(lab, r, twin)] = -c
                    yield row


def ideal_subspace(lab, T=None):
    """The locality ideal of a window, or its block of total index T, in
    flat window coordinates, from the neighbour differences.  Quadratic in
    the window volume; for small K."""
    dim = lab.P.dim_p3 * (2 * lab.K + 1) ** 3
    return SubspaceQ.from_vectors(dim, neighbour_generators(lab, T))


def hub_generators(lab, T, index, pair_rows):
    """Order-1 pair relations of the T-block, one per (pair row, non-hub
    placement), in block coordinates r * npts + h.

    pair_rows holds, per sigma in REPS, the rows spanning its pair space.
    Block sigma has inner arguments (x_sigma(1), x_sigma(2)) and the
    remaining family outside.  Its placements fall into the sigma-lines of
    sigma_lines; each line ties every placement h to its hub, the placement
    with the largest block index, by v (x) (e_h - e_hub).  A row's pivot is
    (first column of v, h), so within one sigma the rows are already in
    echelon form.
    """
    npts = len(index)
    for lines, rows in zip(sigma_lines(lab.K, T, index), pair_rows):
        for line in lines:
            hub = line[-1]
            for h in line[:-1]:
                for v in rows:
                    row = {}
                    for r, c in v.items():
                        row[r * npts + h] = c
                        row[r * npts + hub] = -c
                    yield row


def hub_block(lab, T):
    """The whole T-block of the ideal as one elimination of dimension
    dim P(3) * npts: (index of each point, EchelonBasis of the hub rows).
    Kept as the reference for the level-wise membership of
    LocalityInstance."""
    index = block_index(lab.K, T)
    basis = EchelonBasis(lab.P.dim_p3 * len(index))
    for gen in hub_generators(lab, T, index, [V.rows() for V in pair_bases(lab.P)]):
        basis.add(gen)
    return index, basis


def hub_contains(block, base, f):
    """Whether base (x) f lies in a hub block, f a {point: int} function."""
    index, basis = block
    npts = len(index)
    vec = {}
    for point, c in f.items():
        add_scaled(vec, ((r * npts + index[point], c * x) for r, x in base.items()))
    return basis.contains(vec)


def residue_function(spec):
    """The residue of spec as base (x) f: f as a {point: coefficient}
    function, the sum over s <= N and t <= k of (-1)**(s+t) C(N, s) C(k, t)
    at (k-t, n-s+t, m+s)."""
    f = {}
    for s in range(spec.N + 1):
        for t in range(spec.k + 1):
            point = (spec.k - t, spec.n - s + t, spec.m + s)
            f[point] = f.get(point, 0) + (-1) ** (s + t) * comb(spec.N, s) * comb(spec.k, t)
    return f


def level_contains(level, f):
    """Whether base (x) f lies in the ideal, for base a row of V_1 of the
    given level and f an integer {point: coefficient} function on window
    points of one total index, by the level tests of the locality module
    docstring.  Every test reads the sums of f over each value of n_c."""
    if not level:
        return True
    sums = {}
    for (_, _, nc), c in f.items():
        sums[nc] = sums.get(nc, 0) + c
    if level == 3:
        return not any(sums.values())
    if sum(sums.values()):
        return False
    return level == 1 or not sum(nc * s for nc, s in sums.items())


def reference_sweep(lab, k=0, Nmax=4, n=0, m=0):
    """LocalityInstance.sweep decided on hub blocks."""
    P = lab.P
    block = hub_block(lab, k + n + m)
    out = {}
    for i in range(P.dim_gens):
        for j in range(P.dim_gens):
            base = primitive_row(P.project({P.space.flat(IDENT, j, i): 1}))
            out[i, j] = next(
                (N for N in range(Nmax + 1)
                 if hub_contains(block, base, residue_function(ResidueSpec(i, k, j, N, n, m)))),
                None,
            )
    return out


def reference_order(lab, i, k, j, Nmax=4, n=0, m=0):
    """LocalityInstance.min_locality_order searched N by N: contains_residue
    for N = 0, 1, ..., Nmax, and the first N that holds, or None.  An
    InputError raised by contains_residue (a residue that does not fit, a
    negative k, an operation out of range) propagates from the N at which
    it is raised.  Kept as the reference for min_locality_order, which
    reads the order off the pair's level."""
    return next((N for N in range(Nmax + 1)
                 if lab.contains_residue(ResidueSpec(i, k, j, N, n, m))), None)


def pairwise_sweep(lab, k=0, Nmax=4, n=0, m=0):
    """LocalityInstance.sweep searched pair by pair: reference_order for
    every (i, j) in order, so an InputError propagates from the first pair
    whose search raises.  Kept as the reference for sweep, which reads each
    pair's order off its level."""
    d = lab.P.dim_gens
    return {(i, j): reference_order(lab, i, k, j, Nmax, n, m) for i in range(d) for j in range(d)}


def residue_vector(lab, spec):
    """Order-N locality obstruction for ((a i-op_k b) j-op c) at the anchors
    (n, m), in flat window coordinates: the sum over s <= N and t <= k of
    (-1)**(s+t) C(N, s) C(k, t) times the P(3) image of the monomial
    (x1 {i} x2) {j} x3, scaled to a primitive integer row, placed at
    (k-t, n-s+t, m+s)."""
    assert spec.required_radius() <= lab.K, spec
    P = lab.P
    base = primitive_row(P.project({P.space.flat(IDENT, spec.j, spec.i): 1}))
    out = {}
    for point, coeff in residue_function(spec).items():
        add_scaled(out, ((window_coordinate(lab, r, point), c) for r, c in base.items()), coeff)
    return out
