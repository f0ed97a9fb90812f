"""Text form of weight-3 elements.

Grammar (whitespace insignificant):

    relation := ["-"] term (("+" | "-") term)*
    term     := [rational "*"] mono
    mono     := "(" var "{" gen "}" var ")" "{" gen "}" var
              | var "{" gen "}" "(" var "{" gen "}" var ")"
    var      := "x1" | "x2" | "x3"
    rational := integer ["/" positive-integer]

Generator names are read verbatim between braces, so product names like
"p1*b'" or "g•h" need no escaping.  Each of x1, x2, x3 must occur exactly
once per monomial.

A left comb (xa {g} xb) {h} xc is the basis-adjacent shape: with sigma the
permutation (a, b, c) it is sigma acting on the monomial (id, h, g).  For
sigma in the transversal REPS that is the basis monomial (sigma, h, g)
itself, returned as a unit with no action, so every printed relation, all
of whose terms are such combs, parses with no action applied; the other
three orders apply act once.  A right comb xc {h} (xa {g} xb) is rewritten
through the (12)-symmetry of the outer generator: e_h(xc, w) =
((12)e_h)(w, xc), so sigma acts once on the identity-block vector whose
outer entries are the swap column of h.  Each comb's vector is scaled by
its signed coefficient in one add_scaled call.

pretty_print emits terms in flat-index order and parse_relation inverts it
exactly; "0" is the empty vector.  Each term is read off its flat index by
divmod: the sigma-block picks that sigma's left-comb template, the outer
and inner indices the names put into it.  The per-term renderer through
unflat that the tests compare against lives in tests/helpers.py.

The reader is one compiled regex that matches a whole term (sign,
coefficient, either comb and the whitespace around them): parse_relation
walks the text with it, one match per term, and words its own InputError
where a match fails, a sign is misplaced, a name strips to nothing or an
integer is longer than int() accepts.  There is no second parser: the
token-by-token parser the tests compare against lives in tests/helpers.py.
"""

from __future__ import annotations

import re
from fractions import Fraction

from quadop.core.free3 import GeneratorSpace, Vec, act
from quadop.core.perms import IDENT, REP_INDEX, REPS, S3, Perm
from quadop.errors import InputError
from quadop.linalg import add_scaled

# One term: an optional sign, an optional "n[/m] *" coefficient, a left comb
# (groups 4-8) or a right comb (groups 9-13), and the whitespace around
# them.
_TERM_RE = re.compile(
    r"""\s*(?:([+-])\s*)?
        (?:(\d+)\s*(?:/\s*(\d+)\s*)?\*\s*)?
        (?:
            \(\s*x([123])\s*\{([^{}]*)\}\s*x([123])\s*\)\s*\{([^{}]*)\}\s*x([123])
          | x([123])\s*\{([^{}]*)\}\s*\(\s*x([123])\s*\{([^{}]*)\}\s*x([123])\s*\)
        )\s*""",
    re.VERBOSE,
)
_ZERO_RE = re.compile(r"\s*(\d+)\s*")  # "0" is the empty vector
_VAR = {"1": 1, "2": 2, "3": 3}
_PERMS = frozenset(S3)
# The left comb (xa {inner} xb) {outer} xc of each sigma = (a, b, c) in REPS,
# in sigma-block order, with %s for the inner and the outer name.
_LEFT_COMBS = tuple("(x%d {%%s} x%d) {%%s} x%d" % sigma for sigma in REPS)


def _left_comb(space: GeneratorSpace, a, g, b, h, c) -> Vec:
    sigma: Perm = (a, b, c)
    if sigma not in _PERMS:
        raise InputError(f"each of x1, x2, x3 must occur exactly once, got x{a}, x{b}, x{c}")
    hi, gi = space.gen_index(h), space.gen_index(g)
    if sigma in REP_INDEX:  # the basis monomial (sigma, h, g) itself
        return {space.flat(sigma, hi, gi): 1}
    return act(space, sigma, {space.flat(IDENT, hi, gi): 1})


def _right_comb(space: GeneratorSpace, c, h, a, g, b) -> Vec:
    sigma: Perm = (a, b, c)
    if sigma not in _PERMS:
        raise InputError(f"each of x1, x2, x3 must occur exactly once, got x{c}, x{a}, x{b}")
    gi, hi = space.gen_index(g), space.gen_index(h)
    # e_h(xc, w) = sum_m swap[m][h] e_m(w, xc), evaluated by one act on that sum
    return act(space, sigma, {space.flat(IDENT, m, gi): x for m, x in space.swap_columns[hi]})


def _integer(m: re.Match, group: int) -> int:
    try:
        return int(m[group])
    except ValueError:  # more digits than int() accepts
        raise InputError(f"integer at position {m.start(group)} is too long") from None


def parse_relation(space: GeneratorSpace, text: str) -> Vec:
    """Parse a relation string into {flat index: coefficient} over the space;
    a relation written with integer coefficients gives int values.

    Every term is matched, and its integers and names read, before any is
    evaluated, so text that breaks the grammar anywhere is refused for that,
    ahead of an unknown generator, a repeated variable or a zero denominator.
    """
    zero = _ZERO_RE.fullmatch(text)
    if zero is not None and _integer(zero, 1) == 0:
        return {}
    terms = []
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise InputError(f"cannot read a term at position {pos}: {text[pos:pos + 12]!r}")
        sign, num, den, la, lg, lb, lh, lc, rc, rh, ra, rg, rb = m.groups()
        # "+" or "-" between terms; only "-" may open the relation.
        if terms and sign is None:
            raise InputError(
                f"expected '+' or '-' before the term at position {pos}: {text[pos:pos + 12]!r}")
        if not terms and sign == "+":
            raise InputError(f"a relation cannot open with '+' (position {m.start(1)})")
        num = 1 if num is None else _integer(m, 2)
        den = 1 if den is None else _integer(m, 3)
        if la is not None:
            comb, args = _left_comb, (_VAR[la], lg.strip(), _VAR[lb], lh.strip(), _VAR[lc])
        else:
            comb, args = _right_comb, (_VAR[rc], rh.strip(), _VAR[ra], rg.strip(), _VAR[rb])
        if not args[1] or not args[3]:
            raise InputError("empty generator name in braces")
        terms.append((-1 if sign == "-" else 1, num, den, comb, args))
        pos = m.end()
        if pos == len(text):
            break
    out: Vec = {}
    for sign, num, den, comb, args in terms:
        if den == 0:
            raise InputError("zero denominator")
        # n/1 is the int n and n/n the int 1, so a unit coefficient keeps int values int.
        add_scaled(out, comb(space, *args),
                   sign * (num // den if den in (1, num) else Fraction(num, den)))
    return out


def pretty_print(space: GeneratorSpace, vec: Vec) -> str:
    """Render a weight-3 vector so that parse_relation round-trips exactly,
    each term read off its flat index by divmod (module docstring)."""
    items = sorted((idx, c) for idx, c in vec.items() if c)
    if not items:
        return "0"
    d = space.dim
    dd = d * d
    names = space.names
    parts = []
    for idx, coeff in items:
        block, rest = divmod(idx, dd)
        outer, inner = divmod(rest, d)
        mono = _LEFT_COMBS[block] % (names[inner], names[outer])
        if not parts:
            parts.append(mono if coeff == 1 else f"{coeff} * {mono}")
        else:
            op = " + " if coeff > 0 else " - "
            mag = abs(coeff)
            parts.append(op + (mono if mag == 1 else f"{mag} * {mono}"))
    return "".join(parts)
