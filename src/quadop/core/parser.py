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
permutation (a, b, c) it is sigma acting on the monomial (id, h, g).  A right
comb xc {h} (xa {g} xb) is rewritten through the (12)-symmetry of the outer
generator: e_h(xc, w) = ((12)e_h)(w, xc).

pretty_print emits terms in flat-index order and parse_relation inverts it
exactly; "0" is the empty vector.

The reader is one compiled regex that matches a whole term (sign,
coefficient, either comb and the whitespace around them): parse_relation
walks the text with it, one match per term.  The tokenizer and its cursor
only word the InputError for text that the term regex does not consume, so
an error reads the same whichever way it was found.
"""

from __future__ import annotations

import re
from fractions import Fraction

from quadop.core.free3 import GeneratorSpace, Vec, act
from quadop.core.perms import IDENT, S3, Perm
from quadop.errors import InputError, InternalCheckError
from quadop.linalg import add_scaled

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<var>x[123])
      | \{(?P<gen>[^{}]*)\}
      | (?P<int>\d+)
      | (?P<punct>[()+\-*/])
    )""",
    re.VERBOSE,
)

# One term: an optional sign, an optional "n[/m] *" coefficient, a left comb
# (groups 4-8) or a right comb (groups 9-13), and the whitespace around
# them.  Each piece is the tokenizer's pattern for that token, so a text the
# regex consumes tokenizes to the same tokens.
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


def _left_comb(space: GeneratorSpace, a, g, b, h, c) -> Vec:
    sigma: Perm = (a, b, c)
    if sigma not in _PERMS:
        raise InputError(f"each of x1, x2, x3 must occur exactly once, got x{a}, x{b}, x{c}")
    unit = {space.flat(IDENT, space.gen_index(h), space.gen_index(g)): 1}
    return act(space, sigma, unit)


def _right_comb(space: GeneratorSpace, c, h, a, g, b) -> Vec:
    sigma: Perm = (a, b, c)
    if sigma not in _PERMS:
        raise InputError(f"each of x1, x2, x3 must occur exactly once, got x{c}, x{a}, x{b}")
    gi = space.gen_index(g)
    out: Vec = {}
    # e_h(xc, w) = sum_m swap[m][h] e_m(w, xc)
    for m, coeff in space.swap_columns[space.gen_index(h)]:
        add_scaled(out, act(space, sigma, {space.flat(IDENT, m, gi): 1}), coeff)
    return out


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


def _scaled(mono: Vec, coeff) -> Vec:
    if coeff == 1:
        return mono
    return {k: coeff * v for k, v in mono.items()}


def _parse_tokens(space: GeneratorSpace, text: str) -> Vec:
    """The token path: tokenize the whole text, then parse it with a cursor.
    It raises the InputError for any text the term path does not consume."""
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


def _read_terms(space: GeneratorSpace, text: str) -> Vec | None:
    """The term path: the vector of text read with one _TERM_RE match per
    term, or None when the matches do not consume the text or the token
    path would refuse it before parsing (an empty name, an integer int()
    refuses).  The terms are all matched before any is evaluated, so the
    first fault found in evaluation is the token path's first fault too."""
    zero = _ZERO_RE.fullmatch(text)
    if zero is not None:
        try:
            return {} if int(zero[1]) == 0 else None
        except ValueError:  # more digits than int() accepts
            return None
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
            return None
        sign, num, den, la, lg, lb, lh, lc, rc, rh, ra, rg, rb = m.groups()
        # "+" or "-" between terms; only "-" may open the relation.
        if (sign is None) if terms else (sign == "+"):
            return None
        try:
            num = 1 if num is None else int(num)
            den = 1 if den is None else int(den)
        except ValueError:  # more digits than int() accepts
            return None
        if la is not None:
            comb, args = _left_comb, (_VAR[la], lg.strip(), _VAR[lb], lh.strip(), _VAR[lc])
        else:
            comb, args = _right_comb, (_VAR[rc], rh.strip(), _VAR[ra], rg.strip(), _VAR[rb])
        if not args[1] or not args[3]:  # a name that strips to nothing
            return None
        terms.append((-1 if sign == "-" else 1, num, den, comb, args))
        pos = m.end()
    if not terms:
        return None
    out: Vec = {}
    for sign, num, den, comb, args in terms:
        if den == 0:
            raise InputError("zero denominator")
        add_scaled(out, _scaled(comb(space, *args), num if den == 1 else Fraction(num, den)), sign)
    return out


def parse_relation(space: GeneratorSpace, text: str) -> Vec:
    """Parse a relation string into {flat index: coefficient} over the space;
    a relation written with integer coefficients gives int values."""
    vec = _read_terms(space, text)
    if vec is None:
        _parse_tokens(space, text)  # raises the InputError that words the fault
        raise InternalCheckError(f"the token path parses a relation the term path refuses: {text!r}")
    return vec


def monomial_str(space: GeneratorSpace, index: int) -> str:
    """Left-comb rendering of the basis monomial with the given flat index."""
    sigma, outer, inner = space.unflat(index)
    a, b, c = sigma
    return (
        f"(x{a} {{{space.names[inner]}}} x{b}) {{{space.names[outer]}}} x{c}"
    )


def pretty_print(space: GeneratorSpace, vec: Vec) -> str:
    """Render a weight-3 vector so that parse_relation round-trips exactly."""
    items = sorted((idx, c) for idx, c in vec.items() if c)
    if not items:
        return "0"
    parts = []
    for pos, (idx, coeff) in enumerate(items):
        mono = monomial_str(space, idx)
        if pos == 0:
            if coeff == 1:
                parts.append(mono)
            else:
                parts.append(f"{coeff} * {mono}")
        else:
            op = " + " if coeff > 0 else " - "
            mag = abs(coeff)
            parts.append(op + (mono if mag == 1 else f"{mag} * {mono}"))
    return "".join(parts)
