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
"""

from __future__ import annotations

import re
from fractions import Fraction

from quadop.core.free3 import GeneratorSpace, Vec, act
from quadop.core.perms import IDENT, Perm
from quadop.errors import InputError
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
    if set(sigma) != {1, 2, 3}:
        raise InputError(f"each of x1, x2, x3 must occur exactly once, got x{a}, x{b}, x{c}")
    unit = {space.flat(IDENT, space.gen_index(h), space.gen_index(g)): 1}
    return act(space, sigma, unit)


def _right_comb(space: GeneratorSpace, c, h, a, g, b) -> Vec:
    sigma: Perm = (a, b, c)
    if set(sigma) != {1, 2, 3}:
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
    mono = _parse_mono(space, cur)
    if coeff == 1:
        return mono
    return {k: coeff * v for k, v in mono.items()}


def parse_relation(space: GeneratorSpace, text: str) -> Vec:
    """Parse a relation string into {flat index: coefficient} over the space;
    a relation written with integer coefficients gives int values."""
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
