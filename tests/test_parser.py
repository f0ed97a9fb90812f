import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadop.core.catalog import catalog, resolve
from quadop.core.free3 import GeneratorSpace
from quadop.core.parser import parse_relation, pretty_print
from quadop.core.perms import CYC123, IDENT, REPS, S3
from quadop.errors import InputError
from quadop.linalg import add_scaled
from quadop.manin import black_product
from helpers import (
    MIXING,
    apply_columns,
    free3_action,
    random_involutive_space,
    reference_parse,
    reference_pretty_print,
)

SYM = GeneratorSpace(("m",), ((Fraction(1),),))
LIE = GeneratorSpace(("b",), ((Fraction(-1),),))
TRIPLE = GeneratorSpace(
    ("p", "c1", "c2"),
    (
        (Fraction(-1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(-1), Fraction(0)),
    ),
)
# Product-style names: '*', "'" and '\u2022' inside the braces.
NAMED = GeneratorSpace(
    ("z1'*p1", "z1'\u2022p2", "b_succ'*m1"),
    (
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-1)),
    ),
)
# A conjugated-sign swap on g0, g1, g2 whose every column has three terms:
# (12)e_g0 = 7/3 e_g0 - 4/3 e_g1 + 4/3 e_g2, (12)e_g2 = -4 e_g0 + 4 e_g1 - 3 e_g2.
MIXED = random_involutive_space(random.Random(3), 3)


def test_left_comb_is_a_basis_monomial():
    v = parse_relation(SYM, "(x1 {m} x2) {m} x3")
    assert v == {SYM.flat(IDENT, 0, 0): Fraction(1)}
    v = parse_relation(SYM, "(x2 {m} x3) {m} x1")
    assert v == {SYM.flat(CYC123, 0, 0): Fraction(1)}
    # (xa {g} xb) {h} xc is sigma = (a, b, c) acting on the unit (id, h, g),
    # in all six orders and for every generator pair: for sigma in the
    # transversal it is the basis monomial (sigma, h, g) with int
    # coefficient 1, and for the other three orders it goes through the
    # swap.  The token-by-token reference reads every comb the same way.
    for space in (MIXING, catalog("diAs").space):
        names = space.names
        for sigma in S3:
            a, b, c = sigma
            cols = free3_action(space, sigma)
            for h in range(space.dim):
                for g in range(space.dim):
                    text = f"(x{a} {{{names[g]}}} x{b}) {{{names[h]}}} x{c}"
                    read = _outcome(parse_relation, space, text)
                    assert parse_relation(space, text) == apply_columns(
                        cols, {space.flat(IDENT, h, g): 1}), text
                    if sigma in REPS:
                        assert read == [(space.flat(sigma, h, g), "int", 1)], text
                    assert read == _outcome(reference_parse, space, text), text


def test_right_comb_rewrites_through_the_swap():
    # e_b(x1, w) = ((12)e_b)(w, x1) = -e_b(w, x1) for an antisymmetric b.
    v = parse_relation(LIE, "x1 {b} (x2 {b} x3)")
    assert v == {LIE.flat(CYC123, 0, 0): Fraction(-1)}


def test_right_combs_over_mixing_swaps_match_the_reference():
    # Every right comb over MIXED, where (12)e_h has three terms, is the sum
    # of its swap column's left combs, and reads as the token-by-token
    # reference reads it, value types included.
    names = MIXED.names
    for a, b, c in S3:
        for g in names:
            for h in names:
                text = f"x{c} {{{h}}} (x{a} {{{g}}} x{b})"
                want: dict = {}
                for m, x in MIXED.swap_columns[MIXED.gen_index(h)]:
                    left = f"(x{a} {{{g}}} x{b}) {{{names[m]}}} x{c}"
                    add_scaled(want, parse_relation(MIXED, left), x)
                assert parse_relation(MIXED, text) == want
                read = _outcome(parse_relation, MIXED, text)
                assert read == _outcome(reference_parse, MIXED, text)


@pytest.mark.parametrize("text, cancelled", [
    # 7/3 (x1 {g1} x2) {g0} x3 is one term of the right comb; both land on it.
    ("x3 {g0} (x1 {g1} x2) - 7/3 * (x1 {g1} x2) {g0} x3", "(x1 {g1} x2) {g0} x3"),
    # The inner swap spreads each outer term over three inner generators.
    ("x3 {g0} (x2 {g1} x1) - 7/3 * (x2 {g1} x1) {g0} x3", "(x2 {g1} x1) {g0} x3"),
    ("x3 {g2} (x1 {g0} x2) + 4 * (x1 {g0} x2) {g0} x3", "(x1 {g0} x2) {g0} x3"),
    ("- x1 {g1} (x2 {g2} x3) + x1 {g1} (x2 {g2} x3)", "x1 {g1} (x2 {g2} x3)"),
])
def test_right_comb_terms_cancel_on_a_shared_basis_vector(text, cancelled):
    vec = parse_relation(MIXED, text)
    assert not set(vec) & set(parse_relation(MIXED, cancelled))
    assert _outcome(parse_relation, MIXED, text) == _outcome(reference_parse, MIXED, text)


def test_rational_coefficients():
    v = parse_relation(SYM, "3/2 * (x1 {m} x2) {m} x3 - (x2 {m} x3) {m} x1")
    assert v == {
        SYM.flat(IDENT, 0, 0): Fraction(3, 2),
        SYM.flat(CYC123, 0, 0): Fraction(-1),
    }


def test_leading_minus_and_cancellation():
    v = parse_relation(SYM, "- (x1 {m} x2) {m} x3 + (x1 {m} x2) {m} x3")
    assert v == {}
    assert parse_relation(SYM, "0") == {}


def test_inner_swap_folds_into_same_basis_vector():
    # (x2 {m} x1) {m} x3 is the (12)-flip of the identity-block monomial.
    flipped = parse_relation(SYM, "(x2 {m} x1) {m} x3")
    plain = parse_relation(SYM, "(x1 {m} x2) {m} x3")
    assert flipped == plain
    anti = parse_relation(LIE, "(x2 {b} x1) {b} x3")
    assert anti == {LIE.flat(IDENT, 0, 0): Fraction(-1)}


def test_unit_text_inverts_flat_index():
    for space in (SYM, TRIPLE):
        for idx in range(space.free3_dim):
            v = parse_relation(space, pretty_print(space, {idx: 1}))
            assert v == {idx: Fraction(1)}


def test_pretty_print_roundtrip_random():
    rng = random.Random(11)
    for space in (LIE, TRIPLE):
        for _ in range(60):
            vec = {
                idx: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for idx in rng.sample(
                    range(space.free3_dim),
                    k=rng.randint(0, min(5, space.free3_dim)),
                )
            }
            vec = {k: c for k, c in vec.items() if c}
            assert parse_relation(space, pretty_print(space, vec)) == vec


_NAME = st.text(st.sampled_from("abz019_'*%s\u2022 ()+-/"), min_size=1, max_size=4).filter(
    lambda name: name == name.strip())


@st.composite
def printed_vectors(draw):
    """A random space (random swap, drawn names that may hold '%', '*',
    primes and inner blanks) and a vector on it with int and Fraction
    values, zeros among them."""
    d = draw(st.integers(1, 3))
    swap = random_involutive_space(random.Random(draw(st.integers(0, 2**16))), d).swap
    names = draw(st.lists(_NAME, min_size=d, max_size=d, unique=True))
    space = GeneratorSpace(tuple(names), swap)
    values = st.one_of(st.integers(-7, 7), st.fractions(-5, 5, max_denominator=6))
    vec = draw(st.dictionaries(st.integers(0, space.free3_dim - 1), values, max_size=7))
    return space, vec


@settings(max_examples=300, deadline=None)
@given(printed_vectors())
@example((TRIPLE, {}))
@example((TRIPLE, {4: 0, 7: Fraction(0)}))
@example((TRIPLE, {5: -1, 2: 1}))
@example((NAMED, {9: Fraction(-3, 2), 20: -1, 3: Fraction(4), 11: 2}))
@example((LIE, {0: Fraction(-1), 1: Fraction(1, 3)}))
def test_pretty_print_matches_the_unflat_renderer(case):
    """pretty_print, which reads each term off its flat index by divmod,
    prints what the renderer through unflat prints, byte for byte, and
    parse_relation reads it back."""
    space, vec = case
    text = pretty_print(space, vec)
    assert text == reference_pretty_print(space, vec)
    assert parse_relation(space, text) == {k: v for k, v in vec.items() if v}
    for idx in vec:
        assert pretty_print(space, {idx: 1}) == reference_pretty_print(space, {idx: 1})


@pytest.mark.parametrize(
    "bad",
    [
        "(x1 {q} x2) {m} x3",          # unknown generator
        "(x1 {m} x2 {m} x3",           # missing close paren
        "(x1 {m} x1) {m} x3",          # repeated variable
        "x1 {m} x2",                   # not a weight-3 monomial
        "(x1 {} x2) {m} x3",           # empty generator name
        "(x1 {m} x2) {m} x3 $",        # stray symbol
        "1/0 * (x1 {m} x2) {m} x3",    # zero denominator
        "(x1 {m} x2) {m} x3 (x2 {m} x3) {m} x1",  # missing operator
    ],
)
def test_bad_relations_raise(bad):
    with pytest.raises(InputError) as exc:
        parse_relation(SYM, bad)
    assert len(str(exc.value).splitlines()) == 1
    with pytest.raises(InputError):
        reference_parse(SYM, bad)


@pytest.mark.parametrize("bad, message, kept", [
    ("(x1 {q} x2) {m} x3", "unknown generator 'q'; have ['m']", True),
    ("(x1 {m} x1) {m} x3", "each of x1, x2, x3 must occur exactly once, got x1, x1, x3", True),
    ("x2 {m} (x1 {m} x2)", "each of x1, x2, x3 must occur exactly once, got x2, x1, x2", True),
    ("1/0 * (x1 {m} x2) {m} x3", "zero denominator", True),
    ("(x1 { } x2) {m} x3", "empty generator name in braces", True),
    ("(x1 {m} x2) {m} x3 - 2 / " + "7" * 5000 + " * (x2 {m} x3) {m} x1",
     "integer at position 25 is too long", True),
    ("0" * 5000, "integer at position 0 is too long", True),
    ("(x1 {m} x2 {m} x3", "cannot read a term at position 0: '(x1 {m} x2 {'", False),
    ("(x1 {m} x2) {m} x3 $", "cannot read a term at position 19: '$'", False),
    ("(x1 {m} x2) {m} x3 (x2 {m} x3) {m} x1",
     "expected '+' or '-' before the term at position 19: '(x2 {m} x3) '", False),
    (" + (x1 {m} x2) {m} x3", "a relation cannot open with '+' (position 1)", False),
    ("", "cannot read a term at position 0: ''", False),
])
def test_error_messages_are_pinned(bad, message, kept):
    # kept: the token-by-token reference words the fault the same way.
    for read in (parse_relation, reference_parse) if kept else (parse_relation,):
        with pytest.raises(InputError) as exc:
            read(SYM, bad)
        assert str(exc.value) == message


# Fragments of the grammar, valid and broken, so that drawn texts often get
# deep into the parser before they go wrong.
_FRAGMENTS = ["x1", "x2", "x3", "x4", "{p}", "{c1}", "{c2}", "{}", "{", "}", "(", ")",
              "+", "-", "*", "/", "0", "1", "3/2", "12", " ", "{q}", "$"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet="x123{}()+-*/ 0pc\u0661", max_size=40),
))
# Valid relations, so that the round trip below runs on every run; the last
# two parse only over NAMED.
@example("(x1 {p} x2) {p} x3")
@example("3 * (x1 {p} x2) {c1} x3 - 3/2 * (x2 {c2} x3) {p} x1")
@example("x3 {c1} (x1 {p} x2) + (x2 {p} x1) {c2} x3")
@example("- 2 * x1 {p} (x2 {c2} x3) - (x1 {c1} x2) {p} x3")
@example("(x1 {z1'*p1} x2) {z1'\u2022p2} x3 - 5/3 * x2 {b_succ'*m1} (x3 {z1'*p1} x1)")
@example("-(x3{b_succ'*m1}x2){ z1'\u2022p2 }x1")
def test_parser_fuzz_returns_a_vector_or_input_error(text):
    for space in (TRIPLE, NAMED):
        try:
            vec = parse_relation(space, text)
        except InputError:
            continue
        assert isinstance(vec, dict)
        for idx, coeff in vec.items():
            assert 0 <= idx < space.free3_dim
            assert type(coeff) in (int, Fraction) and coeff
        assert parse_relation(space, pretty_print(space, vec)) == vec


def test_overlong_integer_is_an_input_error():
    with pytest.raises(InputError):
        parse_relation(SYM, "1" * 5000 + " * (x1 {m} x2) {m} x3")


# Token alphabet: variables (and near misses), braces around names with
# spaces, '*', "'" or '•', digits (once past int()'s digit limit, after a
# space), the punctuation of the grammar and stray characters.
_TOKEN_PIECES = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "(", ")", "+", "-", "*", "/", " ", "\t",
                     " " + "1" * 5000]),
    st.text(alphabet=" ab_1*'\u2022", max_size=8).map(lambda name: "{" + name + "}"),
    st.integers(min_value=0, max_value=10**30).map(str),
)
_PIECES = st.one_of(
    _TOKEN_PIECES,
    st.sampled_from(["x", "x0", "x4", "{", "}", "{{}", "$", "'", "\u2022", "\u0661"]),
    st.text(max_size=2),
)


PRODUCT = black_product(resolve("dual(Zinb)"), catalog("Perm")).space
_PRINTED_TOKEN = re.compile(r"x[123]|\{[^{}]*\}|\d+|[()+\-*/]")
_BLANKS = st.sampled_from(["", " ", "  ", "\t", "\n", "\u2003"])
_ENTRIES = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def printed_relations(draw):
    """A space, a vector and its pretty_print text, with whitespace drawn
    between every two tokens and around the text."""
    space = draw(st.sampled_from([LIE, TRIPLE, NAMED, PRODUCT]))
    vec = draw(st.dictionaries(st.integers(0, space.free3_dim - 1), _ENTRIES, max_size=6))
    vec = {k: v for k, v in vec.items() if v}
    tokens = _PRINTED_TOKEN.findall(pretty_print(space, vec))
    text = draw(_BLANKS) + "".join(tok + draw(_BLANKS) for tok in tokens)
    return space, vec, text


def _outcome(read, space, text):
    """The vector read, with the type of every value, or "InputError" with
    a check that its message is one line."""
    try:
        vec = read(space, text)
    except InputError as exc:
        assert len(str(exc).splitlines()) == 1, str(exc)
        return "InputError"
    return sorted((k, type(v).__name__, v) for k, v in vec.items())


@settings(max_examples=200, deadline=None)
@given(printed_relations())
@example((TRIPLE, {TRIPLE.flat(IDENT, 0, 1): Fraction(3, 2)}, "3/2 * (x1 {c1} x2) {p} x3"))
def test_every_printed_relation_is_read_by_the_term_path(case):
    space, vec, text = case
    assert parse_relation(space, text) == vec
    assert _outcome(parse_relation, space, text) == _outcome(reference_parse, space, text)


_AROUND = st.sampled_from(["", "+", "-", "+ ", "- ", "0 * ", "1/0 * ", "3/ * ", "2 ", " $",
                           " +", " (x1 {p} x2) {p} x3", " - 0 * x1 {p} (x2 {c1} x3)"])


_COEFFICIENTS = st.sampled_from(["", "2 * ", "3/2 * ", "2/2 * ", "0 * ", "5/3 * "])


@st.composite
def right_comb_relations(draw):
    """A random involutive space, whose (12)e_h mostly has several terms,
    some non-integral, and a relation of right combs on it, with a left
    comb now and then."""
    d = draw(st.integers(2, 3))
    space = random_involutive_space(random.Random(draw(st.integers(0, 2**16))), d)
    parts = []
    for pos in range(draw(st.integers(1, 4))):
        a, b, c = draw(st.sampled_from(S3))
        g, h = draw(st.sampled_from(space.names)), draw(st.sampled_from(space.names))
        if draw(st.integers(0, 2)):
            mono = f"x{c} {{{h}}} (x{a} {{{g}}} x{b})"
        else:
            mono = f"(x{a} {{{g}}} x{b}) {{{h}}} x{c}"
        sign = draw(st.sampled_from(["", "- "] if pos == 0 else [" + ", " - "]))
        parts.append(sign + draw(_COEFFICIENTS) + mono)
    return space, "".join(parts)


@st.composite
def relation_texts(draw):
    """Texts near the grammar: fragments and pieces over TRIPLE, printed
    relations with something added in front or behind, and right-comb
    relations over random mixing swaps."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return TRIPLE, "".join(draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=24)))
    if kind == 1:
        return TRIPLE, "".join(draw(st.lists(_PIECES, max_size=16)))
    if kind == 2:
        space, _, text = draw(printed_relations())
        return space, draw(_AROUND) + text + draw(_AROUND)
    return draw(right_comb_relations())


@settings(max_examples=400, deadline=None)
@given(relation_texts())
@example((TRIPLE, "+ (x1 {p} x2) {p} x3"))
@example((TRIPLE, "(x1 {p} x2) {p} x3 (x2 {p} x3) {p} x1"))
@example((TRIPLE, "- 3/2 * (x1 {p} x2) {c1} x3 + 1/0 * (x1 {p} x2) {q} x3"))
@example((TRIPLE, "(x1 {q} x2) {p} x3 + (x1 {} x2) {p} x3"))
@example((TRIPLE, "(x1 {p} x1) {p} x3 + 1/0 * (x1 {p} x2) {p} x3"))
@example((TRIPLE, " 00\t"))
@example((TRIPLE, "0" * 5000))
# A coefficient written n/n scales int values to ints, as 1 does.
@example((TRIPLE, "- 2/2 * (x1 {p} x2) {p} x3 + 3/3 * x3 {c1} (x1 {p} x2)"))
@example((MIXED, "x3 {g0} (x1 {g1} x2) - 2 * x1 {g2} (x3 {g1} x2)"))
@example((MIXED, "- 2/2 * x3 {g1} (x2 {g0} x1) + 3/2 * x2 {g2} (x1 {g2} x3)"))
def test_the_term_path_agrees_with_the_token_path(case):
    # parse_relation and the token-by-token reference give the same vector,
    # value types included, or both raise an InputError of one line.
    space, text = case
    assert _outcome(parse_relation, space, text) == _outcome(reference_parse, space, text)


def test_generator_names_with_products_and_primes_read_back():
    names = ("b_succ'*m1*p1*m2'", "g \u2022 h", "p1*b'", "b_succ'*m1*p1*m2")
    space = GeneratorSpace(names, tuple(
        tuple(Fraction(int(i == j)) for j in range(len(names))) for i in range(len(names))
    ))
    for i, name in enumerate(names):
        assert space.gen_index(name) == i
        text = f"(x1 {{{name}}} x2) {{ {names[0]} }} x3"
        assert parse_relation(space, text) == {space.flat(IDENT, 0, i): 1}
    with pytest.raises(InputError) as exc:
        space.gen_index("b_succ'")
    assert str(exc.value) == f"unknown generator \"b_succ'\"; have {list(names)}"
    with pytest.raises(InputError) as exc:
        parse_relation(space, "(x1 {p1} x2) {p1} x3")
    assert str(exc.value) == f"unknown generator 'p1'; have {list(names)}"
