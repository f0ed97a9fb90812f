import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadop.core.free3 import GeneratorSpace
from quadop.core.parser import _tokenize, monomial_str, parse_relation, pretty_print
from quadop.core.perms import CYC123, IDENT
from quadop.errors import InputError
from helpers import reference_tokenize

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


def test_left_comb_is_a_basis_monomial():
    v = parse_relation(SYM, "(x1 {m} x2) {m} x3")
    assert v == {SYM.flat(IDENT, 0, 0): Fraction(1)}
    v = parse_relation(SYM, "(x2 {m} x3) {m} x1")
    assert v == {SYM.flat(CYC123, 0, 0): Fraction(1)}


def test_right_comb_rewrites_through_the_swap():
    # e_b(x1, w) = ((12)e_b)(w, x1) = -e_b(w, x1) for an antisymmetric b.
    v = parse_relation(LIE, "x1 {b} (x2 {b} x3)")
    assert v == {LIE.flat(CYC123, 0, 0): Fraction(-1)}


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


def test_monomial_str_inverts_flat_index():
    for space in (SYM, TRIPLE):
        for idx in range(space.free3_dim):
            v = parse_relation(space, monomial_str(space, idx))
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
    with pytest.raises(InputError):
        parse_relation(SYM, bad)


# Fragments of the grammar, valid and broken, so that drawn texts often get
# deep into the parser before they go wrong.
_FRAGMENTS = ["x1", "x2", "x3", "x4", "{p}", "{c1}", "{c2}", "{}", "{", "}", "(", ")",
              "+", "-", "*", "/", "0", "1", "3/2", "12", " ", "{q}", "$"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet="x123{}()+-*/ 0pc\u0661", max_size=40),
))
def test_parser_fuzz_returns_a_vector_or_input_error(text):
    try:
        vec = parse_relation(TRIPLE, text)
    except InputError:
        return
    assert isinstance(vec, dict)
    for idx, coeff in vec.items():
        assert 0 <= idx < TRIPLE.free3_dim
        assert isinstance(coeff, Fraction) and coeff
    assert parse_relation(TRIPLE, pretty_print(TRIPLE, vec)) == vec


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


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except InputError as exc:
        return ("InputError", str(exc))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_TOKEN_PIECES, max_size=16), st.lists(_PIECES, max_size=16))
       .map("".join))
def test_tokenizer_matches_the_reference(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


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
