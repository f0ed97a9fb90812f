"""Operad construction, projections to the quotient, and basis changes."""

import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from helpers import TABLE_ORDERS, random_involutive_space, random_operad
from hypothesis import given, settings
from hypothesis import strategies as st

from quadop.cli import main
from quadop.core.catalog import catalog, catalog_names, resolve
from quadop.core.free3 import GeneratorSpace
from quadop.core.operad import QuadOperad, change_basis, load_operad_file, make_operad
from quadop.core.parser import pretty_print
from quadop.errors import InputError, InternalCheckError
from quadop.linalg import SubspaceQ


def test_make_operad_symmetry_forms():
    P = make_operad(
        "mixed",
        [("s", "sym"), ("a", "antisym"), ("l", {"pair": "r"}), ("r", {"pair": "l"}),
         ("u", {"swap": {"v": "-1"}}), ("v", {"swap": {"u": "-1"}})],
        [],
    )
    sw = P.space.swap
    names = P.space.names
    i = {n: k for k, n in enumerate(names)}
    assert sw[i["s"]][i["s"]] == 1
    assert sw[i["a"]][i["a"]] == -1
    assert sw[i["r"]][i["l"]] == 1 and sw[i["l"]][i["l"]] == 0
    assert sw[i["v"]][i["u"]] == -1


def test_make_operad_accepts_dict_generators():
    P = make_operad("one", [{"name": "m", "symmetry": "sym"}], [])
    assert P.space.names == ("m",)


def test_bad_symmetry_rejected():
    with pytest.raises(InputError):
        make_operad("bad", [("m", "commutative")], [])
    with pytest.raises(InputError):
        make_operad("bad", [("l", {"pair": "nope"})], [])


def test_relations_ambient_checked():
    space = GeneratorSpace(("m",), ((Fraction(1),),))
    wrong = SubspaceQ.from_vectors(5, [{0: Fraction(1)}])
    with pytest.raises(InputError):
        QuadOperad("broken", space, wrong)


def test_unstable_relations_rejected():
    space = GeneratorSpace(("b",), ((Fraction(-1),),))
    one = SubspaceQ.from_vectors(3, [{0: Fraction(1)}])
    with pytest.raises(InternalCheckError):
        QuadOperad("broken", space, one)


def test_unstable_relations_rejected_at_larger_d():
    P = catalog("diAs")
    rows = P.relations.basis()
    for drop in (0, len(rows) // 2, len(rows) - 1):
        rest = SubspaceQ.from_vectors(P.dim_free3, rows[:drop] + rows[drop + 1:])
        with pytest.raises(InternalCheckError):
            QuadOperad("broken", P.space, rest)


def test_projection_kills_relations_and_fixes_free_monomials():
    """Coordinate k of P(3) is the k-th annihilator row of R, which is
    nonzero on one non-pivot monomial only: that monomial maps to a multiple
    of e_k."""
    P = catalog("As")
    for row in P.relations.basis():
        assert P.project(row) == {}
    functionals = P.relations.annihilator_rows()
    pivots = set(P.relations.pivots)
    free = [c for c in range(P.dim_free3) if c not in pivots]
    for k, idx in enumerate(free):
        assert P.project({idx: 1}) == {k: functionals[k][idx]}


def _projection_case(spec):
    if spec.startswith("random:"):
        rng = random.Random(int(spec.partition(":")[2]))
        return random_operad(rng, rng.randint(1, 3))
    return resolve(spec)


@pytest.mark.parametrize(
    "spec", sorted(TABLE_ORDERS) + [f"random:{seed}" for seed in range(8)])
def test_projection_is_the_integer_quotient_map(spec):
    """p3_projection has int entries, kills R, maps onto P(3), and reads
    coordinate k of e_c as entry c of the k-th annihilator row."""
    P = _projection_case(spec)
    cols = P.p3_projection()
    assert all(type(x) is int for col in cols for x in col.values())
    for row in P.relations.rows():
        assert P.project(row) == {}
    assert SubspaceQ.from_vectors(P.dim_p3, cols).dim == P.dim_p3
    functionals = P.relations.annihilator_rows()
    assert len(functionals) == P.dim_p3
    for c in range(P.dim_free3):
        image = P.project({c: 1})
        assert all(type(x) is int for x in image.values())
        assert image == {k: f[c] for k, f in enumerate(functionals) if c in f}


def test_projection_is_linear_over_a_relation_shift():
    P = catalog("Nov")
    rel = P.relations.basis()[0]
    vec = {0: Fraction(2), 7: Fraction(-1)}
    shifted = dict(vec)
    for c, x in rel.items():
        shifted[c] = shifted.get(c, Fraction(0)) + 3 * x
    assert P.project(vec) == P.project(shifted)


def test_dims_dict():
    P = catalog("Lie")
    assert P.dims() == {"gen": 1, "free3": 3, "relations": 1, "p3": 2}


def test_renamed_keeps_everything_else():
    P = catalog("As")
    Q = P.renamed("assoc")
    assert Q.name == "assoc"
    assert Q.space is P.space
    assert Q.relations is P.relations


def test_load_operad_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "name": "fileop",
        "generators": [["m", "sym"]],
        "relations": ["(x1 {m} x2) {m} x3 - (x2 {m} x3) {m} x1"],
    }))
    P = load_operad_file(str(path))
    assert P.name == "fileop"
    assert P.dim_relations == 2  # closure adds the rotated copy


def _printed(capsys, *argv):
    """The operad object that `quadop --json` prints for argv."""
    code = main(["--json", *argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)["operad"]


def _random_file(rng, d):
    """A random operad file: generators with the swap images of a random
    S2-module rescaled by random rationals q (column j of the swap times
    q_m / q_j in row m), and one random relation seed."""
    space = random_involutive_space(rng, d)
    q = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d)]
    generators = [[name, {"swap": {space.names[m]: str(x * q[m] / q[j]) for m, x in column}}]
                  for j, (name, column) in enumerate(zip(space.names, space.swap_columns))]
    space = make_operad("scaled", generators, []).space
    seed = {c: rng.randint(1, 3) for c in rng.sample(range(space.free3_dim), 2)}
    return {"name": f"random{d}", "generators": generators,
            "relations": [pretty_print(space, seed)]}


def test_printed_operads_load_back(tmp_path, capsys):
    """The operad object that `show --json` and `product --json` print,
    written to a file, loads back: show prints the same object again, for
    every catalog entry, dual(NP), products of every kind and seeded random
    operad files with rational swaps, whose reloaded operad also has the
    same swap and relations as the first load."""
    runs = [["show", name] for name in [*catalog_names(), "dual(NP)"]]
    runs += [["product", "--white", "As", "Com"], ["product", "--white", "Lie", "Nov"],
             ["product", "--black", "As", "Lie"], ["product", "--black", "Pois", "Perm"]]
    runs += [["product", f"--{kind}", name] for kind in ("pre", "post", "di", "tri")
             for name in ("Lie", "Zinb")]
    rng = random.Random(26)
    files = [_random_file(rng, rng.randint(1, 3)) for _ in range(10)]
    assert any("/" in x for f in files for _, sym in f["generators"] for x in sym["swap"].values())
    for k, data in enumerate(files):
        path = tmp_path / f"random{k}.json"
        path.write_text(json.dumps(data))
        runs.append(["show", str(path)])
    for k, argv in enumerate(runs):
        printed = _printed(capsys, *argv)
        path = tmp_path / f"printed{k}.json"
        path.write_text(json.dumps(printed))
        assert _printed(capsys, "show", str(path)) == printed, argv
        if argv[1].endswith(".json"):
            first, again = load_operad_file(argv[1]), load_operad_file(str(path))
            assert (again.space.swap, again.relations) == (first.space.swap, first.relations)


def test_load_operad_file_errors(tmp_path):
    with pytest.raises(InputError):
        load_operad_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_operad_file(str(bad))
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x", "generators": []}))
    with pytest.raises(InputError):
        load_operad_file(str(incomplete))


# Mostly well-formed pieces, each branch also drawing arbitrary JSON, so that
# drawn files reach every stage of the loader before they go wrong.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_NAME = st.sampled_from(["a", "b", "c"])
_ANY_NAME = _NAME | _NAME | st.text(max_size=3) | _JSON
_SYMMETRY = (
    st.sampled_from(["sym", "antisym"])
    | st.fixed_dictionaries({"pair": _ANY_NAME})
    | st.fixed_dictionaries({"swap": st.dictionaries(
        _NAME | st.text(max_size=3), st.sampled_from(["1", "-1", "1/2", "0", "1/0"]) | _JSON, max_size=2)})
    | _JSON
)
_GENERATOR = (
    st.tuples(_NAME, st.sampled_from(["sym", "antisym"])).map(list)
    | st.tuples(_ANY_NAME, _SYMMETRY).map(list)
    | st.fixed_dictionaries({"name": _ANY_NAME, "symmetry": _SYMMETRY})
    | _JSON
)
_WELL_FORMED_RELATION = st.sampled_from([
    "(x1 {a} x2) {a} x3 - x1 {a} (x2 {a} x3)",
    "(x1 {a} x2) {b} x3 + (x2 {b} x3) {a} x1",
    "2/3 * (x3 {b} x1) {b} x2",
    "x1 {c} (x2 {a} x3) - 1/2 * (x1 {b} x2) {c} x3",
    "0",
])
_RELATION = (
    _WELL_FORMED_RELATION
    | st.just("(x1 {a} x2) {a} x3 (x2 {a} x3)")
    | st.text(alphabet="x123{}()+-*/ ab0", max_size=30)
    | _JSON
)
_FILE = (
    st.fixed_dictionaries({
        "name": st.text(max_size=6),
        "generators": st.sampled_from([
            [["a", "sym"]],
            [["a", "antisym"], ["b", "sym"]],
            [["a", {"pair": "b"}], ["b", {"pair": "a"}]],
            [["a", "sym"], ["b", {"swap": {"c": "-1"}}], ["c", {"swap": {"b": "-1"}}]],
        ]),
        "relations": st.lists(_WELL_FORMED_RELATION, max_size=3)
        | st.lists(_RELATION, max_size=3),
    })
    | st.fixed_dictionaries({
        "name": st.text(max_size=6) | _JSON,
        "generators": st.lists(_GENERATOR, min_size=1, max_size=3) | _JSON,
        "relations": st.lists(_RELATION, max_size=3) | _JSON,
    })
    | _JSON
)


@settings(max_examples=300, deadline=None)
@given(_FILE)
def test_loader_fuzz_returns_an_operad_or_input_error(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        try:
            P = load_operad_file(path)
        except InputError:
            return
    finally:
        os.unlink(path)
    assert isinstance(P, QuadOperad)
    assert P.name == data["name"]
    assert P.dim_relations + P.dim_p3 == 3 * len(data["generators"]) ** 2


def test_change_basis_preserves_dims_and_roundtrips():
    P = catalog("Nov")
    T = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]  # commutes with the pair swap
    Q = change_basis(P, T)
    assert Q.dims() == P.dims()
    Tinv = [[Fraction(-1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(-1, 3)]]
    back = change_basis(Q, Tinv)
    assert back.relations == P.relations


def test_change_basis_rejects_bad_matrices():
    P = catalog("Nov")
    with pytest.raises(InputError):
        change_basis(P, [[1, 0], [0, 0]])  # singular
    with pytest.raises(InputError):
        change_basis(P, [[1, 1], [0, 1]])  # does not commute with the swap
    with pytest.raises(InputError, match="must be 2x2"):
        change_basis(catalog("As"), [[1]])
    with pytest.raises(InputError, match="must be 2x2"):
        change_basis(P, [[1, 0], [0, 1], [0, 0]])
