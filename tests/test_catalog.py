import json

import pytest

from quadop.cli import main
from quadop.core.catalog import catalog, catalog_names, resolve
from quadop.errors import InputError

from helpers import fresh_perp

# Dimensions (generators, relations, quotient) for every entry.  The derived
# entries are built from products and duals, so these values pin down the
# whole construction chain.
EXPECTED_DIMS = {
    "Com": (1, 2, 1),
    "Lie": (1, 1, 2),
    "As": (2, 6, 6),
    "Pois": (2, 6, 6),
    "Nov": (2, 6, 6),
    "NP": (3, 16, 11),
    "GD": (3, 10, 17),
    "Alt": (2, 5, 7),
    "Perm": (2, 9, 3),
    "Zinb": (2, 6, 6),
    "Leib": (2, 6, 6),
    "preLie": (2, 3, 9),
    "diAs": (4, 30, 18),
    "preAs": (4, 18, 30),
    "diNov": (4, 30, 18),
    "postLie": (3, 7, 20),
    "ComTriAs": (3, 20, 7),
}


def test_catalog_names_cover_expected():
    assert set(catalog_names()) == set(EXPECTED_DIMS)


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_dimensions(name):
    P = catalog(name)
    assert (P.dim_gens, P.dim_relations, P.dim_p3) == EXPECTED_DIMS[name]
    assert P.dim_free3 == 3 * P.dim_gens**2
    assert P.name == name


def test_catalog_caches():
    assert catalog("Lie") is catalog("Lie")


def test_resolve_names_and_duals():
    assert resolve("Pois").name == "Pois"
    D = resolve("dual(Perm)")
    assert D.dims() == catalog("preLie").dims()
    DD = resolve("dual(dual(As))")
    assert DD.relations == catalog("As").relations
    assert fresh_perp(resolve("dual(As)").relations) == catalog("As").relations


def test_deeply_nested_dual_resolves(capsys):
    """dual(...) nests to any depth: 1200 layers, deeper than the default
    recursion limit, give the operad of the same depth parity, in text and
    in --json."""
    depth = 1200
    spec = "dual(" * depth + "Lie" + ")" * depth
    assert main(["show", spec]) == 0
    assert capsys.readouterr().err == ""
    code = main(["--json", "show", spec])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    shown = json.loads(captured.out)["operad"]
    assert shown["dims"] == resolve("dual(dual(Lie))").dims()


def test_resolve_unknown():
    with pytest.raises(InputError) as err:
        resolve("Frobenius")
    assert "Frobenius" in str(err.value)


def test_resolve_file(tmp_path):
    path = tmp_path / "com.json"
    path.write_text(
        '{"name": "myCom", "generators": [["m", "sym"]],'
        ' "relations": ["(x1 {m} x2) {m} x3 - (x2 {m} x3) {m} x1"]}'
    )
    P = resolve(str(path))
    assert P.name == "myCom"
    assert P.dims() == catalog("Com").dims()
