"""Command-line interface, exercised in-process through main()."""

import json
from pathlib import Path

import pytest

from quadop.cli import main
from quadop.core.catalog import catalog_names


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_catalog_lists_every_name(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in catalog_names():
        assert name in out


def test_show_text_contains_relations(capsys):
    code, out, _ = run(capsys, "show", "Lie")
    assert code == 0
    assert "(x1 {b} x2) {b} x3" in out


def test_dong_json_shape(capsys):
    payload = run_json(capsys, "dong", "Zinb")
    assert payload["schema_version"] == "1"
    assert payload["dong"]["verdict"] == "NotDong"
    assert payload["dong"]["method_agreement"] is True
    assert sorted(payload["dong"]["dims"]) == [
        "dual_p3", "dual_relations", "free3", "gen", "p3", "relations",
    ]
    assert payload["dong"]["witnesses"]


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "--json", "dual", "NP")
    second = run(capsys, "--json", "dual", "NP")
    assert first == second


def test_dual_json_primes_names(capsys):
    payload = run_json(capsys, "dual", "Lie")
    gens = [g["name"] for g in payload["dual"]["generators"]]
    assert gens == ["b'"]
    assert payload["dual"]["dims"] == {"free3": 3, "gen": 1, "p3": 1, "relations": 2}


def test_product_pre_split_names(capsys):
    code, out, _ = run(capsys, "product", "--pre", "Lie")
    assert code == 0
    assert "b_succ" in out and "b_prec" in out


def test_product_white_dims(capsys):
    payload = run_json(capsys, "product", "--black", "As", "Lie")
    assert payload["operad"]["dims"]["relations"] == 6


def test_locality_window_note(capsys):
    payload = run_json(capsys, "locality", "Com", "--window", "2")
    assert payload["locality"]["pairs"] == {"0,0": 1}
    assert "certificate" in payload["locality"]["note"]


def test_unknown_operad_fails_cleanly(capsys):
    code, out, err = run(capsys, "dong", "NoSuchOp")
    assert code == 1
    assert "NoSuchOp" in err
    assert out == ""


def test_operand_count_is_checked(capsys):
    code, _, err = run(capsys, "product", "--white", "Lie")
    assert code == 1 and "two operands" in err
    code, _, err = run(capsys, "product", "--di", "Lie", "As")
    assert code == 1 and "single operand" in err


def test_window_violation_reports_radius(capsys):
    code, _, err = run(capsys, "locality", "preLie", "--window", "2", "--n-max", "5")
    assert code == 1
    assert "requires K >= 3" in err


def test_operad_from_file(capsys, tmp_path):
    path = tmp_path / "myop.json"
    path.write_text(json.dumps({
        "name": "myNov",
        "generators": [["u", "sym"], ["v", "antisym"]],
        "relations": ["(x1 {u} x2) {u} x3 - (x2 {u} x3) {u} x1"],
    }))
    payload = run_json(capsys, "dong", str(path))
    assert payload["dong"]["verdict"] == "NotDong"
    assert payload["dong"]["kernel_dim"] == 3


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "ok" in out.lower()


_GOOD_FILE = {
    "name": "myCom",
    "generators": [["a", "sym"]],
    "relations": ["(x1 {a} x2) {a} x3 - x1 {a} (x2 {a} x3)"],
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("generators", "ab", "generators must be a list"),
        ("generators", [["a", {"swap": {"a": "abc"}}]], "not a rational"),
        ("relations", [5], "relation 5 is not a string"),
        ("relations", "(x1 {a} x2) {a} x3", "relations must be a list"),
    ],
    ids=["generators-string", "swap-not-rational", "relation-not-string", "relations-string"],
)
def test_malformed_operad_file_is_an_input_error(capsys, tmp_path, field, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_GOOD_FILE, field: value}))
    code, out, err = run(capsys, "dong", str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert message in err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("quadop.cli.cmd_catalog", broken)
    code, out, err = run(capsys, "catalog")
    assert code == 3
    assert out == ""
    assert err == "unexpected error: RuntimeError: boom\n"


def test_window_above_cap_is_an_input_error(capsys):
    code, out, err = run(capsys, "locality", "Com", "--window", "10000")
    assert code == 1
    assert out == ""
    assert "exceeds the cap of 16" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["locality", "Com", "--window", "abc"], "invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["product", "--white", "--black", "As", "Lie"], "not allowed with argument"),
    ],
    ids=["bad-int", "no-command", "exclusive-kinds"],
)
def test_usage_error_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: quadop" in capsys.readouterr().out


def test_readme_dong_transcript(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("$ quadop dong preLie") + 1
    code, out, _ = run(capsys, "dong", "preLie")
    assert code == 0
    assert readme[start + 4] == "```"
    assert out == "\n".join(readme[start:start + 4]) + "\n"
    assert "  witness: (x1 {p1} x2) {p1} x3 - (x1 {p2} x2) {p1} x3" in readme[start:start + 4]
