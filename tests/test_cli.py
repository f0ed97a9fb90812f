"""Command-line interface, exercised in-process through main(), and in a
child process where the operating system's streams matter."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadop
from quadop.cli import main
from quadop.core.catalog import catalog_names
from quadop.locality import LocalityInstance


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


# sha256 of `--json show NAME` followed by `--json dual NAME`, frozen from the
# implementation that stored canonical rows as Fraction tuples.  It pins the
# printed canonical relations of every catalog entry and of its dual.
_SHOW_DUAL_SHA256 = {
    "Alt": "a1d8b5bd35d7908a7f0132a2a878610a020634db83c5e2bb4512c95afc566f9b",
    "As": "c0b3a4761698128221527193d5c9e04130433af3741ed85032173b34354ca71a",
    "Com": "766ec67f451fe954b693c6b917853e588bd5b1c6465f74ad91bdc3441659d3f3",
    "GD": "fc553f6317a5944d327352eda1a796f816675edc20c16736ccaf3ab880c1d605",
    "Lie": "4ee1211033ec4da1ef5531429d8e452fc70b8def97c47516fbbd468774888880",
    "NP": "c0f318042fae4fa3c5933677952e62fe2822196ed0721c37edcb758c17315061",
    "Nov": "a77f38eb5cc76a9fb35abfd6e937e5ee014527a9091e07858d79f6d0e44cee75",
    "Perm": "04d10497b3daab3384cc547e5b5a6658ae8eff4624918aaed6f7fa7af9d07849",
    "Pois": "1930f659bf33333f2209e134eb90b50159ca7d72013fa0bdf13e94b9e8b13e3e",
    "Zinb": "d0a59b681b008002107f407b54c0e83d7bbfe06aee563289dac9ee4bdc6d53de",
    "ComTriAs": "142a80feb391194547d956238862e867c35f99314706b05b77b95df71a4b138c",
    "Leib": "0afd49171b5079479bbb0333356ba4e218f1f16ef96b2c07f4126aaf4de909ca",
    "diAs": "022674bd5c0ac255beb6004e2dffcba146a30aa8315f2af1f7525b2b0b17e767",
    "diNov": "dcb998f4339f4701760f8b3cc8944978f3bd384bab6f277b22feeb21acdd02ab",
    "postLie": "2b53a5b7907281fc0f057f7d5ebcea57be5b91727f66f316a4f341739a77de95",
    "preAs": "e226fa66f11bcb282605c151ce48133b55aa4d6f0000931d9389a885caee242e",
    "preLie": "3a19e61a17c9f611388120988ff4f500663978a4834f87b0218ad70da6dc26fb",
}


def test_show_and_dual_json_are_frozen(capsys):
    assert sorted(_SHOW_DUAL_SHA256) == sorted(catalog_names())
    for name, digest in _SHOW_DUAL_SHA256.items():
        h = hashlib.sha256()
        for command in ("show", "dual"):
            code, out, err = run(capsys, "--json", command, name)
            assert code == 0, err
            h.update(out.encode())
        assert h.hexdigest() == digest, name


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


def test_product_dictionaries_are_pinned(capsys):
    # The split blocks run succ, prec, perp over the base generators; a
    # replication pairs the partner's generators with the operand's.
    payload = run_json(capsys, "product", "--post", "Lie")
    assert payload["product"] == {
        "recipe": "split_post(Lie)",
        "dims": {"free3": 27, "gen": 3, "p3": 20, "relations": 7},
        "dictionary": [
            {"name": "b_succ", "base": "b", "part": "succ"},
            {"name": "b_prec", "base": "b", "part": "prec"},
            {"name": "b_perp", "base": "b", "part": "perp"},
        ],
    }
    payload = run_json(capsys, "product", "--tri", "As")
    assert payload["product"] == {
        "recipe": "tri(As)",
        "dims": {"free3": 108, "gen": 6, "p3": 42, "relations": 66},
        "dictionary": [
            {"name": f"b_{part}'*{m}", "left": f"b_{part}'", "right": m}
            for part in ("succ", "prec", "perp")
            for m in ("m1", "m2")
        ],
    }


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


@pytest.mark.parametrize("kind, sep", [("--white", "*"), ("--black", "•")])
def test_product_name_collision_names_both_pairs(capsys, tmp_path, kind, sep):
    # a<sep>b joined with c, and a joined with b<sep>c, give one name.
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    for path, names in ((left, [f"a{sep}b", "a"]), (right, ["c", f"b{sep}c"])):
        path.write_text(json.dumps(
            {"name": path.stem, "generators": [[g, "sym"] for g in names], "relations": []}
        ))
    code, out, err = run(capsys, "product", kind, str(left), str(right))
    assert code == 1 and out == ""
    assert f"a{sep}b{sep}c" in err
    assert repr((f"a{sep}b", "c")) in err and repr(("a", f"b{sep}c")) in err
    # The same names under the other product's separator do not collide.
    other = "--black" if kind == "--white" else "--white"
    code, _, err = run(capsys, "product", other, str(left), str(right))
    assert code == 0, err


def test_window_violation_reports_radius(capsys):
    code, _, err = run(capsys, "locality", "preLie", "--window", "2", "--n-max", "5")
    assert code == 1
    assert "requires K >= 3" in err


def test_window_errors_come_from_the_search(capsys):
    """The sweep checks the window at N = 0, 1, ... up to each pair's
    answer, and up to Nmax for a null pair.  Zinb's null pairs need K >= 4
    only because they search to Nmax = 4, and Lie's order-2 pair fails at
    N = 2 in a window of radius 1."""
    code, out, err = run(capsys, "locality", "Zinb", "--window", "3")
    assert code == 1 and out == ""
    assert err == ("error: residue ResidueSpec(i=0, k=0, j=1, N=4, n=0, m=0) does not fit "
                   "in window radius K=3; requires K >= 4\n")
    payload = run_json(capsys, "locality", "Zinb", "--window", "3", "--n-max", "3")
    assert payload["locality"]["pairs"] == {"0,0": 1, "0,1": None, "1,0": 1, "1,1": None}
    code, out, err = run(capsys, "locality", "Lie", "--window", "1")
    assert code == 1 and out == ""
    assert err == ("error: residue ResidueSpec(i=0, k=0, j=0, N=2, n=0, m=0) does not fit "
                   "in window radius K=1; requires K >= 2\n")


def test_locality_input_is_checked_without_generators(capsys, tmp_path):
    """An operad with no generators has no pair to search, and still refuses
    a negative k and an anchor outside the window, with Com's messages."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "e", "generators": [], "relations": []}))
    for flags in (["--k", "-3"], ["--anchor", "99,99", "--window", "1"]):
        code, out, err = run(capsys, "locality", "Com", *flags)
        assert (code, out) == (1, "")
        assert run(capsys, "locality", str(path), *flags) == (1, "", err)
    assert err == ("error: residue ResidueSpec(i=0, k=0, j=0, N=0, n=99, m=99) does not fit "
                   "in window radius K=1; requires K >= 99\n")
    payload = run_json(capsys, "locality", str(path))
    assert payload["locality"]["pairs"] == {}


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


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (1, 3)])
def test_selfcheck_locality_anchor_tells_every_level_apart(capsys, monkeypatch, a, b):
    """The locality anchor pins Lie (level 2) and Zinb (levels 1 and 3), so
    exchanging any two nonzero levels fails it."""
    init = LocalityInstance.__init__
    swap = {a: b, b: a}

    def swapped(self, P, K):
        init(self, P, K)
        self.levels = [swap.get(level, level) for level in self.levels]

    monkeypatch.setattr(LocalityInstance, "__init__", swapped)
    code, _, err = run(capsys, "selfcheck")
    assert code == 2
    assert "locality order" in err


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
        ("generators", [["a", {"swap": {"b": "1e999999999"}}], ["b", {"swap": {"a": "1"}}]],
         "has an exponent beyond 4300"),
        ("generators", [["a}b", "sym"]], "generator name 'a}b'"),
        ("generators", [["a{", "sym"]], "generator name 'a{'"),
        ("generators", [[" a", "sym"]], "generator name ' a'"),
        ("generators", [["a", "sym"], ["", "sym"]], "generator name ''"),
        ("relations", ["(x1 {a} x2 {a} x3"],
         "cannot read a term at position 0: '(x1 {a} x2 {'"),
        ("relations", ["(x1 {a} x2) {a} x3 $"], "cannot read a term at position 19: '$'"),
    ],
    ids=["generators-string", "swap-not-rational", "relation-not-string", "relations-string",
         "swap-huge-exponent", "name-closing-brace", "name-opening-brace", "name-space",
         "name-empty", "relation-unclosed", "relation-stray-symbol"],
)
def test_malformed_operad_file_is_an_input_error(capsys, tmp_path, field, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_GOOD_FILE, field: value}))
    code, out, err = run(capsys, "dong", str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert message in err


def test_dual_name_that_would_be_empty_is_an_input_error(capsys, tmp_path):
    # A lone generator named "'" loads and prints, but its dual would be
    # named "", which no relation can mention.
    path = tmp_path / "prime.json"
    path.write_text(json.dumps({
        "name": "prime",
        "generators": [["'", "sym"]],
        "relations": ["(x1 {'} x2) {'} x3 - x1 {'} (x2 {'} x3)"],
    }))
    assert run(capsys, "show", str(path))[0] == 0
    code, out, err = run(capsys, "dong", str(path))
    assert (code, out) == (1, "")
    assert "generator name ''" in err
    assert err.count("\n") == 1


def test_operad_file_integer_beyond_digit_cap_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    text = json.dumps({**_GOOD_FILE, "generators": [["a", {"swap": {"a": 0}}]]})
    path.write_text(text.replace('"a": 0', '"a": ' + "1" * 5000))
    code, out, err = run(capsys, "show", str(path))
    assert (code, out) == (1, "")
    assert "not valid JSON" in err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("quadop.cli.cmd_catalog", broken)
    code, out, err = run(capsys, "catalog")
    assert code == 3
    assert out == ""
    assert err == "unexpected error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "argv",
    [["catalog"], ["show", "Lie"], ["dual", "Lie"], ["dong", "Lie"], ["product", "--di", "Lie"],
     ["locality", "Lie"], ["selfcheck"]],
    ids=lambda argv: argv[0],
)
def test_handler_replaced_after_earlier_calls_is_the_one_run(capsys, monkeypatch, argv):
    """main() builds its parser once, on the first call; a cmd_<name>
    replaced after that is still the handler its subcommand runs."""
    assert main(["catalog"]) == 0
    capsys.readouterr()

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(f"quadop.cli.cmd_{argv[0]}", broken)
    assert run(capsys, *argv) == (3, "", "unexpected error: RuntimeError: boom\n")


# Run in this order in one process, each call parses with the parser an
# earlier call built: options set by the first locality call must not carry
# over to the second, nor a usage error to the call after it.
_REUSED_PARSER_CALLS = [
    ["locality", "Lie", "--window", "3", "--k", "1", "--anchor", "1,-1"],
    ["locality", "Lie"],
    ["product", "--white", "--black", "As", "Lie"],
    ["--json", "show", "As"],
    ["--help"],
    ["locality", "--help"],
    ["dong", "preLie"],
]


def test_repeated_calls_answer_as_fresh_processes(capsys, monkeypatch):
    """Each of a sequence of in-process main() calls gives the exit status,
    stdout and stderr of the same call in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # fixes the --help line width
    src = str(Path(quadop.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    results = []
    for argv in _REUSED_PARSER_CALLS:
        code = main(argv)
        captured = capsys.readouterr()
        got = (code, captured.out, captured.err)
        proc = subprocess.run([sys.executable, "-m", "quadop.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        results.append(got)
    first, default, usage, good, helped = results[:5]
    assert "(k=1, Nmax=4, window K=3, anchor=(1,-1))" in first[1]
    assert "(k=0, Nmax=4, window K=6, anchor=(0,0))" in default[1]
    assert (usage[0], usage[1]) == (1, "") and "not allowed with argument" in usage[2]
    assert (good[0], good[2]) == (0, "")
    assert helped[0] == 0 and helped[1].startswith("usage: quadop")


def test_closed_stdout_exits_141_quietly():
    """Output into a pipe whose reader has gone (``quadop selfcheck |
    head -1``) ends with exit 141 and nothing on stderr, not a traceback."""
    src = str(Path(quadop.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "quadop.cli", "selfcheck"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


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


def test_negative_n_max_exits_1(capsys):
    code, out, err = run(capsys, "locality", "Com", "--n-max", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: largest locality order Nmax must be >= 0, got -1\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: quadop" in capsys.readouterr().out


def test_readme_dong_transcript(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("$ quadop dong preLie") + 1
    code, out, _ = run(capsys, "dong", "preLie")
    assert code == 0
    assert readme[start + 4] == "```"
    assert out == "\n".join(readme[start:start + 4]) + "\n"
    assert "  witness: (x1 {p1} x2) {p1} x3 - (x1 {p2} x2) {p1} x3" in readme[start:start + 4]
