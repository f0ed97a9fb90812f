"""Pinned outputs: the bytes quadop prints for fixed sets of calls, hashed
and compared with digests frozen from earlier runs.

Every call runs in this process through `run`, which captures the exit
code, stdout and stderr of `quadop.cli.main`.  Each test hashes its calls
in one byte format:
- the locality grids, products and random splits: the exit code, stdout
  and stderr of every call, as f"{code}\\n{out}\\0{err}\\0";
- the text layer and selfcheck: stdout;
- the white products: their relations joined by newlines;
- criterion 9: one line per sweep of the API.

A pinned value changes only with evidence that can fail independently of
the code that computes it (ROADMAP aim 3).  On a mismatch, the assertion
shows the digest the test computed.  The last tests are lints over the
source tree: no module imports another module's private names, and no
module but linalg.py calls the SubspaceQ constructor or reads the kernel's
private attributes.
"""

import ast
import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest
from helpers import random_operad

from quadop import InputError, LocalityInstance, black_product, catalog, replicate, split
from quadop.cli import main
from quadop.core.catalog import catalog_names


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def runs_digest(calls):
    """Digest of every call in text and in --json, in that order."""
    h = hashlib.sha256()
    for argv in calls:
        for flag in ([], ["--json"]):
            code, out, err = run(*flag, *argv)
            h.update(f"{code}\n{out}\0{err}\0".encode())
    return h.hexdigest()


def run_json(*argv):
    code, out, err = run("--json", *argv)
    assert code == 0, err
    return json.loads(out)


def relations_digest(relations):
    return sha256("\n".join(relations))


def dims(operad):
    d = operad["dims"]
    return d["gen"], d["free3"], d["relations"], d["p3"]


def test_white_product_of_diAs_with_itself_is_pinned():
    op = run_json("product", "--white", "diAs", "diAs")["operad"]
    got = relations_digest(op["relations"])[:16], dims(op)
    assert got == ("9d15d23b67aeb3b1", (16, 768, 444, 324)), got


def test_white_product_of_saved_tri_As_with_diAs_is_pinned(tmp_path):
    """The d=24 product white(tri(As), diAs), built from saved operad
    objects, with its dual and its Dong verdict."""
    tri, wide = tmp_path / "tri.json", tmp_path / "wide.json"
    tri.write_text(json.dumps(run_json("product", "--tri", "As")["operad"]))
    product = run_json("product", "--white", str(tri), "diAs")["operad"]
    wide.write_text(json.dumps(product))
    dual = run_json("dual", str(wide))["dual"]
    dong = run_json("dong", str(wide))["dong"]
    got = (dims(product), relations_digest(product["relations"])[:16],
           relations_digest(dual["relations"])[:16], (dong["verdict"], dong["kernel_dim"]))
    want = ((24, 1728, 972, 756), "022e8b71853fcfbd", "d1677921d7e5f2fa", ("NotDong", 168))
    assert got == want, got


def test_text_layer_is_pinned():
    """show, dual and dong --json for every catalog entry and dual(NP),
    concatenated: the relation and witness text, the regex reader and the
    printing of int and Fraction values on this Python."""
    names = [line.split()[0] for line in run("catalog")[1].splitlines()] + ["dual(NP)"]
    text = "".join(run("--json", cmd, name)[1]
                   for cmd in ("show", "dual", "dong") for name in names)
    digest = sha256(text)
    assert digest == "e125e8c8209d9a84d9dcf5f38236c82894447a4a862fe78aa971da8ec28a62df", digest


_ENTRIES = ["Com", "Lie", "As", "Pois", "Nov", "NP", "Alt", "Perm", "Leib", "diAs", "diNov",
            "dual(GD)", "ComTriAs", "Zinb", "preLie", "preAs", "dual(NP)", "GD", "postLie"]
_NEAR = ("0,0", "1,-1", "-1,1", "2,0")
_FAR = ("9,-9", "-9,9", "9,9", "-9,-9", "0,-16", "16,0")

# Each grid's digest and the arguments of its locality calls:
# - "window": the 19 table entries, windows 1-8 and 16, k 0-2 and four anchors;
# - "Nmax": the 19 entries, --n-max 0-3 and 5, windows 1-4 and 8, k 0-2 and
#   four anchors: the orders and the pair each refused search names;
# - "far": six entries (levels 1-3), --n-max 7, 20 and 1000000, windows 1, 5,
#   9 and 16, k 0-2 and anchors up to 16 from the centre: the first N whose
#   residue does not fit, on both sides of every window edge.
_GRIDS = {
    "window": (
        "ce4df89859a58f7575681a73413a682eda79871781947af58f46d331aa326156",
        [["locality", name, "--window", str(K), "--k", str(k), f"--anchor={anchor}"]
         for name, K, k, anchor
         in itertools.product(_ENTRIES, [*range(1, 9), 16], range(3), _NEAR)]),
    "Nmax": (
        "74cc4d4c99b758f79ef5ced950ac780eb9341d5796c9e7615bff31d9bcbfe44f",
        [["locality", name, "--n-max", str(n_max), "--window", str(K), "--k", str(k),
          f"--anchor={anchor}"]
         for name, n_max, K, k, anchor
         in itertools.product(_ENTRIES, (0, 1, 2, 3, 5), (1, 2, 3, 4, 8), range(3), _NEAR)]),
    "far": (
        "fe3852db1cdac5fd8b911f952dc4c9f05fad2888323534c23e782e179e718942",
        [["locality", name, "--n-max", str(n_max), "--window", str(K), "--k", str(k),
          f"--anchor={anchor}"]
         for name, n_max, K, k, anchor
         in itertools.product(("Com", "Lie", "Zinb", "GD", "postLie", "diAs"), (7, 20, 1000000),
                              (1, 5, 9, 16), range(3), _FAR)]),
}


@pytest.mark.parametrize("grid", _GRIDS)
def test_locality_grid_is_pinned(grid):
    want, calls = _GRIDS[grid]
    digest = runs_digest(calls)
    assert digest == want, digest


def test_criterion_9_locality_is_pinned():
    """Sweep results and InputError messages of the 45 criterion-9 operads,
    built through the API, over windows 1-4, k 0-2 and four anchors:
    level-0 pairs and split operads the table lacks."""
    core = ["Com", "Lie", "As", "Nov", "Pois"]
    products = [black_product(catalog(a), catalog(b))
                for a, b in itertools.combinations_with_replacement(core, 2)]
    products += [replicate(kind, catalog(name)) for name in core for kind in ("di", "tri")]
    products += [split(catalog(name), mode)
                 for name in ("Alt", "As", "Com", "GD", "Lie", "NP", "Nov", "Perm", "Pois", "Zinb")
                 for mode in ("pre", "post")]
    h = hashlib.sha256()
    for P in products:
        for K in range(1, 5):
            lab = LocalityInstance(P, K)
            for k in range(3):
                for n, m in ((0, 0), (1, -1), (-1, 1), (2, 0)):
                    try:
                        got = sorted(lab.sweep(k=k, n=n, m=m).items())
                    except InputError as e:
                        got = f"InputError: {e}"
                    h.update(f"{P.name} K={K} k={k} anchor={n},{m}: {got}\n".encode())
    digest = h.hexdigest()
    assert digest == "3ab34c1ccb731a5c45228c95ddef99cb59a7c59c31854ae2989118e701324b48", digest


def test_product_bytes_are_pinned():
    """product in text and --json: the four one-operand kinds on every
    catalog entry and dual(NP), and white and black on every ordered pair
    of seven entries."""
    calls = [["product", f"--{kind}", name] for name in [*catalog_names(), "dual(NP)"]
             for kind in ("pre", "post", "di", "tri")]
    calls += [["product", f"--{kind}", a, b]
              for a, b in itertools.product(
                  ["Com", "Lie", "As", "Nov", "Pois", "Perm", "Zinb"], repeat=2)
              for kind in ("white", "black")]
    digest = runs_digest(calls)
    assert digest == "c3a5853728b239931b14efaa5c0adf44e3b39887d373c9c9b5fc63c881096634", digest


def test_split_bytes_of_random_operads_are_pinned(tmp_path):
    """product --pre and --post, in text and --json, on seeded random
    operad files whose swaps have non-integral entries."""
    calls = []
    for seed, d in ((1, 3), (8, 2), (8, 3), (10, 3)):
        Q = random_operad(random.Random(seed), d, name=f"rand{seed}d{d}")
        swaps = [{Q.space.names[m]: str(x) for m, x in col} for col in Q.space.swap_columns]
        assert any("/" in x for swap in swaps for x in swap.values()), Q.name
        path = tmp_path / f"{Q.name}.json"
        path.write_text(json.dumps({
            "name": Q.name,
            "generators": [{"name": n, "swap": s} for n, s in zip(Q.space.names, swaps)],
            "relations": Q.show_relations()}))
        calls += [["product", f"--{kind}", str(path)] for kind in ("pre", "post")]
    digest = runs_digest(calls)
    assert digest == "e7a103765c0d009de99d92b6215bfb001a383768720cfc0fe9de08c073ff33db", digest


@pytest.mark.parametrize("flags, want", [
    ([], "05e7bb90d14e76c9b151f77f895e4a9e968b54d5cc1699a13b1b2d5871310c6a"),
    (["--json"], "1fdeae28c4bd71a861490dd2a0fb796e3e73ae271922508fe2ce853d4eafd560"),
], ids=["text", "json"])
def test_selfcheck_is_pinned(flags, want):
    code, out, err = run(*flags, "selfcheck")
    got = code, sha256(out), err
    assert got == (0, want, ""), got


SRC = Path(__file__).resolve().parents[1] / "src" / "quadop"


def source_nodes():
    """Every module under src/quadop with the AST nodes of its source."""
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.walk(ast.parse(path.read_text(), str(path)))


def test_no_module_imports_another_modules_private_names():
    bad = []
    for path, nodes in source_nodes():
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                bad += [f"{path}:{node.lineno}: {node.module}.{a.name}"
                        for a in node.names if a.name.startswith("_")]
    assert bad == []


def test_only_linalg_calls_the_subspace_constructor():
    """from_vectors, from_echelon, perp and truncated are the only ways to
    make a canonical form, so its contract has one home, linalg.py."""
    bad = []
    for path, nodes in source_nodes():
        if path == SRC / "linalg.py":
            continue
        for node in nodes:
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "SubspaceQ":
                    bad.append(f"{path}:{node.lineno}")
    assert bad == []


# The attributes that hold or reach the kernel's rows: reading them from
# another module would bypass the row-ownership rule and the canonical form.
KERNEL_PRIVATE_ATTRIBUTES = {"_rows", "_reduce", "_perp_of"}


def kernel_private_reads(nodes):
    """The line numbers at which AST nodes read a kernel private attribute."""
    return [node.lineno for node in nodes
            if isinstance(node, ast.Attribute) and node.attr in KERNEL_PRIVATE_ATTRIBUTES]


def test_only_linalg_reads_the_kernels_private_attributes():
    bad = [f"{path}:{line}" for path, nodes in source_nodes() if path != SRC / "linalg.py"
           for line in kernel_private_reads(nodes)]
    assert bad == []


def test_the_private_attribute_lint_sees_a_read():
    source = "def rows(P):\n    return P.relations._rows, P.relations.rows()\n"
    assert kernel_private_reads(ast.walk(ast.parse(source))) == [2]
