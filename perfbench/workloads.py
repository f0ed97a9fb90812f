"""The three benchmark workloads: query lists, inputs and output checks.

A query is one request a user would make.  Table queries go through
``quadop.cli.main(["--json", ...])`` in-process; the closure set and the
wide products go through the package's exported functions.  Every call
looks the function up on its module at call time, so traced runs see the
wrapped version.  ``run(state)`` returns the output and may leave results
in ``state`` for later queries of the same pass; ``check(output)`` returns
None or a description of the mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import quadop
import quadop.cli

import expected as ex
import randops


@dataclass
class Query:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    queries: list[Query]  # one pass, in seeded order
    warmup: list[Query]  # the warm-up pass


# -- CLI queries -----------------------------------------------------------


def _cli(argv: list[str]) -> Callable[[dict], tuple]:
    def run(state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = quadop.cli.main(["--json", *argv])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return run


def _json_check(inner: Callable[[dict], str | None]) -> Callable[[tuple], str | None]:
    def check(output):
        code, out, err = output
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        return inner(json.loads(out))

    return check


def _space(entries: list[dict]) -> quadop.GeneratorSpace:
    """Generator space from a report's generator entries (swap columns)."""
    names = tuple(e["name"] for e in entries)
    swap = tuple(
        tuple(Fraction(entries[j]["swap"].get(m, 0)) for j in range(len(names)))
        for m in names
    )
    return quadop.GeneratorSpace(names, swap)


def _relations(summary: dict) -> quadop.SubspaceQ:
    """The subspace spanned by a report's printed relations."""
    space = _space(summary["generators"])
    vectors = [quadop.parse_relation(space, r) for r in summary["relations"]]
    return quadop.SubspaceQ.from_vectors(space.free3_dim, vectors)


def _dims_problem(summary: dict, table: tuple | None) -> str | None:
    dims = summary["dims"]
    d = len(summary["generators"])
    if dims["free3"] != 3 * d * d or dims["relations"] + dims["p3"] != dims["free3"]:
        return f"{summary['name']}: inconsistent dims {dims}"
    if table is not None and (dims["gen"], dims["relations"], dims["p3"]) != table:
        return f"{summary['name']}: dims {dims}, selfcheck table says {table}"
    return None


def _check_show(reference: quadop.SubspaceQ, table: tuple):
    def inner(payload):
        s = payload["operad"]
        problem = _dims_problem(s, table)
        if problem:
            return problem
        if _relations(s) != reference:
            return "printed relations do not parse back to the relation subspace"
        return None

    return _json_check(inner)


def _check_dual(reference: quadop.SubspaceQ, table: tuple | None):
    """Identities that hold by theorem for any operad P and its dual."""

    def inner(payload):
        op, du = payload["operad"], payload["dual"]
        dual_table = table and (table[0], table[2], table[1])
        problem = _dims_problem(op, table) or _dims_problem(du, dual_table)
        if problem:
            return problem
        if op["dims"]["relations"] + du["dims"]["relations"] != op["dims"]["free3"]:
            return "relations + dual_relations != 3d^2"
        R, D = _relations(op), _relations(du)
        if R != reference:
            return "printed relations do not parse back to the relation subspace"
        if D.perp() != R:
            return "dual(dual(P)) has another relation subspace than P"
        return None

    return _json_check(inner)


def _check_dong(verdict: str | None):
    def inner(payload):
        rep = payload["dong"]
        dims = rep["dims"]
        if dims["relations"] + dims["dual_relations"] != dims["free3"]:
            return "relations + dual_relations != 3d^2"
        consistent = (
            rep["method_agreement"]
            and len(rep["witnesses"]) == rep["kernel_dim"]
            and (rep["verdict"] == "Dong") == (rep["kernel_dim"] == 0)
        )
        if not consistent:
            return f"inconsistent report {rep}"
        if verdict is not None and rep["verdict"] != verdict:
            return f"verdict {rep['verdict']}, expected {verdict}"
        return None

    return _json_check(inner)


def _check_locality(orders: str):
    def inner(payload):
        loc = payload["locality"]
        d = payload["operad"]["dims"]["gen"]
        want = {
            f"{i},{j}": None if orders[i * d + j] == "-" else int(orders[i * d + j])
            for i in range(d)
            for j in range(d)
        }
        if len(orders) != d * d or loc["pairs"] != want:
            return f"orders {loc['pairs']}, frozen {want}"
        return None

    return _json_check(inner)


# -- API queries -------------------------------------------------------------


def _closure(kind: str, a: str, b: str | None = None) -> Query:
    def run(state):
        P = quadop.catalog(a)
        if kind == "black":
            R = quadop.black_product(P, quadop.catalog(b))
        elif kind in ("di", "tri"):
            R = quadop.replicate(kind, P)
        else:
            R = quadop.split(P, kind)
        return quadop.dong_verdict(R).verdict

    want = ex.CLOSURE_VERDICT[kind]
    label = f"{kind}({a},{b}) + dong" if b else f"{kind}({a}) + dong"
    return Query(label, run, lambda v: None if v == want else f"verdict {v}, expected {want}")


def digest(P) -> str:
    text = "\n".join(P.show_relations())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_operad(frozen: dict):
    def check(P):
        got = dict(P.dims(), digest=digest(P))
        return None if got == frozen else f"{P.name}: {got}, frozen {frozen}"

    return check


def _check_verdict(frozen: dict):
    def check(rep):
        got = {"verdict": rep.verdict, "kernel_dim": rep.kernel_dim}
        return None if got == frozen else f"{got}, frozen {frozen}"

    return check


def _wide_group(key: str, left, right) -> list[Query]:
    frozen = ex.FROZEN_WIDE[key]

    def white(state):
        state[key] = quadop.white_product(left, right)
        return state[key]

    def dual(state):
        state[key + "!"] = quadop.dual_operad(state[key])
        return state[key + "!"]

    def dong(state):
        return quadop.dong_verdict(state[key], state[key + "!"])

    return [
        Query(f"white {key}", white, _check_operad(frozen["white"])),
        Query(f"dual {key}", dual, _check_operad(frozen["dual"])),
        Query(f"dong {key}", dong, _check_verdict(frozen["dong"])),
    ]


# -- workloads ---------------------------------------------------------------


def catalog_table(rng, tmpdir, small, wrong):
    table = dict(ex.DONG_TABLE)
    if wrong:
        table["Com"] = "NotDong"
    queries = [Query(f"dong {n}", _cli(["dong", n]), _check_dong(v)) for n, v in table.items()]
    for n in quadop.catalog_names():
        ref, dims = quadop.catalog(n).relations, ex.SELFCHECK_DIMS[n]
        queries.append(Query(f"show {n}", _cli(["show", n]), _check_show(ref, dims)))
        queries.append(Query(f"dual {n}", _cli(["dual", n]), _check_dual(ref, dims)))
    for path in randops.write_random_operads(rng, tmpdir, 3 if small else 20):
        ref = quadop.load_operad_file(path).relations
        base = os.path.basename(path)
        queries.append(Query(f"dong {base}", _cli(["dong", path]), _check_dong(None)))
        queries.append(Query(f"dual {base}", _cli(["dual", path]), _check_dual(ref, None)))
    core = ex.CLOSURE_CORE[:2] if small else ex.CLOSURE_CORE
    splits = ex.SPLIT_BASES[:2] if small else ex.SPLIT_BASES
    queries += [_closure("black", a, b) for a, b in itertools.combinations_with_replacement(core, 2)]
    queries += [_closure(kind, n) for n in core for kind in ("di", "tri")]
    queries += [_closure(mode, n) for n in splits for mode in ("pre", "post")]
    rng.shuffle(queries)
    return Workload(queries, queries)


def wide_products(rng, tmpdir, small, wrong):
    # The d=16 group runs every code path of the pass and is the warm-up; a
    # full warm-up pass would add the d=24 group's time again to every run.
    diAs = quadop.catalog("diAs")
    d16 = _wide_group("d16", diAs, diAs)
    groups = [d16]
    if not small:
        groups.append(_wide_group("d24", quadop.replicate("tri", quadop.catalog("As")), diAs))
    rng.shuffle(groups)
    return Workload([q for group in groups for q in group], d16)


def locality_sweep(rng, tmpdir, small, wrong):
    names = list(ex.FROZEN_LOCALITY)[:4] if small else list(ex.FROZEN_LOCALITY)
    windows = (6,) if small else (6, 8)
    queries = [
        Query(
            f"locality {n} --window {K}",
            _cli(["locality", n, "--k", "0", "--n-max", "4", "--window", str(K),
                  "--anchor", "0,0"]),
            _check_locality(ex.FROZEN_LOCALITY[n]),
        )
        for n in names
        for K in windows
    ]
    rng.shuffle(queries)
    return Workload(queries, queries)


BUILDERS = {
    "catalog_table": catalog_table,
    "wide_products": wide_products,
    "locality_sweep": locality_sweep,
}


def build(workload: str, seed: int, tmpdir: str, *, small=False, wrong=False) -> Workload:
    """Build all catalog entries, then the workload's inputs and query list.

    The seed fixes the random operads and the query order of every pass.
    """
    for name in quadop.catalog_names():
        quadop.catalog(name)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, tmpdir, small, wrong)
