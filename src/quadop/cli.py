"""Command line front end.

Every subcommand accepts ``--json`` for a machine-readable report with
deterministic key order.  Exit status: 0 on success (``--help`` included),
1 for bad input (usage errors, unknown names, malformed files,
out-of-window requests), 2 when an internal cross-check fails, which
indicates a bug rather than bad input, and 3 for any other exception, which
is a bug as well.  Every failure prints one line to stderr.  When the reader
of stdout closes it early (``quadop selfcheck | head -1``) the command ends
quietly with 141, 128 + SIGPIPE, as a shell tool stopped by SIGPIPE does.

An operand is a catalog name, ``dual(NAME)`` nested to any depth, or the
path of an operad file.

``main(argv)`` returns the exit status, ``--help`` included (argparse's
``SystemExit(0)`` does not leave it), so it can be called repeatedly in one
process.  It builds its argument parser on the first call and reuses it for
every later one; importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from quadop.core.catalog import catalog, catalog_names, resolve
from quadop.dong import dong_verdict
from quadop.errors import InputError, InternalCheckError
from quadop.koszul import dual_operad, verify_jacobi_duality
from quadop.linalg import SubspaceQ
from quadop.locality import build_instance
from quadop.manin import (
    REPLICATION_PARTNERS, black_product, replicate, split, split_partner, verify_black_tensor,
    white_product,
)

SCHEMA_VERSION = "1"

_WINDOW_NOTE = (
    "found orders are exact certificates; a null is a proof of non-locality "
    "when Nmax >= 2 (the pair has level 3), and otherwise may only mean that "
    "the order exceeds Nmax"
)


def _generator_entries(space) -> list[dict]:
    return [
        {"name": name, "swap": {space.names[m]: str(x) for m, x in column}}
        for name, column in zip(space.names, space.swap_columns)
    ]


def _summary(P) -> dict:
    return {
        "name": P.name,
        "generators": _generator_entries(P.space),
        "dims": P.dims(),
        "relations": P.show_relations(),
    }


def _payload(P, **sections) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "operad": _summary(P)}
    out.update(sections)
    return out


def _render_summary(s: dict) -> list[str]:
    lines = [f"operad {s['name']}"]
    dims = s["dims"]
    lines.append(
        f"  dims: gen={dims['gen']} free3={dims['free3']} "
        f"relations={dims['relations']} p3={dims['p3']}"
    )
    lines.append("  generators:")
    for g in s["generators"]:
        action = " + ".join(
            name if coeff == "1" else f"{coeff}*{name}" for name, coeff in sorted(g["swap"].items())
        )
        lines.append(f"    {g['name']}   (12) -> {action or '0'}")
    lines.append("  relations:")
    for r in s["relations"]:
        lines.append(f"    {r}")
    return lines


# -- subcommands -------------------------------------------------------


def cmd_catalog(args) -> tuple[dict, list[str]]:
    table = {}
    lines = []
    for name in catalog_names():
        P = catalog(name)
        table[name] = P.dims()
        lines.append(
            f"{name:10s} gen={P.dim_gens:2d}  relations={P.dim_relations:3d}  p3={P.dim_p3:3d}"
        )
    return {"schema_version": SCHEMA_VERSION, "catalog": table}, lines


def cmd_show(args) -> tuple[dict, list[str]]:
    P = resolve(args.operad)
    payload = _payload(P)
    return payload, _render_summary(payload["operad"])


def cmd_dual(args) -> tuple[dict, list[str]]:
    P = resolve(args.operad)
    D = dual_operad(P)
    payload = _payload(P, dual=_summary(D))
    lines = _render_summary(payload["operad"])
    lines.append("")
    lines.extend(_render_summary(payload["dual"]))
    return payload, lines


def cmd_dong(args) -> tuple[dict, list[str]]:
    P = resolve(args.operad)
    report = dong_verdict(P)
    payload = _payload(P, dong=report.as_dict())
    lines = [f"operad {P.name}: {report.verdict}"]
    lines.append(f"  kernel dimension {report.kernel_dim}")
    d = report.dims
    lines.append(
        f"  dims: gen={d['gen']} free3={d['free3']} relations={d['relations']} "
        f"p3={d['p3']} dual_relations={d['dual_relations']} dual_p3={d['dual_p3']}"
    )
    for w in report.witnesses:
        lines.append(f"  witness: {w}")
    return payload, lines


def _product_dictionary(R, left, right, keys) -> list[dict]:
    """Each generator of R with the pair it stands for, in product order,
    under keys: (left, right), or for a split, (part, base), the part being
    a generator of the split partner."""
    pairs = itertools.product(left.space.names, right.space.names)
    return [{"name": name, keys[0]: a, keys[1]: b} for name, (a, b) in zip(R.space.names, pairs)]


def cmd_product(args) -> tuple[dict, list[str]]:
    kind = args.kind
    P = resolve(args.operad)
    keys = ("left", "right")
    if kind in ("white", "black"):
        if args.operad2 is None:
            raise InputError(f"--{kind} needs two operands")
        Q = resolve(args.operad2)
        R = white_product(P, Q) if kind == "white" else black_product(P, Q)
        left, right = P, Q
    else:
        if args.operad2 is not None:
            raise InputError(f"--{kind} takes a single operand")
        if kind in ("di", "tri"):
            R = replicate(kind, P)
            left, right = catalog(REPLICATION_PARTNERS[kind]), P
        else:
            R = split(P, kind)
            left, right, keys = split_partner(kind), P, ("part", "base")
    recipe = R.name
    payload = _payload(
        R,
        product={
            "recipe": recipe,
            "dims": R.dims(),
            "dictionary": _product_dictionary(R, left, right, keys),
        },
    )
    lines = [f"{recipe}:"] + _render_summary(payload["operad"])[1:]
    return payload, lines


def _parse_anchor(text: str) -> tuple[int, int]:
    try:
        n_str, m_str = text.split(",")
        return int(n_str), int(m_str)
    except ValueError:
        raise InputError(f"anchor must be 'n,m' with integers, got {text!r}") from None


def cmd_locality(args) -> tuple[dict, list[str]]:
    P = resolve(args.operad)
    n, m = _parse_anchor(args.anchor)
    inst = build_instance(P, K=args.window)
    outcomes = inst.sweep(k=args.k, Nmax=args.n_max, n=n, m=m)
    pairs = {f"{i},{j}": N for (i, j), N in outcomes.items()}
    payload = _payload(
        P,
        locality={
            "params": {"k": args.k, "n_max": args.n_max, "window": args.window,
                       "anchor": [n, m]},
            "pairs": pairs,
            "note": _WINDOW_NOTE,
        },
    )
    lines = [
        f"operad {P.name}: locality sweep "
        f"(k={args.k}, Nmax={args.n_max}, window K={args.window}, anchor=({n},{m}))"
    ]
    names = P.space.names
    for (i, j), N in sorted(outcomes.items()):
        found = f"N = {N}" if N is not None else "none up to Nmax"
        lines.append(f"  inner {names[i]!s:12s} outer {names[j]!s:12s} {found}")
    lines.append(f"  note: {_WINDOW_NOTE}")
    return payload, lines


_SELFCHECK_DIMS = {
    "Com": (1, 2, 1), "Lie": (1, 1, 2), "As": (2, 6, 6), "Pois": (2, 6, 6),
    "Nov": (2, 6, 6), "NP": (3, 16, 11), "GD": (3, 10, 17), "Alt": (2, 5, 7),
    "Perm": (2, 9, 3), "Zinb": (2, 6, 6), "Leib": (2, 6, 6), "preLie": (2, 3, 9),
    "diAs": (4, 30, 18), "preAs": (4, 18, 30), "diNov": (4, 30, 18),
    "postLie": (3, 7, 20), "ComTriAs": (3, 20, 7),
}


def cmd_selfcheck(args) -> tuple[dict, list[str]]:
    checks = []
    lines = []

    def run(label, fn):
        fn()
        checks.append({"name": label, "ok": True})
        lines.append(f"ok: {label}")

    def check_dims():
        for name, (g, r, p3) in _SELFCHECK_DIMS.items():
            P = catalog(name)
            got = (P.dim_gens, P.dim_relations, P.dim_p3)
            if got != (g, r, p3):
                raise InternalCheckError(f"{name} dims {got}, expected {(g, r, p3)}")

    def check_double_dual():
        # dual(dual(P)) reads P's relations back from the complement, so the
        # complement of the dual relations is also taken from scratch, by
        # another route: the annihilator rows, canonicalised from the left.
        for name in ("Lie", "As", "NP", "postLie"):
            P = catalog(name)
            D = dual_operad(P)
            DD = dual_operad(D)
            fresh = SubspaceQ.from_vectors(D.dim_free3, D.relations.annihilator_rows())
            if DD.relations != P.relations or fresh != P.relations:
                raise InternalCheckError(f"dual(dual({name})) differs from {name}")

    def check_jacobi():
        for name in ("Com", "As", "Pois"):
            if not verify_jacobi_duality(catalog(name)):
                raise InternalCheckError(f"duality pairing check failed for {name}")

    def check_products():
        As = catalog("As")
        W = white_product(catalog("Com"), As)
        if W.dims()["p3"] != As.dims()["p3"]:
            raise InternalCheckError("white(Com, As) changed the quotient dimension")
        Lie, Leib, Nov = catalog("Lie"), catalog("Leib"), catalog("Nov")
        B = black_product(As, Lie)
        if not verify_black_tensor(As, Lie, B):
            raise InternalCheckError("black(As, Lie) failed the tensor check")
        for P, Q, B in ((As, Lie, B), (Leib, Nov, black_product(Leib, Nov))):
            D = dual_operad(white_product(dual_operad(P), dual_operad(Q)))
            if (B.space.swap, B.relations) != (D.space.swap, D.relations):
                raise InternalCheckError(
                    f"black({P.name}, {Q.name}) is not the dual of white(dual, dual)"
                )

    def check_split():
        pre = split(catalog("Lie"), "pre")
        post = split(catalog("Lie"), "post")
        if (pre.dim_gens, pre.dim_relations, pre.dim_p3) != (2, 3, 9):
            raise InternalCheckError(f"split_pre(Lie) dims {pre.dims()}")
        if (post.dim_gens, post.dim_relations, post.dim_p3) != (3, 7, 20):
            raise InternalCheckError(f"split_post(Lie) dims {post.dims()}")

    def check_locality():
        # Lie's bracket has level 2; Zinbiel's pairs have levels 1 and 3.
        inst = build_instance(catalog("Lie"), K=3)
        if inst.min_locality_order(0, 0, 0, Nmax=3) != 2:
            raise InternalCheckError("Lie locality order is not 2")
        zinb = build_instance(catalog("Zinb"), K=3).sweep(Nmax=3)
        if zinb != {(0, 0): 1, (0, 1): None, (1, 0): 1, (1, 1): None}:
            raise InternalCheckError(f"Zinb locality orders are {zinb}")

    run("catalog dimensions", check_dims)
    run("double dual is identity", check_double_dual)
    run("duality pairing", check_jacobi)
    run("Manin product cross-checks", check_products)
    run("splitting anchors", check_split)
    run("locality lab anchor", check_locality)
    payload = {"schema_version": SCHEMA_VERSION,
               "selfcheck": {"ok": True, "checks": checks}}
    lines.append("selfcheck passed")
    return payload, lines


# -- argument plumbing -------------------------------------------------


def _add_operad_arg(sub):
    sub.add_argument("operad", help="catalog name, dual(NAME), or path to a JSON file")


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 1, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main() call in this process, built on the first."""
    parser = _Parser(
        prog="quadop",
        description="exact calculator for binary quadratic operads",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("catalog", help="list built-in operads")

    p = subs.add_parser("show", help="print generators and relations")
    _add_operad_arg(p)

    p = subs.add_parser("dual", help="compute the Koszul dual")
    _add_operad_arg(p)

    p = subs.add_parser("dong", help="decide the Dong property")
    _add_operad_arg(p)

    p = subs.add_parser("product", help="Manin products, replication, splitting")
    kinds = p.add_mutually_exclusive_group(required=True)
    for kind, helptext in (
        ("white", "Manin white product (two operands)"),
        ("black", "Manin black product (two operands)"),
        ("di", "di-replication (one operand)"),
        ("tri", "tri-replication (one operand)"),
        ("pre", "dendriform-style splitting (one operand)"),
        ("post", "splitting with a perp part (one operand)"),
    ):
        kinds.add_argument(f"--{kind}", dest="kind", action="store_const",
                           const=kind, help=helptext)
    _add_operad_arg(p)
    p.add_argument("operad2", nargs="?", default=None)

    p = subs.add_parser("locality", help="windowed locality sweep")
    _add_operad_arg(p)
    p.add_argument("--k", type=int, default=0, help="order of the inner n-product")
    p.add_argument("--n-max", type=int, default=4, help="largest locality order to try")
    p.add_argument("--window", type=int, default=6, help="window radius K")
    p.add_argument("--anchor", default="0,0", help="anchor indices n,m")

    subs.add_parser("selfcheck", help="run the built-in consistency battery")

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # Only --help gets here (usage errors raise InputError): argparse
            # has printed the help and asks to exit 0.
            return exc.code
        # Look the handler up by name on each call: the parser outlives the
        # call, and a handler replaced since it was built must be the one run.
        payload, lines = globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Keep a bug apart from exit 1, which means the input was bad.
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``quadop selfcheck | head -1``).  Point stdout
        # at devnull so the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
