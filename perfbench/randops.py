"""Seeded random operad files for the catalog_table workload.

Each operad has 1 to 3 generators drawn from symmetric, antisymmetric and
(12)-exchanged pairs, and 1 to 3 relations whose terms are left combs
``(xa {g} xb) {h} xc`` or right combs ``xc {h} (xa {g} xb)`` with small
rational coefficients.  No reference exists for such an operad; the workload
checks it with identities that hold by theorem.
"""

from __future__ import annotations

import json
import os

VARS = ("x1", "x2", "x3")


def random_spec(rng, index: int) -> dict:
    """One operad file body, {"name", "generators", "relations"}.

    The generator and relation counts cycle with the index, so the work in a
    set of files varies little from seed to seed.
    """
    d = 1 + index % 3
    gens: list[list] = []
    while len(gens) < d:
        kind = rng.choice(("sym", "antisym", "pair"))
        if kind == "pair":
            if d - len(gens) < 2:
                continue
            a, b = f"g{len(gens)}", f"g{len(gens) + 1}"
            gens += [[a, {"pair": b}], [b, {"pair": a}]]
        else:
            gens.append([f"g{len(gens)}", kind])
    names = [name for name, _ in gens]
    relations = [_random_relation(rng, names) for _ in range(1 + index // 3 % 3)]
    return {"name": f"rand{index}", "generators": gens, "relations": relations}


def _random_relation(rng, names: list[str]) -> str:
    text = ""
    for pos in range(rng.randint(2, 4)):
        a, b, c = rng.sample(VARS, 3)
        g, h = rng.choice(names), rng.choice(names)
        if rng.random() < 0.5:
            mono = f"({a} {{{g}}} {b}) {{{h}}} {c}"
        else:
            mono = f"{c} {{{h}}} ({a} {{{g}}} {b})"
        num, den = rng.randint(1, 3), rng.choice((1, 1, 1, 2))
        coeff = "" if num == den == 1 else (f"{num} * " if den == 1 else f"{num}/{den} * ")
        sign = rng.choice("+-")
        if pos == 0:
            text = ("-" if sign == "-" else "") + coeff + mono
        else:
            text += f" {sign} {coeff}{mono}"
    return text


def write_random_operads(rng, directory: str, count: int) -> list[str]:
    """Write `count` operad files into `directory`; return their paths."""
    paths = []
    for k in range(count):
        path = os.path.join(directory, f"rand{k}.json")
        with open(path, "w") as fh:
            json.dump(random_spec(rng, k), fh)
        paths.append(path)
    return paths
