"""The Dong property via the Koszul-dual criterion.

Writing B for the span of the d*d monomials (id, i, j) of the dual free space,
P is Dong iff B meets the dual relations R-perp trivially.  The pairing with
F(3) is the identity on matching monomials and the block is the flat columns
c < d*d, so w on B lies in R-perp iff w . r = 0 for every relation row r of
P: the obstruction is the complement of R's projection onto the block
columns, and no dual operad is built.  That projection is read off R's
canonical rows (SubspaceQ.truncated), so only its complement is eliminated.
The same truncation is Z_2, the last of the identity-block subspaces that
QuadOperad.identity_block caches for the locality lab; the verdict takes it
afresh, as reading that cache would add its elimination of R and its level
table.

A NotDong verdict prints that kernel's canonical basis in the dual generators
as witnesses, and each is replayed with dot products only (replay_witnesses).
A failed replay is an internal bug, not a property of the input.  The replay
indexes R's entries by column on the block columns only, and only of the
rows pivoted below the block, where it stops: a witness off the block is
refused by the block test before its dot products matter, and a row
pivoted at or past the block has no entry on it, so leaving the rest out
changes no verdict.

A dual passed in only names the witnesses' generators, so it must carry
P's sign-twisted dual generator space (names may differ); any other is
refused with InputError before a witness is printed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction

from quadop.core.free3 import GeneratorSpace
from quadop.core.operad import QuadOperad
from quadop.core.parser import parse_relation, pretty_print
from quadop.errors import InputError, InternalCheckError
from quadop.koszul import dual_generators


@dataclass
class DongReport:
    operad: str
    verdict: str  # "Dong" or "NotDong"
    method_agreement: bool  # the witness replay passed (vacuous for Dong)
    kernel_dim: int
    witnesses: list[str]
    dims: dict[str, int]

    def as_dict(self) -> dict:
        """Every field in declaration order, the list and the dict copied.
        dataclasses.asdict gives an equal dict, but its recursive deep copy
        costs several times as much per call."""
        return {name: copy.copy(value) for name, value in vars(self).items()}


def replay_witnesses(P: QuadOperad, dspace: GeneratorSpace, witnesses: list[str]) -> None:
    """Check printed witnesses against P with dot products, no elimination.

    Each must parse in the dual generators dspace to a nonzero vector on the
    identity block with a leading column no earlier witness has, and pair to
    zero with every canonical relation row of P.  Raises InternalCheckError.

    The column index holds only R's entries on the block, c < d*d, of the
    rows pivoted below it: a witness with an entry off the block fails the
    block test whatever its dot products, and the dot products of one on
    the block read no column past it, so the verdict is the one a full
    index gives.  A row's pivot is its smallest column and the canonical
    rows come in ascending pivot order, so the index stops at the first
    pivot >= d*d: no later row meets the block.  Every witness is still
    parsed and dotted with every relation row that meets the block.
    """
    block = P.dim_gens ** 2
    by_col: dict[int, list[tuple[int, int]]] = {}
    for k, (p, row) in enumerate(zip(P.relations.pivots, P.relations.rows())):
        if p >= block:
            break
        for c, a in row.items():
            if c < block:
                by_col.setdefault(c, []).append((k, a))
    leads = set()
    for w in witnesses:
        try:
            vec = parse_relation(dspace, w)
        except InputError:
            vec = {}
        dots: dict[int, int | Fraction] = {}
        for c, x in vec.items():
            for k, a in by_col.get(c, ()):
                dots[k] = dots.get(k, 0) + x * a
        if not vec or max(vec) >= block or min(vec) in leads or any(dots.values()):
            raise InternalCheckError(
                f"witness {w!r} of {P.name} is not a new nonzero block vector in R-perp"
            )
        leads.add(min(vec))


def dong_verdict(P: QuadOperad, dual: QuadOperad | None = None) -> DongReport:
    """Decide the Dong property of P.

    Witnesses are the canonical basis of the block kernel, printed in the
    generators of `dual` when it is given and of dual_generators(P.space)
    otherwise; they parse back to kernel elements.  A given dual must have
    P's sign-twisted dual generator space: as many generators, and as
    column i of its swap, column i of -S^T (row i of P's swap S, negated).
    Its names may differ.  Any other raises InputError.
    """
    if dual is None:
        dspace = dual_generators(P.space)
    else:
        dspace = dual.space
        # Row m of S, negated, read off S's sparse columns in column order.
        twisted: list[list] = [[] for _ in range(P.dim_gens)]
        for j, col in enumerate(P.space.swap_columns):
            for m, x in col:
                twisted[m].append((j, -x))
        if dspace.dim != P.dim_gens or any(
                tuple(want) != got for want, got in zip(twisted, dspace.swap_columns)):
            raise InputError(f"{dual.name} is not a Koszul dual of {P.name}: its generators "
                             f"are not the sign-twisted dual of {P.name}'s")
    vectors = P.relations.truncated(P.dim_gens ** 2).perp().basis()
    witnesses = [pretty_print(dspace, w) for w in vectors]
    replay_witnesses(P, dspace, witnesses)
    return DongReport(
        operad=P.name,
        verdict="Dong" if not vectors else "NotDong",
        method_agreement=True,
        kernel_dim=len(vectors),
        witnesses=witnesses,
        dims={**P.dims(), "dual_relations": P.dim_p3, "dual_p3": P.dim_relations},
    )
