"""Binary quadratic operads as (generator space, relation subspace) pairs.

An operad here is presentation data: a GeneratorSpace V and an S3-stable
subspace R of the weight-3 free space F(3).  Everything the rest of the
package computes (duals, products, the Dong criterion) is linear algebra on
this pair; no higher arity is ever materialised.

P(3) = F(3)/R is read through the annihilator rows of R: primitive integer
functionals whose common kernel is R, so the quotient map takes integer
vectors to integer vectors.  Fraction enters only where a rational is
written (relation and swap coefficients, change_basis's matrix) or printed.

An operad caches two facts about R on first use: the quotient map
(p3_projection) and the identity-block subspaces Z_0, Z_1, Z_2
(identity_block) with the level table read off them (identity_levels),
which every locality window reads.  The subspaces take one elimination of
R's rows; the second meet is the (12) image of the first, which rests on
the S3-stability the constructor's guard certifies.  A renamed copy shares
what is cached when it is made.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

from quadop.core.free3 import GeneratorSpace, Vec, act_all, is_s3_stable, s3_closure
from quadop.core.parser import parse_relation, pretty_print
from quadop.core.perms import SWAP12
from quadop.errors import InputError, InternalCheckError
from quadop.linalg import EchelonBasis, IntRow, SubspaceQ, add_scaled, invert_matrix

_SYMMETRY_KINDS = ("sym", "antisym", "pair", "swap")

# Fraction("1e<k>") builds 10**|k| before any other check, so a swap
# coefficient's decimal exponent is held to the int<->str digit cap.
_MAX_EXPONENT = 4300


class QuadOperad:
    """A presented binary quadratic operad over Q."""

    def __init__(self, name: str, space: GeneratorSpace, relations: SubspaceQ):
        if relations.ambient_dim != space.free3_dim:
            raise InputError(
                f"relations live in Q^{relations.ambient_dim}, expected Q^{space.free3_dim}"
            )
        if not is_s3_stable(space, relations):
            raise InternalCheckError(f"relation space of {name!r} is not S3-stable")
        self.name = name
        self.space = space
        self.relations = relations
        self._p3 = None
        self._block = None

    @property
    def dim_gens(self) -> int:
        return self.space.dim

    @property
    def dim_free3(self) -> int:
        return self.space.free3_dim

    @property
    def dim_relations(self) -> int:
        return self.relations.dim

    @property
    def dim_p3(self) -> int:
        return self.space.free3_dim - self.relations.dim

    def p3_projection(self) -> list[IntRow]:
        """Quotient map F(3) -> P(3) as a column list: entry c is the image of
        basis monomial c under the coordinate functionals of P(3).

        Those functionals are the annihilator rows of R: primitive integer
        rows, one per dimension of P(3), whose common kernel is R.
        """
        if self._p3 is None:
            cols: list[IntRow] = [{} for _ in range(self.space.free3_dim)]
            for k, row in enumerate(self.relations.annihilator_rows()):
                for c, x in row.items():
                    cols[c][k] = x
            self._p3 = cols
        return self._p3

    def identity_block(self) -> tuple[SubspaceQ, SubspaceQ, SubspaceQ]:
        """Z_0, Z_1 and Z_2 of the locality module docstring, computed on
        first use: the rows on the identity block (columns c < d*d) whose
        images in P(3) are 0, lie in V_1 cap V_2 + V_1 cap V_3, and lie in
        V_2 + V_3.

        One elimination of R's rows, with the column blocks regrouped as
        (B_3, B_2, B_1): the echelon rows pivoted past B_3 span
        R cap {r_3 = 0}, and those pivoted in B_1 span R cap B_1, whose
        projection is Z_0.  (12) fixes B_1 (swapping the inner leg) and
        exchanges B_2 with B_3, so, R being (12)-stable as the constructor's
        guard certifies, it maps R cap {r_3 = 0} onto R cap {r_2 = 0}: Z_1
        is spanned by the projections M of the first rows and their (12)
        images.  Z_2 is the truncation of R's canonical rows."""
        if self._block is None:
            n = self.dim_gens ** 2
            eb = EchelonBasis(3 * n)
            for row in self.relations.rows():
                # Block s of F(3) moves to position 2 - s.
                eb.add({(2 - c // n) * n + c % n: v for c, v in row.items()})
            M = [(min(r), {c - 2 * n: v for c, v in r.items() if c >= 2 * n})
                 for r in eb.rows() if min(r) >= n]
            U = [u for _, u in M]
            Z = (SubspaceQ.from_vectors(n, (u for pivot, u in M if pivot >= 2 * n)),
                 SubspaceQ.from_vectors(n, U + act_all(self.space, SWAP12, U)),
                 self.relations.truncated(n))
            units = [Zl.unit_columns() for Zl in Z]
            self._block = Z, tuple(next((level for level, u in enumerate(units) if c in u), 3)
                                   for c in range(n))
        return self._block[0]

    def identity_levels(self) -> tuple[int, ...]:
        """The level of every identity monomial, by flat column c < d*d: the
        first of identity_block()'s Z_0, Z_1, Z_2 that holds the unit row
        at c, and 3 if none does.  Read off their unit_columns(), with no
        reduction, and cached with the triple, so every window of the
        operad reads one table."""
        self.identity_block()
        return self._block[1]

    def project(self, vec: Vec) -> Vec:
        """Image of a weight-3 vector in P(3) coordinates; integer for an
        integer vector."""
        cols = self.p3_projection()
        out: Vec = {}
        for c, coeff in vec.items():
            add_scaled(out, cols[c], coeff)
        return out

    def show_relations(self) -> list[str]:
        return [pretty_print(self.space, row) for row in self.relations.basis()]

    def renamed(self, name: str) -> "QuadOperad":
        """A shallow copy under a new name: the same space and relations,
        and whatever of p3_projection and the identity block and levels is
        cached so far."""
        out = copy.copy(self)
        out.name = name
        return out

    def dims(self) -> dict[str, int]:
        return {
            "gen": self.dim_gens,
            "free3": self.dim_free3,
            "relations": self.dim_relations,
            "p3": self.dim_p3,
        }

    def __repr__(self) -> str:
        return f"QuadOperad({self.name!r}, d={self.dim_gens}, dim R={self.dim_relations})"


def _swap_matrix(gen_specs: list[tuple[str, object]]) -> GeneratorSpace:
    names = tuple(name for name, _ in gen_specs)
    index = {name: i for i, name in enumerate(names)}
    cols: list[list[tuple[int, int | Fraction]]] = [[] for _ in names]
    for j, (name, sym) in enumerate(gen_specs):
        if sym == "sym":
            cols[j].append((j, 1))
        elif sym == "antisym":
            cols[j].append((j, -1))
        elif isinstance(sym, dict) and set(sym) == {"pair"}:
            partner = sym["pair"]
            if not isinstance(partner, str) or partner not in index:
                raise InputError(f"generator {name!r} pairs with unknown {partner!r}")
            cols[j].append((index[partner], 1))
        elif isinstance(sym, dict) and set(sym) == {"swap"}:
            image = sym["swap"]
            if not isinstance(image, dict):
                raise InputError(
                    f"swap image of {name!r} must map names to rationals, got {image!r}"
                )
            for target, coeff in image.items():
                if target not in index:
                    raise InputError(f"swap image of {name!r} mentions unknown {target!r}")
                text = str(coeff)
                try:
                    _, e, exponent = text.lower().partition("e")
                    if e and abs(int(exponent)) > _MAX_EXPONENT:
                        raise InputError(
                            f"swap coefficient {coeff!r} of {name!r} has an exponent "
                            f"beyond {_MAX_EXPONENT} in magnitude"
                        )
                    cols[j].append((index[target], Fraction(text)))
                except (ValueError, ZeroDivisionError):
                    raise InputError(
                        f"swap coefficient {coeff!r} of {name!r} is not a rational"
                    ) from None
        else:
            raise InputError(
                f"bad symmetry {sym!r} for generator {name!r}; "
                f"expected one of {_SYMMETRY_KINDS}"
            )
    # cols[j] holds (m, the coefficient of e_m in (12)e_j).
    return GeneratorSpace.from_columns(names, cols)


def _generator_spec(g) -> tuple[str, object]:
    if isinstance(g, dict) and "name" in g and "symmetry" in g:
        name, sym = g["name"], g["symmetry"]
    elif isinstance(g, dict) and "name" in g and "swap" in g:
        name, sym = g["name"], {"swap": g["swap"]}
    elif isinstance(g, (list, tuple)) and len(g) == 2:
        name, sym = g
    else:
        raise InputError(
            f"bad generator {g!r}: expected [name, symmetry], "
            '{"name": ..., "symmetry": ...} or {"name": ..., "swap": ...}'
        )
    if not isinstance(name, str):
        raise InputError(f"generator name {name!r} is not a string")
    return name, sym


def make_operad(name: str, generators, relations) -> QuadOperad:
    """Build an operad from generator specs and relation strings.

    generators: list of (name, symmetry) pairs, {"name":, "symmetry":}
    dicts or {"name":, "swap":} dicts (the form `quadop --json` prints),
    symmetry one of "sym", "antisym", {"pair": other-name} or
    {"swap": {name: rational-string}} in column convention.

    relations: list of relation strings; their S3-closure is taken, so one
    representative per orbit suffices.
    """
    for key, value in (("generators", generators), ("relations", relations)):
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{key} must be a list, got {value!r}")
    space = _swap_matrix([_generator_spec(g) for g in generators])
    vectors = []
    for text in relations:
        if not isinstance(text, str):
            raise InputError(f"relation {text!r} is not a string")
        vectors.append(parse_relation(space, text))
    rel = s3_closure(space, vectors)
    return QuadOperad(name, space, rel)


def load_operad_file(path: str) -> QuadOperad:
    """Read an operad from a JSON file: {"name", "generators", "relations"}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read operad file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object with keys name, generators, relations")
    for key in ("name", "generators", "relations"):
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")
    if not isinstance(data["name"], str):
        raise InputError(f"{path}: name must be a string")
    return make_operad(data["name"], data["generators"], data["relations"])


def change_basis(P: QuadOperad, T) -> QuadOperad:
    """The same operad presented in the generator basis e'_j = sum_i T[i][j] e_i.

    T must be invertible and commute with the swap matrix, so the new basis
    carries the same S2-action and the generator space can be reused.  The
    relation subspace is transported by the induced map on F(3), which acts as
    Tinv x Tinv on the (outer, inner) legs of every sigma-block.
    """
    space = P.space
    d = space.dim
    if len(T) != d or any(len(row) != d for row in T):
        raise InputError(f"basis change matrix must be {d}x{d}")
    T = [[Fraction(x) for x in row] for row in T]
    Tinv = invert_matrix(T)
    if Tinv is None:
        raise InputError("basis change matrix is singular")
    # Column j of T S and of S T, summed over the nonzeros of S's columns.
    cols = space.swap_columns
    for j in range(d):
        ts = add_scaled({}, ((i, T[i][m] * x) for m, x in cols[j] for i in range(d) if T[i][m]))
        st = add_scaled({}, ((i, y * T[m][j]) for m in range(d) if T[m][j] for i, y in cols[m]))
        if ts != st:
            raise InputError("basis change matrix does not commute with the swap")
    moved = []
    for row in P.relations.rows():
        out: Vec = {}
        for c, coeff in row.items():
            sigma, i, j = space.unflat(c)
            add_scaled(out, ((space.flat(sigma, a, b), Tinv[a][i] * Tinv[b][j])
                             for a in range(d) if Tinv[a][i]
                             for b in range(d) if Tinv[b][j]), coeff)
        moved.append(out)
    rel = SubspaceQ.from_vectors(space.free3_dim, moved)
    if rel.dim != P.relations.dim:
        raise InternalCheckError("basis change did not preserve the relation dimension")
    return QuadOperad(f"{P.name}@basis", space, rel)
