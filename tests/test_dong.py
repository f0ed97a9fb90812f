"""The identity-block criterion and its report plumbing."""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import quadop.dong
from quadop.core.catalog import catalog, catalog_names, resolve
from quadop.core.free3 import GeneratorSpace
from quadop.core.operad import QuadOperad, make_operad
from quadop.core.parser import parse_relation, pretty_print
from quadop.core.perms import IDENT
from quadop.dong import dong_verdict, replay_witnesses
from quadop.errors import InputError, InternalCheckError
from quadop.koszul import dual_generators, dual_operad
from quadop.linalg import SubspaceQ
from quadop.manin import white_product

from helpers import fresh_perp, printed_kernel, random_operad

# Verdicts as the criterion computes them.  These freeze package behaviour;
# every entry was cross-checked by an independent implementation and, for the
# interesting cases, by the locality laboratory.
COMPUTED_VERDICTS = {
    "Com": "Dong",
    "Lie": "Dong",
    "As": "Dong",
    "Pois": "Dong",
    "Nov": "Dong",
    "NP": "Dong",
    "Alt": "Dong",
    "Perm": "Dong",
    "GD": "NotDong",
    "Zinb": "NotDong",
    "Leib": "Dong",
    "preLie": "NotDong",
    "diAs": "Dong",
    "preAs": "NotDong",
    "diNov": "Dong",
    "postLie": "NotDong",
    "ComTriAs": "Dong",
    "dual(GD)": "Dong",
    "dual(NP)": "Dong",
}

ZINB_WITNESS = "(x1 {z1'} x2) {z2'} x3 - (x1 {z2'} x2) {z2'} x3"


@pytest.mark.parametrize("spec", sorted(COMPUTED_VERDICTS))
def test_verdicts(spec):
    report = dong_verdict(resolve(spec))
    assert report.verdict == COMPUTED_VERDICTS[spec]
    assert report.method_agreement


@pytest.mark.parametrize("spec", sorted(COMPUTED_VERDICTS))
def test_kernel_is_the_block_meet_of_the_dual_relations(spec):
    # The definition, computed the long way: intersect the identity block
    # with the relations of the dual operad.
    P = resolve(spec)
    D = dual_operad(P)
    d = P.dim_gens
    block = SubspaceQ.from_vectors(
        D.dim_free3,
        [{D.space.flat(IDENT, i, j): Fraction(1)} for i in range(d) for j in range(d)],
    )
    report = dong_verdict(P)
    assert printed_kernel(report, dual_generators(P.space)) == block.intersect(D.relations)


def _kernel_from_scratch(P):
    """The block kernel eliminated afresh and spanned again in F(3)."""
    block = P.dim_gens ** 2
    rows = [{c: a for c, a in row.items() if c < block} for row in P.relations.rows()]
    kernel = fresh_perp(SubspaceQ.from_vectors(block, rows))
    return SubspaceQ.from_vectors(P.dim_free3, kernel.rows())


def test_kernel_equals_the_kernel_from_scratch():
    rng = random.Random(18)
    operads = [resolve(spec) for spec in sorted(COMPUTED_VERDICTS)]
    operads += [random_operad(rng, rng.randint(1, 3)) for _ in range(12)]
    operads.append(white_product(catalog("diAs"), catalog("diAs")))
    for P in operads:
        report = dong_verdict(P)
        kernel = printed_kernel(report, dual_generators(P.space))
        assert kernel.ambient_dim == P.dim_free3
        assert kernel == _kernel_from_scratch(P), P.name
    assert (P.dim_gens, report.kernel_dim) == (16, 72)


def test_kernel_dimension_accounts_for_the_block():
    for name in ("Zinb", "GD", "preAs", "postLie"):
        P = catalog(name)
        report = dong_verdict(P)
        assert report.verdict == "NotDong"
        assert report.kernel_dim > 0
        assert len(report.witnesses) == report.kernel_dim


def test_witnesses_parse_back_into_the_kernel():
    for name in ("Zinb", "preLie", "preAs"):
        P = catalog(name)
        report = dong_verdict(P)
        D = dual_operad(P)
        assert printed_kernel(report, D.space).dim == report.kernel_dim
        for w in report.witnesses:
            vec = parse_relation(D.space, w)
            assert max(vec) < P.dim_gens ** 2
            assert D.relations.contains(vec)


def test_zinb_witness_text():
    report = dong_verdict(catalog("Zinb"))
    assert report.witnesses == [ZINB_WITNESS]


@pytest.mark.parametrize("witnesses", [[ZINB_WITNESS], []], ids=["printed", "none"])
def test_replay_accepts_true_witnesses(witnesses):
    Zinb = catalog("Zinb")
    replay_witnesses(Zinb, dual_generators(Zinb.space), witnesses)


@pytest.mark.parametrize(
    "witnesses",
    [
        ["(x1 {z1'} x2) {z2'} x3 + (x1 {z2'} x2) {z2'} x3"],  # sign flipped
        ["(x1 {z1'} x2) {z2'} x3"],  # term dropped
        ["(x1 {z2'} x2) {z2'} x3"],  # the other term dropped
        ["0"],  # zero
        [ZINB_WITNESS, "2 * (x1 {z1'} x2) {z2'} x3 - 2 * (x1 {z2'} x2) {z2'} x3"],  # dependent
        ["(x2 {z1'} x3) {z2'} x1 - (x2 {z2'} x3) {z2'} x1"],  # off the block
        ["(x1 {q} x2) {z2'} x3"],  # does not parse
    ],
    ids=["sign-flipped", "term-dropped", "other-term-dropped", "zero", "dependent",
         "off-block", "unparsable"],
)
def test_replay_rejects_tampered_witnesses(witnesses):
    Zinb = catalog("Zinb")
    with pytest.raises(InternalCheckError):
        replay_witnesses(Zinb, dual_generators(Zinb.space), witnesses)


class _WatchedRow(dict):
    """A relation row that records its pivot in `read` when its entries
    are read."""

    def __init__(self, row, read):
        super().__init__(row)
        self.read = read

    def items(self):
        self.read.append(min(self))
        return super().items()


def test_replay_reads_only_the_rows_pivoted_below_the_block():
    # Zinb's block is columns 0..3; its canonical rows are pivoted at 0, 1,
    # 2, exactly 4, and past it at 5 and 6.  No row pivoted at or past the
    # block has an entry on it, so the replay stops before reading one.
    Zinb = catalog("Zinb")
    R = Zinb.relations
    assert R.pivots == (0, 1, 2, 4, 5, 6)
    read: list[int] = []
    watched = SimpleNamespace(name=Zinb.name, dim_gens=Zinb.dim_gens, relations=SimpleNamespace(
        pivots=R.pivots, rows=lambda: [_WatchedRow(r, read) for r in R.rows()]))
    dspace = dual_generators(Zinb.space)
    replay_witnesses(watched, dspace, [ZINB_WITNESS])
    assert read == [0, 1, 2]
    read.clear()
    with pytest.raises(InternalCheckError):
        replay_witnesses(watched, dspace, ["(x1 {z1'} x2) {z2'} x3"])
    assert read == [0, 1, 2]


@pytest.mark.parametrize("other", ["Lie", "Pois", "Zinb"])
def test_verdict_refuses_a_dual_without_the_twisted_generators(other):
    # Lie has one generator to Zinb's two; Pois has two, but its swap is
    # not the negated transpose of Zinb's, nor is Zinb's own.
    with pytest.raises(InputError, match="not a Koszul dual of Zinb"):
        dong_verdict(catalog("Zinb"), catalog(other))


def test_verdict_prints_in_the_generators_of_a_true_dual():
    Zinb = catalog("Zinb")
    D = dual_operad(Zinb)
    assert dong_verdict(Zinb, D).witnesses == [ZINB_WITNESS]
    renamed = QuadOperad("renamed", GeneratorSpace(("a", "b"), D.space.swap), D.relations)
    report = dong_verdict(Zinb, renamed)
    assert report.witnesses == ["(x1 {a} x2) {b} x3 - (x1 {b} x2) {b} x3"]
    assert report.as_dict() | {"witnesses": []} == dong_verdict(Zinb).as_dict() | {"witnesses": []}


def test_verdict_of_a_white_product_with_its_dual():
    W = white_product(catalog("diAs"), catalog("diAs"))
    assert dong_verdict(W, dual_operad(W)) == dong_verdict(W)


def test_off_block_witness_is_in_the_dual_relations():
    # The off-block case above fails only for leaving the block: the same
    # vector moved by (123) still lies in the dual relations.
    Zinb = catalog("Zinb")
    D = dual_operad(Zinb)
    assert D.relations.contains(parse_relation(D.space, ZINB_WITNESS))
    assert D.relations.contains(
        parse_relation(D.space, "(x2 {z1'} x3) {z2'} x1 - (x2 {z2'} x3) {z2'} x1"))


def test_verdict_raises_when_a_printed_witness_is_wrong(monkeypatch):
    def drop_last_term(space, vec):
        return pretty_print(space, dict(sorted(vec.items())[:-1]))

    monkeypatch.setattr(quadop.dong, "pretty_print", drop_last_term)
    with pytest.raises(InternalCheckError):
        dong_verdict(catalog("Zinb"))
    dong_verdict(catalog("As"))  # Dong: nothing printed, nothing to replay


def test_kernel_lives_in_the_dual_free_space():
    P = catalog("Zinb")
    D = dual_operad(P)
    report = dong_verdict(P, D)
    assert report.witnesses == [ZINB_WITNESS]
    kernel = printed_kernel(report, D.space)
    assert kernel.ambient_dim == D.dim_free3
    assert kernel.contains(parse_relation(D.space, ZINB_WITNESS))
    assert all(D.relations.contains(r) for r in kernel.rows())


def test_report_dims_keys():
    report = dong_verdict(catalog("Nov"))
    assert set(report.dims) == {"gen", "free3", "relations", "p3",
                               "dual_relations", "dual_p3"}
    assert report.dims["relations"] + report.dims["dual_relations"] == report.dims["free3"]


def test_as_dict_is_json_ready():
    d = dong_verdict(catalog("Lie")).as_dict()
    assert d["verdict"] == "Dong"
    assert d["witnesses"] == []
    assert isinstance(d["kernel_dim"], int)


@pytest.mark.parametrize("name", ["Lie", "Zinb", "postLie", "preAs"])
def test_as_dict_copies_every_field_in_order(name):
    report = dong_verdict(catalog(name))
    d = report.as_dict()
    assert list(d.items()) == list(dataclasses.asdict(report).items())
    assert d["witnesses"] is not report.witnesses and d["dims"] is not report.dims


def test_degenerate_presentations():
    # No relations: the dual has full relations, so the whole identity block
    # sits in the kernel.  Full relations: the dual is free and the kernel is
    # trivial.
    free = make_operad("free", [("m", "sym")], [])
    report = dong_verdict(free)
    assert report.verdict == "NotDong"
    assert report.kernel_dim == free.dim_gens**2

    collapsed = make_operad("collapsed", [("m", "sym")], [
        "(x1 {m} x2) {m} x3",
        "(x2 {m} x3) {m} x1",
        "(x3 {m} x1) {m} x2",
    ])
    assert collapsed.dim_p3 == 0
    report = dong_verdict(collapsed)
    assert report.verdict == "Dong"
    assert report.kernel_dim == 0
