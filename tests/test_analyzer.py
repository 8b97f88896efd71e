"""Cutset extraction, reduction and pointwise evaluation."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftweave import (
    AnalysisError,
    CutSet,
    FaultTree,
    FTBasicEvent,
    FTGate,
    GateKind,
    TopEventRef,
    cutsets,
    evaluate,
    synthesize,
    weave,
)
from cftweave import analyzer
from cftweave.analyzer import MAX_PRODUCTS, STAGES

import genmodels
from conftest import traced_peak


def leaf(identity, display=None):
    return FTBasicEvent(identity=identity, display=display or identity)


def tree_of(root):
    return FaultTree(root=root, top=TopEventRef("t", "t"))


def and_of(*children):
    return FTGate(GateKind.AND, children)


def or_of(*children):
    return FTGate(GateKind.OR, children)


def fig4_tree():
    """Reduced shape of the fig2 system: OR(a, b, AND(e1, e2))."""
    return tree_of(FTGate(GateKind.OR, (
        leaf("CPU.a"), leaf("RAM.b"),
        FTGate(GateKind.AND, (leaf("ext@f1.p1.loss-of"), leaf("ext@f1.p2.loss-of"))))))


class TestCutsets:
    def test_or_idempotence(self):
        x = leaf("x")
        report = cutsets(tree_of(FTGate(GateKind.OR, (x, x))), "reduced")
        assert report.identity_sets() == {frozenset({"x"})}

    def test_and_idempotence_within_cutset(self):
        x = leaf("x")
        report = cutsets(tree_of(FTGate(GateKind.AND, (x, x))), "reduced")
        assert report.identity_sets() == {frozenset({"x"})}

    def test_absorption(self):
        x, y = leaf("x"), leaf("y")
        root = FTGate(GateKind.OR, (x, FTGate(GateKind.AND, (x, y))))
        report = cutsets(tree_of(root), "reduced")
        assert report.identity_sets() == {frozenset({"x"})}
        pre = cutsets(tree_of(root), "pre")
        assert pre.identity_sets() == {frozenset({"x"}), frozenset({"x", "y"})}

    def test_not_gate_rejected(self):
        root = FTGate(GateKind.NOT, (leaf("x"),))
        with pytest.raises(AnalysisError, match="non-coherent"):
            cutsets(tree_of(root))

    def test_unknown_stage(self):
        with pytest.raises(AnalysisError, match="unknown stage"):
            cutsets(fig4_tree(), "postish")

    def test_empty_tree(self):
        empty = FaultTree(root=None, top=TopEventRef("t", "t"))
        with pytest.raises(AnalysisError, match="empty tree"):
            cutsets(empty)
        with pytest.raises(AnalysisError, match="empty tree"):
            evaluate(empty, {})

    def test_display_with_two_identities_rejected(self):
        # the first display met ambiguous is named: children first, "z" is
        # met before "m", which sorts first
        for root, display in ((or_of(leaf("a", "same"), leaf("b", "same")), "same"),
                              (or_of(leaf("a", "z"), leaf("b", "z"),
                                     leaf("c", "m"), leaf("d", "m")), "z")):
            for stage in STAGES:
                with pytest.raises(AnalysisError) as caught:
                    cutsets(tree_of(root), stage)
                assert str(caught.value) == \
                    f"display name '{display}' maps to several identities"

    def test_a_tree_folds_any_number_of_times(self):
        # the shared gate has two parents, so a fold that used up the
        # tree's parent counts would fail the second time
        shared = or_of(leaf("a"), leaf("b"))
        tree = tree_of(or_of(and_of(shared, leaf("c")), and_of(shared, leaf("d"))))
        text = "OR(AND(OR(a,b),c),AND(OR(a,b),d))"
        assert tree.to_prefix_text() == text
        assert tree.to_prefix_text() == text
        lines = ("a ∧ c", "a ∧ d", "b ∧ c", "b ∧ d")
        assert cutsets(tree, "pre").lines() == lines
        assert cutsets(tree, "reduced").lines() == lines
        assert evaluate(tree, {"a": False, "b": True, "c": False, "d": True}) is True
        assert evaluate(tree, {"a": True, "b": True, "c": False, "d": False}) is False
        assert tree.to_prefix_text() == text

    def test_fig2_reduced(self, fig2):
        tree = synthesize(weave(fig2), "f2.loss-of")
        report = cutsets(tree, "reduced")
        assert report.identity_sets() == {
            frozenset({"CPU.a"}),
            frozenset({"RAM.b"}),
            frozenset({"ext@f1.p1.loss-of", "ext@f1.p2.loss-of"}),
        }
        assert report.lines() == (
            "CPU.a",
            "RAM.b",
            "ext@f1.p1.loss-of ∧ ext@f1.p2.loss-of",
        )

    def test_common_cause_collapse_between_stages(self, vehicle):
        tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
        pre = cutsets(tree, "pre")
        assert frozenset({"U1.Battery-omission", "U2.Battery-omission"}) \
            in pre.display_sets()
        red = cutsets(tree, "reduced")
        assert frozenset({"B.Battery-omission"}) in red.display_sets()

    def test_ordering_cardinality_then_lexicographic(self, vehicle):
        tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
        for stage in ("pre", "reduced"):
            report = cutsets(tree, stage)
            keys = [(len(cs.displays), cs.displays) for cs in report.cutsets]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("stage", STAGES)
    def test_ordering_puts_size_before_names(self, stage):
        tree = tree_of(or_of(and_of(leaf("a"), leaf("b")), leaf("c")))
        assert cutsets(tree, stage).lines() == ("c", "a ∧ b")

    def test_deterministic(self, vehicle):
        tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
        assert cutsets(tree, "pre") == cutsets(tree, "pre")
        assert cutsets(tree, "reduced") == cutsets(tree, "reduced")

    def test_stage_consistency_on_sample(self):
        # Reduced report equals identity-collapse plus absorption of the pre
        # report, recomputed here independently.
        for seed in range(40):
            model, tops = genmodels.random_model(seed)
            woven = weave(model)
            for top in tops:
                tree = synthesize(woven, top)
                pre = cutsets(tree, "pre")
                collapsed = {cs.identities for cs in pre.cutsets}
                minimal = {s for s in collapsed
                           if not any(o < s for o in collapsed)}
                red = cutsets(tree, "reduced")
                assert red.identity_sets() == minimal, f"seed={seed}"

    def test_or_extends_a_first_child_only_at_its_last_use(self):
        # the inner OR's first child is used again by the AND, so the OR
        # must copy its products rather than extend them
        root = and_of(or_of(REUSED, leaf("c")), REUSED)
        tree = tree_of(root)
        assert pre_pairs(tree) == reference_pre(tree)
        assert cutsets(tree, "reduced").lines() == ("a", "b")


# The vehicle's reports at EBC.no-emergency-braking, as (displays, sorted
# identities) per cutset in report order, recorded when the report was a
# frozen dataclass of (stage, cutsets).
VEHICLE_REPORTS = {
    "pre": [
        (("E.Speed-too-low",), ("E.Speed-too-low",)),
        (("EBC.HW-defect_PartCount",), ("M.HW-defect_PartCount",)),
        (("EBC.Loss-of-power",), ("M.Loss-of-power",)),
        (("U1.Battery-omission", "U2.Battery-omission"), ("B.Battery-omission",)),
        (("U1.Battery-omission", "U2.Battery-too-low"),
         ("B.Battery-omission", "B.Battery-too-low")),
        (("U1.Battery-omission", "U2.False-negative"),
         ("B.Battery-omission", "U2.False-negative")),
        (("U1.Battery-too-low", "U2.Battery-omission"),
         ("B.Battery-omission", "B.Battery-too-low")),
        (("U1.Battery-too-low", "U2.Battery-too-low"), ("B.Battery-too-low",)),
        (("U1.Battery-too-low", "U2.False-negative"),
         ("B.Battery-too-low", "U2.False-negative")),
        (("U1.False-negative", "U2.Battery-omission"),
         ("B.Battery-omission", "U1.False-negative")),
        (("U1.False-negative", "U2.Battery-too-low"),
         ("B.Battery-too-low", "U1.False-negative")),
        (("U1.False-negative", "U2.False-negative"),
         ("U1.False-negative", "U2.False-negative")),
    ],
    "reduced": [
        (("B.Battery-omission",), ("B.Battery-omission",)),
        (("B.Battery-too-low",), ("B.Battery-too-low",)),
        (("E.Speed-too-low",), ("E.Speed-too-low",)),
        (("EBC.HW-defect_PartCount",), ("M.HW-defect_PartCount",)),
        (("EBC.Loss-of-power",), ("M.Loss-of-power",)),
        (("U1.False-negative", "U2.False-negative"),
         ("U1.False-negative", "U2.False-negative")),
    ],
}

# The report class as a frozen dataclass of (stage, cutsets), whose
# equality, hash and repr the report keeps.  A frozenset's repr follows the
# string hash seed, so the recorded values are the contents above and the
# repr and hash are compared with this class's over the same cutsets.
DataclassReport = dataclasses.make_dataclass(
    "CutSetReport", [("stage", str), ("cutsets", tuple)], frozen=True)


class TestReport:
    @pytest.mark.parametrize("stage", STAGES)
    def test_eq_hash_and_repr_of_stage_and_cutsets(self, stage, vehicle):
        tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
        report = cutsets(tree, stage)
        assert [(cs.displays, tuple(sorted(cs.identities)))
                for cs in report.cutsets] == VEHICLE_REPORTS[stage]
        assert all(type(cs) is CutSet for cs in report.cutsets)
        same = DataclassReport(stage, report.cutsets)
        assert repr(report) == repr(same)
        assert hash(report) == hash(same)
        again = cutsets(tree, stage)
        assert report == again and hash(report) == hash(again)
        assert report != cutsets(tree, STAGES[STAGES.index(stage) - 1])
        assert report != report.cutsets
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.stage = "other"

    @pytest.mark.parametrize("stage", STAGES)
    def test_lines_build_no_cutset(self, stage, vehicle):
        tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
        report = cutsets(tree, stage)
        lines = report.lines()
        rows = report.rows()
        displays = report.display_sets()
        identities = report.identity_sets()
        assert "cutsets" not in vars(report)
        assert lines == tuple(" ∧ ".join(cs.displays) for cs in report.cutsets)
        assert rows == tuple(cs.displays for cs in report.cutsets)
        assert report.rows() is rows
        assert displays == {frozenset(cs.displays) for cs in report.cutsets}
        assert identities == {cs.identities for cs in report.cutsets}
        assert report.cutsets is report.cutsets

    @pytest.mark.parametrize("stage", STAGES)
    def test_rows_hold_the_trees_names(self, stage):
        # 4**6 pre products, split in several blocks; 2 + 2**6 reduced
        # cutsets of sizes 1 and 6
        model, top = genmodels.wide(6, GateKind.AND)
        tree = synthesize(weave(model), top)
        report = cutsets(tree, stage)
        rows = report.rows()
        assert rows == tuple(tuple(line.split(" ∧ ")) for line in report.lines())
        # a collapsed common cause shows its identity
        names = {id(name) for leaf in tree.leaves() for name in (leaf.display, leaf.identity)}
        assert all(id(name) in names for row in rows for name in row)


def reference_reduced(tree):
    """Reduced report lines recomputed from the pre products: map displays
    to identities, then absorb by a quadratic pass in ascending size."""
    kept: list[frozenset[str]] = []
    collapsed = {cs.identities for cs in cutsets(tree, "pre").cutsets}
    for candidate in sorted(collapsed, key=lambda s: (len(s), sorted(s))):
        if not any(k <= candidate for k in kept):
            kept.append(candidate)
    displays: dict[str, set[str]] = {}
    for node in tree.leaves():
        displays.setdefault(node.identity, set()).add(node.display)
    display_of = {i: (min(ds) if len(ds) == 1 else i) for i, ds in displays.items()}
    rendered = sorted((tuple(sorted(display_of[i] for i in s)) for s in kept),
                      key=lambda d: (len(d), d))
    return set(kept), tuple(" ∧ ".join(d) for d in rendered)


def draw_dag(draw, n_identities, prefix="", max_leaves=6, max_gates=8, max_children=4,
             displays=None, kinds=(GateKind.AND, GateKind.OR), root=None):
    """The last node of a DAG of gates of the given *kinds* whose children
    are drawn from earlier nodes, so subtrees are shared; display names
    start with *prefix*, or are *displays* when given, and several of them
    may map to one identity.  With a *root* kind, the last node is a gate of
    that kind over two to *max_children* distinct nodes of the DAG (one if
    the DAG has only one)."""
    if displays is None:
        displays = [f"{prefix}d{k}" for k in range(draw(st.integers(1, max_leaves)))]
    pool = [leaf(f"i{draw(st.integers(0, n_identities - 1))}", display)
            for display in displays]
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_children))
        pool.append(FTGate(kind, tuple(pool[i] for i in picks)))
    if root is not None:
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=min(2, len(pool)),
                              max_size=max_children, unique=True))
        return FTGate(root, tuple(pool[i] for i in picks))
    return pool[-1]


@st.composite
def coherent_trees(draw, kinds=(GateKind.AND, GateKind.OR)):
    """Trees over one DAG of gates of the given *kinds*, AND and OR by
    default."""
    return tree_of(draw_dag(draw, draw(st.integers(1, 5)), kinds=kinds))


# Display names that are proper prefixes of one another, or differ at "-",
# ".", "@", "_" or a digit: "S1", "S10", "S1-a", "a.b", "a0", "a@S", "a_1".
NEAR_NAMES = st.lists(st.text(alphabet="aS10-._@", min_size=1, max_size=4),
                      min_size=1, max_size=12, unique=True)


@st.composite
def near_named_trees(draw):
    """Trees over one DAG whose leaves' display names sort close together."""
    return tree_of(draw_dag(draw, draw(st.integers(1, 5)), max_gates=10,
                            displays=draw(NEAR_NAMES)))


@st.composite
def woven_trees(draw):
    """An AND whose children each have their own display names but draw
    identities from one small shared pool, the shape weaving gives a gate
    over several dependents of one provider.  The children's names need not
    ascend in child order, as ``S10.f`` falls between ``S1.f`` and ``S2.f``.
    Each child is an OR over leaves and AND gates of its own DAG, as a woven
    output failure mode is an OR of its driver and the injected references,
    so a child holds several products, often of mixed sizes."""
    n_identities = draw(st.integers(1, 4))
    children = tuple(draw_dag(draw, n_identities, f"c{c}.", max_leaves=3, max_gates=4,
                              max_children=3, kinds=(GateKind.AND,), root=GateKind.OR)
                     for c in draw(st.permutations(range(draw(st.integers(1, 5))))))
    return tree_of(FTGate(GateKind.AND, children))


def reference_pre(tree):
    """Pre report pairs (displays, identities) recomputed over frozensets of
    display names, with every node's products kept to the end."""
    products: dict[int, set[frozenset[str]]] = {}
    for node in tree.nodes():
        if isinstance(node, FTGate):
            kids = [products[id(child)] for child in node.children]
            if node.kind is GateKind.OR:
                value = set().union(*kids)
            else:
                value = {frozenset()}
                for kid in kids:
                    value = {a | b for a in value for b in kid}
        else:
            value = {frozenset((node.display,))}
        products[id(node)] = value
    identity_of = {node.display: node.identity for node in tree.leaves()}
    pairs = [(tuple(sorted(p)), frozenset(identity_of[d] for d in p))
             for p in products[id(tree.root)]]
    return sorted(pairs, key=lambda pair: (len(pair[0]), pair[0]))


def pre_pairs(tree):
    return [(cs.displays, cs.identities) for cs in cutsets(tree, "pre").cutsets]


def products_of(value):
    """The products a ``pre`` value of the fold holds, as sets of names."""
    return {frozenset(line.split(" ∧ ") if size else ())
            for size, lines in value.items() for line in lines}


REUSED = or_of(leaf("a"), leaf("b"))

# Two AND operands with disjoint display names, by the order of the second
# operand's names against the first's; products of several names and the
# empty product take part.
ORDERED_PAIRS = {
    "above": (or_of(leaf("a"), and_of(leaf("b"), leaf("c"))),
              or_of(and_of(leaf("d"), leaf("f")), leaf("e"), and_of())),
    "below": (or_of(leaf("d"), and_of(leaf("e"), leaf("f"))),
              or_of(and_of(leaf("a"), leaf("c")), leaf("b"), and_of())),
    "interleaved": (or_of(leaf("a"), and_of(leaf("c"), leaf("e"))),
                    or_of(and_of(leaf("b"), leaf("f")), leaf("d"))),
}

# Operands with no products, and with only the empty product.
EMPTY_OPERANDS = {"no-products": or_of(), "empty-product": and_of()}

# Display names that are proper prefixes of one another or differ at "-",
# ".", "@", "_" or a digit, which all sort above a blank.
NEAR = [leaf(name) for name in ("a", "a-b", "a.b", "a0", "a@b", "a_b", "ab")]
SENSORS = [leaf(name) for name in ("S1", "S10", "S1-x", "S2", "S1.f", "S10.f")]


class TestPreAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(coherent_trees())
    def test_matches_frozenset_expansion(self, tree):
        assert pre_pairs(tree) == reference_pre(tree)

    def test_woven_shape_takes_both_and_steps(self, monkeypatch):
        # an AND step appends its operand's tails to the lines so far only
        # when the operand's names all follow the names so far ("above");
        # operands whose names all precede them ("below"), interleave with
        # them or share one merge each pair of products.  Count the steps of
        # each kind the trees reach, from the products of each AND gate's
        # operands as the fold hands them over, and two kinds of "above"
        # step whose lines come out of order unless sorted: one over lines
        # that an earlier step merged, with several products of one size,
        # and one where two pairs of product sizes make one size.
        steps = {"above": 0, "below": 0, "interleaved": 0, "overlapping": 0,
                 "above-merged": 0, "above-mixed-sizes": 0}
        fold = FaultTree._fold

        def count_steps(kids):
            acc = {frozenset()}
            merged = False
            for kid in kids:
                products = products_of(kid)
                support, names = set().union(*acc), set().union(*products)
                if support and names:
                    if support & names:
                        step = "overlapping"
                    elif min(names) > max(support):
                        step = "above"
                    elif max(names) < min(support):
                        step = "below"
                    else:
                        step = "interleaved"
                    steps[step] += 1
                    have, sizes = Counter(map(len, acc)), {len(p) for p in products}
                    if step != "above":
                        merged = True
                    else:
                        if merged and max(have.values()) > 1:
                            steps["above-merged"] += 1
                        if len({h + s for h in have for s in sizes}) < len(have) * len(sizes):
                            steps["above-mixed-sizes"] += 1
                acc = {a | b for a in acc for b in products}

        def recording(self, leaf, gate):
            def recorded(node, kids, owned):
                if node.kind is GateKind.AND:
                    count_steps(kids)
                return gate(node, kids, owned)
            return fold(self, leaf, recorded)

        monkeypatch.setattr(FaultTree, "_fold", recording)

        @settings(max_examples=300, deadline=None)
        @given(woven_trees())
        def check(tree):
            assert pre_pairs(tree) == reference_pre(tree)

        check()
        assert all(steps.values()), steps

    @pytest.mark.parametrize("root", [
        pytest.param(and_of(or_of(leaf("B.x", "U1.x"), leaf("U1.f")),
                            or_of(leaf("B.x", "U2.x"), leaf("U2.f")),
                            or_of(leaf("B.x", "U3.x"), leaf("B.y", "U3.y"))),
                     id="disjoint-displays-shared-identities"),
        pytest.param(and_of(or_of(leaf("a"), leaf("b")), or_of(leaf("b"), leaf("c"))),
                     id="shared-display"),
        pytest.param(and_of(REUSED, leaf("c"), REUSED), id="node-twice"),
        pytest.param(and_of(REUSED, FTGate(GateKind.AND, ())), id="empty-product"),
        pytest.param(and_of(REUSED, FTGate(GateKind.OR, ())), id="no-products"),
        pytest.param(and_of(or_of(or_of(), and_of(leaf("a"), leaf("b"))), leaf("c")),
                     id="owned-first-child-without-products"),
        # the shared "a" makes the second step merge names into dicts out of
        # order (a ∧ c before a ∧ b); the third step's names follow, so it
        # appends tails to those dicts' lines, which must be sorted first
        pytest.param(and_of(or_of(leaf("b"), leaf("a")), or_of(leaf("a"), leaf("c")),
                            or_of(leaf("x"), leaf("y"))),
                     id="ordered-step-over-unordered-products"),
        # an ordered step makes its size-3 lines in two runs, b ∧ d ∧ f from
        # the one-name prefix, then a ∧ c ∧ e, which must be merged in order
        pytest.param(and_of(or_of(leaf("b"), and_of(leaf("a"), leaf("c"))),
                            or_of(and_of(leaf("d"), leaf("f")), leaf("e"))),
                     id="ordered-step-runs-of-one-size"),
        *(pytest.param(and_of(*pair), id=order) for order, pair in ORDERED_PAIRS.items()),
        *(pytest.param(and_of(*operands), id=f"{order}-{empty}-{where}")
          for order, (x, y) in ORDERED_PAIRS.items()
          for empty, e in EMPTY_OPERANDS.items()
          for where, operands in (("first", (e, x, y)), ("between", (x, e, y)),
                                  ("last", (x, y, e)))),
    ])
    def test_explicit_trees(self, root):
        tree = tree_of(root)
        assert pre_pairs(tree) == reference_pre(tree)

    @pytest.mark.parametrize("root", [
        pytest.param(or_of(*NEAR), id="near-singletons"),
        pytest.param(and_of(or_of(*NEAR[:4]), or_of(*NEAR[3:])), id="near-pairs"),
        pytest.param(and_of(or_of(*NEAR[::2]), or_of(*NEAR[1::2]), or_of(*NEAR[:3])),
                     id="near-triples"),
        pytest.param(or_of(*SENSORS, and_of(*SENSORS[:3]), and_of(*SENSORS[3:])),
                     id="sensor-sizes"),
        pytest.param(and_of(*(or_of(s, leaf(s.display + ".g")) for s in SENSORS)),
                     id="sensor-operands"),
        pytest.param(or_of(leaf("x", ""), and_of(), and_of(leaf("y"), leaf("x", ""))),
                     id="empty-display-and-empty-product"),
    ])
    def test_names_that_sort_close(self, root):
        # lines are sorted as strings, which must give the order of the
        # display tuples
        tree = tree_of(root)
        pairs = reference_pre(tree)
        assert pre_pairs(tree) == pairs
        assert cutsets(tree, "pre").lines() == tuple(" ∧ ".join(d) for d, _ in pairs)

    @settings(max_examples=300, deadline=None)
    @given(near_named_trees())
    def test_near_names_match_frozenset_expansion(self, tree):
        report = cutsets(tree, "pre")
        pairs = reference_pre(tree)
        assert [(cs.displays, cs.identities) for cs in report.cutsets] == pairs
        assert report.lines() == tuple(" ∧ ".join(d) for d, _ in pairs)


class TestReducedAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(coherent_trees())
    def test_matches_quadratic_absorb_of_pre(self, tree):
        expected_sets, expected_lines = reference_reduced(tree)
        report = cutsets(tree, "reduced")
        assert report.identity_sets() == expected_sets
        assert report.lines() == expected_lines

    @settings(max_examples=300, deadline=None)
    @given(coherent_trees(kinds=(GateKind.OR,)))
    def test_or_only_trees_match_quadratic_absorb_of_pre(self, tree):
        # the OR-only path: each distinct identity is a cutset of its own
        expected_sets, expected_lines = reference_reduced(tree)
        report = cutsets(tree, "reduced")
        assert report.identity_sets() == expected_sets
        assert report.lines() == expected_lines
        assert report.rows() == tuple((line,) for line in expected_lines)

    def test_or_only_trees_build_no_masks(self, monkeypatch):
        # the OR-only path reads the identities off the leaves: it neither
        # folds the tree nor reaches the mask engine
        def unused(*args):
            raise AssertionError("an OR-only tree was folded or reached the mask engine")

        # identity a shows as itself, and so does b's display
        alike = or_of(leaf("a", "x"), leaf("b", "a"), or_of(leaf("c"), leaf("a", "y")))
        trees = [tree_of(leaf("x", "X")), tree_of(or_of()), tree_of(alike)]
        for model, top in (genmodels.chain(300), genmodels.wide(50, GateKind.OR)):
            trees.append(synthesize(weave(model), top))
        with monkeypatch.context() as patched:
            for name in ("_identity_products", "_minimise"):
                patched.setattr(analyzer, name, unused)
            patched.setattr(FaultTree, "_fold", unused)
            reports = [cutsets(tree, "reduced") for tree in trees]
        for tree, report in zip(trees, reports):
            assert (report.identity_sets(), report.lines()) == reference_reduced(tree)
        # chain(300): its 300 events and the battery's two failure modes
        assert len(reports[3].lines()) == 300 + 2

    def test_empty_product_absorbs_everything(self):
        root = FTGate(GateKind.OR, (leaf("x"), FTGate(GateKind.AND, ())))
        report = cutsets(tree_of(root), "reduced")
        assert report.identity_sets() == {frozenset()}
        assert (report.lines(), report.rows()) == (("",), ((),))


class TestClosedFormFamilies:
    """The reduced cutsets of ``wide(n, kind)`` follow from its structure.

    ``wide(12, AND)`` expands 4**12 display-level products, about 16.8M;
    minimising after each child of the AND gate keeps at most 2 + 2**12.
    """

    BATTERY = {frozenset({f"B.{b}"}) for b in genmodels.BATTERY}

    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_wide_and(self, n):
        model, top = genmodels.wide(n, GateKind.AND)
        report = cutsets(synthesize(weave(model), top), "reduced")
        sensors = {frozenset(f"S{k}.{x}" for k, x in enumerate(choice))
                   for choice in itertools.product("fg", repeat=n)}
        assert len(report.cutsets) == 2 + 2 ** n
        assert report.identity_sets() == self.BATTERY | sensors

    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_wide_and_cost_follows_the_answer(self, n, monkeypatch):
        # no minimisation step is handed more than 4 products per reduced
        # cutset (2.22 at most today), where full expansion would be 4**n
        sizes = []
        minimise = analyzer._minimise

        def recording(masks):
            masks = list(masks)
            sizes.append(len(masks))
            return minimise(masks)

        monkeypatch.setattr(analyzer, "_minimise", recording)
        model, top = genmodels.wide(n, GateKind.AND)
        report = cutsets(synthesize(weave(model), top), "reduced")
        assert max(sizes) <= 4 * len(report.cutsets)

    def test_wide_and_pre_shares_identity_sets(self):
        # 4**6 products name 1,867 distinct identity sets, because each
        # sensor holds its own copy of the battery's failure modes
        model, top = genmodels.wide(6, GateKind.AND)
        tree = synthesize(weave(model), top)
        report, peak = traced_peak(lambda: cutsets(tree, "pre"))
        assert len(report.cutsets) == 4 ** 6
        assert len({id(cs.identities) for cs in report.cutsets}) \
            == len(report.identity_sets()) == 1867
        # a frozenset of display names per product peaks near 4.8 MB
        assert peak <= 3_500_000

    def test_wide_and_pre_sorts_once_per_operand(self, monkeypatch):
        # each sensor's names follow the sensors' before it, so every AND step
        # appends tails to the lines so far, sorting each of its operand's
        # size groups once, and keeps them in report order; the root sorts
        # its sizes and none of the lines again.  Sorting each product
        # instead would call sorted 87,381 times, and sorting at the root
        # would hand one call all 65,536 lines.
        calls = []

        def counting(iterable, **kwargs):
            items = list(iterable)
            calls.append(len(items))
            return sorted(items, **kwargs)

        monkeypatch.setattr(analyzer, "sorted", counting, raising=False)
        model, top = genmodels.wide(8, GateKind.AND)
        tree = synthesize(weave(model), top)
        operands = sum(len(node.children) for node in tree.nodes()
                       if isinstance(node, FTGate) and node.kind is GateKind.AND)
        report = cutsets(tree, "pre")
        assert len(report.lines()) == 4 ** 8
        sizes = {len(row) for row in report.rows()}
        assert len(calls) <= operands + len(sizes) + 1
        assert max(calls) <= 4  # one operand's lines

    @pytest.mark.parametrize("n", [1, 50])
    def test_wide_or(self, n):
        model, top = genmodels.wide(n, GateKind.OR)
        report = cutsets(synthesize(weave(model), top), "reduced")
        sensors = {frozenset({f"S{k}.{x}"}) for k in range(n) for x in "fg"}
        assert report.identity_sets() == self.BATTERY | sensors


class TestLimits:
    @pytest.mark.parametrize("stage", STAGES)
    def test_product_budget(self, stage):
        halves = tuple(FTGate(GateKind.OR, tuple(leaf(f"{side}{k}") for k in range(600)))
                       for side in "ab")
        tree = tree_of(FTGate(GateKind.AND, halves))
        assert 600 * 600 > MAX_PRODUCTS

        def over_budget():
            with pytest.raises(AnalysisError, match="360000"):
                cutsets(tree, stage)

        _, peak = traced_peak(over_budget)
        # 360,000 built products would take well over 10 MB in either stage
        assert peak < 2_000_000

    @pytest.mark.parametrize("stage", STAGES)
    def test_first_gate_over_budget_in_children_first_order(self, stage):
        def over(prefix, n):
            sides = tuple(FTGate(GateKind.OR, tuple(leaf(f"{prefix}{side}{k}")
                                                    for k in range(n)))
                          for side in "ab")
            return FTGate(GateKind.AND, sides)

        # both AND gates are over the budget; the first one finished reports
        pair = FTGate(GateKind.OR, (over("x", 600), over("y", 700)))
        tree = tree_of(FTGate(GateKind.OR, (leaf("z"), pair)))
        with pytest.raises(AnalysisError) as caught:
            cutsets(tree, stage)
        assert str(caught.value) == (
            "cutset expansion would form 360000 products at one AND gate, "
            "over the budget of 262144")

    def test_pre_or_total_budget(self, monkeypatch):
        # each AND gate forms 9 products from two operands, under the
        # budget; an OR gate over two of them would hold 18
        monkeypatch.setattr(analyzer, "MAX_PRODUCTS", 10)

        def cross(side):
            return and_of(*(or_of(*(leaf(f"{side}{half}{k}") for k in range(3)))
                            for half in "xy"))

        over = {"two-ands": or_of(cross("a"), cross("b")),
                "eleven-leaves": or_of(*(leaf(f"e{k}") for k in range(11))),
                "and-and-leaves": or_of(leaf("z"), cross("a"), leaf("w"))}
        expected = {"two-ands": 18, "eleven-leaves": 11, "and-and-leaves": 11}
        for name, root in over.items():
            with pytest.raises(AnalysisError) as caught:
                cutsets(tree_of(root), "pre")
            assert str(caught.value) == (
                f"cutset expansion would form {expected[name]} products at one OR "
                "gate, over the budget of 10"), name
        # the reduced stage keeps only its AND budget
        assert len(cutsets(tree_of(over["two-ands"]), "reduced").lines()) == 18
        # at the budget, pre lists every product
        monkeypatch.setattr(analyzer, "MAX_PRODUCTS", 18)
        assert len(cutsets(tree_of(over["two-ands"]), "pre").lines()) == 18

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("char", [" ", "\t", "\n", "\x00"])
    def test_names_with_a_blank_or_control_character(self, stage, char):
        # a line could not be sorted or split back into its names; an empty
        # name has neither problem
        name = f"U1{char}x"
        for kind, bad in (("display name", leaf("U1.x", name)),
                          ("identity", leaf(name, "U1.x"))):
            tree = tree_of(or_of(leaf("a", ""), and_of(leaf("b"), bad)))
            with pytest.raises(AnalysisError) as caught:
                cutsets(tree, stage)
            assert str(caught.value) == \
                f"{kind} {name!r} holds a character at or below U+0020"

    @pytest.mark.parametrize("char", ["\x7f", "\u00a0", "\u200b"])
    def test_names_with_other_unprintable_characters(self, char):
        # these sort above the blank, so lines still sort and split as rows
        tree = tree_of(or_of(leaf("a"), and_of(leaf("b"), leaf(f"U1{char}x"),
                                                leaf(f"i{char}", f"U1{char}"))))
        assert pre_pairs(tree) == reference_pre(tree)
        assert cutsets(tree, "reduced").rows() == (("a",), ("U1" + char, f"U1{char}x", "b"))

    @pytest.mark.parametrize("stage", STAGES)
    def test_chain_memory_grows_linearly(self, stage):
        peaks = {}
        for n in (250, 1000):
            model, top = genmodels.chain(n)
            tree = synthesize(weave(model), top)
            _, peaks[n] = traced_peak(lambda: cutsets(tree, stage))
        # keeping every node's products to the end of the fold grows with
        # the square of the depth, about 12x to 14x here
        assert peaks[1000] <= 6 * peaks[250]

    def test_chain_or_gates_fill_one_product_dict(self, monkeypatch):
        # every OR gate's first child is the gate below it, folded there for
        # the last time, so pre extends the dict the bottom OR made instead
        # of copying every product below it
        n = 300
        model, top = genmodels.chain(n)
        tree = synthesize(weave(model), top)
        values = []
        fold = FaultTree._fold

        def recording(self, leaf, gate):
            def recorded(node, kids, owned):
                values.append(gate(node, kids, owned))
                return values[-1]
            return fold(self, leaf, recorded)

        monkeypatch.setattr(FaultTree, "_fold", recording)
        report = cutsets(tree, "pre")
        # stage 0 is one OR, every later stage adds two
        assert len(values) == 2 * n - 1
        assert all(value is values[0] for value in values)
        # one group of single names: n events and two battery failure
        # modes, and the battery's copy in each stage
        assert list(values[0]) == [1]
        assert len(values[0][1]) == len(report.lines()) == 3 * n

    def test_deep_chain_without_recursion(self):
        x, y = leaf("x"), leaf("y")
        node = x
        for depth in range(5000):
            node = FTGate(GateKind.OR if depth % 2 else GateKind.AND, (node, y))
        tree = tree_of(node)
        assert cutsets(tree, "pre").lines() == ("y", "x ∧ y")
        assert cutsets(tree, "reduced").lines() == ("y",)
        assert evaluate(tree, {"x": False, "y": True}) is True
        assert evaluate(tree, {"x": True, "y": False}) is False


class TestEvaluate:
    def test_single_point_failure(self):
        tree = fig4_tree()
        assignment = dict.fromkeys(
            ("CPU.a", "RAM.b", "ext@f1.p1.loss-of", "ext@f1.p2.loss-of"), False)
        assert evaluate(tree, assignment) is False
        assignment["CPU.a"] = True
        assert evaluate(tree, assignment) is True

    def test_all_false_is_false_on_coherent_tree(self, vehicle):
        tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
        assignment = dict.fromkeys(tree.leaf_identities(), False)
        assert evaluate(tree, assignment) is False

    def test_not_supported_here(self):
        tree = tree_of(FTGate(GateKind.NOT, (leaf("x"),)))
        assert evaluate(tree, {"x": False}) is True
        assert evaluate(tree, {"x": True}) is False

    def test_missing_identity_rejected(self):
        with pytest.raises(AnalysisError, match="missing identities"):
            evaluate(fig4_tree(), {"CPU.a": True})

    def test_matches_reduced_cutsets_exhaustively(self):
        for seed in range(25):
            model, tops = genmodels.random_model(seed)
            woven = weave(model)
            for top in tops:
                tree = synthesize(woven, top)
                identities = tree.leaf_identities()
                assert len(identities) <= 12
                reduced = cutsets(tree, "reduced").identity_sets()
                for values in itertools.product((False, True), repeat=len(identities)):
                    assignment = dict(zip(identities, values))
                    truth = {i for i, v in assignment.items() if v}
                    expected = any(k <= truth for k in reduced)
                    assert evaluate(tree, assignment) == expected, f"seed={seed}"

    def test_minimality_of_reduced_cutsets(self, fig2, vehicle):
        for model, top in ((fig2, "f2.loss-of"),
                           (vehicle, "EBC.no-emergency-braking")):
            tree = synthesize(weave(model), top)
            identities = set(tree.leaf_identities())
            for cutset in cutsets(tree, "reduced").cutsets:
                truth = dict.fromkeys(identities, False)
                truth.update(dict.fromkeys(cutset.identities, True))
                assert evaluate(tree, truth) is True
                for member in cutset.identities:
                    weakened = dict(truth)
                    weakened[member] = False
                    assert evaluate(tree, weakened) is False
