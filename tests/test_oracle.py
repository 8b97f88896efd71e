"""Truth-table oracle: direct network evaluation and equivalence checks."""

import ast
import dataclasses
from pathlib import Path

import pytest

from cftweave import (
    ArchitectureModel,
    BasicEvent,
    Component,
    ComponentFaultTree,
    FaultTree,
    FTBasicEvent,
    FTGate,
    Gate,
    GateKind,
    NodeRef,
    OracleError,
    OutputFailureMode,
    SynthesisError,
    TopEventRef,
    TruthTable,
    cutsets,
    equivalent,
    parse,
    synthesize,
    table_of_cutsets,
    table_of_network,
    table_of_tree,
    weave,
)

import genmodels
from conftest import traced_peak

import cftweave.oracle


def test_oracle_resolves_the_network_on_its_own():
    """The oracle is a certificate because it shares no resolution code with
    the pipeline it checks: it imports nothing from the analyzer, and from
    the synthesizer only the tree data types it evaluates."""
    tree = ast.parse(Path(cftweave.oracle.__file__).read_text(encoding="utf-8"))
    # (last part of the module, name) of every import; "*" for a whole module
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            pairs.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            pairs.update((alias.name.rpartition(".")[2], "*") for alias in node.names)
    assert not {p for p in pairs if "analyzer" in p}
    assert not {p for p in pairs if p[1] == "synthesizer" or p == ("synthesizer", "*")}
    assert {name for module, name in pairs if module == "synthesizer"} <= {
        "FaultTree", "FTBasicEvent", "FTGate", "FTLeaf", "TopEventRef"}
    # Of a tree it reads only the root and its nodes, through nodes(), and
    # none of the facts that the tree's construction works out.
    fields = {f.name for f in dataclasses.fields(FaultTree)}
    assert {"root", "_nodes", "_parents", "_display_of"} <= fields
    forbidden = (fields - {"root", "_nodes"}) | {"leaf_identities", "leaves", "_fold"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert "nodes" in read and not read & forbidden


def leaf(identity):
    return FTBasicEvent(identity=identity, display=identity)


def tree_of(root):
    return FaultTree(root=root, top=TopEventRef("t", "t"))


def test_fig2_network_table_matches_hand_enumeration(fig2):
    table = table_of_network(weave(fig2), "f2.loss-of")
    assert table.variables == ("CPU.a", "RAM.b",
                               "ext@f1.p1.loss-of", "ext@f1.p2.loss-of")
    assert table.rows == 16
    for index in range(16):
        a = bool(index & 1)
        b = bool(index & 2)
        e1 = bool(index & 4)
        e2 = bool(index & 8)
        assert table.verdict(index) == (a or b or (e1 and e2)), index


def test_single_event_network_is_identity():
    model = parse("layer l\n\ncomponent c in l {\n  event e\n  outfm f = e\n}\n")
    table = table_of_network(model, "c.f")
    assert table.variables == ("c.e",)
    assert table.bits == 0b10


def test_equivalent_to_itself(fig2):
    table = table_of_network(weave(fig2), "f2.loss-of")
    assert equivalent(table, table)


def test_generated_tree_equivalent_to_reduced_shape(fig2):
    woven = weave(fig2)
    generated = synthesize(woven, "f2.loss-of")
    reduced_shape = tree_of(FTGate(GateKind.OR, (
        leaf("CPU.a"), leaf("RAM.b"),
        FTGate(GateKind.AND, (leaf("ext@f1.p1.loss-of"),
                              leaf("ext@f1.p2.loss-of"))))))
    order = table_of_network(woven, "f2.loss-of").variables
    assert equivalent(table_of_tree(generated, variables=order),
                      table_of_tree(reduced_shape, variables=order))


def test_dropping_a_disjunct_is_detected(fig2):
    woven = weave(fig2)
    generated = synthesize(woven, "f2.loss-of")
    order = table_of_tree(generated).variables
    without_b = tree_of(FTGate(GateKind.OR, (
        leaf("CPU.a"),
        FTGate(GateKind.AND, (leaf("ext@f1.p1.loss-of"),
                              leaf("ext@f1.p2.loss-of"))))))
    assert not equivalent(table_of_tree(generated, variables=order),
                          table_of_tree(without_b, variables=order))


def test_leaf_order_mismatch_rejected(fig2):
    table = table_of_network(weave(fig2), "f2.loss-of")
    other = table_of_tree(tree_of(leaf("CPU.a")))
    with pytest.raises(OracleError, match="leaf-order mismatch"):
        equivalent(table, other)


def test_identity_budget_enforced():
    wide = tree_of(FTGate(GateKind.OR, tuple(leaf(f"v{i:02d}") for i in range(25))))
    with pytest.raises(OracleError, match="identity budget exceeded"):
        table_of_tree(wide)


def test_empty_tree_table():
    with pytest.raises(OracleError, match="empty tree"):
        table_of_tree(FaultTree(root=None, top=TopEventRef("t", "t")))


def test_external_policy_pinned_false(fig2):
    # unconnected inputs are always free variables
    free = table_of_network(fig2, "f1.loss-of")
    assert free.variables == ("ext@f1.p1.loss-of", "ext@f1.p2.loss-of")
    assert free.bits == 0b1000  # AND of the two external inputs


def test_variables_must_cover_network(fig2):
    with pytest.raises(OracleError, match="do not cover"):
        table_of_network(weave(fig2), "f2.loss-of", variables=("CPU.a",))


def test_unknown_top(fig2):
    with pytest.raises(OracleError, match="unknown top event"):
        table_of_network(fig2, "f2.nope")


def test_top_event_errors():
    model = parse(
        "layer l\n\ncomponent c in l {\n  in i\n}\n\n"
        "component d in l {\n  out o1\n  out o2\n  event e\n"
        "  outfm f@o1 = e\n  outfm f@o2 = e\n}\n")
    for top, message in (("ghost.f", "unknown top event component 'ghost'"),
                         ("c.f", "component 'c' has no fault tree"),
                         ("d.f", "ambiguous top event 'd.f'")):
        with pytest.raises(OracleError) as caught:
            table_of_network(model, top)
        assert str(caught.value) == message


def test_unmatched_failure_mode():
    model = parse(
        "layer l\n\n"
        "component up in l {\n  out o\n  event e\n  outfm late@o = e\n}\n\n"
        "component down in l {\n  in i\n  infm loss-of@i\n"
        "  outfm loss-of = loss-of@i\n}\n\n"
        "connect up.o -> down.i\n")
    with pytest.raises(OracleError) as caught:
        table_of_network(model, "down.loss-of")
    assert str(caught.value) == "unmatched failure mode 'loss-of' at up.o"


def test_truth_table_over_the_identity_budget():
    with pytest.raises(OracleError) as caught:
        TruthTable(tuple(f"v{i:02d}" for i in range(25)), 0)
    assert str(caught.value) == "identity budget exceeded: 25 > 24"


def test_malformed_top_is_a_synthesis_error(vehicle):
    with pytest.raises(SynthesisError) as caught:
        table_of_network(weave(vehicle), "EBC")
    assert str(caught.value) == (
        "top event must be '<component>.<failure-mode>', got 'EBC'")


def test_table_of_cutsets_against_evaluated_dnf():
    sets = [frozenset({"a"}), frozenset({"b", "c"})]
    table = table_of_cutsets(sets)
    assert table.variables == ("a", "b", "c")
    for index in range(table.rows):
        truth = {v for bit, v in enumerate(table.variables) if index & (1 << bit)}
        assert table.verdict(index) == any(s <= truth for s in sets)


def test_network_tree_and_dnf_agree_on_sample():
    for seed in range(60):
        model, tops = genmodels.random_model(seed)
        woven = weave(model)
        for top in tops:
            t_net = table_of_network(woven, top)
            tree = synthesize(woven, top)
            t_tree = table_of_tree(tree, variables=t_net.variables)
            reduced = cutsets(tree, "reduced")
            t_dnf = table_of_cutsets([cs.identities for cs in reduced.cutsets],
                                     variables=t_net.variables)
            assert equivalent(t_net, t_tree), f"seed={seed}"
            assert equivalent(t_net, t_dnf), f"seed={seed}"


def test_verdict_bounds(fig2):
    table = table_of_network(weave(fig2), "f2.loss-of")
    with pytest.raises(OracleError, match="out of range"):
        table.verdict(table.rows)


def test_not_gate_masks():
    table = table_of_tree(tree_of(FTGate(GateKind.NOT, (leaf("x"),))))
    assert table.variables == ("x",)
    assert table.verdict(0) is True and table.verdict(1) is False


def test_propagation_cycle_message():
    model = parse(
        "layer l\n\n"
        "component a in l {\n  in i\n  out o\n  infm loss-of@i\n"
        "  outfm loss-of@o = loss-of@i\n}\n\n"
        "component b in l {\n  in i\n  out o\n  infm loss-of@i\n"
        "  outfm loss-of@o = loss-of@i\n}\n\n"
        "connect a.o -> b.i\n\nconnect b.o -> a.i\n")
    with pytest.raises(OracleError) as caught:
        table_of_network(weave(model), "a.loss-of")
    assert str(caught.value) == \
        "propagation cycle: a.loss-of@o -> b.loss-of@o -> a.loss-of@o"


def test_not_gate_network_table():
    model = parse("layer l\n\ncomponent c in l {\n  event e\n"
                  "  gate n = NOT(e)\n  outfm f = n\n}\n")
    table = table_of_network(model, "c.f")
    assert table.variables == ("c.e",)
    assert table.bits == 0b01


def deep_gate_chain(depth):
    """Gate k alternates AND and OR over gate k-1 and event y; the innermost
    input is event x.  The function is y, for every depth above 1."""
    gates = []
    below = NodeRef("x")
    for k in range(depth):
        name = f"g{k:05d}"
        kind = GateKind.OR if k % 2 else GateKind.AND
        gates.append(Gate(name, kind, (below, NodeRef("y"))))
        below = NodeRef(name)
    cft = ComponentFaultTree(events=(BasicEvent("x"), BasicEvent("y")),
                             gates=tuple(gates),
                             output_fms=(OutputFailureMode("f", None, below),))
    return ArchitectureModel(layers=("l",), components=(Component("c", "l", cft=cft),))


def test_deep_network_without_recursion():
    model = deep_gate_chain(5000)
    table = table_of_network(model, "c.f")
    assert table.variables == ("c.x", "c.y")
    assert table.bits == 0b1100


def test_deep_tree_without_recursion():
    x, y = leaf("x"), leaf("y")
    node = x
    for depth in range(5000):
        node = FTGate(GateKind.OR if depth % 2 else GateKind.AND, (node, y))
    table = table_of_tree(tree_of(node))
    assert table.variables == ("x", "y")
    assert table.bits == 0b1100


def test_deep_woven_chain_hits_the_identity_budget():
    model, top = genmodels.chain(3000)
    with pytest.raises(OracleError, match="identity budget exceeded: 25 > 24"):
        table_of_network(weave(model), top)


def test_wide_network_walk_stops_at_the_identity_budget():
    model, top = genmodels.wide(4000, GateKind.OR)
    woven = weave(model)
    # an order long enough for every leaf does not lift the budget
    variables = [f"v{k}" for k in range(8002)]

    def over_budget():
        with pytest.raises(OracleError, match=r"identity budget exceeded: 25 > 24\Z"):
            table_of_network(woven, top, variables)

    _, peak = traced_peak(over_budget)
    # resolving all 8,002 leaves and 4,000 sensor gates peaks above 5 MB,
    # an identity map of the whole model alone takes over 1 MB, and an
    # injection map over it 0.74 MB
    assert peak < 100_000
