"""Fault-tree synthesis: structure, resolution, sharing, error paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftweave import (
    AnalysisError,
    ArchitectureModel,
    BasicEvent,
    Component,
    ComponentFaultTree,
    FaultTree,
    FTBasicEvent,
    FTExternalEvent,
    FTGate,
    Gate,
    GateKind,
    InjectionSource,
    InputFailureMode,
    NodeRef,
    OracleError,
    OutputFailureMode,
    ProvenanceEntry,
    SynthesisError,
    TopEventRef,
    WovenModel,
    cutsets,
    equivalent,
    evaluate,
    parse,
    synthesize,
    table_of_network,
    table_of_tree,
    validate,
    weave,
)

import genmodels

FIG2_TREE = ("OR(OR(AND(ext@f1.p1.loss-of,ext@f1.p2.loss-of),"
             "OR(CPU.a,RAM.b),f1.loss-of),f2.loss-of)")


def test_fig2_tree_structure(fig2):
    tree = synthesize(weave(fig2), "f2.loss-of")
    assert tree.to_prefix_text() == FIG2_TREE


def test_fig2_leaf_identities(fig2):
    tree = synthesize(weave(fig2), "f2.loss-of")
    assert tree.leaf_identities() == (
        "CPU.a", "RAM.b", "ext@f1.p1.loss-of", "ext@f1.p2.loss-of")


def test_single_event_tree_is_a_leaf():
    model = parse("layer l\n\ncomponent c in l {\n  event e\n  outfm f = e\n}\n")
    tree = synthesize(weave(model), "c.f")
    assert isinstance(tree.root, FTBasicEvent)
    assert tree.to_prefix_text() == "c.e"


def test_propagation_cycle_detected():
    model = parse(
        "layer l\n\n"
        "component a in l {\n  in i\n  out o\n  infm loss-of@i\n"
        "  outfm loss-of@o = loss-of@i\n}\n\n"
        "component b in l {\n  in i\n  out o\n  infm loss-of@i\n"
        "  outfm loss-of@o = loss-of@i\n}\n\n"
        "connect a.o -> b.i\n\nconnect b.o -> a.i\n")
    with pytest.raises(SynthesisError, match="propagation cycle") as caught:
        synthesize(weave(model), "a.loss-of")
    assert str(caught.value) == \
        "propagation cycle: a.loss-of@o -> b.loss-of@o -> a.loss-of@o"


def test_gate_cycle_in_an_unvalidated_model():
    # validate reports this cycle; synthesis must still stop on it
    cft = ComponentFaultTree(
        events=(BasicEvent("e"),),
        gates=(Gate("g1", GateKind.OR, (NodeRef("g2"), NodeRef("e"))),
               Gate("g2", GateKind.AND, (NodeRef("e"), NodeRef("g1")))),
        output_fms=(OutputFailureMode("f", None, NodeRef("g1")),))
    model = ArchitectureModel(layers=("l",), components=(Component("c", "l", cft=cft),))
    for target in (model, weave(model)):
        with pytest.raises(SynthesisError) as caught:
            synthesize(target, "c.f")
        assert str(caught.value) == "propagation cycle: c:g1 -> c:g2 -> c:g1"


def test_port_loop_through_an_injected_provider_failure_mode():
    # A's output feeds its own provider P, whose output failure mode is
    # injected back into A's: the model validates, the loop shows only
    # in the woven network
    model = parse(
        "layer l\n\n"
        "component A in l {\n  out o\n  event a\n  outfm fail@o = a\n}\n\n"
        "component P in l {\n  in i\n  out o\n  infm fail@i\n"
        "  outfm fail@o = fail@i\n}\n\n"
        "connect A.o -> P.i\n\nalfred A -> P\n")
    assert validate(model).ok
    woven = weave(model)
    for top, cycle in (
            ("A.fail", "A.fail@o -> A:woven-fail-o -> P.fail@o -> A.fail@o"),
            ("P.fail", "P.fail@o -> A.fail@o -> A:woven-fail-o -> P.fail@o")):
        with pytest.raises(SynthesisError) as caught:
            synthesize(woven, top)
        assert str(caught.value) == "propagation cycle: " + cycle
        with pytest.raises(OracleError) as caught:
            table_of_network(woven, top)
        assert str(caught.value) == "propagation cycle: " + cycle


def test_unmatched_failure_mode():
    model = parse(
        "layer l\n\n"
        "component up in l {\n  out o\n  event e\n  outfm late@o = e\n}\n\n"
        "component down in l {\n  in i\n  infm loss-of@i\n"
        "  outfm loss-of = loss-of@i\n}\n\n"
        "connect up.o -> down.i\n")
    with pytest.raises(SynthesisError, match="unmatched failure mode"):
        synthesize(weave(model), "down.loss-of")


@pytest.mark.parametrize("kind, synthesis_message", [
    ("basic-event", "stale provenance: provider event 'P.gone' is missing"),
    ("output-fm", "stale provenance: provider failure mode 'P.gone' is missing"),
])
def test_stale_provenance(kind, synthesis_message):
    model = parse("layer l\n\ncomponent P in l {\n  event x\n}\n\n"
                  "component D in l {\n  infm n\n  outfm f = n\n}\n")
    woven = WovenModel(model, (ProvenanceEntry("D", "n", InjectionSource("P", kind, "gone")),))
    with pytest.raises(SynthesisError) as caught:
        synthesize(woven, "D.f")
    assert str(caught.value) == synthesis_message
    with pytest.raises(OracleError) as caught:
        table_of_network(woven, "D.f")
    assert str(caught.value) == "stale provenance: 'P.gone' missing"


def test_unresolved_node_reference_in_an_unvalidated_model():
    cft = ComponentFaultTree(output_fms=(OutputFailureMode("f", None, NodeRef("ghost")),))
    model = ArchitectureModel(layers=("l",), components=(Component("c", "l", cft=cft),))
    with pytest.raises(SynthesisError) as caught:
        synthesize(model, "c.f")
    assert str(caught.value) == "unresolved node reference 'ghost' in component 'c'"
    with pytest.raises(OracleError) as caught:
        table_of_network(model, "c.f")
    assert str(caught.value) == "unresolved node reference 'ghost' in 'c'"


def test_unconnected_input_becomes_external():
    model = parse(
        "layer l\n\ncomponent c in l {\n  in i\n  infm loss-of@i\n"
        "  outfm loss-of = loss-of@i\n}\n")
    tree = synthesize(weave(model), "c.loss-of")
    assert isinstance(tree.root, FTExternalEvent)
    assert tree.root.identity == "ext@c.i.loss-of"
    assert (tree.root.component, tree.root.port, tree.root.failure_mode) == \
        ("c", "i", "loss-of")


def test_portless_input_without_provenance_is_external():
    model = parse(
        "layer l\n\ncomponent c in l {\n  infm outside\n"
        "  outfm f = outside\n}\n")
    tree = synthesize(weave(model), "c.f")
    assert tree.root.identity == "ext@c.outside"


def test_unknown_and_ambiguous_top_events(fig2):
    woven = weave(fig2)
    with pytest.raises(SynthesisError, match="unknown top event"):
        synthesize(woven, "f2.nope")
    with pytest.raises(SynthesisError, match="unknown top event component"):
        synthesize(woven, "ghost.loss-of")
    ambiguous = parse(
        "layer l\n\ncomponent c in l {\n  out o1\n  out o2\n  event e\n"
        "  outfm f@o1 = e\n  outfm f@o2 = e\n}\n")
    with pytest.raises(SynthesisError, match="ambiguous top event"):
        synthesize(weave(ambiguous), "c.f")


@pytest.mark.parametrize("text", ["EBC", ".x", "Y.", ""])
def test_malformed_top_is_a_synthesis_error(vehicle, text):
    with pytest.raises(SynthesisError) as caught:
        synthesize(weave(vehicle), text)
    assert str(caught.value) == (
        f"top event must be '<component>.<failure-mode>', got {text!r}")


def test_empty_tree_prefix_text():
    with pytest.raises(AnalysisError, match="empty tree"):
        FaultTree(root=None, top=TopEventRef("t", "t")).to_prefix_text()


def test_top_accepts_string_or_ref(fig2):
    woven = weave(fig2)
    by_string = synthesize(woven, "f2.loss-of")
    by_ref = synthesize(woven, TopEventRef("f2", "loss-of"))
    assert by_string.to_prefix_text() == by_ref.to_prefix_text()


def test_shared_subgraph_is_one_object():
    # Diamond: D's failure reaches the top through two parallel consumers.
    model = parse(
        "layer l\n\n"
        "component D in l {\n  out o\n  event e\n  outfm loss-of@o = e\n}\n\n"
        "component L in l {\n  in i\n  out o\n  infm loss-of@i\n"
        "  outfm loss-of@o = loss-of@i\n}\n\n"
        "component R in l {\n  in i\n  out o\n  infm loss-of@i\n"
        "  outfm loss-of@o = loss-of@i\n}\n\n"
        "component T in l {\n  in i1\n  in i2\n  infm loss-of@i1\n  infm loss-of@i2\n"
        "  gate g = AND(loss-of@i1, loss-of@i2)\n  outfm loss-of = g\n}\n\n"
        "connect D.o -> L.i\n\nconnect D.o -> R.i\n\n"
        "connect L.o -> T.i1\n\nconnect R.o -> T.i2\n")
    tree = synthesize(weave(model), "T.loss-of")
    assert tree.to_prefix_text() == "AND(D.e,D.e)"
    assert len([leaf for leaf in tree.leaves() if leaf.identity == "D.e"]) == 1


def test_injected_single_leaf_keeps_identity_but_renames(vehicle):
    tree = synthesize(weave(vehicle), "EBC.no-emergency-braking")
    displays = {leaf.display: leaf.identity for leaf in tree.leaves()}
    assert displays["U1.Battery-omission"] == "B.Battery-omission"
    assert displays["U2.Battery-omission"] == "B.Battery-omission"
    assert displays["EBC.HW-defect_PartCount"] == "M.HW-defect_PartCount"
    assert displays["E.Speed-too-low"] == "E.Speed-too-low"


def test_display_collision_falls_back_to_provider_qualification():
    model = parse(
        "layer l\n\n"
        "component P1 in l {\n  event e\n  outfm fail = e\n}\n\n"
        "component P2 in l {\n  event e\n  outfm fail = e\n}\n\n"
        "component D in l {\n  event own\n  outfm out = own\n}\n\n"
        "alfred D -> P1\n\nalfred D -> P2\n")
    tree = synthesize(weave(model), "D.out")
    displays = {leaf.display: leaf.identity for leaf in tree.leaves()}
    assert displays == {"D.own": "D.own", "D.P1.fail": "P1.e", "D.P2.fail": "P2.e"}
    # the analyses read the fallback displays, not the ones they replaced
    for stage in ("pre", "reduced"):
        assert cutsets(tree, stage).lines() == ("D.P1.fail", "D.P2.fail", "D.own")
    assert evaluate(tree, {"D.own": False, "P1.e": False, "P2.e": True}) is True


def test_display_names_ambiguous_after_qualification():
    # n1 stands for P's event x and n2 for P's failure mode x, driven by
    # event y: both leaves show as D.x, and both fall back to D.P.x
    provider = Component("P", "l", cft=ComponentFaultTree(
        events=(BasicEvent("x"), BasicEvent("y")),
        output_fms=(OutputFailureMode("x", None, NodeRef("y")),)))
    dependent = Component("D", "l", cft=ComponentFaultTree(
        gates=(Gate("g", GateKind.OR, (NodeRef("n1"), NodeRef("n2"))),),
        input_fms=(InputFailureMode("n1"), InputFailureMode("n2")),
        output_fms=(OutputFailureMode("f", None, NodeRef("g")),)))
    woven = WovenModel(
        ArchitectureModel(layers=("l",), components=(provider, dependent)),
        (ProvenanceEntry("D", "n1", InjectionSource("P", "basic-event", "x")),
         ProvenanceEntry("D", "n2", InjectionSource("P", "output-fm", "x"))))
    with pytest.raises(SynthesisError) as caught:
        synthesize(woven, "D.f")
    assert str(caught.value) == \
        "display names remain ambiguous after qualification: D.P.x"


def test_cyclic_tree_rejected():
    loop = FTGate(GateKind.AND, ())
    inner = FTGate(GateKind.OR, (FTBasicEvent("a", "a"), loop))
    loop.children = (FTBasicEvent("b", "b"), inner)
    with pytest.raises(SynthesisError) as caught:
        FaultTree(root=FTGate(GateKind.OR, (loop,)), top=TopEventRef("t", "t"))
    assert str(caught.value) == "fault tree has a cycle"


def test_child_that_is_not_a_tree_node_rejected():
    with pytest.raises(SynthesisError) as caught:
        FaultTree(root=FTGate(GateKind.OR, (FTBasicEvent("a", "a"), "b")),
                  top=TopEventRef("t", "t"))
    assert str(caught.value) == "fault tree node of type str is neither a gate nor a leaf"


@pytest.mark.parametrize("gate, message", [
    (FTGate("OR", (FTBasicEvent("a", "a"),)), "fault tree gate kind 'OR' is not a GateKind"),
    (FTGate(GateKind.OR, None), "fault tree gate children of type NoneType are not a tuple"),
], ids=["kind", "children"])
def test_ill_typed_gate_field_rejected(gate, message):
    with pytest.raises(SynthesisError) as caught:
        FaultTree(root=FTGate(GateKind.AND, (gate,)), top=TopEventRef("t", "t"))
    assert str(caught.value) == message


class _Name(str):
    pass


@pytest.mark.parametrize("leaf, message", [
    (FTBasicEvent(3, None), "fault tree leaf identity 3 is not a str"),
    (FTBasicEvent("a", None), "fault tree leaf display None is not a str"),
], ids=["identity", "display"])
def test_ill_typed_leaf_field_rejected(leaf, message):
    # a leaf met twice is rejected at its first use, and a leaf root alike
    shared = FTGate(GateKind.OR, (leaf, FTBasicEvent("b", "b")))
    for root in (FTGate(GateKind.AND, (shared, leaf)), leaf):
        with pytest.raises(SynthesisError) as caught:
            FaultTree(root=root, top=TopEventRef("t", "t"))
        assert str(caught.value) == message
    # a str subclass is a str
    tree = FaultTree(root=FTBasicEvent(_Name("a"), _Name("a")), top=TopEventRef("t", "t"))
    assert tree.leaf_identities() == ("a",)


def test_deterministic(fig2):
    woven = weave(fig2)
    assert synthesize(woven, "f2.loss-of").to_prefix_text() == \
        synthesize(woven, "f2.loss-of").to_prefix_text()


def test_reparsed_woven_document_treats_injections_as_external(fig2):
    # The emitted woven document is plain model text; without the provenance
    # sidecar its injected port-less input failure modes read as external
    # failure behaviour.
    from cftweave import serialize, parse

    woven = weave(fig2)
    reparsed = parse(serialize(woven.model))
    tree = synthesize(reparsed, "f2.loss-of")
    identities = set(tree.leaf_identities())
    assert "ext@f2.from-RAM-loss-of" in identities
    assert "ext@f1.from-CPU-loss-of" in identities


def test_component_without_fault_tree_rejected():
    model = parse("layer l\n\ncomponent c in l {\n  in i\n}\n")
    with pytest.raises(SynthesisError, match="no fault tree"):
        synthesize(weave(model), "c.f")


def test_semantics_match_network_on_sample():
    for seed in range(60):
        model, tops = genmodels.random_model(seed)
        woven = weave(model)
        for top in tops:
            t_net = table_of_network(woven, top)
            tree = synthesize(woven, top)
            t_tree = table_of_tree(tree, variables=t_net.variables)
            assert equivalent(t_net, t_tree), f"seed={seed} top={top.render()}"


def test_leaf_soundness_on_sample():
    for seed in range(40):
        model, tops = genmodels.random_model(seed)
        woven = weave(model)
        known_identities = {model._identity(c.name, e.name)
                            for c in model.components if c.cft for e in c.cft.events}
        connected = {(c.to_component, c.to_port) for c in model.connections}
        for top in tops:
            tree = synthesize(woven, top)
            for leaf in tree.leaves():
                if isinstance(leaf, FTBasicEvent):
                    assert leaf.identity in known_identities
                else:
                    if leaf.port is not None:
                        assert (leaf.component, leaf.port) not in connected


def reference_prefix_text(node) -> str:
    """The prefix text by plain recursion, every occurrence rendered anew."""
    if isinstance(node, FTGate):
        return f"{node.kind.value}({','.join(map(reference_prefix_text, node.children))})"
    return node.display


@st.composite
def shared_dags(draw):
    """Fault trees whose gates draw children from all earlier nodes with a
    bias to the latest, so subtrees are shared, repeated within one gate
    and nested deeply; leaf and childless-gate roots are included."""
    pool = []
    for k in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pool.append(FTBasicEvent(identity=f"i{k}", display=f"d{k}"))
        else:
            pool.append(FTExternalEvent(component="c", port=None, failure_mode=f"x{k}",
                                        identity=f"ext@c.x{k}", display=f"ext@c.x{k}"))
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(tuple(GateKind)))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
        latest = draw(st.booleans())
        children = tuple(pool[-1] if latest and j % 2 else pool[i]
                         for j, i in enumerate(picks))
        pool.append(FTGate(kind, children))
    return FaultTree(root=pool[-1], top=TopEventRef("t", "t"))


def reachable(root) -> list:
    """Every node under *root*, each once, by plain recursion."""
    found: dict[int, object] = {}

    def visit(node):
        if id(node) not in found:
            found[id(node)] = node
            for child in getattr(node, "children", ()):
                visit(child)

    visit(root)
    return list(found.values())


@settings(max_examples=300, deadline=None)
@given(shared_dags())
def test_nodes_lists_each_reachable_node_once_children_first(tree):
    nodes = tree.nodes()
    assert len({id(n) for n in nodes}) == len(nodes)
    assert {id(n) for n in nodes} == {id(n) for n in reachable(tree.root)}
    position = {id(n): i for i, n in enumerate(nodes)}
    for node in nodes:
        for child in getattr(node, "children", ()):
            assert position[id(child)] < position[id(node)]
    assert nodes[-1] is tree.root


class TestPrefixText:
    @settings(max_examples=300, deadline=None)
    @given(shared_dags())
    def test_matches_recursive_reference(self, tree):
        assert tree.to_prefix_text() == reference_prefix_text(tree.root)
        # rendering frees nothing the tree needs: a second call agrees
        assert tree.to_prefix_text() == reference_prefix_text(tree.root)

    def test_deep_gate_chain_without_recursion(self):
        x = FTBasicEvent(identity="x", display="x")
        node = x
        for _ in range(5000):
            node = FTGate(GateKind.OR, (node, x))
        text = FaultTree(root=node, top=TopEventRef("t", "t")).to_prefix_text()
        assert text == "OR(" * 5000 + "x" + ",x)" * 5000

    @pytest.mark.parametrize("n", [1, 2, 10, 20])
    def test_lattice_text_length_in_closed_form(self, n):
        # stage 0 is "L0.e"; stage k is "OR(t,t,Lk.e)" over stage k-1's text t
        model, top = genmodels.lattice(n)
        tree = synthesize(weave(model), top)
        assert len(tree.nodes()) == 2 * n - 1
        expected = 2 ** (n - 1) * len("L0.e") + sum(
            2 ** (n - 1 - k) * len(f"OR(,,L{k}.e)") for k in range(1, n))
        text = tree.to_prefix_text()
        assert len(text) == expected
        if n <= 10:
            assert len(text) == 14 * 2 ** (n - 1) - 10
        if n == 20:
            assert len(text) == 7_341_045

    def test_chain_text_in_closed_form(self):
        model, top = genmodels.chain(60)
        expected = "C0.e"
        for k in range(60):
            if k:
                expected = f"OR({expected},C{k}.e)"
            expected = f"OR({expected},C{k}.Battery-omission,C{k}.Battery-too-low)"
        assert synthesize(weave(model), top).to_prefix_text() == expected
