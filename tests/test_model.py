"""Domain model validation and dependency lookups."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftweave import (
    AlfredDependency,
    ArchitectureModel,
    BasicEvent,
    CommonCause,
    Component,
    ComponentFaultTree,
    EventRef,
    FaultTree,
    Gate,
    GateKind,
    InputFailureMode,
    ModelError,
    NodeRef,
    OutputFailureMode,
    ParseError,
    PortConnection,
    Severity,
    TopEventRef,
    fixture_names,
    fixture_text,
    parse,
    serialize,
    synthesize,
    validate,
    weave,
)

import genmodels


def codes(report):
    return [f.code for f in report.findings]


class TestValidate:
    def test_fig2_clean_with_port_warnings(self, fig2):
        report = validate(fig2)
        assert report.ok
        assert [(f.severity, f.code, f.element) for f in report.findings] == [
            (Severity.WARNING, "unconnected-in-port", "f1.p1"),
            (Severity.WARNING, "unconnected-in-port", "f1.p2"),
        ]

    def test_empty_model(self):
        report = validate(ArchitectureModel())
        assert not report.ok
        assert set(codes(report)) == {"no-layers", "no-components"}

    def test_dependency_cycle(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("x", "l"), Component("y", "l")),
            dependencies=(AlfredDependency("x", "y"), AlfredDependency("y", "x")),
        )
        report = validate(model)
        finding = next(f for f in report.findings if f.code == "dependency-cycle")
        assert "x" in finding.message and "y" in finding.message

    def test_self_dependency(self):
        model = parse("layer l\n\ncomponent f1 in l {\n  event e\n}\n\nalfred f1 -> f1\n")
        assert "self-dependency" in codes(validate(model))

    def test_duplicate_dependency(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("x", "l"),
                        Component("y", "l", cft=ComponentFaultTree(
                            events=(BasicEvent("e"),)))),
            dependencies=(AlfredDependency("x", "y"), AlfredDependency("x", "y")),
        )
        assert "duplicate-dependency" in codes(validate(model))

    def test_gate_arity(self):
        cft = ComponentFaultTree(
            events=(BasicEvent("a"), BasicEvent("b")),
            gates=(Gate("n", GateKind.NOT, (NodeRef("a"), NodeRef("b"))),),
        )
        model = ArchitectureModel(layers=("l",),
                                  components=(Component("c", "l", cft=cft),))
        assert "gate-arity" in codes(validate(model))

    def test_gate_without_inputs(self):
        cft = ComponentFaultTree(gates=(Gate("g", GateKind.AND, ()),))
        model = ArchitectureModel(layers=("l",),
                                  components=(Component("c", "l", cft=cft),))
        assert validate(model).render_lines() == (
            "error[gate-arity] c.g: AND needs at least 1 input",)

    def test_cft_gate_cycle(self):
        cft = ComponentFaultTree(
            gates=(Gate("g1", GateKind.OR, (NodeRef("g2"),)),
                   Gate("g2", GateKind.OR, (NodeRef("g1"),))),
        )
        model = ArchitectureModel(layers=("l",),
                                  components=(Component("c", "l", cft=cft),))
        assert "cft-cycle" in codes(validate(model))

    def test_cft_gate_cycle_next_to_a_duplicate_gate(self):
        # g is declared twice; it is one node to the cycle check, so h and
        # k still form a cycle (only object-API models reach this: parse
        # rejects the duplicate first)
        cft = ComponentFaultTree(
            events=(BasicEvent("e"),),
            gates=(Gate("g", GateKind.OR, (NodeRef("e"),)),
                   Gate("g", GateKind.OR, (NodeRef("h"),)),
                   Gate("h", GateKind.OR, (NodeRef("k"),)),
                   Gate("k", GateKind.OR, (NodeRef("h"),))),
        )
        model = ArchitectureModel(layers=("l",),
                                  components=(Component("c", "l", cft=cft),))
        assert validate(model).render_lines() == (
            "error[duplicate-node] c.g: name already used by a gate",
            "error[cft-cycle] c: gates form a cycle: h, k")

    def test_dependency_cycle_next_to_a_duplicate_component(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("x", "l"), Component("x", "l"),
                        Component("y", "l"), Component("z", "l")),
            dependencies=(AlfredDependency("x", "y"), AlfredDependency("y", "z"),
                          AlfredDependency("z", "y")),
        )
        assert validate(model).render_lines() == (
            "error[duplicate-component] x: component declared twice",
            "error[dependency-cycle] model: components in dependency cycle: y, z",
            "warning[provider-no-cft] y: dependency provider has no fault tree",
            "warning[provider-no-cft] z: dependency provider has no fault tree")

    def test_port_collision(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("c", "l", in_ports=("p",), out_ports=("p",)),))
        assert "port-collision" in codes(validate(model))

    def test_failure_mode_port_direction(self):
        # input failure modes come before output ones, each in canonical order
        cft = ComponentFaultTree(
            events=(BasicEvent("e"),),
            input_fms=(InputFailureMode("late", "x"), InputFailureMode("fm", "o")),
            output_fms=(OutputFailureMode("late", "y", NodeRef("e")),
                        OutputFailureMode("fm", "i", NodeRef("e"))),
        )
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("c", "l", in_ports=("i",), out_ports=("o",), cft=cft),))
        assert validate(model).render_lines() == (
            "error[wrong-port-direction] c.fm@o: input failure mode bound to out-port 'o'",
            "error[unknown-port] c.late@x: port 'x' is not declared",
            "error[wrong-port-direction] c.fm@i: output failure mode bound to in-port 'i'",
            "error[unknown-port] c.late@y: port 'y' is not declared",
            "warning[unconnected-in-port] c.i: in-port has no incoming connection")

    def test_failure_modes_on_a_port_declared_both_ways(self):
        # a port in both directions is found in each failure mode's own
        # direction, yet still reported as bound to the other one
        cft = ComponentFaultTree(
            events=(BasicEvent("e"),),
            input_fms=(InputFailureMode("fm", "p"),),
            output_fms=(OutputFailureMode("fm", "p", NodeRef("e")),),
        )
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("c", "l", in_ports=("p",), out_ports=("p",), cft=cft),))
        lines = validate(model).render_lines()
        assert [line for line in lines if line.startswith("error")] == [
            "error[port-collision] c.p: port name used more than once",
            "error[wrong-port-direction] c.fm@p: input failure mode bound to out-port 'p'",
            "error[wrong-port-direction] c.fm@p: output failure mode bound to in-port 'p'"]

    def test_unknown_node_reference(self):
        cft = ComponentFaultTree(
            output_fms=(OutputFailureMode("fm", None, NodeRef("ghost")),))
        model = ArchitectureModel(layers=("l",),
                                  components=(Component("c", "l", cft=cft),))
        assert "unknown-node-ref" in codes(validate(model))

    def test_connection_endpoint_checks(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("a", "l", out_ports=("o",)),
                        Component("b", "l", in_ports=("i",))),
            connections=(PortConnection("a", "o", "b", "i"),
                         PortConnection("a", "o", "ghost", "i"),
                         PortConnection("a", "x", "b", "i"),
                         PortConnection("b", "i", "a", "o"),
                         # a wrong-direction end on each side, the other end undeclared
                         PortConnection("b", "i", "ghost", "i"),
                         PortConnection("ghost", "o", "a", "o")),
        )
        # each connection reports its source end, then its target end
        assert validate(model).render_lines() == (
            "error[unknown-component] a.o -> ghost.i: target component 'ghost' is not declared",
            "error[unknown-port] a.x -> b.i: source port 'a.x' is not declared",
            "error[wrong-port-direction] b.i -> a.o: source port 'b.i' has the wrong direction",
            "error[wrong-port-direction] b.i -> a.o: target port 'a.o' has the wrong direction",
            "error[wrong-port-direction] b.i -> ghost.i: source port 'b.i' has the wrong direction",
            "error[unknown-component] b.i -> ghost.i: target component 'ghost' is not declared",
            "error[unknown-component] ghost.o -> a.o: source component 'ghost' is not declared",
            "error[wrong-port-direction] ghost.o -> a.o: target port 'a.o' has the wrong direction",
            "error[inport-multiple-connections] a.o: in-port has 2 incoming connections",
            "error[inport-multiple-connections] b.i: in-port has 2 incoming connections",
            "error[inport-multiple-connections] ghost.i: in-port has 2 incoming connections")

    def test_inport_multiple_connections(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("a", "l", out_ports=("o1", "o2")),
                        Component("b", "l", in_ports=("i",))),
            connections=(PortConnection("a", "o1", "b", "i"),
                         PortConnection("a", "o2", "b", "i")),
        )
        assert "inport-multiple-connections" in codes(validate(model))

    def test_provider_without_cft_warns(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("hw", "l"),
                        Component("sw", "l", cft=ComponentFaultTree(
                            events=(BasicEvent("e"),),
                            output_fms=(OutputFailureMode("fm", None, NodeRef("e")),)))),
            dependencies=(AlfredDependency("sw", "hw"),),
        )
        report = validate(model)
        assert report.ok
        assert [(f.code, f.element) for f in report.findings
                if f.severity is Severity.WARNING] == [("provider-no-cft", "hw")]

    def test_common_cause_on_undeclared_component(self):
        cft = ComponentFaultTree(events=(BasicEvent("e"),))
        model = ArchitectureModel(
            layers=("l",), components=(Component("c", "l", cft=cft),),
            common_causes=(CommonCause(EventRef("c", "e"), EventRef("ghost", "e")),))
        assert validate(model).render_lines() == (
            "error[unknown-event] ghost.e: component 'ghost' is not declared",)

    def test_bad_identifier(self):
        # the object API admits any string, so validate checks every kind of
        # name; parse's grammar admits legal names only
        cft = ComponentFaultTree(
            events=(BasicEvent("e.1"),),
            gates=(Gate("g 1", GateKind.OR, (NodeRef("e.1"),)),),
            input_fms=(InputFailureMode("i@1", "p.1"),),
            output_fms=(OutputFailureMode("", "o", NodeRef("g 1")),))
        model = ArchitectureModel(layers=("l.1",), components=(
            Component("a.b", "l.1", in_ports=("p.1",), out_ports=("o",), cft=cft),))
        assert [line for line in validate(model).render_lines()
                if "[bad-identifier]" in line] == [
            "error[bad-identifier] l.1: layer name 'l.1' is not a legal identifier",
            "error[bad-identifier] a.b: component name 'a.b' is not a legal identifier",
            "error[bad-identifier] a.b.p.1: port name 'p.1' is not a legal identifier",
            "error[bad-identifier] a.b.e.1: event name 'e.1' is not a legal identifier",
            "error[bad-identifier] a.b.g 1: gate name 'g 1' is not a legal identifier",
            "error[bad-identifier] a.b.i@1@p.1: "
            "input failure mode name 'i@1' is not a legal identifier",
            "error[bad-identifier] a.b.@o: output failure mode name '' is not a legal identifier",
        ]

    def test_duplicate_component(self):
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("c", "l"), Component("c", "l")))
        assert "duplicate-component" in codes(validate(model))

    def test_deterministic(self, vehicle):
        assert validate(vehicle) == validate(vehicle)

    def test_vehicle_has_no_findings(self, vehicle):
        assert validate(vehicle).findings == ()


def identity_map(model):
    """Each (component, event) of the model, to its event identity."""
    return {(c.name, e.name): model._identity(c.name, e.name)
            for c in model.components if c.cft
            for e in c.cft.events}


class TestIdentity:
    def test_default_identity_is_owner_qualified(self, fig2):
        assert fig2._identity("CPU", "a") == "CPU.a"

    def test_alias_collapses_to_smallest_member(self):
        model = parse(
            "layer l\n\n"
            "component a in l {\n  event e\n  outfm f = e\n}\n\n"
            "component b in l {\n  event e\n  outfm f = e\n}\n\n"
            "common-cause b.e = a.e\n")
        assert model._identity("a", "e") == "a.e"
        assert model._identity("b", "e") == "a.e"


def duplicates_model():
    """A model only the object API can build: duplicate components,
    connections into one in-port, dependencies and CFT nodes, and bare
    names shared between an event, a gate and a port-less input."""
    cft_a = ComponentFaultTree(
        events=(BasicEvent("e"), BasicEvent("e"), BasicEvent("k")),
        gates=(Gate("g", GateKind.OR, (NodeRef("e"), NodeRef("x", "i"))),
               Gate("g", GateKind.AND, (NodeRef("e"),)),
               Gate("e", GateKind.OR, (NodeRef("k"),)),
               Gate("h", GateKind.OR, (NodeRef("e"), NodeRef("p")))),
        input_fms=(InputFailureMode("x", "i"), InputFailureMode("x", "i"),
                   InputFailureMode("g", None), InputFailureMode("p", None),
                   InputFailureMode("p", None)),
        output_fms=(OutputFailureMode("f", "o", NodeRef("g")),
                    OutputFailureMode("f", "o", NodeRef("e")),
                    OutputFailureMode("f", None, NodeRef("h"))))
    cft_a2 = ComponentFaultTree(events=(BasicEvent("e2"),),
                                output_fms=(OutputFailureMode("f", "o", NodeRef("e2")),))
    cft_b = ComponentFaultTree(
        events=(BasicEvent("e"),),
        input_fms=(InputFailureMode("f", "i"),),
        output_fms=(OutputFailureMode("f", None, NodeRef("f", "i")),))
    cft_d = ComponentFaultTree(
        events=(BasicEvent("e"), BasicEvent("e")),
        gates=(Gate("g", GateKind.OR, (NodeRef("e"),)), Gate("e", GateKind.AND, (NodeRef("e"),))),
        input_fms=(InputFailureMode("x", "i"), InputFailureMode("x", "i"),
                   InputFailureMode("g", None)),
        output_fms=(OutputFailureMode("f", None, NodeRef("g")),))
    return ArchitectureModel(
        layers=("l",),
        components=(Component("a", "l", in_ports=("i",), out_ports=("o",), cft=cft_a),
                    Component("b", "l", in_ports=("i",), cft=cft_b),
                    Component("a", "l", out_ports=("o",), cft=cft_a2),
                    Component("c", "l", out_ports=("o",)),
                    Component("d", "l", in_ports=("i",), cft=cft_d)),
        connections=(PortConnection("c", "o", "b", "i"),
                     PortConnection("a", "o", "b", "i"),
                     PortConnection("a", "o", "b", "i")),
        dependencies=(AlfredDependency("b", "c"), AlfredDependency("b", "a"),
                      AlfredDependency("b", "a")),
        common_causes=(CommonCause(EventRef("b", "e"), EventRef("a", "e")),))


# Linear scans over the canonical tuples: the lookup rules the indexes keep.
def scan_component(model, name):
    return next((c for c in model.components if c.name == name), None)


def scan_connection_into(model, component, port):
    return next((c for c in model.connections
                 if c.to_component == component and c.to_port == port), None)


def scan_resolve(cft, ref):
    if ref.port is not None:
        return next((i for i in cft.input_fms
                     if i.name == ref.name and i.port == ref.port), None)
    for node in (*cft.events, *cft.gates):
        if node.name == ref.name:
            return node
    return next((i for i in cft.input_fms
                 if i.name == ref.name and i.port is None), None)


# Object-API fault trees whose names repeat within and across events, gates,
# port-less and port-bound input failure modes and output failure modes.
# Repeats are distinct objects (other gate kinds and inputs, other drivers),
# so an identity check tells which one a lookup returned.
_NAMES = st.sampled_from(("a", "b", "c"))
_PORTS = st.sampled_from((None, "p", "q"))
_REFS = st.builds(NodeRef, _NAMES, _PORTS)
_CFTS = st.builds(
    ComponentFaultTree,
    events=st.lists(st.builds(BasicEvent, _NAMES), max_size=4).map(tuple),
    gates=st.lists(st.builds(Gate, _NAMES, st.sampled_from(list(GateKind)),
                             st.lists(_REFS, max_size=2).map(tuple)), max_size=4).map(tuple),
    input_fms=st.lists(st.builds(InputFailureMode, _NAMES, _PORTS), max_size=5).map(tuple),
    output_fms=st.lists(st.builds(OutputFailureMode, _NAMES, _PORTS, _REFS),
                        max_size=4).map(tuple))


class TestIndexes:
    @settings(max_examples=300, deadline=None)
    @given(_CFTS)
    def test_lookups_match_a_linear_scan(self, cft):
        for name in ("a", "b", "c", "ghost"):
            assert cft.event(name) is next((e for e in cft.events if e.name == name), None)
            for port in (None, "p", "q", "ghost"):
                ref = NodeRef(name, port)
                assert cft.resolve(ref) is scan_resolve(cft, ref)
                assert cft.output_fm(name, port) is next(
                    (o for o in cft.output_fms if (o.name, o.port) == (name, port)), None)

    def test_lookups_return_first_match_in_canonical_order(self):
        model = duplicates_model()
        for name in ("a", "b", "c", "ghost"):
            assert model.has_component(name) is (scan_component(model, name) is not None)
            if name != "ghost":
                assert model.component(name) is scan_component(model, name)
        with pytest.raises(ModelError, match="unknown component 'ghost'"):
            model.component("ghost")
        assert model.component("a").cft.events[0].name == "e"
        for component, port in (("b", "i"), ("a", "i"), ("ghost", "i")):
            assert model.connection_into(component, port) is \
                scan_connection_into(model, component, port)
        assert model.connection_into("b", "i").from_component == "a"
        assert model.providers_of("b") == ("a", "a", "c")
        assert model.providers_of("a") == ()

        names = ("e", "g", "h", "k", "p", "x", "f", "ghost")
        for cft in (c.cft for c in model.components if c.cft is not None):
            for name in names:
                assert cft.event(name) is next(
                    (e for e in cft.events if e.name == name), None)
                assert cft._nodes.get(name) is scan_resolve(cft, NodeRef(name))
                for port in ("i", "o"):
                    assert cft._nodes.get(("in", name, port)) is next(
                        (i for i in cft.input_fms if (i.name, i.port) == (name, port)), None)
                for port in (None, "i", "o"):
                    assert cft.output_fm(name, port) is next(
                        (o for o in cft.output_fms if (o.name, o.port) == (name, port)), None)
                    ref = NodeRef(name, port)
                    assert cft.resolve(ref) is scan_resolve(cft, ref)
        small = model.component("d").cft
        assert isinstance(small.resolve(NodeRef("e")), BasicEvent)
        # g is a gate and a port-less input failure mode: the gate shadows it
        assert small.resolve(NodeRef("g")) is small.gates[1]
        assert small.input_fms[0] == InputFailureMode("g")
        assert small.resolve(NodeRef("x", "i")) is small.input_fms[1]
        assert small.event("g") is None
        # two bare names, a port-bound input and an output: four entries
        # against eight declarations
        assert sorted(map(str, small._nodes)) == [
            "('in', 'x', 'i')", "('out', 'f', None)", "e", "g"]
        assert sum(map(len, (small.events, small.gates, small.input_fms,
                             small.output_fms))) == 8

        cft = model.component("a").cft
        assert isinstance(cft.resolve(NodeRef("e")), BasicEvent)
        assert isinstance(cft.resolve(NodeRef("g")), Gate)
        assert cft.resolve(NodeRef("g")).kind is GateKind.OR
        assert isinstance(cft.resolve(NodeRef("p")), InputFailureMode)
        assert cft.output_fm("f", "o").driver == NodeRef("g")

    def test_validate_findings_unchanged(self):
        assert validate(duplicates_model()).render_lines() == (
            "error[duplicate-node] a.e: name already used by a basic event",
            "error[duplicate-node] a.e: name already used by a basic event",
            "error[duplicate-node] a.g: name already used by a gate",
            "error[duplicate-node] a.g: name already used by a gate",
            "error[duplicate-failure-mode] a.p: input failure mode declared twice",
            "error[duplicate-node] a.p: name already used by a port-less input failure mode",
            "error[duplicate-failure-mode] a.x@i: input failure mode declared twice",
            "error[duplicate-failure-mode] a.f@o: output failure mode declared twice",
            "error[duplicate-component] a: component declared twice",
            "error[duplicate-node] d.e: name already used by a basic event",
            "error[duplicate-node] d.e: name already used by a basic event",
            "error[duplicate-node] d.g: name already used by a gate",
            "error[duplicate-failure-mode] d.x@i: input failure mode declared twice",
            "error[duplicate-connection] a.o -> b.i: connection declared twice",
            "error[inport-multiple-connections] b.i: in-port has 3 incoming connections",
            "error[duplicate-dependency] b -> a: dependency declared twice",
            "warning[unconnected-in-port] a.i: in-port has no incoming connection",
            "warning[unconnected-in-port] d.i: in-port has no incoming connection",
            "warning[provider-no-cft] c: dependency provider has no fault tree",
        )

    def test_identities_with_duplicates(self):
        model = duplicates_model()
        assert identity_map(model) == {
            ("a", "e"): "a.e", ("a", "k"): "a.k", ("a", "e2"): "a.e2", ("b", "e"): "a.e",
            ("d", "e"): "d.e"}

    def test_repr_shows_no_index(self, fig2):
        indexes = {cls: [f.name for f in dataclasses.fields(cls) if f.name.startswith("_")]
                   for cls in (ArchitectureModel, ComponentFaultTree, FaultTree)}
        assert indexes[ComponentFaultTree] == ["_nodes"]
        tree = synthesize(weave(fig2), "f2.loss-of")
        for obj in (fig2, fig2.component("f1").cft, tree):
            for name in indexes[type(obj)]:
                assert name not in repr(obj)
        assert repr(ComponentFaultTree()) == \
            "ComponentFaultTree(events=(), gates=(), input_fms=(), output_fms=())"
        assert repr(FaultTree(root=None, top=TopEventRef("t", "t"))) == \
            "FaultTree(root=None, top=TopEventRef(component='t', failure_mode='t'))"

    def test_equality_and_hash_ignore_the_indexes(self, fig2):
        for obj in (fig2, fig2.component("f1").cft):
            blank = dataclasses.replace(obj)
            for f in dataclasses.fields(obj):
                if f.name.startswith("_"):
                    assert not f.init and not f.repr and not f.compare
                    object.__setattr__(blank, f.name, None)
            assert blank == obj and hash(blank) == hash(obj)

    def test_declaration_order_does_not_matter(self, vehicle):
        def flip(cft):
            if cft is None:
                return None
            return ComponentFaultTree(
                events=cft.events[::-1], gates=cft.gates[::-1],
                input_fms=cft.input_fms[::-1], output_fms=cft.output_fms[::-1])

        flipped = ArchitectureModel(
            layers=vehicle.layers[::-1],
            components=tuple(dataclasses.replace(c, cft=flip(c.cft))
                             for c in reversed(vehicle.components)),
            connections=vehicle.connections[::-1],
            dependencies=vehicle.dependencies[::-1],
            common_causes=vehicle.common_causes[::-1])
        assert flipped == vehicle
        assert hash(flipped) == hash(vehicle)
        assert identity_map(flipped) == identity_map(vehicle)
        for comp in vehicle.components:
            assert flipped.component(comp.name) == comp
            assert hash(flipped.component(comp.name).cft) == hash(comp.cft)

    @pytest.mark.parametrize("collection", [list, iter])
    def test_cft_members_are_tuples_however_passed(self, collection):
        # members of zero, one and two, so a short member skips no conversion
        e, ifm = BasicEvent("e"), InputFailureMode("f")
        ofms = (OutputFailureMode("o", None, NodeRef("e")),
                OutputFailureMode("a", None, NodeRef("f")))
        cft = ComponentFaultTree(events=collection([e]), gates=collection([]),
                                 input_fms=collection([ifm]), output_fms=collection(ofms))
        assert (cft.events, cft.gates, cft.input_fms, cft.output_fms) == (
            (e,), (), (ifm,), ofms[::-1])
        assert hash(cft) == hash(ComponentFaultTree(events=(e,), input_fms=(ifm,),
                                                    output_fms=ofms))
        assert cft.resolve(NodeRef("f")) is ifm

    def test_replace_rebuilds_indexes(self, fig2):
        extra = Component("extra", "hw", cft=ComponentFaultTree(
            events=(BasicEvent("z"),),
            output_fms=(OutputFailureMode("fail", None, NodeRef("z")),)))
        bigger = dataclasses.replace(fig2, components=fig2.components + (extra,),
                                     dependencies=(AlfredDependency("f2", "extra"),
                                                   AlfredDependency("extra", "RAM")))
        assert bigger.component("extra") is extra
        # direct providers only: f2 -> extra -> RAM does not make RAM one of f2's
        assert bigger.providers_of("f2") == ("extra",)
        assert bigger.providers_of("extra") == ("RAM",)
        assert bigger.providers_of("f1") == ()
        assert bigger._identity("extra", "z") == "extra.z"
        assert not fig2.has_component("extra")
        cft = fig2.component("CPU").cft
        renamed = dataclasses.replace(cft, events=(BasicEvent("b"),))
        assert renamed.event("a") is None and renamed.event("b") is not None
        assert cft.event("a") is not None

    def test_only_parse_leaves_a_report(self, fig2):
        text = serialize(fig2)
        parsed = parse(text)
        assert parsed._report == validate(fig2)
        assert validate(parsed) is parsed._report
        # outside eq, hash and repr, like the indexes
        assert parsed == fig2 and hash(parsed) == hash(fig2)
        assert "_report" not in repr(parsed)
        assert dataclasses.replace(parsed)._report is None
        assert ArchitectureModel(layers=parsed.layers, components=parsed.components,
                                 connections=parsed.connections)._report is None


# A clean document: only its two unconnected in-ports draw warnings.
CLEAN = """\
layer hw
layer sw

component B in hw {
  out p
  event low
  outfm drop@p = low
}

component S in sw {
  in i
  out o
  event e
  gate g = OR(e, fail@i, x)
  infm fail@i
  infm x
  outfm fail@o = g
}

component T in sw {
  in i
  in j
  gate top = AND(fail@i)
  infm fail@i
  outfm loss = top
}

connect S.o -> T.i
alfred S -> B
"""
WARNINGS = ("warning[unconnected-in-port] S.i: in-port has no incoming connection",
            "warning[unconnected-in-port] T.j: in-port has no incoming connection")


def _insert(line_number, line):
    """CLEAN with *line* inserted so that it becomes line *line_number*."""
    lines = CLEAN.split("\n")
    return "\n".join(lines[:line_number - 1] + [line] + lines[line_number - 1:])


def _with_s(model, out_ports=(), **cft_extra):
    """*model* with declarations added to component S through the object API."""
    s = model.component("S")
    s = dataclasses.replace(s, out_ports=s.out_ports + out_ports, cft=dataclasses.replace(
        s.cft, **{field: getattr(s.cft, field) + extra for field, extra in cft_extra.items()}))
    return dataclasses.replace(model, components=tuple(
        s if c.name == "S" else c for c in model.components))


def _extend(model, **extra):
    return dataclasses.replace(model, **{
        field: getattr(model, field) + more for field, more in extra.items()})


# One collision per namespace that validate skips while its index is as
# long as its declarations: the document that parse rejects, the same
# collision made through the object API, the findings of validate, and
# parse's located error (message, line, column, token).
GUARDS = {
    "layer": (
        _insert(3, "layer sw"), lambda m: _extend(m, layers=("sw",)),
        ("error[duplicate-layer] sw: layer declared twice",),
        ("duplicate declaration of layer 'sw'", 3, 7, "sw")),
    "component": (
        CLEAN + "\ncomponent B in sw {\n}\n",
        lambda m: _extend(m, components=(Component("B", "sw"),)),
        ("error[duplicate-component] B: component declared twice",),
        ("duplicate declaration of component 'B'", 31, 11, "B")),
    "port": (
        _insert(12, "  out i"), lambda m: _with_s(m, out_ports=("i",)),
        ("error[port-collision] S.i: port name used more than once",
         "error[wrong-port-direction] S.fail@i: input failure mode bound to out-port 'i'"),
        ("duplicate declaration of port 'S.i'", 12, 7, "i")),
    "event-then-gate": (
        _insert(13, "  event g"), lambda m: _with_s(m, events=(BasicEvent("g"),)),
        ("error[duplicate-node] S.g: name already used by a basic event",),
        ("duplicate declaration of node 'S.g'", 15, 8, "g")),
    "event-then-portless-input": (
        _insert(13, "  event x"), lambda m: _with_s(m, events=(BasicEvent("x"),)),
        ("error[duplicate-node] S.x: name already used by a basic event",),
        ("duplicate declaration of node 'S.x'", 17, 8, "x")),
    "gate-then-portless-input": (
        _insert(14, "  gate x = AND(e)"),
        lambda m: _with_s(m, gates=(Gate("x", GateKind.AND, (NodeRef("e"),)),)),
        ("error[duplicate-node] S.x: name already used by a gate",),
        ("duplicate declaration of node 'S.x'", 17, 8, "x")),
    "input-failure-mode": (
        _insert(16, "  infm fail@i"),
        lambda m: _with_s(m, input_fms=(InputFailureMode("fail", "i"),)),
        ("error[duplicate-failure-mode] S.fail@i: input failure mode declared twice",),
        ("duplicate declaration of input failure mode 'S.fail'", 16, 8, "fail")),
    "output-failure-mode": (
        _insert(17, "  outfm fail@o = e"),
        lambda m: _with_s(m, output_fms=(OutputFailureMode("fail", "o", NodeRef("e")),)),
        ("error[duplicate-failure-mode] S.fail@o: output failure mode declared twice",),
        ("duplicate declaration of output failure mode 'S.fail'", 18, 9, "fail")),
    "connection": (
        CLEAN + "connect S.o -> T.i\n",
        lambda m: _extend(m, connections=(PortConnection("S", "o", "T", "i"),)),
        ("error[duplicate-connection] S.o -> T.i: connection declared twice",
         "error[inport-multiple-connections] T.i: in-port has 2 incoming connections"),
        ("duplicate declaration of connection S.o -> T.i", 30, 1, "connect")),
    # parse rejects no fan-in; its report holds the finding
    "in-port-fan-in": (
        CLEAN + "connect B.p -> T.i\n",
        lambda m: _extend(m, connections=(PortConnection("B", "p", "T", "i"),)),
        ("error[inport-multiple-connections] T.i: in-port has 2 incoming connections",),
        None),
    "dependency": (
        CLEAN + "alfred S -> B\n",
        lambda m: _extend(m, dependencies=(AlfredDependency("S", "B"),)),
        ("error[duplicate-dependency] S -> B: dependency declared twice",),
        ("duplicate declaration of dependency S -> B", 30, 1, "alfred")),
}


class TestDuplicateGuards:
    def test_clean_document_draws_only_warnings(self):
        assert validate(parse(CLEAN)).render_lines() == WARNINGS
        assert validate(dataclasses.replace(parse(CLEAN))).render_lines() == WARNINGS

    @pytest.mark.parametrize("case", GUARDS)
    def test_one_collision_is_found(self, case):
        text, collide, errors, located = GUARDS[case]
        expected = errors + WARNINGS
        assert validate(collide(parse(CLEAN))).render_lines() == expected
        if located is None:
            assert validate(parse(text)).render_lines() == expected
            return
        with pytest.raises(ParseError) as err:
            parse(text)
        e = err.value
        assert (e.message, e.line, e.column, e.token) == located


def assert_parse_report_is_fresh(text):
    # parse skips the legal-name pattern, whose names its grammar already
    # admitted; a replace copy is checked afresh, names included
    parsed = parse(text)
    assert validate(dataclasses.replace(parsed)) == parsed._report


@pytest.mark.parametrize("name", fixture_names())
def test_parse_report_matches_a_fresh_validate(name):
    assert_parse_report_is_fresh(fixture_text(name))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_parse_report_matches_a_fresh_validate_on_random_models(seed):
    assert_parse_report_is_fresh(
        serialize(genmodels.random_model(seed, allow_not=seed % 2 == 0)[0]))


class _CountingName(str):
    """A port name that counts its equality and order comparisons."""

    calls = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        _CountingName.calls += 1
        return str.__eq__(self, other)

    def __lt__(self, other):
        _CountingName.calls += 1
        return str.__lt__(self, other)


def with_counting_ports(model):
    """The model rebuilt with every port name a fresh :class:`_CountingName`."""

    def port(name):
        return None if name is None else _CountingName(name)

    def ref(r):
        return NodeRef(r.name, port(r.port))

    components = []
    for c in model.components:
        cft = c.cft and ComponentFaultTree(
            events=c.cft.events,
            gates=tuple(Gate(g.name, g.kind, tuple(map(ref, g.inputs))) for g in c.cft.gates),
            input_fms=tuple(InputFailureMode(i.name, port(i.port)) for i in c.cft.input_fms),
            output_fms=tuple(OutputFailureMode(o.name, port(o.port), ref(o.driver))
                             for o in c.cft.output_fms))
        components.append(Component(c.name, c.layer, tuple(map(port, c.in_ports)),
                                    tuple(map(port, c.out_ports)), cft))
    connections = tuple(PortConnection(c.from_component, port(c.from_port),
                                       c.to_component, port(c.to_port))
                        for c in model.connections)
    return dataclasses.replace(model, components=tuple(components), connections=connections)


def test_validate_compares_port_names_in_linear_time():
    counts = []
    for n in (1000, 4000):
        model = with_counting_ports(genmodels.wide(n, GateKind.OR)[0])
        _CountingName.calls = 0
        assert validate(model).ok
        counts.append(_CountingName.calls)
    # n log n binary searches grow about 4.8x per 4x of n; tuple scans 16x
    assert counts[1] <= 5 * counts[0]
