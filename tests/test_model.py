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
    Gate,
    GateKind,
    InputFailureMode,
    ModelError,
    NodeRef,
    OutputFailureMode,
    PortConnection,
    Severity,
    fixture_names,
    fixture_text,
    parse,
    serialize,
    validate,
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
        cft = ComponentFaultTree(
            events=(BasicEvent("e"),),
            input_fms=(InputFailureMode("fm", "o"),),
            output_fms=(OutputFailureMode("fm", "i", NodeRef("e")),),
        )
        model = ArchitectureModel(
            layers=("l",),
            components=(Component("c", "l", in_ports=("i",), out_ports=("o",), cft=cft),))
        report = validate(model)
        assert codes(report).count("wrong-port-direction") == 2

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
                         PortConnection("b", "i", "a", "o")),
        )
        report = validate(model)
        assert "unknown-component" in codes(report)
        assert "unknown-port" in codes(report)
        assert codes(report).count("wrong-port-direction") == 2
        assert "inport-multiple-connections" in codes(report)

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


class TestIndexes:
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
                assert cft._nodes.get(("gate", name, None)) is next(
                    (g for g in cft.gates if g.name == name), None)
                for port in (None, "i", "o"):
                    assert cft._nodes.get(("in", name, port)) is next(
                        (i for i in cft.input_fms if (i.name, i.port) == (name, port)), None)
                    assert cft.output_fm(name, port) is next(
                        (o for o in cft.output_fms if (o.name, o.port) == (name, port)), None)
                    ref = NodeRef(name, port)
                    assert cft.resolve(ref) is scan_resolve(cft, ref)
        small = model.component("d").cft
        assert isinstance(small.resolve(NodeRef("e")), BasicEvent)
        assert small._nodes["gate", "e", None].kind is GateKind.AND
        assert small._nodes["in", "g", None] is small.input_fms[0]
        assert small.resolve(NodeRef("x", "i")) is small.input_fms[1]

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
        for text in (repr(fig2), repr(fig2.component("f1").cft)):
            assert "_components" not in text and "_nodes" not in text
            assert "_connections_into" not in text and "_providers" not in text
        assert repr(ComponentFaultTree()) == \
            "ComponentFaultTree(events=(), gates=(), input_fms=(), output_fms=())"

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
