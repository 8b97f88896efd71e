"""Parser, canonical serializer and DOT export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftweave import (
    AlfredDependency,
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
    InputFailureMode,
    NodeRef,
    OutputFailureMode,
    ParseError,
    PortConnection,
    TopEventRef,
    export_dot,
    fixture_text,
    parse,
    serialize,
    synthesize,
    weave,
)
from cftweave import textfmt

import genmodels

# The fig2 system again, deliberately declared in a different order than the
# canonical fixture: same model, different document.
SHUFFLED_FIG2 = """\
layer sw
layer hw

component f1 in sw {
  out p3
  in p2
  in p1
  infm loss-of@p1
  infm loss-of@p2
  gate and1 = AND(loss-of@p1, loss-of@p2)
  outfm loss-of@p3 = and1
}

component f2 in sw {
  in p4
  infm loss-of@p4
  outfm loss-of = loss-of@p4
}

component RAM in hw {
  out p5
  event b
  outfm loss-of@p5 = b
}

component CPU in hw {
  in p6
  event a
  infm loss-of@p6
  gate or1 = OR(a, loss-of@p6)
  outfm loss-of = or1
}

connect f1.p3 -> f2.p4
connect RAM.p5 -> CPU.p6

alfred f2 -> RAM
alfred f1 -> RAM
alfred f1 -> CPU
"""


class TestParse:
    def test_layered_example_document(self, fig2):
        model = parse(SHUFFLED_FIG2)
        assert model == fig2
        f1 = model.component("f1")
        f2 = model.component("f2")
        ram = model.component("RAM")
        cpu = model.component("CPU")
        assert f1.in_ports == ("p1", "p2") and f1.out_ports == ("p3",)
        assert f2.in_ports == ("p4",) and f2.out_ports == ()
        assert ram.in_ports == () and ram.out_ports == ("p5",)
        assert cpu.in_ports == ("p6",) and cpu.out_ports == ()
        assert {(c.from_component, c.from_port, c.to_component, c.to_port)
                for c in model.connections} == {("f1", "p3", "f2", "p4"),
                                                ("RAM", "p5", "CPU", "p6")}
        assert model.providers_of("f1") == ("CPU", "RAM")
        assert model.providers_of("f2") == ("RAM",)
        assert model.providers_of("CPU") == () == model.providers_of("RAM")

    def test_empty_document(self):
        with pytest.raises(ParseError, match="no layer declared"):
            parse("")

    def test_unknown_keyword_location(self):
        with pytest.raises(ParseError) as err:
            parse("layer l\nfloor x\n")
        assert err.value.line == 2
        assert err.value.column == 1
        assert err.value.token == "floor"
        assert "layer" in err.value.expected

    def test_truncated_statement_points_past_line_end(self):
        with pytest.raises(ParseError) as err:
            parse("layer l\nconnect a.b ->\n")
        assert err.value.line == 2
        assert err.value.column == len("connect a.b ->") + 1

    def test_reference_to_undeclared_node(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse("layer l\n\ncomponent c in l {\n  gate g = OR(ghost)\n}\n")

    def test_reference_to_undeclared_component(self):
        with pytest.raises(ParseError, match="undeclared component"):
            parse("layer l\n\ncomponent c in l {\n  out p\n}\n\nconnect c.p -> d.q\n")

    def test_duplicate_component(self):
        text = "layer l\n\ncomponent c in l {\n}\n\ncomponent c in l {\n}\n"
        with pytest.raises(ParseError, match="duplicate declaration"):
            parse(text)

    def test_duplicate_event(self):
        with pytest.raises(ParseError, match="duplicate declaration"):
            parse("layer l\n\ncomponent c in l {\n  event e\n  event e\n}\n")

    def test_unknown_gate_kind(self):
        with pytest.raises(ParseError) as err:
            parse("layer l\n\ncomponent c in l {\n  event e\n  gate g = XOR(e)\n}\n")
        assert set(err.value.expected) == {"AND", "OR", "NOT"}

    def test_unclosed_component_block(self):
        with pytest.raises(ParseError, match="end of file"):
            parse("layer l\n\ncomponent c in l {\n  event e\n")

    def test_self_alias_rejected(self):
        text = ("layer l\n\ncomponent c in l {\n  event e\n}\n\n"
                "common-cause c.e = c.e\n")
        with pytest.raises(ParseError, match="itself"):
            parse(text)

    def test_comments_and_blank_lines(self):
        text = ("# heading\nlayer l   # trailing\n\n"
                "component c in l {\n  # inner\n  event e\n}\n")
        model = parse(text)
        assert model.component("c").cft.event("e") is not None

    def test_crlf_accepted(self):
        model = parse("layer l\r\n\r\ncomponent c in l {\r\n  event e\r\n}\r\n")
        assert model.component("c").cft.event("e") is not None

    @pytest.mark.parametrize("name", ["vehicle", "wide"])
    def test_a_valid_document_is_never_read_word_by_word(self, name, monkeypatch):
        # declarations keep only their line numbers, and no line is read a
        # second time: the word reader runs only for an error
        if name == "wide":
            text = serialize(weave(genmodels.wide(50, GateKind.OR)[0]).model)
            text += "common-cause S0.f = S1.f\ncommon-cause S1.g = S2.g\n"
        else:
            text = fixture_text(name)
        read = []
        words = textfmt._words

        def recording(text, line):
            read.append(line)
            return words(text, line)

        monkeypatch.setattr(textfmt, "_words", recording)
        parse(text)
        assert read == []
        with pytest.raises(ParseError):  # the patched reader is the one errors use
            parse(text + "layer $\n")
        assert read

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("layer l$\n")


class TestSerialize:
    def test_roundtrip_fixtures(self, fig2, vehicle):
        assert parse(serialize(fig2)) == fig2
        assert parse(serialize(vehicle)) == vehicle

    def test_canonical_idempotence(self, fig2, vehicle):
        for model in (fig2, vehicle):
            once = serialize(model)
            assert serialize(parse(once)) == once

    def test_permutations_serialize_identically(self):
        assert serialize(parse(SHUFFLED_FIG2)) == fixture_text("example_fig2")

    def test_vehicle_file_is_its_own_golden(self, vehicle):
        assert serialize(vehicle) == fixture_text("vehicle")

    def test_alias_star_form(self):
        chain = ("layer l\n\n"
                 "component a in l {\n  event e\n}\n\n"
                 "component b in l {\n  event e\n}\n\n"
                 "component c in l {\n  event e\n}\n\n"
                 "common-cause c.e = b.e\n\ncommon-cause b.e = a.e\n")
        model = parse(chain)
        assert [(cc.a.render(), cc.b.render()) for cc in model.common_causes] == [
            ("a.e", "b.e"), ("a.e", "c.e")]
        assert parse(serialize(model)) == model

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_roundtrip_generated(self, seed):
        model, _ = genmodels.random_model(seed)
        assert parse(serialize(model)) == model
        assert serialize(parse(serialize(model))) == serialize(model)


class TestParserTotality:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=300))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse(text)
        except ParseError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="layercomnt {}()=@->.#\n podfgi", max_size=200))
    def test_keyword_like_soup(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestDot:
    def test_fig2_has_three_dashed_edges(self, fig2):
        assert export_dot(fig2).count("style=dashed") == 3

    def test_single_component_single_cluster(self):
        model = parse("layer l\n\ncomponent c in l {\n  event e\n  outfm f = e\n}\n")
        assert export_dot(model).count("subgraph") == 1

    def test_braces_balanced(self, fig2, vehicle):
        for model in (fig2, vehicle):
            dot = export_dot(model)
            assert dot.count("{") == dot.count("}")

    def test_every_model_line_shape(self):
        # a cluster without a fault tree, every node and edge kind, a
        # connection and a dashed dependency
        model = parse(
            "layer hw\nlayer sw\n\n"
            "component B in hw {\n  event low\n  outfm drain = low\n}\n\n"
            "component H in hw {\n  in p\n}\n\n"
            "component S in sw {\n  out o\n  event f\n  outfm loss@o = f\n}\n\n"
            "component T in sw {\n  in i\n  out o\n  event e\n"
            "  gate g = AND(loss@i, e, x)\n  infm loss@i\n  infm x\n"
            "  outfm loss@o = g\n}\n\n"
            "connect S.o -> T.i\nalfred S -> B\n")
        assert export_dot(model) == "\n".join([
            'digraph model {',
            '  rankdir=LR;',
            '  subgraph "cluster_B" {',
            '    label="B (hw)";',
            '    "B" [shape=box];',
            '    "B.node.low" [label="low", shape=circle];',
            '    "B.outfm.drain" [label="drain", shape=triangle];',
            '    "B.node.low" -> "B.outfm.drain";',
            '  }',
            '  subgraph "cluster_H" {',
            '    label="H (hw)";',
            '    "H" [shape=box];',
            '    "H.port.p" [label="p", shape=ellipse];',
            '  }',
            '  subgraph "cluster_S" {',
            '    label="S (sw)";',
            '    "S" [shape=box];',
            '    "S.port.o" [label="o", shape=ellipse];',
            '    "S.node.f" [label="f", shape=circle];',
            '    "S.outfm.loss@o" [label="loss@o", shape=triangle];',
            '    "S.node.f" -> "S.outfm.loss@o";',
            '    "S.outfm.loss@o" -> "S.port.o";',
            '  }',
            '  subgraph "cluster_T" {',
            '    label="T (sw)";',
            '    "T" [shape=box];',
            '    "T.port.i" [label="i", shape=ellipse];',
            '    "T.port.o" [label="o", shape=ellipse];',
            '    "T.node.e" [label="e", shape=circle];',
            '    "T.node.g" [label="AND", shape=invhouse];',
            '    "T.node.loss@i" [label="loss@i", shape=invtriangle];',
            '    "T.node.x" [label="x", shape=invtriangle];',
            '    "T.outfm.loss@o" [label="loss@o", shape=triangle];',
            '    "T.node.loss@i" -> "T.node.g";',
            '    "T.node.e" -> "T.node.g";',
            '    "T.node.x" -> "T.node.g";',
            '    "T.port.i" -> "T.node.loss@i";',
            '    "T.node.g" -> "T.outfm.loss@o";',
            '    "T.outfm.loss@o" -> "T.port.o";',
            '  }',
            '  "S.port.o" -> "T.port.i";',
            '  "S" -> "B" [style=dashed];',
            '}']) + "\n"

    def test_names_are_escaped_in_every_slot(self):
        # parse admits no '"' or '\', so both models are built directly;
        # every name holds both.  A port named "" is drawn as a port, and a
        # failure mode bound to it is labelled bare but joined to it.
        def n(name):
            return name + '"\\'

        provider = ComponentFaultTree(
            events=(BasicEvent(n("b")),),
            output_fms=(OutputFailureMode(n("y"), n("o"), NodeRef(n("b"))),
                        OutputFailureMode(n("w"), None, NodeRef(n("b")))))
        dependent = ComponentFaultTree(
            events=(BasicEvent(n("e")),),
            gates=(Gate(n("g"), GateKind.AND, (NodeRef(n("e")), NodeRef(n("f"), n("i")),
                                               NodeRef(n("h"), ""))),),
            input_fms=(InputFailureMode(n("f"), n("i")), InputFailureMode(n("h"), "")),
            output_fms=(OutputFailureMode(n("y"), n("o"), NodeRef(n("g"))),
                        OutputFailureMode(n("z"), "", NodeRef(n("e")))))
        model = ArchitectureModel(
            layers=(n("L"), n("M")),
            components=(Component(n("P"), n("L"), (), (n("o"),), provider),
                        Component(n("C"), n("M"), (n("i"), ""), (n("o"),), dependent)),
            connections=(PortConnection(n("P"), n("o"), n("C"), n("i")),
                         PortConnection(n("P"), n("o"), n("C"), "")),
            dependencies=(AlfredDependency(n("C"), n("P")),))
        assert export_dot(model) == "\n".join([
            r'digraph model {',
            r'  rankdir=LR;',
            r'  subgraph "cluster_P\"\\" {',
            r'    label="P\"\\ (L\"\\)";',
            r'    "P\"\\" [shape=box];',
            r'    "P\"\\.port.o\"\\" [label="o\"\\", shape=ellipse];',
            r'    "P\"\\.node.b\"\\" [label="b\"\\", shape=circle];',
            r'    "P\"\\.outfm.w\"\\" [label="w\"\\", shape=triangle];',
            r'    "P\"\\.outfm.y\"\\@o\"\\" [label="y\"\\@o\"\\", shape=triangle];',
            r'    "P\"\\.node.b\"\\" -> "P\"\\.outfm.w\"\\";',
            r'    "P\"\\.node.b\"\\" -> "P\"\\.outfm.y\"\\@o\"\\";',
            r'    "P\"\\.outfm.y\"\\@o\"\\" -> "P\"\\.port.o\"\\";',
            r'  }',
            r'  subgraph "cluster_C\"\\" {',
            r'    label="C\"\\ (M\"\\)";',
            r'    "C\"\\" [shape=box];',
            r'    "C\"\\.port." [label="", shape=ellipse];',
            r'    "C\"\\.port.i\"\\" [label="i\"\\", shape=ellipse];',
            r'    "C\"\\.port.o\"\\" [label="o\"\\", shape=ellipse];',
            r'    "C\"\\.node.e\"\\" [label="e\"\\", shape=circle];',
            r'    "C\"\\.node.g\"\\" [label="AND", shape=invhouse];',
            r'    "C\"\\.node.f\"\\@i\"\\" [label="f\"\\@i\"\\", shape=invtriangle];',
            r'    "C\"\\.node.h\"\\" [label="h\"\\", shape=invtriangle];',
            r'    "C\"\\.outfm.y\"\\@o\"\\" [label="y\"\\@o\"\\", shape=triangle];',
            r'    "C\"\\.outfm.z\"\\" [label="z\"\\", shape=triangle];',
            r'    "C\"\\.node.e\"\\" -> "C\"\\.node.g\"\\";',
            r'    "C\"\\.node.f\"\\@i\"\\" -> "C\"\\.node.g\"\\";',
            r'    "C\"\\.node.h\"\\" -> "C\"\\.node.g\"\\";',
            r'    "C\"\\.port.i\"\\" -> "C\"\\.node.f\"\\@i\"\\";',
            r'    "C\"\\.port." -> "C\"\\.node.h\"\\";',
            r'    "C\"\\.node.g\"\\" -> "C\"\\.outfm.y\"\\@o\"\\";',
            r'    "C\"\\.outfm.y\"\\@o\"\\" -> "C\"\\.port.o\"\\";',
            r'    "C\"\\.node.e\"\\" -> "C\"\\.outfm.z\"\\";',
            r'    "C\"\\.outfm.z\"\\" -> "C\"\\.port.";',
            r'  }',
            r'  "P\"\\.port.o\"\\" -> "C\"\\.port.";',
            r'  "P\"\\.port.o\"\\" -> "C\"\\.port.i\"\\";',
            r'  "C\"\\" -> "P\"\\" [style=dashed];',
            r'}']) + "\n"

        # gate labels are their kinds; a leaf shared by two gates is one node
        shared = FTBasicEvent(identity="s", display=n("s"))
        external = FTExternalEvent(component="C", port="", failure_mode="x",
                                   identity="x", display=n("x"))
        root = FTGate(GateKind.OR, (
            FTBasicEvent(identity="e", display=n("e")), external,
            FTGate(GateKind.AND, (shared, FTGate(GateKind.NOT, (shared,)))), shared))
        assert export_dot(FaultTree(root=root, top=TopEventRef("C", "z"))) == "\n".join([
            r'digraph fault_tree {',
            r'  n0 [label="OR", shape=box];',
            r'  n1 [label="e\"\\", shape=ellipse];',
            r'  n2 [label="x\"\\", shape=triangle];',
            r'  n3 [label="AND", shape=box];',
            r'  n4 [label="s\"\\", shape=ellipse];',
            r'  n5 [label="NOT", shape=box];',
            r'  n0 -> n1;',
            r'  n0 -> n2;',
            r'  n3 -> n4;',
            r'  n5 -> n4;',
            r'  n3 -> n5;',
            r'  n0 -> n3;',
            r'  n0 -> n4;',
            r'}']) + "\n"

    def test_woven_model_exports_its_model(self, fig2):
        woven = weave(fig2)
        dot = export_dot(woven)
        assert dot == export_dot(woven.model) != export_dot(fig2)
        assert '"f1.node.from-CPU-loss-of" [label="from-CPU-loss-of", shape=invtriangle];' \
            in dot

    def test_tree_has_single_root(self, fig2):
        tree = synthesize(weave(fig2), "f2.loss-of")
        dot = export_dot(tree)
        nodes = {line.split()[0] for line in dot.splitlines()
                 if line.startswith("  n") and "[" in line}
        targets = {line.split("->")[1].strip().rstrip(";")
                   for line in dot.splitlines() if "->" in line}
        roots = nodes - targets
        assert roots == {"n0"}

    def test_tree_externals_are_triangles(self, fig2):
        tree = synthesize(weave(fig2), "f2.loss-of")
        dot = export_dot(tree)
        assert dot.count("shape=triangle") == 2

    def test_deterministic(self, vehicle):
        assert export_dot(vehicle) == export_dot(vehicle)

    def test_deep_tree_without_recursion(self):
        depth = 5000
        x = FTBasicEvent(identity="x", display="x")
        node = x
        for _ in range(depth):
            node = FTGate(GateKind.OR, (node, x))
        dot = export_dot(FaultTree(root=node, top=TopEventRef("t", "t")))
        # gates are n0 (outermost) .. n4999, the shared leaf is n5000; an
        # edge is written when its child's subtree is finished
        leaf = f"n{depth}"
        edges = [f"  n{depth - 1} -> {leaf};"] * 2
        for k in range(depth - 2, -1, -1):
            edges += [f"  n{k} -> n{k + 1};", f"  n{k} -> {leaf};"]
        assert dot == "\n".join([
            "digraph fault_tree {",
            *(f'  n{k} [label="OR", shape=box];' for k in range(depth)),
            f'  {leaf} [label="x", shape=ellipse];',
            *edges, "}"]) + "\n"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            export_dot("not a model")

    def test_empty_tree(self):
        with pytest.raises(AnalysisError, match="empty tree"):
            export_dot(FaultTree(root=None, top=TopEventRef("t", "t")))
