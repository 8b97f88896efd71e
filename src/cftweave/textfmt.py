"""Line-oriented text format for architecture models, plus DOT export.

A model document is a sequence of one-per-line declarations::

    # comment, runs to end of line
    layer <name>

    component <name> in <layer> {
      in <port>
      out <port>
      event <name>
      gate <name> = AND(<ref>, <ref>, ...)        # also OR, NOT
      infm <name>[@<port>]
      outfm <name>[@<port>] = <ref>
    }

    connect <component>.<port> -> <component>.<port>
    alfred <dependent> -> <provider>
    common-cause <component>.<event> = <component>.<event>

A ``<ref>`` names a basic event, gate or port-less input failure mode by
bare name, or a port-bound input failure mode as ``name@port``.  Names use
ASCII letters, digits, ``_`` and ``-``; there are no reserved words, the
grammar is purely positional.  Files are UTF-8; LF endings are emitted and
CRLF is tolerated on input.

Serialisation is canonical: layers sorted by name, components by (layer,
name), declarations in fixed kind order (in, out, event, gate, infm, outfm)
and name order within a kind, then connections, dependencies and
common-cause aliases, each sorted.  ``parse(serialize(m)) == m`` for every
valid model, and serialising twice is byte-identical.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

from .errors import ParseError
from .model import (
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
    NodeRef,
    OutputFailureMode,
    PortConnection,
)
from .synthesizer import FaultTree, FTExternalEvent, FTGate
from .weaver import WovenModel

_ID_CHARS = frozenset(string.ascii_letters + string.digits + "_-")
_PUNCT = frozenset("{}()=,@.")
_GATE_KINDS = {k.value: k for k in GateKind}
_TOP_KEYWORDS = ("layer", "component", "connect", "alfred", "common-cause")
_BODY_KEYWORDS = ("in", "out", "event", "gate", "infm", "outfm", "}")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" or the punctuation itself ("{", "->", ...)
    value: str
    line: int
    column: int


def _tokenize_line(text: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch in " \t":
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("->", "->", line, i + 1))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, i + 1))
            i += 1
            continue
        if ch in _ID_CHARS:
            start = i
            while i < n and text[i] in _ID_CHARS:
                if text[i] == "-" and i + 1 < n and text[i + 1] == ">":
                    break
                i += 1
            tokens.append(_Token("ident", text[start:i], line, start + 1))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, i + 1, token=ch)
    return tokens


class _Cursor:
    """Token cursor for one line."""

    def __init__(self, tokens: list[_Token], line: int, width: int):
        self.tokens = tokens
        self.line = line
        self.width = width
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, what: str, expected: tuple[str, ...]):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what}", self.line, self.width + 1,
                             expected=expected)
        raise ParseError(f"expected {what}", tok.line, tok.column,
                         token=tok.value, expected=expected)

    def take(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self._fail(what or f"'{kind}'", (kind,))
        self.pos += 1
        return tok

    def take_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self._fail(what, ("identifier",))
        self.pos += 1
        return tok

    def take_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "ident" or tok.value != word:
            self._fail(f"'{word}'", (word,))
        self.pos += 1
        return tok

    def accept(self, kind: str) -> _Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError("expected end of line", tok.line, tok.column,
                             token=tok.value, expected=("end of line",))

    def qualified(self, what: str) -> tuple[str, str]:
        first = self.take_ident(what)
        self.take(".", f"'.' in {what}")
        second = self.take_ident(what)
        return first.value, second.value

    def node_ref(self) -> NodeRef:
        name = self.take_ident("node reference")
        if self.accept("@"):
            port = self.take_ident("port name")
            return NodeRef(name.value, port.value)
        return NodeRef(name.value)


@dataclass
class _RawComponent:
    name: str
    layer: str
    line: int
    column: int
    in_ports: list[tuple[str, _Token]] = field(default_factory=list)
    out_ports: list[tuple[str, _Token]] = field(default_factory=list)
    events: list[tuple[str, _Token]] = field(default_factory=list)
    gates: list[tuple[str, GateKind, tuple[NodeRef, ...], _Token]] = field(default_factory=list)
    infms: list[tuple[str, str | None, _Token]] = field(default_factory=list)
    outfms: list[tuple[str, str | None, NodeRef, _Token]] = field(default_factory=list)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.layers: list[tuple[str, _Token]] = []
        self.components: list[_RawComponent] = []
        self.connects: list[tuple[str, str, str, str, _Token]] = []
        self.alfreds: list[tuple[str, str, _Token]] = []
        self.ccs: list[tuple[EventRef, EventRef, _Token]] = []

    def parse(self) -> ArchitectureModel:
        current: _RawComponent | None = None
        for lineno, raw in enumerate(self.lines, start=1):
            raw = raw.rstrip("\r")
            tokens = _tokenize_line(raw, lineno)
            if not tokens:
                continue
            cur = _Cursor(tokens, lineno, len(raw))
            if current is None:
                current = self._top_statement(cur)
            else:
                if not self._body_statement(cur, current):
                    current = None
        if current is not None:
            raise ParseError(
                f"unexpected end of file inside component '{current.name}'",
                len(self.lines), 1, expected=("}",))
        return self._assemble()

    def _top_statement(self, cur: _Cursor) -> _RawComponent | None:
        tok = cur.peek()
        if tok.kind != "ident" or tok.value not in _TOP_KEYWORDS:
            raise ParseError("expected a declaration", tok.line, tok.column,
                             token=tok.value, expected=_TOP_KEYWORDS)
        cur.pos += 1
        if tok.value == "layer":
            name = cur.take_ident("layer name")
            cur.end()
            self.layers.append((name.value, name))
        elif tok.value == "component":
            name = cur.take_ident("component name")
            cur.take_keyword("in")
            layer = cur.take_ident("layer name")
            cur.take("{")
            cur.end()
            component = _RawComponent(name.value, layer.value, name.line, name.column)
            self.components.append(component)
            return component
        elif tok.value == "connect":
            from_comp, from_port = cur.qualified("source port")
            cur.take("->")
            to_comp, to_port = cur.qualified("target port")
            cur.end()
            self.connects.append((from_comp, from_port, to_comp, to_port, tok))
        elif tok.value == "alfred":
            dependent = cur.take_ident("dependent component")
            cur.take("->")
            provider = cur.take_ident("provider component")
            cur.end()
            self.alfreds.append((dependent.value, provider.value, tok))
        else:  # common-cause
            a_comp, a_event = cur.qualified("event reference")
            cur.take("=")
            b_comp, b_event = cur.qualified("event reference")
            cur.end()
            self.ccs.append((EventRef(a_comp, a_event), EventRef(b_comp, b_event), tok))
        return None

    def _body_statement(self, cur: _Cursor, comp: _RawComponent) -> bool:
        """Parse one declaration inside a component block.

        Returns False when the block was closed by '}'.
        """
        tok = cur.peek()
        if tok.kind == "}":
            cur.pos += 1
            cur.end()
            return False
        if tok.kind != "ident" or tok.value not in _BODY_KEYWORDS:
            raise ParseError("expected a component declaration", tok.line,
                             tok.column, token=tok.value, expected=_BODY_KEYWORDS)
        cur.pos += 1
        if tok.value == "in":
            name = cur.take_ident("port name")
            cur.end()
            comp.in_ports.append((name.value, name))
        elif tok.value == "out":
            name = cur.take_ident("port name")
            cur.end()
            comp.out_ports.append((name.value, name))
        elif tok.value == "event":
            name = cur.take_ident("event name")
            cur.end()
            comp.events.append((name.value, name))
        elif tok.value == "gate":
            name = cur.take_ident("gate name")
            cur.take("=")
            kind_tok = cur.take_ident("gate kind")
            kind = _GATE_KINDS.get(kind_tok.value)
            if kind is None:
                raise ParseError("unknown gate kind", kind_tok.line, kind_tok.column,
                                 token=kind_tok.value, expected=tuple(_GATE_KINDS))
            cur.take("(")
            refs = [cur.node_ref()]
            while cur.accept(","):
                refs.append(cur.node_ref())
            cur.take(")")
            cur.end()
            comp.gates.append((name.value, kind, tuple(refs), name))
        elif tok.value == "infm":
            name = cur.take_ident("failure mode name")
            port = None
            if cur.accept("@"):
                port = cur.take_ident("port name").value
            cur.end()
            comp.infms.append((name.value, port, name))
        else:  # outfm
            name = cur.take_ident("failure mode name")
            port = None
            if cur.accept("@"):
                port = cur.take_ident("port name").value
            cur.take("=")
            driver = cur.node_ref()
            cur.end()
            comp.outfms.append((name.value, port, driver, name))
        return True

    @staticmethod
    def _dup(what: str, tok: _Token):
        raise ParseError(f"duplicate declaration of {what}", tok.line, tok.column,
                         token=tok.value)

    @staticmethod
    def _undeclared(what: str, tok: _Token):
        raise ParseError(f"reference to undeclared {what}", tok.line, tok.column,
                         token=tok.value)

    def _assemble(self) -> ArchitectureModel:
        if not self.layers:
            raise ParseError("no layer declared", 1, 1, expected=("layer",))
        layer_names: set[str] = set()
        for name, tok in self.layers:
            if name in layer_names:
                self._dup(f"layer '{name}'", tok)
            layer_names.add(name)

        comp_names: set[str] = set()
        for comp in self.components:
            if comp.name in comp_names:
                raise ParseError(f"duplicate declaration of component '{comp.name}'",
                                 comp.line, comp.column, token=comp.name)
            comp_names.add(comp.name)
            if comp.layer not in layer_names:
                raise ParseError(f"reference to undeclared layer '{comp.layer}'",
                                 comp.line, comp.column, token=comp.layer)
            self._check_component(comp)

        components = tuple(self._build_component(c) for c in self.components)
        ports = {c.name: set(dict(c.in_ports)) | set(dict(c.out_ports))
                 for c in self.components}

        seen_conn: set[tuple[str, str, str, str]] = set()
        connections = []
        for from_comp, from_port, to_comp, to_port, tok in self.connects:
            for end, port in ((from_comp, from_port), (to_comp, to_port)):
                if end not in comp_names:
                    self._undeclared(f"component '{end}'", tok)
                if port not in ports[end]:
                    self._undeclared(f"port '{end}.{port}'", tok)
            key = (from_comp, from_port, to_comp, to_port)
            if key in seen_conn:
                self._dup(f"connection {from_comp}.{from_port} -> {to_comp}.{to_port}", tok)
            seen_conn.add(key)
            connections.append(PortConnection(*key))

        seen_dep: set[tuple[str, str]] = set()
        dependencies = []
        for dependent, provider, tok in self.alfreds:
            for end in (dependent, provider):
                if end not in comp_names:
                    self._undeclared(f"component '{end}'", tok)
            if (dependent, provider) in seen_dep:
                self._dup(f"dependency {dependent} -> {provider}", tok)
            seen_dep.add((dependent, provider))
            dependencies.append(AlfredDependency(dependent, provider))

        events = {c.name: {e for e, _ in c.events} for c in self.components}
        seen_cc: set[frozenset[str]] = set()
        causes = []
        for a, b, tok in self.ccs:
            for ref in (a, b):
                if ref.component not in comp_names or ref.event not in events[ref.component]:
                    self._undeclared(f"event '{ref.render()}'", tok)
            if a == b:
                raise ParseError("common-cause aliases an event to itself",
                                 tok.line, tok.column, token=a.render())
            key = frozenset((a.render(), b.render()))
            if key in seen_cc:
                self._dup(f"common-cause {a.render()} = {b.render()}", tok)
            seen_cc.add(key)
            causes.append(CommonCause(a, b))

        return ArchitectureModel(
            layers=tuple(layer_names),
            components=components,
            connections=tuple(connections),
            dependencies=tuple(dependencies),
            common_causes=tuple(causes),
        )

    def _check_component(self, comp: _RawComponent) -> None:
        port_names: set[str] = set()
        for name, tok in comp.in_ports + comp.out_ports:
            if name in port_names:
                self._dup(f"port '{comp.name}.{name}'", tok)
            port_names.add(name)

        bare: set[str] = set()
        for name, tok in comp.events:
            if name in bare:
                self._dup(f"node '{comp.name}.{name}'", tok)
            bare.add(name)
        for name, _, _, tok in comp.gates:
            if name in bare:
                self._dup(f"node '{comp.name}.{name}'", tok)
            bare.add(name)
        infm_keys: set[tuple[str, str | None]] = set()
        for name, port, tok in comp.infms:
            if (name, port) in infm_keys:
                self._dup(f"input failure mode '{comp.name}.{name}'", tok)
            infm_keys.add((name, port))
            if port is None:
                if name in bare:
                    self._dup(f"node '{comp.name}.{name}'", tok)
                bare.add(name)
            elif port not in port_names:
                self._undeclared(f"port '{comp.name}.{port}'", tok)
        outfm_keys: set[tuple[str, str | None]] = set()
        for name, port, _, tok in comp.outfms:
            if (name, port) in outfm_keys:
                self._dup(f"output failure mode '{comp.name}.{name}'", tok)
            outfm_keys.add((name, port))
            if port is not None and port not in port_names:
                self._undeclared(f"port '{comp.name}.{port}'", tok)

        def check_ref(ref: NodeRef, tok: _Token) -> None:
            if ref.port is not None:
                if (ref.name, ref.port) not in infm_keys:
                    self._undeclared(f"node '{ref.render()}' in component '{comp.name}'", tok)
            elif ref.name not in bare:
                self._undeclared(f"node '{ref.name}' in component '{comp.name}'", tok)

        for _, _, refs, tok in comp.gates:
            for ref in refs:
                check_ref(ref, tok)
        for _, _, driver, tok in comp.outfms:
            check_ref(driver, tok)

    @staticmethod
    def _build_component(comp: _RawComponent) -> Component:
        cft = None
        if comp.events or comp.gates or comp.infms or comp.outfms:
            cft = ComponentFaultTree(
                events=tuple(BasicEvent(n) for n, _ in comp.events),
                gates=tuple(Gate(n, k, refs) for n, k, refs, _ in comp.gates),
                input_fms=tuple(InputFailureMode(n, p) for n, p, _ in comp.infms),
                output_fms=tuple(OutputFailureMode(n, p, d) for n, p, d, _ in comp.outfms),
            )
        return Component(
            name=comp.name,
            layer=comp.layer,
            in_ports=tuple(n for n, _ in comp.in_ports),
            out_ports=tuple(n for n, _ in comp.out_ports),
            cft=cft,
        )


def parse(text: str) -> ArchitectureModel:
    """Parse a model document.

    Raises :class:`ParseError` with the first offending position; any input
    either yields a model or a located error, never a crash.  The result is
    ready for :func:`cftweave.model.validate`.
    """
    return _Parser(text).parse()


def _component_block(comp: Component) -> str:
    lines = [f"component {comp.name} in {comp.layer} {{"]
    for port in comp.in_ports:
        lines.append(f"  in {port}")
    for port in comp.out_ports:
        lines.append(f"  out {port}")
    if comp.cft is not None:
        for event in comp.cft.events:
            lines.append(f"  event {event.name}")
        for gate in comp.cft.gates:
            args = ", ".join(ref.render() for ref in gate.inputs)
            lines.append(f"  gate {gate.name} = {gate.kind.value}({args})")
        for ifm in comp.cft.input_fms:
            suffix = f"@{ifm.port}" if ifm.port else ""
            lines.append(f"  infm {ifm.name}{suffix}")
        for ofm in comp.cft.output_fms:
            suffix = f"@{ofm.port}" if ofm.port else ""
            lines.append(f"  outfm {ofm.name}{suffix} = {ofm.driver.render()}")
    lines.append("}")
    return "\n".join(lines)


def serialize(model: ArchitectureModel) -> str:
    """Render a model in canonical form.

    Byte-identical for structurally identical models; the model's own
    canonical ordering does all the work.
    """
    sections: list[str] = []
    if model.layers:
        sections.append("\n".join(f"layer {layer}" for layer in model.layers))
    for comp in model.components:
        sections.append(_component_block(comp))
    if model.connections:
        sections.append("\n".join(f"connect {c.render()}" for c in model.connections))
    if model.dependencies:
        sections.append("\n".join(f"alfred {d.render()}" for d in model.dependencies))
    if model.common_causes:
        sections.append("\n".join(
            f"common-cause {cc.a.render()} = {cc.b.render()}"
            for cc in model.common_causes))
    return "\n\n".join(sections) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _model_dot(model: ArchitectureModel) -> str:
    lines = ["digraph model {", "  rankdir=LR;"]
    for comp in model.components:
        lines.append(f"  subgraph {_quote('cluster_' + comp.name)} {{")
        lines.append(f"    label={_quote(f'{comp.name} ({comp.layer})')};")
        lines.append(f"    {_quote(comp.name)} [shape=box];")
        for port in comp.in_ports + comp.out_ports:
            lines.append(f"    {_quote(f'{comp.name}.port.{port}')} "
                         f"[label={_quote(port)}, shape=ellipse];")
        if comp.cft is not None:
            def node_id(ref: NodeRef) -> str:
                return f"{comp.name}.node.{ref.render()}"

            for event in comp.cft.events:
                lines.append(f"    {_quote(f'{comp.name}.node.{event.name}')} "
                             f"[label={_quote(event.name)}, shape=circle];")
            for gate in comp.cft.gates:
                lines.append(f"    {_quote(f'{comp.name}.node.{gate.name}')} "
                             f"[label={_quote(gate.kind.value)}, shape=invhouse];")
            for ifm in comp.cft.input_fms:
                ref = NodeRef(ifm.name, ifm.port)
                lines.append(f"    {_quote(node_id(ref))} "
                             f"[label={_quote(ref.render())}, shape=invtriangle];")
            for ofm in comp.cft.output_fms:
                oid = f"{comp.name}.outfm.{NodeRef(ofm.name, ofm.port).render()}"
                lines.append(f"    {_quote(oid)} "
                             f"[label={_quote(NodeRef(ofm.name, ofm.port).render())}, "
                             f"shape=triangle];")
            for gate in comp.cft.gates:
                for ref in gate.inputs:
                    lines.append(f"    {_quote(node_id(ref))} -> "
                                 f"{_quote(f'{comp.name}.node.{gate.name}')};")
            for ifm in comp.cft.input_fms:
                if ifm.port is not None:
                    ref = NodeRef(ifm.name, ifm.port)
                    lines.append(f"    {_quote(f'{comp.name}.port.{ifm.port}')} -> "
                                 f"{_quote(node_id(ref))};")
            for ofm in comp.cft.output_fms:
                oid = f"{comp.name}.outfm.{NodeRef(ofm.name, ofm.port).render()}"
                lines.append(f"    {_quote(node_id(ofm.driver))} -> {_quote(oid)};")
                if ofm.port is not None:
                    lines.append(f"    {_quote(oid)} -> "
                                 f"{_quote(f'{comp.name}.port.{ofm.port}')};")
        lines.append("  }")
    for conn in model.connections:
        lines.append(f"  {_quote(f'{conn.from_component}.port.{conn.from_port}')} -> "
                     f"{_quote(f'{conn.to_component}.port.{conn.to_port}')};")
    for dep in model.dependencies:
        lines.append(f"  {_quote(dep.dependent)} -> {_quote(dep.provider)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_dot(tree: FaultTree) -> str:
    """Nodes numbered in preorder, shared nodes once; each edge is written
    when its child's subtree is finished.  Walks with an explicit stack."""
    ids: dict[int, str] = {}
    node_lines: list[str] = []
    edge_lines: list[str] = []

    def number(node) -> None:
        ids[id(node)] = f"n{len(ids)}"
        if isinstance(node, FTGate):
            label, shape = node.kind.value, "box"
        elif isinstance(node, FTExternalEvent):
            label, shape = node.display, "triangle"
        else:
            label, shape = node.display, "ellipse"
        node_lines.append(f"  {ids[id(node)]} [label={_quote(label)}, shape={shape}];")

    root = tree.root
    number(root)
    # (name, children left) of each gate whose subtree is being written
    stack = [(ids[id(root)], iter(root.children))] if isinstance(root, FTGate) else []
    while stack:
        parent, children = stack[-1]
        for child in children:
            key = id(child)
            if key not in ids:
                number(child)
                if isinstance(child, FTGate):
                    stack.append((ids[key], iter(child.children)))
                    break
            edge_lines.append(f"  {parent} -> {ids[key]};")
        else:
            stack.pop()
            if stack:
                edge_lines.append(f"  {stack[-1][0]} -> {parent};")
    return "\n".join(["digraph fault_tree {", *node_lines, *edge_lines, "}"]) + "\n"


def export_dot(obj) -> str:
    """Render a model or a synthesised fault tree as a Graphviz digraph.

    Cross-layer dependency edges are dashed; external-event leaves are
    triangles.  Output ordering is deterministic.
    """
    if isinstance(obj, FaultTree):
        return _tree_dot(obj)
    if isinstance(obj, WovenModel):
        return _model_dot(obj.model)
    if isinstance(obj, ArchitectureModel):
        return _model_dot(obj)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")
