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

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError
from .model import (
    AlfredDependency,
    ArchitectureModel,
    BasicEvent,
    CommonCause,
    Component,
    ComponentFaultTree,
    EventRef,
    Finding,
    Gate,
    GateKind,
    InputFailureMode,
    NodeRef,
    OutputFailureMode,
    PortConnection,
    ValidationReport,
    _check,
)
from .synthesizer import FaultTree, FTExternalEvent, FTGate
from .weaver import WovenModel

# Group 1: punctuation, group 2: a name (a '-' that starts '->' ends it),
# group 3: any other character but blanks, which is '#' or an error.
_TOKEN = re.compile(r"(->|[{}()=,@.])|((?:[A-Za-z0-9_]|-(?!>))+)|([^ \t])")
# The same tokens without groups, for a line that _CLEAN accepts: blanks,
# name characters and punctuation, with '>' only as part of '->'.
_WORD = re.compile(r"->|[{}()=,@.]|(?:[A-Za-z0-9_]|-(?!>))+")
_CLEAN = re.compile(r"[A-Za-z0-9_{}()=,@. \t-]*(?:(?<=-)>[A-Za-z0-9_{}()=,@. \t-]*)*")
# A word is punctuation or a name; None ends a line's words.
_NOT_IDENT = frozenset(("->", "{", "}", "(", ")", "=", ",", "@", ".", None))
_GATE_KINDS = {k.value: k for k in GateKind}
_TOP_KEYWORDS = ("layer", "component", "connect", "alfred", "common-cause")
_BODY_KEYWORDS = ("in", "out", "event", "gate", "infm", "outfm", "}")

# The validate findings that parse rejects, as the parser words them.
_REJECTED = {
    "duplicate-layer": "duplicate declaration of layer '{name}'",
    "duplicate-component": "duplicate declaration of component '{name}'",
    "unknown-layer": "reference to undeclared layer '{name}'",
    "port-collision": "duplicate declaration of port '{owner}.{name}'",
    "duplicate-node": "duplicate declaration of node '{owner}.{name}'",
    "duplicate-failure-mode": "duplicate declaration of {kind} failure mode '{owner}.{name}'",
    "unknown-port": "reference to undeclared port '{name}'",
    "unknown-node-ref": "reference to undeclared node '{name}' in component '{owner}'",
    "unknown-component": "reference to undeclared component '{name}'",
    "duplicate-connection": "duplicate declaration of connection {name}",
    "duplicate-dependency": "duplicate declaration of dependency {name}",
    "unknown-event": "reference to undeclared event '{name}'",
}


_new_tuple = tuple.__new__


class _Token(NamedTuple):
    """A word an error may point at, by line and index among the line's
    words; its column is found only when the error is raised."""

    value: str
    line: int
    index: int


def _columns(text: str, line: int) -> list[int]:
    """The column of each word of a line, up to a comment.

    Raises the located error at the first character no word can hold.
    """
    columns: list[int] = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 3:
            value = m[0]
            if value == "#":
                break
            raise ParseError(f"unexpected character {value!r}", line, m.start() + 1,
                             token=value)
        columns.append(m.start() + 1)
    return columns


class _Cursor:
    """Word cursor for one line; *words* ends with a ``None`` sentinel."""

    def __init__(self, words: list, line: int, text: str):
        self.words = words
        self.line = line
        self.text = text
        self.pos = 0

    def fail_at(self, index: int, message: str, expected: tuple[str, ...]):
        """Raise at the word at *index*, or just past the line's end."""
        word = self.words[index]
        if word is None:
            raise ParseError(message, self.line, len(self.text) + 1, expected=expected)
        raise ParseError(message, self.line, _columns(self.text, self.line)[index],
                         token=word, expected=expected)

    def take(self, punct: str, what: str | None = None) -> None:
        if self.words[self.pos] != punct:
            self.fail_at(self.pos, "expected " + (what or f"'{punct}'"), (punct,))
        self.pos += 1

    def take_ident(self, what: str) -> str:
        pos = self.pos
        word = self.words[pos]
        if word in _NOT_IDENT:
            self.fail_at(pos, f"expected {what}", ("identifier",))
        self.pos = pos + 1
        return word

    def take_name(self, what: str) -> _Token:
        """An identifier, kept with its position for later errors."""
        word = self.take_ident(what)
        # tuple.__new__ skips the named tuple's Python-level __new__
        return _new_tuple(_Token, (word, self.line, self.pos - 1))

    def take_keyword(self, word: str) -> None:
        if self.words[self.pos] != word:
            self.fail_at(self.pos, f"expected '{word}'", (word,))
        self.pos += 1

    def accept(self, punct: str) -> bool:
        if self.words[self.pos] == punct:
            self.pos += 1
            return True
        return False

    def end(self) -> None:
        if self.words[self.pos] is not None:
            self.fail_at(self.pos, "expected end of line", ("end of line",))

    def qualified(self, what: str) -> tuple[str, str]:
        first = self.take_ident(what)
        self.take(".", f"'.' in {what}")
        return first, self.take_ident(what)

    def node_ref(self) -> NodeRef:
        name = self.take_ident("node reference")
        if self.accept("@"):
            return NodeRef(name, self.take_ident("port name"))
        return NodeRef(name)


@dataclass
class _Block:
    """A component block: its name and layer tokens and its declarations."""

    name: _Token
    layer: _Token
    in_ports: list[_Token] = field(default_factory=list)
    out_ports: list[_Token] = field(default_factory=list)
    events: list[BasicEvent] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    infms: list[InputFailureMode] = field(default_factory=list)
    outfms: list[OutputFailureMode] = field(default_factory=list)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.layers: list[_Token] = []
        self.components: list[Component] = []
        self.connections: list[PortConnection] = []
        self.dependencies: list[AlfredDependency] = []
        self.aliases: list[tuple[EventRef, EventRef, _Token]] = []
        # (object, token an error about it points at, enclosing block)
        self.declared: list[tuple[object, _Token, _Block | None]] = []
        # what the shared checks found and parse does not reject
        self.findings: list[Finding] = []

    def parse(self) -> ArchitectureModel:
        current: _Block | None = None
        for lineno, raw in enumerate(self.lines, start=1):
            raw = raw.rstrip("\r")
            code = raw.split("#", 1)[0]
            if not _CLEAN.fullmatch(code):
                _columns(raw, lineno)  # raises at the first bad character
            words = _WORD.findall(code)
            if not words:
                continue
            words.append(None)
            cur = _Cursor(words, lineno, raw)
            if current is None:
                current = self._top_statement(cur)
            elif not self._body_statement(cur, current):
                self._close(current)
                current = None
        if current is not None:
            raise ParseError(
                f"unexpected end of file inside component '{current.name.value}'",
                len(self.lines), 1, expected=("}",))
        if not self.layers:
            raise ParseError("no layer declared", 1, 1, expected=("layer",))
        model = ArchitectureModel(
            layers=[tok.value for tok in self.layers],
            components=tuple(self.components),
            connections=tuple(self.connections),
            dependencies=tuple(self.dependencies),
            common_causes=tuple(CommonCause(a, b) for a, b, _ in self.aliases),
        )
        _check(model, self._reject)
        # Canonical construction erases self-aliases and repeated pairs, so
        # these two are checked here, on the declarations.
        seen: set[frozenset[EventRef]] = set()
        for a, b, tok in self.aliases:
            if a == b:
                raise ParseError("common-cause aliases an event to itself",
                                 tok.line, self._column(tok), token=a.render())
            if frozenset((a, b)) in seen:
                raise ParseError(
                    f"duplicate declaration of common-cause {a.render()} = {b.render()}",
                    tok.line, self._column(tok), token=tok.value)
            seen.add(frozenset((a, b)))
        # No finding was rejected, so these are all of validate's findings.
        object.__setattr__(model, "_report", ValidationReport(tuple(self.findings)))
        return model

    def _column(self, tok: _Token) -> int:
        """A kept token's column, from its line scanned again."""
        return _columns(self.lines[tok.line - 1].rstrip("\r"), tok.line)[tok.index]

    def _reject(self, severity, code, element, message, about=None, name=None) -> None:
        """The sink given to the shared checks: keeps each finding whose code
        is not in ``_REJECTED`` and raises at the first one whose code is,
        located at the declaration it is about (the second one with the
        name, for layers, components and ports; the layer name, for a
        component on an undeclared layer)."""
        template = _REJECTED.get(code)
        if template is None:
            self.findings.append(Finding(severity, code, element, message))
            return
        block = None
        if code == "duplicate-layer":
            tok = [t for t in self.layers if t.value == name][1]
        elif code == "unknown-event":
            tok = next(t for a, b, t in self.aliases if name in (a.render(), b.render()))
        else:
            tok, block = next((t, b) for obj, t, b in self.declared if obj is about)
            if code == "duplicate-component":
                tok = [t for obj, t, _ in self.declared
                       if isinstance(obj, Component) and t.value == name][1]
            elif code == "port-collision":
                tok = [t for t in block.in_ports + block.out_ports if t.value == name][1]
            elif code == "unknown-layer":
                tok = block.layer
        message = template.format(
            name=name, owner=block and block.name.value,
            kind="input" if isinstance(about, InputFailureMode) else "output")
        raise ParseError(message, tok.line, self._column(tok), token=tok.value)

    def _top_statement(self, cur: _Cursor) -> _Block | None:
        word = cur.words[0]
        if word not in _TOP_KEYWORDS:
            cur.fail_at(0, "expected a declaration", _TOP_KEYWORDS)
        cur.pos = 1
        if word == "layer":
            name = cur.take_name("layer name")
            cur.end()
            self.layers.append(name)
            return None
        if word == "component":
            name = cur.take_name("component name")
            cur.take_keyword("in")
            layer = cur.take_name("layer name")
            cur.take("{")
            cur.end()
            return _Block(name, layer)
        keyword = _new_tuple(_Token, (word, cur.line, 0))
        if word == "connect":
            from_comp, from_port = cur.qualified("source port")
            cur.take("->")
            to_comp, to_port = cur.qualified("target port")
            cur.end()
            conn = PortConnection(from_comp, from_port, to_comp, to_port)
            self.connections.append(conn)
            self.declared.append((conn, keyword, None))
        elif word == "alfred":
            dependent = cur.take_ident("dependent component")
            cur.take("->")
            provider = cur.take_ident("provider component")
            cur.end()
            dep = AlfredDependency(dependent, provider)
            self.dependencies.append(dep)
            self.declared.append((dep, keyword, None))
        else:  # common-cause
            a_comp, a_event = cur.qualified("event reference")
            cur.take("=")
            b_comp, b_event = cur.qualified("event reference")
            cur.end()
            self.aliases.append((EventRef(a_comp, a_event), EventRef(b_comp, b_event),
                                 keyword))
        return None

    def _body_statement(self, cur: _Cursor, block: _Block) -> bool:
        """Parse one declaration inside a component block.

        Returns False when the block was closed by '}'.
        """
        word = cur.words[0]
        cur.pos = 1
        if word == "}":
            cur.end()
            return False
        if word not in _BODY_KEYWORDS:
            cur.fail_at(0, "expected a component declaration", _BODY_KEYWORDS)
        if word == "in":
            block.in_ports.append(cur.take_name("port name"))
            cur.end()
            return True
        if word == "out":
            block.out_ports.append(cur.take_name("port name"))
            cur.end()
            return True
        if word == "event":
            name = cur.take_name("event name")
            cur.end()
            node = BasicEvent(name.value)
            block.events.append(node)
        elif word == "gate":
            name = cur.take_name("gate name")
            cur.take("=")
            kind = _GATE_KINDS.get(cur.take_ident("gate kind"))
            if kind is None:
                cur.fail_at(cur.pos - 1, "unknown gate kind", tuple(_GATE_KINDS))
            cur.take("(")
            refs = [cur.node_ref()]
            while cur.accept(","):
                refs.append(cur.node_ref())
            cur.take(")")
            cur.end()
            node = Gate(name.value, kind, tuple(refs))
            block.gates.append(node)
        elif word == "infm":
            name = cur.take_name("failure mode name")
            port = cur.take_ident("port name") if cur.accept("@") else None
            cur.end()
            node = InputFailureMode(name.value, port)
            block.infms.append(node)
        else:  # outfm
            name = cur.take_name("failure mode name")
            port = cur.take_ident("port name") if cur.accept("@") else None
            cur.take("=")
            driver = cur.node_ref()
            cur.end()
            node = OutputFailureMode(name.value, port, driver)
            block.outfms.append(node)
        self.declared.append((node, name, block))
        return True

    def _close(self, block: _Block) -> None:
        cft = None
        if block.events or block.gates or block.infms or block.outfms:
            cft = ComponentFaultTree(events=tuple(block.events), gates=tuple(block.gates),
                                     input_fms=tuple(block.infms),
                                     output_fms=tuple(block.outfms))
        comp = Component(
            name=block.name.value,
            layer=block.layer.value,
            in_ports=tuple(t.value for t in block.in_ports),
            out_ports=tuple(t.value for t in block.out_ports),
            cft=cft,
        )
        self.components.append(comp)
        self.declared.append((comp, block.name, block))


def parse(text: str) -> ArchitectureModel:
    """Parse a model document.

    Raises :class:`ParseError` with the first offending position; any input
    either yields a model or a located error, never a crash.  Syntax is
    checked line by line; declaration errors (a duplicate declaration or a
    reference to an undeclared name) are found by the checks behind
    :func:`cftweave.model.validate`, so a document with several is rejected
    at the first in ``validate``'s canonical order.  Those checks run once:
    the model carries the findings parse does not reject (the rest of
    ``validate``'s errors, and its warnings), and
    :func:`cftweave.model.validate` returns them without checking again.
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
