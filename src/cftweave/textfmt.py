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

The grammar is stated once, as one statement table per context (top level
and inside a component block).  Tabs are read as spaces once per
document.  Parsing is one regular-expression match per line against a
pattern built from its context's table, which also accepts blank and
comment-only lines.  The line loop builds each declaration straight from
the match's groups, with one node reference and one gate input tuple per
distinct text, and a declaration keeps only its line number.  Lines are
read word by word only for an error, by one reader.  A line that does not
match goes to a word cursor, which reads the same table to find the first
word that breaks the grammar and raises the located
:class:`~cftweave.errors.ParseError`.  A declaration error points at the
word at a fixed index of its declaration's line: the keyword, the first
name, or a component header's layer.  Valid documents never reach the
reader.

Serialisation is canonical: layers sorted by name, components by (layer,
name), declarations in fixed kind order (in, out, event, gate, infm, outfm)
and name order within a kind, then connections, dependencies and
common-cause aliases, each sorted.  ``parse(serialize(m)) == m`` for every
valid model, and serialising twice is byte-identical.

DOT export writes each line with one format and escapes ``\\`` and ``"``
one character at a time, so a joined text's escape is the join of its
parts': each name is escaped once and serves every id, label and edge.
"""

from __future__ import annotations

import re
from functools import cache
from typing import TYPE_CHECKING

from .errors import AnalysisError, ParseError
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
    _NAME_CHARS,
    _check,
)

if TYPE_CHECKING:  # export_dot imports the tree types only for a tree
    from .synthesizer import FaultTree

# Only errors read a line word by word, so this pattern is left to the re
# module's cache.  Group 1: punctuation, group 2: a name (a '-' that starts
# '->' ends it), group 3: any other character but blanks, which is '#' or an
# error.
_TOKEN = r"(->|[{}()=,@.])|((?:[" + _NAME_CHARS + r"]|-(?!>))+)|([^ \t])"

# The grammar, stated once: per context, each statement's keyword and its
# items after the keyword.  An item is a literal word or punctuation mark,
# or a (kind, what) pair: a name, a qualified ``name.name``, a node
# reference ``name[@port]`` (as two groups, or as one text), a gate kind,
# or a comma-separated list of node references.  *what* names the item in
# the cursor's messages.  The line patterns and the error cursor are both
# built from these tables.
_TOP = {
    "layer": (("name", "layer name"),),
    "component": (("name", "component name"), "in", ("name", "layer name"), "{"),
    "connect": (("qualified", "source port"), "->", ("qualified", "target port")),
    "alfred": (("name", "dependent component"), "->", ("name", "provider component")),
    "common-cause": (("qualified", "event reference"), "=", ("qualified", "event reference")),
}
_BODY = {
    "in": (("name", "port name"),),
    "out": (("name", "port name"),),
    "event": (("name", "event name"),),
    "gate": (("name", "gate name"), "=", ("kind", "gate kind"), "(",
             ("refs", "node reference"), ")"),
    "infm": (("ref", "failure mode name"),),
    "outfm": (("ref", "failure mode name"), "=", ("ref-text", "node reference")),
    "}": (),
}
_GATE_KINDS = {k.value: k for k in GateKind}

# A document's tabs are read as spaces before any match, so the patterns
# hold only spaces, which makes them cheaper to compile and to match.  Blanks
# may surround every item; two words (keywords, names, gate kinds) need one
# between them.  A name is one run of the name characters and '-'.  In a
# matching line no name is followed by '>', so none holds the '-' of a
# '->', and each is the word _TOKEN reads.  (One character class
# also keeps the matcher's stack flat on a gate with many inputs.)  Each
# blank run sits between classes it cannot overlap, so a line that does not
# match fails in time linear in its length.
_NAME_TEXT = "[" + _NAME_CHARS + "-]+"
_NAME = "(" + _NAME_TEXT + ")"
_REF_TEXT = _NAME_TEXT + r"(?: *@ *" + _NAME_TEXT + r")?"
# each item kind's pattern and its number of groups
_ITEMS = {
    "name": (_NAME, 1),
    "qualified": (_NAME + r" *\. *" + _NAME, 2),
    "ref": (_NAME + r"(?: *@ *" + _NAME + r")?", 2),
    "ref-text": ("(" + _REF_TEXT + ")", 1),
    "kind": ("(" + "|".join(_GATE_KINDS) + ")", 1),
    "refs": ("(" + _REF_TEXT + r"(?: *, *" + _REF_TEXT + r")*)", 1),
}


def _is_word(item) -> bool:
    return isinstance(item, tuple) or re.fullmatch(_NAME_TEXT, item) is not None


def _pattern(item) -> tuple[str, int]:
    """An item's pattern text and its number of groups."""
    if isinstance(item, tuple):
        return _ITEMS[item[0]]
    return re.escape(item).replace("\\-", "-"), 0  # '-' is literal outside a class


def _line(table: dict) -> tuple[re.Pattern, tuple]:
    """The pattern of a line holding one of *table*'s statements, or none,
    then blanks, a comment and carriage returns; and, indexed by each group
    a match's lastindex can be, the statement's keyword and first group.  A
    statement without groups captures its keyword.  A line, its tabs read as
    spaces, matches exactly when the cursor accepts it in the same context."""
    statements = []
    groups: list = [None]
    for keyword, items in table.items():
        text, count = _pattern(keyword)
        for last, item in zip((keyword, *items), items):
            pattern, n = _pattern(item)
            text += (" +" if _is_word(last) and _is_word(item) else " *") + pattern
            count += n
        if not count:
            text, count = "(" + text + ")", 1
        groups += [(keyword, len(groups))] * count
        statements.append(text)
    return (re.compile(r" *(?:(?:" + "|".join(statements) + r") *)?(?:#.*)?\r*", re.ASCII),
            tuple(groups))


_TOP_LINE, _TOP_GROUPS = _line(_TOP)
_BODY_LINE, _BODY_GROUPS = _line(_BODY)

# A word is punctuation or a name; None ends a line's words.
_NOT_IDENT = frozenset(("->", "{", "}", "(", ")", "=", ",", "@", ".", None))

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


def _words(text: str, line: int) -> tuple[list, list[int]]:
    """The words of a line, up to a comment, and the column of each.

    Raises the located error at the first character no word can hold.
    """
    words: list = []
    columns: list[int] = []
    for m in re.finditer(_TOKEN, text):
        if m.lastindex == 3:
            value = m[0]
            if value == "#":
                break
            raise ParseError(f"unexpected character {value!r}", line, m.start() + 1,
                             token=value)
        words.append(m[0])
        columns.append(m.start() + 1)
    return words, columns


class _Cursor:
    """Word cursor for one line that the grammar rejects; it only finds
    where and why.  *words* ends with a ``None`` sentinel, which stands
    just past the line's *end* column."""

    def __init__(self, words: list, columns: list[int], line: int, end: int):
        self.words = words
        self.columns = columns
        self.line = line
        self.end = end
        self.pos = 0

    def fail_at(self, index: int, message: str, expected: tuple[str, ...]):
        """Raise at the word at *index*, or just past the line's end."""
        word = self.words[index]
        if word is None:
            raise ParseError(message, self.line, self.end, expected=expected)
        raise ParseError(message, self.line, self.columns[index], token=word,
                         expected=expected)

    def take(self, punct: str, what: str | None = None) -> None:
        if self.words[self.pos] != punct:
            self.fail_at(self.pos, "expected " + (what or f"'{punct}'"), (punct,))
        self.pos += 1

    def take_ident(self, what: str) -> None:
        if self.words[self.pos] in _NOT_IDENT:
            self.fail_at(self.pos, f"expected {what}", ("identifier",))
        self.pos += 1

    def accept(self, punct: str) -> bool:
        if self.words[self.pos] == punct:
            self.pos += 1
            return True
        return False

    def statement(self, table: dict, unknown: str) -> None:
        """Check the line as one statement of *table*, a context's grammar;
        raises at the first error, with *unknown* for an unknown keyword."""
        word = self.words[0]
        if word not in table:
            self.fail_at(0, unknown, tuple(table))
        self.pos = 1
        for item in table[word]:
            if not isinstance(item, tuple):
                self.take(item)
                continue
            kind, what = item
            self.take_ident(what)
            if kind == "qualified":
                self.take(".", f"'.' in {what}")
                self.take_ident(what)
            elif kind == "kind" and self.words[self.pos - 1] not in _GATE_KINDS:
                self.fail_at(self.pos - 1, "unknown gate kind", tuple(_GATE_KINDS))
            elif kind in ("ref", "ref-text", "refs"):
                while True:
                    if self.accept("@"):
                        self.take_ident("port name")
                    if kind != "refs" or not self.accept(","):
                        break
                    self.take_ident(what)
        if self.words[self.pos] is not None:
            self.fail_at(self.pos, "expected end of line", ("end of line",))


def _check_line(raw: str, line: int, in_block: bool) -> None:
    """Raise the located error if the cursor rejects the line."""
    raw = raw.rstrip("\r")
    words, columns = _words(raw, line)  # raises at a character no word can hold
    if words:
        words.append(None)
        cursor = _Cursor(words, columns, line, len(raw) + 1)
        if in_block:
            cursor.statement(_BODY, "expected a component declaration")
        else:
            cursor.statement(_TOP, "expected a declaration")


class _Block:
    """A component block: its name, layer and header line, and its declarations.

    A plain class: a dataclass here would cost about 1 ms of every import."""

    __slots__ = ("name", "layer", "line", "in_ports", "out_ports", "events", "gates",
                 "infms", "outfms")

    def __init__(self, name: str, layer: str, line: int):
        self.name = name
        self.layer = layer
        self.line = line
        self.in_ports: list[str] = []
        self.out_ports: list[str] = []
        self.events: list[BasicEvent] = []
        self.gates: list[Gate] = []
        self.infms: list[InputFailureMode] = []
        self.outfms: list[OutputFailureMode] = []


class _Parser:
    def __init__(self, text: str):
        # tabs are read as spaces once per document; no column moves
        self.lines = text.replace("\t", " ").split("\n")
        self.layers: list[tuple[str, int]] = []  # each name and its line
        self.components: list[Component] = []
        self.connections: list[PortConnection] = []
        self.dependencies: list[AlfredDependency] = []
        self.aliases: list[tuple[EventRef, EventRef, int]] = []  # both ends and the line
        # each object an error may be about, and the number of its line:
        # a component's is its header line
        self.declared: list[object] = []
        self.declared_at: list[int] = []
        # what the shared checks found and parse does not reject
        self.findings: list[Finding] = []

    def parse(self) -> ArchitectureModel:
        block: _Block | None = None
        top_line, top_groups = _TOP_LINE.fullmatch, _TOP_GROUPS
        body_line, body_groups = _BODY_LINE.fullmatch, _BODY_GROUPS
        declared, declared_at = self.declared, self.declared_at
        # One reference per distinct text, and one inputs tuple per distinct
        # input list, shared by every line that spells it.  The records that
        # hold them are never shared, as _reject finds a record by identity.
        refs: dict[str, NodeRef] = {}
        inputs_of: dict[str, tuple[NodeRef, ...]] = {}
        for lineno, raw in enumerate(self.lines, start=1):
            m = (top_line if block is None else body_line)(raw)
            if m is None:
                _check_line(raw, lineno, block is not None)
                raise AssertionError(f"line {lineno}: the grammar rejects a line the "
                                     "cursor accepts")
            i = m.lastindex
            if i is None:  # blank or comment
                continue
            if block is None:
                keyword, g = top_groups[i]
                if keyword == "connect":
                    decl = PortConnection(m[g], m[g + 1], m[g + 2], m[g + 3])
                    self.connections.append(decl)
                elif keyword == "alfred":
                    decl = AlfredDependency(m[g], m[g + 1])
                    self.dependencies.append(decl)
                elif keyword == "component":
                    block = _Block(m[g], m[g + 1], lineno)
                    continue
                elif keyword == "layer":
                    self.layers.append((m[g], lineno))
                    continue
                else:  # common-cause
                    self.aliases.append((EventRef(m[g], m[g + 1]),
                                         EventRef(m[g + 2], m[g + 3]), lineno))
                    continue
                declared.append(decl)
                declared_at.append(lineno)
                continue
            keyword, g = body_groups[i]
            if keyword == "}":
                self._close(block)
                block = None
                continue
            name = m[g]
            if keyword == "gate":
                text = m[g + 2]
                inputs = inputs_of.get(text)
                if inputs is None:
                    inputs = []
                    for ref_text in text.replace(" ", "").split(","):
                        ref = refs.get(ref_text)
                        if ref is None:
                            ref = refs[ref_text] = NodeRef(*ref_text.split("@"))
                        inputs.append(ref)
                    inputs = inputs_of[text] = tuple(inputs)
                node = Gate(name, _GATE_KINDS[m[g + 1]], inputs)
                block.gates.append(node)
            elif keyword == "event":
                node = BasicEvent(name)
                block.events.append(node)
            elif keyword == "infm":
                node = InputFailureMode(name, m[g + 1])
                block.infms.append(node)
            elif keyword == "outfm":
                ref_text = m[g + 2].replace(" ", "")
                ref = refs.get(ref_text)
                if ref is None:
                    ref = refs[ref_text] = NodeRef(*ref_text.split("@"))
                node = OutputFailureMode(name, m[g + 1], ref)
                block.outfms.append(node)
            else:
                (block.in_ports if keyword == "in" else block.out_ports).append(name)
                continue
            declared.append(node)
            declared_at.append(lineno)
        if block is not None:
            raise ParseError(
                f"unexpected end of file inside component '{block.name}'",
                len(self.lines), 1, expected=("}",))
        if not self.layers:
            raise ParseError("no layer declared", 1, 1, expected=("layer",))
        model = ArchitectureModel(
            layers=[layer for layer, _ in self.layers],
            components=tuple(self.components),
            connections=tuple(self.connections),
            dependencies=tuple(self.dependencies),
            common_causes=tuple(CommonCause(a, b) for a, b, _ in self.aliases),
        )
        _check(model, self._reject, check_names=False)
        # Canonical construction erases self-aliases and repeated pairs, so
        # these two are checked here, on the declarations.
        seen: set[frozenset[EventRef]] = set()
        for a, b, line in self.aliases:
            if a == b:
                raise ParseError("common-cause aliases an event to itself",
                                 line, self._word(line, 0)[1], token=a.render())
            if frozenset((a, b)) in seen:
                word, column = self._word(line, 0)
                raise ParseError(
                    f"duplicate declaration of common-cause {a.render()} = {b.render()}",
                    line, column, token=word)
            seen.add(frozenset((a, b)))
        # No finding was rejected, so these are all of validate's findings.
        object.__setattr__(model, "_report", ValidationReport(tuple(self.findings)))
        return model

    def _word(self, line: int, index: int) -> tuple[str, int]:
        """Word *index* of *line* and its column, read as the cursor reads
        them: 0 is a keyword, 1 a declaration's first name, 3 a component
        header's layer."""
        words, columns = _words(self.lines[line - 1].rstrip("\r"), line)
        return words[index], columns[index]

    def _ports(self, header: int, name: str) -> list[int]:
        """The lines that declare port *name* in the block whose header is
        on line *header*: its in-ports first, then its out-ports, each kind
        in declaration order."""
        lines: dict[str, list[int]] = {"in": [], "out": []}
        line = header
        while True:
            line += 1
            words = _words(self.lines[line - 1].rstrip("\r"), line)[0]
            if words == ["}"]:
                return lines["in"] + lines["out"]
            if words[1:] == [name] and words[0] in lines:
                lines[words[0]].append(line)

    def _reject(self, severity, code, element, message, about=None, name=None) -> None:
        """The sink given to the shared checks: keeps each finding whose code
        is not in ``_REJECTED`` and raises at the first one whose code is,
        located at the declaration it is about (the second one with the
        name, for layers, components and ports; the layer name, for a
        component on an undeclared layer).  Each rejected finding's element
        starts with its component's name, where it has one."""
        template = _REJECTED.get(code)
        if template is None:
            self.findings.append(Finding(severity, code, element, message))
            return
        declared = zip(self.declared, self.declared_at)
        index = 1  # a declaration's first name
        if code == "duplicate-layer":
            line = [at for layer, at in self.layers if layer == name][1]
        elif code == "duplicate-component":
            line = [at for obj, at in declared
                    if isinstance(obj, Component) and obj.name == name][1]
        elif code == "unknown-event":
            line = next(at for a, b, at in self.aliases if name in (a.render(), b.render()))
            index = 0
        else:
            line = next(at for obj, at in declared if obj is about)
            if code == "port-collision":
                line = self._ports(line, name)[1]
            elif code == "unknown-layer":
                index = 3
            elif isinstance(about, (PortConnection, AlfredDependency)):
                index = 0
        word, column = self._word(line, index)
        message = template.format(
            name=name, owner=element.partition(".")[0],
            kind="input" if isinstance(about, InputFailureMode) else "output")
        raise ParseError(message, line, column, token=word)

    def _close(self, block: _Block) -> None:
        cft = None
        if block.events or block.gates or block.infms or block.outfms:
            cft = ComponentFaultTree(events=tuple(block.events), gates=tuple(block.gates),
                                     input_fms=tuple(block.infms),
                                     output_fms=tuple(block.outfms))
        comp = Component(
            name=block.name,
            layer=block.layer,
            in_ports=tuple(block.in_ports),
            out_ports=tuple(block.out_ports),
            cft=cft,
        )
        self.components.append(comp)
        self.declared.append(comp)
        self.declared_at.append(block.line)

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


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _model_dot(model: ArchitectureModel) -> str:
    esc = cache(_escape)  # each distinct name escaped once per export

    def ref(x) -> str:
        """A node reference, or a failure mode's, as NodeRef.render spells it."""
        return f"{esc(x.name)}@{esc(x.port)}" if x.port else esc(x.name)

    lines = ["digraph model {", "  rankdir=LR;"]
    for comp in model.components:
        c = esc(comp.name)
        port, node, outfm = f'"{c}.port.', f'"{c}.node.', f'"{c}.outfm.'
        lines += [f'  subgraph "cluster_{c}" {{',
                  f'    label="{c} ({esc(comp.layer)})";',
                  f'    "{c}" [shape=box];']
        lines += [f'    {port}{p}" [label="{p}", shape=ellipse];'
                  for p in map(esc, comp.in_ports + comp.out_ports)]
        cft = comp.cft
        if cft is not None:
            lines += [f'    {node}{e}" [label="{e}", shape=circle];'
                      for e in (esc(event.name) for event in cft.events)]
            edges = []
            for gate in cft.gates:
                g = esc(gate.name)
                lines.append(f'    {node}{g}" [label="{gate.kind.value}", shape=invhouse];')
                edges += [f'    {node}{ref(r)}" -> {node}{g}";' for r in gate.inputs]
            for fm in cft.input_fms:
                i = ref(fm)
                lines.append(f'    {node}{i}" [label="{i}", shape=invtriangle];')
                if fm.port is not None:
                    edges.append(f'    {port}{esc(fm.port)}" -> {node}{i}";')
            for fm in cft.output_fms:
                o = ref(fm)
                lines.append(f'    {outfm}{o}" [label="{o}", shape=triangle];')
                edges.append(f'    {node}{ref(fm.driver)}" -> {outfm}{o}";')
                if fm.port is not None:
                    edges.append(f'    {outfm}{o}" -> {port}{esc(fm.port)}";')
            lines += edges
        lines.append("  }")
    lines += [f'  "{esc(conn.from_component)}.port.{esc(conn.from_port)}" -> '
              f'"{esc(conn.to_component)}.port.{esc(conn.to_port)}";'
              for conn in model.connections]
    lines += [f'  "{esc(dep.dependent)}" -> "{esc(dep.provider)}" [style=dashed];'
              for dep in model.dependencies]
    lines.append("}")
    return "\n".join(lines) + "\n"


@cache
def _tree_types() -> tuple[type, ...]:
    """The synthesizer's and weaver's types, imported on the first export
    of something other than a model, and looked up once."""
    from .synthesizer import FaultTree, FTExternalEvent, FTGate
    from .weaver import WovenModel

    return FaultTree, FTExternalEvent, FTGate, WovenModel


def _tree_dot(tree: FaultTree) -> str:
    """Nodes numbered in preorder, shared nodes once; each edge is written
    when its child's subtree is finished.  Walks with an explicit stack."""
    _, FTExternalEvent, FTGate, _ = _tree_types()
    ids: dict[int, str] = {}
    node_lines: list[str] = []
    edge_lines: list[str] = []

    def number(node) -> str:
        ids[id(node)] = n = f"n{len(ids)}"
        if isinstance(node, FTGate):
            node_lines.append(f'  {n} [label="{node.kind.value}", shape=box];')
        else:
            shape = "triangle" if isinstance(node, FTExternalEvent) else "ellipse"
            node_lines.append(f'  {n} [label="{_escape(node.display)}", shape={shape}];')
        return n

    root = tree.root
    if root is None:
        raise AnalysisError("empty tree")
    top = number(root)
    # (name, children left) of each gate whose subtree is being written
    stack = [(top, iter(root.children))] if isinstance(root, FTGate) else []
    while stack:
        parent, children = stack[-1]
        for child in children:
            n = ids.get(id(child))
            if n is None:
                n = number(child)
                if isinstance(child, FTGate):
                    stack.append((n, iter(child.children)))
                    break
            edge_lines.append(f"  {parent} -> {n};")
        else:
            stack.pop()
            if stack:
                edge_lines.append(f"  {stack[-1][0]} -> {parent};")
    return "\n".join(["digraph fault_tree {", *node_lines, *edge_lines, "}"]) + "\n"


def export_dot(obj) -> str:
    """Render a model or a synthesised fault tree as a Graphviz digraph.

    A model has one cluster per component, labelled with its layer, that
    lists the component's nodes and then its edges; port connections join
    the clusters and cross-layer dependency edges are dashed.  In a fault
    tree, external-event leaves are triangles.  Output order is deterministic.
    A model's export loads neither the synthesizer nor the weaver.
    """
    if isinstance(obj, ArchitectureModel):
        return _model_dot(obj)
    FaultTree, _, _, WovenModel = _tree_types()
    if isinstance(obj, FaultTree):
        return _tree_dot(obj)
    if isinstance(obj, WovenModel):
        return _model_dot(obj.model)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")
