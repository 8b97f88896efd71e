"""Immutable domain model for layered architectures with component fault trees.

An :class:`ArchitectureModel` holds vertical layers, components with typed
ports, the data-flow connections between ports, directed cross-layer failure
dependencies (``alfred`` edges), and common-cause aliases that give two basic
events a single identity.  Each component may carry a component fault tree
(CFT): a small Boolean graph of basic events, gates, input failure modes and
output failure modes.

All types are frozen dataclasses.  Construction canonicalises ordering
(layers, components, connections, dependencies and CFT members are sorted),
so two models built from the same declarations in any order compare equal,
and every downstream artifact is byte-stable.  Construction never rejects
anything beyond basic typing; structural rules are checked by
:func:`validate`, which reports findings instead of raising.

Construction also builds the lookup indexes, so every by-name lookup is
one dict access.  A model built through the object API may hold duplicate
declarations; a lookup then returns the first match in canonical order.
An index holds one entry per distinct key, so the checks behind
:func:`validate` read from its length whether a name repeats, and look for
the repeats only then.  The indexes take no part in equality, hashing or
``repr``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .errors import ModelError

# A legal name's characters besides '-'; the text format's patterns use them too.
_NAME_CHARS = "A-Za-z0-9_"

#: Legal name: ASCII letters, digits, ``_`` and ``-``.  ``.`` is reserved as
#: the qualifier separator in rendered names (``U1.False-negative``).
IDENTIFIER_PATTERN = re.compile("[" + _NAME_CHARS + r"-]+\Z")


class GateKind(Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"


@dataclass(frozen=True)
class NodeRef:
    """Reference to a node inside one component's fault tree.

    Port-bound failure modes are addressed as ``name@port``; basic events,
    gates and port-less failure modes by bare name.
    """

    name: str
    port: str | None = None

    def render(self) -> str:
        return f"{self.name}@{self.port}" if self.port else self.name


@dataclass(frozen=True)
class BasicEvent:
    """Atomic internal failure cause of one component."""

    name: str


@dataclass(frozen=True)
class Gate:
    """Boolean gate combining other nodes of the same fault tree."""

    name: str
    kind: GateKind
    inputs: tuple[NodeRef, ...]


@dataclass(frozen=True)
class InputFailureMode:
    """Failure entering a component, either through an in-port or port-less.

    Port-less input failure modes are either externally supplied failure
    behaviour or weaving artifacts resolved through a provenance table.
    """

    name: str
    port: str | None = None


@dataclass(frozen=True)
class OutputFailureMode:
    """Failure visible at a component output, driven by exactly one node."""

    name: str
    port: str | None
    driver: NodeRef


_BY_NAME = attrgetter("name")


def _fm_key(fm) -> tuple[str, str]:
    return (fm.name, fm.port or "")


# each member tuple of a fault tree and its canonical sort key
_CFT_ORDER = (("events", _BY_NAME), ("gates", _BY_NAME), ("input_fms", _fm_key),
              ("output_fms", _fm_key))


def _index():
    """A derived field (a lookup table, or parse's report): set in
    ``__post_init__``, outside eq, hash and repr."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ComponentFaultTree:
    """Boolean failure model of one component.

    Events, gates and port-less input failure modes share one bare-name
    namespace for references; port-bound failure modes live in a
    ``(name, port)`` namespace per kind.
    """

    events: tuple[BasicEvent, ...] = ()
    gates: tuple[Gate, ...] = ()
    input_fms: tuple[InputFailureMode, ...] = ()
    output_fms: tuple[OutputFailureMode, ...] = ()
    # One index for every namespace, each entry the first match in canonical
    # order: a bare name maps to its first event, else its first gate, else
    # its first port-less input failure mode; ("in", name, port) and
    # ("out", name, port) map to port-bound input and to output failure
    # modes.  It is shorter than the declarations only if a key repeats.
    _nodes: dict[str | tuple[str, str, str | None], object] = _index()

    def __post_init__(self):
        for name, key in _CFT_ORDER:
            members = getattr(self, name)
            if type(members) is not tuple or len(members) > 1:  # else already in order
                object.__setattr__(self, name, tuple(sorted(members, key=key)))

        # Filled from the back, so the first match in canonical order wins;
        # gates then events overwrite the bare names, as resolve prefers them.
        nodes = {}
        for o in reversed(self.output_fms):
            nodes["out", o.name, o.port] = o
        for i in reversed(self.input_fms):
            if i.port is None:
                nodes[i.name] = i
            else:
                nodes["in", i.name, i.port] = i
        for g in reversed(self.gates):
            nodes[g.name] = g
        for e in reversed(self.events):
            nodes[e.name] = e
        object.__setattr__(self, "_nodes", nodes)

    def event(self, name: str) -> BasicEvent | None:
        node = self._nodes.get(name)
        return node if isinstance(node, BasicEvent) else None

    def output_fm(self, name: str, port: str | None) -> OutputFailureMode | None:
        return self._nodes.get(("out", name, port))

    def output_fms_named(self, name: str) -> tuple[OutputFailureMode, ...]:
        return tuple(o for o in self.output_fms if o.name == name)

    def resolve(self, ref: NodeRef):
        """Resolve a reference to its node, or None.

        A bare name is an event, else a gate, else a port-less input
        failure mode.
        """
        if ref.port is None:
            return self._nodes.get(ref.name)
        return self._nodes.get(("in", ref.name, ref.port))


@dataclass(frozen=True)
class Component:
    """A component on one layer, with ordered ports and an optional CFT."""

    name: str
    layer: str
    in_ports: tuple[str, ...] = ()
    out_ports: tuple[str, ...] = ()
    cft: ComponentFaultTree | None = None

    def __post_init__(self):
        for name in ("in_ports", "out_ports"):
            ports = getattr(self, name)
            if type(ports) is not tuple or len(ports) > 1:  # else already in order
                object.__setattr__(self, name, tuple(sorted(ports)))


@dataclass(frozen=True)
class PortConnection:
    """Data flow from one component's out-port to another's in-port."""

    from_component: str
    from_port: str
    to_component: str
    to_port: str

    def render(self) -> str:
        return (f"{self.from_component}.{self.from_port}"
                f" -> {self.to_component}.{self.to_port}")


@dataclass(frozen=True)
class AlfredDependency:
    """Directed cross-layer edge: *dependent* needs *provider* to function.

    Carries no data flow; it only marks that every failure of the provider
    must be assumed to trigger every output failure mode of the dependent.
    """

    dependent: str
    provider: str

    def render(self) -> str:
        return f"{self.dependent} -> {self.provider}"


@dataclass(frozen=True)
class EventRef:
    """Model-wide reference to one basic event."""

    component: str
    event: str

    def render(self) -> str:
        return f"{self.component}.{self.event}"


@dataclass(frozen=True)
class CommonCause:
    """Alias declaration: two basic events share one physical cause."""

    a: EventRef
    b: EventRef


def _alias_groups(pairs) -> dict[str, list[EventRef]]:
    """Union-find over alias pairs; keys are the lexicographically smallest
    rendered member of each group."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    refs: dict[str, EventRef] = {}
    for cc in pairs:
        for ref in (cc.a, cc.b):
            key = ref.render()
            refs[key] = ref
            parent.setdefault(key, key)
        ra, rb = find(cc.a.render()), find(cc.b.render())
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    groups: dict[str, list[EventRef]] = {}
    for key in sorted(refs):
        groups.setdefault(find(key), []).append(refs[key])
    return groups


# Each member tuple of a model that is sorted as given, and its canonical sort
# key; the keys are read in C rather than by a Python call per element.
_MODEL_ORDER = (("layers", None), ("components", attrgetter("layer", "name")),
                ("connections",
                 attrgetter("from_component", "from_port", "to_component", "to_port")),
                ("dependencies", attrgetter("dependent", "provider")))
_BY_EVENTS = attrgetter("a.component", "a.event", "b.component", "b.event")


@dataclass(frozen=True)
class ArchitectureModel:
    """The model universe consumed by every pipeline stage."""

    layers: tuple[str, ...] = ()
    components: tuple[Component, ...] = ()
    connections: tuple[PortConnection, ...] = ()
    dependencies: tuple[AlfredDependency, ...] = ()
    common_causes: tuple[CommonCause, ...] = ()
    _components: dict[str, Component] = _index()
    _connections_into: dict[tuple[str, str], PortConnection] = _index()
    _providers: dict[str, tuple[str, ...]] = _index()
    # (component, event) of each aliased event that is not its group's
    # smallest member, to that member's rendered name
    _aliases: dict[tuple[str, str], str] = _index()
    # validate's report, when parse already ran the checks on this model
    _report: ValidationReport | None = _index()

    def __post_init__(self):
        object.__setattr__(self, "_report", None)
        for name, key in _MODEL_ORDER:
            object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=key)))
        # Alias pairs are stored in star form (smallest member first), so any
        # pair set describing the same groups compares and serialises equal.
        groups = _alias_groups(self.common_causes)
        pairs = [CommonCause(members[0], other)
                 for members in groups.values() for other in members[1:]]
        pairs.sort(key=_BY_EVENTS)
        object.__setattr__(self, "common_causes", tuple(pairs))
        object.__setattr__(self, "_aliases", {
            (cc.b.component, cc.b.event): cc.a.render() for cc in pairs})

        # Built from the back, so the first match in canonical order wins.
        object.__setattr__(self, "_components",
                           {c.name: c for c in reversed(self.components)})
        object.__setattr__(self, "_connections_into", {
            (c.to_component, c.to_port): c for c in reversed(self.connections)})
        providers: dict[str, list[str]] = {}
        for dep in self.dependencies:
            providers.setdefault(dep.dependent, []).append(dep.provider)
        object.__setattr__(self, "_providers", {k: tuple(v) for k, v in providers.items()})

    def has_component(self, name: str) -> bool:
        return name in self._components

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise ModelError(f"unknown component '{name}'") from None

    def connection_into(self, component: str, port: str) -> PortConnection | None:
        """The connection feeding an in-port, if any."""
        return self._connections_into.get((component, port))

    def providers_of(self, component: str) -> tuple[str, ...]:
        """Direct failure-dependency providers, in canonical order."""
        return self._providers.get(component, ())

    def _identity(self, component: str, event: str) -> str:
        """The identity of a component's basic event: the owner-qualified
        name, or for an aliased event its common-cause group's
        lexicographically smallest member."""
        return self._aliases.get((component, event)) or f"{component}.{event}"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One validation result with a stable diagnostic code."""

    severity: Severity
    code: str
    element: str
    message: str

    def render(self) -> str:
        return f"{self.severity.value}[{self.code}] {self.element}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    def render_lines(self) -> tuple[str, ...]:
        return tuple(f.render() for f in self.findings)


def _leftover_cycle_members(edges) -> tuple[str, ...]:
    """Kahn's algorithm over the nodes the edges touch, which are all that
    can lie on a cycle; returns the sorted nodes stuck on one."""
    if not edges:
        return ()
    out: dict[str, set[str]] = {}
    indeg: dict[str, int] = {}  # only nodes with an edge in
    for a, b in edges:
        out.setdefault(b, set())
        targets = out.setdefault(a, set())
        if b not in targets:
            targets.add(b)
            indeg[b] = indeg.get(b, 0) + 1
    # a name declared twice is one node: it is taken from ready once
    ready = [n for n in out if n not in indeg]
    done = 0
    while ready:
        n = ready.pop()
        done += 1
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if done == len(out):
        return ()
    return tuple(sorted(n for n, d in indeg.items() if d > 0))


def _has(ports: tuple[str, ...], name: str) -> bool:
    """Membership in a sorted tuple of port names, by binary search."""
    i = bisect_left(ports, name)
    return i < len(ports) and ports[i] == name


def _element(owner: str, name: str, port: str | None = None) -> str:
    """A finding's element for a name inside component *owner*; built only
    when a finding is added."""
    return f"{owner}.{name}@{port}" if port else f"{owner}.{name}"


def _check_name(add, kind: str, name: str, owner: str | None = None,
                port: str | None = None) -> None:
    if not IDENTIFIER_PATTERN.match(name):
        element = name if owner is None else _element(owner, name, port)
        add(Severity.ERROR, "bad-identifier", element,
            f"{kind} name {name!r} is not a legal identifier")


def _claim(add, bare: dict[str, str], owner: str, node, what: str) -> None:
    """Record *node*'s bare name as a *what*; report it if already taken."""
    if node.name in bare:
        add(Severity.ERROR, "duplicate-node", _element(owner, node.name),
            f"name already used by a {bare[node.name]}", node, node.name)
    bare[node.name] = what


def _validate_cft(comp: Component, add, check_names: bool, collides: bool) -> None:
    """Check *comp*'s fault tree; *collides* says that some port name of
    *comp* may be declared twice, perhaps once in each direction."""
    cft = comp.cft
    owner = comp.name
    # A tree repeats a key only if its index is shorter than its members;
    # only then are *bare* names and *seen* failure modes recorded.  Events
    # and gates of a tree that repeats none need a pass only to check names.
    repeats = len(cft._nodes) < (len(cft.events) + len(cft.gates)
                                 + len(cft.input_fms) + len(cft.output_fms))
    bare: dict[str, str] = {}
    seen: set[tuple[str, str, str | None]] = set()
    if check_names or repeats:
        for kind, what, nodes in (("event", "basic event", cft.events),
                                  ("gate", "gate", cft.gates)):
            for node in nodes:
                if check_names:
                    _check_name(add, kind, node.name, owner)
                if repeats:
                    _claim(add, bare, owner, node, what)

    # Each direction: its kind, failure modes, own and other port tuples, the
    # other's port word, and what a port-less one is among the bare names.
    for kind, fms, own, other, wrong, what in (
            ("input failure mode", cft.input_fms, comp.in_ports, comp.out_ports, "out-port",
             "port-less input failure mode"),
            ("output failure mode", cft.output_fms, comp.out_ports, comp.in_ports, "in-port",
             None)):
        for fm in fms:
            name, port = fm.name, fm.port
            if check_names:
                _check_name(add, kind, name, owner, port)
            if repeats:
                if (kind, name, port) in seen:
                    add(Severity.ERROR, "duplicate-failure-mode", _element(owner, name, port),
                        f"{kind} declared twice", fm, name)
                seen.add((kind, name, port))
                if port is None and what:
                    _claim(add, bare, owner, fm, what)
            # one probe settles a port found in its own direction, unless the
            # name may be declared both ways
            if port is not None and (collides or not _has(own, port)):
                if _has(other, port):
                    add(Severity.ERROR, "wrong-port-direction", _element(owner, name, port),
                        f"{kind} bound to {wrong} '{port}'")
                elif not _has(own, port):
                    add(Severity.ERROR, "unknown-port", _element(owner, name, port),
                        f"port '{port}' is not declared", fm, f"{owner}.{port}")

    gate_edges = []
    for gate in cft.gates:
        if gate.kind is GateKind.NOT and len(gate.inputs) != 1:
            add(Severity.ERROR, "gate-arity", _element(owner, gate.name),
                f"NOT takes exactly 1 input, got {len(gate.inputs)}")
        elif not gate.inputs:
            add(Severity.ERROR, "gate-arity", _element(owner, gate.name),
                f"{gate.kind.value} needs at least 1 input")
        for ref in gate.inputs:
            target = cft.resolve(ref)
            if target is None:
                add(Severity.ERROR, "unknown-node-ref", _element(owner, gate.name),
                    f"input '{ref.render()}' does not resolve", gate, ref.render())
            elif isinstance(target, Gate):
                gate_edges.append((gate.name, target.name))
    for ofm in cft.output_fms:
        if cft.resolve(ofm.driver) is None:
            add(Severity.ERROR, "unknown-node-ref", _element(owner, ofm.name, ofm.port),
                f"driver '{ofm.driver.render()}' does not resolve", ofm, ofm.driver.render())

    cyclic = _leftover_cycle_members(gate_edges)
    if cyclic:
        add(Severity.ERROR, "cft-cycle", comp.name,
            "gates form a cycle: " + ", ".join(cyclic))


def _check(model: ArchitectureModel, add, *, check_names: bool = True) -> None:
    """The checks behind :func:`validate`, reported in its order to *add*.

    ``add(severity, code, element, message, about, name)`` gets each
    finding.  For the codes the parser rejects, *about* is the declaration
    object the finding is about (the repeat, for a duplicate) and *name* is
    the name that fails; ``textfmt.parse`` maps them back to source tokens.
    A false *check_names* skips the legal-name pattern, for a model whose
    names the text grammar already admitted.
    """
    if not model.layers:
        add(Severity.ERROR, "no-layers", "model", "no layers declared")
    if not model.components:
        add(Severity.ERROR, "no-components", "model", "no components declared")

    # Canonical order puts repeated layers, connections and dependencies
    # next to each other.  A repeated connection shares its in-port's index
    # entry, so only an index shorter than the connections needs bookkeeping.
    layers = model.layers
    for i, layer in enumerate(layers):
        if check_names:
            _check_name(add, "layer", layer)
        if i and layer == layers[i - 1]:
            add(Severity.ERROR, "duplicate-layer", layer, "layer declared twice", None, layer)

    known_layers = set(layers)
    components = model._components
    seen_comps: set[str] = set()
    for comp in model.components:
        if check_names:
            _check_name(add, "component", comp.name)
        if comp.name in seen_comps:
            add(Severity.ERROR, "duplicate-component", comp.name,
                "component declared twice", comp, comp.name)
        seen_comps.add(comp.name)
        if comp.layer not in known_layers:
            add(Severity.ERROR, "unknown-layer", comp.name,
                f"layer '{comp.layer}' is not declared", comp, comp.layer)
        ports = comp.in_ports + comp.out_ports
        distinct = set(ports)
        collides = len(distinct) < len(ports)
        counts = Counter(ports) if collides else None
        if check_names or counts is not None:
            for port in sorted(distinct):
                if check_names:
                    _check_name(add, "port", port, comp.name)
                if counts is not None and counts[port] > 1:
                    add(Severity.ERROR, "port-collision", f"{comp.name}.{port}",
                        "port name used more than once", comp, port)
        if comp.cft is not None:
            _validate_cft(comp, add, check_names, collides)

    connected = model._connections_into
    repeats = len(connected) < len(model.connections)
    previous = None
    for conn in model.connections:
        for side, end, port, outward in (("source", conn.from_component, conn.from_port, True),
                                         ("target", conn.to_component, conn.to_port, False)):
            comp = components.get(end)
            if comp is None:
                add(Severity.ERROR, "unknown-component", conn.render(),
                    f"{side} component '{end}' is not declared", conn, end)
            elif not _has(comp.out_ports if outward else comp.in_ports, port):
                if _has(comp.in_ports if outward else comp.out_ports, port):
                    add(Severity.ERROR, "wrong-port-direction", conn.render(),
                        f"{side} port '{end}.{port}' has the wrong direction")
                else:
                    add(Severity.ERROR, "unknown-port", conn.render(),
                        f"{side} port '{end}.{port}' is not declared", conn, f"{end}.{port}")
        if conn.from_component == conn.to_component:
            add(Severity.ERROR, "self-connection", conn.render(),
                "connection endpoints are on the same component")
        if repeats and conn == previous:
            add(Severity.ERROR, "duplicate-connection", conn.render(),
                "connection declared twice", conn, conn.render())
        previous = conn
    if repeats:
        incoming = Counter((c.to_component, c.to_port) for c in model.connections)
        for (comp_name, port), count in sorted(incoming.items()):
            if count > 1:
                add(Severity.ERROR, "inport-multiple-connections", f"{comp_name}.{port}",
                    f"in-port has {count} incoming connections")

    previous = None
    dep_edges = []
    for dep in model.dependencies:
        ends = (dep.dependent, dep.provider)
        known = True
        for end in ends:
            if end not in components:
                known = False
                add(Severity.ERROR, "unknown-component", dep.render(),
                    f"component '{end}' is not declared", dep, end)
        if dep.dependent == dep.provider:
            add(Severity.ERROR, "self-dependency", dep.render(),
                "component depends on itself")
        elif known:
            dep_edges.append(ends)
        if ends == previous:
            add(Severity.ERROR, "duplicate-dependency", dep.render(),
                "dependency declared twice", dep, dep.render())
        previous = ends
    cyclic = _leftover_cycle_members(dep_edges)
    if cyclic:
        add(Severity.ERROR, "dependency-cycle", "model",
            "components in dependency cycle: " + ", ".join(cyclic))

    for cc in model.common_causes:
        for ref in (cc.a, cc.b):
            comp = components.get(ref.component)
            if comp is None:
                add(Severity.ERROR, "unknown-event", ref.render(),
                    f"component '{ref.component}' is not declared", cc, ref.render())
            elif comp.cft is None or comp.cft.event(ref.event) is None:
                add(Severity.ERROR, "unknown-event", ref.render(),
                    "event is not declared", cc, ref.render())

    for comp in model.components:
        for port in comp.in_ports:
            if (comp.name, port) not in connected:
                add(Severity.WARNING, "unconnected-in-port", f"{comp.name}.{port}",
                    "in-port has no incoming connection")
    for provider in sorted({d.provider for d in model.dependencies}):
        comp = components.get(provider)
        if comp is not None and comp.cft is None:
            add(Severity.WARNING, "provider-no-cft", provider,
                "dependency provider has no fault tree")


def validate(model: ArchitectureModel) -> ValidationReport:
    """Check every structural invariant; never raises.

    Findings come out in a deterministic order: model-level checks first,
    then per-component checks in canonical component order, connections,
    dependencies, common causes, and finally warnings.

    A model returned by :func:`cftweave.textfmt.parse` carries the report
    of the checks parse already ran on it, and that report is returned
    as is; models are frozen, so it cannot go stale.  Any other model,
    including one from ``dataclasses.replace``, is checked afresh.
    """
    if model._report is not None:
        return model._report
    findings: list[Finding] = []

    def add(severity: Severity, code: str, element: str, message: str,
            about=None, name=None) -> None:
        findings.append(Finding(severity, code, element, message))

    _check(model, add)
    return ValidationReport(tuple(findings))
