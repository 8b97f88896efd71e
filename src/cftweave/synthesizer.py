"""Fault-tree synthesis: flatten a woven model for one top event.

Input failure modes bound to a connected in-port are replaced by the
upstream component's output failure mode of the same name on the connected
port; a missing match is an error rather than a silent drop.  Input failure
modes on unconnected in-ports, and port-less ones without provenance, become
external event leaves.  Port-less input failure modes created by weaving are
resolved through the provenance table; when such a reference boils down to a
single leaf it keeps the provider's event identity but takes a
dependent-qualified display name (``U1.Battery-omission``), which is what
later lets the analyzer both list the occurrence per dependent and collapse
common causes.

Resolution is one explicit-stack walk whose frames are gates and output
failure modes, so propagation depth is not bounded by the interpreter's
recursion limit.  Repeated references to one output failure mode resolve to
one shared subgraph, so the result is a DAG.  A :class:`FaultTree` reads its
nodes once, when it is built, and keeps every fact the analyses read, so
changing a node afterwards is not supported; a cyclic tree, a node that is
neither a gate nor a leaf, or a gate whose kind is not a :class:`GateKind`
or whose children are not a tuple, raises :class:`SynthesisError` there.  The text
rendering and the cutset folds are one fold over its gates, and the
oracle's evaluator is its own loop over its nodes.  The canonical text
rendering still writes a shared subtree out at every occurrence, so its
length can grow exponentially with depth, but it renders each shared gate
once, so its time is linear in the unique nodes plus the bytes written.
Child order follows the model's canonical order, so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .errors import AnalysisError, ModelError, SynthesisError
from .model import (
    ArchitectureModel,
    BasicEvent,
    Component,
    Gate,
    GateKind,
    InputFailureMode,
    OutputFailureMode,
)
from .weaver import WovenModel


@dataclass(frozen=True)
class TopEventRef:
    """Names the output failure mode under analysis."""

    component: str
    failure_mode: str

    @classmethod
    def parse(cls, text: str) -> "TopEventRef":
        """Read ``<component>.<failure-mode>``; raise SynthesisError otherwise."""
        component, sep, failure_mode = text.partition(".")
        if not sep or not component or not failure_mode:
            raise SynthesisError(
                f"top event must be '<component>.<failure-mode>', got {text!r}")
        return cls(component, failure_mode)

    def render(self) -> str:
        return f"{self.component}.{self.failure_mode}"


@dataclass(eq=False)
class FTGate:
    kind: GateKind
    children: tuple


@dataclass(eq=False)
class FTBasicEvent:
    identity: str
    display: str


@dataclass(eq=False)
class FTExternalEvent:
    """Failure behaviour outside the model, analysed as a pseudo-basic event."""

    component: str
    port: str | None
    failure_mode: str
    identity: str
    display: str


FTLeaf = (FTBasicEvent, FTExternalEvent)


@dataclass(frozen=True, eq=False)
class FaultTree:
    """Single-rooted DAG of gates over basic-event and external leaves.

    A tree reads its nodes once, when it is built, so changing a node
    afterwards is not supported.  That one explicit-stack walk keeps every
    fact the analyses read.  A node that is neither an :class:`FTGate` nor
    a leaf, a gate met below itself, a gate whose kind is not a
    :class:`GateKind` or whose children are not a tuple, and a leaf whose
    identity or display is not a ``str`` raise :class:`SynthesisError`.
    """

    root: object
    top: TopEventRef
    _nodes: tuple = field(init=False, repr=False)  # children first, the root last
    _parents: dict = field(init=False, repr=False)  # gate -> parents, in the same order
    _kinds: set = field(init=False, repr=False)  # the gate kinds present
    _identity_of: dict = field(init=False, repr=False)  # display -> first identity
    _display_of: dict = field(init=False, repr=False)  # identity -> display (itself if several)
    _ambiguous: tuple = field(init=False, repr=False)  # displays of several identities

    def __post_init__(self):
        nodes: list = []
        parents: dict[FTGate, int] = {}  # one per child slot; the root has 0
        kinds: set[GateKind] = set()
        identity_of: dict[str, str] = {}
        display_of: dict[str, str] = {}
        ambiguous: dict[str, None] = {}  # in the order met
        finished: dict[object, bool] = {}  # False while the gate is on the stack
        stack = [] if self.root is None else [(None, iter((self.root,)))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if isinstance(child, FTGate):
                    done = finished.get(child)
                    if done is None:
                        if not isinstance(child.kind, GateKind):
                            raise SynthesisError(
                                f"fault tree gate kind {child.kind!r} is not a GateKind")
                        if not isinstance(child.children, tuple):
                            raise SynthesisError("fault tree gate children of type "
                                                 f"{type(child.children).__name__} are not a tuple")
                        finished[child] = False
                        stack.append((child, iter(child.children)))
                        break
                    if not done:
                        raise SynthesisError("fault tree has a cycle")
                    parents[child] += 1
                elif not isinstance(child, FTLeaf):
                    raise SynthesisError(f"fault tree node of type {type(child).__name__}"
                                         " is neither a gate nor a leaf")
                elif child not in finished:
                    display, identity = child.display, child.identity
                    if not isinstance(identity, str):
                        raise SynthesisError(f"fault tree leaf identity {identity!r} is not a str")
                    if not isinstance(display, str):
                        raise SynthesisError(f"fault tree leaf display {display!r} is not a str")
                    finished[child] = True
                    nodes.append(child)
                    if identity_of.setdefault(display, identity) != identity:
                        ambiguous[display] = None
                    if display_of.setdefault(identity, display) != display:
                        display_of[identity] = identity
            else:
                stack.pop()
                if node is not None:
                    finished[node] = True
                    nodes.append(node)
                    parents[node] = 1 if len(stack) > 1 else 0
                    kinds.add(node.kind)
        object.__setattr__(self, "_nodes", tuple(nodes))
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_kinds", kinds)
        object.__setattr__(self, "_identity_of", identity_of)
        object.__setattr__(self, "_display_of", display_of)
        object.__setattr__(self, "_ambiguous", tuple(ambiguous))

    def nodes(self) -> tuple:
        """All nodes, shared ones once, children first: each node follows
        its children, and the root comes last."""
        return self._nodes

    def leaves(self) -> list:
        return [n for n in self._nodes if isinstance(n, FTLeaf)]

    def leaf_identities(self) -> tuple[str, ...]:
        return tuple(sorted(self._display_of))

    def _fold(self, leaf, gate):
        """The root's value, folded children first over the gates.

        ``leaf(node)`` gives a leaf's value at each use and ``gate(node,
        values, owned)`` a gate's from its children's values in child order.
        Each fold copies the parent counts kept at construction and drops a
        gate's value once its last parent is folded, so memory follows the
        values still needed, not every node's.  *owned* says that the first
        child is a gate folded here for the last time, so its value is no
        longer held anywhere else and *gate* may take it over and change it
        in place.  Gates compare by identity, so they key the dicts
        themselves.  An empty tree raises :class:`AnalysisError`.
        """
        root = self.root
        if root is None:
            raise AnalysisError("empty tree")
        if not isinstance(root, FTGate):
            return leaf(root)
        uses = self._parents.copy()  # parents not yet folded, per gate
        values: dict[FTGate, object] = {}
        for node in self._parents:
            kids = []
            owned = False
            for child in node.children:
                if isinstance(child, FTGate):
                    left = uses[child] - 1
                    if left:
                        uses[child] = left
                        kids.append(values[child])
                    else:
                        owned = owned or not kids
                        kids.append(values.pop(child))
                else:
                    kids.append(leaf(child))
            values[node] = gate(node, kids, owned)
        return values[root]

    def to_prefix_text(self) -> str:
        """Canonical nested-prefix rendering, e.g. ``OR(AND(x,y),z)``.

        Shared subtrees are written out at every occurrence, but each gate
        is rendered once, from its children's texts.
        """
        def gate(node, texts, _owned):
            # one join builds the text, so no second copy of it is made
            parts = [node.kind.value + "("]
            for text in texts:
                parts.append(text)
                parts.append(",")
            if texts:
                parts[-1] = ")"
            else:
                parts.append(")")
            return "".join(parts)

        return self._fold(attrgetter("display"), gate)


def _expand(model: ArchitectureModel, injections, comp: Component,
            ofm: OutputFailureMode):
    """The tree node of one output failure mode, and the wrapped leaves.

    One explicit-stack walk follows gates, port connections and injection
    provenance; gates and output failure modes are its frames, and the memo
    keys each by the name the cycle check uses.  Each gate, output failure
    mode, event, external input and injection is expanded once and shared.
    A wrapped leaf is an injected reference that came out as a single leaf;
    it is listed with its dependent and injection source, which give its
    fallback display if two identities would otherwise share one display.
    """
    memo: dict[str | tuple, object] = {}
    # names of the frames being expanded, in stack order
    visiting: dict[str, None] = {}
    wrapped: list[tuple] = []
    # (name, owner, gate or output failure mode, references left, child
    # nodes so far, injection the result stands for) of each frame
    stack: list[tuple] = []

    def inject(injection, node):
        """*node* as the injected failure mode *injection* stands for it."""
        key, dependent, source = injection
        if isinstance(node, FTLeaf):  # a copy under the dependent's name
            display = f"{dependent}.{source.name}"
            node = (FTBasicEvent(node.identity, display) if type(node) is FTBasicEvent
                    else FTExternalEvent(node.component, node.port, node.failure_mode,
                                         node.identity, display))
            wrapped.append((node, dependent, source))
        memo[key] = node
        return node

    def event_leaf(component: Component, event: BasicEvent):
        key = ("event", component.name, event.name)
        if key not in memo:
            memo[key] = FTBasicEvent(identity=model._identity(component.name, event.name),
                                     display=f"{component.name}.{event.name}")
        return memo[key]

    def external(component: Component, ifm: InputFailureMode):
        key = ("ext", component.name, ifm.port, ifm.name)
        if key not in memo:
            port = "" if ifm.port is None else f"{ifm.port}."
            identity = f"ext@{component.name}.{port}{ifm.name}"
            memo[key] = FTExternalEvent(
                component=component.name, port=ifm.port, failure_mode=ifm.name,
                identity=identity, display=identity)
        return memo[key]

    def enter(component: Component, item, injection=None):
        """The finished node of a gate or output failure mode, or None
        after pushing a frame for it."""
        if isinstance(item, Gate):
            frame = f"{component.name}:{item.name}"
            refs = item.inputs
        else:
            frame = f"{component.name}.{item.name}" + (f"@{item.port}" if item.port else "")
            refs = (item.driver,)
        if frame in memo:
            return memo[frame] if injection is None else inject(injection, memo[frame])
        if frame in visiting:
            frames = list(visiting)
            cycle = frames[frames.index(frame):] + [frame]
            raise SynthesisError("propagation cycle: " + " -> ".join(cycle))
        visiting[frame] = None
        stack.append((frame, component, item, iter(refs), [], injection))
        return None

    def input_fm(component: Component, ifm: InputFailureMode):
        if ifm.port is not None:
            conn = model.connection_into(component.name, ifm.port)
            if conn is None:
                return external(component, ifm)
            upstream = model.component(conn.from_component)
            match = (upstream.cft.output_fm(ifm.name, conn.from_port)
                     if upstream.cft is not None else None)
            if match is None:
                raise SynthesisError(
                    f"unmatched failure mode: no output failure mode "
                    f"'{ifm.name}' at {conn.from_component}.{conn.from_port} "
                    f"(needed by {component.name}.{ifm.port})")
            return enter(upstream, match)
        source = injections.get(ifm.name, {}).get(component.name)
        if source is None:
            return external(component, ifm)
        key = ("injection", component.name, ifm.name)
        if key in memo:
            return memo[key]
        injection = (key, component.name, source)
        provider = model.component(source.provider)
        if source.kind == "basic-event":
            event = provider.cft.event(source.name) if provider.cft else None
            if event is None:
                raise SynthesisError(
                    f"stale provenance: provider event '{source.provider}.{source.name}'"
                    " is missing")
            return inject(injection, event_leaf(provider, event))
        ofm = provider.cft.output_fm(source.name, source.port) if provider.cft else None
        if ofm is None:
            raise SynthesisError(
                f"stale provenance: provider failure mode "
                f"'{source.provider}.{source.name}' is missing")
        return enter(provider, ofm, injection)

    enter(comp, ofm)
    while True:
        frame, component, item, refs, children, injection = stack[-1]
        for ref in refs:
            target = component.cft.resolve(ref)
            if target is None:
                raise SynthesisError(f"unresolved node reference '{ref.render()}' "
                                     f"in component '{component.name}'")
            if isinstance(target, BasicEvent):
                node = event_leaf(component, target)
            elif isinstance(target, Gate):
                node = enter(component, target)
            else:
                node = input_fm(component, target)
            if node is None:
                break
            children.append(node)
        else:
            stack.pop()
            visiting.popitem()
            node = (FTGate(item.kind, tuple(children)) if isinstance(item, Gate)
                    else children[0])
            memo[frame] = node
            if injection is not None:
                node = inject(injection, node)
            if not stack:
                return node, wrapped
            stack[-1][4].append(node)


def synthesize(woven: WovenModel | ArchitectureModel,
               top: TopEventRef | str) -> FaultTree:
    """Build the monolithic fault tree for *top* from a woven model.

    The woven model is expected to validate without errors; a plain model is
    accepted for convenience and treats its port-less input failure modes as
    external events.
    """
    if not isinstance(woven, WovenModel):
        woven = WovenModel(woven)
    model = woven.model
    if isinstance(top, str):
        top = TopEventRef.parse(top)

    try:
        comp = model.component(top.component)
    except ModelError:
        raise SynthesisError(f"unknown top event component '{top.component}'") from None
    if comp.cft is None:
        raise SynthesisError(f"component '{comp.name}' has no fault tree")
    matches = comp.cft.output_fms_named(top.failure_mode)
    if not matches:
        raise SynthesisError(f"unknown top event '{top.render()}'")
    if len(matches) > 1:
        ports = ", ".join(str(o.port) for o in matches)
        raise SynthesisError(
            f"ambiguous top event '{top.render()}': declared on ports {ports}")

    root, wrapped = _expand(model, woven._injections, comp, matches[0])
    tree = FaultTree(root=root, top=top)
    if tree._ambiguous:
        # Only injected leaves can collide (same dependent and unit name, two
        # providers).  They take a provider-qualified display, where the port
        # keeps same-named failure units of one provider apart, and a new
        # tree reads the displays.
        for leaf, dependent, source in wrapped:
            if leaf.display in tree._ambiguous:
                leaf.display = f"{dependent}.{source.provider}.{source.name}"
                if source.port is not None:
                    leaf.display += f"@{source.port}"
        tree = FaultTree(root=root, top=top)
        if tree._ambiguous:
            raise SynthesisError("display names remain ambiguous after qualification: "
                                 + ", ".join(sorted(tree._ambiguous)))
    return tree
