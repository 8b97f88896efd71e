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

Repeated references to one output failure mode resolve to one shared
subgraph, so the result is a DAG.  The canonical text rendering still writes
a shared subtree out at every occurrence, so its length can grow
exponentially with depth, but it renders each shared subtree once, so its
time is linear in the unique nodes plus the bytes written.  Child order
follows the model's canonical order, so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError, SynthesisError
from .model import (
    ArchitectureModel,
    BasicEvent,
    Component,
    Gate,
    GateKind,
    InputFailureMode,
    NodeRef,
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
        component, sep, failure_mode = text.partition(".")
        if not sep or not component or not failure_mode:
            raise ValueError(
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


@dataclass(eq=False)
class FaultTree:
    """Single-rooted DAG of gates over basic-event and external leaves."""

    root: object
    top: TopEventRef

    def nodes(self) -> list:
        """All nodes in deterministic preorder, shared nodes once."""
        if self.root is None:
            return []
        seen: set[int] = set()
        out: list = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            out.append(node)
            if isinstance(node, FTGate):
                stack.extend(reversed(node.children))
        return out

    def leaves(self) -> list:
        return [n for n in self.nodes() if isinstance(n, FTLeaf)]

    def leaf_identities(self) -> tuple[str, ...]:
        return tuple(sorted({leaf.identity for leaf in self.leaves()}))

    def to_prefix_text(self) -> str:
        """Canonical nested-prefix rendering, e.g. ``OR(AND(x,y),z)``.

        Shared subtrees are written out at every occurrence, but each gate
        is rendered once: one explicit-stack walk lists the gates children
        first and counts their parent references, then each gate's text is
        built from its children's and kept until the last reference to it.
        """
        root = self.root
        if not isinstance(root, FTGate):
            return root.display
        uses: dict[int, int] = {}
        order: list[FTGate] = []
        stack = [root]
        iters = [iter(root.children)]
        while iters:
            for child in iters[-1]:
                if isinstance(child, FTGate):
                    key = id(child)
                    if key in uses:
                        uses[key] += 1
                    else:
                        uses[key] = 1
                        stack.append(child)
                        iters.append(iter(child.children))
                        break
            else:
                iters.pop()
                order.append(stack.pop())
        texts: dict[int, str] = {}
        for node in order:
            # one join builds the text, so no second copy of it is made
            parts = [node.kind.value + "("]
            for child in node.children:
                if isinstance(child, FTGate):
                    key = id(child)
                    left = uses[key] - 1
                    if left:
                        uses[key] = left
                        parts.append(texts[key])
                    else:
                        parts.append(texts.pop(key))
                else:
                    parts.append(child.display)
                parts.append(",")
            if node.children:
                parts[-1] = ")"
            else:
                parts.append(")")
            texts[id(node)] = "".join(parts)
        return texts[id(root)]


def _fallback_display(dependent: str, source) -> str:
    """Provider-qualified display used when dependent-qualified ones collide.

    The port suffix keeps same-named failure units of one provider apart.
    """
    text = f"{dependent}.{source.provider}.{source.name}"
    if source.port is not None:
        text += f"@{source.port}"
    return text


class _Expander:
    def __init__(self, model: ArchitectureModel, injections):
        self.model = model
        self.injections = injections
        self.identities = model.identity_map()
        self.memo: dict[tuple, object] = {}
        # frames being expanded, in stack order
        self.visiting: dict[str, None] = {}
        # wrapped leaves and their fallback display, used if two identities
        # would otherwise share one display name
        self.wrapped: list[tuple[object, str]] = []

    def _enter(self, frame: str) -> None:
        if frame in self.visiting:
            frames = list(self.visiting)
            cycle = frames[frames.index(frame):] + [frame]
            raise SynthesisError("propagation cycle: " + " -> ".join(cycle))
        self.visiting[frame] = None

    def expand_output_fm(self, comp: Component, ofm: OutputFailureMode):
        key = ("ofm", comp.name, ofm.name, ofm.port)
        if key in self.memo:
            return self.memo[key]
        frame = f"{comp.name}.{ofm.name}" + (f"@{ofm.port}" if ofm.port else "")
        self._enter(frame)
        try:
            node = self.expand_ref(comp, ofm.driver)
        finally:
            self.visiting.popitem()
        self.memo[key] = node
        return node

    def expand_ref(self, comp: Component, ref: NodeRef):
        target = comp.cft.resolve(ref)
        if target is None:
            raise SynthesisError(
                f"unresolved node reference '{ref.render()}' in component '{comp.name}'")
        if isinstance(target, BasicEvent):
            return self._event_leaf(comp, target)
        if isinstance(target, Gate):
            return self._gate(comp, target)
        return self._input_fm(comp, target)

    def _event_leaf(self, comp: Component, event: BasicEvent):
        key = ("event", comp.name, event.name)
        if key not in self.memo:
            identity = self.identities.get((comp.name, event.name))
            if identity is None:
                raise SynthesisError(f"unknown event '{comp.name}.{event.name}'")
            self.memo[key] = FTBasicEvent(identity=identity,
                                          display=f"{comp.name}.{event.name}")
        return self.memo[key]

    def _gate(self, comp: Component, gate: Gate):
        key = ("gate", comp.name, gate.name)
        if key in self.memo:
            return self.memo[key]
        self._enter(f"{comp.name}:{gate.name}")
        try:
            children = tuple(self.expand_ref(comp, ref) for ref in gate.inputs)
        finally:
            self.visiting.popitem()
        node = FTGate(gate.kind, children)
        self.memo[key] = node
        return node

    def _external(self, comp: Component, ifm: InputFailureMode):
        if ifm.port is not None:
            key = ("ext", comp.name, ifm.port, ifm.name)
            identity = f"ext@{comp.name}.{ifm.port}.{ifm.name}"
        else:
            key = ("ext-portless", comp.name, ifm.name)
            identity = f"ext@{comp.name}.{ifm.name}"
        if key not in self.memo:
            self.memo[key] = FTExternalEvent(
                component=comp.name, port=ifm.port, failure_mode=ifm.name,
                identity=identity, display=identity)
        return self.memo[key]

    def _input_fm(self, comp: Component, ifm: InputFailureMode):
        if ifm.port is not None:
            conn = self.model.connection_into(comp.name, ifm.port)
            if conn is None:
                return self._external(comp, ifm)
            upstream = self.model.component(conn.from_component)
            match = (upstream.cft.output_fm(ifm.name, conn.from_port)
                     if upstream.cft is not None else None)
            if match is None:
                raise SynthesisError(
                    f"unmatched failure mode: no output failure mode "
                    f"'{ifm.name}' at {conn.from_component}.{conn.from_port} "
                    f"(needed by {comp.name}.{ifm.port})")
            return self.expand_output_fm(upstream, match)

        source = self.injections.get((comp.name, ifm.name))
        if source is None:
            return self._external(comp, ifm)
        key = ("injection", comp.name, ifm.name)
        if key in self.memo:
            return self.memo[key]
        provider = self.model.component(source.provider)
        if source.kind == "basic-event":
            event = provider.cft.event(source.name) if provider.cft else None
            if event is None:
                raise SynthesisError(
                    f"stale provenance: provider event '{source.provider}.{source.name}'"
                    " is missing")
            node = FTBasicEvent(
                identity=self.identities[(provider.name, event.name)],
                display=f"{comp.name}.{source.name}")
            self.wrapped.append((node, _fallback_display(comp.name, source)))
        else:
            ofm = provider.cft.output_fm(source.name, source.port) if provider.cft else None
            if ofm is None:
                raise SynthesisError(
                    f"stale provenance: provider failure mode "
                    f"'{source.provider}.{source.name}' is missing")
            sub = self.expand_output_fm(provider, ofm)
            if isinstance(sub, FTBasicEvent):
                node = FTBasicEvent(identity=sub.identity,
                                    display=f"{comp.name}.{source.name}")
                self.wrapped.append((node, _fallback_display(comp.name, source)))
            elif isinstance(sub, FTExternalEvent):
                node = FTExternalEvent(
                    component=sub.component, port=sub.port,
                    failure_mode=sub.failure_mode, identity=sub.identity,
                    display=f"{comp.name}.{source.name}")
                self.wrapped.append((node, _fallback_display(comp.name, source)))
            else:
                node = sub
        self.memo[key] = node
        return node


def _resolve_display_collisions(tree: FaultTree, expander: _Expander) -> None:
    """Ensure the display-name to identity mapping is injective.

    Two injected leaves may end up with one display name (same dependent,
    same unit name, different providers); those fall back to a
    provider-qualified display.  Plain leaves cannot collide: their display
    is the owner-qualified event name.
    """
    by_display: dict[str, set[str]] = {}
    for leaf in tree.leaves():
        by_display.setdefault(leaf.display, set()).add(leaf.identity)
    colliding = {d for d, ids in by_display.items() if len(ids) > 1}
    if not colliding:
        return
    for leaf, fallback in expander.wrapped:
        if leaf.display in colliding:
            leaf.display = fallback
    check: dict[str, set[str]] = {}
    for leaf in tree.leaves():
        check.setdefault(leaf.display, set()).add(leaf.identity)
    still = {d for d, ids in check.items() if len(ids) > 1}
    if still:
        raise SynthesisError(
            "display names remain ambiguous after qualification: "
            + ", ".join(sorted(still)))


def synthesize(woven: WovenModel | ArchitectureModel,
               top: TopEventRef | str) -> FaultTree:
    """Build the monolithic fault tree for *top* from a woven model.

    The woven model is expected to validate without errors; a plain model is
    accepted for convenience and treats its port-less input failure modes as
    external events.
    """
    if isinstance(woven, WovenModel):
        model, injections = woven.model, woven.injection_map()
    else:
        model, injections = woven, {}
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

    expander = _Expander(model, injections)
    root = expander.expand_output_fm(comp, matches[0])
    tree = FaultTree(root=root, top=top)
    _resolve_display_collisions(tree, expander)
    return tree
