"""Exhaustive truth-table engine used by tests to certify transformations.

A whole table is computed in one pass by giving every variable a bitmask
over all ``2**n`` assignments and evaluating the Boolean structure on Python
integers (AND is ``&``, OR is ``|``, NOT is the masked complement).  Bit
``i`` of a variable's mask is its value in assignment ``i``, where bit ``k``
of ``i`` holds the value of the ``k``-th variable.

:func:`table_of_network` evaluates a component-fault-tree network directly,
resolving port connections and injection provenance on the fly, without any
help from the synthesizer; comparing its table against the synthesised
tree's and against the DNF of the reduced cutsets certifies the whole
pipeline.  Budgets are hard: more than 24 variables is an error, never a
silent sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError, OracleError
from .model import ArchitectureModel, BasicEvent, Component, Gate, GateKind, NodeRef
from .synthesizer import FaultTree, FTLeaf, TopEventRef
from .weaver import WovenModel

MAX_VARIABLES = 24


@dataclass(frozen=True)
class TruthTable:
    """Verdicts for all assignments over an ordered variable tuple."""

    variables: tuple[str, ...]
    bits: int

    def __post_init__(self):
        if len(self.variables) > MAX_VARIABLES:
            raise OracleError(
                f"identity budget exceeded: {len(self.variables)} > {MAX_VARIABLES}")

    @property
    def rows(self) -> int:
        return 1 << len(self.variables)

    def verdict(self, index: int) -> bool:
        if not 0 <= index < self.rows:
            raise OracleError(f"assignment index {index} out of range")
        return bool((self.bits >> index) & 1)


def equivalent(t1: TruthTable, t2: TruthTable) -> bool:
    """Bitwise equality of two tables over the same variable order."""
    if t1.variables != t2.variables:
        raise OracleError("leaf-order mismatch between truth tables")
    return t1.bits == t2.bits


def variable_masks(n: int) -> tuple[list[int], int]:
    """Per-variable assignment masks and the all-ones mask for n variables."""
    if n > MAX_VARIABLES:
        raise OracleError(f"identity budget exceeded: {n} > {MAX_VARIABLES}")
    masks: list[int] = []
    width = 1
    for _ in range(n):
        masks = [m | (m << width) for m in masks]
        masks.append(((1 << width) - 1) << width)
        width <<= 1
    return masks, (1 << width) - 1


def _find_top(model: ArchitectureModel, top: TopEventRef):
    try:
        comp = model.component(top.component)
    except ModelError:
        raise OracleError(f"unknown top event component '{top.component}'") from None
    if comp.cft is None:
        raise OracleError(f"component '{comp.name}' has no fault tree")
    matches = comp.cft.output_fms_named(top.failure_mode)
    if not matches:
        raise OracleError(f"unknown top event '{top.render()}'")
    if len(matches) > 1:
        raise OracleError(f"ambiguous top event '{top.render()}'")
    return comp, matches[0]


class _NetworkWalker:
    """Shared resolution rules for collecting atoms and evaluating masks."""

    def __init__(self, model: ArchitectureModel, injections):
        self.model = model
        self.injections = injections
        self.identities = model.identity_map()
        # frames being walked, in stack order
        self.visiting: dict[str, None] = {}

    def _enter(self, frame: str) -> None:
        if frame in self.visiting:
            frames = list(self.visiting)
            cycle = frames[frames.index(frame):] + [frame]
            raise OracleError("propagation cycle: " + " -> ".join(cycle))
        self.visiting[frame] = None

    def _leave(self) -> None:
        self.visiting.popitem()

    def external_atom(self, comp: Component, name: str, port: str | None) -> str:
        if port is not None:
            return f"ext@{comp.name}.{port}.{name}"
        return f"ext@{comp.name}.{name}"

    def resolve(self, comp: Component, ifm) -> tuple:
        """Classify an input failure mode.

        Returns ("external", atom), ("ofm", component, output_fm) or
        ("event", component, event).
        """
        if ifm.port is not None:
            conn = self.model.connection_into(comp.name, ifm.port)
            if conn is None:
                return ("external", self.external_atom(comp, ifm.name, ifm.port))
            upstream = self.model.component(conn.from_component)
            match = (upstream.cft.output_fm(ifm.name, conn.from_port)
                     if upstream.cft is not None else None)
            if match is None:
                raise OracleError(
                    f"unmatched failure mode '{ifm.name}' at "
                    f"{conn.from_component}.{conn.from_port}")
            return ("ofm", upstream, match)
        source = self.injections.get((comp.name, ifm.name))
        if source is None:
            return ("external", self.external_atom(comp, ifm.name, None))
        provider = self.model.component(source.provider)
        if source.kind == "basic-event":
            event = provider.cft.event(source.name) if provider.cft else None
            if event is None:
                raise OracleError(
                    f"stale provenance: '{source.provider}.{source.name}' missing")
            return ("event", provider, event)
        ofm = provider.cft.output_fm(source.name, source.port) if provider.cft else None
        if ofm is None:
            raise OracleError(
                f"stale provenance: '{source.provider}.{source.name}' missing")
        return ("ofm", provider, ofm)


def _collect_atoms(walker: _NetworkWalker, comp: Component, ofm) -> tuple[set, set]:
    basics: set[str] = set()
    externals: set[str] = set()
    seen: set[tuple] = set()

    def walk_ofm(component: Component, output_fm) -> None:
        key = ("ofm", component.name, output_fm.name, output_fm.port)
        if key in seen:
            return
        seen.add(key)
        frame = f"{component.name}.{output_fm.name}"
        walker._enter(frame + (f"@{output_fm.port}" if output_fm.port else ""))
        try:
            walk_ref(component, output_fm.driver)
        finally:
            walker._leave()

    def walk_ref(component: Component, ref: NodeRef) -> None:
        target = component.cft.resolve(ref)
        if target is None:
            raise OracleError(
                f"unresolved node reference '{ref.render()}' in '{component.name}'")
        if isinstance(target, BasicEvent):
            basics.add(walker.identities[(component.name, target.name)])
        elif isinstance(target, Gate):
            key = ("gate", component.name, target.name)
            if key in seen:
                return
            seen.add(key)
            walker._enter(f"{component.name}:{target.name}")
            try:
                for child in target.inputs:
                    walk_ref(component, child)
            finally:
                walker._leave()
        else:
            kind, *rest = walker.resolve(component, target)
            if kind == "external":
                externals.add(rest[0])
            elif kind == "event":
                provider, event = rest
                basics.add(walker.identities[(provider.name, event.name)])
            else:
                walk_ofm(*rest)

    walk_ofm(comp, ofm)
    return basics, externals


def _eval_network(walker: _NetworkWalker, comp: Component, ofm,
                  mask_of: dict[str, int], free_externals: bool) -> int:
    memo: dict[tuple, int] = {}

    def eval_ofm(component: Component, output_fm) -> int:
        key = ("ofm", component.name, output_fm.name, output_fm.port)
        if key in memo:
            return memo[key]
        walker._enter(f"{component.name}.{output_fm.name}"
                      + (f"@{output_fm.port}" if output_fm.port else ""))
        try:
            value = eval_ref(component, output_fm.driver)
        finally:
            walker._leave()
        memo[key] = value
        return value

    def eval_ref(component: Component, ref: NodeRef) -> int:
        target = component.cft.resolve(ref)
        if isinstance(target, BasicEvent):
            return mask_of[walker.identities[(component.name, target.name)]]
        if isinstance(target, Gate):
            key = ("gate", component.name, target.name)
            if key in memo:
                return memo[key]
            walker._enter(f"{component.name}:{target.name}")
            try:
                values = [eval_ref(component, child) for child in target.inputs]
            finally:
                walker._leave()
            if target.kind is GateKind.AND:
                value = mask_of["__full__"]
                for v in values:
                    value &= v
            elif target.kind is GateKind.OR:
                value = 0
                for v in values:
                    value |= v
            else:
                value = mask_of["__full__"] ^ values[0]
            memo[key] = value
            return value
        kind, *rest = walker.resolve(component, target)
        if kind == "external":
            atom = rest[0]
            return mask_of[atom] if free_externals else 0
        if kind == "event":
            provider, event = rest
            return mask_of[walker.identities[(provider.name, event.name)]]
        return eval_ofm(*rest)

    return eval_ofm(comp, ofm)


def table_of_network(model: ArchitectureModel | WovenModel,
                     top: TopEventRef | str,
                     external_policy: str = "free",
                     variables=None) -> TruthTable:
    """Truth table of a CFT network for one top event, without synthesis.

    ``external_policy`` decides whether unconnected inputs are free
    variables (``"free"``, the default) or pinned false (``"false"``).  An
    explicit ``variables`` order may be passed so several tables line up; it
    must cover every atom the network actually reaches.
    """
    if external_policy not in ("free", "false"):
        raise OracleError(f"unknown external policy '{external_policy}'")
    if isinstance(model, WovenModel):
        base, injections = model.model, model.injection_map()
    else:
        base, injections = model, {}
    if isinstance(top, str):
        top = TopEventRef.parse(top)

    comp, ofm = _find_top(base, top)
    walker = _NetworkWalker(base, injections)
    basics, externals = _collect_atoms(walker, comp, ofm)
    free = external_policy == "free"
    needed = basics | (externals if free else set())
    order = tuple(variables) if variables is not None else tuple(sorted(needed))
    missing = needed - set(order)
    if missing:
        raise OracleError("variables do not cover: " + ", ".join(sorted(missing)))

    masks, full = variable_masks(len(order))
    mask_of = dict(zip(order, masks))
    mask_of["__full__"] = full
    bits = _eval_network(walker, comp, ofm, mask_of, free)
    return TruthTable(order, bits)


def table_of_tree(tree: FaultTree, variables=None) -> TruthTable:
    """Truth table of a synthesised fault tree over its leaf identities."""
    needed = set(tree.leaf_identities())
    order = tuple(variables) if variables is not None else tuple(sorted(needed))
    missing = needed - set(order)
    if missing:
        raise OracleError("variables do not cover: " + ", ".join(sorted(missing)))
    masks, full = variable_masks(len(order))
    mask_of = dict(zip(order, masks))
    memo: dict[int, int] = {}

    def go(node) -> int:
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, FTLeaf):
            value = mask_of[node.identity]
        elif node.kind is GateKind.AND:
            value = full
            for child in node.children:
                value &= go(child)
        elif node.kind is GateKind.OR:
            value = 0
            for child in node.children:
                value |= go(child)
        else:
            value = full ^ go(node.children[0])
        memo[id(node)] = value
        return value

    return TruthTable(order, go(tree.root))


def table_of_cutsets(identity_sets, variables=None) -> TruthTable:
    """Truth table of a disjunction of conjunctions over event identities."""
    sets = [frozenset(s) for s in identity_sets]
    needed = set().union(*sets) if sets else set()
    order = tuple(variables) if variables is not None else tuple(sorted(needed))
    missing = needed - set(order)
    if missing:
        raise OracleError("variables do not cover: " + ", ".join(sorted(missing)))
    masks, full = variable_masks(len(order))
    mask_of = dict(zip(order, masks))
    bits = 0
    for s in sets:
        term = full
        for atom in sorted(s):
            term &= mask_of[atom]
        bits |= term
    return TruthTable(order, bits)
