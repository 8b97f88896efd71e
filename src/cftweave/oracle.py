"""Exhaustive truth-table engine used by tests to certify transformations.

A whole table is computed in one pass by giving every variable a bitmask
over all ``2**n`` assignments and evaluating the Boolean structure on Python
integers (AND is ``&``, OR is ``|``, NOT is the masked complement).  Bit
``i`` of a variable's mask is its value in assignment ``i``, where bit ``k``
of ``i`` holds the value of the ``k``-th variable.

:func:`table_of_network` resolves a component-fault-tree network in one
explicit-stack walk of its own (port connections, injection provenance, and
unconnected inputs, which are always free variables) into a DAG of gates
and leaves, without any help from the synthesizer, and lists its nodes as
it finishes them.  That list, a synthesised tree's children-first node
list and the leaves, ANDs and OR of a cutset list are all evaluated by one
loop, so depth is not bounded by the recursion limit.  Comparing the
network's table against the synthesised tree's and against the DNF of the
reduced cutsets certifies the whole pipeline.  Budgets are hard: more than
24 variables is an error, never a silent sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError, OracleError
from .model import ArchitectureModel, BasicEvent, Component, Gate, GateKind
from .synthesizer import FaultTree, FTBasicEvent, FTGate, FTLeaf, TopEventRef
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


def _input_source(model: ArchitectureModel, injections, comp: Component, ifm):
    """What an input failure mode stands for.

    Returns a leaf identity (an external input or an injected basic event),
    or the ``(component, output failure mode)`` pair it is wired or injected
    from.
    """
    if ifm.port is not None:
        conn = model.connection_into(comp.name, ifm.port)
        if conn is None:
            return f"ext@{comp.name}.{ifm.port}.{ifm.name}"
        upstream = model.component(conn.from_component)
        match = (upstream.cft.output_fm(ifm.name, conn.from_port)
                 if upstream.cft is not None else None)
        if match is None:
            raise OracleError(
                f"unmatched failure mode '{ifm.name}' at "
                f"{conn.from_component}.{conn.from_port}")
        return upstream, match
    source = injections.get(ifm.name, {}).get(comp.name)
    if source is None:
        return f"ext@{comp.name}.{ifm.name}"
    provider = model.component(source.provider)
    if source.kind == "basic-event":
        event = provider.cft.event(source.name) if provider.cft else None
        if event is None:
            raise OracleError(
                f"stale provenance: '{source.provider}.{source.name}' missing")
        return model._identity(provider.name, event.name)
    ofm = provider.cft.output_fm(source.name, source.port) if provider.cft else None
    if ofm is None:
        raise OracleError(
            f"stale provenance: '{source.provider}.{source.name}' missing")
    return provider, ofm


def _resolve_network(model: ArchitectureModel, injections,
                     comp: Component, ofm) -> tuple[list, set[str]]:
    """Resolve the network under one output failure mode into a DAG.

    One explicit-stack walk follows gates, port connections and injection
    provenance.  Each gate becomes one shared :class:`FTGate`, an output
    failure mode stands for its driver's node, and each distinct leaf
    identity becomes one :class:`FTBasicEvent`.  Returns every node,
    children first and the root last, and the set of leaf identities.
    Raises as soon as a distinct identity past the table budget appears,
    before the rest of the network is walked.
    """
    leaves: dict[str, FTBasicEvent] = {}
    # each node as it is finished, so children come before their parents
    nodes: list = []
    done: dict[str, object] = {}
    # names of the frames being walked, in stack order
    visiting: dict[str, None] = {}
    # (name, owner, gate or output failure mode, references left, child
    # nodes so far) of each frame being walked
    stack: list[tuple] = []

    def leaf(identity: str) -> FTBasicEvent:
        if identity not in leaves:
            if len(leaves) == MAX_VARIABLES:
                # no table could hold this network, whatever order is asked for
                raise OracleError(f"identity budget exceeded: {len(leaves) + 1} > "
                                  f"{MAX_VARIABLES}")
            leaves[identity] = FTBasicEvent(identity=identity, display=identity)
            nodes.append(leaves[identity])
        return leaves[identity]

    def enter(component: Component, item):
        """The finished node of a gate or output failure mode, or None
        after pushing a frame for it."""
        if isinstance(item, Gate):
            frame = f"{component.name}:{item.name}"
            refs = item.inputs
        else:
            frame = f"{component.name}.{item.name}" + (f"@{item.port}" if item.port else "")
            refs = (item.driver,)
        if frame in done:
            return done[frame]
        if frame in visiting:
            frames = list(visiting)
            cycle = frames[frames.index(frame):] + [frame]
            raise OracleError("propagation cycle: " + " -> ".join(cycle))
        visiting[frame] = None
        stack.append((frame, component, item, iter(refs), []))
        return None

    enter(comp, ofm)
    while True:
        frame, component, item, refs, children = stack[-1]
        for ref in refs:
            target = component.cft.resolve(ref)
            if target is None:
                raise OracleError(
                    f"unresolved node reference '{ref.render()}' in '{component.name}'")
            if isinstance(target, BasicEvent):
                node = leaf(model._identity(component.name, target.name))
            elif isinstance(target, Gate):
                node = enter(component, target)
            else:
                source = _input_source(model, injections, component, target)
                node = leaf(source) if isinstance(source, str) else enter(*source)
            if node is None:
                break
            children.append(node)
        else:
            stack.pop()
            visiting.popitem()
            if isinstance(item, Gate):
                node = FTGate(item.kind, tuple(children))
                nodes.append(node)
            else:
                node = children[0]
            done[frame] = node
            if not stack:
                return nodes, set(leaves)
            stack[-1][4].append(node)


def _evaluate(nodes, mask_of: dict[str, int], full: int) -> int:
    """Bitmask of the last of *nodes*, a children-first list of
    :class:`FTGate` and leaf nodes."""
    values: dict[int, int] = {}
    for node in nodes:
        if isinstance(node, FTLeaf):
            value = mask_of[node.identity]
        elif node.kind is GateKind.AND:
            value = full
            for child in node.children:
                value &= values[id(child)]
        elif node.kind is GateKind.OR:
            value = 0
            for child in node.children:
                value |= values[id(child)]
        else:
            value = full ^ values[id(node.children[0])]
        values[id(node)] = value
    return value


def _table(nodes, needed: set[str], variables) -> TruthTable:
    """Evaluate the last of *nodes* over *variables*, or over *needed* sorted."""
    order = tuple(variables) if variables is not None else tuple(sorted(needed))
    missing = needed - set(order)
    if missing:
        raise OracleError("variables do not cover: " + ", ".join(sorted(missing)))
    masks, full = variable_masks(len(order))
    return TruthTable(order, _evaluate(nodes, dict(zip(order, masks)), full))


def table_of_network(model: ArchitectureModel | WovenModel,
                     top: TopEventRef | str,
                     variables=None) -> TruthTable:
    """Truth table of a CFT network for one top event, without synthesis.

    Unconnected inputs are free variables.  An explicit ``variables`` order
    may be passed so several tables line up; it must cover every atom the
    network actually reaches.
    """
    if not isinstance(model, WovenModel):
        model = WovenModel(model)
    if isinstance(top, str):
        top = TopEventRef.parse(top)
    comp, ofm = _find_top(model.model, top)
    nodes, needed = _resolve_network(model.model, model._injections, comp, ofm)
    return _table(nodes, needed, variables)


def table_of_tree(tree: FaultTree, variables=None) -> TruthTable:
    """Truth table of a synthesised fault tree over its leaf identities."""
    if tree.root is None:
        raise OracleError("empty tree")
    identities = {node.identity for node in tree.nodes() if isinstance(node, FTLeaf)}
    return _table(tree.nodes(), identities, variables)


def table_of_cutsets(identity_sets, variables=None) -> TruthTable:
    """Truth table of a disjunction of conjunctions over event identities."""
    sets = [frozenset(s) for s in identity_sets]
    leaves = {a: FTBasicEvent(identity=a, display=a) for a in set().union(*sets)}
    ands = [FTGate(GateKind.AND, tuple(leaves[a] for a in s)) for s in sets]
    return _table([*leaves.values(), *ands, FTGate(GateKind.OR, tuple(ands))],
                  set(leaves), variables)
