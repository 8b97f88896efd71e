"""Cross-layer failure-dependency weaving.

For every component ``c`` with failure dependencies, every output failure
mode of ``c`` is supplemented: its driver becomes an OR of the original
driver plus one reference per failure unit of each provider.  A provider's
failure units are its output failure modes when it exposes any (ported or
port-less alike), otherwise its basic events; a provider with neither is an
error.  The references are materialised as port-less input failure modes in
the dependent's fault tree, created once per (dependent, provider, unit) and
shared by all of the dependent's output failure modes.  The provenance table
records what each injected node points at; synthesis resolves them through
it, and fault trees reached this way keep the provider's event identities.

Weaving is a pure derivation: the input model is never modified, components
without dependencies are copied unchanged, and the supplement only ever
widens an output failure mode, so the woven model over-approximates the
original.  Re-weaving a woven model only duplicates disjuncts, which is
Boolean-idempotent.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import WeaveError
from .model import (
    ArchitectureModel,
    Component,
    ComponentFaultTree,
    Gate,
    GateKind,
    InputFailureMode,
    NodeRef,
    OutputFailureMode,
    _index,
)


@dataclass(frozen=True)
class InjectionSource:
    """What one injected node stands for inside a provider's fault tree."""

    provider: str
    kind: str  # "output-fm" or "basic-event"
    name: str
    port: str | None = None


@dataclass(frozen=True)
class ProvenanceEntry:
    """One injected node: where it lives and what it references."""

    component: str
    node: str
    source: InjectionSource


@dataclass(frozen=True)
class WovenModel:
    """A derived model plus the provenance of every injected disjunct."""

    model: ArchitectureModel
    provenance: tuple[ProvenanceEntry, ...] = ()
    # injected node name -> dependent -> source.  The dependents of one
    # provider share its node names (``from-B-...``), so keying by name
    # first needs one inner dict per name and no key tuple per node.
    _injections: dict[str, dict[str, InjectionSource]] = _index()

    def __post_init__(self):
        injections: dict[str, dict[str, InjectionSource]] = {}
        for e in self.provenance:
            injections.setdefault(e.node, {})[e.component] = e.source
        object.__setattr__(self, "_injections", injections)

    def sidecar_lines(self) -> tuple[str, ...]:
        """Tab-separated provenance rows: injected-node, provider, dependent."""
        rows = ["injected-node\tprovider\tdependent"]
        rows.extend(f"{e.component}.{e.node}\t{e.source.provider}\t{e.component}"
                    for e in self.provenance)
        return tuple(rows)


def _failure_units(provider: Component) -> tuple[InjectionSource, ...]:
    cft = provider.cft
    if cft is not None and cft.output_fms:
        return tuple(InjectionSource(provider.name, "output-fm", o.name, o.port)
                     for o in cft.output_fms)
    if cft is not None and cft.events:
        return tuple(InjectionSource(provider.name, "basic-event", e.name)
                     for e in cft.events)
    raise WeaveError(f"dependency provider '{provider.name}' has empty failure behavior")


def _provider_first_order(model: ArchitectureModel) -> list[str]:
    """Component names with providers before their dependents, canonical
    tie-break.  Only affects provenance ordering, not the woven result.

    A depth-first walk with an explicit stack, so chains of any length work.
    """
    order: list[str] = []
    done: set[str] = set()
    # components on the walk's stack, in stack order, each with the
    # iterator over its providers
    active: dict[str, Iterator[str]] = {}

    for comp in model.components:
        if comp.name in done:
            continue
        active[comp.name] = iter(model.providers_of(comp.name))
        while active:
            name = next(reversed(active))
            for provider in active[name]:
                if provider in done or not model.has_component(provider):
                    continue
                if provider in active:
                    names = list(active)
                    cycle = names[names.index(provider):] + [provider]
                    raise WeaveError("alfred dependency cycle: " + " -> ".join(cycle))
                active[provider] = iter(model.providers_of(provider))
                break
            else:
                del active[name]
                done.add(name)
                order.append(name)
    return order


def _unique(candidate: str, taken: set[str]) -> str:
    if candidate not in taken:
        return candidate
    k = 2
    while f"{candidate}-{k}" in taken:
        k += 1
    return f"{candidate}-{k}"


def weave(model: ArchitectureModel | WovenModel) -> WovenModel:
    """Apply the failure-dependency supplement to every dependent component.

    Accepts a plain model or an already-woven one; in the second case the
    existing provenance is kept and extended, so the injected nodes of the
    first round still resolve.
    """
    if isinstance(model, WovenModel):
        base, entries = model.model, list(model.provenance)
    else:
        base, entries = model, []

    components = {c.name: c for c in base.components}
    # each provider's failure units, built once and shared by its dependents
    units_of: dict[str, tuple[InjectionSource, ...]] = {}
    # each injected node name's input failure mode and reference, made once
    # and shared by every dependent that gets that name
    injected: dict[str, tuple[InputFailureMode, NodeRef]] = {}
    for name in _provider_first_order(base):
        comp = components[name]
        providers = base.providers_of(name)
        if not providers:
            continue
        if comp.cft is None or not comp.cft.output_fms:
            continue
        units: list[InjectionSource] = []
        for provider in providers:
            if provider not in components:
                raise WeaveError(f"dependency provider '{provider}' is not declared")
            if provider not in units_of:
                units_of[provider] = _failure_units(base.component(provider))
            units.extend(units_of[provider])

        cft = comp.cft
        taken = {e.name for e in cft.events}
        taken.update(g.name for g in cft.gates)
        taken.update(i.name for i in cft.input_fms)
        new_infms: list[InputFailureMode] = []
        injected_refs: list[NodeRef] = []
        for unit in units:
            node_name = _unique(f"from-{unit.provider}-{unit.name}", taken)
            taken.add(node_name)
            node = injected.get(node_name)
            if node is None:
                node = injected[node_name] = (InputFailureMode(node_name), NodeRef(node_name))
            new_infms.append(node[0])
            injected_refs.append(node[1])
            entries.append(ProvenanceEntry(name, node_name, unit))

        new_gates: list[Gate] = []
        new_outfms: list[OutputFailureMode] = []
        for ofm in cft.output_fms:
            candidate = f"woven-{ofm.name}" + (f"-{ofm.port}" if ofm.port else "")
            gate_name = _unique(candidate, taken)
            taken.add(gate_name)
            new_gates.append(Gate(gate_name, GateKind.OR,
                                  (ofm.driver, *injected_refs)))
            new_outfms.append(OutputFailureMode(ofm.name, ofm.port, NodeRef(gate_name)))

        woven_cft = ComponentFaultTree(
            events=cft.events,
            gates=cft.gates + tuple(new_gates),
            input_fms=cft.input_fms + tuple(new_infms),
            output_fms=tuple(new_outfms),
        )
        components[name] = Component(comp.name, comp.layer, comp.in_ports, comp.out_ports,
                                     woven_cft)

    woven = ArchitectureModel(base.layers, tuple(components.values()), base.connections,
                              base.dependencies, base.common_causes)
    return WovenModel(model=woven, provenance=tuple(entries))
