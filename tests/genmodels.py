"""Seeded random model generator for property and acceptance tests.

Generated models are valid by construction: connections run from earlier to
later components (so failure propagation is acyclic), every connected input
failure mode has a matching upstream output failure mode, dependency edges
point from later to earlier components, and providers always expose failure
behaviour.  The identity budget (basic events plus external inputs) is
capped so exhaustive oracle sweeps stay cheap.

:func:`wide`, :func:`chain` and :func:`lattice` are the scalable families
the benchmark times, parsed from the text that ``perfbench/families.py``
writes for them at a fixed seed, for tests whose expected trees and
cutsets follow in closed form from the family's structure;
:func:`alfred_chain` builds a dependency chain of any depth.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from cftweave import (
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
    TopEventRef,
    parse,
)

# appended, not prepended: perfbench/ also holds modules named run,
# pipeline and record, which must not shadow any other
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402

FM_NAMES = ("loss-of", "stuck", "late-output")
BATTERY = families.BATTERY


def random_model(seed: int, max_components: int = 6, max_identities: int = 12,
                 allow_not: bool = False) -> tuple[ArchitectureModel, list[TopEventRef]]:
    """Build a deterministic pseudo-random model and its analysable top events."""
    rng = random.Random(seed)
    layers = tuple(f"L{i}" for i in range(rng.randint(1, 2)))
    n_comps = rng.randint(2, max_components)
    identities = 0

    specs = []
    for i in range(n_comps):
        spec = {
            "name": f"C{i}",
            "layer": layers[rng.randrange(len(layers))],
            "in_ports": [],
            "out_ports": [],
            "events": [],
            "gates": [],
            "infms": [],
            "outfms": [],
        }
        for j in range(rng.randint(0, 2)):
            if identities >= max_identities:
                break
            spec["events"].append(f"e{j}")
            identities += 1
        specs.append(spec)

    connections: list[PortConnection] = []
    for i, spec in enumerate(specs):
        upstream = [(j, name, port)
                    for j in range(i)
                    for (name, port, _) in specs[j]["outfms"]
                    if port is not None]
        rng.shuffle(upstream)
        for j, fm_name, out_port in upstream[:rng.randint(0, 2)]:
            port = f"i{len(spec['in_ports'])}"
            spec["in_ports"].append(port)
            connections.append(PortConnection(specs[j]["name"], out_port,
                                              spec["name"], port))
            if rng.random() < 0.85:
                spec["infms"].append((fm_name, port))
        if identities < max_identities and rng.random() < 0.4:
            port = f"i{len(spec['in_ports'])}"
            spec["in_ports"].append(port)
            spec["infms"].append((rng.choice(FM_NAMES), port))
            identities += 1
        if identities < max_identities and rng.random() < 0.2:
            spec["infms"].append((f"x{len(spec['infms'])}", None))
            identities += 1

        sources = [NodeRef(e) for e in spec["events"]]
        sources += [NodeRef(n, p) for n, p in spec["infms"]]
        n_out = rng.randint(0, 2)
        if n_out and not sources:
            if identities < max_identities:
                spec["events"].append("e0")
                identities += 1
                sources = [NodeRef("e0")]
            else:
                n_out = 0

        def build_expr(depth: int) -> NodeRef:
            if depth >= 2 or rng.random() < 0.45:
                return rng.choice(sources)
            kinds = [GateKind.AND, GateKind.OR]
            if allow_not:
                kinds.append(GateKind.NOT)
            kind = rng.choice(kinds)
            arity = 1 if kind is GateKind.NOT else rng.randint(1, 3)
            children = tuple(build_expr(depth + 1) for _ in range(arity))
            gate_name = f"g{len(spec['gates'])}"
            spec["gates"].append((gate_name, kind, children))
            return NodeRef(gate_name)

        fm_pool = list(FM_NAMES)
        rng.shuffle(fm_pool)
        for _ in range(n_out):
            name = fm_pool.pop()
            port = None
            if rng.random() < 0.75:
                port = f"o{len(spec['out_ports'])}"
                spec["out_ports"].append(port)
            spec["outfms"].append((name, port, build_expr(0)))

    if not any(spec["outfms"] for spec in specs):
        spec = specs[-1]
        if not spec["events"]:
            spec["events"].append("e0")
        spec["outfms"].append((FM_NAMES[0], None, NodeRef(spec["events"][0])))

    dependencies = []
    for i in range(n_comps):
        for j in range(i):
            if rng.random() < 0.22 and (specs[j]["outfms"] or specs[j]["events"]):
                dependencies.append(AlfredDependency(specs[i]["name"], specs[j]["name"]))

    causes = []
    all_events = [(s["name"], e) for s in specs for e in s["events"]]
    if len(all_events) >= 2 and rng.random() < 0.3:
        a, b = rng.sample(all_events, 2)
        if a[0] != b[0]:
            causes.append(CommonCause(EventRef(*a), EventRef(*b)))

    components = []
    for spec in specs:
        cft = None
        if spec["events"] or spec["gates"] or spec["infms"] or spec["outfms"]:
            cft = ComponentFaultTree(
                events=tuple(BasicEvent(e) for e in spec["events"]),
                gates=tuple(Gate(n, k, refs) for n, k, refs in spec["gates"]),
                input_fms=tuple(InputFailureMode(n, p) for n, p in spec["infms"]),
                output_fms=tuple(OutputFailureMode(n, p, d) for n, p, d in spec["outfms"]),
            )
        components.append(Component(
            name=spec["name"], layer=spec["layer"],
            in_ports=tuple(spec["in_ports"]), out_ports=tuple(spec["out_ports"]),
            cft=cft))

    model = ArchitectureModel(
        layers=layers,
        components=tuple(components),
        connections=tuple(connections),
        dependencies=tuple(dependencies),
        common_causes=tuple(causes),
    )
    tops = [TopEventRef(spec["name"], name)
            for spec in specs for (name, _, _) in spec["outfms"]]
    return model, tops


def _family(case: families.Case) -> tuple[ArchitectureModel, TopEventRef]:
    return parse(case.text), TopEventRef.parse(case.tops[0])


def wide(n: int, kind: GateKind) -> tuple[ArchitectureModel, TopEventRef]:
    """n sensors ``S{k}`` (events ``f``, ``g`` under an OR) feed one *kind*
    gate in ``T``; every sensor ``alfred``-depends on battery ``B``."""
    return _family(families.wide(n, kind.value, random.Random(0)))


def chain(n: int) -> tuple[ArchitectureModel, TopEventRef]:
    """``C0 -> C1 -> ... -> C{n-1}`` by ports: each stage ORs its input
    failure with its own event ``e``; every stage ``alfred``-depends on
    battery ``B``.  Propagation depth grows with n."""
    return _family(families.chain(n, random.Random(0)))


def lattice(n: int) -> tuple[ArchitectureModel, TopEventRef]:
    """``L{k}`` feeds ``L{k+1}`` through two ports driven by one gate, which
    ORs both inputs with the stage's event ``e``.  The fault tree has n
    gates and n leaves, but each stage's subtree occurs twice in the next,
    so its prefix text doubles per stage."""
    return _family(families.lattice(n, random.Random(0)))


def alfred_chain(n: int) -> ArchitectureModel:
    """``C00000 -> C00001 -> ...`` by ``alfred`` edges, each component with
    one event and one port-less output failure mode.  Canonical order lists
    every dependent before its provider, so a provider-first walk from the
    first component goes n deep."""
    names = [f"C{k:05d}" for k in range(n)]
    cft = ComponentFaultTree(events=(BasicEvent("e"),),
                             output_fms=(OutputFailureMode("fail", None, NodeRef("e")),))
    return ArchitectureModel(
        layers=("l",),
        components=tuple(Component(name, "l", cft=cft) for name in names),
        dependencies=tuple(AlfredDependency(a, b) for a, b in zip(names, names[1:])),
    )
