"""Weaving: supplement structure, provenance, purity, fallback, stability."""

import pytest

from cftweave import (
    AlfredDependency,
    ArchitectureModel,
    BasicEvent,
    Component,
    ComponentFaultTree,
    GateKind,
    InputFailureMode,
    NodeRef,
    OutputFailureMode,
    WeaveError,
    cutsets,
    equivalent,
    parse,
    serialize,
    synthesize,
    table_of_network,
    validate,
    weave,
)
from cftweave import weaver

import genmodels


def test_fig2_supplement_structure(fig2):
    woven = weave(fig2)
    f1 = woven.model.component("f1")
    ofm = f1.cft.output_fm("loss-of", "p3")
    gate = f1.cft.resolve(ofm.driver)
    assert gate.kind is GateKind.OR
    assert gate.inputs == (NodeRef("and1"),
                           NodeRef("from-CPU-loss-of"),
                           NodeRef("from-RAM-loss-of"))
    for name in ("from-CPU-loss-of", "from-RAM-loss-of"):
        assert isinstance(f1.cft.resolve(NodeRef(name)), InputFailureMode)


def test_fig2_provenance_rows(fig2):
    woven = weave(fig2)
    rows = [(e.component, e.node, e.source.provider, e.source.kind, e.source.name)
            for e in woven.provenance]
    assert rows == [
        ("f1", "from-CPU-loss-of", "CPU", "output-fm", "loss-of"),
        ("f1", "from-RAM-loss-of", "RAM", "output-fm", "loss-of"),
        ("f2", "from-RAM-loss-of", "RAM", "output-fm", "loss-of"),
    ]
    assert woven.sidecar_lines()[0] == "injected-node\tprovider\tdependent"
    assert woven.sidecar_lines()[1] == "f1.from-CPU-loss-of\tCPU\tf1"


def test_every_injected_node_has_provenance(fig2, vehicle):
    for model in (fig2, vehicle):
        woven = weave(model)
        injected = {(c.name, i.name)
                    for c in woven.model.components if c.cft
                    for i in c.cft.input_fms if i.port is None}
        original = {(c.name, i.name)
                    for c in model.components if c.cft
                    for i in c.cft.input_fms if i.port is None}
        assert injected - original == {(c, node) for node, dependents
                                       in woven._injections.items() for c in dependents}


def test_injection_index_is_outside_repr_eq_and_hash(fig2):
    woven = weave(fig2)
    assert "_injections" not in repr(woven)
    rebuilt = type(woven)(woven.model, woven.provenance)
    assert rebuilt == woven and hash(rebuilt) == hash(woven)


def test_components_without_dependencies_unchanged(fig2):
    woven = weave(fig2)
    assert woven.model.component("CPU").cft == fig2.component("CPU").cft
    assert woven.model.component("RAM").cft == fig2.component("RAM").cft


def test_weave_is_pure_and_deterministic(fig2):
    snapshot = serialize(fig2)
    first = weave(fig2)
    second = weave(fig2)
    assert serialize(fig2) == snapshot
    assert first == second


def test_provider_with_empty_failure_behaviour_is_an_error():
    model = parse(
        "layer l\n\n"
        "component app in l {\n  event crash\n  outfm down = crash\n}\n\n"
        "component hw in l {\n  in p\n}\n\n"
        "alfred app -> hw\n")
    with pytest.raises(WeaveError, match="empty failure behavior"):
        weave(model)


def test_provider_events_fallback_when_no_output_fms():
    model = parse(
        "layer l\n\n"
        "component app in l {\n  event crash\n  outfm down = crash\n}\n\n"
        "component hw in l {\n  event burn\n}\n\n"
        "alfred app -> hw\n")
    woven = weave(model)
    (entry,) = woven.provenance
    assert (entry.component, entry.source.kind, entry.source.name) == \
        ("app", "basic-event", "burn")
    tree = synthesize(woven, "app.down")
    report = cutsets(tree, "pre")
    assert report.display_sets() == {frozenset({"app.crash"}), frozenset({"app.burn"})}
    assert report.identity_sets() == {frozenset({"app.crash"}), frozenset({"hw.burn"})}


def test_injection_shared_across_output_fms():
    model = parse(
        "layer l\n\n"
        "component app in l {\n"
        "  event crash\n  event hang\n"
        "  outfm down = crash\n  outfm slow = hang\n"
        "}\n\n"
        "component hw in l {\n  event burn\n  outfm broken = burn\n}\n\n"
        "alfred app -> hw\n")
    woven = weave(model)
    app = woven.model.component("app")
    injected = [i for i in app.cft.input_fms if i.port is None]
    assert len(injected) == 1
    for name in ("down", "slow"):
        gate = app.cft.resolve(app.cft.output_fm(name, None).driver)
        assert NodeRef(injected[0].name) in gate.inputs


def test_all_provider_failure_modes_injected(vehicle):
    woven = weave(vehicle)
    u1 = woven.model.component("U1")
    gate = u1.cft.resolve(u1.cft.output_fm("no-obstacle-detected", "det").driver)
    assert gate.inputs == (NodeRef("False-negative"),
                           NodeRef("from-B-Battery-omission"),
                           NodeRef("from-B-Battery-too-low"))


def test_injected_name_collision_gets_suffix():
    model = parse(
        "layer l\n\n"
        "component app in l {\n"
        "  event crash\n  event from-hw-burn\n  outfm down = crash\n"
        "}\n\n"
        "component hw in l {\n  event burn\n}\n\n"
        "alfred app -> hw\n")
    woven = weave(model)
    (entry,) = woven.provenance
    assert entry.node == "from-hw-burn-2"


def test_injected_name_taken_twice_gets_the_next_suffix():
    model = parse(
        "layer l\n\n"
        "component app in l {\n"
        "  event crash\n  event from-hw-burn\n  event from-hw-burn-2\n"
        "  outfm down = crash\n}\n\n"
        "component hw in l {\n  event burn\n}\n\n"
        "alfred app -> hw\n")
    (entry,) = weave(model).provenance
    assert entry.node == "from-hw-burn-3"


def test_undeclared_provider_is_an_error():
    cft = ComponentFaultTree(events=(BasicEvent("e"),),
                             output_fms=(OutputFailureMode("f", None, NodeRef("e")),))
    model = ArchitectureModel(layers=("l",), components=(Component("d", "l", cft=cft),),
                              dependencies=(AlfredDependency("d", "ghost"),))
    with pytest.raises(WeaveError) as caught:
        weave(model)
    assert str(caught.value) == "dependency provider 'ghost' is not declared"


def test_failure_units_built_once_per_provider(monkeypatch):
    # all 50 sensors depend on the battery, whose units are built once
    # and shared by every dependent's provenance
    calls = []
    failure_units = weaver._failure_units

    def counting(provider):
        calls.append(provider.name)
        return failure_units(provider)

    monkeypatch.setattr(weaver, "_failure_units", counting)
    model, _ = genmodels.wide(50, GateKind.OR)
    woven = weave(model)
    assert calls == ["B"]
    units = len(genmodels.BATTERY)
    assert len(woven.provenance) == 50 * units
    assert len({id(e.source) for e in woven.provenance}) == units


def test_conservativeness_pointwise(fig2):
    woven = weave(fig2)
    for comp in fig2.components:
        if comp.cft is None:
            continue
        for ofm in comp.cft.output_fms:
            top = f"{comp.name}.{ofm.name}"
            t_w = table_of_network(woven, top)
            t_o = table_of_network(fig2, top, variables=t_w.variables)
            assert t_o.bits & ~t_w.bits == 0


def test_reweave_is_truth_stable(fig2, vehicle):
    for model in (fig2, vehicle):
        once = weave(model)
        twice = weave(once)
        assert set(once.provenance) <= set(twice.provenance)
        for comp in model.components:
            if comp.cft is None:
                continue
            for ofm in comp.cft.output_fms:
                top = f"{comp.name}.{ofm.name}"
                t1 = table_of_network(once, top)
                t2 = table_of_network(twice, top, variables=t1.variables)
                assert equivalent(t1, t2)


def test_reweave_truth_stable_on_generated_models():
    for seed in range(25):
        model, tops = genmodels.random_model(seed)
        once = weave(model)
        twice = weave(once)
        for top in tops:
            t1 = table_of_network(once, top)
            t2 = table_of_network(twice, top, variables=t1.variables)
            assert equivalent(t1, t2), f"seed={seed} top={top.render()}"


def test_dependency_cycle_message():
    model = ArchitectureModel(
        layers=("l",),
        components=(Component("x", "l"), Component("y", "l"), Component("z", "l")),
        dependencies=(AlfredDependency("x", "y"), AlfredDependency("y", "z"),
                      AlfredDependency("z", "y")))
    with pytest.raises(WeaveError) as caught:
        weave(model)
    assert str(caught.value) == "alfred dependency cycle: y -> z -> y"


def test_deep_reversed_alfred_chain():
    n = 3000
    model = genmodels.alfred_chain(n)
    assert validate(model).findings == ()
    woven = weave(model)
    # providers first: the walk reaches the far end before listing anything
    assert [e.component for e in woven.provenance] == \
        [f"C{k:05d}" for k in range(n - 2, -1, -1)]
    assert woven.provenance[0].source.provider == f"C{n - 1:05d}"
    first = woven.model.component("C00000")
    gate = first.cft.resolve(first.cft.output_fm("fail", None).driver)
    assert gate.inputs == (NodeRef("e"), NodeRef("from-C00001-fail"))
