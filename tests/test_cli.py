"""Command-line interface: exit codes, streams, determinism."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from cftweave import (CftweaveError, InputFailureMode, NodeRef, cutsets, parse, serialize,
                      synthesize, validate, weave)
from cftweave import analyzer
from cftweave.cli import build_parser, main

import genmodels
from test_parse_errors import mutated_documents

REPO_FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cftweave" / "fixtures"
FIG2 = str(REPO_FIXTURES / "example_fig2.alfred")
VEHICLE = str(REPO_FIXTURES / "vehicle.alfred")

VEHICLE_REDUCED = (
    "B.Battery-omission\n"
    "B.Battery-too-low\n"
    "E.Speed-too-low\n"
    "EBC.HW-defect_PartCount\n"
    "EBC.Loss-of-power\n"
    "U1.False-negative ∧ U2.False-negative\n")


def test_validate_ok(capsys):
    assert main(["validate", FIG2]) == 0
    out, err = capsys.readouterr()
    assert "unconnected-in-port" in out
    assert err == ""


def test_validate_reports_errors_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.alfred"
    bad.write_text(
        "layer l\n\ncomponent x in l {\n  event e\n}\n\n"
        "component y in l {\n  event e\n}\n\n"
        "alfred x -> y\n\nalfred y -> x\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    out, _ = capsys.readouterr()
    assert "dependency-cycle" in out


def test_cutsets_reduced_vehicle(capsys):
    assert main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking",
                 "--stage", "reduced"]) == 0
    out, _ = capsys.readouterr()
    assert out == VEHICLE_REDUCED


def test_cutsets_command_builds_no_cutset_object(monkeypatch, capsys):
    # both formats print display names only, so no CutSet is needed
    def refuse(*args):
        raise AssertionError("a CutSet was built")

    monkeypatch.setattr(analyzer, "CutSet", refuse)
    for stage in ("pre", "reduced"):
        for fmt in ("text", "tsv"):
            assert main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking",
                         "--stage", stage, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == "" and VEHICLE_REDUCED.replace(" ∧ ", "\t") in out


# Two reduced cutsets that show alike.  V.b and W.c reach U through ports
# and share the common-cause identity U.a, which, seen under two displays,
# shows as itself; P's event a, injected into U by the alfred edge, has the
# display U.a.  U's own event a feeds nothing.
SHOW_ALIKE = (
    "layer hw\nlayer sw\n\n"
    "component P in hw {\n  event a\n}\n\n"
    "component U in sw {\n  in i\n  event a\n  gate t = OR(f@i)\n  infm f@i\n"
    "  outfm top = t\n}\n\n"
    "component V in sw {\n  in i\n  out o\n  event b\n  gate g = OR(b, f@i)\n"
    "  infm f@i\n  outfm f@o = g\n}\n\n"
    "component W in sw {\n  out o\n  event c\n  outfm f@o = c\n}\n\n"
    "connect V.o -> U.i\nconnect W.o -> V.i\nalfred U -> P\n"
    "common-cause U.a = V.b\ncommon-cause U.a = W.c\n")


def test_reduced_cutsets_that_show_alike_keep_their_order(tmp_path, capsys):
    tree = synthesize(weave(parse(SHOW_ALIKE)), "U.top")
    report = cutsets(tree, "reduced")
    assert [(cs.displays, cs.identities) for cs in report.cutsets] == [
        (("U.a",), frozenset({"P.a"})), (("U.a",), frozenset({"U.a"}))]
    path = tmp_path / "alike.alfred"
    path.write_text(SHOW_ALIKE, encoding="utf-8")
    assert main(["cutsets", str(path), "--top", "U.top"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("U.a\nU.a\n", "")


VEHICLE_PRE_TSV = (
    "E.Speed-too-low\n"
    "EBC.HW-defect_PartCount\n"
    "EBC.Loss-of-power\n"
    "U1.Battery-omission\tU2.Battery-omission\n"
    "U1.Battery-omission\tU2.Battery-too-low\n"
    "U1.Battery-omission\tU2.False-negative\n"
    "U1.Battery-too-low\tU2.Battery-omission\n"
    "U1.Battery-too-low\tU2.Battery-too-low\n"
    "U1.Battery-too-low\tU2.False-negative\n"
    "U1.False-negative\tU2.Battery-omission\n"
    "U1.False-negative\tU2.Battery-too-low\n"
    "U1.False-negative\tU2.False-negative\n")


def test_cutsets_pre_tsv(capsys):
    assert main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking",
                 "--stage", "pre", "--format", "tsv"]) == 0
    assert capsys.readouterr() == (VEHICLE_PRE_TSV, "")


def test_cutsets_reduced_tsv(capsys):
    assert main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking",
                 "--stage", "reduced", "--format", "tsv"]) == 0
    assert capsys.readouterr() == (VEHICLE_REDUCED.replace(" ∧ ", "\t"), "")


def test_synthesize_prefix_text(capsys):
    assert main(["synthesize", FIG2, "--top", "f2.loss-of"]) == 0
    out, _ = capsys.readouterr()
    assert out == ("OR(OR(AND(ext@f1.p1.loss-of,ext@f1.p2.loss-of),"
                   "OR(CPU.a,RAM.b),f1.loss-of),f2.loss-of)\n")


def test_synthesize_dot(capsys):
    assert main(["synthesize", FIG2, "--top", "f2.loss-of", "--dot"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("digraph fault_tree {")


def test_weave_writes_model_and_sidecar(tmp_path, capsys):
    target = tmp_path / "woven.alfred"
    assert main(["weave", FIG2, "-o", str(target)]) == 0
    woven_text = target.read_text(encoding="utf-8")
    model = parse(woven_text)
    assert validate(model).ok
    injected = model.component("f1").cft.resolve(NodeRef("from-CPU-loss-of"))
    assert isinstance(injected, InputFailureMode)
    sidecar = (tmp_path / "woven.alfred.provenance.tsv").read_text(encoding="utf-8")
    assert sidecar.splitlines()[0] == "injected-node\tprovider\tdependent"
    assert len(sidecar.splitlines()) == 4


def test_weave_deep_alfred_chain(tmp_path, capsys):
    source = tmp_path / "chain.alfred"
    source.write_text(serialize(genmodels.alfred_chain(3000)), encoding="utf-8")
    assert main(["weave", str(source), "-o", str(tmp_path / "woven.alfred")]) == 0
    _, err = capsys.readouterr()
    assert err == ""
    sidecar = (tmp_path / "woven.alfred.provenance.tsv").read_text(encoding="utf-8")
    assert sidecar.splitlines()[1] == "C02998.from-C02999-fail\tC02999\tC02998"
    assert len(sidecar.splitlines()) == 3000


def test_weave_to_stdout(capsys):
    assert main(["weave", FIG2]) == 0
    out, _ = capsys.readouterr()
    assert "infm from-RAM-loss-of" in out


def test_weave_provenance_to_custom_path(tmp_path, capsys):
    sidecar = tmp_path / "prov.tsv"
    assert main(["weave", FIG2, "-o", str(tmp_path / "w.alfred"),
                 "--provenance", str(sidecar)]) == 0
    assert sidecar.read_text(encoding="utf-8").count("\n") == 4
    assert not (tmp_path / "w.alfred.provenance.tsv").exists()


def test_cutsets_to_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking",
                 "-o", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == VEHICLE_REDUCED


def test_export_dot(capsys):
    assert main(["export-dot", FIG2]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("digraph model {")
    assert out.count("style=dashed") == 3


def test_missing_file(capsys):
    assert main(["validate", "no-such-file.alfred"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: 'no-such-file.alfred'\n"


def test_output_into_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "model.dot"
    assert main(["export-dot", FIG2, "-o", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.alfred"
    bad.write_bytes(b"layer l\n\xff\n")
    assert main(["validate", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 8: "
                   "invalid start byte\n")


def test_parse_error_is_located(tmp_path, capsys):
    bad = tmp_path / "garbage.alfred"
    bad.write_text("what is this\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    _, err = capsys.readouterr()
    assert "1:1" in err


def test_usage_error_missing_arguments(capsys):
    assert main(["cutsets"]) == 2


def test_usage_error_bad_top(capsys):
    for command in ("synthesize", "cutsets"):
        assert main([command, VEHICLE, "--top", "nodot"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: top event must be '<component>.<failure-mode>', "
                       "got 'nodot'\n")


def test_unknown_top_is_analysis_error(capsys):
    assert main(["cutsets", VEHICLE, "--top", "EBC.nope"]) == 1
    _, err = capsys.readouterr()
    assert "unknown top event" in err


def test_invalid_model_blocks_pipeline(tmp_path, capsys):
    bad = tmp_path / "cycle.alfred"
    bad.write_text(
        "layer l\n\ncomponent x in l {\n  event e\n  outfm f = e\n}\n\n"
        "alfred x -> x\n", encoding="utf-8")
    assert main(["cutsets", str(bad), "--top", "x.f"]) == 1
    _, err = capsys.readouterr()
    assert "self-dependency" in err


def test_cutsets_over_product_budget(tmp_path, capsys):
    events = [f"e{k}" for k in range(1200)]
    body = [f"event {e}" for e in events] + [
        f"gate a = OR({', '.join(events[:600])})",
        f"gate b = OR({', '.join(events[600:])})",
        "gate top = AND(a, b)",
        "outfm loss = top"]
    big = tmp_path / "big.alfred"
    big.write_text("layer l\n\ncomponent x in l {\n"
                   + "".join(f"  {line}\n" for line in body) + "}\n", encoding="utf-8")
    for stage in ("pre", "reduced"):
        assert main(["cutsets", str(big), "--top", "x.loss", "--stage", stage]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "360000" in err


def test_cutsets_over_pre_total_budget(tmp_path, capsys, monkeypatch):
    # each AND gate forms 9 products, their OR 18; only pre lists them all
    monkeypatch.setattr(analyzer, "MAX_PRODUCTS", 10)
    body = [f"event {side}{k}" for side in "abcd" for k in range(3)] + [
        f"gate {side} = OR({side}0, {side}1, {side}2)" for side in "abcd"] + [
        "gate x = AND(a, b)", "gate y = AND(c, d)", "gate top = OR(x, y)",
        "outfm loss = top"]
    big = tmp_path / "big.alfred"
    big.write_text("layer l\n\ncomponent z in l {\n"
                   + "".join(f"  {line}\n" for line in body) + "}\n", encoding="utf-8")
    assert main(["cutsets", str(big), "--top", "z.loss", "--stage", "pre"]) == 1
    assert capsys.readouterr() == (
        "", "error: cutset expansion would form 18 products at one OR gate, "
            "over the budget of 10\n")
    assert main(["cutsets", str(big), "--top", "z.loss", "--stage", "reduced"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 18


def test_byte_determinism(capsys):
    main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking", "--stage", "pre"])
    first, _ = capsys.readouterr()
    main(["cutsets", VEHICLE, "--top", "EBC.no-emergency-braking", "--stage", "pre"])
    second, _ = capsys.readouterr()
    assert first == second


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    alike = tmp_path / "alike.alfred"
    alike.write_text(SHOW_ALIKE, encoding="utf-8")
    runs = []
    for path, top in ((FIG2, "f2.loss-of"), (VEHICLE, "EBC.no-emergency-braking"),
                      (str(alike), "U.top")):
        runs += [["validate", path], ["weave", path], ["export-dot", path],
                 ["synthesize", path, "--top", top], ["synthesize", path, "--top", top, "--dot"]]
        runs += [["cutsets", path, "--top", top, "--stage", stage, "--format", fmt]
                 for stage in analyzer.STAGES for fmt in ("text", "tsv")]
    src = str(REPO_FIXTURES.parent.parent)
    for argv in runs:
        # one process per hash seed, the two side by side
        procs = [subprocess.Popen([sys.executable, "-m", "cftweave.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for seed in ("0", "1")]
        results = [(*proc.communicate(), proc.returncode) for proc in procs]
        assert results[0] == results[1], argv
        assert results[0][2] == 0, argv


# the cftweave modules each command loads: the stages it runs and no others
VALIDATE_MODULES = ("cftweave", "cftweave.errors", "cftweave.model", "cftweave.textfmt")
WEAVE_MODULES = (*VALIDATE_MODULES, "cftweave.weaver")
SYNTHESIZE_MODULES = (*WEAVE_MODULES, "cftweave.synthesizer")
CUTSETS_MODULES = (*SYNTHESIZE_MODULES, "cftweave.analyzer")
TOP = "EBC.no-emergency-braking"


@pytest.mark.parametrize("argv, modules", [
    pytest.param(argv, modules, id=" ".join(arg for arg in argv if arg not in (VEHICLE, TOP)))
    for argv, modules in (
        (["validate", VEHICLE], VALIDATE_MODULES),
        (["export-dot", VEHICLE], VALIDATE_MODULES),
        (["weave", VEHICLE], WEAVE_MODULES),
        (["synthesize", VEHICLE, "--top", TOP], SYNTHESIZE_MODULES),
        (["synthesize", VEHICLE, "--top", TOP, "--dot"], SYNTHESIZE_MODULES),
        (["cutsets", VEHICLE, "--top", TOP, "--stage", "pre"], CUTSETS_MODULES),
        (["cutsets", VEHICLE, "--top", TOP, "--format", "tsv"], CUTSETS_MODULES))])
def test_each_command_imports_only_its_stages(argv, modules):
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "cftweave.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(REPO_FIXTURES.parent.parent)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # "import time: <self us> | <cumulative us> | <indented module name>"
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert sorted(m for m in imported if m.split(".")[0] == "cftweave") == sorted(modules)


def test_stage_choices_are_the_analyzer_stages():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    stage = next(action for action in commands.choices["cutsets"]._actions
                 if action.dest == "stage")
    assert stage.choices == analyzer.STAGES


def chain_file(tmp_path, n):
    path = tmp_path / f"chain{n}.alfred"
    path.write_text(serialize(genmodels.chain(n)[0]), encoding="utf-8")
    return str(path)


def test_synthesize_deep_chain(tmp_path, capsys):
    # far deeper than the interpreter's recursion limit
    n = 5000
    path, top = chain_file(tmp_path, n), f"C{n - 1}.fail"
    assert main(["synthesize", path, "--top", top]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    battery = "C{k}.Battery-omission,C{k}.Battery-too-low)"
    assert out == "".join(["OR(OR(" * (n - 1), "OR(C0.e,", battery.format(k=0),
                           *(f",C{k}.e)," + battery.format(k=k) for k in range(1, n)),
                           "\n"])
    assert main(["synthesize", path, "--top", top, "--dot"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # stage 0 is an OR over three leaves; every later stage adds two ORs,
    # its event and its two battery leaves; no node is shared
    assert out.count(" [label=") == 5 * n - 1
    assert out.count(" -> ") == 5 * n - 2


def test_cutsets_deep_chain(tmp_path, capsys):
    # each OR gate takes over its first child's products, so neither stage
    # copies everything below each stage of the chain
    n = 10000
    path, top = chain_file(tmp_path, n), f"C{n - 1}.fail"
    assert main(["cutsets", path, "--top", top, "--stage", "pre"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == sorted(
        f"C{k}.{event}" for k in range(n) for event in ("e", "Battery-omission",
                                                        "Battery-too-low"))
    assert main(["cutsets", path, "--top", top]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # the per-stage battery displays collapse to the battery's identities
    assert out.splitlines() == sorted(
        [f"C{k}.e" for k in range(n)] + ["B.Battery-omission", "B.Battery-too-low"])


def cli_run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_every_command_exits_cleanly_on_mutated_documents(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("doc") / "model.alfred"
    path.write_text(text, encoding="utf-8")
    doc = str(path)
    try:
        model = parse(text)
        tops = [f"{c.name}.{o.name}" for c in model.components
                for o in (c.cft.output_fms if c.cft else ())]
    except CftweaveError:
        tops = []
    runs = [["validate", doc], ["weave", doc], ["export-dot", doc]]
    for top in tops or ["C0.loss-of"]:
        runs += [["synthesize", doc, "--top", top],
                 ["synthesize", doc, "--top", top, "--dot"],
                 ["cutsets", doc, "--top", top, "--stage", "pre"],
                 ["cutsets", doc, "--top", top, "--stage", "reduced"]]
    for argv in runs:
        code, err = cli_run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code and argv[0] != "validate":  # validate prints its findings instead
            assert "error: " in err, argv
