"""The library calls behind each CLI command, and the checks on their output.

Each command starts from model text in memory and returns the parts of the
output a user would get, as the CLI builds them.  Every call into a
cftweave layer goes through ``tr.call`` so a traced run can attribute time
to the layer, and sizes are counted at the same boundaries.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import cftweave as cw
from cftweave import cli

import families

COMMANDS = ("validate", "weave", "synthesize", "dot", "pre", "cutsets")
FIXTURES = {"example_fig2": "f2.loss-of", "vehicle": "EBC.no-emergency-braking"}


def fixture_path(name: str) -> str:
    return f"src/cftweave/fixtures/{name}.alfred"


def fixture_case(name: str) -> families.Case:
    """A shipped fixture with every top event it can be analysed for."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        text = fh.read()
    tops = tuple(f"{c.name}.{o.name}" for c in cw.parse(text).components if c.cft
                 for o in c.cft.output_fms if len(c.cft.output_fms_named(o.name)) == 1)
    return families.Case(f"fixture:{name}", text, tops)


def _front(tr, text: str):
    if tr.on:
        tr.count("textfmt.parse.calls", 1)
        tr.count("textfmt.parse.bytes", len(text.encode()))
    model = tr.call("textfmt.parse", cw.parse, text)
    return model, tr.call("model.validate", cw.validate, model)


def _woven(tr, text: str):
    model, report = _front(tr, text)
    if not report.ok:
        raise ValueError("model does not validate: " + "; ".join(report.render_lines()))
    return model, tr.call("weaver.weave", cw.weave, model)


def _trees(tr, case, woven):
    for top in case.tops:
        tree = tr.call("synthesizer.synthesize", cw.synthesize, woven, top)
        yield tree


def _report_lines(tree, stage: str) -> tuple[str, ...]:
    return cw.cutsets(tree, stage).lines()


def run_validate(tr, case) -> tuple[str, ...]:
    model, report = _front(tr, case.text)
    if tr.on:
        tr.count("model.components", len(model.components))
        tr.count("model.connections", len(model.connections))
        tr.count("model.dependencies", len(model.dependencies))
        tr.count("model.cft_nodes", sum(
            len(c.cft.events) + len(c.cft.gates) + len(c.cft.input_fms) + len(c.cft.output_fms)
            for c in model.components if c.cft is not None))
    return ("".join(line + "\n" for line in report.render_lines()),)


def run_weave(tr, case) -> tuple[str, ...]:
    _, woven = _woven(tr, case.text)
    text = tr.call("textfmt.serialize", cw.serialize, woven.model)
    sidecar = "\n".join(tr.call("weaver.sidecar_lines", woven.sidecar_lines)) + "\n"
    if tr.on:
        tr.count("weaver.injections", len(woven.provenance))
        tr.count("textfmt.serialize.bytes", len(text.encode()))
    return text, sidecar


def run_synthesize(tr, case) -> tuple[str, ...]:
    _, woven = _woven(tr, case.text)
    parts = []
    for tree in _trees(tr, case, woven):
        text = tr.call("synthesizer.to_prefix_text", tree.to_prefix_text)
        parts.append(text + "\n")
        if tr.on:
            nodes = len(tree.nodes())
            tr.count("synthesizer.tree_nodes", nodes)
            tr.count("synthesizer.tree_leaves", len(tree.leaves()))
            size = len(text.encode())
            # the tree with the longest text, where sharing blows it up most
            if size > tr.counts["synthesizer.prefix_bytes"]:
                tr.counts["synthesizer.prefix_bytes"] = size
                tr.counts["synthesizer.prefix_per_node"] = size / nodes
    return tuple(parts)


def run_dot(tr, case) -> tuple[str, ...]:
    model, woven = _woven(tr, case.text)
    parts = [tr.call("textfmt.export_dot", cw.export_dot, tree)
             for tree in _trees(tr, case, woven)]
    parts.append(tr.call("textfmt.export_dot", cw.export_dot, model))
    if tr.on:
        tr.count("textfmt.export_dot.bytes", sum(len(p) for p in parts))
    return tuple(parts)


def _run_cutsets(tr, case, stage: str) -> tuple[str, ...]:
    _, woven = _woven(tr, case.text)
    parts = []
    for tree in _trees(tr, case, woven):
        lines = tr.call(f"analyzer.cutsets_{stage}", _report_lines, tree, stage)
        parts.append("".join(line + "\n" for line in lines))
        if tr.on and stage == "pre":
            tr.count("analyzer.pre_products", len(lines))
        elif tr.on:
            tr.count("analyzer.reduced_cutsets", len(lines))
            tr.peak("analyzer.max_order", max(
                (line.count(families.AND_SEP) + 1 for line in lines), default=0))
    return tuple(parts)


RUNNERS = {
    "validate": run_validate,
    "weave": run_weave,
    "synthesize": run_synthesize,
    "dot": run_dot,
    "pre": lambda tr, case: _run_cutsets(tr, case, "pre"),
    "cutsets": lambda tr, case: _run_cutsets(tr, case, "reduced"),
}


def oracle_check(case) -> int:
    """Certify every top event of *case* with the truth-table oracle: the
    network, the synthesised tree and the reduced cutsets must have one
    truth table.  Returns the widest variable count; raises on a mismatch."""
    woven = cw.weave(cw.parse(case.text))
    widest = 0
    for top in case.tops:
        network = cw.table_of_network(woven, top)
        tree = cw.synthesize(woven, top)
        reduced = cw.cutsets(tree, "reduced")
        variables = network.variables
        if not cw.equivalent(network, cw.table_of_tree(tree, variables)):
            raise AssertionError(f"{case.label} {top}: tree differs from network")
        dnf = cw.table_of_cutsets([cs.identities for cs in reduced.cutsets], variables)
        if not cw.equivalent(network, dnf):
            raise AssertionError(f"{case.label} {top}: reduced cutsets differ from network")
        widest = max(widest, len(variables))
    return widest


# -- the CLI, as a user runs it ------------------------------------------------

def cli_commands() -> list[tuple[str, str, list[str]]]:
    """(digest label, command, argv) of every CLI run in one pass."""
    runs = []
    for name, top in FIXTURES.items():
        path = fixture_path(name)
        for label, argv in (
                ("validate", ["validate", path]),
                ("weave", ["weave", path]),
                ("synthesize", ["synthesize", path, "--top", top]),
                ("synthesize-dot", ["synthesize", path, "--top", top, "--dot"]),
                ("cutsets-pre", ["cutsets", path, "--top", top, "--stage", "pre"]),
                ("cutsets-reduced", ["cutsets", path, "--top", top, "--stage", "reduced"]),
                ("export-dot", ["export-dot", path])):
            runs.append((f"cli:{name}", label, argv))
    return runs


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` on *argv* in this process, with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- output checks ---------------------------------------------------------------

def digest(parts) -> str:
    """First 16 hex digits of the SHA-256 of the concatenated parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()[:16]


def _lines_digest(lines) -> str:
    return digest(line + "\n" for line in lines)


def load_digests(path: str) -> dict[str, dict[str, str]]:
    table: dict[str, dict[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for row in fh:
            if row.strip() and not row.startswith("#"):
                label, command, value = row.split()
                table.setdefault(label, {})[command] = value
    return table


class Reference:
    """What one command's output on one case must be.

    Family outputs are checked against their closed forms.  The model DOT,
    the woven model and every corpus output are checked against the
    digests written by record.py.  A command with no reference at all is an
    error, so no output goes unchecked.
    """

    def __init__(self, case, digests: dict[str, dict[str, str]]):
        self.recorded = digests.get(case.label, {})
        self.closed: dict[str, str] = {}
        if case.tree is not None:
            self.closed = {
                "validate": digest([""]),
                "synthesize": digest([families.prefix_text(case.tree) + "\n"]),
                "dot": digest([families.tree_dot(case.tree)]),
                "pre": _lines_digest(case.lines["pre"]()),
                "cutsets": _lines_digest(case.lines["reduced"]()),
            }

    def check(self, command: str, parts: tuple[str, ...]) -> str | None:
        """None if *parts* is right, else what is wrong."""
        whole = digest(parts)
        recorded = self.recorded.get(command)
        if recorded is not None and recorded != whole:
            return f"digest {whole} != recorded {recorded}"
        closed = self.closed.get(command)
        if closed is None:
            return None if recorded is not None else "no reference recorded"
        if command == "dot":
            # the tree DOT in closed form, the model DOT against its digest
            got = (digest(parts[:-1]), digest(parts[-1:]))
            want = (closed, self.recorded.get("model-dot"))
        else:
            got, want = whole, closed
        return None if got == want else f"closed form {want} != {got}"
