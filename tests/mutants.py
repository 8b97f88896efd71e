"""Mutants the tests must kill.

Each mutant is an exact text replacement in one file under ``src/``, with
the tests expected to fail on it.  For each mutant this script copies
``src/`` to a temporary directory, applies the replacement there, runs
those tests against the copy and requires a failure.  The tests must first
pass on an unmutated copy.  A replacement whose text is not found exactly
once fails the run, so the list cannot go stale unseen.

Run it from any directory, with the test tools installed:

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # only the named ones

It needs only the standard library besides them.  The file name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/cftweave
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


ESCAPED = ("tests/test_textfmt.py::TestDot::test_names_are_escaped_in_every_slot",)

MUTANTS = (
    # A fault tree works out its facts once, when it is built.
    Mutant("fold-uses-up-the-parent-counts", "synthesizer.py",
           "uses = self._parents.copy()", "uses = self._parents",
           ("tests/test_analyzer.py::TestCutsets::test_a_tree_folds_any_number_of_times",)),
    Mutant("stale-tree-after-display-fallback", "synthesizer.py",
           "        tree = FaultTree(root=root, top=top)\n"
           "        if tree._ambiguous:\n",
           "        rebuilt = FaultTree(root=root, top=top)\n"
           "        if rebuilt._ambiguous:\n",
           ("tests/test_synthesizer.py::"
            "test_display_collision_falls_back_to_provider_qualification",)),
    Mutant("smallest-ambiguous-display-first", "synthesizer.py",
           '"_ambiguous", tuple(ambiguous)', '"_ambiguous", tuple(sorted(ambiguous))',
           ("tests/test_analyzer.py::TestCutsets::test_display_with_two_identities_rejected",)),
    Mutant("no-cycle-check", "synthesizer.py",
           "                    if not done:\n",
           "                    if False:\n",
           ("tests/test_synthesizer.py::test_cyclic_tree_rejected",)),
    Mutant("no-gate-kind-check", "synthesizer.py",
           "if not isinstance(child.kind, GateKind):", "if False:",
           ("tests/test_synthesizer.py::test_ill_typed_gate_field_rejected[kind]",)),
    Mutant("no-gate-children-check", "synthesizer.py",
           "if not isinstance(child.children, tuple):", "if False:",
           ("tests/test_synthesizer.py::test_ill_typed_gate_field_rejected[children]",)),
    Mutant("no-leaf-identity-check", "synthesizer.py",
           "if not isinstance(identity, str):", "if False:",
           ("tests/test_synthesizer.py::test_ill_typed_leaf_field_rejected[identity]",)),
    Mutant("no-leaf-display-check", "synthesizer.py",
           "if not isinstance(display, str):", "if False:",
           ("tests/test_synthesizer.py::test_ill_typed_leaf_field_rejected[display]",)),
    # The checker reports input before output failure modes, a connection's
    # source end before its target end, and probes a port once only when no
    # port name of the component may be declared both ways.
    Mutant("output-failure-modes-first", "model.py",
           "             None)):\n", "             None))[::-1]:\n",
           ("tests/test_model.py::TestValidate::test_failure_mode_port_direction",)),
    Mutant("connection-target-end-first", "model.py",
           "conn.to_port, False)):", "conn.to_port, False))[::-1]:",
           ("tests/test_model.py::TestValidate::test_connection_endpoint_checks",)),
    Mutant("one-probe-ignores-collides", "model.py",
           "(collides or not _has(own, port))", "(not _has(own, port))",
           ("tests/test_model.py::TestValidate::test_failure_modes_on_a_port_declared_both_ways",)),
    # A declaration error points at a fixed word of the declaration's line.
    Mutant("layer-read-at-the-headers-third-word", "textfmt.py",
           "index = 3", "index = 2",
           ("tests/test_parse_errors.py::test_declaration_error[undeclared layer]",)),
    Mutant("duplicate-layer-at-the-first-occurrence", "textfmt.py",
           "line = [at for layer, at in self.layers if layer == name][1]",
           "line = [at for layer, at in self.layers if layer == name][0]",
           ("tests/test_parse_errors.py::test_declaration_error[layer]",)),
    Mutant("out-ports-before-in-ports", "textfmt.py",
           'return lines["in"] + lines["out"]', 'return lines["out"] + lines["in"]',
           ("tests/test_parse_errors.py::test_declaration_error[port in and out]",)),
    # pre keeps a list of lines in report order.
    Mutant("pre-crosses-unordered-lines", "analyzer.py",
           "acc[have] = sorted(prefixes)", "acc[have] = list(prefixes)",
           ("tests/test_analyzer.py::TestPreAgainstReference::"
            "test_explicit_trees[ordered-step-over-unordered-products]",)),
    Mutant("pre-concatenates-runs-of-one-size", "analyzer.py",
           "made = [*group, *made]\n                        made.sort()\n",
           "made = [*group, *made]\n",
           ("tests/test_analyzer.py::TestPreAgainstReference::"
            "test_explicit_trees[ordered-step-runs-of-one-size]",)),
    # DOT escapes every name and spells an empty port as NodeRef.render does.
    Mutant("dot-empty-port-labelled", "textfmt.py",
           'return f"{esc(x.name)}@{esc(x.port)}" if x.port else esc(x.name)',
           'return f"{esc(x.name)}@{esc(x.port)}" if x.port is not None else esc(x.name)',
           ESCAPED),
    Mutant("dot-layer-unescaped", "textfmt.py",
           "({esc(comp.layer)})", "({comp.layer})", ESCAPED),
    Mutant("dot-leaf-display-unescaped", "textfmt.py",
           "{_escape(node.display)}", "{node.display}", ESCAPED),
    Mutant("dot-empty-port-edge-dropped", "textfmt.py",
           "                if fm.port is not None:\n"
           "                    edges.append(f'    {port}{esc(fm.port)}\" -> {node}{i}\";')\n",
           "                if fm.port:\n"
           "                    edges.append(f'    {port}{esc(fm.port)}\" -> {node}{i}\";')\n",
           ESCAPED),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for *tests* run against the package under *src*."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # -o pythonpath replaces the configured src/, which pytest would put first
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT).returncode


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: " + ", ".join(sorted(unknown)))
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in mutants for t in m.tests})
        code = run_tests(src, tests)
        if code != 0:
            print(f"the tests fail without a mutation (pytest exit code {code})")
            return 1
        failed = []
        for mutant in mutants:
            path = src / "cftweave" / mutant.path
            original = path.read_text(encoding="utf-8")
            count = original.count(mutant.old)
            if count != 1:
                verdict = f"NOT APPLIED: its text occurs {count} times in {mutant.path}"
            else:
                path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    code = run_tests(src, mutant.tests)
                finally:
                    path.write_text(original, encoding="utf-8")
                verdict = {0: "SURVIVED", 1: "killed"}.get(
                    code, f"ERROR: pytest exit code {code}")
            print(f"{mutant.name}: {verdict}", flush=True)
            if verdict != "killed":
                failed.append(mutant.name)
    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
