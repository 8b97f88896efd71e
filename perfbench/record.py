"""Record the reference output digests the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

For every model of every workload it runs each
command, records the digest of every output that succeeds, checks the
family outputs against their closed forms, and records the CLI outputs on
both fixtures.  It writes perfbench/digests.txt.
"""

import os
import subprocess
import sys

sys.path.insert(0, "src")

import cftweave as cw  # noqa: E402

import pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.txt")


def main() -> int:
    cases = []
    for name in workloads.NAMES:
        found, probe = workloads.build(name, 0)
        cases += found + ([probe] if probe else [])

    rows, outputs = [], []
    off = Tracer(on=False)
    for case in cases:
        if case.tree is not None:
            model_dot = cw.export_dot(cw.parse(case.text))
            rows.append((case.label, "model-dot", pipeline.digest([model_dot])))
        for command in pipeline.COMMANDS:
            try:
                parts = pipeline.RUNNERS[command](off, case)
            except Exception as exc:  # a known defect leaves no reference
                print(f"skip {case.label} {command}: {type(exc).__name__}", file=sys.stderr)
                continue
            rows.append((case.label, command, pipeline.digest(parts)))
            outputs.append((case, command, parts))
        if case.tree is None:
            pipeline.oracle_check(case)

    env = dict(os.environ, PYTHONPATH="src")
    for label, command, argv in pipeline.cli_commands():
        done = subprocess.run([sys.executable, "-m", "cftweave.cli", *argv], env=env,
                              capture_output=True, text=True, encoding="utf-8", check=True)
        rows.append((label, command, pipeline.digest([done.stdout])))

    table = {}
    for label, command, value in rows:
        table.setdefault(label, {})[command] = value
    for case, command, parts in outputs:
        error = pipeline.Reference(case, table).check(command, parts)
        if error is not None:
            raise SystemExit(f"{case.label} {command}: {error}")

    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("# label command sha256[:16] -- written by perfbench/record.py\n")
        fh.writelines(f"{label} {command} {value}\n" for label, command, value in rows)
    print(f"{len(rows)} digests written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
