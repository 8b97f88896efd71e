"""Command-line pipeline: validate, weave, synthesize, cutsets, export-dot.

Each stage of the analysis is its own subcommand so every intermediate
artifact (the woven model, the flattened tree, the cutset report) can be
inspected and diffed.  Results go to stdout or ``-o``; diagnostics go to
stderr.  Exit status: 0 on success, 1 on validation/analysis errors, 2 on
usage errors.  Output is byte-deterministic: no timestamps, no
hash-ordering.

A command imports the stages it runs inside its handler, so ``validate``
and ``export-dot`` load no weaver, synthesizer or analyzer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CftweaveError, ParseError, SynthesisError
from .model import ArchitectureModel, validate
from .textfmt import export_dot, parse, serialize


def _fail(code: int, message: str) -> SystemExit:
    """Print *message* as an error; return the exit for the caller to raise."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(code)


def _load_model(path: str) -> ArchitectureModel:
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _fail(1, f"{path}: {exc}") from None
    except ParseError as exc:
        raise _fail(1, f"{path}:{exc}") from None


def _load_valid_model(path: str) -> ArchitectureModel:
    model = _load_model(path)
    report = validate(model)
    if not report.ok:
        for line in report.render_lines():
            print(line, file=sys.stderr)
        raise _fail(1, f"{path} does not validate")
    return model


def _load_tree(args):
    """The tree of ``--top`` in the woven model of *args*' file.  A model that
    does not load or validate fails before the weave, and the weave before
    ``--top`` is read."""
    from .synthesizer import TopEventRef, synthesize
    from .weaver import weave
    woven = weave(_load_valid_model(args.file))
    try:
        top = TopEventRef.parse(args.top)
    except SynthesisError as exc:
        raise _fail(2, str(exc)) from None
    return synthesize(woven, top)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_validate(args) -> int:
    model = _load_model(args.file)
    report = validate(model)
    for line in report.render_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_weave(args) -> int:
    from .weaver import weave
    model = _load_valid_model(args.file)
    woven = weave(model)
    _emit(serialize(woven.model), args.output)
    sidecar = "\n".join(woven.sidecar_lines()) + "\n"
    if args.provenance is not None:
        _emit(sidecar, args.provenance)
    elif args.output is not None:
        _emit(sidecar, args.output + ".provenance.tsv")
    return 0


def _cmd_synthesize(args) -> int:
    tree = _load_tree(args)
    if args.dot:
        _emit(export_dot(tree), args.output)
    else:
        _emit(tree.to_prefix_text() + "\n", args.output)
    return 0


def _cmd_cutsets(args) -> int:
    from .analyzer import cutsets
    report = cutsets(_load_tree(args), args.stage)
    if args.format == "tsv":
        lines = list(map("\t".join, report.rows()))
    else:
        lines = list(report.lines())
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def _cmd_export_dot(args) -> int:
    model = _load_valid_model(args.file)
    _emit(export_dot(model), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cftweave",
        description="Safety evidence for layered architectures annotated with "
                    "component fault trees and cross-layer failure dependencies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file, report findings")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("weave", help="apply failure dependencies, emit the woven model")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the woven model here instead of stdout")
    p.add_argument("--provenance", help="write the provenance sidecar here "
                                        "(default: <output>.provenance.tsv)")
    p.set_defaults(handler=_cmd_weave)

    p = sub.add_parser("synthesize", help="flatten the woven model into one fault tree")
    p.add_argument("file")
    p.add_argument("--top", required=True, metavar="COMPONENT.FAILURE-MODE")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of prefix text")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("cutsets", help="minimal cutset report for one top event")
    p.add_argument("file")
    p.add_argument("--top", required=True, metavar="COMPONENT.FAILURE-MODE")
    # analyzer.STAGES, spelled out so that parsing loads no analyzer; a test
    # checks that the two agree
    p.add_argument("--stage", choices=("pre", "reduced"), default="reduced")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_cutsets)

    p = sub.add_parser("export-dot", help="render the model as a Graphviz digraph")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (CftweaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
