"""Record parse, validate, weave, DOT, cutset and oracle outputs as one digest.

Run it on two source trees to show that a change keeps every output byte::

    PYTHONPATH=src python tests/record_outputs.py --seeds 10000
    PYTHONPATH=src python tests/record_outputs.py --seeds 100 --out record.txt

For both fixtures, the ``genmodels`` families, ``random_model`` seeds
0..N-1 and, with NOT gates, seeds 0..min(N, 1000)-1, it records the
model's document, what ``parse`` makes of it, the model's DOT, the woven
model's DOT, document and sidecar lines and, for each top event, the
prefix text and DOT of the tree and, for both cutset stages, the report
lines, the TSV rows, each row's sorted identities and the sorted display
sets, then the oracle's table of the network and, over its variables,
those of the tree and of the reduced cutsets, each as its variables and
the SHA-256 of its bits; a step that raises records the error text
instead.  For each
``random_model`` seed it also parses the document with one line deleted,
one duplicated and one identifier swapped (choices drawn from the seed),
and the document with tabs and CRLF endings.  A parse records the
model's ``repr``, its ``validate`` lines and those of a fresh ``validate``
on a ``dataclasses.replace`` copy, or the error's line, column, token,
expected items and message.  It prints the number of lines and their
SHA-256, which :func:`digest` returns.  It uses only the standard library,
``genmodels`` and the public names of ``cftweave``; pytest does not
collect it, and ``tests/test_pins.py`` pins its digest at 300 seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import re
import sys

from cftweave import (CftweaveError, GateKind, ParseError, TopEventRef, cutsets,
                      export_dot, load_fixture, parse, serialize, synthesize,
                      table_of_cutsets, table_of_network, table_of_tree, validate, weave)

import genmodels

FIXTURES = (("example_fig2", ("f2.loss-of",)),
            ("vehicle", ("EBC.no-emergency-braking",)))
IDENTIFIER = re.compile(r"[A-Za-z0-9_-]+")


def models(seeds: int):
    """(label, model, top events[, mutation seed]) of every recorded model."""
    for name, tops in FIXTURES:
        yield name, load_fixture(name), tops
    for kind, sizes in ((GateKind.OR, range(1, 13)), (GateKind.AND, range(1, 7))):
        for n in sizes:
            model, top = genmodels.wide(n, kind)
            yield f"wide({n}, {kind.value})", model, (top,)
    for family, sizes in ((genmodels.chain, range(1, 13)),
                          (genmodels.lattice, range(1, 9))):
        for n in sizes:
            model, top = family(n)
            yield f"{family.__name__}({n})", model, (top,)
    for n in range(1, 7):
        model = genmodels.alfred_chain(n)
        yield (f"alfred_chain({n})", model,
               tuple(TopEventRef(c.name, "fail") for c in model.components))
    for seed in range(seeds):
        model, tops = genmodels.random_model(seed)
        yield f"random_model({seed})", model, tops, seed
    # NOT gates, which the cutset stages reject
    for seed in range(min(seeds, 1000)):
        model, tops = genmodels.random_model(seed, allow_not=True)
        yield f"random_model({seed}, allow_not=True)", model, tops


def mutations(text: str, seed: int):
    """(how, document) of *text* with one line deleted, one line
    duplicated and one identifier swapped for another from the text, as
    the parse error tests mutate documents, then with tabs and CRLF."""
    rng = random.Random(seed)
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    yield "delete", "\n".join(lines[:i] + lines[i + 1:])
    i = rng.randrange(len(lines))
    yield "duplicate", "\n".join(lines[:i + 1] + lines[i:])
    spans = [m.span() for m in IDENTIFIER.finditer(text)]
    start, end = rng.choice(spans)
    yield "swap", text[:start] + rng.choice(sorted({text[a:b] for a, b in spans})) + text[end:]
    yield "tabs-crlf", "\r\n".join("\t" + line.replace(" ", " \t") for line in lines)


def parse_records(where: str, text: str):
    """The lines recorded for parsing *text*."""
    try:
        model = parse(text)
    except ParseError as exc:
        yield (f"{where} parse error {exc.line}:{exc.column} token={exc.token!r} "
               f"expected={exc.expected!r} {exc.message}")
        return
    yield f"{where} parse {model!r}"
    for line in validate(model).render_lines():
        yield f"{where} validate {line}"
    for line in validate(dataclasses.replace(model)).render_lines():
        yield f"{where} fresh-validate {line}"


def attempt(where: str, what: str, call) -> str:
    """The line recorded for the text *call* returns, or for its error."""
    try:
        return f"{where} {what} {call()!r}"
    except CftweaveError as exc:
        return f"{where} {what} error: {type(exc).__name__}: {exc}"


def table(where: str, what: str, call) -> tuple[str, object]:
    """(line recorded, table or ``None``) for the truth table *call*
    returns, or for its error."""
    try:
        result = call()
    except CftweaveError as exc:
        return f"{where} {what} error: {type(exc).__name__}: {exc}", None
    bits = result.bits.to_bytes((result.rows + 7) // 8, "little")
    return (f"{where} {what} {' '.join(result.variables)} "
            f"{hashlib.sha256(bits).hexdigest()}"), result


def tables(where: str, woven, tree, reduced):
    """The lines recorded for the oracle's tables of *tree*'s top event:
    the network's, then, over its variables, the tree's and that of the
    *reduced* report's cutsets, if any."""
    line, network = table(where, "network-table", lambda: table_of_network(woven, tree.top))
    yield line
    if network is None:
        return
    order = network.variables
    yield table(where, "tree-table", lambda: table_of_tree(tree, order))[0]
    if reduced is not None:
        yield table(where, "cutsets-table", lambda: table_of_cutsets(
            [cs.identities for cs in reduced.cutsets], order))[0]


def records(label: str, model, tops, mutate: int | None = None):
    """The lines recorded for one model; *mutate* seeds its document's
    mutations, if any."""
    text = serialize(model)
    yield f"{label} document {text!r}"
    yield from parse_records(label, text)
    if mutate is not None:
        for how, variant in mutations(text, mutate):
            yield from parse_records(f"{label} {how}", variant)
    yield attempt(label, "dot", lambda: export_dot(model))
    try:
        woven = weave(model)
    except CftweaveError as exc:
        yield f"{label} weave error: {type(exc).__name__}: {exc}"
        return
    yield attempt(label, "woven dot", lambda: export_dot(woven))
    yield attempt(label, "woven document", lambda: serialize(woven.model))
    for line in woven.sidecar_lines():
        yield f"{label} sidecar {line}"
    for top in tops:
        where = f"{label} {top}"
        try:
            tree = synthesize(woven, top)
        except CftweaveError as exc:
            yield f"{where} synthesize error: {type(exc).__name__}: {exc}"
            continue
        yield f"{where} prefix {tree.to_prefix_text()}"
        yield attempt(where, "dot", lambda: export_dot(tree))
        for stage in ("pre", "reduced"):
            try:
                report = cutsets(tree, stage)
            except CftweaveError as exc:
                yield f"{where} {stage} error: {type(exc).__name__}: {exc}"
                report = None
                continue
            for line in report.lines():
                yield f"{where} {stage} line {line}"
            for cs in report.cutsets:
                yield f"{where} {stage} tsv " + "\t".join(cs.displays)
                yield f"{where} {stage} identities " + " ".join(sorted(cs.identities))
            for displays in sorted(sorted(s) for s in report.display_sets()):
                yield f"{where} {stage} display-set " + " ".join(displays)
        yield from tables(where, woven, tree, report)


def digest(seeds: int, out=None) -> tuple[int, str]:
    """(number of lines, SHA-256 hex digest) of every line recorded with
    ``random_model`` seeds 0..*seeds*-1; each line also goes to the text
    file *out*, if given."""
    sha = hashlib.sha256()
    count = 0
    for case in models(seeds):
        for line in records(*case):
            data = line + "\n"
            sha.update(data.encode("utf-8"))
            count += 1
            if out is not None:
                out.write(data)
    return count, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10_000,
                        help="random_model seeds 0..N-1 (default 10000)")
    parser.add_argument("--out", help="also write the recorded lines here")
    args = parser.parse_args(argv)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            count, hexdigest = digest(args.seeds, out)
    else:
        count, hexdigest = digest(args.seeds)
    print(f"{count} lines, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
