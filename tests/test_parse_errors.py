"""Syntax and declaration errors rejected by ``parse``, the report it
hands to ``validate``, and whole-pipeline totality.

Each document below holds exactly one error.  For declaration errors the
expected text is ``str(err)``, so the message, line, column and token are
all pinned; for syntax errors every field is pinned on its own.
"""

import dataclasses
import re
import string

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cftweave import (
    CftweaveError,
    GateKind,
    ParseError,
    TopEventRef,
    cutsets,
    fixture_names,
    fixture_text,
    parse,
    serialize,
    synthesize,
    validate,
    weave,
)
from cftweave import textfmt
from cftweave.model import IDENTIFIER_PATTERN

import genmodels


def component(name, *body, layer="l"):
    lines = [f"component {name} in {layer} {{", *(f"  {b}" for b in body), "}"]
    return "\n".join(lines) + "\n\n"


HEAD = "layer l\n\n"
TWO = HEAD + component("c", "event e") + component("d", "event e")
PORTS = HEAD + component("c", "out p") + component("d", "in q")

REJECTED = {
    "layer": (
        "layer l\nlayer m\nlayer l\n",
        "3:7: duplicate declaration of layer 'l' (got 'l')"),
    "component": (
        HEAD + component("c") + component("c"),
        "6:11: duplicate declaration of component 'c' (got 'c')"),
    "component on another layer": (
        "layer a\nlayer b\n\n" + component("c", layer="b") + component("c", layer="a"),
        "7:11: duplicate declaration of component 'c' (got 'c')"),
    "undeclared layer": (
        HEAD + component("c", layer="m"),
        "3:16: reference to undeclared layer 'm' (got 'm')"),
    "port": (
        HEAD + component("c", "in p", "in q", "in p"),
        "6:6: duplicate declaration of port 'c.p' (got 'p')"),
    # in-ports are checked before out-ports, so the out-port is the repeat
    "port in and out": (
        HEAD + component("c", "out p", "in p"),
        "4:7: duplicate declaration of port 'c.p' (got 'p')"),
    "node event": (
        HEAD + component("c", "event e", "event e"),
        "5:9: duplicate declaration of node 'c.e' (got 'e')"),
    "node gate and event": (
        HEAD + component("c", "event e", "gate e = OR(e)"),
        "5:8: duplicate declaration of node 'c.e' (got 'e')"),
    "node gate": (
        HEAD + component("c", "event e", "gate g = OR(e)", "gate g = AND(e)"),
        "6:8: duplicate declaration of node 'c.g' (got 'g')"),
    "node port-less input failure mode": (
        HEAD + component("c", "infm x", "gate x = OR(x)"),
        "4:8: duplicate declaration of node 'c.x' (got 'x')"),
    "node port-less input failure mode and event": (
        HEAD + component("c", "event x", "infm x"),
        "5:8: duplicate declaration of node 'c.x' (got 'x')"),
    # the owner is the component whose block holds the repeat
    "node in a later component": (
        HEAD + component("c", "event e") + component("d", "event e", "event e"),
        "9:9: duplicate declaration of node 'd.e' (got 'e')"),
    "gate input in a later component": (
        HEAD + component("c", "event e") + component("d", "event e", "gate g = OR(e, ghost)"),
        "9:8: reference to undeclared node 'ghost' in component 'd' (got 'g')"),
    # the failing line repeats a valid line of an earlier component, whose
    # record must not stand in for it
    "repeated gate line in a later component": (
        HEAD + component("c", "event f", "event x", "gate g = OR(f, x)")
        + component("d", "event f", "gate g = OR(f, x)"),
        "11:8: reference to undeclared node 'x' in component 'd' (got 'g')"),
    "repeated output failure mode line in a later component": (
        HEAD + component("c", "out o", "event e", "outfm f@o = e")
        + component("d", "out o", "outfm f@o = e"),
        "11:9: reference to undeclared node 'e' in component 'd' (got 'f')"),
    "input failure mode": (
        HEAD + component("c", "in p", "infm f@p", "infm f@p"),
        "6:8: duplicate declaration of input failure mode 'c.f' (got 'f')"),
    "port-less input failure mode": (
        HEAD + component("c", "infm f", "infm f"),
        "5:8: duplicate declaration of input failure mode 'c.f' (got 'f')"),
    "output failure mode": (
        HEAD + component("c", "event e", "out p", "outfm f@p = e", "outfm f@p = e"),
        "7:9: duplicate declaration of output failure mode 'c.f' (got 'f')"),
    "port-less output failure mode": (
        HEAD + component("c", "event e", "outfm f = e", "outfm f = e"),
        "6:9: duplicate declaration of output failure mode 'c.f' (got 'f')"),
    "input failure mode port": (
        HEAD + component("c", "infm f@p"),
        "4:8: reference to undeclared port 'c.p' (got 'f')"),
    "output failure mode port": (
        HEAD + component("c", "event e", "outfm f@p = e"),
        "5:9: reference to undeclared port 'c.p' (got 'f')"),
    "gate input": (
        HEAD + component("c", "event e", "gate g = OR(e, ghost)"),
        "5:8: reference to undeclared node 'ghost' in component 'c' (got 'g')"),
    "gate input on a port": (
        HEAD + component("c", "in p", "infm f@p", "gate g = AND(f@p, f@q)"),
        "6:8: reference to undeclared node 'f@q' in component 'c' (got 'g')"),
    "output failure mode driver": (
        HEAD + component("c", "event e", "outfm f = ghost"),
        "5:9: reference to undeclared node 'ghost' in component 'c' (got 'f')"),
    "output failure mode driver on a port": (
        HEAD + component("c", "in p", "infm f", "outfm o = f@p"),
        "6:9: reference to undeclared node 'f@p' in component 'c' (got 'o')"),
    "connection source component": (
        HEAD + component("c", "in p") + "connect d.q -> c.p\n",
        "7:1: reference to undeclared component 'd' (got 'connect')"),
    "connection target component": (
        HEAD + component("c", "out p") + "connect c.p -> d.q\n",
        "7:1: reference to undeclared component 'd' (got 'connect')"),
    "connection source port": (
        PORTS + "connect c.x -> d.q\n",
        "11:1: reference to undeclared port 'c.x' (got 'connect')"),
    "connection target port": (
        PORTS + "connect c.p -> d.x\n",
        "11:1: reference to undeclared port 'd.x' (got 'connect')"),
    "connection": (
        PORTS + "connect c.p -> d.q\nconnect c.p -> d.q\n",
        "12:1: duplicate declaration of connection c.p -> d.q (got 'connect')"),
    "alfred dependent": (
        HEAD + component("c") + "alfred x -> c\n",
        "6:1: reference to undeclared component 'x' (got 'alfred')"),
    "alfred provider": (
        HEAD + component("c") + "alfred c -> x\n",
        "6:1: reference to undeclared component 'x' (got 'alfred')"),
    "alfred": (
        HEAD + component("c") + component("d") + "alfred c -> d\nalfred c -> d\n",
        "10:1: duplicate declaration of dependency c -> d (got 'alfred')"),
    "common-cause event": (
        TWO + "common-cause c.e = d.x\n",
        "11:1: reference to undeclared event 'd.x' (got 'common-cause')"),
    "common-cause component": (
        HEAD + component("c", "event e") + "common-cause c.e = z.e\n",
        "7:1: reference to undeclared event 'z.e' (got 'common-cause')"),
    # the first line that names the undeclared event is reported
    "common-cause event named twice": (
        TWO + "common-cause c.e = d.e\ncommon-cause c.x = d.e\ncommon-cause d.e = c.x\n",
        "12:1: reference to undeclared event 'c.x' (got 'common-cause')"),
    "common-cause self-alias": (
        HEAD + component("c", "event e") + "common-cause c.e = c.e\n",
        "7:1: common-cause aliases an event to itself (got 'c.e')"),
    "common-cause pair": (
        TWO + "common-cause c.e = d.e\ncommon-cause d.e = c.e\n",
        "12:1: duplicate declaration of common-cause d.e = c.e (got 'common-cause')"),
    "empty document": (
        "",
        "1:1: no layer declared; expected layer"),
    "comments only": (
        "# nothing\n\n",
        "1:1: no layer declared; expected layer"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_declaration_error(case):
    text, expected = REJECTED[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == expected


def spread(text):
    """*text* with every line indented by a tab and spaces, and every blank
    between words doubled."""
    return "\n".join("\t  " + line.replace(" ", "  ") if line else line
                     for line in text.split("\n"))


def crlf(text):
    """*text* with CRLF line endings."""
    return text.replace("\n", "\r\n")


def spread_column(line, column):
    """Where :func:`spread` moves *column* of *line*."""
    return 3 + column + line[:column - 1].count(" ")


# each layout's id suffix, how it rewrites a document, and where it moves a
# column of one of the document's lines
LAYOUTS = (
    ("", spread, spread_column),
    (", CRLF", crlf, lambda line, column: column),
    (", CRLF and tabs", lambda text: crlf(spread(text)), spread_column),
)


@pytest.mark.parametrize("case, layout", [
    pytest.param(case, layout, id=case + layout[0])
    for case in sorted(set(REJECTED) - {"empty document", "comments only"})
    for layout in LAYOUTS])
def test_declaration_error_column_under_blanks(case, layout):
    _, rewrite, move = layout
    text, expected = REJECTED[case]
    with pytest.raises(ParseError) as plain:
        parse(text)
    with pytest.raises(ParseError) as err:
        parse(rewrite(text))
    p, e = plain.value, err.value
    assert str(p) == expected
    assert (e.message, e.line, e.token, e.expected) == (p.message, p.line, p.token, p.expected)
    assert e.column == move(text.split("\n")[p.line - 1], p.column)
    line = rewrite(text).split("\n")[e.line - 1]
    # a self-alias names the event twice, so it points at the keyword
    word = "common-cause" if case == "common-cause self-alias" else e.token
    assert line[e.column - 1:].startswith(word)


# One document per syntax error path: (str(err), line, column, token, expected).
TOP = ("layer", "component", "connect", "alfred", "common-cause")
BODY = ("in", "out", "event", "gate", "infm", "outfm", "}")
SYNTAX = {
    "character before a comment": (
        "layer l $ # x\n",
        ("1:9: unexpected character '$' (got '$')", 1, 9, "$", ())),
    "character in a comment, error on the next line": (
        "layer l # $\nlayer\n",
        ("2:6: expected layer name; expected identifier", 2, 6, None, ("identifier",))),
    "lone '>'": (
        HEAD + component("c") + "alfred c > c\n",
        ("6:10: unexpected character '>' (got '>')", 6, 10, ">", ())),
    "'>' ending a line that parses without it": (
        "layer l>\n",
        ("1:8: unexpected character '>' (got '>')", 1, 8, ">", ())),
    "'-' then '>'": (
        HEAD + component("c") + "alfred c - > c\n",
        ("6:12: unexpected character '>' (got '>')", 6, 12, ">", ())),
    "names with '-'": (
        HEAD + component("c-d") + "alfred c-d -> x-y\n",
        ("6:1: reference to undeclared component 'x-y' (got 'alfred')", 6, 1, "alfred", ())),
    # '-->' is the name 'c-' then '->'
    "'-->'": (
        HEAD + component("c") + "alfred c-->c\n",
        ("6:1: reference to undeclared component 'c-' (got 'alfred')", 6, 1, "alfred", ())),
    "'-- >'": (
        HEAD + component("c-") + "alfred c-->c-\nalfred c -- > c\n",
        ("7:13: unexpected character '>' (got '>')", 7, 13, ">", ())),
    "tab indentation": (
        "layer l\n\tlayer\n",
        ("2:7: expected layer name; expected identifier", 2, 7, None, ("identifier",))),
    "CRLF": (
        "layer l\r\n\r\ncomponent c in l {\r\n  in p\r\n  in p\r\n}\r\n",
        ("5:6: duplicate declaration of port 'c.p' (got 'p')", 5, 6, "p", ())),
    "CRLF, truncated": (
        "layer l\r\nlayer\r\n",
        ("2:6: expected layer name; expected identifier", 2, 6, None, ("identifier",))),
    "stray carriage return": (
        "layer l\nlayer m\rn\n",
        ("2:8: unexpected character '\\r' (got '\\r')", 2, 8, "\r", ())),
    "vertical tab": (
        "layer l\nlayer\x0bm\n",
        ("2:6: unexpected character '\\x0b' (got '\\x0b')", 2, 6, "\x0b", ())),
    "non-ASCII letter": (
        "layer l\nlayer ä\n",
        ("2:7: unexpected character 'ä' (got 'ä')", 2, 7, "ä", ())),
    "truncated statement": (
        HEAD + component("c", "gate g = OR(e,"),
        ("4:17: expected node reference; expected identifier", 4, 17, None, ("identifier",))),
    # the column is one past the whole line, comment included
    "truncated before a comment": (
        HEAD + "component c in   # note\n",
        ("3:24: expected layer name; expected identifier", 3, 24, None, ("identifier",))),
    "unknown top-level keyword": (
        "layer l\nlayers m\n",
        ("2:1: expected a declaration (got 'layers'); expected "
         "layer | component | connect | alfred | common-cause", 2, 1, "layers", TOP)),
    "punctuation at top level": (
        "layer l\n{ m\n",
        ("2:1: expected a declaration (got '{'); expected "
         "layer | component | connect | alfred | common-cause", 2, 1, "{", TOP)),
    "unknown body keyword": (
        HEAD + component("c", "port p"),
        ("4:3: expected a component declaration (got 'port'); expected "
         "in | out | event | gate | infm | outfm | }", 4, 3, "port", BODY)),
    "punctuation in a body": (
        HEAD + component("c", "= p"),
        ("4:3: expected a component declaration (got '='); expected "
         "in | out | event | gate | infm | outfm | }", 4, 3, "=", BODY)),
    "unknown gate kind": (
        HEAD + component("c", "event e", "gate g = XOR(e)"),
        ("5:12: unknown gate kind (got 'XOR'); expected AND | OR | NOT", 5, 12, "XOR",
         ("AND", "OR", "NOT"))),
    "missing '{'": (
        HEAD + "component c in l\n}\n",
        ("3:17: expected '{'; expected {", 3, 17, None, ("{",))),
    "extra token": (
        "layer l m\n",
        ("1:9: expected end of line (got 'm'); expected end of line", 1, 9, "m",
         ("end of line",))),
    "extra token after '}'": (
        HEAD + "component c in l {\n} x\n",
        ("4:3: expected end of line (got 'x'); expected end of line", 4, 3, "x",
         ("end of line",))),
    "missing '.'": (
        HEAD + "connect c p\n",
        ("3:11: expected '.' in source port (got 'p'); expected .", 3, 11, "p", (".",))),
    "missing port after '@'": (
        HEAD + component("c", "gate g = OR(e@)"),
        ("4:17: expected port name (got ')'); expected identifier", 4, 17, ")",
         ("identifier",))),
    "missing '='": (
        HEAD + component("c", "outfm f@p e"),
        ("4:13: expected '=' (got 'e'); expected =", 4, 13, "e", ("=",))),
    "missing ')'": (
        HEAD + component("c", "gate g = OR(e e)"),
        ("4:17: expected ')' (got 'e'); expected )", 4, 17, "e", (")",))),
    # one case per message the cursor builds from a statement's items
    "missing 'in'": (
        HEAD + "component c on l {\n}\n",
        ("3:13: expected 'in' (got 'on'); expected in", 3, 13, "on", ("in",))),
    "missing '->'": (
        HEAD + "connect a.o = b.i\n",
        ("3:13: expected '->' (got '='); expected ->", 3, 13, "=", ("->",))),
    "missing '('": (
        HEAD + component("c", "event e", "gate g = OR e)"),
        ("5:15: expected '(' (got 'e'); expected (", 5, 15, "e", ("(",))),
    "missing component name": (
        HEAD + "component { in l\n",
        ("3:11: expected component name (got '{'); expected identifier", 3, 11, "{",
         ("identifier",))),
    "missing source port": (
        HEAD + "connect .o -> b.i\n",
        ("3:9: expected source port (got '.'); expected identifier", 3, 9, ".",
         ("identifier",))),
    "missing target port": (
        HEAD + "connect a.o -> b.\n",
        ("3:18: expected target port; expected identifier", 3, 18, None, ("identifier",))),
    "missing dependent component": (
        HEAD + "alfred -> b\n",
        ("3:8: expected dependent component (got '->'); expected identifier", 3, 8, "->",
         ("identifier",))),
    "missing provider component": (
        HEAD + "alfred a -> {\n",
        ("3:13: expected provider component (got '{'); expected identifier", 3, 13, "{",
         ("identifier",))),
    "missing event reference": (
        HEAD + "common-cause a.e = .e\n",
        ("3:20: expected event reference (got '.'); expected identifier", 3, 20, ".",
         ("identifier",))),
    "missing event name": (
        HEAD + component("c", "event @"),
        ("4:9: expected event name (got '@'); expected identifier", 4, 9, "@",
         ("identifier",))),
    "missing gate name": (
        HEAD + component("c", "gate = OR(e)"),
        ("4:8: expected gate name (got '='); expected identifier", 4, 8, "=",
         ("identifier",))),
    "missing gate kind": (
        HEAD + component("c", "gate g = (e)"),
        ("4:12: expected gate kind (got '('); expected identifier", 4, 12, "(",
         ("identifier",))),
    "missing failure mode name": (
        HEAD + component("c", "outfm = e"),
        ("4:9: expected failure mode name (got '='); expected identifier", 4, 9, "=",
         ("identifier",))),
    "common-cause self-alias, spaced": (
        HEAD + component("c", "event e") + "common-cause  c.e = c.e\n",
        ("7:1: common-cause aliases an event to itself (got 'c.e')", 7, 1, "c.e", ())),
    "common-cause pair, indented": (
        TWO + "common-cause c.e = d.e\n  common-cause d.e = c.e\n",
        ("12:3: duplicate declaration of common-cause d.e = c.e (got 'common-cause')",
         12, 3, "common-cause", ())),
    # located at the layer name, so column and token agree
    "undeclared layer, spaced": (
        HEAD + "component   c  in\tm {\n}\n",
        ("3:19: reference to undeclared layer 'm' (got 'm')", 3, 19, "m", ())),
    "unclosed block": (
        HEAD + "component c in l {\n  event e\n",
        ("5:1: unexpected end of file inside component 'c'; expected }", 5, 1, None, ("}",))),
    "unclosed block, no final newline": (
        HEAD + "component c in l {\n  event e",
        ("4:1: unexpected end of file inside component 'c'; expected }", 4, 1, None, ("}",))),
}


@pytest.mark.parametrize("case", sorted(SYNTAX))
def test_syntax_error(case):
    text, expected = SYNTAX[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    e = err.value
    assert (str(e), e.line, e.column, e.token, e.expected) == expected


def test_comment_may_hold_any_character():
    model = parse("layer l # $ > \x0b ä\r\n")
    assert model.layers == ("l",)

# Errors that only validate reports: each of these documents parses.
ACCEPTED = {
    "in-port bound as output": HEAD + component("c", "event e", "in p", "outfm f@p = e"),
    "out-port bound as input": HEAD + component("c", "out p", "infm f@p"),
    "NOT arity": HEAD + component("c", "event e", "gate g = NOT(e, e)"),
    "gate cycle": HEAD + component("c", "gate g = OR(h)", "gate h = OR(g)"),
    "gate on itself": HEAD + component("c", "gate g = OR(g)"),
    "self-connection": HEAD + component("c", "in i", "out o") + "connect c.o -> c.i\n",
    "connection direction": PORTS + "connect d.q -> c.p\n",
    "in-port fed twice": (HEAD + component("a", "out o") + component("b", "out o")
                          + component("c", "in i")
                          + "connect a.o -> c.i\nconnect b.o -> c.i\n"),
    "self-dependency": HEAD + component("c") + "alfred c -> c\n",
    "dependency cycle": HEAD + component("c") + component("d")
                        + "alfred c -> d\nalfred d -> c\n",
    "no components": "layer l\n",
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_validate_only_error_parses(case):
    assert not validate(parse(ACCEPTED[case])).ok


IDENTIFIER = re.compile(r"[A-Za-z0-9_-]+")


@st.composite
def mutated_documents(draw):
    """A generated model's document with one line deleted, one line
    duplicated, or one identifier replaced by another from the document."""
    model, _ = genmodels.random_model(draw(st.integers(0, 10**6)))
    text = serialize(model)
    lines = text.split("\n")
    how = draw(st.sampled_from(("delete", "duplicate", "swap")))
    if how == "swap":
        spans = [m.span() for m in IDENTIFIER.finditer(text)]
        names = sorted({text[a:b] for a, b in spans})
        start, end = draw(st.sampled_from(spans))
        return text[:start] + draw(st.sampled_from(names)) + text[end:]
    i = draw(st.integers(0, len(lines) - 1))
    if how == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines)


def step(fn, *args):
    """Run one pipeline step: its result, or None for a CftweaveError.

    Any other exception propagates and fails the test.
    """
    try:
        return fn(*args)
    except CftweaveError:
        return None


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_pipeline_returns_or_raises_cftweave_error(text):
    model = step(parse, text)
    if model is None:
        return
    validate(model)
    woven = step(weave, model)
    if woven is None:
        return
    for comp in model.components:
        for ofm in comp.cft.output_fms if comp.cft else ():
            tree = step(synthesize, woven, TopEventRef(comp.name, ofm.name))
            if tree is not None:
                step(cutsets, tree, "pre")
                step(cutsets, tree, "reduced")


# Documents that parse with warnings only.
WARNED = {
    "unconnected in-port": HEAD + component("c", "in p"),
    "provider without a fault tree": HEAD + component("c") + component("d")
                                     + "alfred c -> d\n",
}


@st.composite
def documents(draw):
    """A generated model's document, as serialised or mutated."""
    if draw(st.booleans()):
        return draw(mutated_documents())
    model, _ = genmodels.random_model(draw(st.integers(0, 10**6)))
    return serialize(model)


@settings(max_examples=300, deadline=None)
@given(documents())
def test_parse_hands_validate_the_fresh_report(text):
    model = step(parse, text)
    assume(model is not None)
    # replace builds a model without parse's report, so validate checks it afresh
    assert validate(model) == validate(dataclasses.replace(model))


@pytest.mark.parametrize("text", [*ACCEPTED.values(), *WARNED.values()],
                         ids=[*ACCEPTED, *WARNED])
def test_handed_report_has_errors_and_warnings(text):
    model = parse(text)
    assert validate(model).findings
    assert validate(model) == validate(dataclasses.replace(model))


# Pieces of single lines: keywords of both contexts, gate kinds, names with
# '-', punctuation, '>' alone, blanks, comments and a carriage return.
LINE_PIECES = (*TOP, *BODY, "AND", "OR", "NOT", "XOR", "a", "b-c", "x_1", "9", "-",
               "--", "a-", "-b", "->", "{", "(", ")", "=", ",", "@", ".", ">",
               " ", " ", "\t", "# c -> {", "#", "\r")
# Valid statements of each context, as words to join with drawn blanks.
STATEMENTS = {
    False: (("layer", "l"), ("component", "c", "in", "l", "{"),
            ("connect", "a", ".", "o", "->", "b-c", ".", "i"), ("alfred", "a-", "->", "b"),
            ("common-cause", "a", ".", "e", "=", "b", ".", "e")),
    True: (("in", "p"), ("out", "p"), ("event", "e"), ("}",),
           ("gate", "g", "=", "OR", "(", "e", ",", "f", "@", "p", ")"),
           ("gate", "g", "=", "NOT", "(", "e", ")"), ("infm", "f", "@", "p"), ("infm", "f"),
           ("outfm", "o", "=", "g"), ("outfm", "o", "@", "q", "=", "f", "@", "p")),
}



def test_statements_cover_every_keyword():
    assert TOP == tuple(textfmt._TOP) and BODY == tuple(textfmt._BODY)
    for in_block, table in ((False, textfmt._TOP), (True, textfmt._BODY)):
        assert {words[0] for words in STATEMENTS[in_block]} == set(table)


@st.composite
def lines(draw):
    """One line over the grammar's alphabet: a valid statement of either
    context with drawn blanks and trailer, or a soup of pieces."""
    if draw(st.booleans()):
        words = draw(st.sampled_from(STATEMENTS[draw(st.booleans())]))
        blanks = st.sampled_from(("", "", " ", "\t", " \t"))
        text = draw(blanks) + "".join(w + draw(blanks) for w in words)
        return text + draw(st.sampled_from(("", "# note", "\r", "\r\r", "#\r x\r", " $")))
    return "".join(draw(st.lists(st.sampled_from(LINE_PIECES), max_size=12)))


def cursor_accepts(line, in_block):
    try:
        textfmt._check_line(line, 1, in_block)
    except ParseError:
        return False
    return True


@settings(max_examples=1000, deadline=None)
@given(lines())
def test_grammar_matches_exactly_the_lines_the_cursor_accepts(line):
    # parse reads each tab as a space before matching
    spaced = line.replace("\t", " ")
    for in_block, grammar in ((False, textfmt._TOP_LINE), (True, textfmt._BODY_LINE)):
        assert (grammar.fullmatch(spaced) is not None) == cursor_accepts(line, in_block)


@settings(max_examples=500, deadline=None)
@given(st.text(string.ascii_letters + string.digits + "_-.@>{=,$ä", max_size=8))
def test_parse_accepts_exactly_the_legal_names(name):
    try:
        parse(f"layer {name}\n")
    except ParseError:
        accepted = False
    else:
        accepted = True
    assert accepted == (IDENTIFIER_PATTERN.match(name) is not None)


class _NoCursor:
    def __init__(self, *args):
        raise AssertionError("a valid document reached the cursor")


def test_valid_documents_never_reach_the_cursor(monkeypatch, fig2, vehicle):
    monkeypatch.setattr(textfmt, "_Cursor", _NoCursor)
    texts = [fixture_text(name) for name in fixture_names()]
    families = [genmodels.wide(n, kind)[0] for n in (1, 50) for kind in GateKind]
    families += [genmodels.chain(30)[0], genmodels.lattice(8)[0],
                 genmodels.alfred_chain(20)]
    texts += [serialize(model) for model in families]
    texts += [serialize(genmodels.random_model(seed, allow_not=seed % 2 == 0)[0])
              for seed in range(200)]
    for text in texts:
        for variant in (text, text.replace("\n", "\r\n"), text.replace(" ", " \t")):
            assert serialize(parse(variant)) == serialize(parse(text))
    assert parse(texts[0]) == fig2 and parse(texts[1]) == vehicle
