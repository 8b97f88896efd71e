"""Deterministic `.alfred` text builders for the benchmark's models.

Each builder returns a :class:`Case`: the model text, the top events to
analyse, and, for the scalable families, the expected fault tree and
cutset lines, worked out in closed form from the family's structure and
never from the pipeline.

The ``rng`` argument only permutes declaration order: top-level
declarations and the lines inside each component block.  Gate input order
is fixed, because it decides child order in the synthesised tree.  The
model's canonical ordering therefore makes every output independent of the
seed, so one recorded digest per output holds for all seeds.

Families:

* ``wide(n, kind)``: n sensors ``S{k}`` (events ``f``, ``g``) feed one
  ``kind`` gate in ``T``; every sensor ``alfred``-depends on battery ``B``.
* ``chain(d)``: ``C0 -> ... -> C{d-1}`` by ports, each stage ORs its input
  with its own event ``e`` and ``alfred``-depends on ``B``.
* ``lattice(w)``: stage ``L{k}`` feeds ``L{k+1}`` through two ports driven
  by one shared gate, so the tree is a DAG whose prefix text doubles per
  stage.
* ``small_model(index)``: a small random valid model, the corpus member
  with that index.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

BATTERY = ("Battery-omission", "Battery-too-low")
AND_SEP = " ∧ "


@dataclass(frozen=True)
class Case:
    label: str
    text: str
    tops: tuple[str, ...]
    # Closed-form references for a family with one top event: the expected
    # fault tree as a DAG of ("LEAF", display) and (kind, children) tuples,
    # shared where the synthesised tree shares nodes, and factories of the
    # expected report lines per cutset stage.  None for corpus models, which
    # the oracle and the recorded digests check instead.
    tree: tuple | None = None
    lines: dict | None = None


def prefix_text(root: tuple) -> str:
    """The nested-prefix rendering of an expected tree, shared nodes
    rendered once and reused."""
    done: dict[int, str] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if node[0] == "LEAF":
            done[id(node)] = node[1]
        elif ready:
            done[id(node)] = f"{node[0]}({','.join(done[id(c)] for c in node[1])})"
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in node[1])
    return done[id(root)]


def tree_dot(root: tuple) -> str:
    """The DOT rendering of an expected tree: nodes numbered in depth-first
    preorder, each edge listed once its target's subtree is finished."""
    names: dict[int, str] = {}
    node_lines: list[str] = []
    edge_lines: list[str] = []

    def enter(node) -> str:
        name = names[id(node)] = f"n{len(names)}"
        label, shape = (node[1], "ellipse") if node[0] == "LEAF" else (node[0], "box")
        node_lines.append(f'  {name} [label="{label}", shape={shape}];')
        return name

    stack = [(root, enter(root), 0)]
    while stack:
        node, name, i = stack.pop()
        if node == "EDGE":
            edge_lines.append(f"  {name} -> {i};")
            continue
        if node[0] == "LEAF" or i == len(node[1]):
            continue
        stack.append((node, name, i + 1))
        child = node[1][i]
        if id(child) in names:
            edge_lines.append(f"  {name} -> {names[id(child)]};")
        else:
            child_name = enter(child)
            stack.append(("EDGE", name, child_name))
            stack.append((child, child_name, 0))
    return "\n".join(["digraph fault_tree {", *node_lines, *edge_lines, "}"]) + "\n"


def _text(layers, components, edges, rng: random.Random) -> str:
    """Render declarations in an order drawn from *rng*.

    *components* holds ``(name, layer, body_lines)``; *edges* holds
    ``connect``/``alfred``/``common-cause`` lines.
    """
    decls = [f"layer {layer}" for layer in layers]
    for name, layer, body in components:
        body = list(body)
        rng.shuffle(body)
        decls.append("\n".join([f"component {name} in {layer} {{",
                                *(f"  {line}" for line in body), "}"]))
    decls.extend(edges)
    rng.shuffle(decls)
    return "\n".join(decls) + "\n"


def _battery():
    return ("B", "hw", [f"event {e}" for e in BATTERY]
            + [f"outfm {e} = {e}" for e in BATTERY])


def _singletons(names):
    names = sorted(names)
    return lambda: names


def _woven(dependent: str, driver: tuple) -> tuple:
    """A dependent's output failure mode after weaving in battery B."""
    return ("OR", (driver, *(("LEAF", f"{dependent}.{b}") for b in BATTERY)))


def wide(n: int, kind: str, rng: random.Random) -> Case:
    comps = [_battery()]
    edges = []
    for k in range(n):
        comps.append((f"S{k}", "sw", ["out o", "event f", "event g",
                                      "gate any = OR(f, g)", "outfm fail@o = any"]))
        edges += [f"connect S{k}.o -> T.i{k}", f"alfred S{k} -> B"]
    inputs = ", ".join(f"fail@i{k}" for k in range(n))
    comps.append(("T", "sw", [f"in i{k}" for k in range(n)]
                  + [f"infm fail@i{k}" for k in range(n)]
                  + ["out o", f"gate top = {kind}({inputs})", "outfm loss@o = top"]))
    sensors = [f"S{k}" for k in range(n)]
    tree = (kind, tuple(_woven(s, ("OR", (("LEAF", f"{s}.f"), ("LEAF", f"{s}.g"))))
                        for s in sensors))
    if kind == "OR":
        lines = {
            "pre": _singletons(f"{s}.{x}" for s in sensors for x in (*BATTERY, "f", "g")),
            "reduced": _singletons([f"B.{b}" for b in BATTERY]
                                   + [f"{s}.{x}" for s in sensors for x in "fg"]),
        }
    else:
        # Every product takes one leaf per sensor.  "S{k}." prefixes never
        # prefix one another, so a product's sorted displays run in sensor
        # name order, and the sorted report is the Cartesian product over
        # sensors in name order with each sensor's options sorted.
        ordered = sorted(sensors)

        def products(options):
            per_sensor = [[f"{s}.{x}" for x in sorted(options)] for s in ordered]
            return (AND_SEP.join(p) for p in itertools.product(*per_sensor))

        lines = {
            "pre": lambda: products((*BATTERY, "f", "g")),
            # B.* alone (every sensor took the same battery leaf) absorbs
            # every product touching the battery; 2^n sensor products stay.
            "reduced": lambda: itertools.chain((f"B.{b}" for b in BATTERY),
                                               products("fg")),
        }
    return Case(f"wide({n},{kind})", _text(("sw", "hw"), comps, edges, rng),
                ("T.loss",), tree, lines)


def chain(d: int, rng: random.Random) -> Case:
    comps = [_battery()]
    edges = []
    tree = None
    for k in range(d):
        body = ["out o", "event e"]
        leaf = ("LEAF", f"C{k}.e")
        if k == 0:
            body.append("outfm fail@o = e")
            tree = _woven("C0", leaf)
        else:
            body += ["in i", "infm fail@i", "gate g = OR(fail@i, e)", "outfm fail@o = g"]
            edges.append(f"connect C{k - 1}.o -> C{k}.i")
            tree = _woven(f"C{k}", ("OR", (tree, leaf)))
        comps.append((f"C{k}", "sw", body))
        edges.append(f"alfred C{k} -> B")
    stages = [f"C{k}" for k in range(d)]
    lines = {
        "pre": _singletons(f"{s}.{x}" for s in stages for x in ("e", *BATTERY)),
        "reduced": _singletons([f"B.{b}" for b in BATTERY] + [f"{s}.e" for s in stages]),
    }
    return Case(f"chain({d})", _text(("sw", "hw"), comps, edges, rng),
                (f"C{d - 1}.fail",), tree, lines)


def lattice(w: int, rng: random.Random) -> Case:
    comps = []
    edges = []
    tree = None
    for k in range(w):
        body = ["event e"]
        driver = "e"
        leaf = ("LEAF", f"L{k}.e")
        if k == 0:
            tree = leaf
        else:
            body += ["in ia", "in ib", "infm fail@ia", "infm fail@ib",
                     "gate g = OR(fail@ia, fail@ib, e)"]
            driver = "g"
            edges += [f"connect L{k - 1}.oa -> L{k}.ia", f"connect L{k - 1}.ob -> L{k}.ib"]
            tree = ("OR", (tree, tree, leaf))
        # the last stage has one output, so its failure mode names one top
        ports = ("o",) if k == w - 1 else ("oa", "ob")
        body += [f"out {p}" for p in ports] + [f"outfm fail@{p} = {driver}" for p in ports]
        comps.append((f"L{k}", "sw", body))
    cutsets = _singletons(f"L{k}.e" for k in range(w))
    return Case(f"lattice({w})", _text(("sw",), comps, edges, rng),
                (f"L{w - 1}.fail",), tree, {"pre": cutsets, "reduced": cutsets})


FM_NAMES = ("loss-of", "stuck", "late-output")
MAX_IDENTITIES = 12


def small_model(index: int, rng: random.Random) -> Case:
    """Corpus member *index*: 2-6 components, at most 12 identities.

    The structure depends on *index* only; *rng* permutes declarations.
    Valid by construction: connections run from earlier to later
    components, each connected input failure mode names an upstream output
    failure mode on that port, dependencies point to earlier components
    with failure behaviour, output failure mode names are unique per
    component and gates are AND/OR only, so every output failure mode is an
    analysable top event.
    """
    r = random.Random(index)
    layers = [f"L{i}" for i in range(r.randint(1, 2))]
    budget = MAX_IDENTITIES
    specs = []
    edges = []
    for i in range(r.randint(2, 6)):
        name = f"C{i}"
        spec = {"name": name, "layer": r.choice(layers), "body": [], "outfms": [],
                "has_events": False}
        sources = []
        for j in range(r.randint(0, 2)):
            if budget:
                budget -= 1
                spec["body"].append(f"event e{j}")
                sources.append(f"e{j}")
        upstream = [(up["name"], fm, port) for up in specs
                    for fm, port in up["outfms"] if port is not None]
        r.shuffle(upstream)
        ports = 0
        for up_name, fm, up_port in upstream[:r.randint(0, 2)]:
            port = f"i{ports}"
            ports += 1
            spec["body"].append(f"in {port}")
            edges.append(f"connect {up_name}.{up_port} -> {name}.{port}")
            if r.random() < 0.85:
                spec["body"].append(f"infm {fm}@{port}")
                sources.append(f"{fm}@{port}")
        if budget and r.random() < 0.4:
            budget -= 1
            port = f"i{ports}"
            fm = r.choice(FM_NAMES)
            spec["body"] += [f"in {port}", f"infm {fm}@{port}"]
            sources.append(f"{fm}@{port}")
        if budget and r.random() < 0.2:
            budget -= 1
            spec["body"].append("infm x0")
            sources.append("x0")
        n_out = r.randint(0, 2)
        if n_out and not sources:
            if budget:
                budget -= 1
                spec["body"].append("event e0")
                sources.append("e0")
            else:
                n_out = 0
        spec["has_events"] = any(line.startswith("event ") for line in spec["body"])
        gates = 0

        def expr(depth: int) -> str:
            nonlocal gates
            if depth >= 2 or r.random() < 0.45:
                return r.choice(sources)
            kind = r.choice(("AND", "OR"))
            args = ", ".join(expr(depth + 1) for _ in range(r.randint(1, 3)))
            gate = f"g{gates}"
            gates += 1
            spec["body"].append(f"gate {gate} = {kind}({args})")
            return gate

        pool = list(FM_NAMES)
        r.shuffle(pool)
        outs = 0
        for _ in range(n_out):
            fm = pool.pop()
            port = None
            if r.random() < 0.75:
                port = f"o{outs}"
                outs += 1
                spec["body"].append(f"out {port}")
            driver = expr(0)
            spec["body"].append(f"outfm {fm}{'@' + port if port else ''} = {driver}")
            spec["outfms"].append((fm, port))
        specs.append(spec)

    if not any(spec["outfms"] for spec in specs):
        spec = next((s for s in reversed(specs) if s["has_events"]), specs[-1])
        if not spec["has_events"]:
            spec["body"].append("event e0")
            spec["has_events"] = True
        spec["body"].append(f"outfm {FM_NAMES[0]} = e0")
        spec["outfms"].append((FM_NAMES[0], None))

    for i, dependent in enumerate(specs):
        for provider in specs[:i]:
            if r.random() < 0.22 and (provider["outfms"] or provider["has_events"]):
                edges.append(f"alfred {dependent['name']} -> {provider['name']}")

    events = [(s["name"], line.split()[1]) for s in specs for line in s["body"]
              if line.startswith("event ")]
    if len(events) >= 2 and r.random() < 0.3:
        (ca, ea), (cb, eb) = r.sample(events, 2)
        if ca != cb:
            edges.append(f"common-cause {ca}.{ea} = {cb}.{eb}")

    comps = [(s["name"], s["layer"], s["body"]) for s in specs]
    tops = tuple(f"{s['name']}.{fm}" for s in specs for fm, _ in s["outfms"])
    return Case(f"corpus-{index:03d}", _text(layers, comps, edges, rng), tops)
