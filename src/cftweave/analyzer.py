"""Qualitative fault-tree analysis: cutsets and Boolean reduction.

Cutsets come from top-down product expansion (the classic
AND-distributes-over-OR walk), folded bottom-up by the tree's children-first
fold, each shared gate once, so tree depth is not limited by the
interpreter's recursion limit.  A gate's products are dropped once its last
parent is folded, so memory follows the products still needed rather than
the depth of the tree.  An OR gate keeps its products as the keys of dicts,
in first-seen order; when its first child is a gate folded there for the
last time, it extends that child's value in place instead of copying it, so
a long OR chain fills one value and costs time linear in its length.  Two
report stages exist:

* ``pre``: the expanded products over leaf display names, deduplicated but
  without absorption, with every display-named leaf treated as its own atom.
  This is the list a reviewer compares against the woven structure, where
  one physical cause may legitimately appear once per dependent.  Each
  product is built as its report line, its sorted display names joined by
  `` ∧ ``, and every value of the fold maps product size to that size's
  lines.  Copies are named after their dependent
  (``S3.Battery-omission``), so an AND operand's names usually all follow
  the names so far (the woven shape): such a step appends each operand
  product's tail to each line so far, with no deduplication, no sort per
  product and no join.  Other AND steps, and OR gates, deduplicate into
  dicts.  A list of lines is in report order, sorted as strings, which is
  the order of the display tuples because every name character sorts above
  the blank that starts the separator; a display or identity holding a
  character at or below U+0020 is rejected.  An AND gate sorts its first
  operand's lines, and appending sorted tails to sorted lines keeps them
  sorted, so such a step sorts only a dict of lines so far and merges two
  runs of one size.  The report takes the size groups in ascending order
  and sorts only those that are not lists.  The report holds only the
  lines until more is read: :meth:`CutSetReport.lines` builds nothing,
  :meth:`CutSetReport.rows` splits the display tuples from the lines on
  its first call, and identity sets are formed on the first read of
  :attr:`CutSetReport.cutsets`, where products that differ only in which
  dependent's copy of a cause they hold share one identity-set object.
* ``reduced``: the unique minimal disjunctive normal form of the monotone
  tree function over event identities.  A tree whose gates are all OR (a
  shape weaving often gives, as it ORs each provider failure into its
  dependents) has its distinct identities as that form, since distinct
  single atoms never absorb each other: they are read off the identity
  table the tree kept when it was built, with no fold, no bit table and
  no minimisation.  In a tree
  with an AND gate, the distinct identities are numbered once in sorted
  order and a product is an ``int`` bitmask over them, so common causes
  collapse (and idempotence holds) before any product is built.  Each AND
  gate minimises its cross product, absorbing every product that contains
  another; OR gates only deduplicate; the root is minimised once more.
  Minimisation checks each product only against smaller kept ones, found
  through an index keyed by lowest set bit, so the cost follows the
  minimal cutsets rather than every display-level product; a mask is still
  as wide as the tree's identities.  The report is ordered by one sort on
  size, display names and identities, so two cutsets that show alike (one
  identity's name can be another's display) keep one order, whatever order
  minimisation found them in.  For the same reason the report keeps each
  row's sorted identities: its displays cannot always be mapped back to
  them.

Each AND gate may form at most :data:`MAX_PRODUCTS` products from two
operands, in either stage; a larger cross product raises
:class:`AnalysisError` with the count before any product is built.  In
``pre``, an OR gate's merged products may number at most as many too, so
no ``pre`` report holds more lines.

NOT gates make cutset semantics undefined here and are rejected; use
:func:`evaluate` for pointwise checks of non-coherent trees.  The brute-force
route for certifying these results lives in :mod:`cftweave.oracle`, not
here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

from .errors import AnalysisError
from .model import GateKind
from .synthesizer import FaultTree

STAGES = ("pre", "reduced")

# Most products one AND gate may form from two operands, in either stage,
# and one OR gate may hold in ``pre``.
MAX_PRODUCTS = 2**18

# Joins the display names of a product into its report line.
_SEP = " ∧ "
# lines a report joins and splits at once when it splits its rows
_SPLIT_BLOCK = 1024


@dataclass(frozen=True)
class CutSet:
    """One product of failure atoms, with display names and identities."""

    displays: tuple[str, ...]
    identities: frozenset[str]


@dataclass(frozen=True, eq=False, repr=False)
class CutSetReport:
    """Cutsets ordered by ascending cardinality, then lexicographically.

    The report holds each cutset's line in report order, a function that
    splits the lines into rows, and a function that forms the identity sets
    from the rows in the same order.  :meth:`rows` splits the lines on its
    first call, and the :class:`CutSet` tuple is built on the first read of
    :attr:`cutsets`, so :meth:`lines`, :meth:`rows` and :meth:`display_sets`
    build no cutset and no identity set.  Equality, hash and repr are those
    of ``(stage, cutsets)``.
    """

    stage: str
    _lines: tuple[str, ...]
    _split: Callable[[], tuple[tuple[str, ...], ...]]
    _identities: Callable[[tuple[tuple[str, ...], ...]], Iterator[frozenset[str]]]

    @cached_property
    def cutsets(self) -> tuple[CutSet, ...]:
        rows = self.rows()
        return tuple(map(CutSet, rows, self._identities(rows)))

    def lines(self) -> tuple[str, ...]:
        return self._lines

    def rows(self) -> tuple[tuple[str, ...], ...]:
        """Each cutset's display names, in report order, split from the
        lines on the first call."""
        return self._rows

    @cached_property
    def _rows(self) -> tuple[tuple[str, ...], ...]:
        return self._split()

    def display_sets(self) -> set[frozenset[str]]:
        return set(map(frozenset, self.rows()))

    def identity_sets(self) -> set[frozenset[str]]:
        return set(self._identities(self.rows()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.stage, self.cutsets) == (other.stage, other.cutsets)

    def __hash__(self):
        return hash((self.stage, self.cutsets))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(stage={self.stage!r}, cutsets={self.cutsets!r})"


def _check_budget(count: int, kind: GateKind) -> None:
    if count > MAX_PRODUCTS:
        raise AnalysisError(
            f"cutset expansion would form {count} products at one {kind.value} gate, "
            f"over the budget of {MAX_PRODUCTS}")


def _union(kids, owned: bool) -> dict:
    """An OR gate's masks in ``reduced``: its children's, deduplicated, in
    first-seen order, as the keys of a dict.

    When the first child's dict is *owned* (no other parent still needs
    it), it is extended in place, so a long OR chain hands one dict up
    instead of copying everything below each gate.
    """
    if owned and isinstance(kids[0], dict):
        acc = kids[0]
        acc.update(dict.fromkeys(chain.from_iterable(kids[1:])))
        return acc
    return dict.fromkeys(chain.from_iterable(kids))


def _count(groups: dict) -> int:
    return sum(map(len, groups.values()))


def _merge(kids, owned: bool) -> dict:
    """An OR gate's products: its children's, merged per size and
    deduplicated; an *owned* first child's value is taken over and extended
    in place, so a long OR chain hands one dict up instead of copying
    everything below each gate."""
    groups, kids = (kids[0], kids[1:]) if owned else ({}, kids)
    for kid in kids:
        for size, lines in kid.items():
            group = groups.get(size)
            if group is None:
                groups[size] = dict.fromkeys(lines)
                continue
            if type(group) is not dict:  # an AND gate's list, taken over
                groups[size] = group = dict.fromkeys(group)
            group.update(dict.fromkeys(lines))
    return groups


def _split(parts) -> list[list[str]]:
    """Each product's names; the empty product has none."""
    return [line.split(_SEP) if size else [] for size, lines in parts for line in lines]


def _and_lines(kids) -> dict:
    """An AND gate's products: its children's, crossed one at a time.

    Each operand is split into its products' names once.  When the
    operand's names all follow the names so far (the woven shape), the
    operand shares no name with the products so far, so distinct pairs
    form distinct products and no name repeats within one (the rule behind
    fault-tree modules; Dutuit & Rauzy, IEEE Trans. Reliability 45(3),
    1996).  Such a step makes each product's line as the line so far plus
    the operand product's tail, `` ∧ `` and its line, each tail made once
    from the operand's sorted lines; the sizes add.  Other steps merge each
    pair of products' names, sort them and deduplicate.  A single-product
    operand whose names every product already holds changes nothing and is
    skipped.
    """
    acc = None  # only the empty product, until the first operand
    every: set[str] = set()  # names in every product of acc
    for kid in kids:
        right = _split(kid.items())
        if not right:  # no products
            return {}
        names = set(chain.from_iterable(right))
        if not names:  # only the empty product
            continue
        if len(right) == 1:  # one product: after this step, in every product
            if names <= every:
                continue
            every |= names
        if acc is None:
            acc = {size: sorted(lines) for size, lines in kid.items()}
            high = max(names)
            continue
        _check_budget(_count(acc) * len(right), GateKind.AND)
        out = {}
        if min(names) > high:
            for have, prefixes in acc.items():  # a dict from an unordered step
                if type(prefixes) is not list:
                    acc[have] = sorted(prefixes)
            for size, lines in kid.items():
                ordered = sorted(lines)  # once, not once per product of acc
                tails = [_SEP + line for line in ordered]
                for have, prefixes in acc.items():
                    made = (prefixes if not size else ordered if not have
                            else [a + tail for a in prefixes for tail in tails])
                    group = out.get(have + size)
                    if group is not None:  # two sorted runs, merged in linear time
                        made = [*group, *made]
                        made.sort()
                    out[have + size] = made
        else:
            for a in _split(acc.items()):
                for b in right:
                    merged = sorted({*a, *b})
                    group = out.get(len(merged))
                    if group is None:
                        out[len(merged)] = group = {}
                    group[_SEP.join(merged)] = None
        acc = out
        high = max(high, max(names))
    return {0: [""]} if acc is None else acc


def _display_products(tree: FaultTree) -> dict:
    """Every product over leaf display names, deduplicated, not absorbed.

    A product is its report line, its sorted display names joined by
    `` ∧ ``, so one set of names has one line and the report joins nothing.
    Every value maps product size to that size's lines: a leaf's is
    ``{1: (display,)}``, and the empty product's ``{0: [""]}``.
    """
    def gate(node, kids, owned):
        if node.kind is GateKind.AND:
            return _and_lines(kids)
        products = _merge(kids, owned)
        _check_budget(_count(products), node.kind)
        return products

    return tree._fold(lambda leaf: {1: (leaf.display,)}, gate)


def _minimise(masks) -> tuple[int, ...]:
    """The masks that contain no other mask.

    Candidates go by ascending size and are checked only against kept masks
    of strictly smaller size (two distinct masks of one size never absorb
    each other).  Kept masks are indexed by their lowest set bit, so a
    candidate looks only in the buckets of those of its bits that have one.
    """
    masks = set(masks)
    if 0 in masks:  # the empty product absorbs every other
        return (0,)
    by_low: dict[int, list[int]] = {}
    kept: list[int] = []
    pending: list[int] = []  # kept at the current size, not yet indexed
    indexed = 0  # the bits that have a bucket
    size = 0
    for mask in sorted(masks, key=int.bit_count):
        if mask.bit_count() != size:
            size = mask.bit_count()
            for k in pending:
                by_low.setdefault(k & -k, []).append(k)
                indexed |= k & -k
            pending = []
        rest = mask & indexed
        while rest:
            low = rest & -rest
            if any(k & mask == k for k in by_low[low]):
                break
            rest ^= low
        else:
            kept.append(mask)
            pending.append(mask)
    return tuple(kept)


def _identity_products(tree: FaultTree, bit_of: dict[str, int]) -> tuple[int, ...]:
    """The minimal products over leaf identities, as bitmasks."""
    def gate(node, kids, owned):
        if node.kind is GateKind.OR:
            return _union(kids, owned)
        acc: tuple[int, ...] = (0,)
        for kid in kids:
            _check_budget(len(acc) * len(kid), node.kind)
            acc = _minimise([a | b for a in acc for b in kid])
        return acc

    return _minimise(tree._fold(lambda leaf: (bit_of[leaf.identity],), gate))


def _split_lines(lines, runs, names: Iterable[str]):
    """The display tuples of report lines, given as *runs* of (size,
    number of lines) in order.  Each name is the one object among *names*
    equal to it, so rows share the tree's strings.  Each block of a run is
    joined and split once and cut into rows of the run's size; the empty
    product's row is ``()``, though its line is a single empty name."""
    known = {name: name for name in names}.__getitem__
    rows: list[tuple[str, ...]] = []
    start = 0
    for size, count in runs:
        end = start + count
        if not size:
            rows += [()] * count
        else:  # in blocks, so the joined text and its split stay small
            for i in range(start, end, _SPLIT_BLOCK):
                block = _SEP.join(lines[i:min(i + _SPLIT_BLOCK, end)])
                rows += zip(*[map(known, block.split(_SEP))] * size)
        start = end
    return tuple(rows)


def _shared_identity_sets(rows, identity_of: dict[str, str]):
    """Each row's identity set, in order.  Rows that name one cause
    through several dependents' copies collapse to one identity set; they
    share one frozenset."""
    shared: dict[frozenset[str], frozenset[str]] = {}
    for row in rows:
        identities = frozenset(map(identity_of.__getitem__, row))
        yield shared.setdefault(identities, identities)


def cutsets(tree: FaultTree, stage: str = "reduced") -> CutSetReport:
    """Compute the cutset report for a coherent tree at the given stage."""
    if stage not in STAGES:
        raise AnalysisError(f"unknown stage '{stage}', expected one of {STAGES}")
    if tree.root is None:
        raise AnalysisError("empty tree")
    if GateKind.NOT in tree._kinds:
        raise AnalysisError("non-coherent tree: cutset semantics undefined")
    if tree._ambiguous:
        raise AnalysisError(f"display name '{tree._ambiguous[0]}' maps to several identities")
    identity_of, display_of = tree._identity_of, tree._display_of
    # Lines sort as their rows do, and split back into them, only because
    # every name's characters sort above the separator's leading blank.  The
    # characters below it are control characters, which are not printable.
    text = "".join(chain(identity_of, display_of))
    if " " in text or not text.isprintable():
        for kind, names in (("display name", identity_of), ("identity", display_of)):
            for name in names:
                if name and min(name) <= " ":
                    raise AnalysisError(
                        f"{kind} {name!r} holds a character at or below U+0020")

    if stage == "pre":
        ordered = []  # each size's lines, in report order
        runs = []
        for size, lines in sorted(_display_products(tree).items()):
            if type(lines) is not list:  # a dict or a tuple, not yet in order
                lines = sorted(lines)
            ordered.append(lines)
            runs.append((size, len(lines)))
        lines = tuple(ordered[0]) if len(ordered) == 1 else tuple(chain.from_iterable(ordered))
        return CutSetReport("pre", lines, partial(_split_lines, lines, runs, identity_of),
                            partial(_shared_identity_sets, identity_of=identity_of))

    if GateKind.AND in tree._kinds:
        names = sorted(display_of)
        bit_of = {name: 1 << i for i, name in enumerate(names)}
        rows = []  # (size, displays, sorted identities) of each cutset
        for mask in _identity_products(tree, bit_of):
            members = []  # in bit order, which is sorted
            while mask:
                low = mask & -mask
                members.append(names[low.bit_length() - 1])
                mask ^= low
            rows.append((len(members), tuple(sorted(display_of[i] for i in members)), members))
        rows.sort()
        lines = tuple([_SEP.join(displays) for _, displays, _ in rows])
        identities = [members for _, _, members in rows]
    else:
        # Distinct single atoms never absorb each other, so the minimal
        # products of a tree with only OR gates are its distinct identities,
        # the keys of display_of: no fold, no bit table, no minimisation.
        found = sorted(display_of)
        found.sort(key=display_of.__getitem__)  # stable: equal displays by identity
        lines = tuple(map(display_of.__getitem__, found))
        identities = [(identity,) for identity in found]
    return CutSetReport("reduced", lines,
                        # the runs in ascending size, counted only if rows are read
                        lambda: _split_lines(lines, Counter(map(len, identities)).items(),
                                             display_of.values()),
                        lambda _rows: map(frozenset, identities))


def evaluate(tree: FaultTree, assignment) -> bool:
    """Evaluate the tree under a truth assignment keyed by event identity.

    The assignment must cover every leaf identity, including external ones.
    NOT gates are supported here (unlike in cutset analysis).
    """
    missing = sorted(tree._display_of.keys() - set(assignment))
    if missing:
        raise AnalysisError("assignment missing identities: " + ", ".join(missing))

    def gate(node, values, _owned) -> bool:
        if node.kind is GateKind.AND:
            return all(values)
        if node.kind is GateKind.OR:
            return any(values)
        return not values[0]

    return tree._fold(lambda leaf: bool(assignment[leaf.identity]), gate)
