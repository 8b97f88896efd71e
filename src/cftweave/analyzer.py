"""Qualitative fault-tree analysis: cutsets and Boolean reduction.

Cutsets come from top-down product expansion (the classic
AND-distributes-over-OR walk), folded bottom-up by the tree's children-first
fold, each shared gate once, so tree depth is not limited by the
interpreter's recursion limit.  A gate's products are dropped once its last
parent is folded, so memory follows the products still needed rather than
the depth of the tree.  An OR gate keeps its products as the keys of a dict,
in first-seen order; when its first child is a gate folded there for the
last time, it extends that child's dict in place instead of copying it, so
a long OR chain fills one dict and costs time linear in its length.  Two
report stages exist:

* ``pre``: the expanded products over leaf display names, deduplicated but
  without absorption, with every display-named leaf treated as its own atom.
  This is the list a reviewer compares against the woven structure, where
  one physical cause may legitimately appear once per dependent.  Each
  product is built as the sorted tuple of its display names, which is the
  form the report shows.  An AND step whose operands share no display name
  (the woven shape: every dependent has its own copies of its providers'
  causes) crosses them without deduplication, since such operands cannot
  form one product twice; other AND steps and every OR gate deduplicate.
  Copies are named after their dependent (``S3.Battery-omission``), so
  such operands' names usually fall in ranges that do not interleave: a
  step whose operand's names all follow the names so far concatenates
  each pair of tuples in that order, with no sort per product, and
  crosses the operand's products in sorted order.  The report
  is ordered by two sorts of the display tuples, which then mostly meet
  runs already in order, and that is all it holds until its cutsets are
  read: :meth:`CutSetReport.lines` costs what the lines cost.  Identity
  sets are formed on the first read of :attr:`CutSetReport.cutsets`, and
  products that differ only in which dependent's copy of a cause they hold
  share one identity-set object.
* ``reduced``: the unique minimal disjunctive normal form of the monotone
  tree function over event identities.  The tree's distinct identities are
  numbered once in sorted order and a product is an ``int`` bitmask over
  them, so common causes collapse (and idempotence holds) before any
  product is built.  Each AND gate minimises its cross product, absorbing
  every product that contains another; OR gates only deduplicate; the root
  is minimised once more.  Minimisation checks each product only against
  smaller kept ones, found through an index keyed by lowest set bit, so the
  cost follows the minimal cutsets rather than every display-level product.
  The report is ordered by one sort on size, display names and identities,
  so two cutsets that show alike (one identity's name can be another's
  display) keep one order, whatever order minimisation found them in.  For
  the same reason the report keeps each row's sorted identities: its
  displays cannot always be mapped back to them.

Each AND gate may form at most :data:`MAX_PRODUCTS` products from two
operands, in either stage; a larger cross product raises
:class:`AnalysisError` with the count before any product is built.

NOT gates make cutset semantics undefined here and are rejected; use
:func:`evaluate` for pointwise checks of non-coherent trees.  The brute-force
route for certifying these results lives in :mod:`cftweave.oracle`, not
here.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

from .errors import AnalysisError
from .model import GateKind
from .synthesizer import FaultTree, FTGate

STAGES = ("pre", "reduced")

# Most products one AND gate may form from two operands, in either stage.
MAX_PRODUCTS = 2**18


@dataclass(frozen=True)
class CutSet:
    """One product of failure atoms, with display names and identities."""

    displays: tuple[str, ...]
    identities: frozenset[str]


@dataclass(frozen=True, eq=False, repr=False)
class CutSetReport:
    """Cutsets ordered by ascending cardinality, then lexicographically.

    The report holds each cutset's display names in report order, and a
    function that forms their identity sets in the same order.  The
    :class:`CutSet` tuple is built on the first read of :attr:`cutsets`,
    so :meth:`lines` and :meth:`display_sets` build no cutset and no
    identity set.  Equality, hash and repr are those of ``(stage,
    cutsets)``.
    """

    stage: str
    _displays: tuple[tuple[str, ...], ...]
    _identities: Callable[[], Iterator[frozenset[str]]]

    @cached_property
    def cutsets(self) -> tuple[CutSet, ...]:
        return tuple(map(CutSet, self._displays, self._identities()))

    def lines(self) -> tuple[str, ...]:
        return tuple(map(" ∧ ".join, self._displays))

    def display_sets(self) -> set[frozenset[str]]:
        return set(map(frozenset, self._displays))

    def identity_sets(self) -> set[frozenset[str]]:
        return set(self._identities())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.stage, self.cutsets) == (other.stage, other.cutsets)

    def __hash__(self):
        return hash((self.stage, self.cutsets))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(stage={self.stage!r}, cutsets={self.cutsets!r})"


def _check_budget(acc: Collection, child: Collection) -> None:
    count = len(acc) * len(child)
    if count > MAX_PRODUCTS:
        raise AnalysisError(
            f"cutset expansion would form {count} products at one AND gate, "
            f"over the budget of {MAX_PRODUCTS}")


def _union(kids, owned: bool) -> dict:
    """An OR gate's products: its children's, deduplicated, in first-seen
    order, as the keys of a dict.

    When the first child's dict is *owned* (no other parent still needs
    it), it is extended in place, so a long OR chain hands one dict up
    instead of copying everything below each gate.
    """
    if owned and isinstance(kids[0], dict):
        acc = kids[0]
        acc.update(dict.fromkeys(chain.from_iterable(kids[1:])))
        return acc
    return dict.fromkeys(chain.from_iterable(kids))


def _display_products(tree: FaultTree) -> Collection[tuple[str, ...]]:
    """Every product over leaf display names, deduplicated, not absorbed.

    A product is the sorted tuple of its display names, so one set of names
    has one form and the report needs no second sort per product.  An AND
    step whose operands share no display name crosses them without
    deduplication: distinct products over disjoint names have distinct
    unions, and no name repeats within one (the rule behind fault-tree
    modules; Dutuit & Rauzy, IEEE Trans. Reliability 45(3), 1996).  When
    the operand's names also all follow the names so far, each product is
    the concatenation of two sorted tuples in that order and needs no sort;
    the operand's products are sorted once instead, so the cross product
    comes out nearly in report order.  Other disjoint operands sort per
    product.
    """
    def gate(node, kids, owned):
        if node.kind is GateKind.OR:
            return _union(kids, owned)
        acc: tuple[tuple[str, ...], ...] = ((),)
        support: set[str] = set()  # a superset of the names in acc
        high = ""  # support's greatest name, once it has one
        for kid in kids:
            _check_budget(acc, kid)
            names = set().union(*kid)
            if not names:  # no products, or only the empty one
                acc = acc if kid else ()
                continue
            if not support.isdisjoint(names):
                acc = tuple(dict.fromkeys(tuple(sorted({*a, *b}))
                                          for a in acc for b in kid))
            elif not support or min(names) > high:
                ordered = sorted(kid)  # once, not once per product of acc
                acc = tuple([a + b for a in acc for b in ordered])
            else:
                acc = tuple([tuple(sorted(a + b)) for a in acc for b in kid])
            high = max(high, max(names))
            support |= names
        return acc

    return tree._fold(lambda leaf: ((leaf.display,),), gate)


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
            _check_budget(acc, kid)
            acc = _minimise([a | b for a in acc for b in kid])
        return acc

    return _minimise(tree._fold(lambda leaf: (bit_of[leaf.identity],), gate))


def _shared_identity_sets(products, identity_of: dict[str, str]):
    """Each product's identity set, in order.  Products that name one cause
    through several dependents' copies collapse to one identity set; they
    share one frozenset."""
    shared: dict[frozenset[str], frozenset[str]] = {}
    for p in products:
        identities = frozenset(map(identity_of.__getitem__, p))
        yield shared.setdefault(identities, identities)


def cutsets(tree: FaultTree, stage: str = "reduced") -> CutSetReport:
    """Compute the cutset report for a coherent tree at the given stage."""
    if stage not in STAGES:
        raise AnalysisError(f"unknown stage '{stage}', expected one of {STAGES}")
    if tree.root is None:
        raise AnalysisError("empty tree")
    if any(isinstance(node, FTGate) and node.kind is GateKind.NOT for node in tree.nodes()):
        raise AnalysisError("non-coherent tree: cutset semantics undefined")

    identity_of: dict[str, str] = {}
    # An identity seen under one display keeps it; one seen under several
    # (a collapsed common cause) falls back to the identity itself.  The
    # first display is kept, and a second one replaces it by the identity.
    display_of: dict[str, str] = {}
    for leaf in tree.leaves():
        display, identity = leaf.display, leaf.identity
        known = identity_of.get(display)
        if known is not None and known != identity:
            raise AnalysisError(f"display name '{display}' maps to several identities")
        identity_of[display] = identity
        if display_of.setdefault(identity, display) != display:
            display_of[identity] = identity

    if stage == "pre":
        # The products are distinct, so two stable sorts give the report order.
        products = sorted(_display_products(tree))
        products.sort(key=len)
        displays = tuple(products)
        return CutSetReport("pre", displays,
                            partial(_shared_identity_sets, displays, identity_of))

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
    return CutSetReport("reduced", tuple([displays for _, displays, _ in rows]),
                        partial(map, frozenset, [members for _, _, members in rows]))


def evaluate(tree: FaultTree, assignment) -> bool:
    """Evaluate the tree under a truth assignment keyed by event identity.

    The assignment must cover every leaf identity, including external ones.
    NOT gates are supported here (unlike in cutset analysis).
    """
    if tree.root is None:
        raise AnalysisError("empty tree")
    missing = sorted({leaf.identity for leaf in tree.leaves()} - set(assignment))
    if missing:
        raise AnalysisError("assignment missing identities: " + ", ".join(missing))

    def gate(node, values, _owned) -> bool:
        if node.kind is GateKind.AND:
            return all(values)
        if node.kind is GateKind.OR:
            return any(values)
        return not values[0]

    return tree._fold(lambda leaf: bool(assignment[leaf.identity]), gate)
