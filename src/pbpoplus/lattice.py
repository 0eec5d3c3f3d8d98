"""Finite complete lattices of labels.

A :class:`LabelLattice` is given explicitly by its element set and order
relation; the constructor closes the relation reflexively and transitively.
Joins and meets are computed by scanning candidate bounds, so no
distributivity or modularity is assumed.  Each result is memoised on the
lattice instance per label tuple; failed queries are never cached and
raise afresh every time.  All lattices used for rewriting are finite,
which keeps exhaustive axiom checking feasible (:func:`validate_lattice`).

Two ready-made lattices are provided: the one-point lattice used for
plain (unlabeled) graph rewriting, and the BDD label lattice over a set of
decision variables, truth values 0/1, one class label above each of the two
families, and global top/bottom.  :func:`bdd_lattice` returns one object
per variable tuple, kept in a small bounded memo, so the trees and rules
over the same variables share it: comparing their lattices is an identity
check, and they share its join and meet memos.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import LatticeError, Report, UnknownLabelError

# Canonical label names used by the BDD lattice.
TOP = "top"
BOTTOM = "bot"
VAR_CLASS = "Var"
BOOL_CLASS = "Bool"
FALSE = "0"
TRUE = "1"

UNIT_ELEMENT = "*"

# How many variable tuples the BDD memos (here and in ``bdd``) keep; the
# oldest entry goes first.
_MEMO_SIZE = 16
# The largest subsets whose bounds validate_lattice checks in a lattice of
# more than 12 elements.
_SUBSET_CAP = 2
_BDD_LATTICES: dict[tuple[str, ...], LabelLattice] = {}


def _transitive_closure(elements: frozenset[str],
                        pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    above: dict[str, set[str]] = {e: {e} for e in elements}
    for a, b in pairs:
        if a in above:
            above[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in elements:
            new = set()
            for b in above[a]:
                new |= above.get(b, {b})
            if not new <= above[a]:
                above[a] |= new
                changed = True
    return frozenset((a, b) for a in elements for b in above[a])


def _least_bounds(up: dict[str, frozenset[str]], elements: Iterable[str],
                  items: tuple[str, ...]) -> list[str]:
    """The least of the ``elements`` above every one of ``items``, where
    ``up`` maps each element to those above it: the join's candidates, of
    which a lattice has exactly one.  Given the elements below each element
    instead, the meet's candidates."""
    bounds = [u for u in elements if all(u in up[x] for x in items)]
    return [u for u in bounds if all(v in up[u] for v in bounds)]


@dataclass(frozen=True)
class LabelLattice:
    """A finite poset with designated top and bottom.

    ``order`` always stores the reflexive-transitive closure of the relation
    given at construction time.  ``top``/``bottom`` may be ``None`` for
    deliberately broken fixtures; :func:`validate_lattice` reports on them.
    """

    elements: frozenset[str]
    order: frozenset[tuple[str, str]]
    top: Optional[str] = None
    bottom: Optional[str] = None

    @staticmethod
    def from_order(elements: Iterable[str],
                   pairs: Iterable[tuple[str, str]],
                   top: Optional[str] = None,
                   bottom: Optional[str] = None) -> "LabelLattice":
        elems = frozenset(elements)
        closed = _transitive_closure(elems, pairs)
        return LabelLattice(elems, closed, top, bottom)

    @cached_property
    def _above(self) -> dict[str, frozenset[str]]:
        up: dict[str, set[str]] = {e: set() for e in self.elements}
        for a, b in self.order:
            up[a].add(b)
        return {e: frozenset(s) for e, s in up.items()}

    @cached_property
    def _below(self) -> dict[str, frozenset[str]]:
        above = self._above
        return {e: frozenset(a for a in self.elements if e in above[a]) for e in self.elements}

    def _check_member(self, label: str) -> None:
        if label not in self.elements:
            raise UnknownLabelError(f"label {label!r} is not in the lattice")

    @cached_property
    def _joins(self) -> dict[tuple[str, ...], str]:
        return {}

    @cached_property
    def _meets(self) -> dict[tuple[str, ...], str]:
        return {}

    def leq(self, a: str, b: str) -> bool:
        """True iff ``a`` is below or equal to ``b``."""
        up = self._above.get(a)
        if up is not None and b in up:
            return True
        self._check_member(a)
        self._check_member(b)
        return False

    def join(self, labels: Iterable[str]) -> str:
        """Least upper bound of ``labels``; the bottom element for no labels."""
        key = tuple(labels)
        result = self._joins.get(key)
        if result is None:
            result = self._joins[key] = self._scan_join(key)
        return result

    def meet(self, labels: Iterable[str]) -> str:
        """Greatest lower bound of ``labels``; the top element for no labels."""
        key = tuple(labels)
        result = self._meets.get(key)
        if result is None:
            result = self._meets[key] = self._scan_meet(key)
        return result

    def _scan_join(self, items: tuple[str, ...]) -> str:
        return self._scan(items, self._above, self.bottom, "join", "bottom", "supremum")

    def _scan_meet(self, items: tuple[str, ...]) -> str:
        return self._scan(items, self._below, self.top, "meet", "top", "infimum")

    def _scan(self, items: tuple[str, ...], up: dict[str, frozenset[str]],
              empty: Optional[str], op: str, unit: str, bound: str) -> str:
        for x in items:
            self._check_member(x)
        if not items:
            if empty is None:
                raise LatticeError(f"{op} of no labels needs a {unit} element")
            return empty
        least = _least_bounds(up, self.elements, items)
        if len(least) != 1:
            raise LatticeError(f"no unique {bound} for {sorted(items)}")
        return least[0]

    def sorted_elements(self) -> list[str]:
        return sorted(self.elements)


def unit_lattice() -> LabelLattice:
    """The one-point lattice; labels carry no information over it."""
    return LabelLattice.from_order([UNIT_ELEMENT], [], top=UNIT_ELEMENT,
                                   bottom=UNIT_ELEMENT)


def bdd_lattice(variables: Iterable[str]) -> LabelLattice:
    """The BDD label lattice over the given decision variables.

    Elements are the variables, the truth values ``0`` and ``1``, the class
    labels ``Var`` (above every variable) and ``Bool`` (above both truth
    values), and global ``top``/``bot``.  The variable family and the
    boolean family are incomparable except through top and bottom.  Equal
    variable tuples get the same object; names are checked on every call,
    since only valid tuples are ever kept.
    """
    names = tuple(variables)
    lat = _BDD_LATTICES.get(names)
    if lat is not None:
        return lat
    seen = set()
    for v in names:
        if v in seen:
            raise LatticeError(f"duplicate-variable: {v!r}")
        seen.add(v)
    reserved = {TOP, BOTTOM, VAR_CLASS, BOOL_CLASS, FALSE, TRUE}
    clash = seen & reserved
    if clash:
        raise LatticeError(f"variable names collide with reserved labels: {sorted(clash)}")
    elements = [*names, FALSE, TRUE, VAR_CLASS, BOOL_CLASS, TOP, BOTTOM]
    pairs: list[tuple[str, str]] = [(BOTTOM, TOP), (BOTTOM, VAR_CLASS)]
    for v in names:
        pairs.append((v, VAR_CLASS))
        pairs.append((BOTTOM, v))
    for b in (FALSE, TRUE):
        pairs.append((b, BOOL_CLASS))
        pairs.append((BOTTOM, b))
    pairs.append((VAR_CLASS, TOP))
    pairs.append((BOOL_CLASS, TOP))
    lat = LabelLattice.from_order(elements, pairs, top=TOP, bottom=BOTTOM)
    if len(_BDD_LATTICES) >= _MEMO_SIZE:
        _BDD_LATTICES.pop(next(iter(_BDD_LATTICES)), None)
    _BDD_LATTICES[names] = lat
    return lat


def validate_lattice(lat: LabelLattice) -> Report:
    """Brute-force check of the complete-lattice axioms.

    An order pair naming a non-element is reported as ``order-non-element``
    and ends the check, since the axioms below are about a relation over
    the elements.  Reflexivity, antisymmetry and transitivity are checked
    by enumeration.  Existence and uniqueness of suprema and infima are
    checked for every subset when the lattice has at most 12 elements,
    otherwise for all subsets of up to ``_SUBSET_CAP`` elements, the empty
    set included.
    """
    report = Report()
    for pair in sorted(p for p in lat.order if not lat.elements.issuperset(p)):
        report.add("order-non-element", f"order pair {pair!r} names a non-element")
    if not report.ok:
        return report
    elems = sorted(lat.elements)
    above = lat._above
    for a in elems:
        if a not in above[a]:
            report.add("reflexivity", f"{a!r} is not related to itself")
    for a in elems:
        for b in above[a]:
            if b != a and a in above[b]:
                report.add("antisymmetry", f"{a!r} and {b!r} are mutually related")
    for a in elems:
        for b in above[a]:
            for c in above[b]:
                if c not in above[a]:
                    report.add("transitivity", f"{a!r} <= {b!r} <= {c!r} but not {a!r} <= {c!r}")

    if len(elems) <= 12:
        subsets: Iterable[tuple[str, ...]] = itertools.chain.from_iterable(
            itertools.combinations(elems, k) for k in range(len(elems) + 1))
    else:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(elems, k) for k in range(_SUBSET_CAP + 1))
    for subset in subsets:
        if len(_least_bounds(above, elems, subset)) != 1:
            report.add("missing-supremum", f"subset {list(subset)} has no unique join")
        if len(_least_bounds(lat._below, elems, subset)) != 1:
            report.add("missing-infimum", f"subset {list(subset)} has no unique meet")

    if lat.top is not None:
        if lat.top not in lat.elements:
            report.add("bad-top", f"top {lat.top!r} is not an element")
        elif any(lat.top not in above[x] for x in elems):
            report.add("bad-top", f"{lat.top!r} is not above every element")
    elif elems:
        report.add("bad-top", "no top element designated")
    if lat.bottom is not None:
        if lat.bottom not in lat.elements:
            report.add("bad-bottom", f"bottom {lat.bottom!r} is not an element")
        elif any(x not in above[lat.bottom] for x in elems):
            report.add("bad-bottom", f"{lat.bottom!r} is not below every element")
    elif elems:
        report.add("bad-bottom", "no bottom element designated")
    return report
