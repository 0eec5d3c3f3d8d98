import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbpoplus import (LabelLattice, LatticeError, UnknownLabelError,
                      bdd_lattice, unit_lattice, validate_lattice)

from genhelpers import reference_join, reference_meet


def test_bdd_lattice_shape():
    lat = bdd_lattice(["p", "q"])
    assert len(lat.elements) == 8
    assert lat.top == "top" and lat.bottom == "bot"
    assert lat.leq("p", "Var")
    assert lat.leq("bot", "top")
    assert not lat.leq("p", "Bool")
    assert not lat.leq("Var", "Bool") and not lat.leq("Bool", "Var")


def test_bdd_lattice_rejects_duplicates_and_reserved():
    with pytest.raises(LatticeError, match="duplicate-variable"):
        bdd_lattice(["p", "p"])
    with pytest.raises(LatticeError, match="reserved"):
        bdd_lattice(["Bool"])


def test_bdd_lattice_is_one_object_per_variable_tuple():
    variables = ("p", "q", "r")
    lat = bdd_lattice(variables)
    assert bdd_lattice(list(variables)) is lat
    assert bdd_lattice(iter(variables)) is lat and bdd_lattice(("q", "p", "r")) is not lat
    # A bad tuple is never kept, so it raises on every call.
    for _ in range(2):
        with pytest.raises(LatticeError, match="duplicate-variable"):
            bdd_lattice(["p", "q", "p"])
        with pytest.raises(LatticeError, match="reserved"):
            bdd_lattice(["p", "top"])


def test_join_meet_examples():
    lat = bdd_lattice(["x1", "x2"])
    assert lat.join(["bot", "x1"]) == "x1"
    assert lat.meet(["x2", "bot"]) == "bot"
    for y in lat.elements:
        assert lat.meet([y, "top"]) == y
    assert lat.join(["x1", "x2"]) == "Var"
    assert lat.meet(["x1", "x2"]) == "bot"
    assert lat.join(["0", "1"]) == "Bool"
    assert lat.join(["x1", "0"]) == "top"


def test_empty_join_meet():
    lat = bdd_lattice(["p"])
    assert lat.join([]) == "bot"
    assert lat.meet([]) == "top"


def test_unknown_label_errors():
    lat = unit_lattice()
    with pytest.raises(UnknownLabelError):
        lat.leq("*", "nope")
    with pytest.raises(UnknownLabelError):
        lat.join(["nope"])


def test_validate_bdd_lattice_clean():
    assert validate_lattice(bdd_lattice(["p", "q"])).ok


def test_validate_single_element():
    assert validate_lattice(unit_lattice()).ok


def test_validate_missing_supremum():
    lat = LabelLattice.from_order(["a", "b"], [], bottom=None, top=None)
    report = validate_lattice(lat)
    assert "missing-supremum" in report.codes()
    assert "missing-infimum" in report.codes()


def test_validate_flags_bad_designations():
    lat = LabelLattice.from_order(["a", "b"], [("a", "b")], top="a", bottom="b")
    report = validate_lattice(lat)
    assert "bad-top" in report.codes()
    assert "bad-bottom" in report.codes()


def test_validate_antisymmetry_violation():
    lat = LabelLattice.from_order(["a", "b"], [("a", "b"), ("b", "a")],
                                  top="a", bottom="a")
    assert "antisymmetry" in validate_lattice(lat).codes()


def test_validate_reports_order_pairs_outside_the_elements():
    """An order naming a non-element is reported, not raised on; the axioms
    are not checked over it."""
    lat = LabelLattice.from_order(["a"], [("a", "z")], top="a", bottom="a")
    report = validate_lattice(lat)
    assert report.codes() == {"order-non-element"}
    assert [v.message for v in report.violations] == [
        "order pair ('a', 'z') names a non-element"]
    stray = LabelLattice(frozenset({"a"}), frozenset({("a", "a"), ("y", "a"), ("a", "z")}))
    assert len(validate_lattice(stray).violations) == 2


def test_closure_is_applied():
    lat = LabelLattice.from_order(["a", "b", "c"], [("a", "b"), ("b", "c")],
                                  top="c", bottom="a")
    assert lat.leq("a", "c")
    assert lat.leq("b", "b")


@st.composite
def bdd_labels(draw, max_vars=4):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    lat = bdd_lattice([f"v{i}" for i in range(n)])
    return lat, draw(st.lists(st.sampled_from(lat.sorted_elements()),
                              min_size=1, max_size=4))


@given(bdd_labels())
@settings(max_examples=60, deadline=None)
def test_join_meet_are_bounds(pair):
    lat, labels = pair
    j = lat.join(labels)
    m = lat.meet(labels)
    for x in labels:
        assert lat.leq(x, j)
        assert lat.leq(m, x)


@given(bdd_labels(max_vars=3))
@settings(max_examples=60, deadline=None)
def test_absorption(pair):
    lat, labels = pair
    a, b = labels[0], labels[-1]
    assert lat.join([a, lat.meet([a, b])]) == a
    assert lat.meet([a, lat.join([a, b])]) == a


def test_join_meet_idempotent_commutative_associative():
    lat = bdd_lattice(["v0", "v1", "v2", "v3"])
    elems = lat.sorted_elements()
    for a in elems:
        assert lat.join([a, a]) == a
        assert lat.meet([a, a]) == a
    for a, b in itertools.product(elems, repeat=2):
        assert lat.join([a, b]) == lat.join([b, a])
        assert lat.meet([a, b]) == lat.meet([b, a])
    for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 0, None, 7):
        assert lat.join([lat.join([a, b]), c]) == lat.join([a, b, c])
        assert lat.meet([lat.meet([a, b]), c]) == lat.meet([a, b, c])


def outcome(fn, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return ("ok", fn(*args))
    except (LatticeError, UnknownLabelError) as exc:
        return ("raised", type(exc))


@st.composite
def small_posets(draw):
    """Up to five elements under a random relation: many are not lattices,
    and cycles make some not even antisymmetric."""
    elems = [f"e{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(elems)),
                          max_size=8))
    top = draw(st.none() | st.sampled_from(elems))
    bottom = draw(st.none() | st.sampled_from(elems))
    return LabelLattice.from_order(elems, pairs, top=top, bottom=bottom)


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_cached_bounds_match_scan_on_small_posets(lat):
    elems = lat.sorted_elements()
    queries = [subset for k in range(len(elems) + 1)
               for subset in itertools.combinations(elems, k)]
    queries += [("nope",), (elems[0], "nope")]
    for _ in range(2):  # the first pass fills the cache, the second hits it
        for q in queries:
            assert outcome(lat.join, q) == outcome(reference_join, lat, q)
            assert outcome(lat.meet, q) == outcome(reference_meet, lat, q)


def test_cached_bounds_match_scan_on_bdd_lattice():
    lat = bdd_lattice([f"v{i}" for i in range(16)])
    pairs = list(itertools.product(lat.sorted_elements(), repeat=2))
    for _ in range(2):
        for pair in pairs:
            assert lat.join(pair) == reference_join(lat, pair)
            assert lat.meet(pair) == reference_meet(lat, pair)
