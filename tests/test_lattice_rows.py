"""The lattice predicates read off the order's bit rows, pinned against
the element-by-element definitions they replace.

``Poset._distributive`` tests that each join-irreducible is join-prime,
and ``_lattice_sides`` that a dual point's one-set (kernel) is empty or
a principal filter (ideal). Both are checked against the direct table
loops in ``oracles`` and, where the carrier is small enough, against the
naive brute-force families.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclosure import (
    Poset,
    SubsetFamily,
    boolean_algebra,
    build_poset,
    chain,
    dual_space,
    enumerate_posets,
    poset_of_family,
)
from biclosure.bitops import bits
from biclosure.dualspace import _lattice_families, _lattice_sides

import oracles

# the naive oracles sweep every subset of the carrier
BRUTE_N = 12


@pytest.fixture(scope="module")
def catalog7():
    """Every isomorphism class with at most 7 elements, the empty one included."""
    return [p for k in range(8) for p in enumerate_posets(k, 7)]


def m_lattice(k):
    """M_k: k pairwise incomparable atoms between a bottom and a top."""
    atoms = [f"a{i}" for i in range(k)]
    return build_poset(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def n5():
    return build_poset(
        list("0abc1"), [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    )


# (poset, is it a distributive lattice)
NAMED = (
    [(m_lattice(k), False) for k in range(3, 9)]
    + [(n5(), False), (Poset([], []), False), (chain(0), False)]
    + [(boolean_algebra(k), True) for k in range(2, 6)]
    + [(chain(k), True) for k in range(1, 13)]
)


@st.composite
def drawn_lattices(draw):
    """The inclusion order on an intersection-closed family holding the
    full set: a lattice, with intersection as meet."""
    m = draw(st.integers(1, 5))
    full = (1 << m) - 1
    family = {full, *draw(st.lists(st.integers(0, full), max_size=8))}
    while more := {x & y for x in family for y in family} - family:
        family |= more
    return poset_of_family(SubsetFamily(m, family))


def assert_sides_match_closure(p):
    """Each dual point's two tests agree with the pairwise closure checks."""
    meets, joins = _lattice_sides(p)
    for s in dual_space(p).points:
        assert meets(s) == oracles.closed_under(p._meet_table, s)
        assert joins(s) == oracles.closed_under(p._join_table, p.full ^ s)


def assert_families_match_brute(p):
    ideals, filters = _lattice_families(dual_space(p))
    assert {frozenset(bits(d)) for d in filters} == oracles.brute_lattice_filters(p)
    assert {frozenset(bits(d)) for d in ideals} == oracles.brute_lattice_ideals(p)


# --- distributivity -----------------------------------------------------------------


def test_distributivity_matches_the_triple_loop_to_seven_elements(catalog7):
    assert len(catalog7) == 2451
    lattices = [p for p in catalog7 if p.is_lattice()]
    assert len(lattices) == 78
    for p in catalog7:
        assert p._distributive == oracles.table_is_distributive(p)
        if not p.is_lattice():
            assert not p.is_distributive()
    for p in lattices:
        assert p.is_distributive() == oracles.brute_is_distributive(p)
    # 1, 1, 1, 2, 3, 5, 8 distributive lattices of 1 to 7 elements
    assert sum(p.is_distributive() for p in lattices) == 21


def test_distributivity_on_named_lattices():
    for p, want in NAMED:
        assert p.is_distributive() == want
        assert oracles.table_is_distributive(p) == want
        # the naive check calls the empty order distributive, vacuously;
        # the package asks for a lattice, which is nonempty
        if 0 < p.n <= 16:
            assert oracles.brute_is_distributive(p) == want


@given(drawn_lattices())
@settings(max_examples=150, deadline=None)
def test_distributivity_on_drawn_lattices(p):
    assert p.is_lattice()
    assert p.is_distributive() == oracles.table_is_distributive(p)
    if p.n <= 10:
        assert p.is_distributive() == oracles.brute_is_distributive(p)


def relabelled(p, perm):
    """The order p with element i renamed perm[i]."""
    up = [0] * p.n
    for i, row in enumerate(p.up):
        up[perm[i]] = sum(1 << perm[j] for j in bits(row))
    return Poset([f"e{i}" for i in range(p.n)], up)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_distributivity_is_kept_by_relabelling_and_by_duality(catalog7, data):
    # the join-prime test reads each unordered pair once, by index; a
    # relabelling moves every pair, and the dual order asks it of the
    # meet-irreducibles of p
    lattices = [p for p in catalog7 if p.is_lattice()]
    p = data.draw(st.sampled_from(lattices))
    q = relabelled(p, data.draw(st.permutations(range(p.n))))
    for r in (q, p.opposite(), q.opposite()):
        assert r.is_distributive() == p.is_distributive()
        assert r.is_distributive() == oracles.table_is_distributive(r)


# --- meet- and join-preserving dual points ------------------------------------------------


def test_lattice_sides_match_the_pairwise_closure_to_seven_elements(catalog7):
    for p in catalog7:
        if p.is_lattice():
            assert_sides_match_closure(p)
            assert_families_match_brute(p)


def test_lattice_sides_on_named_lattices():
    for p, _ in NAMED:
        if p.is_lattice():
            assert_sides_match_closure(p)
            if p.n <= BRUTE_N:
                assert_families_match_brute(p)


@given(drawn_lattices())
@settings(max_examples=100, deadline=None)
def test_lattice_sides_on_drawn_lattices(p):
    assert_sides_match_closure(p)
    if p.n <= 10:
        assert_families_match_brute(p)
