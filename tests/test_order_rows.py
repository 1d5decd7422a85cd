"""Order validation, covers and the cycle check read off the bit rows,
pinned against the element-by-element loops they replace.

``Poset`` validation tests antisymmetry as ``up[i] & down[i] == 1 << i``
and transitivity as ``or_rows(up)[i] == up[i]``; ``Poset.covers`` is
``strict[i] & ~or_rows(strict)[i]``; ``build_poset`` finds a cycle by the
same up & down identity on its closed rows. Each is checked against the
loop it replaced, kept in ``oracles``: the same exception type, message
and raise order, the same covers, the same cycle pair.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclosure import (
    BiclosureError,
    CycleError,
    Poset,
    antichain,
    build_poset,
    chain,
    enumerate_posets,
)
from biclosure.bitops import or_rows

import oracles


def outcome(make, *args):
    """The exception class name and message that make(*args) raises, or None."""
    try:
        make(*args)
    except (ValueError, BiclosureError) as exc:
        return type(exc).__name__, str(exc)
    return None


def or_over(rows, row):
    """The OR of rows[j] over the set bits j of row, one bit at a time."""
    out = 0
    for j, other in enumerate(rows):
        if row >> j & 1:
            out |= other
    return out


def closed(up):
    """The transitive closure of the reflexive rows ``up``, by repeated OR
    to a fixed point."""
    while (grown := [or_over(up, row) for row in up]) != up:
        up = grown
    return up


@st.composite
def drawn_orders(draw, max_n=12):
    """A valid order on n <= max_n elements: a random relation below a
    random linear order, closed; returned as up-rows in index order."""
    n = draw(st.integers(0, max_n))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, (1 << n * n) - 1))
    up = [1 << a for a in range(n)]
    for a in range(n):
        for b in range(n):
            if rank[a] < rank[b] and pairs >> a * n + b & 1:
                up[a] |= 1 << b
    return closed(up)


@st.composite
def drawn_relations(draw):
    """Up-rows of every kind the validation tells apart: valid orders,
    and orders with one bit added (a cycle or a gap in transitivity), one
    relation reversed (a cycle), one bit dropped (a non-reflexive row or a
    gap), one bit out of range, or reflexive rows drawn at random."""
    up = draw(drawn_orders())
    n = len(up)
    kind = draw(st.sampled_from(["valid", "add", "reverse", "drop", "out", "random"]))
    strict = [(i, j) for i in range(n) for j in range(n) if i != j and up[i] >> j & 1]
    if strict and kind == "reverse":
        i, j = draw(st.sampled_from(strict))
        up[j] |= 1 << i
    elif n and kind == "add":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        up[i] |= 1 << j
    elif n and kind == "drop":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        up[i] &= ~(1 << j)
    elif kind == "out":
        i, j = draw(st.integers(0, max(0, n - 1))), draw(st.integers(n, n + 3))
        up = up or [0]
        up[i] |= 1 << j
    elif kind == "random":
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        up = [row | 1 << i for i, row in enumerate(rows)]
    return up


def labels_for(up):
    return [f"x{i}" for i in range(len(up))]


# --- or_rows -----------------------------------------------------------------------


@given(st.integers(0, 30).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
))
@settings(max_examples=200, deadline=None)
def test_or_rows_is_the_or_over_each_rows_bits(rows):
    assert or_rows(rows) == [or_over(rows, row) for row in rows]


# --- validation --------------------------------------------------------------------


@given(drawn_relations())
@settings(max_examples=400, deadline=None)
def test_validation_raises_as_the_moved_loop_on_drawn_relations(up):
    labels = labels_for(up)
    assert outcome(Poset, labels, up) == oracles.order_axioms_error(labels, up)


def test_validation_raises_as_the_moved_loop_on_chains_and_antichains():
    for k in range(41):
        labels = labels_for(range(k))
        for up in (list(chain(k).up), list(antichain(k).up)):
            assert oracles.order_axioms_error(labels, up) is None
            assert outcome(Poset, labels, up) is None
            if not k:
                continue
            # the last element below the first (a cycle on a chain), and
            # the first no longer above itself
            for bent in ([*up[:-1], up[-1] | 1], [up[0] & ~1, *up[1:]]):
                want = oracles.order_axioms_error(labels, bent)
                assert outcome(Poset, labels, bent) == want


def test_each_validation_message_is_pinned():
    assert outcome(Poset, ["a"], [0b11]) == (
        "MemberOutOfRange",
        "up[0] has bits outside the carrier",
    )
    assert outcome(Poset, ["a", "b"], [0b11, 0b01]) == (
        "ValueError",
        "order not reflexive at b",
    )
    assert outcome(Poset, ["a", "b"], [0b11, 0b11]) == (
        "ValueError",
        "order not antisymmetric: a and b",
    )
    # a <= b <= c without a <= c
    assert outcome(Poset, ["a", "b", "c"], [0b011, 0b110, 0b100]) == (
        "ValueError",
        "order not transitive at a",
    )
    # a <= b <= a and a <= b <= c without a <= c: at a, antisymmetry first
    assert outcome(Poset, ["a", "b", "c"], [0b011, 0b111, 0b100]) == (
        "ValueError",
        "order not antisymmetric: a and b",
    )
    # a <= b <= c without a <= c, and b <= c <= b: a's gap comes before b's twin
    assert outcome(Poset, ["a", "b", "c"], [0b011, 0b110, 0b110]) == (
        "ValueError",
        "order not transitive at a",
    )


# --- covers -------------------------------------------------------------------------


@given(drawn_orders(max_n=16))
@settings(max_examples=200, deadline=None)
def test_covers_match_the_moved_loop_on_drawn_orders(up):
    assert Poset(labels_for(up), up).covers == oracles.loop_covers(up)


def test_covers_match_the_moved_loop_on_the_catalog():
    for n in range(7):
        for p in enumerate_posets(n):
            assert p.covers == oracles.loop_covers(p.up)


def test_covers_of_long_chains_and_antichains():
    for k in (0, 1, 2, 9, 40, 300):
        assert chain(k).covers == tuple(1 << i + 1 & (1 << k) - 1 for i in range(k))
        assert antichain(k).covers == (0,) * k


# --- the cycle check ------------------------------------------------------------------


@st.composite
def drawn_assertions(draw):
    """An assertion list on n <= 12 elements, shuffled: the covering pairs
    of a drawn order, up to three drawn pairs, and often the reverse of
    one of the order's relations, which closes a cycle."""
    up = draw(drawn_orders())
    n = len(up)
    covers = oracles.loop_covers(up)
    pairs = [(i, j) for i in range(n) for j in range(n) if covers[i] >> j & 1]
    element = st.integers(0, n - 1) if n else st.nothing()
    pairs += draw(st.lists(st.tuples(element, element), max_size=3 if n else 0))
    strict = [(i, j) for i in range(n) for j in range(n) if i != j and up[i] >> j & 1]
    if strict and draw(st.booleans()):
        i, j = draw(st.sampled_from(strict))
        pairs.append((j, i))
    return n, draw(st.permutations(pairs))


@given(drawn_assertions())
@settings(max_examples=300, deadline=None)
def test_build_poset_names_the_oracles_cycle_pair(drawn):
    n, pairs = drawn
    labels = [f"x{i}" for i in range(n)]
    named = [(labels[a], labels[b]) for a, b in pairs]
    cycle = oracles.cycle_pair(n, pairs)
    if cycle is None:
        build_poset(labels, named)
        return
    i, j = cycle
    with pytest.raises(CycleError) as caught:
        build_poset(labels, named)
    assert str(caught.value) == f"assertions force x{i} <= x{j} <= x{i}"


def test_cycle_messages_name_the_first_element_and_its_lowest_twin():
    with pytest.raises(CycleError, match=r"^assertions force a <= b <= a$"):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    # a <= b <= c <= d <= a is one cycle, and b is a's lowest twin in it
    with pytest.raises(CycleError, match=r"^assertions force a <= b <= a$"):
        build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    with pytest.raises(CycleError, match=r"^assertions force b <= c <= b$"):
        build_poset("abc", [("a", "b"), ("b", "c"), ("c", "b")])
