import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclosure import (
    CarrierMismatch,
    ClosureOperator,
    MemberOutOfRange,
    boolean_algebra,
    chain,
    clopen_sets,
    closed_open_family,
    dual_space,
    enumerate_posets,
    induced_closures,
)
from biclosure.bitops import bits, mask_of

import oracles


@st.composite
def carriers_with_bases(draw, max_m=6, max_base=5):
    m = draw(st.integers(min_value=0, max_value=max_m))
    base = draw(
        st.lists(st.integers(0, (1 << m) - 1), min_size=0, max_size=max_base)
    )
    return m, base


# --- the three axioms --------------------------------------------------------------


@settings(max_examples=200)
@given(carriers_with_bases())
def test_closure_axioms(mb):
    m, base = mb
    c = ClosureOperator(m, base)
    full = (1 << m) - 1
    for x in range(1 << m):
        cx = c.apply(x)
        assert cx & ~full == 0
        assert x & ~cx == 0  # extensive
        assert c.apply(cx) == cx  # idempotent
    for x in range(1 << m):
        for y in range(x, 1 << m):
            if x & ~y == 0:
                assert c.apply(x) & ~c.apply(y) == 0  # monotone


@settings(max_examples=100)
@given(carriers_with_bases())
def test_apply_matches_brute_family_minimum(mb):
    m, base = mb
    c = ClosureOperator(m, base)
    base_sets = [set(bits(b)) for b in base]
    for x in range(1 << m):
        want = oracles.brute_closure_apply(m, base_sets, set(bits(x)))
        assert set(bits(c.apply(x))) == want


@settings(max_examples=100)
@given(carriers_with_bases())
def test_closed_family_matches_brute_intersections(mb):
    m, base = mb
    c = ClosureOperator(m, base)
    want = oracles.brute_closed_family(m, [set(bits(b)) for b in base])
    assert {frozenset(bits(x)) for x in c.closed_family} == want


def intents_as_sets(c):
    return {frozenset(bits(x)): frozenset(bits(held)) for x, held in c._intents.items()}


@settings(max_examples=100)
@given(carriers_with_bases())
def test_intents_match_brute_intents(mb):
    m, base = mb
    c = ClosureOperator(m, base)
    want = oracles.brute_intents(m, [set(bits(b)) for b in base])
    assert intents_as_sets(c) == want


@settings(max_examples=100)
@given(carriers_with_bases())
def test_closed_family_is_exactly_the_fixed_points(mb):
    m, base = mb
    c = ClosureOperator(m, base)
    fixed = {x for x in range(1 << m) if c.apply(x) == x}
    assert set(c.closed_family) == fixed


# --- flags ------------------------------------------------------------------------------


def test_exactness_means_empty_set_is_closed():
    assert ClosureOperator(3, [0b001, 0b010]).is_exact()  # 001 & 010 = 0
    assert not ClosureOperator(3, [0b011, 0b110]).is_exact()


@settings(max_examples=100)
@given(carriers_with_bases(max_m=5))
def test_topological_means_union_distributes(mb):
    m, base = mb
    c = ClosureOperator(m, base)
    unions_ok = all(
        c.apply(x | y) == c.apply(x) | c.apply(y)
        for x in range(1 << m)
        for y in range(1 << m)
    )
    assert c.is_topological() == unions_ok


def test_is_closed_distinguishes():
    c = ClosureOperator(3, [0b011])
    assert c.is_closed(0b011)
    assert c.is_closed(0b111)
    assert not c.is_closed(0b001)


# --- validation ---------------------------------------------------------------------------


def test_base_members_must_fit_carrier():
    with pytest.raises(MemberOutOfRange):
        ClosureOperator(2, [0b100])


def test_apply_rejects_stray_bits():
    c = ClosureOperator(2, [0b01])
    with pytest.raises(MemberOutOfRange):
        c.apply(0b100)


def test_closed_open_family_needs_matching_carriers():
    with pytest.raises(CarrierMismatch):
        closed_open_family(ClosureOperator(2, []), ClosureOperator(3, []))


def test_equality_is_by_closed_family():
    # different bases, same family
    a = ClosureOperator(3, [0b011, 0b110, 0b010])
    b = ClosureOperator(3, [0b011, 0b110])
    assert a == b
    assert b == a
    assert hash(a) == hash(b)
    c = ClosureOperator(3, [0b001])
    assert a != c


# --- closures induced by a subspace ----------------------------------------------------------


def test_induced_bases_are_the_point_images(b4):
    star = dual_space(b4)
    c1, c2 = induced_closures(star)
    for p in range(b4.n):
        assert c1.is_closed(star.up_image(p))
        assert c2.is_closed(star.lo_image(p))


def test_induced_closures_on_two_chain(two_chain):
    star = dual_space(two_chain)  # three points, masks sorted: 0, {1}, {0,1}
    c1, c2 = induced_closures(star)
    # up images: element 0 is 1 only at the top point, element 1 at two
    assert c1.apply(0b001) == 0b111  # the all-zero point generates everything
    assert c2.apply(0b100) == 0b111


def test_closed_open_family_recovers_the_poset_size():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            star = dual_space(p)
            fam = closed_open_family(*induced_closures(star))
            assert len(fam) == p.n


def test_clopen_counts_on_boolean_point_spaces():
    from biclosure import lattice_dual, remove_constants

    for k in (1, 2, 3):
        pts = remove_constants(lattice_dual(boolean_algebra(k)))
        c1, c2 = induced_closures(pts)
        assert c1 == c2
        assert len(clopen_sets(c1)) == 1 << k


def test_chain_closures_differ_but_family_survives():
    p = chain(3)
    star = dual_space(p)
    c1, c2 = induced_closures(star)
    assert not c1 == c2
    assert len(closed_open_family(c1, c2)) == 3


_WIDE = (1 << 70) - 1


@pytest.mark.parametrize(
    "m, base",
    [
        (4, [0b0110, 0b1100, 0b0011, 0b1110]),
        (21, [0b0110, 0b1100, 0b0011, (1 << 21) - 2]),
        (5, [0b11111, 0b00110, 0b10100]),  # a member equal to the carrier
        (5, []),  # every closure is the carrier
        (70, [_WIDE, _WIDE ^ 1 << 65, 0b111 | 1 << 69, 1 << 66 | 0b1110]),
        (130, [(1 << 130) - 1 ^ 1 << 3, 1 << 129 | 1 << 64 | 0b1, 1 << 64 | 0b11]),
    ],
    ids=["4", "21", "full-member", "empty-base", "m70", "m130"],
)
def test_closed_family_is_built_on_first_use(m, base):
    # apply() is a pass over the base: it builds no closed family, and
    # its result is the brute family's least member over x
    c = ClosureOperator(m, base)
    sets = [set(bits(b)) for b in base]
    xs = {0, 0b0010, 0b0101, 1 << (m - 1), (1 << m) - 1, *base}
    xs |= {b & ~(b & -b) for b in base} | {a | b for a in base for b in base}
    for x in sorted(xs):
        want = oracles.brute_closure_apply(m, sets, set(bits(x)))
        assert set(bits(c.apply(x))) == want
    assert "closed_family" not in c.__dict__
    assert len(c.closed_family) == len(oracles.brute_closed_family(m, sets))
    assert "closed_family" in c.__dict__


@pytest.mark.parametrize(
    "m, base",
    [
        (4, [0b0110, 0b1100, 0b0011, 0b1110]),
        (21, [0b0110, 0b1100, 0b0011, (1 << 21) - 2]),
        (5, [0b11111, 0b00110, 0b10100]),  # a member equal to the carrier
        (5, []),  # every closure is the carrier
        (70, [_WIDE, _WIDE ^ 1 << 65, 0b111 | 1 << 69, 1 << 66 | 0b1110]),
        (130, [(1 << 130) - 1 ^ 1 << 3, 1 << 129 | 1 << 64 | 0b1, 1 << 64 | 0b11]),
        (5, [0b00110, 0b10110, 0b00110, 0b11111, 0b10110]),  # repeated generators
    ],
    ids=["4", "21", "full-member", "empty-base", "m70", "m130", "repeated"],
)
def test_intents_are_built_with_the_family_not_by_apply(m, base):
    # bit i of a closed set's intent is generator i in the order given,
    # repeats included; apply() and the flags read the base alone
    c = ClosureOperator(m, base)
    for x in (0, 1, 1 << (m - 1), *base):
        c.apply(x)
    c.is_exact()
    assert "_intents" not in c.__dict__
    sets = [set(bits(b)) for b in base]
    assert intents_as_sets(c) == oracles.brute_intents(m, sets)
    assert set(c.closed_family) == set(c._intents)
