import pytest
from hypothesis import example, given, settings
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
from biclosure.poset import SubsetFamily

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
    # the smallest stray member is named, whatever the order given
    with pytest.raises(MemberOutOfRange, match="member 0x4 exceeds carrier of size 2"):
        ClosureOperator(2, [0b01, 0b1100, 0b100])


def test_base_family_must_live_on_the_carrier():
    with pytest.raises(CarrierMismatch):
        ClosureOperator(2, SubsetFamily(3, [0b001]))
    c = ClosureOperator(3, SubsetFamily(3, [0b110, 0b011]))
    assert c.apply(0b010) == 0b010


def test_apply_rejects_stray_bits():
    c = ClosureOperator(2, [0b01])
    with pytest.raises(MemberOutOfRange):
        c.apply(0b100)


@pytest.mark.parametrize("x", [-1, -(1 << 2), ~0b11, 1 << 70])
def test_apply_rejects_negative_and_wide_arguments(x):
    c = ClosureOperator(2, [0b01])
    with pytest.raises(MemberOutOfRange, match="argument has bits outside the carrier"):
        c.apply(x)
    assert c.apply(0b10) == 0b11 and c.apply(0b01) == 0b01


def test_closed_open_family_needs_matching_carriers():
    with pytest.raises(CarrierMismatch):
        closed_open_family(ClosureOperator(2, []), ClosureOperator(3, []))


@st.composite
def carriers_with_two_bases(draw, max_m=6, max_base=5):
    """A carrier, a base, and a second base on the same carrier: either
    the first one's generators shuffled, some repeated and some of their
    pairwise intersections added (the same closed family by another
    base), or a base drawn on its own."""
    m, base = draw(carriers_with_bases(max_m, max_base))
    if not base or draw(st.booleans()):
        other = draw(
            st.lists(st.integers(0, (1 << m) - 1), min_size=0, max_size=max_base)
        )
    else:
        pick = st.sampled_from(base)
        repeats = draw(st.lists(pick, max_size=3))
        meets = [a & b for a, b in draw(st.lists(st.tuples(pick, pick), max_size=2))]
        other = draw(st.permutations(base + repeats + meets))
    return m, base, other


def brute_family_masks(m, base):
    sets = [set(bits(b)) for b in base]
    return {mask_of(x) for x in oracles.brute_closed_family(m, sets)}


@settings(max_examples=300)
@given(carriers_with_two_bases())
def test_family_readers_match_brute_families_before_the_sorted_family(mbb):
    # the closed-open family, ==, hash and the topological test against
    # families built by brute intersection, with neither closed_family
    # nor the sorted base built by any of them; closed_family is read last
    m, base, other = mbb
    full = (1 << m) - 1
    c1, c2 = ClosureOperator(m, base), ClosureOperator(m, other)
    f1, f2 = brute_family_masks(m, base), brute_family_masks(m, other)
    want = tuple(sorted(x for x in f1 if full ^ x in f2))
    assert closed_open_family(c1, c2).members == want
    assert closed_open_family(c2, c1).members == tuple(
        sorted(x for x in f2 if full ^ x in f1)
    )
    assert clopen_sets(c1).members == tuple(sorted(x for x in f1 if full ^ x in f1))
    assert (c1 == c2) == (c2 == c1) == (f1 == f2)
    if f1 == f2:
        assert hash(c1) == hash(c2)
    for c, f in ((c1, f1), (c2, f2)):
        assert c.is_topological() == all((a | b) in f for a in f for b in f)
        assert "closed_family" not in c.__dict__
        assert "base" not in c.__dict__
    assert c1.closed_family.members == tuple(sorted(f1))
    assert c2.closed_family.members == tuple(sorted(f2))


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
        (6, [0b011111, 0b000111, 0b111111, 0b001111, 0b000111, 0b000011]),
        (6, [0b000111, 0b111000, 0b010101, 0b101010, 0b110001]),
    ],
    ids=["4", "21", "full-member", "empty-base", "m70", "m130", "nested", "antichain"],
)
def test_closed_family_is_built_on_first_use(m, base):
    # apply() walks the base's inclusion forest: it builds no closed
    # family, and its result is the brute family's least member over x
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
        (6, [0b011111, 0b000111, 0b111111, 0b001111, 0b000111, 0b000011]),
        (6, [0b000111, 0b111000, 0b010101, 0b101010, 0b110001]),
    ],
    ids=[
        "4", "21", "full-member", "empty-base", "m70", "m130", "repeated", "nested",
        "antichain",
    ],
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


# --- the inclusion forest apply() walks ---------------------------------------------


@st.composite
def forest_bases(draw):
    """A carrier and a base shaped to exercise the forest: drawn at
    random, drawn with members cut down inside each other, a nested
    chain, or an antichain (distinct members of one size); then maybe
    the carrier, the empty set and repeats added, in any order."""
    m = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 70, 130]))
    full = (1 << m) - 1
    masks = st.integers(0, full)
    kind = draw(st.sampled_from(["drawn", "cut", "chain", "antichain"]))
    if kind == "chain":
        base = [draw(masks)]
        for _ in range(draw(st.integers(0, 6))):
            base.append(base[-1] & draw(masks))
    elif kind == "antichain":
        k = draw(st.integers(0, m))
        members = st.sets(st.integers(0, max(m - 1, 0)), min_size=k, max_size=k)
        base = [mask_of(s) for s in draw(st.lists(members, max_size=7))]
    else:
        base = draw(st.lists(masks, max_size=6 if kind == "cut" else 7))
        if kind == "cut" and base:
            pick = st.sampled_from(base)
            base += [b & draw(masks) for b in draw(st.lists(pick, max_size=4))]
    if draw(st.booleans()):
        base.append(full)
    if draw(st.booleans()):
        base.append(0)
    if base:
        base += draw(st.lists(st.sampled_from(base), max_size=3))
    return m, draw(st.permutations(base))


def probe_sets(m, base, data):
    """Every subset up to 8 elements; above that the empty set, the
    carrier, each member, each member less its lowest element or cut by
    a drawn mask, pairwise unions and a few drawn masks."""
    full = (1 << m) - 1
    if m <= 8:
        return list(range(1 << m))
    masks = st.integers(0, full)
    xs = {0, full, *base, *data.draw(st.lists(masks, max_size=8))}
    xs |= {b & ~(b & -b) for b in base} | {b & data.draw(masks) for b in base}
    xs |= {a | b for a in base for b in base}
    return sorted(xs)


def forest_invariants(c):
    """Each distinct generator once in the walk; every end past its own
    entry and inside its parent's subtree; every subtree member a strict
    subset of the entry it lies under; the roots the top-level entries,
    in walk order."""
    walk = c._walk
    assert sorted(b for b, _ in walk) == sorted(set(c._generators))
    for i, (b, end) in enumerate(walk):
        assert i < end <= len(walk)
        for a, inner in walk[i + 1 : end]:
            assert a & b == a != b
            assert inner <= end
    tops, i = [], 0
    while i < len(walk):
        tops.append(i)
        i = walk[i][1]
    assert list(c._starts.values()) == tops
    assert c._roots == tuple(walk[i][0] for i in tops)


@settings(max_examples=200, deadline=None)
@given(forest_bases(), st.data())
def test_forest_apply_matches_the_flat_loop_and_the_brute_family(mb, data):
    m, base = mb
    full = (1 << m) - 1
    c = ClosureOperator(m, base)
    xs = probe_sets(m, base, data)
    for x in xs:
        assert c.apply(x) == oracles.flat_closure_apply(full, base, x)
    sets = [set(bits(b)) for b in base]
    for x in data.draw(st.lists(st.sampled_from(xs), max_size=6)):
        want = oracles.brute_closure_apply(m, sets, set(bits(x)))
        assert set(bits(c.apply(x))) == want
    forest_invariants(c)


def test_a_generator_past_the_parent_tests_becomes_a_root():
    # the one strict superset of the last member lies further back than
    # the tests reach, behind members that all miss it, so that member is
    # a root of its own; apply still agrees with the flat loop
    from biclosure.closure import _PARENT_TESTS

    m = _PARENT_TESTS + 3
    full = (1 << m) - 1
    middles = [full ^ (0b10 | 1 << k + 2) for k in range(_PARENT_TESTS)]
    base = [full ^ 1, *middles, 0b10]
    c = ClosureOperator(m, base)
    probes = [0, 0b01, 0b10, 0b11, 0b110, 1 << m - 1, *base]
    for x in probes:
        assert c.apply(x) == oracles.flat_closure_apply(full, base, x)
    assert c._roots == tuple(base)
    forest_invariants(c)


@settings(max_examples=100)
@given(carriers_with_two_bases())
def test_forest_is_built_by_apply_alone(mbb):
    # construction, equality, hashing, the flags and the families leave
    # the forest unbuilt, and so does a set outside the generators'
    # union; the first apply() inside it builds it, once
    m, base, other = mbb
    full = (1 << m) - 1
    c1, c2 = ClosureOperator(m, base), ClosureOperator(m, other)
    c1 == c2, hash(c1), hash(c2), closed_open_family(c1, c2), clopen_sets(c2)
    c1.is_exact(), c1.is_topological(), c1.closed_family, c1.base
    assert c1._roots is None and c2._roots is None
    beyond = full & ~mask_of(i for b in base for i in bits(b))
    if beyond:
        assert c1.apply(beyond) == c1.apply(full) == full
        assert c1._roots is None
    c1.apply(0)
    walk = c1._walk
    c1.apply((1 << m) - 1)
    assert c1._walk is walk and c2._roots is None


@settings(max_examples=200)
@given(forest_bases())
@example((0, []))
@example((3, []))
@example((3, [0b111]))
@example((3, [0b111, 0b011, 0b110]))
@example((3, [0b111, 0b011, 0b101]))
def test_exactness_is_the_and_of_the_generators(mb):
    # the empty set's closure by the flat loop, against is_exact's AND
    m, base = mb
    c = ClosureOperator(m, base)
    assert c.is_exact() == (oracles.flat_closure_apply((1 << m) - 1, base, 0) == 0)
    assert c._roots is None


@pytest.mark.parametrize(
    "poset", [chain(40), boolean_algebra(4)], ids=["chain40", "ba4"]
)
def test_induced_forests_have_one_root(poset):
    # each induced base has a member holding all the others: the image
    # of the top (up side) or of the bottom (lo side); on a chain the
    # images are nested, so the forest is one path and every subtree
    # runs to the end of the walk
    for c in induced_closures(dual_space(poset)):
        c.apply(0)
        assert len(c._roots) == 1
        forest_invariants(c)
        if poset.n == 40:
            assert [end for _, end in c._walk] == [len(c._walk)] * len(c._walk)
