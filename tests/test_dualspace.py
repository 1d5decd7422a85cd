import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclosure import (
    BoundExceeded,
    InvalidOrthoMap,
    MemberOutOfRange,
    NotALattice,
    NotBounded,
    Subspace,
    antichain,
    build_poset,
    chain,
    dual_space,
    enumerate_posets,
    filter_of,
    filters_wrt,
    find_orthocomplementations,
    generated_filter,
    generated_ideal,
    ideal_of,
    ideals_wrt,
    induced_closures,
    is_full,
    is_separating,
    lattice_dual,
    orthodual_space,
    remove_constants,
)
from biclosure.bitops import bits, mask_of
from biclosure.dualspace import (
    DUAL_POINT_CAP,
    _lattice_dual,
    _orthodual,
    _separates,
)
from biclosure.poset import _upsets

import oracles

small_catalog = [p for n in range(1, 5) for p in enumerate_posets(n)]
tiny_catalog = [p for n in range(1, 4) for p in enumerate_posets(n)]
catalog_upto5 = small_catalog + enumerate_posets(5)


def as_sets(subspace):
    return {frozenset(bits(s)) for s in subspace.points}


# --- construction -----------------------------------------------------------------


def test_dual_space_matches_brute_enumeration():
    for p in small_catalog:
        want = oracles.brute_isotone_01_maps(p.n, oracles.leq_fn(p))
        assert as_sets(dual_space(p)) == want


def test_known_dual_sizes(two_chain, pair, vee, b4, m4):
    assert dual_space(two_chain).size == 3
    assert dual_space(pair).size == 4
    assert dual_space(vee).size == 5
    assert dual_space(b4).size == 6
    assert dual_space(m4).size == 18
    # one up-set per cut of the chain, each decided without recursion
    assert dual_space(chain(3000)).size == 3001


def test_dual_cap_is_enforced(b4, b8):
    with pytest.raises(BoundExceeded):
        dual_space(b4, cap=3)
    # the cap admits exactly the posets with at most that many up-sets
    for p in [chain(0), b8, antichain(10)] + catalog_upto5:
        count = len(oracles.brute_upsets(p.n, oracles.leq_fn(p)))
        assert dual_space(p, cap=count).size == count
        with pytest.raises(BoundExceeded, match=f"the configured cap {count - 1}$"):
            dual_space(p, cap=count - 1)


def test_points_must_be_upsets(two_chain):
    # {0} is a down-set of the chain 0 < 1, not an up-set
    with pytest.raises(ValueError):
        Subspace(two_chain, [0b01])
    Subspace(two_chain, [0b10])  # fine


def test_points_must_fit_the_carrier(two_chain):
    with pytest.raises(ValueError):
        Subspace(two_chain, [0b100])


def test_points_dedup_and_sort(b4):
    sub = Subspace(b4, [b4.full, 0, b4.full])
    assert sub.points == (0, b4.full)
    assert sub.size == 2


def test_kernel_cokernel_partition_carrier(b4):
    star = dual_space(b4)
    for i in range(star.size):
        assert star.kernel(i) | star.cokernel(i) == b4.full
        assert star.kernel(i) & star.cokernel(i) == 0


def test_up_image_lists_points_that_are_one_there(m3):
    star = dual_space(m3)
    for p in range(m3.n):
        img = star.up_image(p)
        for i in range(star.size):
            assert bool(img >> i & 1) == bool(star.points[i] >> p & 1)
        assert star.lo_image(p) == star.all_mask ^ img


def test_restrict_keeps_selected_points(b4):
    star = dual_space(b4)
    sub = star.restrict(0b101)
    assert sub.points == (star.points[0], star.points[2])


def _assert_as_validated(space):
    """A subspace built from known points equals the one the validating
    constructor builds from the same one-sets."""
    checked = Subspace(space.poset, space.points)
    assert space == checked
    assert (space.size, space.all_mask) == (checked.size, checked.all_mask)


@given(st.sampled_from(catalog_upto5), st.data())
@settings(max_examples=120, deadline=None)
def test_known_point_paths_match_the_validating_constructor(poset, data):
    star = dual_space(poset)
    assert star.points == Subspace(poset, _upsets(poset.up, DUAL_POINT_CAP)).points
    _assert_as_validated(star)
    mask = data.draw(st.integers(0, star.all_mask))
    sub = star.restrict(mask)
    assert sub.points == Subspace(poset, [star.points[i] for i in bits(mask)]).points
    _assert_as_validated(sub)
    _assert_as_validated(sub.restrict(data.draw(st.integers(0, sub.all_mask))))
    if poset.is_bounded():
        _assert_as_validated(remove_constants(star))
        _assert_as_validated(remove_constants(sub))
        for f in find_orthocomplementations(poset):
            _assert_as_validated(_orthodual(star, f))
    if poset.is_lattice():
        _assert_as_validated(_lattice_dual(star))
    # the public constructor still rejects what is not a dual point
    one_set = data.draw(st.integers(0, (1 << poset.n + 1) - 1))
    upsets = oracles.brute_upsets(poset.n, oracles.leq_fn(poset))
    if frozenset(bits(one_set)) in upsets:
        assert Subspace(poset, [one_set]).points == (one_set,)
    else:
        with pytest.raises(ValueError):
            Subspace(poset, [0, one_set])


# --- ideals and filters -------------------------------------------------------------


def test_ideal_family_matches_brute_intersections():
    for p in tiny_catalog:
        star = dual_space(p)
        one_sets = [frozenset(bits(s)) for s in star.points]
        want = oracles.brute_ideal_family(one_sets, p.n)
        got = {frozenset(bits(m)) for m in ideals_wrt(star).members}
        assert got == want
        want_f = oracles.brute_filter_family(one_sets, p.n)
        got_f = {frozenset(bits(m)) for m in filters_wrt(star).members}
        assert got_f == want_f


def test_ideals_of_full_dual_are_the_downsets(b4):
    star = dual_space(b4)
    downs = {b4.full ^ s for s in star.points}
    assert set(ideals_wrt(star).members) == downs
    assert set(filters_wrt(star).members) == set(star.points)


def test_empty_selection_yields_full_carrier(b4):
    star = dual_space(b4)
    assert ideal_of(star, 0) == b4.full
    assert filter_of(star, 0) == b4.full


def test_selection_intersects_kernels(b4):
    star = dual_space(b4)
    idx = mask_of([1, 3])
    assert ideal_of(star, idx) == star.kernel(1) & star.kernel(3)
    assert filter_of(star, idx) == star.points[1] & star.points[3]


def test_selection_outside_the_subspace_is_rejected(b4):
    star = dual_space(b4)
    sub = star.restrict(0b1011)
    for idx in (1 << sub.size, sub.all_mask + 1, -1, -(1 << sub.size)):
        with pytest.raises(MemberOutOfRange):
            ideal_of(sub, idx)
        with pytest.raises(MemberOutOfRange):
            filter_of(sub, idx)
        with pytest.raises(MemberOutOfRange):
            sub.restrict(idx)
    for idx in (1 << star.size, -1):
        with pytest.raises(MemberOutOfRange):
            star.restrict(idx)
    # generated hulls take element masks: bits outside the carrier are rejected
    for subset in (1 << b4.n, b4.full + 1, 0b1 | 1 << b4.n, -1, -(1 << b4.n)):
        with pytest.raises(MemberOutOfRange):
            generated_ideal(sub, subset)
        with pytest.raises(MemberOutOfRange):
            generated_filter(sub, subset)


def test_generated_ideal_is_smallest_container(m3):
    star = dual_space(m3)
    fam = ideals_wrt(star)
    for p in range(m3.n):
        hull = generated_ideal(star, 1 << p)
        assert hull.found
        assert hull.subset & (1 << p)
        for m in fam.members:
            if m >> p & 1:
                assert hull.subset & ~m == 0


def test_generated_ideal_without_container_degenerates(b4):
    f = find_orthocomplementations(b4)[0]
    od = orthodual_space(b4, f)
    top = b4.index("{0,1}")
    hull = generated_ideal(od, 1 << top)
    assert hull == (b4.full, False)


def test_generated_cones_over_orthodual_are_order_cones(b4, m4):
    for p, f in [(b4, find_orthocomplementations(b4)[0])] + [
        (m4, g) for g in find_orthocomplementations(m4)
    ]:
        od = orthodual_space(p, f)
        for e in range(p.n):
            assert generated_ideal(od, 1 << e).subset == p.down[e]
            assert generated_filter(od, 1 << e).subset == p.up[e]


# --- fullness and separation ----------------------------------------------------------


def test_full_dual_space_is_full_and_separating():
    for p in small_catalog:
        star = dual_space(p)
        ok, witness = is_full(star)
        assert ok and witness is None
        ok, witness = is_separating(star)
        assert ok and witness is None


def test_fullness_witness_names_an_unwitnessed_pair(b4):
    star = dual_space(b4)
    constants_only = star.restrict(
        mask_of([star.index_of(0), star.index_of(b4.full)])
    )
    ok, witness = is_full(constants_only)
    assert not ok
    p, q = witness
    assert not b4.leq(p, q)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(catalog_upto5), st.data())
def test_fullness_matches_oracle(p, data):
    star = dual_space(p)
    sub = star.restrict(data.draw(st.integers(0, star.all_mask)))
    one_sets = [set(bits(s)) for s in sub.points]
    leq = oracles.leq_fn(p)
    ok, witness = is_full(sub)
    assert ok == oracles.brute_is_full(one_sets, p.n, leq)
    # fullness is order reflection, so the witness is the oracle's first
    # (p, q) with image(p) inside image(q) and p not below q
    flags = oracles.brute_order_flags(one_sets, p.n, leq)
    assert witness == flags["order_reflecting"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tiny_catalog), st.data())
def test_separation_matches_oracle(p, data):
    star = dual_space(p)
    sub = star.restrict(data.draw(st.integers(0, star.all_mask)))
    one_sets = [set(bits(s)) for s in sub.points]
    assert is_separating(sub)[0] == oracles.brute_is_separating(one_sets, p.n)


def _smallest_holding(family, subset, n):
    holding = [m for m in family if subset <= m]
    if not holding:
        return (1 << n) - 1, False
    return mask_of(min(holding, key=len)), True


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(catalog_upto5), st.data())
def test_families_hulls_and_witness_match_oracles(p, data):
    # at most 10 points keeps the brute families at 2^10 intersections
    star = dual_space(p)
    idx = data.draw(
        st.lists(st.integers(0, star.size - 1), unique=True, max_size=10)
    )
    sub = star.restrict(mask_of(idx))
    one_sets = [frozenset(bits(s)) for s in sub.points]
    ideals = oracles.brute_ideal_family(one_sets, p.n)
    filters = oracles.brute_filter_family(one_sets, p.n)
    assert {frozenset(bits(m)) for m in ideals_wrt(sub)} == ideals
    assert {frozenset(bits(m)) for m in filters_wrt(sub)} == filters
    # the witness order is pinned on an uncapped subspace too: the oracle
    # grows its families instead of sweeping every point combination
    wide = star.restrict(data.draw(st.integers(0, star.all_mask)))
    for space in (sub, wide):
        want = oracles.first_unseparated_pair(
            [frozenset(bits(s)) for s in space.points], p.n
        )
        assert is_separating(space) == want
        # the concepts a report's readers take both families from
        c1, c2 = induced_closures(space)
        assert _separates(space, (c1, c2)) == want
        assert tuple(i for i, _ in c2._concepts) == ideals_wrt(space).members
        assert tuple(f for f, _ in c1._concepts) == filters_wrt(space).members
    subset = data.draw(st.integers(0, p.full))
    held = frozenset(bits(subset))
    assert generated_ideal(sub, subset) == _smallest_holding(ideals, held, p.n)
    assert generated_filter(sub, subset) == _smallest_holding(filters, held, p.n)


def drawn_subspaces(seed, count):
    """``count`` random subspaces of full duals over the n <= 6 catalog,
    and the four subspaces of antichain(0) and chain(1)."""
    rng = random.Random(seed)
    catalog = [p for n in range(1, 7) for p in enumerate_posets(n)]
    stars = [dual_space(antichain(0)), dual_space(chain(1))]
    for star in stars:
        yield star.restrict(0)
        yield star
    for _ in range(count):
        star = dual_space(rng.choice(catalog))
        yield star.restrict(rng.getrandbits(star.size))


def test_batched_cuts_match_per_set_cuts():
    for sub in drawn_subspaces(7, 300):
        closures = induced_closures(sub)
        for side, image, cut in (
            (0, sub.up_image, filter_of),
            (1, sub.lo_image, ideal_of),
        ):
            family = closures[side].closed_family
            images = [image(p) for p in range(sub.poset.n)]
            want = oracles.per_set_cuts(images, family)
            assert closures[side]._concepts == want
            assert want == sorted((cut(sub, x), x) for x in family if x)


def test_separation_masks_match_the_pair_scan():
    # the draw must reach both fast paths: unseparated pairs, and
    # separating subspaces where a filter that is no point of A misses
    # some ideal, so the masks (not the point-filter drop) decide
    unseparated = masked = 0
    for sub in drawn_subspaces(11, 800):
        closures = induced_closures(sub)
        filters, ideals = closures[0]._concepts, closures[1]._concepts
        want = oracles.pair_scan(ideals, filters)
        assert _separates(sub, closures) == want
        one_sets = [frozenset(bits(s)) for s in sub.points]
        assert want == oracles.first_unseparated_pair(one_sets, sub.poset.n)
        unseparated += not want[0]
        others = [f for f, _ in filters if f not in sub.points]
        masked += want[0] and any(not i & f for i, _ in ideals for f in others)
    assert unseparated >= 100 and masked >= 100


def m_lattice(k):
    """M_k: k pairwise incomparable atoms between a bottom and a top."""
    atoms = [f"a{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return build_poset(["0", *atoms, "1"], covers)


def point_filter_subspaces():
    """Full duals, each with a restriction closed under nonempty
    intersection: in both every A-filter is a point of the subspace."""
    rng = random.Random(13)
    shapes = catalog_upto5 + [m_lattice(k) for k in (4, 5, 6)] + [antichain(9)]
    for poset in shapes:
        star = dual_space(poset)
        yield star
        closed = set()
        for s in rng.sample(star.points, min(star.size, rng.randint(1, 4))):
            closed |= {s} | {s & t for t in closed}
        yield Subspace(poset, closed)


def test_separation_is_decided_at_once_when_every_filter_is_a_point(monkeypatch):
    import biclosure.dualspace as dualspace_module

    def unread(*args):
        raise AssertionError("the filters were transposed")

    for space in point_filter_subspaces():
        closures = induced_closures(space)
        filters, ideals = closures[0]._concepts, closures[1]._concepts
        assert {f for f, _ in filters} <= set(space.points)
        want = oracles.pair_scan(ideals, filters)
        one_sets = [frozenset(bits(s)) for s in space.points]
        assert want == oracles.first_unseparated_pair(one_sets, space.poset.n)
        assert want == (True, None)
        with monkeypatch.context() as patch:
            patch.setattr(dualspace_module, "_transpose", unread)
            assert _separates(space, closures) == want


def nearly_flat():
    # four elements, p0 < p3 the only relation; the smallest shapes are
    # all separating no matter which points are kept, this one is not
    from biclosure import build_poset

    return build_poset(["p0", "p1", "p2", "p3"], [("p0", "p3")])


def test_non_separating_subspace_is_detected():
    p = nearly_flat()
    sub = Subspace(
        p,
        [mask_of(s) for s in ([1], [3], [0, 1, 3], [1, 2, 3])],
    )
    ok, witness = is_separating(sub)
    assert not ok
    one_sets = [set(bits(s)) for s in sub.points]
    assert not oracles.brute_is_separating(one_sets, p.n)


def test_separation_witness_is_a_disjoint_unseparated_pair():
    p = nearly_flat()
    sub = Subspace(
        p,
        [mask_of(s) for s in ([1], [3], [0, 1, 3], [1, 2, 3])],
    )
    ok, (ideal, filt) = is_separating(sub)
    assert not ok
    assert ideal & filt == 0
    for s in sub.points:
        separated = filt & ~s == 0 and ideal & s == 0
        assert not separated


# --- derived subspaces ------------------------------------------------------------------


def test_remove_constants_drops_exactly_two(b4):
    star = dual_space(b4)
    trimmed = remove_constants(star)
    assert trimmed.size == star.size - 2
    assert 0 not in trimmed.points
    assert b4.full not in trimmed.points


def test_remove_constants_requires_bounds(vee):
    with pytest.raises(NotBounded):
        remove_constants(dual_space(vee))


def test_lattice_dual_matches_brute_morphisms(catalog4, catalog5, catalog6, b8):
    lattices = [p for p in catalog4 + catalog5 + catalog6 if p.is_lattice()]
    assert len(lattices) == 25
    for p in lattices + [b8]:
        want = oracles.brute_lattice_01_morphisms(p.n, oracles.leq_fn(p))
        assert as_sets(lattice_dual(p)) == want


def test_known_lattice_dual_sizes(b4, m3):
    assert lattice_dual(b4).size == 4
    assert lattice_dual(m3).size == 2  # constants only
    assert lattice_dual(chain(3)).size == 4


def test_lattice_dual_rejects_non_lattices(vee):
    with pytest.raises(NotALattice):
        lattice_dual(vee)


def test_orthodual_points_swap_values_under_complement(b4, m4):
    for p in (b4, m4):
        for f in find_orthocomplementations(p):
            od = orthodual_space(p, f)
            assert od.size >= 1
            for s in od.points:
                for e in range(p.n):
                    assert (s >> e & 1) != (s >> f(e) & 1)


def test_orthodual_filter_matches_the_image_mask_filter():
    # every orthocomplementation of the bounded classes up to 6 elements
    # and of M_4 to M_8 (k atoms between a bottom and a top)
    bundles = [
        build_poset(
            ["0"] + [f"a{i}" for i in range(k)] + ["1"],
            [("0", f"a{i}") for i in range(k)] + [(f"a{i}", "1") for i in range(k)],
        )
        for k in range(4, 9)
    ]
    bounded = [p for n in range(1, 7) for p in enumerate_posets(n) if p.is_bounded()]
    maps = 0
    for p in bounded + bundles:
        star = dual_space(p)
        for f in find_orthocomplementations(p):
            want = [
                s for s in star.points if oracles.image_mask(f.perm, s) == p.full ^ s
            ]
            assert _orthodual(star, f).points == tuple(want)
            maps += 1
    assert maps == 7 + 3 + 15 + 105


def test_orthodual_rejects_foreign_map(b4, m4):
    f = find_orthocomplementations(b4)[0]
    with pytest.raises(InvalidOrthoMap):
        orthodual_space(m4, f)


def test_orthodual_size_on_b4(b4):
    f = find_orthocomplementations(b4)[0]
    assert orthodual_space(b4, f).size == 2
