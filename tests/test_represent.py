import concurrent.futures
import hashlib
import json
import os
import random
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclosure import (
    BoundExceeded,
    ClosureOperator,
    NotBoolean,
    NotBounded,
    NotDistributive,
    NotSelfdual,
    antichain,
    boolean_algebra,
    build_poset,
    chain,
    check_poset,
    clopen_sets,
    dual_space,
    enumerate_posets,
    filters_wrt,
    find_orthocomplementations,
    generated_filter,
    generated_ideal,
    ideals_wrt,
    induced_closures,
    induced_orthocomplementation,
    is_full,
    is_separating,
    lattice_dual,
    maximal_subspaces,
    ortho_correspondence,
    orthodual_space,
    remove_constants,
    represent_distributive,
    represent_general,
    represent_orthoposet,
    representation_report,
    selfdual_subspaces,
    stone,
    sweep_catalog,
)
import biclosure.dualspace as dualspace_module
import biclosure.poset as poset_module
import biclosure.represent as represent_module
from biclosure.bitops import bits, mask_of
from biclosure.dualspace import Hull, Subspace, _fullness_witnesses, _lattice_families
from biclosure.poset import Poset, SubsetFamily
from biclosure.represent import (
    SUITES,
    SWEEP_CAP,
    _correspondence,
    _cut_filter,
    _worker_count,
)

import oracles

small_catalog = [p for n in range(1, 5) for p in enumerate_posets(n)]
tiny_catalog = [p for n in range(1, 4) for p in enumerate_posets(n)]


# --- the point-image map -----------------------------------------------------------


def test_full_dual_representation_is_an_isomorphism():
    for p in small_catalog:
        star, family, report = represent_general(p)
        assert report.isomorphism
        assert len(family) == p.n
        assert report.full and report.separating


def test_report_is_order_sensitive(two_chain, pair):
    # same sizes, different orders: the image of the chain is a chain
    rep_chain = representation_report(two_chain, dual_space(two_chain))
    rep_pair = representation_report(pair, dual_space(pair))
    a, b = rep_chain.sigma_table
    assert a & ~b == 0 or b & ~a == 0
    c, d = rep_pair.sigma_table
    assert c & ~d and d & ~c


@settings(max_examples=100)
@given(st.sampled_from(small_catalog), st.data())
def test_images_always_live_in_the_closed_open_family(p, data):
    star = dual_space(p)
    sub = star.restrict(data.draw(st.integers(0, star.all_mask)))
    report = representation_report(p, sub)
    assert report.into


@settings(max_examples=100)
@given(st.sampled_from(small_catalog), st.data())
def test_full_implies_injective_separating_almost_surjective(p, data):
    star = dual_space(p)
    sub = star.restrict(data.draw(st.integers(0, star.all_mask)))
    report = representation_report(p, sub)
    assert report.consistent
    if report.full:
        assert report.injective
    if report.separating:
        image = set(report.sigma_table)
        for member in report.family:
            if member not in (0, sub.all_mask):
                assert member in image


def test_full_separating_subspace_that_misses_the_ends(pair):
    # both one-point images, nothing hitting the empty set or A itself:
    # fullness and separation do not promise a full isomorphism for an
    # arbitrary subspace, only for the canonical ones
    star = dual_space(pair)
    sub = star.restrict(
        (1 << star.index_of(0b01)) | (1 << star.index_of(0b10))
    )
    report = representation_report(pair, sub)
    assert report.full and report.separating
    assert report.injective and not report.surjective
    assert sorted(report.witnesses["surjective"]) in ([], [0, 1])
    assert len(report.family) == 4


def test_report_witnesses_point_at_failures(b4):
    star = dual_space(b4)
    constants = star.restrict(
        (1 << star.index_of(0)) | (1 << star.index_of(b4.full))
    )
    report = representation_report(b4, constants)
    assert not report.full
    assert "full" in report.witnesses
    p, q = report.witnesses["full"]
    assert not b4.leq_labels(p, q)


def test_order_flags_and_witnesses_match_the_oracle(catalog4, catalog5):
    rng = random.Random(0x0F1A95)
    for p in catalog4 + catalog5:
        star = dual_space(p)
        leq = oracles.leq_fn(p)
        for _ in range(8):
            sub = star.restrict(rng.getrandbits(star.size))
            report = representation_report(p, sub)
            want = oracles.brute_order_flags(
                [frozenset(bits(s)) for s in sub.points], p.n, leq
            )
            for flag, pair in want.items():
                assert getattr(report, flag) == (pair is None)
                labelled = None if pair is None else tuple(p.labels[i] for i in pair)
                assert report.witnesses.get(flag) == labelled
            assert report.order_reflecting == report.full
            witnesses = report.witnesses
            assert witnesses.get("order_reflecting") == witnesses.get("full")


def brute_family_flags(sub, n):
    """The closed-open family, closure coincidence and the two
    topological flags of a subspace, from brute closed families of the
    point images read off its one-sets."""
    m = sub.size
    ups = [{i for i, x in enumerate(sub.points) if x >> p & 1} for p in range(n)]
    los = [set(range(m)) - up for up in ups]
    f1, f2 = (
        {mask_of(x) for x in oracles.brute_closed_family(m, images)}
        for images in (ups, los)
    )
    full = (1 << m) - 1
    family = tuple(sorted(x for x in f1 if full ^ x in f2))
    topological = tuple(all((a | b) in f for a in f for b in f) for f in (f1, f2))
    return family, f1 == f2, topological


def test_report_families_match_brute_force_without_sorted_families(catalog4, catalog5):
    # the full dual of every class with n <= 5 and six seeded subspaces
    # of each; the report reads both closures' closed sets without
    # building either sorted closed_family or either sorted base
    rng = random.Random(0xFA111E5)
    for p in catalog4 + catalog5:
        star = dual_space(p)
        subs = [star] + [star.restrict(rng.getrandbits(star.size)) for _ in range(6)]
        for sub in subs:
            report, closures = represent_module._read(p, sub)
            family, coincide, topological = brute_family_flags(sub, p.n)
            assert report.family.members == family
            assert report.closures_coincide == coincide
            assert report.topological == topological
            for c in closures:
                assert "closed_family" not in c.__dict__
                assert "base" not in c.__dict__
                assert c._roots is None  # nor the forest apply() walks


def planted(sub, table):
    """The subspace with its point images replaced by ``table``."""
    sub.__dict__["_up_images"] = tuple(table)
    return sub


def test_isotony_witness_is_the_first_failing_relation_in_row_order():
    # on 0 < 1 < 2 the image of 0 lies in that of 1 but not of 2, so only
    # the cover 1 < 2 fails; the witness is still 0 <= 2, the first pair
    # in row order, which is no cover
    p = chain(3)
    star = dual_space(p)
    report = representation_report(p, planted(star, [0b0011, 0b0111, 0b1100]))
    assert not report.isotone
    assert report.witnesses["isotone"] == (p.labels[0], p.labels[2])


def test_isotony_flag_and_witness_match_the_row_scan_on_planted_images(
    catalog4, catalog5
):
    # real images are always isotone, so planted ones: the real table with
    # one image cut down or grown, or a drawn table
    rng = random.Random(0x150709E)
    for p in catalog4 + catalog5:
        for _ in range(6):
            star = dual_space(p)
            table = list(star._up_images)
            if rng.random() < 0.5:
                q = rng.randrange(p.n)
                side = table[q] if rng.random() < 0.5 else ~table[q]
                table[q] ^= rng.getrandbits(star.size) & side
            else:
                table = [rng.getrandbits(star.size) for _ in table]
            want = oracles.row_scan_isotony(p.up, table)
            report = representation_report(p, planted(star, table))
            assert report.isotone == (want is None)
            labelled = None if want is None else (p.labels[want[0]], p.labels[want[1]])
            assert report.witnesses.get("isotone") == labelled


def test_injectivity_is_decided_where_reflection_also_breaks():
    # both elements map onto the one point that holds everything, and the
    # pair that shows it also breaks order reflection
    p = antichain(2)
    star = dual_space(p)
    constants = star.restrict((1 << star.index_of(0)) | (1 << star.index_of(p.full)))
    report = representation_report(p, constants)
    assert not report.order_reflecting
    assert not report.injective
    assert report.witnesses["injective"] == ("a0", "a1")


def test_report_rejects_a_subspace_over_another_poset():
    with pytest.raises(ValueError):
        representation_report(chain(2), dual_space(antichain(3)))


def test_report_json_is_serializable(b4):
    import json

    _, _, report = represent_general(b4)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert '"isomorphism": true' in text


# --- orthoposet representation --------------------------------------------------------


def test_orthodual_representation_on_b4(b4):
    f = find_orthocomplementations(b4)[0]
    space, report = represent_orthoposet(b4, f)
    assert report.closures_coincide
    assert report.isomorphism
    assert len(space.clopen) == b4.n


def test_orthodual_representation_on_all_m4_orthos(m4):
    for f in find_orthocomplementations(m4):
        space, report = represent_orthoposet(m4, f)
        assert report.isomorphism
        assert len(space.clopen) == m4.n


def test_orthodual_complement_is_set_complement(b8):
    for f in find_orthocomplementations(b8):
        space, _ = represent_orthoposet(b8, f)
        sub = space.subspace
        for p in range(b8.n):
            assert sub.up_image(f(p)) == sub.all_mask ^ sub.up_image(p)


# --- distributive and Boolean representation ---------------------------------------------


def test_distributive_representation_is_topological(b4, b8, four_chain):
    for p in (b4, b8, four_chain, chain(1)):
        morph, family, report = represent_distributive(p)
        assert report.isomorphism
        assert report.topological == (True, True)
        assert len(family) == p.n


def test_distributive_rejects_m3_n5_and_non_lattices(m3, n5, vee):
    for p in (m3, n5, vee):
        with pytest.raises(NotDistributive):
            represent_distributive(p)


def test_stone_spaces_have_one_point_per_atom():
    for k in (1, 2, 3):
        space = stone(boolean_algebra(k))
        assert space.subspace.size == k
        assert len(space.clopen) == 1 << k
        assert len(space.kernels) == k


def test_stone_closure_is_exact_and_topological():
    space = stone(boolean_algebra(3))
    assert space.closure.is_exact()
    assert space.closure.is_topological()


def test_stone_kernels_are_the_coatom_downsets(b8):
    space = stone(b8)
    coatoms = [i for i in range(b8.n) if b8.covers[i] >> b8.top & 1]
    assert sorted(space.kernels) == sorted(b8.down[i] for i in coatoms)


def test_stone_rejects_non_boolean(m3, four_chain):
    for p in (m3, four_chain):
        with pytest.raises(NotBoolean):
            stone(p)


# --- the subspace sweep ---------------------------------------------------------------------


def brute_selfdual(poset):
    """The sweep redone through the public one-subspace predicates."""
    star = dual_space(poset)
    out = []
    for mask in range(1 << star.size):
        sub = star.restrict(mask)
        if not is_full(sub)[0]:
            continue
        if not is_separating(sub)[0]:
            continue
        c1, c2 = induced_closures(sub)
        if c1 != c2:
            continue
        out.append(sub)
    return out


def test_sweep_agrees_with_definition_on_small_posets():
    for p in tiny_catalog:
        fast = {s.points for s in selfdual_subspaces(p)}
        slow = {s.points for s in brute_selfdual(p)}
        assert fast == slow


def test_sweep_agrees_with_definition_on_key_shapes(b4, four_chain):
    for p in (b4, four_chain):
        fast = {s.points for s in selfdual_subspaces(p)}
        slow = {s.points for s in brute_selfdual(p)}
        assert fast == slow


# two 2-chains under a top, two 2-chains over a bottom, and the hexagon:
# duals of 10, 10 and 11 points with one selfdual subspace each
two_chains_up = build_poset(list("abcde"), [("a", "c"), ("c", "e"), ("b", "d"), ("d", "e")])
two_chains_down = build_poset(list("abcde"), [("a", "b"), ("b", "d"), ("a", "c"), ("c", "e")])
hexagon = build_poset(
    list("0abcd1"),
    [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
)


@pytest.mark.parametrize(
    "shape", ["m3", "chain10", "chain11", "two_chains_up", "two_chains_down", "hexagon"]
)
def test_sweep_matches_definition_beyond_one_block(shape, m3):
    # duals of 10 to 12 points: the sweep's low-half table covers 9, so
    # the high-half lookup decides part of every sweep
    p = {
        "m3": m3,
        "chain10": chain(10),
        "chain11": chain(11),
        "two_chains_up": two_chains_up,
        "two_chains_down": two_chains_down,
        "hexagon": hexagon,
    }[shape]
    star = dual_space(p)
    assert 10 <= star.size <= 12
    fast = [s.points for s in selfdual_subspaces(p, cap=star.size)]
    slow = [s.points for s in brute_selfdual(p)]
    assert fast == slow
    assert len(fast) == (shape not in ("m3", "chain10", "chain11"))


@pytest.mark.parametrize("low_bits", [0, 1, 2, 3])
def test_sweep_with_a_narrow_low_table_matches_definition(monkeypatch, low_bits, b4, vee):
    # with a low table of a few points, the selfdual subspaces found lie
    # mostly in the high half
    monkeypatch.setattr(represent_module, "_LOW_BITS", low_bits)
    found = 0
    for p in (b4, vee, two_chains_up, two_chains_down):
        fast = [s.points for s in selfdual_subspaces(p, cap=10)]
        assert fast == [s.points for s in brute_selfdual(p)]
        found += len(fast)
    assert found >= 4


def test_m4_sweep_matches_a_per_subset_fullness_test(m4):
    # the M4 sweep (18 points, two halves of 9) against the plain loop
    # that tests every subset against every fullness witness
    star = dual_space(m4)
    ups = [star.up_image(p) for p in range(m4.n)]
    los = [star.lo_image(p) for p in range(m4.n)]
    held = [h for _, _, h in _fullness_witnesses(star)]
    plain = [
        sub
        for sub in range(1 << star.size)
        if all(sub & h for h in held)
        and oracles.cuts_generated(ups, sub)
        and oracles.cuts_generated(los, sub)
        and is_separating(star.restrict(sub))[0]
    ]
    found = selfdual_subspaces(m4, cap=18)
    assert [s.points for s in found] == [star.restrict(sub).points for sub in plain]
    assert len(found) == 3 and max(plain) >= 1 << 9


def cut_filters(star):
    """The sweep's table filter on each side, with its low-half width."""
    n, m = star.poset.n, star.size
    k = min(m, represent_module._LOW_BITS)
    ups = [star.up_image(q) for q in range(n)]
    los = [star.lo_image(q) for q in range(n)]
    return k, [(rows, _cut_filter(rows, m, k)) for rows in (ups, los)]


def test_sweep_coincidence_test_matches_the_closures(catalog4, catalog5, m4):
    # the sweep's table filter against c1 == c2 on the restricted
    # subspace, on every subset of a dual with at most 8 points and 200
    # random subsets of each larger one, full or not
    rng = random.Random(0xC0117)
    checked = full = 0
    for p in catalog4 + catalog5 + [m4]:
        star = dual_space(p)
        k, sides = cut_filters(star)
        if star.size <= 8:
            subs = range(1 << star.size)
        else:
            subs = [rng.getrandbits(star.size) for _ in range(200)]
        for sub in subs:
            space = star.restrict(sub)
            c1, c2 = induced_closures(space)
            high, low = sub >> k, sub & ((1 << k) - 1)
            fast = all(keep(high, [low]) for _, keep in sides)
            assert fast == (c1 == c2), (p, sub)
            checked += 1
            full += is_full(space)[0]
    assert 0 < full < checked


def assert_cut_filter_matches_reference(star):
    """Every subset of star, one high half at a time, through each side's
    table filter and through the per-subset reference."""
    k, sides = cut_filters(star)
    lows = list(range(1 << k))
    passed = 0
    for rows, keep in sides:
        for high in range(1 << (star.size - k)):
            expected = [b for b in lows if oracles.cuts_generated(rows, high << k | b)]
            assert keep(high, lows) == expected, (star.poset, rows, high)
            passed += len(expected)
    return passed


def test_cut_filter_matches_the_reference_on_every_m4_subset(m4):
    # 2^18 subsets in 512 high halves of 9 low points, up- and lo-rows
    assert assert_cut_filter_matches_reference(dual_space(m4)) > 0


def test_cut_filter_matches_the_reference_on_the_small_catalog(catalog4, catalog5):
    stars = [dual_space(p) for p in catalog4 + catalog5]
    stars = [s for s in stars if s.size <= 12]
    assert max(s.size for s in stars) == 12
    for star in stars:
        assert_cut_filter_matches_reference(star)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_cut_filter_matches_the_reference_beyond_one_and_table_block(n):
    # more than 8 rows: the AND over the rows containing a cut is read
    # from two and_tables blocks
    assert assert_cut_filter_matches_reference(dual_space(chain(n))) > 0


@pytest.mark.parametrize("low_bits", [0, 1, 2, 3])
def test_cut_filter_with_a_narrow_low_table_matches_the_reference(
    monkeypatch, low_bits, catalog4, m3
):
    # with a low table of a few points, the high-half masks decide most
    # of the test
    monkeypatch.setattr(represent_module, "_LOW_BITS", low_bits)
    for p in catalog4 + [m3, two_chains_up, chain(10)]:
        star = dual_space(p)
        if star.size <= 12:
            assert_cut_filter_matches_reference(star)


def test_cut_filter_builds_a_row_only_when_a_subset_reaches_it(monkeypatch, four_chain, m4):
    # no full subset of the four-chain's dual gets past its second up-row,
    # so 2 of its 8 rows are built; M4's 512 high halves share one build
    # per row
    calls = []
    count_calls(monkeypatch, represent_module, "and_tables", calls)
    assert selfdual_subspaces(four_chain) == []
    assert len(calls) == 2
    calls.clear()
    assert len(selfdual_subspaces(m4, cap=18)) == 3
    assert len(calls) == 2 * m4.n


def test_sweep_counts(b4, four_chain, singleton):
    assert len(selfdual_subspaces(b4)) == 1
    assert len(selfdual_subspaces(four_chain)) == 0
    assert len(selfdual_subspaces(singleton)) == 1


def test_singleton_admits_the_empty_subspace(singleton):
    found = selfdual_subspaces(singleton)
    assert len(found) == 1
    assert found[0].size == 0


def test_empty_poset_admits_both_of_its_subspaces():
    # fullness is vacuous without elements, and the one dual point (the
    # empty up-set) is no obstacle: the empty and the one-point subspace
    # both qualify
    found = selfdual_subspaces(antichain(0))
    assert [space.points for space in found] == [(), (0,)]


def test_sweep_cap_is_enforced(m4):
    with pytest.raises(BoundExceeded):
        selfdual_subspaces(m4)  # 18 dual points, default cap 14
    assert len(selfdual_subspaces(m4, cap=18)) == 3


def test_unbounded_posets_can_have_selfdual_subspaces(vee):
    # two incomparable upper points over the bottom: full, separating,
    # closures coincide, yet nothing here induces a complementation
    found = selfdual_subspaces(vee)
    assert len(found) == 1
    sub = found[0]
    assert is_full(sub)[0] and is_separating(sub)[0]
    c1, c2 = induced_closures(sub)
    assert c1 == c2
    with pytest.raises(NotBounded):
        induced_orthocomplementation(sub)
    with pytest.raises(NotBounded):
        ortho_correspondence(vee)


def test_maximal_subspaces_filters_contained_ones(b4):
    star = dual_space(b4)
    spaces = [star.restrict(0b000011), star.restrict(0b000111), star]
    maxima = maximal_subspaces(spaces)
    assert maxima == [star]


# --- induced complementations -----------------------------------------------------------------


def test_induced_complementation_inverts_orthodual(b4, m4):
    for p in (b4, m4):
        for f in find_orthocomplementations(p):
            back = induced_orthocomplementation(orthodual_space(p, f))
            assert back == f


def test_induced_complementation_needs_coincident_closures(two_chain):
    star = dual_space(two_chain)  # full and separating, closures differ
    with pytest.raises(NotSelfdual):
        induced_orthocomplementation(star)


def test_induced_complementation_needs_fullness(b4):
    star = dual_space(b4)
    constants = star.restrict(
        (1 << star.index_of(0)) | (1 << star.index_of(b4.full))
    )
    with pytest.raises(NotSelfdual):
        induced_orthocomplementation(constants)


def test_correspondence_on_known_posets(b4, four_chain, m4, singleton):
    ok, report = ortho_correspondence(b4)
    assert ok and report["orthocomplementations"] == 1
    ok, report = ortho_correspondence(four_chain)
    assert ok and report["maximal_subspaces"] == 0
    ok, report = ortho_correspondence(m4, cap=18)
    assert ok and report["orthocomplementations"] == 3
    ok, report = ortho_correspondence(singleton)
    assert ok and report["maximal_subspaces"] == 1


# --- suites and sweeps ------------------------------------------------------------------------


def test_check_poset_passes_on_fixtures(b4, b8, m3, m4, n5, vee, singleton):
    for p in (b4, b8, m3, m4, n5, vee, singleton):
        report = check_poset(p)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_suites_partition_the_checks(b4):
    all_names = {c.name for c in check_poset(b4, suite="all").checks}
    union = set()
    for suite in ("general", "ortho", "distributive", "boolean"):
        union |= {c.name for c in check_poset(b4, suite=suite).checks}
    assert union == all_names


def test_general_suite_skips_lattice_checks(m3):
    names = {c.name for c in check_poset(m3, suite="general").checks}
    assert "distributive-iff-full-separating" not in names
    assert "dual-representation" in names


def test_check_bytes_are_pinned_per_suite(m3, m4):
    # every suite's report on five posets, and the dual cap's message,
    # byte for byte; the digest was taken before the suites were split
    # into one generator each
    digest = hashlib.sha256()
    for poset in (boolean_algebra(3), m3, m4, chain(5), antichain(3)):
        cap = 18 if poset is m4 else SWEEP_CAP
        for suite in SUITES:
            report = check_poset(poset, suite=suite, sweep_cap=cap)
            digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    with pytest.raises(BoundExceeded) as exc:
        check_poset(boolean_algebra(3), dual_cap=10)
    digest.update(str(exc.value).encode())
    assert digest.hexdigest() == (
        "fc865d8f8f55119aa534a10f4bd8c05adca6f3017e754b7f63a40ab945c6d302"
    )


def test_statement_table_has_no_dead_entry(m3, m4):
    # each emitted name reads its statement from the table, in table
    # order, and these three posets reach every entry
    order = list(represent_module._STATEMENTS)
    reached = set()
    for poset in (m4, boolean_algebra(3), m3):
        cap = 18 if poset is m4 else SWEEP_CAP
        checks = check_poset(poset, sweep_cap=cap).checks
        keys = [c.name.rstrip("-0123456789") for c in checks]
        assert [c.statement for c in checks] == [
            represent_module._STATEMENTS[k] for k in keys
        ]
        places = [order.index(k) for k in keys]
        assert places == sorted(places), poset
        reached.update(keys)
    assert reached == set(order)
    assert len(order) == 13


def test_unknown_suite_is_rejected(b4):
    with pytest.raises(ValueError):
        check_poset(b4, suite="everything")


def test_check_report_json_shape(b4):
    data = check_poset(b4).to_json()
    assert set(data) == {"poset", "checks"}
    for c in data["checks"]:
        assert set(c) == {"name", "statement", "pass", "witness"}
        assert c["pass"] is True


def test_sweep_catalog_runs_everything_up_to_three():
    reports = sweep_catalog(3)
    assert len(reports) == 8  # 1 + 2 + 5 classes
    assert all(r.all_passed for r in reports)


def test_sweep_catalog_respects_bound():
    with pytest.raises(BoundExceeded):
        sweep_catalog(7)


def test_parallel_sweep_matches_serial(monkeypatch):
    # two CPUs claimed, so the pool runs on a one-CPU machine too
    monkeypatch.setattr(represent_module.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("BICLOSURE_THREADS", "1")
    serial = sweep_catalog(3)
    monkeypatch.setenv("BICLOSURE_THREADS", "2")
    parallel = sweep_catalog(3)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_sweep_starts_at_most_one_worker_per_cpu_and_poset(monkeypatch):
    pools = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor, so no process is started
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # sweep_catalog imports the module only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("BICLOSURE_THREADS", "5000")
    serial = [r.to_json() for r in sweep_catalog(3)]
    for cpus, max_n, want in (
        (4, 3, [4]),  # 8 posets, 4 CPUs
        (64, 2, [3]),  # 3 posets
        (1, 3, []),  # one CPU: serial
        (None, 3, []),  # CPU count unknown: serial
        (64, 1, []),  # one poset: serial
    ):
        pools.clear()
        monkeypatch.setattr(represent_module.os, "cpu_count", lambda: cpus)
        reports = sweep_catalog(max_n)
        assert pools == want
        assert [r.to_json() for r in reports] == serial[: len(reports)]


def test_worker_count_resolution(monkeypatch):
    monkeypatch.setenv("BICLOSURE_THREADS", "0")
    assert _worker_count() == 1
    monkeypatch.setenv("BICLOSURE_THREADS", "5")
    assert _worker_count() == 5
    monkeypatch.setenv("BICLOSURE_THREADS", "not-a-number")
    assert _worker_count() == 1
    monkeypatch.delenv("BICLOSURE_THREADS")
    assert _worker_count() == 1


def test_every_catalog_class_passes_the_full_battery():
    # the whole n <= 6 catalog, every suite; ~5s, the single slowest test
    reports = sweep_catalog(6)
    assert len(reports) == 405
    failing = [r for r in reports if not r.all_passed]
    assert not failing, [c.to_json() for r in failing for c in r.checks
                         if not c.passed][:3]


# --- one build per object, one checker per law ----------------------------------------


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_check_poset_decides_distributivity_once(monkeypatch):
    # the distributive and boolean suites and is_boolean each ask; the
    # join-prime test behind is_distributive answers once per poset
    loop = Poset.__dict__["_distributive"].func
    calls = []

    def counted(poset):
        calls.append(poset)
        return loop(poset)

    prop = cached_property(counted)
    prop.__set_name__(Poset, "_distributive")
    monkeypatch.setattr(Poset, "_distributive", prop)
    poset = boolean_algebra(3)
    report = check_poset(poset)
    assert report.all_passed
    assert any(c.name == "stone-representation" for c in report.checks)
    assert calls == [poset]


def test_check_poset_scans_orthocomplementations_once(monkeypatch):
    calls = []
    count_calls(monkeypatch, represent_module, "find_orthocomplementations", calls)
    report = check_poset(chain(5))
    assert report.all_passed
    assert any(c.name == "ortho-correspondence" for c in report.checks)
    assert len(calls) == 1


def held_stars(monkeypatch):
    """The dual spaces check_poset builds, in order."""
    stars = []
    original = represent_module.dual_space

    def recorded(*args, **kwargs):
        stars.append(original(*args, **kwargs))
        return stars[-1]

    monkeypatch.setattr(represent_module, "dual_space", recorded)
    return stars


def test_check_poset_builds_the_morphism_dual_once(monkeypatch):
    # filtered once from the held dual space, never through lattice_dual
    calls = []
    for module in (dualspace_module, represent_module):
        count_calls(monkeypatch, module, "_lattice_dual", calls)
    stars = held_stars(monkeypatch)
    report = check_poset(boolean_algebra(3))
    assert report.all_passed
    assert any(c.name == "stone-representation" for c in report.checks)
    assert len(stars) == len(calls) == 1
    assert calls[0][0] is stars[0]


def test_check_poset_builds_the_lattice_ideals_once(monkeypatch):
    calls = []
    for module in (dualspace_module, represent_module):
        count_calls(monkeypatch, module, "_lattice_families", calls)
    stars = held_stars(monkeypatch)
    report = check_poset(boolean_algebra(3))
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert {"lattice-ideals-coincide", "stone-representation"} <= names
    assert len(stars) == len(calls) == 1
    assert calls[0][0] is stars[0]


def test_lattice_ideals_and_filters_match_naive_oracles(catalog4, catalog5, catalog6):
    lattices = [p for p in catalog4 + catalog5 + catalog6 if p.is_lattice()]
    assert len(lattices) == 25
    # n = 16, the largest size the lattice-ideal checks admit
    for p in lattices + [boolean_algebra(4)]:
        ideals, filters = _lattice_families(dual_space(p))
        assert {frozenset(bits(d)) for d in filters} == oracles.brute_lattice_filters(p)
        assert {frozenset(bits(d)) for d in ideals} == oracles.brute_lattice_ideals(p)


def test_check_poset_enumerates_the_up_sets_once(upset_calls, m3, m4):
    # the morphism dual and the lattice ideal and filter families are
    # filtered from the one dual space; the boolean suite on a lattice
    # that is not distributive is the one that reads no up-set
    posets = (boolean_algebra(3), boolean_algebra(4), m3, m4, chain(5))
    for poset in posets:
        cap = 18 if poset is m4 else SWEEP_CAP
        for suite in SUITES:
            upset_calls.clear()
            assert check_poset(poset, suite=suite, sweep_cap=cap).all_passed
            reads_none = suite == "boolean" and not poset.is_distributive()
            assert upset_calls == ([] if reads_none else [poset.up]), (poset, suite)


def test_check_poset_builds_one_meet_and_one_join_table(monkeypatch):
    # both tables are read off the order's own rows; no opposite is built
    opposites, tables = [], []
    count_calls(monkeypatch, Poset, "opposite", opposites)
    count_calls(monkeypatch, poset_module, "_bound_table", tables)
    poset = boolean_algebra(3)
    assert check_poset(poset).all_passed
    assert opposites == []
    assert sorted(tables) == sorted([(poset.down,), (poset.up,)])


def test_builder_families_are_clopen_families(b4, m4):
    for p in (b4, m4):
        for f in find_orthocomplementations(p):
            space, _ = represent_orthoposet(p, f)
            assert space.clopen == clopen_sets(space.closure)
    for k in (1, 2, 3):
        space = stone(boolean_algebra(k))
        assert space.clopen == clopen_sets(space.closure)


def test_failed_topology_is_named_by_builders_and_checks(monkeypatch):
    monkeypatch.setattr(ClosureOperator, "is_topological", lambda self: False)
    with pytest.raises(RuntimeError, match="topological"):
        represent_distributive(chain(3))
    with pytest.raises(RuntimeError, match="topological"):
        stone(boolean_algebra(2))
    report = check_poset(chain(3), suite="distributive")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["distributive-representation"]
    assert failed[0].witness["flags"]["topological"] == [False, False]


def test_failed_exactness_is_named_by_stone_and_checks(monkeypatch):
    monkeypatch.setattr(ClosureOperator, "is_exact", lambda self: False)
    with pytest.raises(RuntimeError, match="exact"):
        stone(boolean_algebra(2))
    report = check_poset(boolean_algebra(2), suite="boolean")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["stone-representation"]
    laws = failed[0].witness["laws"]
    assert laws == {
        "closures_coincide": True,
        "exact": False,
        "topological": True,
        "isomorphism": True,
    }


def test_failed_cones_are_named_by_builders_and_checks(monkeypatch, b4):
    monkeypatch.setattr(
        represent_module, "generated_filter", lambda *args: Hull(0, True)
    )
    f = find_orthocomplementations(b4)[0]
    with pytest.raises(RuntimeError, match="cones"):
        represent_orthoposet(b4, f)
    report = check_poset(b4, suite="ortho")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["ortho-representation-0"]
    assert failed[0].witness == {
        "closures_coincide": True,
        "isomorphism": True,
        "complement_as_set_complement": True,
        "cones": False,
    }


def test_sweep_catalog_rejects_the_bound_before_enumerating(monkeypatch):
    calls = []
    count_calls(monkeypatch, represent_module, "enumerate_posets", calls)
    with pytest.raises(BoundExceeded):
        sweep_catalog(7)
    assert calls == []


def test_sweep_catalog_rejects_an_unknown_suite_before_enumerating(monkeypatch):
    calls = []
    count_calls(monkeypatch, represent_module, "enumerate_posets", calls)
    for max_n in (3, 0):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            sweep_catalog(max_n, suite="bogus")
    assert calls == []


def test_separation_builds_one_closure_pair(monkeypatch, m4):
    calls = []
    for module in (dualspace_module, represent_module):
        count_calls(monkeypatch, module, "induced_closures", calls)
    star = dual_space(m4)
    sub = star.restrict(4366)  # five points, not separating
    assert is_separating(star) == (True, None)
    assert not is_separating(sub)[0]
    assert [args[0] for args in calls] == [star, sub]
    # the report and the induced complementation hand their own pair on
    orthodual = orthodual_space(m4, find_orthocomplementations(m4)[0])
    for space in (star, sub, orthodual):
        calls.clear()
        representation_report(m4, space)
        assert [args[0] for args in calls] == [space]
    calls.clear()
    induced_orthocomplementation(orthodual)
    assert [args[0] for args in calls] == [orthodual]


def count_readings(monkeypatch):
    """The closure pairs built and the closures whose concepts were
    built, as two lists."""
    closures, pairs = [], []
    for module in (dualspace_module, represent_module):
        count_calls(monkeypatch, module, "induced_closures", closures)
    build = ClosureOperator.__dict__["_concepts"].func

    def counted(closure):
        pairs.append(closure)
        return build(closure)

    prop = cached_property(counted)
    prop.__set_name__(ClosureOperator, "_concepts")
    monkeypatch.setattr(ClosureOperator, "_concepts", prop)
    return closures, pairs


def test_checks_and_builders_read_their_reports_closure_pairs(monkeypatch):
    # five reports, one pair each, and the closure-equation check's own;
    # the ideal checks read their report's cuts, the builders its c1
    closures, pairs = count_readings(monkeypatch)
    b8 = boolean_algebra(3)
    report = check_poset(b8)
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert {"ideals-are-downsets", "lattice-ideals-coincide"} <= names
    assert (len(closures), len(pairs)) == (6, 10)
    f = find_orthocomplementations(b8)[0]
    for build in (lambda: stone(b8), lambda: represent_orthoposet(b8, f)):
        closures.clear()
        pairs.clear()
        build()
        assert (len(closures), len(pairs)) == (1, 2)


def test_catalog_builds_one_closure_pair_per_reading(monkeypatch):
    monkeypatch.delenv("BICLOSURE_THREADS", raising=False)
    closures, pairs = count_readings(monkeypatch)
    assert all(r.all_passed for r in sweep_catalog(6))
    assert (len(closures), len(pairs)) == (889, 968)


def test_report_cuts_are_the_ideal_and_filter_families(catalog4, catalog5):
    # the cuts the checks read, against the families built on their own,
    # over each full dual space, its constant-free part and morphism dual
    for p in catalog4 + catalog5:
        star = dual_space(p)
        spaces = [star]
        if p.is_bounded():
            spaces.append(remove_constants(star))
        if p.is_lattice():
            spaces.append(lattice_dual(p))
        for space in spaces:
            report, closures = represent_module._read(p, space)
            assert report == representation_report(p, space)
            assert closures == induced_closures(space)
            ideals, filters = closures[1]._concepts, closures[0]._concepts
            assert tuple(i for i, _ in ideals) == ideals_wrt(space).members
            assert tuple(f for f, _ in filters) == filters_wrt(space).members


def test_corrupted_ideal_cuts_fail_both_ideal_checks(monkeypatch):
    # clearing bit 0 of every A-ideal cut must show in each check that
    # compares the A-ideals, and leave the filter half passing
    original = represent_module.induced_closures

    def corrupted(subspace):
        c1, c2 = original(subspace)
        c2._concepts = [(cut & ~1, x) for cut, x in c2._concepts]
        return c1, c2

    for module in (dualspace_module, represent_module):
        monkeypatch.setattr(module, "induced_closures", corrupted)
    checks = {c.name: c for c in check_poset(boolean_algebra(3)).checks}
    downsets = checks["ideals-are-downsets"]
    assert not downsets.passed
    assert downsets.witness == {"ideals": False, "filters": True}
    assert not checks["lattice-ideals-coincide"].passed


def test_unseparated_trimmed_dual_fails_constant_removal(monkeypatch, b4):
    # a _separates that fails only on a subspace holding neither constant
    # reaches the trimmed dual alone: constant-removal must fail with the
    # trimmed dual's witnesses, and every other general check pass
    original = represent_module._separates

    def planted(subspace, closures):
        got = original(subspace, closures)
        if {0, subspace.poset.full}.isdisjoint(subspace.points):
            return False, (closures[1]._concepts[0][0], closures[0]._concepts[0][0])
        return got

    monkeypatch.setattr(represent_module, "_separates", planted)
    checks = {c.name: c for c in check_poset(b4, suite="general").checks}
    removal = checks.pop("constant-removal")
    assert not removal.passed
    trimmed = remove_constants(dual_space(b4))
    assert removal.witness == representation_report(b4, trimmed).witnesses
    assert "separating" in removal.witness
    assert all(c.passed for c in checks.values())


def test_full_separating_m3_morphism_dual_fails_the_distributive_check(monkeypatch, m3):
    # M3 is not distributive, so an is_full and a _separates that report
    # its morphism dual full and separating break the equivalence
    morph = lattice_dual(m3)
    full, separates = represent_module.is_full, represent_module._separates

    def planted_full(subspace):
        return (True, None) if subspace == morph else full(subspace)

    def planted_separates(subspace, closures):
        got = separates(subspace, closures)
        return (True, None) if subspace == morph else got

    monkeypatch.setattr(represent_module, "is_full", planted_full)
    monkeypatch.setattr(represent_module, "_separates", planted_separates)
    checks = {c.name: c for c in check_poset(m3, suite="distributive").checks}
    check = checks["distributive-iff-full-separating"]
    assert not check.passed
    assert check.witness == {"distributive": False, "full_separating": True}


def test_orthodual_of_another_map_fails_set_complementation(monkeypatch, m4):
    # the orthodual of the next map is full and separating, with one
    # closure and the order cones, but f is not its set complement
    orthos = find_orthocomplementations(m4)
    original = dualspace_module._orthodual

    def planted(star, f):
        return original(star, orthos[(orthos.index(f) + 1) % len(orthos)])

    monkeypatch.setattr(dualspace_module, "_orthodual", planted)
    monkeypatch.setattr(represent_module, "_orthodual", planted)
    with pytest.raises(RuntimeError, match="complement_as_set_complement"):
        represent_orthoposet(m4, orthos[0])
    checks = check_poset(m4, suite="ortho").checks
    assert [c.name for c in checks] == [f"ortho-representation-{k}" for k in range(3)]
    for c in checks:
        assert not c.passed
        assert c.witness == {
            "closures_coincide": True,
            "isomorphism": True,
            "complement_as_set_complement": False,
            "cones": True,
        }


def test_false_full_or_separating_verdicts_make_reports_inconsistent(monkeypatch):
    # a, b below d, c apart: the points {c}, {d}, {a,c,d}, {b,c,d} are not
    # separating, and their closed-open family has a set other than the
    # empty one and the whole that is no point image
    p = build_poset("abcd", [("a", "d"), ("b", "d")])
    unseparated = Subspace(p, [0b0100, 0b1000, 0b1101, 0b1110])
    # one point vanishing on both elements of a 2-chain: not injective
    c2 = chain(2)
    collapsed = Subspace(c2, [0])
    for poset, space in ((p, unseparated), (c2, collapsed)):
        report = representation_report(poset, space)
        assert report.consistent and not (report.separating and report.full)
    report = representation_report(p, unseparated)
    images = {0, unseparated.all_mask, *report.sigma_table}
    assert any(x not in images for x in report.family)
    separates, full = represent_module._separates, represent_module.is_full
    monkeypatch.setattr(represent_module, "_separates", lambda *a: (True, None))
    report = representation_report(p, unseparated)
    assert report.separating and not report.consistent
    assert report.to_json()["flags"]["consistent"] is False
    monkeypatch.setattr(represent_module, "_separates", separates)
    monkeypatch.setattr(represent_module, "is_full", lambda space: (True, None))
    report = representation_report(c2, collapsed)
    assert report.full and not report.injective and not report.consistent


def test_non_maximal_kernels_fail_the_stone_check(monkeypatch, b8):
    # the lattice-ideal family read by the Stone check gains a proper set
    # above every kernel, or loses one kernel
    original = _lattice_families
    kernel = b8.full ^ stone(b8).subspace.points[0]
    plants = (
        lambda ideals: ideals.members + (b8.full ^ 1 << b8.top,),
        lambda ideals: [d for d in ideals if d != kernel],
    )
    for plant in plants:

        def planted(star, plant=plant):
            ideals, filters = original(star)
            return SubsetFamily(ideals.m, plant(ideals)), filters

        monkeypatch.setattr(represent_module, "_lattice_families", planted)
        checks = {c.name: c for c in check_poset(b8, suite="boolean").checks}
        assert checks["boolean-iff-coincident-closures"].passed
        check = checks["stone-representation"]
        assert not check.passed
        assert check.witness == {
            "points": 3,
            "atoms": 3,
            "clopen": 8,
            "kernels_maximal_ideals": False,
        }


def test_unseparated_full_dual_fails_dual_full_separating(monkeypatch, vee):
    star = dual_space(vee)
    original = represent_module._separates

    def planted(subspace, closures):
        got = original(subspace, closures)
        if subspace == star:
            return False, (closures[1]._concepts[0][0], closures[0]._concepts[0][0])
        return got

    monkeypatch.setattr(represent_module, "_separates", planted)
    checks = check_poset(vee, suite="general").checks
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == ["dual-full-separating"]
    _, (c1, c2) = represent_module._read(vee, star)
    ideals, filters = c2._concepts, c1._concepts
    assert failed[0].witness == {
        "separating": [
            represent_module._subset_labels(vee, ideals[0][0]),
            represent_module._subset_labels(vee, filters[0][0]),
        ]
    }


def test_separating_dual_called_not_full_fails_cone_fullness(monkeypatch, vee):
    # the full dual is separating with disjoint cones over every
    # non-relation, so a false non-fullness breaks the implication
    monkeypatch.setattr(represent_module, "is_full", lambda space: (False, (1, 2)))
    checks = {c.name: c for c in check_poset(vee, suite="general").checks}
    check = checks["separating-cone-fullness"]
    assert not check.passed
    assert check.witness == {"separating": True, "cones_disjoint": True, "full": False}
    assert not checks["dual-full-separating"].passed


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(small_catalog + enumerate_posets(5)), st.data())
def test_disjoint_cones_force_fullness(p, data):
    # were a <= b false with no point holding a but not b, b would lie in
    # the ideal generated by b and the filter generated by a: so the cone
    # hypothesis alone gives fullness, and separating-cone-fullness passes
    # whatever the separating flag reads
    star = dual_space(p)
    sub = star.restrict(data.draw(st.integers(0, star.all_mask)))
    n = range(p.n)
    downs = [generated_ideal(sub, 1 << a).subset for a in n]
    ups = [generated_filter(sub, 1 << a).subset for a in n]
    if not any(downs[a] & ups[b] for a in n for b in n if not p.leq(b, a)):
        one_sets = [set(bits(s)) for s in sub.points]
        assert oracles.brute_is_full(one_sets, p.n, oracles.leq_fn(p))
        assert is_full(sub)[0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(small_catalog), st.data())
def test_fullness_witnesses_walk_the_non_relations_in_pair_order(p, data):
    star = dual_space(p)
    sub = star.restrict(data.draw(st.integers(0, star.all_mask)))
    assert list(_fullness_witnesses(sub)) == [
        (a, b, sub.up_image(a) & ~sub.up_image(b))
        for a in range(p.n)
        for b in range(p.n)
        if not p.leq(a, b)
    ]


def test_wrong_coincidence_fails_the_boolean_equivalence(monkeypatch, b4):
    # chain(3) is distributive and not Boolean, b4 Boolean: give the first
    # constant-free morphism dual coinciding closures, the second two
    # different ones
    original = represent_module.induced_closures
    for poset, boolean in ((chain(3), False), (b4, True)):
        trimmed = remove_constants(lattice_dual(poset))
        assert check_poset(poset, suite="boolean").all_passed

        def planted(space, trimmed=trimmed):
            c1, c2 = original(space)
            if space != trimmed:
                return c1, c2
            return (c1, c1) if c1 != c2 else (c1, ClosureOperator(c1.m, []))

        monkeypatch.setattr(represent_module, "induced_closures", planted)
        checks = {c.name: c for c in check_poset(poset, suite="boolean").checks}
        check = checks["boolean-iff-coincident-closures"]
        assert not check.passed
        assert check.witness == {"boolean": boolean, "closures_coincide": not boolean}
        monkeypatch.setattr(represent_module, "induced_closures", original)


def test_selfdual_sweep_separates_through_is_separating(monkeypatch, m4):
    calls = []
    count_calls(monkeypatch, represent_module, "is_separating", calls)
    found = selfdual_subspaces(m4, cap=18)
    assert len(calls) == 3
    assert [args[0] for args in calls] == found


def test_correspondence_fails_on_a_wrong_orthocomplementation_list(m4):
    def correspondence(orthos):
        duals = [orthodual_space(m4, f) for f in orthos]
        return _correspondence(dual_space(m4), orthos, duals, 18)

    orthos = find_orthocomplementations(m4)
    assert correspondence(orthos)[0]
    for wrong in (
        orthos[1:],  # one dropped
        orthos + orthos[:1],  # one duplicated
        orthos[:1] + orthos[:-1],  # one dropped, another duplicated
    ):
        ok, report = correspondence(wrong)
        assert not ok and report["matched"] is False
        assert report["maximal_subspaces"] == 3


def test_check_poset_builds_one_dual_space(monkeypatch, m4):
    # the correspondence sweeps the dual space check_poset already holds
    calls = []
    count_calls(monkeypatch, represent_module, "dual_space", calls)
    report = check_poset(m4, sweep_cap=18)
    assert any(c.name == "ortho-correspondence" for c in report.checks)
    assert len(calls) == 1


def test_checks_that_read_no_dual_space_build_none(monkeypatch, upset_calls):
    calls = []
    count_calls(monkeypatch, represent_module, "dual_space", calls)
    # the ortho suite sweeps the dual space of a bounded poset only, and
    # the lattice suites read it on lattices only
    for suite in ("ortho", "distributive", "boolean"):
        assert check_poset(antichain(3), suite=suite).checks == ()
    assert calls == []
    assert upset_calls == []


def test_each_orthodual_is_built_once(monkeypatch, m4):
    # one orthodual per orthocomplementation, shared by its
    # ortho-representation check and the correspondence
    monkeypatch.delenv("BICLOSURE_THREADS", raising=False)
    calls = []
    count_calls(monkeypatch, represent_module, "_orthodual", calls)
    report = check_poset(m4, sweep_cap=18)
    assert report.all_passed
    assert any(c.name == "ortho-correspondence" for c in report.checks)
    assert len(calls) == 3
    calls.clear()
    sweep_catalog(6)
    assert len(calls) == 7


def test_ortho_suite_enumerates_the_up_sets_once(monkeypatch, m4):
    # each orthodual is filtered from the dual space check_poset holds;
    # built through the public orthodual_space, the report is the same
    calls = []
    count_calls(monkeypatch, dualspace_module, "_upsets", calls)
    fast = check_poset(m4, suite="ortho", sweep_cap=18)
    assert [args[0] for args in calls] == [m4.up]
    monkeypatch.setattr(
        represent_module, "_orthodual", lambda star, f: orthodual_space(m4, f)
    )
    calls.clear()
    slow = check_poset(m4, suite="ortho", sweep_cap=18)
    assert len(calls) == 1 + len(find_orthocomplementations(m4))
    assert json.dumps(fast.to_json()) == json.dumps(slow.to_json())
    assert fast.all_passed
