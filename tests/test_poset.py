import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclosure import (
    BoundExceeded,
    CycleError,
    InvalidOrthoMap,
    MemberOutOfRange,
    OrthoMap,
    Poset,
    SubsetFamily,
    UnknownLabel,
    antichain,
    are_isomorphic,
    boolean_algebra,
    build_poset,
    chain,
    enumerate_posets,
    find_orthocomplementations,
    poset_from_json,
    poset_of_family,
    poset_to_dot,
    poset_to_json,
)
from biclosure import poset as poset_module
from biclosure.bitops import bits, mask_of
from biclosure.poset import _canonical, _natural_posets, _transpose, _upsets

import oracles

small_catalog = [p for n in range(1, 5) for p in enumerate_posets(n)]
catalog_strategy = st.sampled_from(small_catalog)
catalog_upto6 = small_catalog + enumerate_posets(5) + enumerate_posets(6)


# --- construction and validation -------------------------------------------------------


def test_build_takes_generating_pairs_only():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq_labels("a", "c")
    assert not p.leq_labels("c", "a")


def test_build_rejects_unknown_labels():
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "b")])


def test_build_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        build_poset(["a", "a"], [])


def test_build_rejects_cycles():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_direct_constructor_demands_transitivity():
    # a<=b and b<=c asserted without a<=c
    with pytest.raises(ValueError):
        Poset(["a", "b", "c"], [0b011, 0b110, 0b100])


def test_direct_constructor_demands_antisymmetry():
    with pytest.raises(ValueError):
        Poset(["a", "b"], [0b11, 0b11])


@given(catalog_strategy)
def test_order_axioms_hold_on_catalog(p):
    for i in range(p.n):
        assert p.leq(i, i)
        for j in range(p.n):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(p.n):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


# --- meets, joins, lattice predicates --------------------------------------------------


@given(catalog_strategy)
def test_meet_join_match_naive_search(p):
    leq = oracles.leq_fn(p)
    for a in range(p.n):
        for b in range(p.n):
            assert p.meet(a, b) == oracles.naive_meet(p.n, leq, a, b)
            assert p.join(a, b) == oracles.naive_join(p.n, leq, a, b)


def test_long_chain_meets_and_joins_are_min_and_max():
    p = chain(500)
    assert p.is_lattice()
    for a in range(p.n):
        assert [p.meet(a, b) for b in range(p.n)] == [min(a, b) for b in range(p.n)]
        assert [p.join(a, b) for b in range(p.n)] == [max(a, b) for b in range(p.n)]


def test_lattice_predicates_on_known_shapes(b4, b8, m3, m4, n5, four_chain, vee, pair):
    assert b4.is_lattice() and b4.is_distributive() and b4.is_boolean()
    assert b8.is_boolean()
    assert m3.is_lattice() and not m3.is_distributive()
    assert n5.is_lattice() and not n5.is_distributive()
    assert m4.is_lattice() and not m4.is_distributive()
    assert four_chain.is_distributive() and not four_chain.is_boolean()
    assert not vee.is_lattice()
    assert not pair.is_lattice()


def test_empty_poset_is_not_a_lattice():
    empty = Poset([], [])
    assert not empty.is_lattice()
    assert not empty.is_distributive() and not empty.is_boolean()


@given(catalog_strategy)
def test_distributivity_matches_oracle(p):
    assert p.is_distributive() == oracles.brute_is_distributive(p)


def test_complement_table_matches_naive_meets_and_joins(
    catalog4, catalog5, catalog6, m4
):
    posets = catalog4 + catalog5 + catalog6
    posets += [boolean_algebra(3), boolean_algebra(4), m4]
    bounded = 0
    for p in posets:
        want = oracles.brute_complements(p)
        assert p.is_bounded() == (want is not None)
        if want is not None:
            bounded += 1
            assert [set(bits(mask)) for mask in p._complements] == want
    # for n >= 2, the bounded n-element classes are the (n - 2)-element
    # classes with a bottom and a top added
    assert bounded == 1 + 1 + 1 + 2 + 5 + 16 + 3


def test_boolean_means_distributive_and_complemented(catalog4, catalog5, catalog6):
    lattices = [p for p in catalog4 + catalog5 + catalog6 if p.is_lattice()]
    assert len(lattices) == 25
    for p in lattices + [boolean_algebra(3)]:
        want = oracles.brute_is_distributive(p) and all(oracles.brute_complements(p))
        assert p.is_boolean() == want
    assert sum(p.is_boolean() for p in lattices) == 3


def test_bounds_detection(b4, vee, pair, singleton):
    assert b4.is_bounded()
    assert singleton.is_bounded()
    assert not vee.is_bounded()  # no top
    assert not pair.is_bounded()


def test_covers_have_nothing_between(b8):
    for p in [b8, chain(5), antichain(4)] + catalog_upto6:
        for i in range(p.n):
            for j in range(p.n):
                covered = bool(p.covers[i] >> j & 1)
                strictly_below = p.leq(i, j) and i != j
                between = any(
                    p.leq(i, z) and p.leq(z, j) and z not in (i, j)
                    for z in range(p.n)
                )
                assert covered == (strictly_below and not between)


# --- catalogs ---------------------------------------------------------------------------


def test_class_counts_up_to_five():
    assert [len(enumerate_posets(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]


def test_natural_labelings_are_counted_by_a006455():
    counts = [len(_natural_posets(n)) for n in range(7)]
    assert counts == [1, 1, 2, 7, 40, 357, 4824]


def test_enumeration_builds_one_poset_per_class(monkeypatch):
    # candidates are told apart by their canonical keys, memoized through
    # the generation tree; only a labelling opening a class becomes a Poset
    built, keyed = [], []
    init, canonical = Poset.__init__, poset_module._canonical

    def counted_init(self, labels, up):
        built.append(up)
        init(self, labels, up)

    def counted_canonical(up):
        keyed.append(up)
        return canonical(up)

    monkeypatch.setattr(Poset, "__init__", counted_init)
    monkeypatch.setattr(poset_module, "_canonical", counted_canonical)
    assert len(enumerate_posets(5)) == 63
    assert len(built) == 63
    assert 0 < len(keyed) < len(_natural_posets(5)) == 357


def _relabelled(up, pos):
    """The up-rows after moving each element i to place pos[i]."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        out[pos[i]] = mask_of(pos[j] for j in bits(row))
    return tuple(out)


def test_canonical_keys_agree_with_the_oracle():
    # over every natural labelling up to n = 5, two labellings get equal
    # keys exactly when their brute-force canonical relations are equal
    for n in range(1, 6):
        pairs = set()
        for up, _ in _natural_posets(n):
            key, pos = _canonical(up)
            assert _relabelled(up, pos) == key
            form = oracles.canonical_relation(n, lambda i, j: bool(up[i] >> j & 1))
            pairs.add((key, form))
        keys = {key for key, _ in pairs}
        forms = {form for _, form in pairs}
        assert len(keys) == len(forms) == len(pairs)


@given(st.sampled_from(catalog_upto6), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_relabelled_class_gets_the_class_key(p, rng):
    pos = list(range(p.n))
    rng.shuffle(pos)
    key, _ = _canonical(p.up)
    moved_key, moved_pos = _canonical(_relabelled(p.up, pos))
    assert moved_key == key
    assert _relabelled(_relabelled(p.up, pos), moved_pos) == key


def test_seven_element_representatives_are_pinned():
    # canonical keys keep the first labelling of each class in
    # _natural_posets order, as the pairwise isomorphism search did
    classes = enumerate_posets(7, max_n=7)
    assert len(classes) == 2045  # OEIS A000112
    blob = json.dumps([poset_to_json(p) for p in classes]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "0a0f657128b8ac4cd454b5a8b1b3811e4471e3e5674b12bcecdad8bf0a770708"
    )


def test_six_element_representatives_are_pinned(catalog6):
    # representatives and their order depend on the down-set enumeration
    # order inside _natural_posets; the digest fixes both
    blob = json.dumps([poset_to_json(p) for p in catalog6]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "8c8e3570aac63598c7a674fb5a7e9d80d77a15c2caabada9f7d0ddacf74c76e9"
    )


def test_one_enumerator_gives_up_sets_and_down_sets(catalog4, catalog5):
    for p in catalog4 + catalog5:
        leq = oracles.leq_fn(p)
        for rows, order in ((p.up, leq), (p.down, lambda a, b: leq(b, a))):
            sets = _upsets(rows, 1 << p.n)
            assert len(sets) == len(set(sets))
            assert {frozenset(bits(s)) for s in sets} == oracles.brute_upsets(
                p.n, order
            )


def test_catalog_has_no_duplicate_classes():
    for n in range(1, 6):
        classes = enumerate_posets(n)
        forms = {oracles.canonical_relation(n, oracles.leq_fn(p)) for p in classes}
        assert len(forms) == len(classes)


def test_catalog_labeled_copies_sum_to_known_total():
    # 219 partial orders on a 4-set, counted two unrelated ways
    assert oracles.count_labeled_posets(4) == 219
    assert sum(oracles.count_labelings(p) for p in enumerate_posets(4)) == 219


def test_catalog_bound_is_enforced():
    with pytest.raises(BoundExceeded):
        enumerate_posets(7)
    with pytest.raises(BoundExceeded):
        enumerate_posets(4, max_n=3)
    # raising the bound is allowed, the default is just a guard
    assert len(enumerate_posets(4, max_n=4)) == 16


def test_negative_catalog_size_is_rejected_up_front():
    with pytest.raises(ValueError, match="n=-1"):
        enumerate_posets(-1)


@pytest.mark.parametrize("build", [chain, antichain, boolean_algebra])
def test_negative_constructor_size_is_rejected_up_front(build):
    # a negative size named in the message, not an empty poset or a
    # negative shift count
    message = rf"{build.__name__}\(-3\): a size cannot be negative"
    with pytest.raises(ValueError, match=message):
        build(-3)


# --- isomorphism ------------------------------------------------------------------------


@given(catalog_strategy, st.randoms(use_true_random=False))
def test_relabelings_are_isomorphic(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    labels = [f"x{k}" for k in range(p.n)]
    up = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if p.leq(i, j):
                up[perm[i]] |= 1 << perm[j]
    q = Poset([labels[i] for i in range(p.n)], up)
    ok, mapping = are_isomorphic(p, q)
    assert ok
    # the returned mapping must itself be an isomorphism
    for i in range(p.n):
        for j in range(p.n):
            assert p.leq(i, j) == q.leq(mapping[i], mapping[j])


def test_distinct_classes_are_not_isomorphic():
    classes = enumerate_posets(4)
    for a, b in itertools.combinations(classes, 2):
        assert not are_isomorphic(a, b)[0]


def test_size_mismatch_is_not_isomorphic(b4, m3):
    assert not are_isomorphic(b4, m3)[0]


def _crowns(*sizes):
    """Disjoint crowns, one per size k, each with minimal elements a0..a{k-1}
    and maximal b0..b{k-1}, where ai lies below bi and b{i+1 mod k}."""
    labels, pairs = [], []
    for c, k in enumerate(sizes):
        labels += [f"a{c}.{i}" for i in range(k)] + [f"b{c}.{i}" for i in range(k)]
        pairs += [(f"a{c}.{i}", f"b{c}.{j % k}") for i in range(k) for j in (i, i + 1)]
    return build_poset(labels, pairs)


def _bundle(k):
    """M_k: k pairwise incomparable atoms between a bottom and a top."""
    atoms = [f"a{i}" for i in range(k)]
    return build_poset(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def _shuffled(p, seed):
    """A copy of p with its elements moved to seeded random places."""
    pos = list(range(p.n))
    random.Random(seed).shuffle(pos)
    return Poset([f"x{k}" for k in range(p.n)], _relabelled(p.up, pos))


def _counted_search(monkeypatch, pairs):
    """are_isomorphic on each pair, with the number of search nodes
    (refinement calls) its two canonical searches took."""
    nodes = []
    stable = poset_module._stable_colours

    def counted(*args):
        nodes[-1] += 1
        return stable(*args)

    monkeypatch.setattr(poset_module, "_stable_colours", counted)
    out = []
    for p, q in pairs:
        nodes.append(0)
        out.append(are_isomorphic(p, q))
    monkeypatch.undo()
    return out, nodes


def test_crowns_that_refinement_cannot_tell_apart_are_not_isomorphic(monkeypatch):
    # a 2k-element crown and two k-element crowns: every minimal element
    # has two upper covers and every maximal one two lower covers, so
    # refinement stops at two cells and only the search separates them
    # (the cell-order product and the backtracking used to stall here)
    pairs = [(_crowns(10), _crowns(5, 5)), (_crowns(16), _crowns(8, 8))]
    answers, nodes = _counted_search(monkeypatch, pairs + [(q, p) for p, q in pairs])
    assert answers == [(False, None)] * 4
    for (p, q), count in zip(pairs, nodes):
        assert count < 2 * p.n
        for r in (p, q):
            key, pos = _canonical(r.up)
            assert _relabelled(r.up, pos) == key


def test_symmetric_posets_get_an_isomorphism_witness(monkeypatch):
    # antichain(16) and M14 have 16! and 14! automorphisms; the search
    # prunes by the ones it finds instead of trying every order
    pairs = [(p, _shuffled(p, seed)) for p in (antichain(16), _bundle(14)) for seed in (1, 2)]
    answers, nodes = _counted_search(monkeypatch, pairs)
    for (p, q), (ok, mapping), count in zip(pairs, answers, nodes):
        assert ok
        assert sorted(mapping) == list(range(p.n))
        for i in range(p.n):
            for j in range(p.n):
                assert p.leq(i, j) == q.leq(mapping[i], mapping[j])
        assert count < 2 * p.n * p.n
        for r in (p, q):
            key, pos = _canonical(r.up)
            assert _relabelled(r.up, pos) == key


@pytest.mark.parametrize("sizes", [(3, 3, 6), (4, 4, 4, 6), (10, 5, 5)])
def test_crowns_of_mixed_sizes_keep_their_key_when_shuffled(sizes):
    # refinement cannot tell the components apart, and only some of them
    # are swapped by automorphisms, so the least leaf can lie in a branch
    # explored after the first automorphism is found
    p = _crowns(*sizes)
    key, _ = _canonical(p.up)
    for seed in range(5):
        q = _shuffled(p, seed)
        assert _canonical(q.up)[0] == key
        assert are_isomorphic(p, q)[0]


# --- orthocomplementations ---------------------------------------------------------------


def test_ortho_counts_on_known_posets(b4, four_chain, m4):
    assert len(find_orthocomplementations(b4)) == 1
    assert len(find_orthocomplementations(four_chain)) == 0
    assert len(find_orthocomplementations(m4)) == 3


def test_ortho_enumeration_matches_oracle(catalog4):
    for p in catalog4:
        got = {f.perm for f in find_orthocomplementations(p)}
        want = {tuple(perm) for perm in oracles.brute_orthocomplementations(p)}
        assert got == want


def test_unbounded_poset_has_no_orthocomplementation(vee):
    assert find_orthocomplementations(vee) == []


def test_orthomap_rejects_non_involution(b4):
    with pytest.raises(InvalidOrthoMap):
        OrthoMap(b4, (1, 2, 3, 0))


def test_orthomap_rechecks_the_complements_the_search_reads(b4):
    # the search takes its candidates from the complement table, and
    # OrthoMap tests meets and joins itself: give each atom itself as a
    # complement and the search's output must be refused
    table = list(b4._complements)
    for atom in bits(b4.covers[b4.bottom]):
        table[atom] |= 1 << atom
    b4.__dict__["_complements"] = tuple(table)
    with pytest.raises(InvalidOrthoMap, match="complement laws fail"):
        find_orthocomplementations(b4)


def test_orthomap_rejects_identity_on_b4(b4):
    # fails the complement laws: meet(a, a) is a, not bottom
    with pytest.raises(InvalidOrthoMap):
        OrthoMap(b4, (0, 1, 2, 3))


def test_orthomap_json_uses_labels(b4):
    f = find_orthocomplementations(b4)[0]
    data = f.to_json()
    assert set(data) == set(b4.labels)
    assert data[data["{}"]] == "{}"


# --- families and serialization ------------------------------------------------------------


def test_subset_family_sorts_and_dedups():
    fam = SubsetFamily(3, [0b101, 0b001, 0b101])
    assert fam.members == (0b001, 0b101)


def test_subset_family_rejects_stray_bits():
    with pytest.raises(MemberOutOfRange):
        SubsetFamily(2, [0b100])


def test_family_poset_orders_by_inclusion():
    fam = SubsetFamily(3, [0b000, 0b001, 0b011, 0b111])
    p = poset_of_family(fam)
    assert p.n == 4
    assert p.leq_labels("{}", "{0,1,2}")
    assert not p.leq_labels("{0,1}", "{0}")


@given(catalog_strategy)
def test_json_round_trip_preserves_order(p):
    q = poset_from_json(poset_to_json(p))
    assert q.labels == p.labels
    assert q.up == p.up


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        poset_from_json({"le": []})
    with pytest.raises(ValueError):
        poset_from_json({"elements": [1, 2]})
    with pytest.raises(ValueError):
        poset_from_json({"elements": ["a"], "le": [["a"]]})


def test_json_output_is_stable(b4):
    a = json.dumps(poset_to_json(b4), sort_keys=True)
    b = json.dumps(poset_to_json(boolean_algebra(2)), sort_keys=True)
    assert a == b


def test_dot_output_escapes_quotes():
    p = build_poset(['say "hi"'], [])
    dot = poset_to_dot(p)
    assert '\\"hi\\"' in dot
    assert dot.startswith("digraph")


def test_dot_lists_cover_edges_only(four_chain):
    dot = poset_to_dot(four_chain)
    assert dot.count("->") == 3


# --- convenience constructors ----------------------------------------------------------------


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=8))
def test_chain_is_total(k):
    p = chain(k)
    assert all(p.leq(i, j) for i in range(k) for j in range(i, k))


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=8))
def test_antichain_relates_nothing(k):
    p = antichain(k)
    assert all(p.leq(i, j) == (i == j) for i in range(k) for j in range(k))


def test_boolean_algebra_element_count():
    assert [boolean_algebra(k).n for k in range(4)] == [1, 2, 4, 8]


# --- order duality ------------------------------------------------------------------


@given(
    st.integers(0, 70),
    st.lists(st.integers(0, (1 << 80) - 1), max_size=40),
    st.booleans(),
)
def test_transpose_matches_the_bit_loop(width, rows, as_tuple):
    # rows wider than width too: their bits at or above it are not read
    rows = tuple(rows) if as_tuple else rows
    assert _transpose(rows, width) == oracles.bit_transpose(rows, width)


def test_transpose_of_no_rows_is_zero_columns():
    for rows in ((), []):
        assert _transpose(rows, 0) == ()
        assert _transpose(rows, 11) == (0,) * 11


def test_opposite_swaps_up_and_down(catalog4, catalog5):
    for p in catalog4 + catalog5:
        op = p.opposite()
        assert op.labels == p.labels
        assert op.up == p.down
        assert op.down == p.up
        assert op.opposite() == p
        assert op.bottom == p.top and op.top == p.bottom
