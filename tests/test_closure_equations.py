"""The closure-equation check: blocked AND tables folded over batches of
subsets, and its failure path."""

import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biclosure import (
    ClosureOperator,
    Subspace,
    antichain,
    boolean_algebra,
    chain,
    check_poset,
    dual_space,
    enumerate_posets,
    filter_of,
    ideal_of,
    induced_closures,
)
import biclosure.represent as represent_module
from biclosure.bitops import BLOCK, and_folds, and_tables, bits, lane_fold, lane_images
from biclosure.represent import (
    _BATCH,
    _EXHAUSTIVE_LIMIT,
    _closure_formula_agrees,
    _every_cut,
    _packed_cuts,
    _subset_sample,
)

small_duals = (
    [p for n in range(1, 5) for p in enumerate_posets(n)]
    + [chain(k) for k in range(5, 20)]
)


def naive_fold(masks, seed, x):
    return reduce(lambda acc, i: acc & masks[i], bits(x), seed)


@st.composite
def masks_and_subsets(draw):
    width = draw(st.integers(1, 40))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=20))
    seed = draw(st.integers(0, (1 << width) - 1))
    xs = draw(st.lists(st.integers(0, (1 << len(masks)) - 1), max_size=40))
    return masks, seed, xs


@given(masks_and_subsets())
@example(([], 0b1011, [0]))
@example(([], 0b1011, []))
@example(([0b110] * 8, 0b111, [0, 0b11111111, 0b1]))
@example(([0b110, 0b011, 0b101] * 3, 0b111, [0b111111111]))
@example(([(1 << 20) - 1 - (1 << i) for i in range(20)], (1 << 20) - 1, [(1 << 20) - 1]))
@settings(max_examples=300, deadline=None)
def test_blocked_fold_matches_naive_fold(case):
    masks, seed, xs = case
    tables = and_tables(masks, seed)
    assert len(tables) == max(1, -(-len(masks) // 8))
    want = [naive_fold(masks, seed, x) for x in xs]
    # one batch of every x, one batch per x, and a range as the
    # exhaustive check passes it
    assert and_folds(tables, xs) == want
    assert [and_folds(tables, [x])[0] for x in xs] == want
    span = range(min(1 << len(masks), 300))
    assert and_folds(tables, span) == [naive_fold(masks, seed, x) for x in span]


# --- the early stop once a batch folds to zero ---------------------------------------


class _Unread:
    """A table that fails the test if and_folds reads it."""

    def __getitem__(self, index):
        raise AssertionError("a block was read after the batch folded to zero")


# masks[0] clears everything; the later blocks' masks are all nonzero
_STOP_MASKS = [0] + [0b1111] * 7 + [0b1011, 0b0111] * 8
_STOP_SEED = 0b1111


@pytest.mark.parametrize(
    "xs, zero_after_first",
    [
        ([1, 1 | 1 << 9, 1 | 1 << 17 | 1 << 20, 0b11], True),
        ([1, 1 | 1 << 9, 1 << 9 | 1 << 17], False),  # one nonzero straggler
        ([0, 0], False),  # nothing folded yet: every value is the seed
        ([], True),
    ],
    ids=["all-zero", "straggler", "no-bits", "empty"],
)
def test_and_folds_stops_once_the_batch_is_zero(xs, zero_after_first):
    tables = and_tables(_STOP_MASKS, _STOP_SEED)
    assert len(tables) == 3 and all(any(t) for t in tables[1:])
    want = [naive_fold(_STOP_MASKS, _STOP_SEED, x) for x in xs]
    assert and_folds(tables, xs) == want
    if zero_after_first:
        # the later blocks are never read
        assert want == [0] * len(xs)
        assert and_folds([tables[0], _Unread(), _Unread()], xs) == want
    else:
        assert any(want)


# --- each table built on its first read -----------------------------------------------


class _SliceLog(list):
    """Masks that log the block of each slice read from them."""

    def __init__(self, masks, log):
        super().__init__(masks)
        self.log = log

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.log.append(index.start // BLOCK)
        return super().__getitem__(index)


def test_a_fold_that_stops_early_builds_only_the_blocks_it_reads():
    log = []
    tables = and_tables(_SliceLog(_STOP_MASKS, log), _STOP_SEED)
    xs = [1, 1 | 1 << 9, 1 | 1 << 17 | 1 << 20, 0b11]
    assert and_folds(tables, xs) == [0] * len(xs)
    assert log == [0]
    # a batch that stays nonzero reads, and so builds, the rest; a block
    # once built is kept, not built again
    late = [1 << 9, 1 << 20]
    want = [naive_fold(_STOP_MASKS, _STOP_SEED, x) for x in late]
    assert and_folds(tables, late) == want and all(want)
    assert log == [0, 2, 1]
    assert and_folds(tables, late) == want
    assert log == [0, 2, 1]


def _no_and_folds(tables, xs):
    raise AssertionError("the lane path folded with and_folds")


@pytest.mark.parametrize(
    "poset, blocks, built",
    [(antichain(9), 64, [0, 1, 62, 63]), (boolean_algebra(4), 21, list(range(21)))],
    ids=["antichain9", "boolean4"],
)
def test_lane_fold_builds_only_the_cut_blocks_it_reads(monkeypatch, poset, blocks, built):
    # antichain(9)'s cuts fold to zero from both ends, so of the 64 blocks
    # over its 512 points only the outer ones are built; boolean_algebra(4)
    # keeps its constant point out of most subsets, so all 21 are
    star = dual_space(poset)
    c1, c2 = induced_closures(star)
    made = []

    def logged_tables(masks, seed):
        log = []
        tables = and_tables(_SliceLog(masks, log), seed)
        made.append((tables, log))
        return tables

    monkeypatch.setattr(represent_module, "and_tables", logged_tables)
    monkeypatch.setattr(represent_module, "and_folds", _no_and_folds)
    xs = _subset_sample(star.size)
    assert _closure_formula_agrees(star, c1, c2, xs) == (True, None)
    (cuts,) = [log for tables, log in made if len(tables) == blocks]
    assert sorted(cuts) == built
    images = [log for tables, log in made if len(tables) != blocks]
    assert [sorted(log) for log in images] == [[0, 1], [0, 1]]


def eager_tables(masks, seed):
    """Every block of ``and_tables`` at once, by the same doubling."""
    tables = []
    for start in range(0, max(len(masks), 1), BLOCK):
        t = [seed]
        for m in masks[start : start + BLOCK]:
            t += [v & m for v in t]
        tables.append(t)
    return tables


# few distinct wide masks, so that equal entries recur across blocks as
# distinct int objects unless the tables share them
_WIDE_FULL = (1 << 80) - 1
_WIDE_MASKS = [_WIDE_FULL, _WIDE_FULL ^ 1 << 70, _WIDE_FULL ^ 1 << 75, 1 << 79 | 5]


@st.composite
def table_reads(draw):
    masks = draw(st.lists(st.sampled_from(_WIDE_MASKS), max_size=40))
    width = max(1, -(-len(masks) // BLOCK))
    bound = st.none() | st.integers(-width - 2, width + 2)
    read = st.one_of(
        st.tuples(st.just("int"), st.integers(-width, width - 1)),
        st.tuples(st.just("out"), st.sampled_from((width, -width - 1))),
        st.tuples(
            st.just("slice"),
            bound,
            bound,
            st.none() | st.integers(-3, 3).filter(bool),
        ),
        st.tuples(st.just("iter")),
    )
    return masks, draw(st.lists(read, max_size=8))


@given(table_reads())
@example(([_WIDE_MASKS[1]] * 20, [("int", -1), ("slice", None, None, -1), ("iter",)]))
@settings(max_examples=200, deadline=None)
def test_lazy_tables_read_as_the_eager_doubling(case):
    masks, reads = case
    seed = _WIDE_FULL ^ 1 << 64
    tables = and_tables(masks, seed)
    want = eager_tables(masks, seed)
    assert len(tables) == len(want)
    for kind, *args in reads:
        if kind == "int":
            assert tables[args[0]] == want[args[0]]
        elif kind == "out":
            with pytest.raises(IndexError):
                tables[args[0]]
        elif kind == "slice":
            assert tables[slice(*args)] == want[slice(*args)]
        else:
            assert list(tables) == want
    assert list(tables) == want
    shared = {}
    assert all(shared.setdefault(v, v) is v for t in tables for v in t)


# --- wide folds: blocks from both ends inward, read from each x's bytes ---------------


@st.composite
def wide_masks_and_subsets(draw):
    """129 to 600 masks (17 to 75 tables, so the byte path) that clear few
    bits each, and subsets from dense to a few points, some carrying bits
    above the tables' last block."""
    count = draw(st.integers(129, 600))
    width = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    full = (1 << width) - 1
    masks = [
        full ^ rng.getrandbits(width) & rng.getrandbits(width) for _ in range(count)
    ]
    top = BLOCK * -(-count // BLOCK)
    xs = []
    for _ in range(draw(st.integers(1, 30))):
        x = (1 << count) - 1
        for _ in range(rng.randrange(10)):
            x &= rng.getrandbits(count)
        if rng.random() < 0.4:
            x |= rng.getrandbits(70) << top
        xs.append(x)
    return masks, rng.getrandbits(width), xs


@given(wide_masks_and_subsets())
@settings(max_examples=60, deadline=None)
def test_wide_fold_matches_naive_fold(case):
    masks, seed, xs = case
    tables = and_tables(masks, seed)
    assert 17 <= len(tables) <= 75
    low = (1 << len(masks)) - 1
    want = [naive_fold(masks, seed, x & low) for x in xs]
    # one batch of every x, one batch per x, and ranges as the
    # exhaustive check passes them, one over xs[0]'s upper bits
    assert and_folds(tables, xs) == want
    assert [and_folds(tables, [x])[0] for x in xs] == want
    base = xs[0] >> BLOCK << BLOCK
    for span in (range(base, base + 256), range(300)):
        want = [naive_fold(masks, seed, x & low) for x in span]
        assert and_folds(tables, span) == want


class _Logged:
    """A table that records its block index the first time it is read."""

    def __init__(self, table, j, log):
        self.table, self.j, self.log = table, j, log

    def __getitem__(self, index):
        if self.j not in self.log:
            self.log.append(self.j)
        return self.table[index]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 16, 17, 20])
def test_and_folds_reads_blocks_from_both_ends_inward(width):
    masks = [0b11] * (BLOCK * width)
    tables = and_tables(masks, 0b11)
    log = []
    logged = [_Logged(t, j, log) for j, t in enumerate(tables)]
    xs = [(1 << BLOCK * width) - 1, 1, 0]
    assert and_folds(logged, xs) == [0b11] * 3
    want, lo, hi = [], 0, width - 1
    while lo <= hi:
        want += [lo, hi] if lo < hi else [lo]
        lo, hi = lo + 1, hi - 1
    assert log == want


@pytest.mark.parametrize("width", [3, 20])
def test_and_folds_stops_after_the_first_and_last_blocks(width):
    # block 0 clears bit 1 and the last block bit 0; the middle clears nothing
    masks = [0b01] * BLOCK + [0b11] * (BLOCK * (width - 2)) + [0b10] * BLOCK
    tables = and_tables(masks, 0b11)
    last = 1 << BLOCK * (width - 1)
    xs = [1 | last, 0b10 | last << 3, 0xFF | last << 7]
    want = [naive_fold(masks, 0b11, x) for x in xs]
    assert want == [0] * len(xs)
    middle = [_Unread()] * (width - 2)
    assert and_folds([tables[0], *middle, tables[-1]], xs) == want
    # a subset that misses the last block leaves a nonzero value, so the
    # middle blocks are read
    assert and_folds(tables, xs + [1]) == want + [0b01]


# --- the packed one-set/kernel table --------------------------------------------------


def _assert_packed_cuts(space, xs):
    """One fold of the packed table gives filter_of(x) below the shift and
    ideal_of(x) above it, and the up-image tables read the filter half in
    place."""
    n = space.poset.n
    tables, shift = _packed_cuts(space)
    assert shift % BLOCK == 0 and n <= shift < n + BLOCK
    both = and_folds(tables, xs)
    low = (1 << shift) - 1
    assert [cut & low for cut in both] == [filter_of(space, x) for x in xs]
    assert [cut >> shift for cut in both] == [ideal_of(space, x) for x in xs]
    assert and_folds(tables, xs[:1]) == both[:1]
    ups = and_tables([space.up_image(p) for p in range(n)], space.all_mask)
    assert and_folds(ups, both) == and_folds(ups, [cut & low for cut in both])


@given(st.sampled_from(small_duals), st.data())
@settings(max_examples=150, deadline=None)
def test_blocked_fold_matches_filter_of_and_ideal_of(poset, data):
    # an independent check of the cut over up- and lo-images, on the
    # table the closure-equation check folds
    star = dual_space(poset)
    space = star.restrict(data.draw(st.integers(1, star.all_mask)))
    xs = data.draw(
        st.lists(
            st.integers(0, space.all_mask) | st.sampled_from((0, space.all_mask)),
            min_size=1,
            max_size=30,
        )
    )
    _assert_packed_cuts(space, xs)


@pytest.mark.parametrize(
    "poset, shift",
    [(chain(7), 8), (chain(8), 8), (chain(11), 16), (boolean_algebra(4), 16)],
    ids=["n7", "n8", "n11", "n16"],
)
def test_packed_cuts_shift_to_the_block_boundary(poset, shift):
    star = dual_space(poset)
    assert _packed_cuts(star)[1] == shift
    rng = random.Random(poset.n)
    for space in (star, star.restrict(rng.getrandbits(star.size) | 1)):
        xs = [0, space.all_mask] + [rng.getrandbits(space.size) for _ in range(60)]
        _assert_packed_cuts(space, xs)


# --- every subset's cuts, by doubling ------------------------------------------------


def _assert_every_cut(space):
    filters, ideals = _every_cut(space)
    every = range(1 << space.size)
    assert filters == [filter_of(space, x) for x in every]
    assert ideals == [ideal_of(space, x) for x in every]


@pytest.mark.parametrize(
    "poset", [p for p in small_duals if dual_space(p).size <= _EXHAUSTIVE_LIMIT]
)
def test_every_cut_matches_filter_of_and_ideal_of(poset):
    _assert_every_cut(dual_space(poset))


@given(st.sampled_from(small_duals), st.data())
@settings(max_examples=100, deadline=None)
def test_every_cut_of_a_restriction_matches_filter_of_and_ideal_of(poset, data):
    star = dual_space(poset)
    picks = data.draw(
        st.lists(st.integers(0, star.size - 1), unique=True, max_size=_EXHAUSTIVE_LIMIT)
    )
    _assert_every_cut(star.restrict(sum(1 << i for i in picks)))


def _no_packed_cuts(subspace):
    raise AssertionError("the exhaustive check folded the packed cuts")


def brute_formulas(space, x):
    """Both right-hand sides at x, one image at a time from filter_of and
    ideal_of."""
    up = [space.up_image(p) for p in bits(filter_of(space, x))]
    lo = [space.lo_image(p) for p in bits(ideal_of(space, x))]
    return (
        reduce(lambda a, b: a & b, up, space.all_mask),
        reduce(lambda a, b: a & b, lo, space.all_mask),
    )


def _mutants(poset, rng):
    """Subspaces beside the full dual of poset, each with one point's
    one-set replaced by another mask (an up-set or not), in place."""
    star = dual_space(poset)
    for _ in range(3):
        i = rng.randrange(star.size)
        other = rng.choice([s for s in range(poset.full + 1) if s != star.points[i]])
        points = list(star.points)
        points[i] = other
        yield star, Subspace._known(poset, points)


@pytest.mark.parametrize(
    "poset", [p for p in small_duals if dual_space(p).size <= _EXHAUSTIVE_LIMIT]
)
def test_a_changed_point_fails_at_the_first_differing_subset(monkeypatch, poset):
    # the true closures against right-hand sides read off a subspace of
    # the same size with one point changed: the witness is the first
    # subset, in range order, whose brute-force formulas differ
    monkeypatch.setattr(represent_module, "_packed_cuts", _no_packed_cuts)
    # (a mutant can permute the images, as {2} -> {1} does on chain(3),
    # and leave every formula as it was; most change some subset's)
    rng = random.Random(str(poset.up))
    failed = 0
    for star, mutant in _mutants(poset, rng):
        c1, c2 = induced_closures(star)
        every = range(1 << star.size)
        assert _closure_formula_agrees(star, c1, c2, every) == (True, None)
        got = [(c1.apply(x), c2.apply(x)) for x in every]
        first = next((x for x in every if got[x] != brute_formulas(mutant, x)), None)
        want = (True, None) if first is None else (False, first)
        assert _closure_formula_agrees(mutant, c1, c2, every) == want
        failed += first is not None
    assert failed >= 2


@pytest.mark.parametrize(
    "poset, index, one_set",
    [(chain(10), 8, 1017), (chain(11), 8, 2033), (chain(11), 9, 2046)],
    ids=["m11-second-batch", "m12-second-batch", "m12-third-batch"],
)
def test_a_changed_point_fails_past_the_first_batch(monkeypatch, poset, index, one_set):
    monkeypatch.setattr(represent_module, "_packed_cuts", _no_packed_cuts)
    star = dual_space(poset)
    c1, c2 = induced_closures(star)
    points = list(star.points)
    points[index] = one_set
    mutant = Subspace._known(poset, points)
    every = range(1 << star.size)
    first = next(
        x for x in every if (c1.apply(x), c2.apply(x)) != brute_formulas(mutant, x)
    )
    assert first >= _BATCH
    assert _closure_formula_agrees(mutant, c1, c2, every) == (False, first)


# --- the lane fold: sampled cuts up to 16 elements ---------------------------------


class _Brute:
    """A closure whose apply() is one side of ``brute_formulas``, so the
    check passes exactly where its right-hand sides are the brute ones."""

    def __init__(self, space, side):
        self.space, self.side = space, side

    def apply(self, x):
        return brute_formulas(self.space, x)[self.side]


def _whole(lanes):
    """Each x's value from its byte in every lane, lane 0 lowest."""
    return [int.from_bytes(bytes(row), "little") for row in zip(*lanes)]


def _assert_lane_cuts(space, xs):
    """The lane fold of the packed table gives filter_of(x) in its low
    lanes and ideal_of(x) in its high ones; the image tables read from
    those lanes give both brute-force right-hand sides, and so does the
    check on the sampled path."""
    n = space.poset.n
    tables, shift = _packed_cuts(space)
    lanes = shift // BLOCK
    cut = lane_fold(tables, 2 * lanes)(xs)
    assert [len(lane) for lane in cut] == [len(xs)] * 2 * lanes
    assert _whole(cut[:lanes]) == [filter_of(space, x) for x in xs]
    assert _whole(cut[lanes:]) == [ideal_of(space, x) for x in xs]
    ups = and_tables([space.up_image(p) for p in range(n)], space.all_mask)
    los = and_tables([space.lo_image(p) for p in range(n)], space.all_mask)
    got = zip(lane_images(ups, cut[:lanes]), lane_images(los, cut[lanes:]))
    assert list(got) == [brute_formulas(space, x) for x in xs]
    brute = _Brute(space, 0), _Brute(space, 1)
    assert _closure_formula_agrees(space, *brute, list(xs)) == (True, None)


lane_duals = [p for p in small_duals if p.n <= 2 * BLOCK] + [boolean_algebra(4)]


@given(st.sampled_from(lane_duals), st.data())
@settings(max_examples=150, deadline=None)
def test_lane_fold_matches_filter_of_ideal_of_and_the_formulas(poset, data):
    star = dual_space(poset)
    space = star.restrict(data.draw(st.integers(1, star.all_mask)))
    xs = data.draw(
        st.lists(
            st.integers(0, space.all_mask) | st.sampled_from((0, space.all_mask)),
            min_size=1,
            max_size=30,
        )
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(represent_module, "and_folds", _no_and_folds)
        _assert_lane_cuts(space, xs)


@pytest.mark.parametrize(
    "poset, lanes",
    [
        (antichain(4), 1),  # 16 points: two whole blocks
        (chain(6), 1),  # 7 points: one partial block
        (chain(12), 2),  # 13 points: a partial last block
        (chain(16), 2),  # 17 points, n = 16: the last n on the lane path
        (boolean_algebra(4), 2),  # 168 points: 21 whole blocks
    ],
    ids=["ac4", "chain6", "chain12", "chain16", "ba4"],
)
def test_lane_fold_on_one_and_two_lanes(monkeypatch, poset, lanes):
    monkeypatch.setattr(represent_module, "and_folds", _no_and_folds)
    star = dual_space(poset)
    assert _packed_cuts(star)[1] == BLOCK * lanes
    rng = random.Random(poset.n)
    for space in (star, star.restrict(rng.getrandbits(star.size) | 1)):
        xs = [0, space.all_mask] + [rng.getrandbits(space.size) for _ in range(300)]
        _assert_lane_cuts(space, xs)


@pytest.mark.parametrize(
    "poset, laned", [(chain(16), True), (chain(17), False)], ids=["n16", "n17"]
)
def test_sampled_check_folds_lanes_up_to_sixteen_elements(monkeypatch, poset, laned):
    folds = []

    def logged(tables, lanes):
        folds.append(lanes)
        return lane_fold(tables, lanes)

    monkeypatch.setattr(represent_module, "lane_fold", logged)
    if laned:
        monkeypatch.setattr(represent_module, "and_folds", _no_and_folds)
    star = dual_space(poset)
    xs = _subset_sample(star.size)
    assert len(xs) == 2048
    brute = _Brute(star, 0), _Brute(star, 1)
    assert _closure_formula_agrees(star, *brute, xs) == (True, None)
    assert _closure_formula_agrees(star, *induced_closures(star), xs) == (True, None)
    assert folds == ([4, 4] if laned else [])


def _no_lane_fold(tables, lanes):
    raise AssertionError("the packed path folded by lanes")


def _pin_path(monkeypatch, poset):
    """Make the sampled check fail if it folds by the path that poset's
    size does not take."""
    if poset.n <= 2 * BLOCK:
        monkeypatch.setattr(represent_module, "and_folds", _no_and_folds)
    else:
        monkeypatch.setattr(represent_module, "lane_fold", _no_lane_fold)


@pytest.mark.parametrize(
    "poset, index, one_set",
    [
        (chain(13), None, None),
        (chain(20), None, None),
        (chain(13), 8, 8096),
        (chain(13), 13, 8127),
        (chain(20), 0, 2048),
        (chain(20), 1, 526336),
    ],
    ids=["lanes", "packed", "lanes-b2", "lanes-b2b", "packed-b3", "packed-b8"],
)
def test_a_changed_point_fails_at_the_first_differing_sampled_subset(
    monkeypatch, poset, index, one_set
):
    # the true closures against right-hand sides read off the full dual
    # with one point's one-set changed: the witness is the first subset,
    # in sample order, whose brute-force formulas differ; the named
    # changes first differ past the first batch (in the batch named)
    _pin_path(monkeypatch, poset)
    star = dual_space(poset)
    c1, c2 = induced_closures(star)
    xs = _subset_sample(star.size)
    assert _closure_formula_agrees(star, c1, c2, xs) == (True, None)
    got = [(c1.apply(x), c2.apply(x)) for x in xs]
    rng = random.Random(str(poset.up))
    changes = [(index, one_set)] if index is not None else []
    while len(changes) < 3:
        i, other = rng.randrange(star.size), rng.randrange(poset.full + 1)
        if other != star.points[i]:
            changes.append((i, other))
    failed = 0
    for i, other in changes:
        points = list(star.points)
        points[i] = other
        mutant = Subspace._known(poset, points)
        first = next(
            (t for t, x in enumerate(xs) if got[t] != brute_formulas(mutant, x)), None
        )
        want = (True, None) if first is None else (False, xs[first])
        assert _closure_formula_agrees(mutant, c1, c2, xs) == want
        failed += first is not None
        if index is not None:
            assert first >= _BATCH
            break
    assert failed >= (1 if index is not None else 2)


# --- the subsets the check draws ------------------------------------------------------


@pytest.mark.parametrize("m", [13, 40, 64, 512])
def test_subset_sample_is_the_seeded_draw(m):
    rng = random.Random(0xB1C105)
    assert _subset_sample(m) == [rng.getrandbits(m) for _ in range(2048)]


def test_check_calls_apply_twice_per_subset(monkeypatch):
    star = dual_space(boolean_algebra(2))
    c1, c2 = induced_closures(star)
    xs = _subset_sample(star.size)
    calls = []
    original = ClosureOperator.apply

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(ClosureOperator, "apply", counting)
    assert _closure_formula_agrees(star, c1, c2, xs) == (True, None)
    assert len(calls) == 2 * len(xs)


# --- a corrupted apply() must be caught -------------------------------------------


def _corrupt(monkeypatch, target, subset):
    """Flip the lowest bit of target.apply(subset) and nothing else."""
    original = ClosureOperator.apply

    def flipped(self, x):
        out = original(self, x)
        if x == subset and self.base == target.base:
            out ^= 1
        return out

    monkeypatch.setattr(ClosureOperator, "apply", flipped)


def _equations(poset):
    report = check_poset(poset, suite="general")
    return next(c for c in report.checks if c.name == "closure-equations")


@pytest.mark.parametrize("which", [0, 1], ids=["c1", "c2"])
@pytest.mark.parametrize(
    "poset, pick",
    [(boolean_algebra(2), 0b101101), (antichain(4), 700)],
    ids=["exhaustive", "sampled"],
)
def test_corrupted_apply_fails_the_check(monkeypatch, poset, pick, which):
    star = dual_space(poset)
    xs = _subset_sample(star.size)
    if star.size <= 12:
        assert isinstance(xs, range)
        subset = pick
    else:
        assert len(xs) == 2048
        subset = xs[pick]
    assert subset in xs and subset != 0
    closures = induced_closures(star)
    assert closures[0].base != closures[1].base
    assert _equations(poset).passed
    _corrupt(monkeypatch, closures[which], subset)
    result = _equations(poset)
    assert not result.passed
    assert result.witness == {"subset": sorted(bits(subset))}


# --- the witness across batch boundaries -------------------------------------------


def _corrupt_many(monkeypatch, flips):
    """Flip the lowest bit of apply(x) for the closure whose base is
    flips[x], and nothing else."""
    original = ClosureOperator.apply

    def flipped(self, x):
        out = original(self, x)
        if x in flips and self.base == flips[x].base:
            out ^= 1
        return out

    monkeypatch.setattr(ClosureOperator, "apply", flipped)


@pytest.mark.parametrize("which", [0, 1], ids=["c1", "c2"])
@pytest.mark.parametrize(
    "poset, pick",
    [(chain(11), 3000), (chain(13), 1999)],
    ids=["exhaustive-m12", "sampled-m14"],
)
def test_witness_past_the_first_batch(monkeypatch, poset, pick, which):
    star = dual_space(poset)
    xs = _subset_sample(star.size)
    subset = xs[pick]
    assert pick >= _BATCH and xs.index(subset) == pick
    closures = induced_closures(star)
    assert closures[0].base != closures[1].base
    _corrupt_many(monkeypatch, {subset: closures[which]})
    assert _closure_formula_agrees(star, *closures, xs) == (False, subset)
    result = _equations(poset)
    assert not result.passed
    assert result.witness == {"subset": sorted(bits(subset))}


@pytest.mark.parametrize(
    "poset, early, late",
    [
        (chain(10), 5, 200),  # m = 11, one batch
        (chain(10), 100, 1500),  # m = 11, two batches
        (chain(13), 300, 301),  # sampled, one batch past the first
        (chain(13), 10, 2047),  # sampled, first and last batch
    ],
)
def test_witness_is_the_earliest_failing_subset(monkeypatch, poset, early, late):
    # c2 fails at the earlier subset and c1 at the later one, so testing
    # c1 first across the whole sample would name the later subset
    star = dual_space(poset)
    xs = _subset_sample(star.size)
    first, second = xs[early], xs[late]
    assert xs.index(first) == early and xs.index(second) == late
    c1, c2 = induced_closures(star)
    assert c1.base != c2.base
    _corrupt_many(monkeypatch, {first: c2, second: c1})
    assert _closure_formula_agrees(star, c1, c2, xs) == (False, first)
    assert _equations(poset).witness == {"subset": sorted(bits(first))}
