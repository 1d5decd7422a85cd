"""The closure-equation check: blocked AND tables folded over batches of
subsets, and its failure path."""

from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biclosure import (
    ClosureOperator,
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
from biclosure.bitops import and_folds, and_tables, bits
from biclosure.represent import _BATCH, _closure_formula_agrees, _subset_sample

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


@given(st.sampled_from(small_duals), st.data())
@settings(max_examples=150, deadline=None)
def test_blocked_fold_matches_filter_of_and_ideal_of(poset, data):
    # the packed AND table intersects one-sets (low n bits) and kernels
    # (shifted by n) point by point, as the closure-equation check builds
    # it: an independent check of the cut over up- and lo-images
    star = dual_space(poset)
    space = star.restrict(data.draw(st.integers(1, star.all_mask)))
    n, carrier = poset.n, poset.full
    packed = [s | space.kernel(i) << n for i, s in enumerate(space.points)]
    xs = data.draw(
        st.lists(
            st.integers(0, space.all_mask) | st.sampled_from((0, space.all_mask)),
            min_size=1,
            max_size=30,
        )
    )
    tables = and_tables(packed, carrier | carrier << n)
    both = and_folds(tables, xs)
    assert [cut & carrier for cut in both] == [filter_of(space, x) for x in xs]
    assert [cut >> n for cut in both] == [ideal_of(space, x) for x in xs]
    assert and_folds(tables, xs[:1]) == both[:1]


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
