"""The closure-equation check: blocked AND tables and their failure path."""

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
from biclosure.bitops import and_fold, and_tables, bits
from biclosure.represent import _closure_formula_agrees, _subset_sample

small_duals = (
    [p for n in range(1, 5) for p in enumerate_posets(n)]
    + [chain(k) for k in range(5, 20)]
)


def naive_fold(masks, seed, x):
    return reduce(lambda acc, i: acc & masks[i], bits(x), seed)


@st.composite
def masks_and_subset(draw):
    width = draw(st.integers(1, 40))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=20))
    seed = draw(st.integers(0, (1 << width) - 1))
    x = draw(st.integers(0, (1 << len(masks)) - 1))
    return masks, seed, x


@given(masks_and_subset())
@example(([], 0b1011, 0))
@example(([0b110] * 8, 0b111, 0))
@example(([0b110, 0b011, 0b101] * 3, 0b111, 0b111111111))
@example(([(1 << 20) - 1 - (1 << i) for i in range(20)], (1 << 20) - 1, (1 << 20) - 1))
@settings(max_examples=300, deadline=None)
def test_blocked_fold_matches_naive_fold(case):
    masks, seed, x = case
    tables = and_tables(masks, seed)
    assert len(tables) == max(1, -(-len(masks) // 8))
    assert and_fold(tables, x) == naive_fold(masks, seed, x)


@given(st.sampled_from(small_duals), st.data())
@settings(max_examples=150, deadline=None)
def test_blocked_fold_matches_filter_of_and_ideal_of(poset, data):
    # the AND tables intersect one-sets and kernels point by point, an
    # independent check of the cut over up- and lo-images
    star = dual_space(poset)
    space = star.restrict(data.draw(st.integers(1, star.all_mask)))
    carrier = poset.full
    kernels = [space.kernel(i) for i in range(space.size)]
    x = data.draw(
        st.integers(0, space.all_mask) | st.sampled_from((0, space.all_mask))
    )
    assert and_fold(and_tables(space.points, carrier), x) == filter_of(space, x)
    assert and_fold(and_tables(kernels, carrier), x) == ideal_of(space, x)


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
