"""Small bitmask helpers used throughout the package.

Subsets of a finite carrier {0, ..., m-1} are plain ints with bit i set
iff element i is in the subset. Intersection, union and complement are
then single word operations, which is what makes the exhaustive sweeps
elsewhere affordable. ``and_tables`` serves the closure-equation check,
the selfdual sweep and the orthodual filter.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


BLOCK = 8
_BLOCK_MASK = (1 << BLOCK) - 1


def and_tables(masks, seed: int) -> list:
    """Subset-AND tables over ``masks``, one per block of 8 indices.

    Entry b of block k is ``seed`` ANDed with ``masks[8k + j]`` for every
    bit j of b, so ``and_folds`` reads the AND over any index set with one
    lookup per block (the method of the Four Russians). Each table is
    grown by doubling: the upper half is the lower half ANDed with the
    next mask, i.e. t[b] = t[b ^ top] & mask[top]. Equal entries share
    one int object, which keeps the tables of a large subspace small.
    """
    tables = []
    shared: dict = {}
    for start in range(0, max(len(masks), 1), BLOCK):
        t = [seed]
        for m in masks[start : start + BLOCK]:
            t += [v & m for v in t]
        tables.append([shared.setdefault(v, v) for v in t])
    return tables


def and_folds(tables: list, xs) -> list:
    """For each x in xs, the AND of the seed and the masks indexed by the
    set bits of x: one list comprehension per block over the whole batch.

    ``tables`` comes from ``and_tables`` (so it has at least one table).
    Only the low ``BLOCK * len(tables)`` bits of each x are read; bits
    above them are ignored. Once every value in the batch is 0 the
    remaining blocks are skipped, since an AND keeps a zero at zero.
    """
    first, *rest = tables
    out = [first[x & _BLOCK_MASK] for x in xs]
    shift = 0
    for t in rest:
        if not any(out):
            break
        shift += BLOCK
        out = [o & t[x >> shift & _BLOCK_MASK] for o, x in zip(out, xs)]
    return out
