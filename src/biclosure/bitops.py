"""Small bitmask helpers used throughout the package.

Subsets of a finite carrier {0, ..., m-1} are plain ints with bit i set
iff element i is in the subset. Intersection, union and complement are
then single word operations, which is what makes the exhaustive sweeps
elsewhere affordable. ``and_tables`` serves the closure-equation check,
the selfdual sweep and the orthodual filter; it builds each block's
table the first time it is read. ``and_folds`` folds any such sequence
of tables: it shifts each subset once per 8-index block when there are
at most 16 blocks (each fold of the catalog and of the benchmark's
frontier workload has one or two), and above that reads each subset's
bytes once, which keeps a fold over m points linear in m rather than
quadratic. ``lane_fold`` folds tables whose entries fit in a few bytes
(the sampled closure-equation cuts of posets with at most 16 elements):
each block is cut into 256-byte ``bytes.translate`` tables, one per byte
lane, and a batch's subsets are read as byte columns, so a block costs
a few C calls per lane for the whole batch; ``lane_images`` reads one
table per lane with one ``map`` each. A fold that stops early
leaves the blocks it skips unbuilt. ``and_table`` doubles out each
block, and every subset's closure-equation cuts; ``or_table`` is its OR
twin, and ``or_rows`` ORs, for each bit row, the rows its bits index
through one ``or_table`` per block of 8 rows, which is how an order is
validated and its covers read; ``_transpose`` turns rows into columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import and_
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


# _ONES[t] maps each byte to ASCII "1" or "0" by its bit t
_ONES = [bytes(b"01"[b >> t & 1] for b in range(256)) for t in range(8)]


def _transpose(rows, width: int) -> tuple:
    """The columns j < ``width`` of the bit rows ``rows``, as rows: bit i
    of column j is bit j of row i; bits at or above ``width`` are not
    read. The down-rows of an order are the transpose of its up-rows.
    Bits k to k + 7 of the rows, last row first, make one byte string,
    which ``_ONES[t]`` translates into column k + t in binary for ``int``.
    """
    out = []
    for k in range(0, width, 8):
        block = bytes([r >> k & 255 for r in reversed(rows)])
        for j in range(min(8, width - k)):
            out.append(int(block.translate(_ONES[j]) or b"0", 2))
    return tuple(out)


def and_table(masks, seed: int) -> list:
    """Entry b is seed ANDed with masks[j] over the set bits j of b, by doubling."""
    table = [seed]
    for m in masks:
        table += [v & m for v in table]
    return table


def or_table(masks) -> list:
    """Entry b is the OR of masks[j] over the set bits j of b, by doubling."""
    table = [0]
    for m in masks:
        table += [h | m for h in table]
    return table


BLOCK = 8
_BLOCK_MASK = (1 << BLOCK) - 1


def or_rows(rows) -> list:
    """Entry i is the OR of rows[j] over the set bits j of rows[i]: one
    ``or_table`` per block of 8 rows and one lookup in it per row (the
    method of the Four Russians, as in ``and_tables``). Every row must be
    below ``1 << len(rows)``."""
    out = [0] * len(rows)
    for k in range(0, len(rows), BLOCK):
        table = or_table(rows[k : k + BLOCK])
        out = [o | table[r >> k & _BLOCK_MASK] for o, r in zip(out, rows)]
    return out


def and_tables(masks, seed: int) -> _AndTables:
    """Subset-AND tables over ``masks``, one per block of 8 indices.

    Entry b of block k is ``seed`` ANDed with ``masks[8k + j]`` for every
    bit j of b, so ``and_folds`` reads the AND over any index set with one
    lookup per block (the method of the Four Russians). Each table is
    ``and_table`` over its block: t[b] = t[b ^ top] & mask[top]. Equal
    entries share one int object, which keeps the tables of a large
    subspace small.

    The result is a read-only sequence of ``max(1, ceil(len(masks) / 8))``
    tables that indexes, slices and iterates as a list does. Block k is
    built the first time it is read and then kept, so a fold that stops
    early never builds the blocks it skips. ``masks`` is kept and sliced
    as each block is built, so it must not change while the tables are
    read.
    """
    return _AndTables(masks, seed)


class _AndTables(Sequence):
    """The blocks of ``and_tables``, each built on its first read."""

    def __init__(self, masks, seed: int):
        self._masks, self._seed, self._shared = masks, seed, {}
        self._blocks = [None] * max(1, -(-len(masks) // BLOCK))

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self._blocks))[k]]
        return self._blocks[k] or self._build(k)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._blocks)))

    def _build(self, k: int) -> list:
        k %= len(self._blocks)
        t = and_table(self._masks[BLOCK * k : BLOCK * k + BLOCK], self._seed)
        self._blocks[k] = t = list(map(self._shared.setdefault, t, t))
        return t


def and_folds(tables: list, xs) -> list:
    """For each x in xs, the AND of the seed and the masks indexed by the
    set bits of x: one list comprehension per block over the whole batch.

    ``tables`` is any sequence of tables shaped as ``and_tables`` gives
    them (so it has at least one table, and entry 0 of each is the seed);
    only the blocks a fold reads are indexed, so of an ``and_tables``
    sequence only those are built. Only the low ``BLOCK * len(tables)``
    bits of each x are read; bits above them are ignored. Blocks are read
    from both ends inward (block 0, the last, block 1, the second-to-last,
    ...), and once every value in the batch is 0 the remaining blocks are
    skipped, since an AND keeps a zero at zero: over points in ascending
    mask order the low blocks hold the points with small one-sets and the
    high blocks those with small kernels, so a fold that cuts both
    reaches zero from both ends.

    Above ``_WIDE`` tables each x is read as bytes once, instead of one
    shift of every x per block, and blocks j and width - 1 - j are folded
    together from strided slices of the batch's joined bytes, so the
    zero test falls after each such pair.
    """
    width = len(tables)
    if width > _WIDE:
        keep = (1 << BLOCK * width) - 1
        flat = b"".join([(x & keep).to_bytes(width, "little") for x in xs])
        out = [tables[0][0]] * (len(flat) // width)
        # an odd count's middle block pairs with itself: t[b] & t[b] is t[b]
        for j in range((width + 1) // 2):
            if not any(out):
                break
            t, u = tables[j], tables[~j]
            lows, highs = flat[j::width], flat[width - 1 - j :: width]
            out = [o & t[a] & u[b] for o, a, b in zip(out, lows, highs)]
        return out
    first = tables[0]
    out = [first[x & _BLOCK_MASK] for x in xs]
    for j in _outside_in(width):
        if not any(out):
            break
        t, shift = tables[j], BLOCK * j
        out = [o & t[x >> shift & _BLOCK_MASK] for o, x in zip(out, xs)]
    return out


def lane_fold(tables, lanes: int):
    """A fold over the sequence ``tables`` (shaped as ``and_tables`` gives
    them, entries below ``1 << 8 * lanes``) that returns, for a batch xs,
    ``lanes`` byte strings: byte i of string l is bits 8l to 8l + 7 of the
    fold of xs[i], as ``and_folds`` would give it.

    Each block's table is cut into ``lanes`` 256-byte ``bytes.translate``
    tables the first time a fold reads it (a partial block repeats to 256
    entries, which ignores the bits above it), and kept. A batch's xs are
    joined once into little-endian rows of ``len(tables)`` bytes, so
    block k is the strided column of byte k, translated once per lane and
    ANDed into that lane as one int. Blocks are read from both ends
    inward, and once every lane is zero the rest are skipped. Every x
    must be below ``1 << 8 * len(tables)``.
    """
    width, cut = len(tables), {}

    def lanes_of(k: int) -> list:
        t = tables[k]
        rows = b"".join([v.to_bytes(lanes, "little") for v in t]) * (256 // len(t))
        cut[k] = out = [rows[lane::lanes] for lane in range(lanes)]
        return out

    def fold(xs) -> list:
        rows = b"".join([x.to_bytes(width, "little") for x in xs])
        out = [-1] * lanes
        for k in (0, *_outside_in(width)):
            if not any(out):
                break
            column = rows[k::width]
            out = [
                o & int.from_bytes(column.translate(lane), "little")
                for o, lane in zip(out, cut.get(k) or lanes_of(k))
            ]
        return [o.to_bytes(len(xs), "little") for o in out]

    return fold


def lane_images(tables, lanes) -> list:
    """The AND over l of ``tables[l][lanes[l][i]]`` for each i: one ``map``
    per table over its lane, as bytes from ``lane_fold`` or as ints below
    256."""
    out = map(tables[0].__getitem__, lanes[0])
    for t, lane in zip(tables[1:], lanes[1:]):
        out = map(and_, out, map(t.__getitem__, lane))
    return list(out)


# above this many tables (8 * _WIDE indices) and_folds reads each x's
# bytes once. One shift per block is cheaper at one or two tables, but
# not from about four on: over 256 subsets with every block read, 7 vs
# 41 us at one table, 26 vs 70 us at two and 116 vs 90 us at five (shift
# vs bytes, 2-CPU x86-64 VM, Python 3.11), so 16 is above the crossover
_WIDE = 16


def _outside_in(width: int):
    """Blocks 1 to width - 1 from both ends inward: the last, 1, the
    second-to-last, 2, and so on."""
    for k in range(1, width):
        yield width - 1 - k // 2 if k & 1 else k // 2
