"""Dual spaces of finite posets.

A dual point of P is an isotone map from P into the two-element chain,
stored as the bitmask of its one-set; isotonicity makes the one-set an
up-set of P. A Subspace is any deduplicated set of dual points over a
fixed base poset, in canonical (ascending mask) order.

Ideals and filters here are taken relative to a subspace A: an A-ideal
is ideal_of(X), the intersection of the kernels x^-1(0) over a nonempty
X in A, an A-filter filter_of(X), the same with co-kernels x^-1(1); the
empty X gives the full carrier, a member only when A holds the right
constant map. Both are one cut: the p whose lo-image (up-image) holds X.
By the Galois connection, the A-filters are filter_of(X) over the
nonempty c1-closed X, the A-ideals ideal_of(X) over the nonempty
c2-closed X (c1, c2 the induced closures). Generator p of c1 (c2) is
up_image(p) (lo_image(p)), so the cut of a closed X is the mask of the
generators holding it, and the one set-growth pass that builds a
closure's closed family records each closed set's cut with it: extent
and intent of one formal concept, built together. The points vanishing
on ideal_of(X) are X and those holding filter_of(Y) are Y, so a
disjoint pair is separated by a point of A iff X and Y meet. A filter
that is itself a point a of A is separated from every ideal it misses,
by a, so the test indexes only the other filters: per element, the mask
of those that miss it, ANDed over an ideal's elements, is the set of
filters disjoint from that ideal, and only those meet the X-and-Y test.
It reads both families off the concepts of the pair it is handed. One
hull routine serves both sides: AND the images over the subset, then
cut, no family.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .bitops import _transpose, and_folds, and_tables, bits
from .closure import induced_closures
from .errors import InvalidOrthoMap, MemberOutOfRange, NotALattice, NotBounded
from .poset import OrthoMap, Poset, SubsetFamily, _upsets

DUAL_POINT_CAP = 1 << 20


class Subspace:
    """An indexed set of dual points of a base poset."""

    def __init__(self, poset: Poset, one_sets):
        seen = set()
        for s in one_sets:
            if s & ~poset.full:
                raise ValueError("one-set has bits outside the carrier")
            for i in bits(s):
                if poset.up[i] & ~s:
                    raise ValueError("one-set of a dual point must be an up-set")
            seen.add(s)
        self._hold(poset, sorted(seen))

    @classmethod
    def _known(cls, poset: Poset, points) -> "Subspace":
        """A subspace over ``points``, which the caller knows to be distinct
        up-sets of ``poset`` in ascending order: dual points it already
        holds, or the sorted output of ``_upsets``. Nothing is re-checked."""
        space = cls.__new__(cls)
        space._hold(poset, points)
        return space

    def _hold(self, poset: Poset, points) -> None:
        self.poset = poset
        self.points = tuple(points)
        self.size = len(self.points)
        self.all_mask = (1 << self.size) - 1

    @cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.points)}

    def index_of(self, one_set: int) -> int:
        return self._index[one_set]

    @cached_property
    def _up_images(self):
        return _transpose(self.points, self.poset.n)

    def up_image(self, p: int) -> int:
        """Indices of the points whose one-set contains p."""
        return self._up_images[p]

    def lo_image(self, p: int) -> int:
        """Indices of the points vanishing at p."""
        return self.all_mask ^ self._up_images[p]

    def kernel(self, i: int) -> int:
        """The zero-set of point i, as a subset of the base carrier."""
        return self.poset.full ^ self.points[i]

    def cokernel(self, i: int) -> int:
        return self.points[i]

    def restrict(self, index_mask: int) -> "Subspace":
        if index_mask & ~self.all_mask:
            raise MemberOutOfRange("point indices outside the subspace")
        return Subspace._known(self.poset, [self.points[i] for i in bits(index_mask)])

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return self.size

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.poset == other.poset
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.poset, self.points))

    def __repr__(self):
        return f"Subspace({self.size} points over {self.poset.n} elements)"

    def to_json(self) -> list:
        labels = self.poset.labels
        return [sorted(labels[p] for p in bits(s)) for s in self.points]


def dual_space(poset: Poset, cap: int = DUAL_POINT_CAP) -> Subspace:
    """Every dual point of P, i.e. one point per up-set of P."""
    return Subspace._known(poset, sorted(_upsets(poset.up, cap)))


def orthodual_space(poset: Poset, ortho: OrthoMap, cap: int = DUAL_POINT_CAP) -> Subspace:
    """Dual points that send complementary elements to complementary values."""
    if ortho.poset != poset:
        raise InvalidOrthoMap("orthocomplementation belongs to a different poset")
    return _orthodual(dual_space(poset, cap), ortho)


def _orthodual(star: Subspace, ortho: OrthoMap) -> Subspace:
    """``orthodual_space`` filtered from the dual space ``star`` of ortho's poset."""
    full = star.poset.full
    # the fold over s is the complement of f(s): s itself on the orthodual
    tables = and_tables([full ^ 1 << j for j in ortho.perm], full)
    folds = and_folds(tables, star.points)
    keep = [s for s, c in zip(star.points, folds) if c == s]
    return Subspace._known(star.poset, keep)


def lattice_dual(poset: Poset, cap: int = DUAL_POINT_CAP) -> Subspace:
    """Dual points preserving meets and joins; includes both constants."""
    if not poset.is_lattice():
        raise NotALattice("meet/join dual requires a lattice")
    return _lattice_dual(dual_space(poset, cap))


def _lattice_sides(poset: Poset):
    """The tests, on an up-set s of a lattice, of whether its point
    preserves meets and joins: whether s (its kernel) is empty or closed
    under meets (joins). In a finite lattice those are the up-rows
    (down-rows), the principal filters (ideals): Davey & Priestley,
    Introduction to Lattices and Order, 2nd ed., 2002."""
    kernels = {0, *poset.down}
    return {0, *poset.up}.__contains__, lambda s: poset.full ^ s in kernels


def _lattice_dual(star: Subspace) -> Subspace:
    """``lattice_dual`` filtered from the dual space ``star`` of a lattice."""
    meets, joins = _lattice_sides(star.poset)
    keep = [s for s in star.points if meets(s) and joins(s)]
    return Subspace._known(star.poset, keep)


def _lattice_families(star: Subspace):
    """The lattice ideals and the lattice filters under ``star``, empty
    set included: the join-closed complements of the points and the
    meet-closed points."""
    meets, joins = _lattice_sides(star.poset)
    n, full = star.poset.n, star.poset.full
    ideals = SubsetFamily(n, (full ^ s for s in star.points if joins(s)))
    return ideals, SubsetFamily(n, filter(meets, star.points))


# --- ideals and filters relative to a subspace -------------------------------


def _cut(subspace: Subspace, image, x: int) -> int:
    """The p whose image(p) holds every point of x (the full carrier for none)."""
    if x & ~subspace.all_mask:
        raise MemberOutOfRange("point indices outside the subspace")
    return sum(1 << p for p in range(subspace.poset.n) if not x & ~image(p))


def ideal_of(subspace: Subspace, point_indices: int) -> int:
    """Intersection of the kernels of the chosen points; full carrier for none."""
    return _cut(subspace, subspace.lo_image, point_indices)


def filter_of(subspace: Subspace, point_indices: int) -> int:
    return _cut(subspace, subspace.up_image, point_indices)


def ideals_wrt(subspace: Subspace) -> SubsetFamily:
    """All A-ideals of the subspace A, in sorted mask order."""
    pairs = induced_closures(subspace)[1]._concepts
    return SubsetFamily(subspace.poset.n, (i for i, _ in pairs))


def filters_wrt(subspace: Subspace) -> SubsetFamily:
    """All A-filters of the subspace A, in sorted mask order."""
    pairs = induced_closures(subspace)[0]._concepts
    return SubsetFamily(subspace.poset.n, (f for f, _ in pairs))


class Hull(NamedTuple):
    """Result of generating an ideal/filter from a subset of the carrier.

    ``found`` is False when no family member contains the subset; the
    hull then degenerates to the full carrier by convention.
    """

    subset: int
    found: bool


def _generated(subspace: Subspace, image, subset: int) -> Hull:
    """The cut of the points whose image holds all of ``subset``."""
    if subset & ~subspace.poset.full:
        raise MemberOutOfRange("subset has elements outside the carrier")
    x = subspace.all_mask
    for p in bits(subset):
        x &= image(p)
    return Hull(_cut(subspace, image, x), x != 0)


def generated_ideal(subspace: Subspace, subset: int) -> Hull:
    """Smallest A-ideal containing ``subset``, if any contains it at all."""
    return _generated(subspace, subspace.lo_image, subset)


def generated_filter(subspace: Subspace, subset: int) -> Hull:
    """Smallest A-filter containing ``subset``, if any contains it at all."""
    return _generated(subspace, subspace.up_image, subset)


# --- separation properties ----------------------------------------------------


def _fullness_witnesses(subspace: Subspace):
    """(p, q, indices of the points holding p but not q) over the
    non-relations p <= q, p outer and q inner."""
    poset = subspace.poset
    for p in range(poset.n):
        for q in range(poset.n):
            if not poset.leq(p, q):
                yield p, q, subspace.up_image(p) & ~subspace.up_image(q)


def is_full(subspace: Subspace):
    """Does some point witness every non-relation p <= q?

    Returns (answer, counterexample pair or None).
    """
    for p, q, held in _fullness_witnesses(subspace):
        if not held:
            return False, (p, q)
    return True, None


def is_separating(subspace: Subspace):
    """Is every disjoint A-ideal/A-filter pair separated by a point of A?

    Returns (answer, counterexample (ideal, filter) masks or None), the
    first in ideal then filter mask order.
    """
    return _separates(subspace, induced_closures(subspace))


def _separates(subspace: Subspace, closures):
    """``is_separating`` on the pair ``induced_closures(subspace)`` built:
    the A-filters and A-ideals, each with the X it cuts, are its concepts.

    A filter that is a point a of A is separated from every ideal it
    misses by a itself, which vanishes on that ideal and holds the
    filter, so only the other filters are indexed (none on a full dual).
    Bit j of ``misses[p]`` says indexed filter j misses p, so ``misses``
    is the complement of the filters' transpose. The AND of those masks
    over an ideal's elements is the set of indexed filters disjoint from
    it, tested lowest bit (smallest filter) first, so the witness is the
    first unseparated pair in ideal then filter order.
    """
    filters, ideals = closures[0]._concepts, closures[1]._concepts
    points = set(subspace.points)
    rest = [(filt, y) for filt, y in filters if filt not in points]
    if not rest:
        return True, None
    everything = (1 << len(rest)) - 1
    columns = _transpose([filt for filt, _ in rest], subspace.poset.n)
    misses = [everything ^ c for c in columns]
    for ideal, x in ideals:
        disjoint = everything
        for p in bits(ideal):
            disjoint &= misses[p]
        for j in bits(disjoint):
            filt, y = rest[j]
            if not x & y:
                return False, (ideal, filt)
    return True, None


def remove_constants(subspace: Subspace) -> Subspace:
    """Drop the two constant maps; only sensible over a bounded base."""
    poset = subspace.poset
    if not poset.is_bounded():
        raise NotBounded("constant removal requires a bounded base poset")
    keep = [s for s in subspace.points if s != 0 and s != poset.full]
    return Subspace._known(poset, keep)
