"""Closure operators generated by subset bases.

A base is a family of subsets of a finite carrier; the closed sets are
all intersections of base members, with the empty intersection giving
the full carrier. So the full carrier is always closed, the closed sets
form a family closed under arbitrary intersection, and the closure of X
is the intersection of the base members containing X.

A subspace A of a dual space induces two such operators on A itself:
one generated by the up-images {x in A : x(p) = 1} over all p, one by
their complements. Most of the questions this package answers reduce to
how those two operators relate.

The closed family is grown in one pass, one generator at a time, and
each closed set is recorded with the mask of the generators that hold
it: extent and intent, in formal concept terms. On an induced closure
generator p comes from element p, so that mask is the closed set's
A-filter or A-ideal cut, and no second pass over the family takes it.

That dict is the one container of closed sets per closure: the
closed-open family, equality, hashing and the topological test read it,
and the closure's concepts, its (intent, extent) pairs in mask order,
are sorted from it. So an induced pair carries its own A-filters and
A-ideals, each with the points it cuts, and the separation test and a
report's readers take them from the pair. The sorted ``closed_family``
and ``base`` are built only when read.

``apply`` is the definition, the AND of the generators holding x, but
it reads them down their inclusion forest: each distinct generator hangs
under a strict superset, and one that misses x rules out every
generator below it. The union of the generators stands over the roots,
and is tested with the carrier bound: a set outside it costs that one
test. Otherwise the roots alone are tried until one holds x, so a set
no generator holds, most subsets in the closure-equation check, costs a
pass over the roots at most; on an antichain every generator is a root
and the pass is the flat loop. The forest is built from tests of
generators against each other, at most ``_PARENT_TESTS`` per generator,
on the first ``apply`` that reaches the roots; ``is_exact`` reads the
generators' AND, so construction, equality, hashing and the report
never build it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_, or_

from .errors import CarrierMismatch, MemberOutOfRange
from .poset import SubsetFamily


class ClosureOperator:
    """Closure on {0..m-1} whose closed sets are intersections of a base.

    The generators are held once, in the order given, and ``apply``
    reads only them, down their inclusion forest, planted when first
    needed;
    the closed sets with their intents (bit i for the i-th generator),
    and all that is read off them, are built on first use.
    """

    def __init__(self, m: int, base):
        if isinstance(base, SubsetFamily) and base.m != m:
            raise CarrierMismatch("base family lives on a different carrier")
        self.m = m
        self.full = (1 << m) - 1
        self._outside = ~self.full
        self._generators = tuple(base)
        union = reduce(or_, self._generators, 0)
        if union & self._outside:
            x = min(b for b in self._generators if b & self._outside)
            raise MemberOutOfRange(f"member {x:#x} exceeds carrier of size {m}")
        # a set with bits here lies in no generator, or outside the carrier
        self._beyond = ~union
        # the inclusion forest apply() walks, planted on its first call
        self._roots = self._walk = self._starts = None

    @cached_property
    def _intents(self) -> dict:
        """Each closed set mapped to the mask of the generators holding it.

        Generator i adds x & b for every closed x. The closed x with
        x & b = y all contain the closure of y so far, which holds the
        most generators, so OR-ing their masks (with bit i) gives exactly
        the generators up to i that hold y.
        """
        family = {self.full: 0}
        for i, b in enumerate(self._generators):
            bit = 1 << i
            grown: dict = {}
            for x, held in family.items():
                y = x & b
                grown[y] = grown.get(y, bit) | held
            family.update(grown)
        return family

    @cached_property
    def _concepts(self) -> list:
        """(intent, extent) over the nonempty closed sets, in mask order."""
        intents = self._intents
        pairs = sorted(zip(intents.values(), intents))
        if not pairs[-1][1]:  # a closed empty set: every generator holds it
            pairs.pop()
        return pairs

    @cached_property
    def base(self) -> SubsetFamily:
        return SubsetFamily(self.m, self._generators)

    @cached_property
    def closed_family(self) -> SubsetFamily:
        return SubsetFamily(self.m, self._intents)

    def apply(self, x: int) -> int:
        """Smallest closed superset of x: the AND of the generators
        holding it, read down their inclusion forest. Outside their
        union x is held by none; inside it the roots are tried in turn,
        and from the first that holds x the preorder walk goes on to the
        end, where a generator that misses x skips its subtree, whose
        members all lie inside it."""
        if x & self._beyond:
            if x & self._outside:
                raise MemberOutOfRange("argument has bits outside the carrier")
            return self.full
        roots = self._roots
        if roots is None:
            roots = self._plant()
        for b in roots:
            if x & b == x:
                break
        else:
            return self.full
        walk = self._walk
        stop = len(walk)
        i = self._starts[b] + 1
        out = b
        while i < stop:
            b, end = walk[i]
            if x & b == x:
                out &= b
                i += 1
            else:
                i = end
        return out

    def _plant(self) -> tuple:
        """Build the forest ``apply`` walks, on its first call."""
        self._walk, self._starts = _forest(self._generators)
        self._roots = tuple(self._starts)
        return self._roots

    def is_closed(self, x: int) -> bool:
        return self.apply(x) == x

    def is_exact(self) -> bool:
        """Is the empty set closed? It lies in every generator, so its
        closure is their AND."""
        return reduce(and_, self._generators, self.full) == 0

    def is_topological(self) -> bool:
        """Is the union of closed sets closed?

        Equivalent to apply(X | Y) == apply(X) | apply(Y) for all X, Y:
        unions of closures are closed one way, and a union-closed family
        makes apply(X) | apply(Y) the smallest closed set over X | Y.
        """
        family = self._intents
        members = tuple(family)
        return all(
            (a | b) in family
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        )

    def __eq__(self, other):
        return (
            isinstance(other, ClosureOperator)
            and self.m == other.m
            and self._intents.keys() == other._intents.keys()
        )

    def __hash__(self):
        return hash((self.m, frozenset(self._intents)))

    def __repr__(self):
        return f"ClosureOperator(m={self.m}, base of {len(self.base)})"


# tests per generator while looking for a strict superset to hang it
# under; one with none found in this many becomes a root
_PARENT_TESTS = 32


def _forest(generators) -> tuple:
    """The distinct generators as an inclusion forest, in preorder.

    Taken by popcount, largest first, each generator hangs under the
    first strict superset among the ``_PARENT_TESTS`` placed just before
    it, which has the fewest elements of those, so is minimal among
    them; with none it is a root. Returns (walk, starts): walk holds
    (b, end) per generator, end being the index just past b's subtree,
    and starts maps each root to its index. Only generators are tested,
    against each other and at most ``_PARENT_TESTS`` times each, so the
    build is linear in their count.
    """
    order = sorted(dict.fromkeys(generators), key=int.bit_count, reverse=True)
    parent = [-1] * len(order)
    for k, b in enumerate(order):
        for j in range(k - 1, max(k - _PARENT_TESTS, 0) - 1, -1):
            if b & order[j] == b:
                parent[k] = j
                break
    size = [1] * len(order)
    for k in range(len(order) - 1, -1, -1):
        if parent[k] >= 0:
            size[parent[k]] += size[k]
    # a generator is placed after its parent, so its slot is known: a
    # root opens the next free block, a child takes the next free slot
    # below its parent
    walk = [None] * len(order)
    free = [0] * len(order)
    starts: dict = {}
    top = 0
    for k, b in enumerate(order):
        j = parent[k]
        if j < 0:
            i = starts[b] = top
            top += size[k]
        else:
            i = free[j]
            free[j] += size[k]
        free[k] = i + 1
        walk[i] = (b, i + size[k])
    return walk, starts


def clopen_sets(c: ClosureOperator) -> SubsetFamily:
    """Members closed together with their complement."""
    return closed_open_family(c, c)


def closed_open_family(c1: ClosureOperator, c2: ClosureOperator) -> SubsetFamily:
    """Sets closed under the first operator whose complement is closed
    under the second."""
    if c1.m != c2.m:
        raise CarrierMismatch("operators live on different carriers")
    full = c1.full
    closed2 = c2._intents
    return SubsetFamily(c1.m, (x for x in c1._intents if (full ^ x) in closed2))


def induced_closures(subspace) -> tuple:
    """The two closures a subspace carries: one generated by the up-images
    of the base elements, one by their complements."""
    m, ups, los = subspace.size, subspace._up_images, subspace._lo_images()
    return ClosureOperator(m, ups), ClosureOperator(m, los)
