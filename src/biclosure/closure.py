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
closed-open family, equality and the topological test all read it. The
sorted ``closed_family`` is built from it only when something reads it.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CarrierMismatch, MemberOutOfRange
from .poset import SubsetFamily


class ClosureOperator:
    """Closure on {0..m-1} whose closed sets are intersections of a base.

    The closed sets are built on first use, each together with the mask
    of the generators (bit i for the i-th, in the order given) that hold
    it, in one dict that every family question reads; the sorted
    ``closed_family`` is built from that dict only when read. ``apply``
    needs only the base.
    """

    def __init__(self, m: int, base):
        if isinstance(base, SubsetFamily):
            if base.m != m:
                raise CarrierMismatch("base family lives on a different carrier")
            self._generators = base.members
        else:
            self._generators = tuple(base)
            base = SubsetFamily(m, self._generators)
        self.m = m
        self.full = (1 << m) - 1
        self.base = base
        # held here so apply() skips a lookup through the base per call
        self._members = base.members

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
    def closed_family(self) -> SubsetFamily:
        return SubsetFamily(self.m, self._intents)

    def apply(self, x: int) -> int:
        """Smallest closed superset of x."""
        if x & ~self.full:
            raise MemberOutOfRange("argument has bits outside the carrier")
        out = self.full
        for b in self._members:
            if x & b == x:
                out &= b
        return out

    def is_closed(self, x: int) -> bool:
        return self.apply(x) == x

    def is_exact(self) -> bool:
        """Is the empty set closed?"""
        return self.apply(0) == 0

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
        return hash((self.m, self.closed_family))

    def __repr__(self):
        return f"ClosureOperator(m={self.m}, base of {len(self.base)})"


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
    m = subspace.size
    n = subspace.poset.n
    ups = [subspace.up_image(p) for p in range(n)]
    los = [subspace.lo_image(p) for p in range(n)]
    return ClosureOperator(m, ups), ClosureOperator(m, los)
