"""The representation engine.

Every poset P embeds into the closed-open family of its dual space: send
p to the set of dual points taking the value 1 at p. When the subspace
used is full and separating, that map is an order isomorphism. Special
subspaces specialize the picture: the orthodual of an orthocomplemented
poset carries a single closure and a clopen representation, the morphism
dual of a distributive lattice carries two topological closures, and for
a Boolean lattice the constant-free morphism dual is a point space in
the classical sense.

This module computes the map, verifies all of the above mechanically on
concrete instances, enumerates the subspaces that induce
orthocomplementations, and packages everything as reports with
machine-readable witnesses.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

from .bitops import (
    BLOCK,
    _transpose,
    and_folds,
    and_table,
    and_tables,
    bits,
    cut,
    lane_fold,
    lane_images,
    or_table,
)
from .closure import ClosureOperator, closed_open_family, induced_closures
from .dualspace import (
    DUAL_POINT_CAP,
    Subspace,
    _lattice_dual,
    _lattice_families,
    _orthodual,
    _separates,
    dual_space,
    is_full,
    is_separating,
    lattice_dual,
    orthodual_space,
    remove_constants,
)
from .errors import (
    BoundExceeded,
    NotBoolean,
    NotBounded,
    NotDistributive,
    NotSelfdual,
)
from .poset import (
    MAX_CATALOG_N,
    OrthoMap,
    Poset,
    SubsetFamily,
    enumerate_posets,
    find_orthocomplementations,
    poset_to_json,
)

SWEEP_CAP = 14


# --- representation reports ---------------------------------------------------


@dataclass(frozen=True)
class RepresentationReport:
    """Everything worth knowing about the point-image map on one subspace."""

    subspace: Subspace
    sigma_table: tuple
    family: SubsetFamily
    isotone: bool
    injective: bool
    into: bool
    surjective: bool
    order_reflecting: bool
    isomorphism: bool
    full: bool
    separating: bool
    consistent: bool
    closures_coincide: bool
    exact: tuple
    topological: tuple
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        labels = self.subspace.poset.labels
        return {
            "points": self.subspace.to_json(),
            "sigma": {
                labels[p]: sorted(bits(img))
                for p, img in enumerate(self.sigma_table)
            },
            "family": [sorted(bits(x)) for x in self.family],
            "flags": {
                "isotone": self.isotone,
                "injective": self.injective,
                "into": self.into,
                "surjective": self.surjective,
                "order_reflecting": self.order_reflecting,
                "isomorphism": self.isomorphism,
                "full": self.full,
                "separating": self.separating,
                "consistent": self.consistent,
                "closures_coincide": self.closures_coincide,
                "exact": list(self.exact),
                "topological": list(self.topological),
            },
            "witnesses": self.witnesses,
        }


def representation_report(poset: Poset, subspace: Subspace) -> RepresentationReport:
    """Check the point-image map p -> {x in A : x(p) = 1} on one subspace.

    The isomorphism verdict is decided directly (isotone, injective, into
    and onto the closed-open family, order reflecting, which is fullness);
    the separating flag is computed independently so callers can confirm
    the expected implications rather than assume them.
    """
    return _read(poset, subspace)[0]


def _read(poset: Poset, subspace: Subspace):
    """``representation_report`` and its (c1, c2) closure pair, as
    (report, pair): the pair carries the A-filters and A-ideals its
    separation test read, as the concepts of c1 and c2, and the caller
    holds it, not the report."""
    if subspace.poset != poset:
        raise ValueError("subspace is over a different poset")
    c1, c2 = induced_closures(subspace)
    table = subspace._up_images
    family = closed_open_family(c1, c2)
    witnesses: dict = {}
    labels = poset.labels

    # A is full exactly when the map reflects the order: a point holding
    # p but not q is what keeps table[p] out of table[q]
    full_ok, full_wit = is_full(subspace)
    if full_wit is not None:
        pair = (labels[full_wit[0]], labels[full_wit[1]])
        witnesses["order_reflecting"] = witnesses["full"] = pair

    # p <= q with table[p] outside table[q] breaks isotony. Inclusion is
    # transitive, so the covering pairs decide it; only when one fails
    # are the rows scanned, for the first such (p, q) in row order
    isotone = not any(
        table[p] & ~table[q] for p, row in enumerate(poset.covers) for q in bits(row)
    )
    if not isotone:
        witnesses["isotone"] = next(
            (labels[p], labels[q])
            for p, row in enumerate(poset.up)
            for q in bits(row)
            if table[p] & ~table[q]
        )
    # an earlier p with the same image breaks injectivity
    first: dict = {}
    for q, image in enumerate(table):
        p = first.setdefault(image, q)
        if p != q:
            witnesses["injective"] = (labels[p], labels[q])
            break
    injective = "injective" not in witnesses

    in_family = set(family)
    outside = next((x for x in table if x not in in_family), None)
    into = outside is None
    if not into:
        witnesses["into"] = sorted(bits(outside))

    image = set(table)
    missing = next((x for x in family if x not in image), None)
    surjective = missing is None
    if missing is not None:
        witnesses["surjective"] = sorted(bits(missing))

    isomorphism = isotone and injective and into and surjective and full_ok

    sep_ok, sep_wit = _separates(subspace, (c1, c2))
    if sep_wit is not None:
        witnesses["separating"] = [
            _subset_labels(poset, sep_wit[0]),
            _subset_labels(poset, sep_wit[1]),
        ]
    # Separation forces every closed-open set onto a point image EXCEPT
    # possibly the empty set and A itself: ideal families are generated
    # by nonempty point families, so the argument pinning B to an image
    # needs B and its complement both nonempty. Both gaps are realized
    # (two incomparable one-point images over the 2-antichain), so the
    # cross-check must not demand more.
    missable = {0, subspace.all_mask}
    covered = all(x in image for x in family if x not in missable)
    consistent = (not full_ok or injective) and (not sep_ok or covered)

    return RepresentationReport(
        subspace=subspace,
        sigma_table=table,
        family=family,
        isotone=isotone,
        injective=injective,
        into=into,
        surjective=surjective,
        order_reflecting=full_ok,
        isomorphism=isomorphism,
        full=full_ok,
        separating=sep_ok,
        consistent=consistent,
        closures_coincide=c1 == c2,
        exact=(c1.is_exact(), c2.is_exact()),
        topological=(c1.is_topological(), c2.is_topological()),
        witnesses=witnesses,
    ), (c1, c2)


def represent_general(poset: Poset, dual_cap: int = DUAL_POINT_CAP):
    """Represent P inside the closed-open family of its full dual space.

    Returns (subspace, family, report). The isomorphism holds for every
    finite poset, so a failure here is a bug and raises RuntimeError.
    """
    star = dual_space(poset, dual_cap)
    report = representation_report(poset, star)
    if not report.isomorphism:
        raise RuntimeError("representation over the full dual space failed")
    return star, report.family, report


# --- specialized representations ----------------------------------------------


@dataclass(frozen=True)
class ClosureSpace:
    """A subspace carrying one closure, with its clopen family."""

    subspace: Subspace
    closure: ClosureOperator
    clopen: SubsetFamily


@dataclass(frozen=True)
class StoneSpace(ClosureSpace):
    """A point space for a Boolean lattice: constant-free morphism dual,
    its (single) closure, the clopen algebra, and one kernel per point."""

    kernels: tuple


def _require(laws: dict, what: str) -> None:
    """Raise RuntimeError naming every failed law; a failure is a bug."""
    failed = [name for name, ok in laws.items() if not ok]
    if failed:
        raise RuntimeError(f"{what} failed: {', '.join(failed)}")


def _cones(space: Subspace):
    """The A-ideal and the A-filter generated by each element, as two
    tuples indexed by element: the cut of its lo-image and of its up-image."""
    los, ups = space._lo_images(), space._up_images
    return tuple(cut(los, x) for x in los), tuple(cut(ups, x) for x in ups)


def _ortho_laws(poset: Poset, ortho: OrthoMap, report: RepresentationReport) -> dict:
    """Laws of the orthodual of ``ortho``, read from its report."""
    space = report.subspace
    table = report.sigma_table
    downs, ups = _cones(space)
    return {
        "closures_coincide": report.closures_coincide,
        "isomorphism": report.isomorphism,
        "complement_as_set_complement": all(
            table[ortho(p)] == space.all_mask ^ table[p] for p in range(poset.n)
        ),
        "cones": downs == poset.down and ups == poset.up,
    }


def _distributive_laws(report: RepresentationReport) -> dict:
    """Laws of the morphism dual of a distributive lattice."""
    return {
        "topological": all(report.topological),
        "isomorphism": report.isomorphism,
    }


def represent_orthoposet(
    poset: Poset, ortho: OrthoMap, dual_cap: int = DUAL_POINT_CAP
):
    """Clopen representation over the orthodual of an orthocomplementation.

    The two induced closures coincide, the clopen family of the common
    closure recovers the poset, the orthocomplementation turns into set
    complementation and generated cones into order cones. All of this
    is verified; a failure is a bug and raises RuntimeError.
    """
    space = orthodual_space(poset, ortho, dual_cap)
    report, (c1, _) = _read(poset, space)
    _require(_ortho_laws(poset, ortho, report), "orthodual representation")
    # with coinciding closures the closed-open family is the first
    # closure's clopen family
    return ClosureSpace(space, c1, report.family), report


def represent_distributive(poset: Poset, dual_cap: int = DUAL_POINT_CAP):
    """Topological representation of a distributive lattice over its
    morphism dual. Raises NotDistributive on other inputs."""
    if not poset.is_distributive():
        raise NotDistributive("morphism-dual representation needs distributivity")
    morph = lattice_dual(poset, dual_cap)
    report = representation_report(poset, morph)
    _require(_distributive_laws(report), "morphism-dual representation")
    return morph, report.family, report


def stone(poset: Poset, dual_cap: int = DUAL_POINT_CAP) -> StoneSpace:
    """Point space of a Boolean lattice: the constant-free morphism dual.

    The two closures coincide, are exact and topological, the clopen
    algebra is isomorphic to the input, and each point's kernel is a
    maximal lattice ideal (annotated on the result).
    """
    if not poset.is_boolean():
        raise NotBoolean("point-space construction needs a Boolean lattice")
    points = remove_constants(lattice_dual(poset, dual_cap))
    space, laws = _stone(*_read(poset, points))
    _require(laws, "point-space representation")
    return space


def _stone(report: RepresentationReport, closures):
    """The point space read from the report on the constant-free morphism
    dual and from its closure pair, and the laws of that dual of a Boolean
    lattice; the clopen algebra is the closed-open family, which is the
    first closure's clopen family once the closures coincide."""
    points = report.subspace
    kernels = tuple(points.kernel(i) for i in range(points.size))
    space = StoneSpace(points, closures[0], report.family, kernels)
    return space, {
        "closures_coincide": report.closures_coincide,
        "exact": all(report.exact),
        "topological": all(report.topological),
        "isomorphism": report.isomorphism,
    }


# --- subspaces inducing orthocomplementations -----------------------------------


def selfdual_subspaces(
    poset: Poset, cap: int = SWEEP_CAP, dual_cap: int = DUAL_POINT_CAP
) -> list:
    """All subspaces of the dual space that are full, separating, and whose
    two induced closures coincide.

    The sweep is exhaustive over all subsets of the dual space, so it is
    guarded by ``cap`` on the dual point count. The empty subspace can
    qualify only over a poset of at most one element, where fullness is
    vacuous: over one element it is the orthodual of the identity
    complementation, and over none both subspaces qualify.
    """
    return _selfdual_sweep(dual_space(poset, dual_cap), cap)


# points in the low half of a swept subset: its fullness table has 2^9 entries
_LOW_BITS = 9


def _selfdual_sweep(star: Subspace, cap: int) -> list:
    """``selfdual_subspaces`` over an already built dual space."""
    m = star.size
    if m > cap:
        raise BoundExceeded(
            f"dual space has {m} points, subset sweep bound is {cap}"
        )
    full, ups = star.poset.full, star._up_images
    # a subset is full iff it hits every witness (the points holding p but
    # not q, p <= q false); read which witnesses its low k points and the
    # rest hit, as a bit per witness, from one table per half
    pairs = ((p, q) for p, row in enumerate(star.poset.up) for q in bits(full ^ row))
    witnesses = sorted({ups[p] & ~ups[q] for p, q in pairs})
    columns = _transpose(witnesses, m)
    k = min(m, _LOW_BITS)
    low_hits = or_table(columns[:k])
    every = (1 << len(witnesses)) - 1
    found = []
    # the low halves completing each high half, cached per missing set of
    # witnesses (M4 has 74 for 512 high halves); the lists share one copy
    # of the ints
    index = list(range(1 << k))
    lows_for: dict = {}
    keep_ups = _cut_filter(ups, m, k)
    keep_los = _cut_filter(star._lo_images(), m, k)
    for high, high_hit in enumerate(or_table(columns[k:])):
        need = every & ~high_hit
        lows = lows_for.get(need)
        if lows is None:
            lows = lows_for[need] = [
                b for b, hit in zip(index, low_hits) if hit & need == need
            ]
        base = high << k
        for low in keep_los(high, keep_ups(high, lows)):
            space = star.restrict(base | low)
            if is_separating(space)[0]:
                found.append(space)
    return found


def _cut_filter(rows, m: int, k: int):
    """The closures' coincidence test on one side, as a filter.

    The families generated by {t & sub} and {sub & ~t} over the up-images
    t coincide iff each generator of one is an intersection of generators
    of the other, so the sweep asks of the up-images and of the lo-images
    whether each cut sub & ~r (r in rows) is the intersection of the sets
    t & sub that contain it. That intersection contains the cut, so the
    two are equal iff sub misses r & AND{t : t contains the cut}.

    A row t misses the cut iff sub hits ~r & ~t, so the rows missing it
    are the OR of one entry for sub's low k points (a table per row,
    grown by doubling) and one for the rest (an OR over its bits). The
    AND over the other rows is one lookup in ``and_tables`` over
    t & r, each block reversed so that it is indexed by the rows left out.

    Returns keep(high, lows): the low halves, in their order, whose
    subsets high << k | low pass the test on every row, filtered one row
    at a time. A row's tables are built when a subset first reaches it.
    """
    everything = (1 << len(rows)) - 1
    misses = [everything ^ c for c in _transpose(rows, m)]
    tables = [None] * len(rows)

    def build(i: int):
        r = rows[i]
        columns = [0 if r >> p & 1 else col for p, col in enumerate(misses)]
        ands = [t[::-1] for t in and_tables([t & r for t in rows], r)]
        tables[i] = or_table(columns[:k]), columns[k:], ands
        return tables[i]

    def keep(high: int, lows: list) -> list:
        base = high << k
        high_bits = list(bits(high))
        for i in range(len(rows)):
            if not lows:
                break
            low_missed, high_columns, ands = tables[i] or build(i)
            missed = 0
            for j in high_bits:
                missed |= high_columns[j]
            if len(ands) == 1:
                (a,) = ands
                lows = [b for b in lows if not (base | b) & a[low_missed[b] | missed]]
            else:
                folds = and_folds(ands, [low_missed[b] | missed for b in lows])
                lows = [b for b, a in zip(lows, folds) if not (base | b) & a]
        return lows

    return keep


def maximal_subspaces(spaces) -> list:
    sets = [set(a.points) for a in spaces]
    return [a for a, pa in zip(spaces, sets) if not any(pb > pa for pb in sets)]


def induced_orthocomplementation(subspace: Subspace) -> OrthoMap:
    """Pull set complementation on the represented family back to the poset.

    The base poset must be bounded and the subspace full, separating,
    and carrying coinciding closures; NotBounded or NotSelfdual is
    raised otherwise. Boundedness matters: without a bottom and top the
    empty set and the whole subspace need not be point images, and the
    complementation has nowhere to send them.
    """
    poset = subspace.poset
    if not poset.is_bounded():
        raise NotBounded("complementation needs a bottom and a top")
    if not is_full(subspace)[0]:
        raise NotSelfdual("subspace is not full")
    c1, c2 = induced_closures(subspace)
    if not _separates(subspace, (c1, c2))[0]:
        raise NotSelfdual("subspace is not separating")
    if c1 != c2:
        raise NotSelfdual("the two induced closures differ")
    table = subspace._up_images
    where = {img: p for p, img in enumerate(table)}
    perm = []
    for p in range(poset.n):
        q = where.get(subspace.all_mask ^ table[p])
        if q is None:
            raise RuntimeError("complement of a point image is not a point image")
        perm.append(q)
    return OrthoMap(poset, tuple(perm))


def ortho_correspondence(
    poset: Poset, cap: int = SWEEP_CAP, dual_cap: int = DUAL_POINT_CAP
):
    """Match orthocomplementations with maximal selfdual subspaces.

    Verifies that f -> orthodual(f) is a bijection onto the maximal
    subspaces and that the induced complementation inverts it. Returns
    (verdict, report dict). The statement is about bounded posets;
    NotBounded is raised otherwise (an unbounded poset can have
    nonempty selfdual collection yet no orthocomplementation at all).
    """
    if not poset.is_bounded():
        raise NotBounded("the correspondence is stated for bounded posets")
    star = dual_space(poset, dual_cap)
    orthos = find_orthocomplementations(poset)
    duals = [_orthodual(star, f) for f in orthos]
    return _correspondence(star, orthos, duals, cap)


def _correspondence(star: Subspace, orthos: list, duals: list, cap: int):
    """``ortho_correspondence`` over the dual space ``star`` of a bounded
    poset whose orthocomplementations ``orthos`` and their orthoduals
    ``duals`` (in the same order) are already built."""
    spaces = _selfdual_sweep(star, cap)
    maxima = maximal_subspaces(spaces)
    max_points = {a.points for a in maxima}
    # each f's orthodual is a maximal subspace that gives f back, so
    # f -> orthodual(f) is injective on distinct maps; equal counts then
    # make it a bijection whose inverse is the induced complementation
    ok = len(set(orthos)) == len(orthos) == len(maxima)
    for f, space in zip(orthos, duals):
        if space.points not in max_points or induced_orthocomplementation(space) != f:
            ok = False
    report = {
        "orthocomplementations": len(orthos),
        "selfdual_subspaces": len(spaces),
        "maximal_subspaces": len(maxima),
        "matched": ok,
    }
    return ok, report


# --- check suites ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    passed: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "pass": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class SuiteReport:
    poset: Poset
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "poset": poset_to_json(self.poset),
            "checks": [c.to_json() for c in self.checks],
        }


def _subset_labels(poset: Poset, mask: int) -> list:
    return sorted(poset.labels[i] for i in bits(mask))


def _packed_cuts(subspace: Subspace):
    """AND tables over the points packed as one-set beside kernel, and
    the kernel's shift.

    The kernel sits at the first block boundary at or above n, so one
    fold over a subset x gives the A-filter it cuts out in the low blocks
    and the A-ideal from ``shift`` up. A fold through tables over n masks
    reads only those low blocks, so it takes the filter half in place.
    """
    n = subspace.poset.n
    shift = BLOCK * max(1, -(-n // BLOCK))
    carrier = subspace.poset.full
    tables = and_tables(
        [s | subspace.kernel(i) << shift for i, s in enumerate(subspace.points)],
        carrier | carrier << shift,
    )
    return tables, shift


def _every_cut(subspace: Subspace):
    """Every subset's A-filter and A-ideal, in two lists indexed by the
    subset: one doubling pass over the one-sets, one over the kernels."""
    carrier, kernels = subspace.poset.full, map(subspace.kernel, range(subspace.size))
    return and_table(subspace.points, carrier), and_table(kernels, carrier)


def _closure_formula_agrees(subspace: Subspace, c1, c2, xs):
    """Compare apply() against the filter/ideal intersection formulas.

    The right-hand sides come from the points' one-sets alone: the
    A-filter and the A-ideal cut out by x, then the intersection of the
    up-images (lo-images) over them, by blocked AND tables. When xs is
    every subset the cuts come from ``_every_cut``; otherwise one fold of
    ``_packed_cuts`` per batch gives both. Up to 16 poset elements that
    fold is ``lane_fold``'s: its byte lanes, one per 8 elements of a cut,
    index the image blocks, each read with one ``map`` (``lane_images``),
    and an exhaustive batch's cuts are read so as one lane when n <= 8;
    a sampled batch's subsets reach the fold packed as 8-byte words in
    one C call while the dual has at most 64 points. Otherwise the folds
    are ``and_folds``'s. No table looks at apply() or at which images
    contain x. The tables are read over a batch of ``_BATCH`` xs at a
    time, so a 2,048-subset sample is two batches; apply() is still
    called once per x and closure. The witness is the first failing x in
    xs.
    """
    n = subspace.poset.n
    every = subspace.size <= _EXHAUSTIVE_LIMIT and xs == range(1 << subspace.size)
    ups = and_tables(subspace._up_images, subspace.all_mask)
    los = and_tables(subspace._lo_images(), subspace.all_mask)
    lanes = len(ups)
    if every:
        filters, ideals = _every_cut(subspace)
        laned = lanes == 1
    else:
        cuts, shift = _packed_cuts(subspace)
        laned = n <= 2 * BLOCK
        fold = lane_fold(cuts, 2 * lanes) if laned else None
    read = lane_images if laned else and_folds
    for start in range(0, len(xs), _BATCH):
        span = slice(start, start + _BATCH)
        batch = xs[span]
        got1 = list(map(c1.apply, batch))
        got2 = list(map(c2.apply, batch))
        if every:
            filt, ideal = filters[span], ideals[span]
            if laned:
                filt, ideal = [filt], [ideal]
        elif laned:
            cut = fold(batch)
            filt, ideal = cut[:lanes], cut[lanes:]
        else:
            filt = and_folds(cuts, batch)
            ideal = [cut >> shift for cut in filt]
        want1 = read(ups, filt)
        want2 = read(los, ideal)
        if got1 != want1 or got2 != want2:
            rows = zip(batch, got1, want1, got2, want2)
            return False, next(
                x for x, g1, w1, g2, w2 in rows if g1 != w1 or g2 != w2
            )
        # dropped before the next batch is made, not when rebound: that
        # made antichain(12)'s check (4,096-bit values) about 5% faster at
        # batches of 1,024 subsets
        del got1, got2, want1, want2, filt, ideal
    return True, None


# the closure-equation check takes every subset up to this many points,
# and this many seeded random subsets above it
_EXHAUSTIVE_LIMIT = 12
_SAMPLES = 2048
# subsets per fold of the closure-equation tables: 2,048 measured no
# faster, and 1,024 keeps a sample at two batches
_BATCH = 1024


def _subset_sample(m: int):
    if m <= _EXHAUSTIVE_LIMIT:
        return range(1 << m)
    rng = random.Random(0xB1C105)
    return list(map(rng.getrandbits, [m] * _SAMPLES))


class _Context:
    """What the suites of one ``check_poset`` call share, each object
    built the first time a suite reads it: the dual space, the morphism
    dual and the lattice ideal and filter families filtered from it."""

    def __init__(self, poset: Poset, sweep_cap: int, dual_cap: int):
        self.poset = poset
        self.sweep_cap = sweep_cap
        self.dual_cap = dual_cap

    @cached_property
    def star(self) -> Subspace:
        return dual_space(self.poset, self.dual_cap)

    @cached_property
    def morph(self) -> Subspace:
        return _lattice_dual(self.star)

    @cached_property
    def families(self):
        return _lattice_families(self.star) if self.poset.n <= 16 else (None, None)


# Each suite yields (name, passed, witness) for the checks that apply.


def _general(ctx: _Context):
    poset, star = ctx.poset, ctx.star
    rep, (c1, c2) = _read(poset, star)
    ideals = {i for i, _ in c2._concepts}
    filters = {f for f, _ in c1._concepts}
    del c1, c2  # the report's closed families, not held through the checks
    # a false consistent flag already breaks the isomorphism, so the flag
    # cannot fail this check alone; it stays to guard the report's own
    # isomorphism computation
    flags = None if rep.isomorphism else {"flags": rep.to_json()["flags"]}
    yield "dual-representation", rep.isomorphism and rep.consistent, flags
    ok = rep.full and rep.separating
    yield "dual-full-separating", ok, None if ok else rep.witnesses

    ideals_ok = ideals == {poset.full ^ s for s in star.points}
    filters_ok = filters == set(star.points)
    ok = ideals_ok and filters_ok
    witness = {"ideals": ideals_ok, "filters": filters_ok}
    yield "ideals-are-downsets", ok, None if ok else witness

    # a pair of its own: on the report's, whose closed families are
    # built, the check ran slower
    c1, c2 = induced_closures(star)
    ok, x = _closure_formula_agrees(star, c1, c2, _subset_sample(star.size))
    yield "closure-equations", ok, None if ok else {"subset": sorted(bits(x))}

    # the cone hypothesis alone forces fullness (were p <= q false with no
    # point holding p but not q, q would lie in the ideal generated by q
    # and the filter generated by p), and is_full and _cones read one cut:
    # the check has no bite of its own and states the paper's hypothesis.
    # test_cut_matches_pairwise_subset_tests and
    # test_cones_match_pairwise_subset_tests pin the cut independently
    downs, ups = _cones(star)
    hyp = not any(
        downs[p] & ups[q]
        for p, col in enumerate(poset.down)
        for q in bits(poset.full ^ col)
    )
    witness = {"separating": rep.separating, "cones_disjoint": hyp, "full": rep.full}
    yield "separating-cone-fullness", not (rep.separating and hyp) or rep.full, witness

    if poset.is_bounded():
        rep2 = representation_report(poset, remove_constants(star))
        ok = rep2.full and rep2.separating and rep2.isomorphism
        yield "constant-removal", ok, None if ok else rep2.witnesses


def _ortho(ctx: _Context):
    poset = ctx.poset
    if not poset.is_bounded():
        return
    # the dual space first, so that its cap is the one named when the
    # search's node cap is exceeded too
    star = ctx.star
    orthos = find_orthocomplementations(poset)
    duals = [_orthodual(star, f) for f in orthos]
    for k, (f, space) in enumerate(zip(orthos, duals)):
        laws = _ortho_laws(poset, f, representation_report(poset, space))
        ok = all(laws.values())
        yield f"ortho-representation-{k}", ok, None if ok else laws
    if star.size <= ctx.sweep_cap:
        ok, detail = _correspondence(star, orthos, duals, ctx.sweep_cap)
        yield "ortho-correspondence", ok, detail


def _distributive(ctx: _Context):
    poset = ctx.poset
    if not poset.is_lattice():
        return
    is_dist = poset.is_distributive()
    rep, (c1, c2) = _read(poset, ctx.morph)
    fullsep = rep.full and rep.separating
    witness = {"distributive": is_dist, "full_separating": fullsep}
    yield "distributive-iff-full-separating", is_dist == fullsep, witness
    if not is_dist:
        return
    ideals, filters = ctx.families
    if ideals is not None:
        ok = {i for i, _ in c2._concepts} == set(ideals)
        ok = ok and {f for f, _ in c1._concepts} == set(filters)
        yield "lattice-ideals-coincide", ok, None
    ok = all(_distributive_laws(rep).values())
    flags = None if ok else {"flags": rep.to_json()["flags"]}
    yield "distributive-representation", ok, flags


def _boolean(ctx: _Context):
    poset = ctx.poset
    if not poset.is_distributive():
        return
    is_bool = poset.is_boolean()
    rep, closures = _read(poset, remove_constants(ctx.morph))
    coincide = rep.closures_coincide
    witness = {"boolean": is_bool, "closures_coincide": coincide}
    yield "boolean-iff-coincident-closures", is_bool == coincide, witness
    if not is_bool:
        return
    space, laws = _stone(rep, closures)
    atoms = bin(poset.covers[poset.bottom]).count("1")
    # each kernel is a proper lattice ideal inside no other one
    ideals = ctx.families[0]
    proper = () if ideals is None else [d for d in ideals if d != poset.full]
    kernels_ok = ideals is None or all(
        ker in proper and not any(ker != d and ker & ~d == 0 for d in proper)
        for ker in space.kernels
    )
    laws_ok = all(laws.values())
    points, clopen = space.subspace.size, len(space.clopen)
    ok = laws_ok and kernels_ok and points == atoms and clopen == poset.n
    witness = {
        "points": points,
        "atoms": atoms,
        "clopen": clopen,
        "kernels_maximal_ideals": kernels_ok,
    }
    if not laws_ok:
        witness["laws"] = laws
    yield "stone-representation", ok, witness


_SUITE_CHECKS = dict(
    general=_general, ortho=_ortho, distributive=_distributive, boolean=_boolean
)
SUITES = ("all", *_SUITE_CHECKS)

# every check's statement, in the order the "all" suite first emits each
# name; ortho-representation-k reads the ortho-representation entry
_STATEMENTS = {
    "dual-representation": "the point-image map is an order isomorphism onto "
    "the closed-open family of the full dual space",
    "dual-full-separating": "the full dual space is full and separating",
    "ideals-are-downsets": "ideals relative to the full dual space are exactly "
    "the down-sets and filters exactly the up-sets",
    "closure-equations": "the base-generated closures agree with the filter- "
    "and ideal-driven intersection formulas",
    "separating-cone-fullness": "a separating subspace with disjoint generated "
    "cones over every non-related pair is full",
    "constant-removal": "dropping the two constant points keeps the dual full, "
    "separating, and representing",
    "ortho-representation": "the orthodual carries one closure whose clopen "
    "family recovers the poset, complementation becoming set complement and "
    "generated cones the order cones",
    "ortho-correspondence": "orthocomplementations correspond bijectively to "
    "maximal full separating subspaces with coinciding closures",
    "distributive-iff-full-separating": "the lattice is distributive exactly "
    "when its morphism dual is full and separating",
    "lattice-ideals-coincide": "ideals relative to the morphism dual are exactly "
    "the lattice ideals, filters the lattice filters",
    "distributive-representation": "both closures on the morphism dual are "
    "topological and its closed-open family recovers the lattice",
    "boolean-iff-coincident-closures": "the lattice is Boolean exactly when the "
    "two closures on its constant-free morphism dual coincide",
    "stone-representation": "the constant-free morphism dual has one point per "
    "atom, its clopen algebra matches the lattice, and every kernel is a "
    "maximal lattice ideal",
}


def _check_suite(suite: str) -> None:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, choose from {SUITES}")


def check_poset(
    poset: Poset,
    suite: str = "all",
    sweep_cap: int = SWEEP_CAP,
    dual_cap: int = DUAL_POINT_CAP,
) -> SuiteReport:
    """Run every applicable law check on one poset and report the outcomes.

    ``suite`` restricts attention to one group of checks; preconditions
    (bounded, lattice, distributive, Boolean) are detected, not assumed,
    so the suite runs on any poset and simply skips what does not apply.
    """
    _check_suite(suite)
    ctx = _Context(poset, sweep_cap, dual_cap)
    checks = [
        CheckResult(name, _STATEMENTS[name.rstrip("-0123456789")], passed, witness)
        for group, run in _SUITE_CHECKS.items()
        if suite in ("all", group)
        for name, passed, witness in run(ctx)
    ]
    return SuiteReport(poset, tuple(checks))


# --- catalog sweeps ---------------------------------------------------------------


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("BICLOSURE_THREADS", "1")))
    except ValueError:
        return 1


def sweep_catalog(max_n: int, suite: str = "all", sweep_cap: int = SWEEP_CAP) -> list:
    """Run the check suite over every isomorphism class up to ``max_n``.

    ``max_n`` above MAX_CATALOG_N raises BoundExceeded, and an unknown
    ``suite`` ValueError, before anything is enumerated. Workers:
    BICLOSURE_THREADS, at most one per CPU and per poset; results are in
    deterministic catalog order either way.
    """
    return list(_catalog_reports(max_n, suite, sweep_cap))


def _catalog_reports(max_n: int, suite: str, sweep_cap: int):
    """Yield each class's report in catalog order, serial or pooled, so
    that a consumer can hold one class's report at a time.

    The classes are enumerated one size at a time (all sizes first when
    pooled, since the pool is sized by the class count), and each list
    gives up its posets as they are checked, so a poset and the tables
    its checks cached live only as long as its report.
    """
    if max_n > MAX_CATALOG_N:
        raise BoundExceeded(
            f"poset catalog for n={max_n} exceeds the configured bound "
            f"{MAX_CATALOG_N}"
        )
    _check_suite(suite)
    sizes = map(enumerate_posets, range(1, max_n + 1))
    job = partial(check_poset, suite=suite, sweep_cap=sweep_cap)
    count = min(_worker_count(), os.cpu_count() or 1)
    if count > 1:
        sizes = list(sizes)
        count = min(count, sum(map(len, sizes)))
    posets = (p for size in sizes for p in _drained(size))
    if count > 1:
        # imported here so a serial run never loads the pool (and logging)
        import concurrent.futures

        # Executor.map yields in submission order
        with concurrent.futures.ProcessPoolExecutor(max_workers=count) as pool:
            yield from pool.map(job, posets)
    else:
        yield from map(job, posets)


def _drained(items: list):
    """Yield the items of a list in order, removing each from the list."""
    items.reverse()
    while items:
        yield items.pop()
