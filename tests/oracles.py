"""Independent brute-force reference implementations.

Everything in this module recomputes a quantity from first principles,
deliberately avoiding the package's own data structures and algorithms:
sets of frozensets instead of bitmasks, itertools sweeps instead of
incremental closures, naive scans instead of cached tables. Slow on
purpose; meant for small carriers only.
"""

import itertools
from functools import reduce
from operator import or_


# --- order primitives ----------------------------------------------------------


def leq_fn(poset):
    """Comparison callback detached from the poset's internals."""
    pairs = {
        (i, j) for i in range(poset.n) for j in range(poset.n) if poset.leq(i, j)
    }
    return lambda a, b: (a, b) in pairs


def naive_meet(n, leq, a, b):
    lower = [z for z in range(n) if leq(z, a) and leq(z, b)]
    tops = [z for z in lower if all(leq(w, z) for w in lower)]
    return tops[0] if len(tops) == 1 else None


def naive_join(n, leq, a, b):
    upper = [z for z in range(n) if leq(a, z) and leq(b, z)]
    bottoms = [z for z in upper if all(leq(z, w) for w in upper)]
    return bottoms[0] if len(bottoms) == 1 else None


# --- order validation --------------------------------------------------------------
# The per-element loops that validated an order, listed its covers and
# scanned build_poset's closure for a cycle before those read the rows
# through bitops.or_rows and the up & down identity; kept as the
# references they are pinned against.


def order_axioms_error(labels, up):
    """The first error ``Poset(labels, up)`` should raise, as (exception
    class name, message), or None: range and reflexivity on every row
    first, then per element, in index order, antisymmetry (its lowest
    other j with i <= j <= i) before transitivity (the OR of the rows
    above i must be i's row)."""
    n = len(up)
    full = (1 << n) - 1
    for i, row in enumerate(up):
        if row & ~full:
            return "MemberOutOfRange", f"up[{i}] has bits outside the carrier"
        if not row >> i & 1:
            return "ValueError", f"order not reflexive at {labels[i]}"
    for i in range(n):
        reach = 0
        for j in range(n):
            if not up[i] >> j & 1:
                continue
            reach |= up[j]
            if j != i and up[j] >> i & 1:
                return (
                    "ValueError",
                    f"order not antisymmetric: {labels[i]} and {labels[j]}",
                )
        if reach != up[i]:
            return "ValueError", f"order not transitive at {labels[i]}"
    return None


def loop_covers(up):
    """Per element, its strict up-row less the strict up-row of every
    element in it."""
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    return tuple(
        row & ~reduce(or_, [strict[j] for j in range(len(up)) if row >> j & 1], 0)
        for row in strict
    )


def cycle_pair(n, pairs):
    """The (i, j) that build_poset's CycleError names for the index
    assertions ``pairs`` on n elements, or None: the reflexive transitive
    closure as a set of pairs grown to a fixed point, then the first i
    with some other j both above and below it, j the lowest."""
    le = {(i, i) for i in range(n)} | set(pairs)
    while more := {(a, d) for a, b in le for c, d in le if b == c} - le:
        le |= more
    return next(
        ((i, j) for i in range(n) for j in range(n) if i != j and {(i, j), (j, i)} <= le),
        None,
    )


# --- dual space ------------------------------------------------------------------


def brute_isotone_01_maps(n, leq):
    """All isotone maps into {0, 1}, each as the frozenset where it is 1."""
    out = set()
    for values in itertools.product((0, 1), repeat=n):
        if all(
            values[p] <= values[q] for p in range(n) for q in range(n) if leq(p, q)
        ):
            out.add(frozenset(i for i in range(n) if values[i]))
    return out


def brute_upsets(n, leq):
    out = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if all(q in s for p in s for q in range(n) if leq(p, q)):
                out.add(frozenset(s))
    return out


def brute_lattice_01_morphisms(n, leq):
    """Isotone 0/1 maps preserving binary meets and joins (as one-sets)."""
    out = set()
    for one_set in brute_isotone_01_maps(n, leq):
        ok = True
        for a in range(n):
            for b in range(n):
                m = naive_meet(n, leq, a, b)
                j = naive_join(n, leq, a, b)
                if m is None or j is None:
                    ok = False
                    break
                if ((m in one_set) != (a in one_set and b in one_set)) or (
                    (j in one_set) != (a in one_set or b in one_set)
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(one_set)
    return out


# --- ideals, fullness, separation --------------------------------------------------


def brute_ideal_family(point_one_sets, n):
    """All intersections of kernels over nonempty point families."""
    kernels = [frozenset(range(n)) - s for s in point_one_sets]
    out = set()
    for r in range(1, len(kernels) + 1):
        for combo in itertools.combinations(kernels, r):
            out.add(frozenset(reduce(lambda a, b: a & b, combo)))
    return out


def brute_filter_family(point_one_sets, n):
    out = set()
    sets = [frozenset(s) for s in point_one_sets]
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, r):
            out.add(frozenset(reduce(lambda a, b: a & b, combo)))
    return out


def brute_is_full(point_one_sets, n, leq):
    for p in range(n):
        for q in range(n):
            if not leq(p, q):
                if not any(p in s and q not in s for s in point_one_sets):
                    return False
    return True


def brute_is_separating(point_one_sets, n):
    ideals = brute_ideal_family(point_one_sets, n)
    filters = brute_filter_family(point_one_sets, n)
    for ideal in ideals:
        for filt in filters:
            if ideal & filt:
                continue
            if not any(
                filt <= s and not (ideal & s) for s in point_one_sets
            ):
                return False
    return True


def first_unseparated_pair(point_one_sets, n):
    """First disjoint ideal/filter pair no point separates, scanning ideals
    then filters in ascending mask order: (verdict, (ideal, filter) masks
    or None). Both families are grown as intersection closures of the
    kernels and one-sets, and each pair is tested against every point."""

    def to_mask(s):
        return sum(1 << i for i in s)

    def grow(generators):
        family = set()
        for g in generators:
            family |= {g} | {g & x for x in family}
        return sorted(family, key=to_mask)

    sets = [frozenset(s) for s in point_one_sets]
    ideals = grow([frozenset(range(n)) - s for s in sets])
    filters = grow(sets)
    for ideal in ideals:
        for filt in filters:
            if ideal & filt:
                continue
            if not any(filt <= s and not (ideal & s) for s in sets):
                return False, (to_mask(ideal), to_mask(filt))
    return True, None


def per_set_cuts(images, family):
    """(cut, x) over the nonempty x of ``family``, in mask order, each cut
    taken on its own: the elements p whose image holds all of x."""
    return sorted(
        (sum(1 << p for p, image in enumerate(images) if not x & ~image), x)
        for x in family
        if x
    )


def holding_rows(rows, x):
    """The indices i whose row holds every bit of x, as a set: one subset
    test per row, on sets of bit positions."""

    def positions(mask):
        return {b for b in range(mask.bit_length()) if mask >> b & 1}

    want = positions(x)
    return {i for i, row in enumerate(rows) if want <= positions(row)}


def pair_scan(ideal_pairs, filter_pairs):
    """Every (ideal, X) against every (filter, Y), ideals then filters in
    list order: the first disjoint pair whose closed sets X and Y do not
    meet, as (verdict, (ideal, filter) or None)."""
    for ideal, x in ideal_pairs:
        for filt, y in filter_pairs:
            if not ideal & filt and not x & y:
                return False, (ideal, filt)
    return True, None


def bit_transpose(rows, width):
    """Columns j < width of the bit rows, one bit at a time: bit i of
    column j is bit j of row i."""
    out = [0] * width
    for i, row in enumerate(rows):
        for j in range(width):
            if row >> j & 1:
                out[j] |= 1 << i
    return tuple(out)


# --- the point-image map ------------------------------------------------------------


def brute_order_flags(point_one_sets, n, leq):
    """First witness of each order flag of p -> {i : p in point i}, or None
    when the flag holds: "isotone" and "order_reflecting" give the first
    failing (p, q) with p outer and q inner, "injective" gives (q, p) for
    the first p that has an earlier q with the same image."""
    images = [
        frozenset(i for i, s in enumerate(point_one_sets) if p in s)
        for p in range(n)
    ]
    pairs = list(itertools.product(range(n), repeat=2))
    return {
        "isotone": next(
            ((p, q) for p, q in pairs if leq(p, q) and not images[p] <= images[q]),
            None,
        ),
        "order_reflecting": next(
            ((p, q) for p, q in pairs if images[p] <= images[q] and not leq(p, q)),
            None,
        ),
        "injective": next(
            ((q, p) for p in range(n) for q in range(p) if images[q] == images[p]),
            None,
        ),
    }


def row_scan_isotony(up, table):
    """The first (p, q) in row order with p <= q and table[p] outside
    table[q], or None: every relation of every up-row tested, as the
    report read isotony before the covering pairs decided it."""
    n = len(up)
    return next(
        (
            (p, q)
            for p, row in enumerate(up)
            for q in range(n)
            if row >> q & 1 and table[p] & ~table[q]
        ),
        None,
    )


# --- closures ----------------------------------------------------------------------


def brute_closed_family(m, base_sets):
    """All intersections of base members, plus the full carrier."""
    full = frozenset(range(m))
    out = {full}
    sets = [frozenset(s) for s in base_sets]
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, r):
            out.add(frozenset(reduce(lambda a, b: a & b, combo)))
    return out


def brute_intents(m, base_sets):
    """Each member of the brute family with the indices of the base
    members that hold it."""
    sets = [frozenset(s) for s in base_sets]
    return {
        x: frozenset(i for i, b in enumerate(sets) if x <= b)
        for x in brute_closed_family(m, base_sets)
    }


def brute_closure_apply(m, base_sets, x):
    """Smallest member of the brute family containing x."""
    family = brute_closed_family(m, base_sets)
    candidates = [c for c in family if set(x) <= c]
    return frozenset(reduce(lambda a, b: a & b, candidates))


def flat_closure_apply(full, generators, x):
    """The AND of every generator holding x, each one tested in turn: the
    loop ``ClosureOperator.apply`` ran before it walked the generators'
    inclusion forest."""
    out = full
    for b in generators:
        if x & b == x:
            out &= b
    return out


def cuts_generated(rows, sub):
    """Is each cut sub & ~r (r in rows) an intersection of the sets t & sub?

    The families generated by {u & sub} and {sub & ~u} over the up-images
    u coincide iff each generator of one is an intersection of generators
    of the other; asked of the up-images and of the lo-images, this is
    the selfdual sweep's coincidence test, one subset at a time.
    """
    for r in rows:
        cut = sub & ~r
        c = sub
        for t in rows:
            if cut & ~t == 0:
                c &= t
        if c != cut:
            return False
    return True


# --- counting oracles -----------------------------------------------------------------


def count_labeled_posets(n):
    """Count partial orders on {0..n-1} by sweeping all antisymmetric
    relations: each unordered pair is <, >, or incomparable."""
    pairs = list(itertools.combinations(range(n), 2))
    count = 0
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        less = set()
        for (a, b), c in zip(pairs, choice):
            if c == 1:
                less.add((a, b))
            elif c == 2:
                less.add((b, a))
        ok = True
        for (a, b) in less:
            for c in range(n):
                if (b, c) in less and (a, c) not in less:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def canonical_relation(n, leq):
    """Lexicographically least relation matrix over all relabelings."""
    best = None
    for perm in itertools.permutations(range(n)):
        bitsq = tuple(
            1 if leq(perm[i], perm[j]) else 0
            for i in range(n)
            for j in range(n)
        )
        if best is None or bitsq < best:
            best = bitsq
    return best


def count_labelings(poset):
    """Number of distinct labeled copies of one isomorphism class."""
    n = poset.n
    leq = leq_fn(poset)
    seen = set()
    for perm in itertools.permutations(range(n)):
        seen.add(
            tuple(
                1 if leq(perm[i], perm[j]) else 0
                for i in range(n)
                for j in range(n)
            )
        )
    return len(seen)


def brute_orthocomplementations(poset):
    """Orthocomplementation count via naive meets and joins."""
    n = poset.n
    leq = leq_fn(poset)
    bottoms = [i for i in range(n) if all(leq(i, j) for j in range(n))]
    tops = [i for i in range(n) if all(leq(j, i) for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        return []
    bottom, top = bottoms[0], tops[0]
    found = []
    for perm in itertools.permutations(range(n)):
        if any(perm[perm[i]] != i for i in range(n)):
            continue
        if any(
            leq(a, b) and not leq(perm[b], perm[a])
            for a in range(n)
            for b in range(n)
        ):
            continue
        if any(
            naive_meet(n, leq, i, perm[i]) != bottom
            or naive_join(n, leq, i, perm[i]) != top
            for i in range(n)
        ):
            continue
        found.append(perm)
    return found


def image_mask(perm, mask):
    """The image of the subset ``mask`` under the permutation ``perm``."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def brute_complements(poset):
    """Per element, the set of its complements under naive meets and
    joins; None when the poset has no bottom or no top."""
    n = poset.n
    leq = leq_fn(poset)
    bottoms = [i for i in range(n) if all(leq(i, j) for j in range(n))]
    tops = [i for i in range(n) if all(leq(j, i) for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        return None
    return [
        {
            j
            for j in range(n)
            if naive_meet(n, leq, i, j) == bottoms[0]
            and naive_join(n, leq, i, j) == tops[0]
        }
        for i in range(n)
    ]


def brute_lattice_ideals(poset):
    """Down-sets closed under naive binary join, the empty set included."""
    n = poset.n
    leq = leq_fn(poset)
    out = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if any(leq(w, z) and w not in s for z in s for w in range(n)):
                continue
            if any(naive_join(n, leq, a, b) not in s for a in s for b in s):
                continue
            out.add(frozenset(s))
    return out


def brute_lattice_filters(poset):
    """Up-sets closed under naive binary meet, the empty set included."""
    n = poset.n
    leq = leq_fn(poset)
    out = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if any(leq(z, w) and w not in s for z in s for w in range(n)):
                continue
            if any(naive_meet(n, leq, a, b) not in s for a in s for b in s):
                continue
            out.add(frozenset(s))
    return out


def brute_is_distributive(poset):
    n = poset.n
    leq = leq_fn(poset)
    for a in range(n):
        for b in range(n):
            if naive_meet(n, leq, a, b) is None or naive_join(n, leq, a, b) is None:
                return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = naive_meet(n, leq, a, naive_join(n, leq, b, c))
                rhs = naive_join(
                    n, leq, naive_meet(n, leq, a, b), naive_meet(n, leq, a, c)
                )
                if lhs != rhs:
                    return False
    return True


# --- direct table checks ----------------------------------------------------------
# These two read the package's own meet and join tables, which the tests
# check against naive_meet and naive_join separately; they restate the
# definitions element by element, so they reach sizes the naive sweeps
# above cannot.


def table_is_distributive(poset):
    """Meet over join on every triple of the meet and join tables."""
    if not poset.is_lattice():
        return False
    mt, jt, n = poset._meet_table, poset._join_table, poset.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mt[a][jt[b][c]] != jt[mt[a][b]][mt[a][c]]:
                    return False
    return True


def closed_under(table, d):
    """Is the set d (a mask) closed under the operation given by table?"""
    members = [i for i in range(d.bit_length()) if d >> i & 1]
    return all(d >> table[i][j] & 1 for i in members for j in members)
