"""The three benchmark workloads: inputs, requests and known answers.

Inputs are plain data (labels, up-masks, point masks) made from the seed
without calling the package; each pass turns them into fresh ``Poset``
and ``Subspace`` objects before its timer starts, so nothing one pass
computes on an object can be reused by the next. Known answers come from
constants recorded at the seed commit and from the brute-force oracles
in ``tests/oracles.py``; all oracle work happens after the timed passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from time import perf_counter_ns

# --- inputs as plain data ------------------------------------------------------


def antichain(k):
    return [f"a{i}" for i in range(k)], [1 << i for i in range(k)]


def chain(k):
    full = (1 << k) - 1
    return [f"c{i}" for i in range(k)], [full & ~((1 << i) - 1) for i in range(k)]


def boolean_algebra(atoms):
    n = 1 << atoms
    labels = ["{" + ",".join(str(b) for b in range(atoms) if x >> b & 1) + "}"
              for x in range(n)]
    up = [sum(1 << y for y in range(n) if x & ~y == 0) for x in range(n)]
    return labels, up


def bundle(middles):
    """Bottom, ``middles`` pairwise incomparable elements, top (M_k)."""
    n = middles + 2
    top = 1 << (n - 1)
    labels = ["0"] + [chr(ord("a") + i) for i in range(middles)] + ["1"]
    up = [(1 << n) - 1] + [1 << (i + 1) | top for i in range(middles)] + [top]
    return labels, up


def random_poset(rng, n, bounded, dual_band):
    """A random order on n elements, relabelled at random, whose number of
    up-sets lies in ``dual_band``. With ``bounded`` the inner n-2
    elements get a new bottom and top; without it, draws that happen to
    be bounded anyway are dropped, since a bounded poset costs an n!
    permutation scan. Draws repeat until the dual size fits, because the
    dual size sets the cost of almost every check and the cost of a pass
    should not depend much on the seed."""
    low, high = dual_band
    while True:
        labels, up = _random_order(rng, n, bounded)
        if not bounded and is_bounded(up):
            continue
        if low <= len(upsets(up)) <= high:
            return labels, up


def is_bounded(up) -> bool:
    """A least element (its up-set is everything) and a greatest one (in
    every up-set)."""
    common = (1 << len(up)) - 1
    for row in up:
        common &= row
    return common != 0 and (1 << len(up)) - 1 in up


def _random_order(rng, n, bounded):
    k = n - 2 if bounded else n
    density = rng.uniform(0.15, 0.6)
    up = [1 << i for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < density:
                up[i] |= 1 << j
    for i in reversed(range(k)):
        for j in range(i + 1, k):
            if up[i] >> j & 1:
                up[i] |= up[j]
    if bounded:
        top = 1 << (n - 1)
        up = [row | top for row in up] + [(1 << n) - 1, top]
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [0] * n
    for i in range(n):
        relabelled[perm[i]] = sum(1 << perm[j] for j in range(n) if up[i] >> j & 1)
    return [f"x{i}" for i in range(n)], relabelled


def upsets(up):
    """Every up-set of the order given by ``up``, as masks."""
    n = len(up)
    order = sorted(range(n), key=lambda i: bin(up[i]).count("1"))
    out = []

    def grow(k, acc):
        if k == n:
            out.append(acc)
            return
        e = order[k]
        grow(k + 1, acc)
        if up[e] & ~(acc | 1 << e) == 0:
            grow(k + 1, acc | 1 << e)

    grow(0, 0)
    return sorted(out)


def _oracle_leq(up):
    return lambda a, b: bool(up[a] >> b & 1)


def _members(mask, n):
    return frozenset(i for i in range(n) if mask >> i & 1)


def _embeds(report) -> bool:
    """Full and separating make the point-image map an order embedding
    onto the closed-open family, save possibly the empty set and the
    whole subspace: a subspace may miss both ends (see
    test_full_separating_subspace_that_misses_the_ends), so this is the
    strongest form of "full and separating imply isomorphism" that holds
    for arbitrary subspaces."""
    image = set(report.sigma_table)
    ends = (0, report.subspace.all_mask)
    return (
        report.isotone
        and report.injective
        and report.into
        and report.order_reflecting
        and all(x in image for x in report.family if x not in ends)
    )


class Failures:
    """Verdicts lost to a request that raised or exited with an unexpected
    code, with the first cause kept for stderr."""

    def __init__(self):
        self.count = 0
        self.first = None

    def record(self, exc, verdicts=1):
        self.count += verdicts
        if self.first is None:
            self.first = repr(exc)


# --- catalog ----------------------------------------------------------------------


class Catalog:
    """``biclosure catalog --max-n 6 --suite all --out FILE``, in process.

    A verdict is one class. The input does not depend on the seed: the
    catalog is the whole set of isomorphism classes.
    """

    name = "catalog"
    # OEIS A000112, classes of posets on 1..6 elements
    CLASS_COUNTS = (1, 2, 5, 16, 63, 318)
    # sha256 of the JSON written at the seed commit; the default output
    # must stay byte-identical
    DIGEST = {
        6: "9d4ab6a1e33108256ebcf1b5f1abb0203b1dbeb146c839de02d4795b77c1eefd",
        4: "66cb47011dbe3698c44478717ec2359baa62062683ac63c91eab4c71dfeaa6a0",
    }

    def __init__(self, seed, size, work_dir):
        self.max_n = 6 if size == "full" else 4
        self.verdicts = sum(self.CLASS_COUNTS[: self.max_n])
        self.out = os.path.join(work_dir, f"catalog-{os.getpid()}.json")
        self.argv = ["catalog", "--max-n", str(self.max_n), "--suite", "all",
                     "--out", self.out]
        self.digests = []

    def warm_up(self, mods):
        mods["biclosure.cli"].main(
            ["catalog", "--max-n", "3", "--suite", "all", "--out", self.out])

    def prepare(self, mods):
        return None

    def run_pass(self, mods, inputs, failures, latencies, tick=None):
        """One catalog command. Untraced passes (``latencies`` not None)
        time each class with a hook on ``check_poset`` where
        ``sweep_catalog`` looks it up; the hook calls ``tick`` before it
        starts a class's timer."""
        if latencies is None:
            return self._command(mods, failures)
        represent = mods["biclosure.represent"]
        original = represent.check_poset
        samples = []

        def timed(*args, **kwargs):
            if tick is not None:
                tick()
            t0 = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(perf_counter_ns() - t0)

        represent.check_poset = timed
        start = perf_counter_ns()
        try:
            ok = self._command(mods, failures)
        finally:
            represent.check_poset = original
        if ok:
            if not samples:
                # sweep_catalog no longer calls check_poset through
                # biclosure.represent: fall back to the command's latency
                print("catalog: check_poset hook saw no calls; latency is "
                      "per command", file=sys.stderr)
                samples.append(perf_counter_ns() - start)
            latencies.extend(samples)
        return ok

    def keep(self, ok):
        """Record the digest of a pass's output, after its timer stopped."""
        if ok:
            with open(self.out, "rb") as fh:
                self.digests.append(hashlib.sha256(fh.read()).hexdigest())

    def _command(self, mods, failures):
        """Run the command; a crash or an unexpected exit code fails every
        class of the pass."""
        try:
            code = mods["biclosure.cli"].main(self.argv)
        except Exception as exc:  # a crash is a failed request, not a stop
            failures.record(exc, self.verdicts)
            return False
        if code != 0:
            failures.record(f"exit code {code}", self.verdicts)
            return False
        return True

    def wrong_verdicts(self, mods, oracles):
        """Digest per pass; the last output is parsed once for the verdicts
        and class counts, so the parse does not raise the measured peak."""
        wrong = sum(d != self.DIGEST[self.max_n] for d in self.digests)
        if not os.path.exists(self.out):
            return wrong
        with open(self.out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        counts = [0] * self.max_n
        for report in payload["reports"]:
            counts[len(report["poset"]["elements"]) - 1] += 1
            if not all(c["pass"] for c in report["checks"]):
                wrong += 1
        wrong += sum(abs(a - b) for a, b in zip(counts, self.CLASS_COUNTS))
        wrong += not payload["all_passed"]
        return wrong

    def cleanup(self):
        if os.path.exists(self.out):
            os.remove(self.out)


# --- frontier -----------------------------------------------------------------------


class Frontier:
    """``check_poset`` on the large single inputs plus 42 random
    7-9-element posets, 18 of them bounded. A verdict is one call."""

    name = "frontier"

    def __init__(self, seed, size, work_dir):
        rng = random.Random(seed)
        if size == "full":
            a, b, m, c = 9, 4, 4, 9
            # (elements, bounded, how many); the bounded 9-element posets
            # each cost a 9! scan, so they are few
            mix = [(7, False, 8), (7, True, 8), (8, False, 8), (8, True, 8),
                   (9, False, 8), (9, True, 2)]
            # above the default sweep cap of 14, so each random poset runs
            # the ortho scan once and samples the closure equations
            band = (24, 32)
        else:
            a, b, m, c = 4, 2, 4, 4
            mix = [(5, False, 1), (5, True, 1)]
            band = (5, 12)
        b_labels, b_up = boolean_algebra(b)
        self.requests = [
            (f"antichain({a})", *antichain(a), "all", 14),
            *[(f"boolean_algebra({b})/{s}", b_labels, b_up, s, 14)
              for s in ("general", "distributive", "boolean")],
            (f"M{m}", *bundle(m), "all", 18 if size == "full" else 14),
            (f"chain({c})", *chain(c), "all", 14),
        ]
        for n, bounded, count in mix:
            kind = "bounded" if bounded else "free"
            for k in range(count):
                self.requests.append(
                    (f"random{n}-{kind}-{k}", *random_poset(rng, n, bounded, band),
                     "all", 14))
        self.verdicts = len(self.requests)
        # dual sizes and orthocomplementation counts of the named inputs
        self.known = {"antichain(9)": (512, 0), "boolean_algebra(4)": (168, None),
                      "M4": (18, 3), "chain(9)": (10, 0)}
        self.records = []

    def prepare(self, mods):
        Poset = mods["biclosure.poset"].Poset
        return [Poset(labels, up) for _, labels, up, _, _ in self.requests]

    def warm_up(self, mods):
        Poset = mods["biclosure.poset"].Poset
        mods["biclosure.represent"].check_poset(Poset(*bundle(2)))

    def run_pass(self, mods, posets, failures, latencies, tick=None):
        represent = mods["biclosure.represent"]
        reports = []
        for poset, (_, _, _, suite, cap) in zip(posets, self.requests):
            if tick is not None:
                tick()
            t0 = perf_counter_ns()
            try:
                reports.append(
                    represent.check_poset(poset, suite=suite, sweep_cap=cap))
            except Exception as exc:
                failures.record(exc)
                reports.append(None)
                continue
            if latencies is not None:
                latencies.append(perf_counter_ns() - t0)
        return reports

    def keep(self, reports):
        """Reduce a pass's reports to (all passed, orthocomplementations)."""
        self.records.append([
            None if r is None else (
                r.all_passed,
                sum(c.name.startswith("ortho-representation-") for c in r.checks))
            for r in reports
        ])

    def wrong_verdicts(self, mods, oracles):
        dual_space = mods["biclosure.dualspace"].dual_space
        wrong = 0
        expected = []
        for poset, (name, labels, up, suite, _) in zip(
                self.prepare(mods), self.requests):
            family = name.split("/")[0]
            if family in self.known:
                size, orthos = self.known[family]
            else:
                size = len(oracles.brute_upsets(len(up), _oracle_leq(up)))
                orthos = None
            if family.startswith("random") and "bounded" in family and len(up) <= 8:
                orthos = len(oracles.brute_orthocomplementations(poset))
            if suite not in ("all", "ortho"):
                orthos = 0
            wrong += dual_space(poset).size != size
            expected.append(orthos)
        for record in self.records:
            for got, orthos in zip(record, expected):
                if got is None:
                    continue
                passed, found = got
                wrong += not passed
                wrong += orthos is not None and found != orthos
        return wrong

    def cleanup(self):
        pass


# --- subspaces --------------------------------------------------------------------------


class Subspaces:
    """``representation_report`` on distinct random subsets of dual spaces.

    The pool is antichain(9), boolean_algebra(4) and three random posets
    for each size 8, 9 and 10, free and bounded. Subset sizes are
    stratified over 1..m for every pool member, so the mix of small
    (often separating) and large (often full) subspaces, and with it the
    cost of a pass, varies little from seed to seed. A verdict is one
    report.
    """

    name = "subspaces"
    # brute_is_separating enumerates every point family; beyond this many
    # points only the other checks apply
    BRUTE_SEPARATING_POINTS = 10

    def __init__(self, seed, size, work_dir):
        rng = random.Random(seed)
        if size == "full":
            pool = [antichain(9), boolean_algebra(4)]
            sizes, copies, band, per_named, per = (8, 9, 10), 3, (56, 72), 128, 42
        else:
            pool = [antichain(4), boolean_algebra(2)]
            sizes, copies, band, per_named, per = (5,), 1, (5, 12), 6, 6
        named = len(pool)
        for n in sizes:
            for bounded in (False, True):
                for _ in range(copies):
                    pool.append(random_poset(rng, n, bounded, band))
        self.pool = pool
        requests = []
        seen = set()
        for idx, (_, up) in enumerate(pool):
            points = upsets(up)
            m = len(points)
            count = per_named if idx < named else per
            for j in range(count):
                k = math.ceil(m * (j + 0.5) / count)
                for _ in range(50):
                    pick = tuple(sorted(rng.sample(points, k)))
                    if (idx, pick) not in seen:
                        seen.add((idx, pick))
                        requests.append((idx, pick))
                        break
                    k = rng.randint(1, m)
        rng.shuffle(requests)
        self.requests = requests
        self.verdicts = len(requests)
        self.records = []

    def prepare(self, mods):
        Poset = mods["biclosure.poset"].Poset
        Subspace = mods["biclosure.dualspace"].Subspace
        posets = [Poset(labels, up) for labels, up in self.pool]
        return [(posets[i], Subspace(posets[i], pts)) for i, pts in self.requests]

    def warm_up(self, mods):
        Poset = mods["biclosure.poset"].Poset
        Subspace = mods["biclosure.dualspace"].Subspace
        labels, up = bundle(2)
        poset = Poset(labels, up)
        mods["biclosure.represent"].representation_report(
            poset, Subspace(poset, upsets(up)))

    def run_pass(self, mods, inputs, failures, latencies, tick=None):
        represent = mods["biclosure.represent"]
        reports = []
        for poset, sub in inputs:
            if tick is not None:
                tick()
            t0 = perf_counter_ns()
            try:
                reports.append(represent.representation_report(poset, sub))
            except Exception as exc:
                failures.record(exc)
                reports.append(None)
                continue
            if latencies is not None:
                latencies.append(perf_counter_ns() - t0)
        return reports

    def keep(self, reports):
        """Reduce a pass's reports to (full, separating, consistent, and
        whether full and separating gave what they promise)."""
        self.records.append([
            None if r is None else (r.full, r.separating, r.consistent,
                                    not (r.full and r.separating) or _embeds(r))
            for r in reports
        ])

    def wrong_verdicts(self, mods, oracles):
        wrong = 0
        truth = []
        for idx, pts in self.requests:
            _, up = self.pool[idx]
            n = len(up)
            one_sets = [_members(x, n) for x in pts]
            full = oracles.brute_is_full(one_sets, n, _oracle_leq(up))
            sep = (oracles.brute_is_separating(one_sets, n)
                   if len(pts) <= self.BRUTE_SEPARATING_POINTS else None)
            truth.append((full, sep))
        for record in self.records:
            for got, (full, sep) in zip(record, truth):
                if got is None:
                    continue
                g_full, g_sep, g_consistent, g_embeds = got
                wrong += (
                    g_full != full
                    or (sep is not None and g_sep != sep)
                    or not g_consistent
                    or not g_embeds
                )
        return wrong

    def cleanup(self):
        pass


WORKLOADS = {w.name: w for w in (Catalog, Frontier, Subspaces)}
