"""End-to-end acceptance run for the duality engine.

Nine criteria, one test each. Every test prints a single PASS/FAIL line
(echoed again in the terminal summary via conftest) and then asserts the
same verdict, so a red run always names the criterion that broke.
"""

import random
import time

import pytest

from biclosure import (
    are_isomorphic,
    boolean_algebra,
    dual_space,
    filter_of,
    find_orthocomplementations,
    generated_filter,
    generated_ideal,
    ideal_of,
    induced_closures,
    is_full,
    is_separating,
    lattice_dual,
    orthodual_space,
    ortho_correspondence,
    remove_constants,
    representation_report,
    stone,
)
from biclosure.bitops import bits

RESULTS = []

SAMPLES_PER_CLASS = 42  # 24 classes at n <= 4, so 1008 subspaces in all
SAMPLE_SEED = 0xACCE97


def note(num, label, ok, detail=""):
    line = "criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += " - " + detail
    RESULTS.append(line)
    print(line)


@pytest.fixture(scope="module")
def sampled_subspaces(catalog4):
    """Deterministic random subspaces of every dual space over n <= 4.

    Shared by the fullness-lemma and closure-equation criteria, which are
    required to run over the same sample.
    """
    rng = random.Random(SAMPLE_SEED)
    out = []
    for poset in catalog4:
        star = dual_space(poset)
        for _ in range(SAMPLES_PER_CLASS):
            out.append((poset, star.restrict(rng.getrandbits(star.size))))
    return out


def test_criterion_1_general_representation(catalog4, catalog5):
    assert len(catalog5) == 63
    started = time.monotonic()
    failures = []
    for poset in catalog4 + catalog5:
        rep = representation_report(poset, dual_space(poset))
        if not rep.isomorphism:
            failures.append((poset.labels, rep.witnesses))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 60.0
    note(1, "general representation over all classes n <= 5", ok,
         "failures=%d elapsed=%.1fs" % (len(failures), elapsed))
    assert not failures, failures[:3]
    assert elapsed < 60.0, elapsed


def _cones_disjoint(poset, sub):
    for p in range(poset.n):
        for q in range(poset.n):
            if poset.leq(q, p):
                continue
            gi = generated_ideal(sub, 1 << p)
            gf = generated_filter(sub, 1 << q)
            if gi.subset & gf.subset:
                return False
    return True


def test_criterion_2_separating_cone_fullness(sampled_subspaces):
    assert len(sampled_subspaces) >= 1000
    violations = []
    antecedents = 0
    for poset, sub in sampled_subspaces:
        sep_ok, _ = is_separating(sub)
        if not sep_ok:
            continue
        if not _cones_disjoint(poset, sub):
            continue
        antecedents += 1
        full_ok, pair = is_full(sub)
        if not full_ok:
            violations.append((poset.labels, sub.points, pair))
    ok = not violations and antecedents > 0
    note(2, "separating + disjoint cones force fullness, %d subspaces"
         % len(sampled_subspaces), ok,
         "violations=%d antecedents=%d" % (len(violations), antecedents))
    assert not violations, violations[:3]
    assert antecedents > 0


def test_criterion_3_closure_equations(sampled_subspaces):
    mismatches = []
    for poset, sub in sampled_subspaces:
        c1, c2 = induced_closures(sub)
        for x in range(1 << sub.size):
            rhs = sub.all_mask
            for p in bits(filter_of(sub, x)):
                rhs &= sub.up_image(p)
            if c1.apply(x) != rhs:
                mismatches.append((poset.labels, sub.points, x, "c1"))
                break
            rhs = sub.all_mask
            for p in bits(ideal_of(sub, x)):
                rhs &= sub.lo_image(p)
            if c2.apply(x) != rhs:
                mismatches.append((poset.labels, sub.points, x, "c2"))
                break
    ok = not mismatches
    note(3, "closure equations exact on every subset of every sample", ok,
         "mismatches=%d" % len(mismatches))
    assert not mismatches, mismatches[:3]


def test_criterion_4_ortho_representation(catalog4, catalog5, catalog6):
    failures = []
    checked = 0
    for poset in catalog4 + catalog5 + catalog6:
        if not poset.is_bounded():
            continue
        for f in find_orthocomplementations(poset):
            checked += 1
            space = orthodual_space(poset, f)
            oc1, oc2 = induced_closures(space)
            rep = representation_report(poset, space)
            complement_ok = all(
                space.up_image(f(p)) == space.all_mask ^ space.up_image(p)
                for p in range(poset.n)
            )
            if not (oc1 == oc2 and rep.isomorphism
                    and complement_ok):
                failures.append((poset.labels, f.to_json()))
    ok = not failures and checked > 0
    note(4, "orthocomplemented representation, %d orthomaps over n <= 6"
         % checked, ok, "failures=%d" % len(failures))
    assert not failures, failures[:3]
    assert checked > 0


def test_criterion_5_ortho_correspondence(
    catalog4, catalog5, catalog6, b4, four_chain, m4
):
    failures = []
    swept = 0
    for poset in catalog4 + catalog5 + catalog6:
        if not poset.is_bounded() or dual_space(poset).size > 14:
            continue
        swept += 1
        ok, report = ortho_correspondence(poset, cap=14)
        if not ok:
            failures.append((poset.labels, report))
    known = {
        "b4": (b4, 14, 1),
        "four_chain": (four_chain, 14, 0),
        "m4": (m4, 18, 3),  # its dual has 18 points, above the sweep default
    }
    counts = {}
    for name, (poset, cap, expected) in known.items():
        ok, report = ortho_correspondence(poset, cap=cap)
        counts[name] = report["orthocomplementations"]
        if not ok or report["orthocomplementations"] != expected:
            failures.append((name, report))
    ok = not failures and swept > 0
    note(5, "orthomaps match maximal selfdual subspaces, %d posets swept"
         % swept, ok, "failures=%r counts=%r" % (failures[:3], counts))
    assert not failures, failures[:3]
    assert counts == {"b4": 1, "four_chain": 0, "m4": 3}


def test_criterion_6_distributive_lattices(catalog4, catalog5, catalog6, m3, n5):
    failures = []
    negatives = []
    lattices = 0
    for poset in catalog4 + catalog5 + catalog6:
        if not poset.is_lattice():
            continue
        lattices += 1
        inner = lattice_dual(poset)
        full_ok, _ = is_full(inner)
        sep_ok, _ = is_separating(inner)
        if (full_ok and sep_ok) != poset.is_distributive():
            failures.append(("iff", poset.labels))
            continue
        if poset.is_distributive():
            c1, c2 = induced_closures(inner)
            if not (c1.is_topological() and c2.is_topological()):
                failures.append(("topology", poset.labels))
        else:
            negatives.append(poset)
    m3_seen = any(are_isomorphic(p, m3)[0] for p in negatives)
    n5_seen = any(are_isomorphic(p, n5)[0] for p in negatives)
    ok = not failures and m3_seen and n5_seen
    note(6, "distributivity equals full + separating over %d lattices"
         % lattices, ok,
         "failures=%d m3=%s n5=%s" % (len(failures), m3_seen, n5_seen))
    assert not failures, failures[:3]
    assert m3_seen and n5_seen


def test_criterion_7_stone_spaces():
    failures = []
    for atoms, clopens in ((1, 2), (2, 4), (3, 8)):
        poset = boolean_algebra(atoms)
        space = stone(poset)
        c1, c2 = induced_closures(space.subspace)
        checks = (
            space.subspace.size == atoms,
            len(space.clopen) == clopens,
            c1 == c2,
            c1.is_topological(),
            c1.is_exact(),
        )
        if not all(checks):
            failures.append((atoms, checks))
    ok = not failures
    note(7, "Stone spaces of the 2-, 4- and 8-element Boolean lattices", ok,
         "failures=%r" % failures)
    assert not failures, failures


def test_criterion_8_boolean_iff_coincident(catalog4, catalog5, catalog6):
    failures = []
    distributives = 0
    for poset in catalog4 + catalog5 + catalog6:
        if not (poset.is_lattice() and poset.is_distributive()):
            continue
        distributives += 1
        trimmed = remove_constants(lattice_dual(poset))
        tc1, tc2 = induced_closures(trimmed)
        coincide = tc1 == tc2
        if coincide != poset.is_boolean():
            failures.append(poset.labels)
    ok = not failures and distributives > 0
    note(8, "Boolean equals coincident closures over %d distributive lattices"
         % distributives, ok, "failures=%d" % len(failures))
    assert not failures, failures[:3]
    assert distributives > 0


def _axioms_hold(op):
    # monotonicity over single-element extensions implies it for every
    # inclusion pair: closures along a chain of insertions compose
    for x in range(1 << op.m):
        cx = op.apply(x)
        if x & ~cx:
            return False, ("extensive", x)
        if op.apply(cx) != cx:
            return False, ("idempotent", x)
        for i in range(op.m):
            if not x >> i & 1 and cx & ~op.apply(x | 1 << i):
                return False, ("monotone", x, i)
    return True, None


def test_criterion_9_closure_axioms(catalog4):
    ops = []
    for poset in catalog4:
        star = dual_space(poset)
        if star.size <= 12:
            ops.extend(induced_closures(star))
        for f in find_orthocomplementations(poset):
            ops.extend(induced_closures(orthodual_space(poset, f)))
        if poset.is_lattice():
            inner = lattice_dual(poset)
            ops.extend(induced_closures(inner))
            ops.extend(induced_closures(remove_constants(inner)))
    for atoms in (1, 2, 3):
        ops.append(stone(boolean_algebra(atoms)).closure)
    failures = []
    for op in ops:
        assert op.m <= 12
        holds, witness = _axioms_hold(op)
        if not holds:
            failures.append((op.m, witness))
    ok = not failures and len(ops) > 50
    note(9, "closure axioms exhaustively on %d operators" % len(ops), ok,
         "failures=%r" % failures[:3])
    assert not failures, failures[:3]
    assert len(ops) > 50
