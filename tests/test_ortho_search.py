"""The orthocomplementation search: the same maps in the same order as
the brute-force permutation scan, and a node cap that stops it."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biclosure.poset as poset_module
from biclosure import (
    BoundExceeded,
    boolean_algebra,
    build_poset,
    chain,
    check_poset,
    enumerate_posets,
    find_orthocomplementations,
    poset_to_json,
)
from biclosure.cli import main

import oracles


def bundle(k):
    """M_k: k pairwise incomparable atoms between a bottom and a top."""
    atoms = [f"a{i}" for i in range(k)]
    return build_poset(
        ["0"] + atoms + ["1"],
        [("0", a) for a in atoms] + [(a, "1") for a in atoms],
    )


def perms(poset):
    return [f.perm for f in find_orthocomplementations(poset)]


def oracle_perms(poset):
    return [tuple(p) for p in oracles.brute_orthocomplementations(poset)]


bounded_catalog = [
    p for n in range(1, 7) for p in enumerate_posets(n) if p.is_bounded()
]


# --- same maps, same order --------------------------------------------------------


def test_catalog_orthocomplementations_match_the_oracle_in_order():
    assert len(bounded_catalog) == 1 + 1 + 1 + 2 + 5 + 16
    found = 0
    for p in bounded_catalog:
        got = perms(p)
        assert got == oracle_perms(p), poset_to_json(p)
        found += len(got)
    assert found > 0


@st.composite
def bounded_posets(draw):
    """A bottom, a top and up to six elements between them, with the
    labels in a drawn order so the bounds can sit at any index."""
    k = draw(st.integers(0, 6))
    inner = [f"x{i}" for i in range(k)]
    pairs = [("b", x) for x in inner] + [(x, "t") for x in inner] + [("b", "t")]
    for i in range(k):
        for j in range(i + 1, k):
            if draw(st.booleans()):
                pairs.append((inner[i], inner[j]))
    labels = draw(st.permutations(inner + ["b", "t"]))
    return build_poset(labels, pairs)


@settings(max_examples=60, deadline=None)
@given(bounded_posets())
def test_drawn_bounded_posets_match_the_oracle_in_order(p):
    assert p.is_bounded() and p.n <= 8
    assert perms(p) == oracle_perms(p)


def test_named_cases():
    # the one-element poset is its own complement: the only fixed point
    assert perms(chain(1)) == [(0,)]
    assert len(perms(boolean_algebra(4))) == 1
    assert len(perms(bundle(4))) == 3
    m6 = perms(bundle(6))
    assert m6 == oracle_perms(bundle(6))
    assert len(m6) == 15


# --- the node cap -----------------------------------------------------------------


def test_node_count_is_exact_against_the_cap(monkeypatch):
    m4 = bundle(4)
    found, nodes = poset_module._ortho_search(m4)
    assert len(found) == 3
    monkeypatch.setattr(poset_module, "_SEARCH_NODE_CAP", nodes)
    assert poset_module._ortho_search(m4) == (found, nodes)
    monkeypatch.setattr(poset_module, "_SEARCH_NODE_CAP", nodes - 1)
    with pytest.raises(BoundExceeded):
        find_orthocomplementations(m4)


def test_default_cap_admits_the_large_named_inputs():
    cap = poset_module._SEARCH_NODE_CAP
    for p, maps in ((boolean_algebra(4), 1), (bundle(10), 945)):
        found, nodes = poset_module._ortho_search(p)
        assert len(found) == maps
        assert nodes <= cap


def test_default_cap_stops_a_bundle_with_too_many_maps():
    # M14 has 13!! = 135135 orthocomplementations, more than the cap admits
    with pytest.raises(BoundExceeded):
        find_orthocomplementations(bundle(14))


@pytest.mark.parametrize("suite", ["ortho", "all"])
def test_boolean_algebra_4_passes_with_the_ortho_suite(suite):
    # its dual has 168 points, past the sweep cap, so no correspondence
    report = check_poset(boolean_algebra(4), suite=suite)
    assert report.all_passed
    names = [c.name for c in report.checks if c.name.startswith("ortho-")]
    assert names == ["ortho-representation-0"]


@pytest.mark.parametrize("verb", ["ortho", "check"])
def test_cli_exits_three_past_the_node_cap(monkeypatch, capsys, verb):
    monkeypatch.setattr(poset_module, "_SEARCH_NODE_CAP", 2)
    code = main([verb, json.dumps(poset_to_json(bundle(4)))])
    assert code == 3
    assert "orthocomplementation search" in capsys.readouterr().err
