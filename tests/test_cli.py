import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import biclosure.represent as represent_module
from biclosure import boolean_algebra, chain, poset_to_json, sweep_catalog
from biclosure.cli import main
from biclosure.represent import SUITES, SuiteReport

B4 = json.dumps(
    {
        "elements": ["0", "a", "b", "1"],
        "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
    }
)
CHAIN3 = json.dumps({"elements": ["x", "y", "z"], "le": [["x", "y"], ["y", "z"]]})
VEE = json.dumps({"elements": ["a", "b", "c"], "le": [["a", "b"], ["a", "c"]]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dual_counts_points(capsys):
    code, out, _ = run(capsys, "dual", B4)
    assert code == 0
    data = json.loads(out)
    assert data["point_count"] == 6
    assert [] in data["points"]


def test_dual_on_a_chain_longer_than_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "dual", json.dumps(poset_to_json(chain(1100))))
    assert code == 0
    assert json.loads(out)["point_count"] == 1101


def test_dual_reads_a_file(tmp_path, capsys):
    path = tmp_path / "b4.json"
    path.write_text(B4)
    code, out, _ = run(capsys, "dual", str(path))
    assert code == 0
    assert json.loads(out)["point_count"] == 6


def test_represent_reports_isomorphism(capsys):
    code, out, _ = run(capsys, "represent", B4)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "general"
    assert data["report"]["flags"]["isomorphism"] is True


def test_represent_distributive_kind(capsys):
    code, out, _ = run(capsys, "represent", CHAIN3, "--kind", "distributive")
    assert code == 0
    assert json.loads(out)["report"]["flags"]["topological"] == [True, True]


def test_represent_ortho_kind(capsys):
    code, out, _ = run(capsys, "represent", B4, "--kind", "ortho")
    assert code == 0
    assert json.loads(out)["report"]["flags"]["closures_coincide"] is True


def test_represent_ortho_needs_one(capsys):
    code, _, err = run(capsys, "represent", CHAIN3, "--kind", "ortho")
    assert code == 2
    assert "no orthocomplementation" in err


def test_ortho_lists_and_matches(capsys):
    code, out, _ = run(capsys, "ortho", B4)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["correspondence"]["matched"] is True


def test_ortho_none_is_still_success(capsys):
    code, out, _ = run(capsys, "ortho", CHAIN3)
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_ortho_skips_the_sweep_on_unbounded_input(capsys):
    code, out, _ = run(capsys, "ortho", VEE)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0
    assert data["correspondence"] is None


def test_stone_emits_points_and_kernels(capsys):
    code, out, _ = run(capsys, "stone", B4)
    assert code == 0
    data = json.loads(out)
    assert data["point_count"] == 2
    assert data["clopen_count"] == 4
    assert sorted(data["kernels"]) == [["0", "a"], ["0", "b"]]


def test_stone_rejects_non_boolean(capsys):
    code, _, err = run(capsys, "stone", CHAIN3)
    assert code == 2
    assert "Boolean" in err


def test_check_all_passes(capsys):
    code, out, _ = run(capsys, "check", B4)
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])


def test_module_form_runs_the_cli(capsys):
    # python -m biclosure from a plain checkout, without an install
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "biclosure", "check", B4],
        capture_output=True,
        text=True,
        env=env,
    )
    code, out, _ = run(capsys, "check", B4)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_check_reports_failure_with_exit_one(capsys, monkeypatch):
    import biclosure.cli as cli
    from biclosure.represent import CheckResult, SuiteReport

    def fake_check(poset, suite, sweep_cap, dual_cap):
        return SuiteReport(
            poset, (CheckResult("x", "always wrong", False, {"why": "test"}),)
        )

    monkeypatch.setattr(cli, "check_poset", fake_check)
    code, out, _ = run(capsys, "check", B4)
    assert code == 1
    assert json.loads(out)["checks"][0]["pass"] is False


def test_recursion_overflow_exits_three(capsys, monkeypatch):
    # too deep for the interpreter's stack is a size limit, not a failed law
    import biclosure.cli as cli

    def too_deep(poset):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "find_orthocomplementations", too_deep)
    code, out, err = run(capsys, "ortho", B4)
    assert (code, out) == (3, "")
    assert err == "error: maximum recursion depth exceeded\n"


EMPTY = json.dumps({"elements": []})


def test_check_on_the_empty_poset_passes_every_suite(capsys):
    for suite in ("all", "general", "ortho", "distributive", "boolean"):
        code, out, _ = run(capsys, "check", EMPTY, "--suite", suite)
        assert code == 0, suite
        checks = json.loads(out)["checks"]
        assert all(c["pass"] for c in checks)
        if suite in ("all", "general"):
            assert len(checks) == 5
        else:
            assert checks == []


def test_empty_poset_has_no_distributive_representation(capsys):
    code, _, err = run(capsys, "represent", EMPTY, "--kind", "distributive")
    assert code == 2
    assert "distributiv" in err


def test_catalog_sweep(capsys):
    code, out, _ = run(capsys, "catalog", "--max-n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == 8
    assert data["all_passed"] is True


def test_catalog_output_bytes_are_pinned(capsys):
    # a refactor must leave every verdict, witness and byte of the report
    # as it is; this digest was taken before the engine's folds
    code, out, _ = run(capsys, "catalog", "--max-n", "5", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "25eaa9c7643ab8a3cb451440c8254a2ca75f1a696c2dfb946723baa72c64b5c9"
    )


def test_catalog_over_bound_exits_three(capsys):
    code, _, err = run(capsys, "catalog", "--max-n", "9")
    assert code == 3
    assert "bound" in err


def old_catalog_bytes(max_n, suite):
    """The catalog as it was written before the per-class encoder: one
    payload dumped whole. It is the reference for the hand-built framing."""
    reports = sweep_catalog(max_n, suite=suite)
    payload = {
        "max_n": max_n,
        "suite": suite,
        "classes": len(reports),
        "all_passed": all(r.all_passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("suite", SUITES)
def test_catalog_framing_matches_the_whole_payload_dump(capsys, tmp_path, suite):
    for max_n in range(1, 5):
        want = old_catalog_bytes(max_n, suite)
        argv = ["catalog", "--max-n", str(max_n), "--suite", suite]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, want), max_n
        path = tmp_path / "catalog.json"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (0, "")
        assert path.read_text(encoding="utf-8") == want, max_n


def test_catalog_framing_matches_when_a_class_fails(capsys, tmp_path, monkeypatch):
    original = represent_module.check_poset

    def failing_chain(poset, **kwargs):
        report = original(poset, **kwargs)
        # the 3-chain is the one lattice on three elements
        if poset.n == 3 and poset.is_lattice():
            first = replace(report.checks[0], passed=False, witness={"forced": 1})
            report = SuiteReport(poset, (first, *report.checks[1:]))
        return report

    monkeypatch.setattr(represent_module, "check_poset", failing_chain)
    want = old_catalog_bytes(4, "all")
    assert '"all_passed": false' in want
    code, out, _ = run(capsys, "catalog", "--max-n", "4")
    assert (code, out) == (1, want)
    path = tmp_path / "catalog.json"
    code, _, _ = run(capsys, "catalog", "--max-n", "4", "--out", str(path))
    assert code == 1
    assert path.read_text(encoding="utf-8") == want


def test_catalog_encodes_each_class_before_checking_the_next(capsys, monkeypatch):
    check, encode = represent_module.check_poset, SuiteReport.to_json
    events, refs = [], []

    def checked(poset, **kwargs):
        # every report checked so far was encoded and then dropped
        assert all(ref() is None for ref in refs), len(refs)
        events.append("check")
        report = check(poset, **kwargs)
        refs.append(weakref.ref(report))
        return report

    def encoded(report):
        events.append("encode")
        return encode(report)

    monkeypatch.setattr(represent_module, "check_poset", checked)
    monkeypatch.setattr(SuiteReport, "to_json", encoded)
    code, out, _ = run(capsys, "catalog", "--max-n", "4")
    assert code == 0
    assert json.loads(out)["classes"] == 24 == len(refs)
    assert events == ["check", "encode"] * 24
    assert all(ref() is None for ref in refs)


def test_catalog_over_bound_writes_nothing(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    for argv in ([], ["--out", str(path)]):
        code, out, _ = run(capsys, "catalog", "--max-n", "9", *argv)
        assert (code, out) == (3, "")
    assert not path.exists()


def test_dual_cap_exits_three(capsys):
    code, _, err = run(capsys, "dual", B4, "--dual-cap", "3")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "verb",
    [
        ["represent"],
        ["represent", "--kind", "distributive"],
        ["represent", "--kind", "ortho"],
        ["ortho"],
        ["stone"],
        ["check"],
        ["export-dot"],
    ],
    ids=" ".join,
)
def test_dual_cap_exits_three_on_every_verb(capsys, verb):
    code, out, err = run(capsys, *verb, B4, "--dual-cap", "2")
    assert code == 3
    assert out == ""
    assert "cap" in err


ANTICHAIN5 = json.dumps({"elements": list("abcde")})  # 32 dual points


@pytest.mark.parametrize(
    "verb, code",
    [
        (["ortho"], 0),
        (["check", "--suite", "ortho"], 0),
        (["check", "--suite", "distributive"], 0),
        (["check", "--suite", "boolean"], 0),
        (["check", "--suite", "general"], 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_dual_cap_binds_only_where_a_dual_space_is_built(capsys, verb, code):
    # nothing but the general checks reads the dual space of an unbounded
    # poset, so only they hit the cap
    got, out, _ = run(capsys, *verb, ANTICHAIN5, "--dual-cap", "10")
    assert got == code
    if verb == ["ortho"]:
        data = json.loads(out)
        assert data["count"] == 0 and data["correspondence"] is None


B8 = json.dumps(poset_to_json(boolean_algebra(3)))  # 20 dual points


def test_ortho_never_builds_a_dual_the_sweep_would_skip(capsys):
    # above --s-cap no check reads the dual space, so --dual-cap cannot bind
    code, out, _ = run(capsys, "ortho", B8, "--dual-cap", "15")
    assert code == 0
    data = json.loads(out)
    assert data["count"] > 0 and data["correspondence"] is None
    # within --s-cap the sweep reads it, and --dual-cap binds again
    code, out, err = run(capsys, "ortho", B8, "--dual-cap", "15", "--s-cap", "20")
    assert code == 3
    assert out == "" and "cap" in err


def test_malformed_json_reports_location(capsys):
    code, _, err = run(capsys, "dual", '{"elements": [,]}')
    assert code == 2
    assert "line 1" in err and "column" in err


def test_unknown_label_is_usage_error(capsys):
    bad = json.dumps({"elements": ["a"], "le": [["a", "b"]]})
    code, _, err = run(capsys, "dual", bad)
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "dual", "does-not-exist.json")
    assert code == 2


def test_bad_flag_value_is_usage_error(capsys):
    code, _, _ = run(capsys, "catalog", "--max-n", "0")
    assert code == 2


def test_out_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", B4, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["checks"]


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "check", B4)
    _, second, _ = run(capsys, "check", B4)
    assert first == second


def test_export_dot_draws_both_diagrams(capsys):
    code, out, _ = run(capsys, "export-dot", CHAIN3)
    assert code == 0
    assert out.startswith("digraph")
    assert "cluster_input" in out and "cluster_family" in out
    assert out.count("->") == 4  # two chains of three


def test_dot_flag_writes_a_diagram_next_to_the_report(tmp_path, capsys):
    target = tmp_path / "b4.dot"
    code, out, _ = run(capsys, "represent", B4, "--dot", str(target))
    assert code == 0
    assert json.loads(out)["report"]
    assert target.read_text().startswith("digraph")


def test_no_verb_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_ortho_scans_orthocomplementations_once(capsys, monkeypatch):
    import biclosure.cli as cli
    import biclosure.represent as represent_module

    calls = []
    for module in (cli, represent_module):
        original = module.find_orthocomplementations

        def counted(poset, original=original):
            calls.append(poset)
            return original(poset)

        monkeypatch.setattr(module, "find_orthocomplementations", counted)
    code, out, _ = run(capsys, "ortho", B4)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["correspondence"]["matched"] is True
    assert len(calls) == 1


def test_each_verb_enumerates_the_up_sets_once(capsys, upset_calls):
    poset = boolean_algebra(3)
    text = json.dumps(poset_to_json(poset))
    for argv in (
        ["dual"],
        ["represent", "--kind", "general"],
        ["represent", "--kind", "distributive"],
        ["represent", "--kind", "ortho"],
        ["ortho", "--s-cap", "20"],
        ["stone"],
        ["check"],
        ["export-dot"],
    ):
        upset_calls.clear()
        code, _, err = run(capsys, argv[0], text, *argv[1:])
        assert code == 0, (argv, err)
        assert upset_calls == [poset.up], argv
