import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dwsurf import algebra, cocycles, invariants
from dwsurf.algebra import TwistedGroupAlgebra, wedderburn_decompose
from dwsurf.cli import Q8_OVER_V4, build_parser, cmd_check, main, parse_cocycle
from dwsurf.cocycles import (TwoCocycle, heisenberg_cocycle, sign_cocycles_catalog,
                             trivial_cocycle, twist, write_cocycle_file)
from dwsurf.groups import build_group
from dwsurf.invariants import cross_check
from dwsurf.memo import run_scope
from dwsurf.state_sum import ContractionError
from dwsurf.surfaces import SurfaceSpec, pachner_13, standard_triangulation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_symmetric3_torus(capsys):
    code, out = run(capsys, "compute", "--group", "symmetric:3", "--cocycle", "trivial",
                    "--surface", "orientable:1")
    data = json.loads(out)
    assert code == 0
    assert data["passed"]
    assert data["values"]["direct"] == [3.0, 0.0]


def test_compute_heisenberg_genus2_all_methods(capsys):
    code, out = run(capsys, "compute", "--group", "product(cyclic:2,cyclic:2)",
                    "--cocycle", "heisenberg:2", "--surface", "orientable:2",
                    "--method", "all")
    data = json.loads(out)
    assert code == 0
    assert data["exact"] == {"direct": "4", "statesum": "4", "verlinde": "4"}
    assert all(v == [4.0, 0.0] for v in data["values"].values())


def test_symmetric5_genus6_is_exact_past_double_precision(capsys):
    # sum over d = 1,1,4,4,5,5,6 of (120/d)^10: a double rounds it to ...994240
    code, out = run(capsys, "compute", "--group", "symmetric:5", "--surface", "orientable:6",
                    "--method", "verlinde")
    data = json.loads(out)
    assert code == 0
    assert data["exact"]["verlinde"] == "1238348602506761930752"
    assert data["integrality"]["nearest"] == 1238348602506761930752


def test_tolerance_flag_is_gone(capsys):
    assert main(["compute", "--group", "cyclic:2", "--surface", "orientable:1",
                 "--tol", "1e-8"]) == 2
    capsys.readouterr()


def test_compute_projective_plane_value(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--cocycle", "trivial",
                    "--surface", "nonorientable:1")
    data = json.loads(out)
    assert code == 0
    assert data["values"]["direct"] == [1.0, 0.0]


def test_compute_csv_output(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:3", "--surface", "orientable:1",
                    "--csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "group,cocycle,surface,method,re,im,exact"
    assert len(lines) == 4
    assert [line.split(",")[-1] for line in lines[1:]] == ["3", "3", "3"]
    # past 2^53 the float column rounds; the exact column does not
    code, out = run(capsys, "compute", "--group", "symmetric:5", "--surface", "orientable:6",
                    "--method", "verlinde", "--csv")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[-1] == "1238348602506761930752"
    # a group name with commas is quoted, so every row parses back to 7 fields
    code, out = run(capsys, "compute", "--group", "product(cyclic:2,cyclic:2)",
                    "--cocycle", "heisenberg:2", "--surface", "orientable:2", "--method", "all",
                    "--csv")
    header, *rows = csv.reader(io.StringIO(out))
    assert code == 0
    assert header == ["group", "cocycle", "surface", "method", "re", "im", "exact"]
    assert [len(row) for row in rows] == [7, 7, 7]
    assert [(row[0], row[3], row[-1]) for row in rows] == [
        ("product(cyclic:2,cyclic:2)", method, "4") for method in ("direct", "statesum", "verlinde")]


# sum over the blocks of symmetric:5 of (120/d)^(2g-2) at genus 76: past double range
S5_GENUS76 = sum(Fraction(120, d) ** 150 for d in (1, 1, 4, 4, 5, 5, 6))


def test_values_past_double_range_have_no_float_view(capsys):
    argv = ("compute", "--group", "symmetric:5", "--surface", "orientable:76",
            "--method", "verlinde")
    code, out = run(capsys, *argv)
    data = json.loads(out)
    assert code == 0
    assert data["values"] == {"verlinde": None}
    assert data["exact"] == {"verlinde": str(S5_GENUS76)}
    code, out = run(capsys, *argv, "--csv")
    header, row = csv.reader(io.StringIO(out))
    assert code == 0
    assert row[3:] == ["verlinde", "", "", str(S5_GENUS76)]
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--surface", "nonorientable:1100",
                    "--method", "verlinde")
    assert code == 0 and json.loads(out)["values"] == {"verlinde": None}


def test_compute_with_oracle(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--surface", "orientable:1",
                    "--oracle")
    data = json.loads(out)
    assert code == 0
    assert data["exact"]["labeling_oracle"] == "2"


def test_refused_labeling_oracle_keeps_the_route_values(capsys):
    code, out = run(capsys, "compute", "--group", "quaternion:8", "--surface", "orientable:1",
                    "--oracle", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["passed"]
    assert data["exact"] == {"direct": "5", "statesum": "5", "verlinde": "5"}
    assert data["diagnostics"]["labeling_oracle"] == (
        "labeling sum needs 107816072 states, beyond the limit 100000000")


def test_oracle_names_the_surfaces_it_runs_on(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--surface", "orientable:2",
                    "--oracle")
    data = json.loads(out)
    assert code == 0
    assert "labeling_oracle" not in data["exact"]
    assert data["diagnostics"]["labeling_oracle"] == "runs on orientable:0 and orientable:1 only"


def test_compute_single_method(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:4", "--surface", "orientable:1",
                    "--method", "verlinde")
    data = json.loads(out)
    assert code == 0
    assert list(data["values"]) == ["verlinde"]


def test_repeated_runs_are_byte_identical(capsys):
    args = ("compute", "--group", "quaternion:8", "--surface", "orientable:2")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_negative_value_at_odd_crosscaps_passes(capsys, tmp_path):
    G = build_group("product(cyclic:2,cyclic:2)")
    path = tmp_path / "q8-over-v4.cocycle"
    write_cocycle_file(TwoCocycle(G, 2, Q8_OVER_V4), path)
    for k, want in ((3, "-2"), (4, "4"), (5, "-8")):
        code, out = run(capsys, "compute", "--group", G.name, "--cocycle", f"file:{path}",
                        "--surface", f"nonorientable:{k}", "--method", "all")
        data = json.loads(out)
        assert code == 0 and data["passed"], k
        assert data["exact"] == {"direct": want, "statesum": want, "verlinde": want}


def test_theorems_suite_has_the_q8_over_v4_rows(capsys):
    code, out = run(capsys, "check", "--suite", "theorems", "--json")
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert code == 0
    for k, want in ((1, "-1/2"), (2, "1"), (3, "-2")):
        row = rows[f"nonorientable routes product(cyclic:2,cyclic:2)/q8-over-v4/nonorientable:{k}"]
        assert row["passed"] and row["detail"] == f"direct {want}, statesum {want}, verlinde {want}"


def write_triangulation(tmp_path, tri):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(tri.to_json()))
    return f"file:{path}"


def test_triangulation_file_reports_plan(capsys, tmp_path):
    surface = write_triangulation(tmp_path, standard_triangulation(SurfaceSpec(True, 1)))
    code, out = run(capsys, "compute", "--group", "product(cyclic:2,cyclic:2)",
                    "--cocycle", "heisenberg:2", "--surface", surface, "--method", "statesum")
    data = json.loads(out)
    assert code == 0
    assert data["exact"] == {"statesum": "1"} and data["values"]["statesum"] == [1.0, 0.0]
    assert data["surface"] == "orientable:1"
    assert data["diagnostics"]["statesum_plan"]["free_edges"] == 2
    assert data["states_visited"] > 0


def test_compute_from_triangulation_file(capsys, tmp_path):
    surface = write_triangulation(tmp_path, standard_triangulation(SurfaceSpec(True, 1)))
    code, out = run(capsys, "compute", "--group", "symmetric:3", "--surface", surface)
    assert code == 0
    assert json.loads(out)["exact"] == {"direct": "3", "statesum": "3", "verlinde": "3"}


def test_refined_torus_file_gives_the_torus_value(capsys, tmp_path):
    tri = pachner_13(standard_triangulation(SurfaceSpec(True, 1)), 0)
    code, out = run(capsys, "compute", "--group", "quaternion:8", "--method", "statesum",
                    "--surface", write_triangulation(tmp_path, tri))
    assert code == 0 and json.loads(out)["exact"] == {"statesum": "5"}


def test_refined_klein_bottle_file_passes_every_route(capsys, tmp_path):
    tri = pachner_13(standard_triangulation(SurfaceSpec(False, 2)), 0)
    code, out = run(capsys, "compute", "--group", "quaternion:8", "--method", "all",
                    "--surface", write_triangulation(tmp_path, tri))
    data = json.loads(out)
    assert code == 0 and data["passed"]
    assert data["surface"] == "nonorientable:2"
    assert data["exact"] == {"direct": "5", "statesum": "5", "verlinde": "5"}


@pytest.mark.parametrize("data,message", [
    ({"pairing": [3, 5, 4, 0, 2, 1], "reversal": [1] * 6}, "no 'triangles' field"),
    ([3, 5, 4, 0, 2, 1], "must be a JSON object"),
    ({"triangles": 2, "pairing": [3, 5, 4, 0, 2, 7], "reversal": [1] * 6},
     "pairing entries must be flags 0..5"),
])
def test_malformed_triangulation_file_is_a_json_error(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--surface", f"file:{path}")
    assert code == 1
    error = json.loads(out)["error"]
    assert error.startswith("SurfaceError") and message in error


def test_sphere_refinement_counts_distinct_triangulations(capsys):
    # the sphere and 5 variants, which redraw moves until their gluings differ
    for seed in ("0", "1"):
        code, out = run(capsys, "check", "--suite", "invariance", "--json", "--seed", seed)
        rows = [r for r in json.loads(out)["rows"] if r["name"].startswith("sphere refinement")]
        assert code == 0 and len(rows) == 11
        assert all(r["passed"] and r["detail"] == "6 triangulations" for r in rows)


def test_workers_flag_is_accepted_and_has_no_effect(capsys):
    argv = ("check", "--suite", "oracles", "--json")
    assert run(capsys, *argv, "--workers", "3") == run(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("compute", "--group", "quaternion:8", "--surface", "orientable:1", "--workers", "1"),
    ("compute", "--group", "quaternion:8", "--surface", "orientable:1", "--seed", "0"),
    ("decompose", "--group", "quaternion:8", "--seed", "0"),
])
def test_only_check_takes_seed_and_workers(capsys, argv):
    assert main(list(argv)) == 2
    capsys.readouterr()


def test_statesum_overflow_is_a_computation_error(capsys):
    code, out = run(capsys, "compute", "--group", "symmetric:5", "--surface", "orientable:5",
                    "--method", "statesum")
    assert code == 1
    assert json.loads(out)["error"].startswith("ContractionError")


def test_statesum_bound_is_refused_before_triangulating(capsys, monkeypatch):
    """#G^(2 - chi) >= 2^63 is refused before the standard triangulation is
    built: every triangulation has at least 2 - chi free edges."""
    monkeypatch.setattr(invariants, "standard_triangulation",
                        mock.Mock(side_effect=AssertionError("triangulated")))
    G = build_group("cyclic:2")
    with pytest.raises(ContractionError, match="2\\^200000 labelings reach the int64 bound 2\\^63"):
        cross_check(G, trivial_cocycle(G), SurfaceSpec(True, 100000), methods=("statesum",))
    # the bound is decided without the power itself: 120^20000000 would take minutes
    for group, order in (("cyclic:2", 2), ("symmetric:5", 120)):
        code, out = run(capsys, "compute", "--group", group, "--surface", "orientable:10000000",
                        "--method", "statesum")
        assert code == 1
        assert json.loads(out)["error"].startswith(f"ContractionError: {order}^20000000 labelings")


@pytest.mark.parametrize("surface, kinds", [
    ("orientable:1", ["free", "free", "forced"]),
    ("orientable:2", ["free", "free", "forced", "forced", "forced", "free", "forced", "free",
                      "forced"]),
    ("nonorientable:2", ["free", "forced", "free"]),
])
def test_statesum_plan_diagnostics_are_pinned(capsys, surface, kinds):
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--surface", surface,
                    "--method", "statesum")
    assert code == 0
    assert json.loads(out)["diagnostics"]["statesum_plan"] == {
        "free_edges": kinds.count("free"), "kinds": kinds, "order": list(range(len(kinds)))}


def test_decompose_output(capsys):
    code, out = run(capsys, "decompose", "--group", "symmetric:3")
    data = json.loads(out)
    assert code == 0
    assert [b["dim"] for b in data["blocks"]] == [1, 1, 2]
    assert all(b["fs"] == fs for b, fs in zip(data["blocks"], (1, 1, 1)))
    assert "seed" not in data


def test_compute_reports_indicators_on_orientable_surfaces(capsys):
    code, out = run(capsys, "compute", "--group", "quaternion:8", "--surface", "orientable:1")
    diagnostics = json.loads(out)["diagnostics"]
    assert code == 0
    assert diagnostics["fs"] == [1, 1, 1, 1, -1]
    assert (diagnostics["prime"], diagnostics["split_steps"]) == (17, 4)


def test_cocycle_file_descriptor(tmp_path, capsys):
    c = heisenberg_cocycle(2)
    path = tmp_path / "h2.cocycle"
    write_cocycle_file(c, path)
    code, out = run(capsys, "compute", "--group", "product(cyclic:2,cyclic:2)",
                    "--cocycle", f"file:{path}", "--surface", "orientable:1")
    assert code == 0
    assert json.loads(out)["exact"]["direct"] == "1"


def test_cocycle_group_mismatch_fails(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:4",
                    "--cocycle", "heisenberg:2", "--surface", "orientable:1")
    assert code == 1
    assert "error" in json.loads(out)


def test_unknown_group_is_a_computation_error(capsys):
    code, out = run(capsys, "compute", "--group", "sporadic:1", "--surface", "orientable:1")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("group", ["cyclic:3000", "dihedral:5000"])
def test_oversized_group_is_refused_before_it_is_built(capsys, group):
    code, out = run(capsys, "compute", "--group", group, "--surface", "orientable:1")
    assert code == 1
    assert json.loads(out)["error"].startswith("GroupError")


def test_malformed_cocycle_file_is_a_computation_error(tmp_path, capsys):
    path = tmp_path / "bad.cocycle"
    path.write_text("order 2\n" + "".join(f"{i} {j} 0\n" for i in range(2) for j in range(2))
                    + "5 0 1\n")
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--cocycle", f"file:{path}",
                    "--surface", "orientable:1")
    assert code == 1
    assert "line 6" in json.loads(out)["error"]


@pytest.mark.parametrize("flag,value", [("--surface", "orientable:x"),
                                        ("--surface", "nonorientable:"),
                                        ("--cocycle", "heisenberg:q")])
def test_bad_numeric_descriptor_is_named(capsys, flag, value):
    argv = {"--group": "product(cyclic:2,cyclic:2)", "--cocycle": "heisenberg:2",
            "--surface": "orientable:1", flag: value}
    code, out = run(capsys, "compute", *(x for kv in argv.items() for x in kv))
    assert code == 1
    error = json.loads(out)["error"]
    assert repr(value) in error and "invalid literal" not in error


def test_usage_errors_exit_two(capsys):
    assert main(["compute", "--surface", "orientable:1"]) == 2   # missing --group
    capsys.readouterr()
    assert main(["check", "--suite", "nonsense"]) == 2
    capsys.readouterr()


def test_check_config_file(capsys, tmp_path):
    klein = write_triangulation(tmp_path, standard_triangulation(SurfaceSpec(False, 2)))
    config = [{"group": "cyclic:2", "cocycle": "trivial", "surface": "orientable:1"},
              {"group": "symmetric:3", "surface": "orientable:2"},
              {"group": "quaternion:8", "surface": klein}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "check", "--config", str(path), "--json")
    data = json.loads(out)
    assert code == 0
    assert data["passed"]
    assert [row["name"] for row in data["rows"]] == [
        "cyclic:2/trivial/orientable:1", "symmetric:3/trivial/orientable:2",
        "quaternion:8/trivial/nonorientable:2"]


ENTRY = {"group": "cyclic:2", "surface": "orientable:1"}


@pytest.mark.parametrize("text,message", [
    (json.dumps([{"surface": "orientable:1"}]), "entry 0 needs a string 'group'"),
    (json.dumps([ENTRY, {"group": "cyclic:2"}]), "entry 1 needs a string 'surface'"),
    (json.dumps([{"group": "cyclic:2", "surface": 1}]), "entry 0 needs a string 'surface'"),
    (json.dumps([ENTRY, "cyclic:2"]), "entry 1 must be an object"),
    (json.dumps(ENTRY), "JSON list"),
    (json.dumps([dict(ENTRY, tol=1e-3)]), "entry 0 has an unknown key 'tol'"),
    (json.dumps([dict(ENTRY, cocycle=2)]), "entry 0: 'cocycle' must be a string"),
    (json.dumps([dict(ENTRY, seed=0)]), "entry 0 has an unknown key 'seed'"),
    ("[{", "JSONDecodeError"),
    ("[]", "non-empty JSON list"),
])
def test_malformed_config_is_a_json_error(capsys, tmp_path, text, message):
    path = tmp_path / "suite.json"
    path.write_text(text)
    for mode in (("--json",), ()):
        code, out = run(capsys, "check", "--config", str(path), *mode)
        assert code == 1
        assert message in json.loads(out)["error"]


def test_refused_config_entry_is_named(capsys, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([ENTRY, {"group": "symmetric:5", "surface": "orientable:5"}]))
    code, out = run(capsys, "check", "--config", str(path))
    assert code == 1
    assert json.loads(out)["error"] == (
        "ValueError: config entry 1 (symmetric:5/trivial/orientable:5): "
        "InvariantError: 120^10 homomorphism candidates overflow int64 counts")


@pytest.mark.parametrize("gspec", ["cyclic:2", "cyclic:4", "product(cyclic:2,cyclic:2)",
                                   "dihedral:8", "quaternion:8"])
def test_parse_cocycle_reads_catalog_names(gspec):
    G = build_group(gspec)
    for c in sign_cocycles_catalog(G):
        parsed = parse_cocycle(c.name, G)
        assert parsed.name == c.name and parsed.group == G
        assert parsed.order == c.order and np.array_equal(parsed.exps, c.exps)


def test_parse_cocycle_builds_only_the_named_cocycle(monkeypatch):
    """klein4:diag shares its group with heisenberg:2, which is neither built
    nor verified when klein4:diag is parsed."""
    verified, verify = [], cocycles.verify_cocycle
    monkeypatch.setattr(cocycles, "verify_cocycle", lambda c: verified.append(c.name) or verify(c))
    monkeypatch.setattr(cocycles, "heisenberg_cocycle", mock.Mock(side_effect=AssertionError))
    G = build_group("product(cyclic:2,cyclic:2)")
    assert parse_cocycle("klein4:diag", G).name == "klein4:diag"
    assert verified == ["klein4:diag"]


def test_unknown_cocycle_name_keeps_its_error_without_catalog_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gspec, name in [("cyclic:5", "q8:cap"), ("quaternion:8", "q8:cap")]:
            with pytest.raises(ValueError, match="^cannot parse cocycle descriptor"):
                parse_cocycle(name, build_group(gspec))


@pytest.mark.parametrize("gspec,name,home", [("cyclic:5", "q8:cup", "quaternion:8"),
                                             ("quaternion:8", "z2:sign", "cyclic:2"),
                                             ("cyclic:2", "klein4:diag",
                                              "product(cyclic:2,cyclic:2)")])
def test_catalog_name_on_another_group_names_its_group(gspec, name, home):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^cocycle {name} lives on {re.escape(home)}, "
                                             f"not on {gspec}$"):
            parse_cocycle(name, build_group(gspec))


def test_catalog_cocycle_on_another_group_from_the_command_line(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:2", "--cocycle", "z4:carry",
                    "--surface", "orientable:1")
    assert code == 1
    assert json.loads(out)["error"] == (
        "ValueError: cocycle z4:carry lives on cyclic:4, not on cyclic:2")


def test_catalog_cocycle_from_the_command_line(capsys, tmp_path):
    code, out = run(capsys, "compute", "--group", "quaternion:8", "--cocycle", "q8:cup",
                    "--surface", "nonorientable:6", "--method", "all")
    data = json.loads(out)
    assert code == 0 and data["cocycle"] == "q8:cup"
    assert data["exact"] == {"direct": "256", "statesum": "256", "verlinde": "256"}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"group": "dihedral:8", "cocycle": "d8:lift",
                                 "surface": "nonorientable:2"}]))
    code, out = run(capsys, "check", "--config", str(path), "--json")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["rows"]] == ["dihedral:8/d8:lift/nonorientable:2"]


def test_parse_cocycle_validates_group():
    G = build_group("product(cyclic:2,cyclic:2)")
    c = parse_cocycle("heisenberg:2", G)
    assert c.group == G
    with pytest.raises(ValueError):
        parse_cocycle("heisenberg:3", G)
    with pytest.raises(ValueError):
        parse_cocycle("mystery", G)
    with pytest.raises(ValueError, match="'heisenberg:q'"):
        parse_cocycle("heisenberg:q", G)


# ---------------------------------------------------------------------------
# the run scope of dw check: each algebra is decomposed once per run, and
# nothing outlives the run

@pytest.fixture
def decompositions(monkeypatch):
    """The group of every decomposition computed, stored results excluded."""
    calls = []
    decompose = algebra._decompose

    def counted(A):
        calls.append(A.group.name)
        return decompose(A)

    monkeypatch.setattr(algebra, "_decompose", counted)
    return calls


def test_check_decomposes_each_algebra_once_per_run(capsys, decompositions):
    assert main(["check", "--suite", "all", "--json"]) == 0
    assert len(decompositions) == 19
    assert main(["check", "--suite", "all", "--json"]) == 0
    assert len(decompositions) == 38
    capsys.readouterr()


def test_check_computes_indicators_once_per_decomposition(capsys, monkeypatch, decompositions):
    calls = []
    fs_indicators = algebra.fs_indicators

    def counted(dec):
        calls.append(dec.algebra.cocycle.name)
        return fs_indicators(dec)

    monkeypatch.setattr(algebra, "fs_indicators", counted)
    assert main(["check", "--suite", "all", "--json"]) == 0
    # every decomposition but heisenberg:3's, whose cocycle is not sign-valued
    assert len(decompositions) == 19 and len(calls) == 18
    assert "heisenberg:3" not in calls and {"heisenberg:2", "q8-over-v4"} <= set(calls)
    capsys.readouterr()


def test_cross_check_outside_check_keeps_no_state(decompositions):
    G = build_group("quaternion:8")
    c = trivial_cocycle(G)
    for _ in range(2):
        assert cross_check(G, c, SurfaceSpec(True, 1)).passed
    assert len(decompositions) == 2


def test_run_scope_ends_when_check_returns_or_raises(capsys, tmp_path, decompositions):
    A = TwistedGroupAlgebra(build_group("cyclic:2"), trivial_cocycle(build_group("cyclic:2")))
    good = tmp_path / "good.json"
    good.write_text(json.dumps([ENTRY, ENTRY]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([ENTRY, {"group": "nonsense:2", "surface": "orientable:1"}]))
    assert main(["check", "--config", str(good), "--json"]) == 0
    assert len(decompositions) == 1
    with pytest.raises(ValueError, match="unknown group family"):
        cmd_check(build_parser().parse_args(["check", "--config", str(bad)]))
    assert len(decompositions) == 2
    for _ in range(2):
        wedderburn_decompose(A)
    assert len(decompositions) == 4
    capsys.readouterr()


def test_run_scope_keys_on_cocycle_table(decompositions):
    c = heisenberg_cocycle(2)
    twisted = twist(c, [0, 1, 0, 0], 2)
    assert twisted.order == c.order and not np.array_equal(twisted.exps, c.exps)
    with run_scope():
        decs = [wedderburn_decompose(TwistedGroupAlgebra(c.group, cocycle))
                for cocycle in (c, c, twisted, twisted)]
    assert decompositions == [c.group.name, c.group.name]
    assert decs[1].blocks is decs[0].blocks and decs[3].blocks is decs[2].blocks
    assert decs[1].algebra is not decs[0].algebra    # each caller gets its own algebra
    assert decs[2].dims == decs[0].dims


NO_NUMPY_RANDOM = """
import sys
from dwsurf import (TwistedGroupAlgebra, build_group, cross_check, decomposition_to_json,
                    heisenberg_cocycle, sign_cocycles_catalog, wedderburn_decompose)
from dwsurf.cli import main
from dwsurf.surfaces import SurfaceSpec
G = build_group("quaternion:8")
q8 = next(c for c in sign_cocycles_catalog(G) if c.name == "q8:cup")
h3 = heisenberg_cocycle(3)
for G, c, spec in ((G, q8, SurfaceSpec(False, 2)), (h3.group, h3, SurfaceSpec(True, 1))):
    assert cross_check(G, c, spec, oracle=True).passed
    decomposition_to_json(wedderburn_decompose(TwistedGroupAlgebra(G, c)))
assert main(["check", "--suite", "all", "--json"]) == 0
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""


def test_no_library_path_imports_numpy_random():
    # a fresh interpreter: every route, the oracle, a character lift and dw check
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_closed_standard_output_ends_quietly():
    """A reader that closes the pipe before dw writes (as `| head -c 10`
    does after its bytes) gets no error JSON and no traceback on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["compute", "--group", "cyclic:2", "--surface", "orientable:1"],
                 ["check", "--suite", "theorems"]):
        proc = subprocess.Popen([sys.executable, "-m", "dwsurf.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1, err
        assert err == ""
