import csv
import io
import json

import numpy as np
import pytest

from dwsurf import algebra
from dwsurf.algebra import TwistedGroupAlgebra, wedderburn_decompose
from dwsurf.cli import build_parser, cmd_check, main, parse_cocycle
from dwsurf.cocycles import (RootOfUnity, heisenberg_cocycle, trivial_cocycle, twist,
                             write_cocycle_file)
from dwsurf.groups import build_group
from dwsurf.invariants import cross_check
from dwsurf.memo import run_scope
from dwsurf.surfaces import SurfaceSpec, standard_triangulation


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


def test_compute_single_method(capsys):
    code, out = run(capsys, "compute", "--group", "cyclic:4", "--surface", "orientable:1",
                    "--method", "verlinde")
    data = json.loads(out)
    assert code == 0
    assert list(data["values"]) == ["verlinde"]


def test_repeated_runs_are_byte_identical(capsys):
    args = ("compute", "--group", "quaternion:8", "--surface", "orientable:2",
            "--seed", "0")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_statesum_reports_plan(capsys):
    code, out = run(capsys, "statesum", "--group", "product(cyclic:2,cyclic:2)",
                    "--cocycle", "heisenberg:2", "--surface", "orientable:1")
    data = json.loads(out)
    assert code == 0
    assert data["exact"] == "1" and data["value"] == [1.0, 0.0]
    assert data["plan"]["free_edges"] == 2
    assert data["states_visited"] > 0


def test_statesum_from_triangulation_file(capsys, tmp_path):
    tri = standard_triangulation(SurfaceSpec(True, 1))
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(tri.to_json()))
    code, out = run(capsys, "statesum", "--group", "symmetric:3",
                    "--surface", "orientable:1", "--tri", f"file:{path}")
    assert code == 0
    assert json.loads(out)["exact"] == "3"


@pytest.mark.parametrize("data,message", [
    ({"pairing": [3, 5, 4, 0, 2, 1], "reversal": [1] * 6}, "no 'triangles' field"),
    ([3, 5, 4, 0, 2, 1], "must be a JSON object"),
    ({"triangles": 2, "pairing": [3, 5, 4, 0, 2, 7], "reversal": [1] * 6},
     "pairing entries must be flags 0..5"),
])
def test_malformed_triangulation_file_is_a_json_error(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "statesum", "--group", "cyclic:2", "--surface", "orientable:0",
                    "--tri", f"file:{path}")
    assert code == 1
    error = json.loads(out)["error"]
    assert error.startswith("SurfaceError") and message in error


def test_workers_flag_is_accepted_and_has_no_effect(capsys):
    argv = ("compute", "--group", "quaternion:8", "--surface", "orientable:2")
    assert run(capsys, *argv, "--workers", "3") == run(capsys, *argv)


def test_statesum_takes_no_workers(capsys):
    assert main(["statesum", "--group", "quaternion:8", "--surface", "orientable:1",
                 "--workers", "2"]) == 2
    capsys.readouterr()


def test_statesum_overflow_is_a_computation_error(capsys):
    code, out = run(capsys, "compute", "--group", "symmetric:5", "--surface", "orientable:5",
                    "--method", "statesum")
    assert code == 1
    assert json.loads(out)["error"].startswith("ContractionError")


def test_decompose_output(capsys):
    code, out = run(capsys, "decompose", "--group", "symmetric:3")
    data = json.loads(out)
    assert code == 0
    assert [b["dim"] for b in data["blocks"]] == [1, 1, 2]
    assert all(b["fs"] == fs for b, fs in zip(data["blocks"], (1, 1, 1)))


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
    config = [{"group": "cyclic:2", "cocycle": "trivial", "surface": "orientable:1"},
              {"group": "symmetric:3", "surface": "orientable:2", "seed": 3}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "check", "--config", str(path), "--json")
    data = json.loads(out)
    assert code == 0
    assert data["passed"]
    assert len(data["rows"]) == 2


ENTRY = {"group": "cyclic:2", "surface": "orientable:1"}


@pytest.mark.parametrize("text,message", [
    (json.dumps([{"surface": "orientable:1"}]), "entry 0 needs a string 'group'"),
    (json.dumps([ENTRY, {"group": "cyclic:2"}]), "entry 1 needs a string 'surface'"),
    (json.dumps([{"group": "cyclic:2", "surface": 1}]), "entry 0 needs a string 'surface'"),
    (json.dumps([ENTRY, "cyclic:2"]), "entry 1 must be an object"),
    (json.dumps(ENTRY), "JSON list"),
    (json.dumps([dict(ENTRY, tol=1e-3)]), "entry 0 has an unknown key 'tol'"),
    (json.dumps([dict(ENTRY, cocycle=2)]), "entry 0: 'cocycle' must be a string"),
    (json.dumps([dict(ENTRY, seed="0")]), "entry 0: 'seed' must be an integer"),
    (json.dumps([dict(ENTRY, seed=True)]), "entry 0: 'seed' must be an integer"),
    ("[{", "JSONDecodeError"),
])
def test_malformed_config_is_a_json_error(capsys, tmp_path, text, message):
    path = tmp_path / "suite.json"
    path.write_text(text)
    code, out = run(capsys, "check", "--config", str(path), "--json")
    assert code == 1
    assert message in json.loads(out)["error"]


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


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("DW_SEED", "7")
    code, out = run(capsys, "decompose", "--group", "cyclic:3")
    assert code == 0
    assert json.loads(out)["seed"] == 7


# ---------------------------------------------------------------------------
# the run scope of dw check: each algebra is decomposed once per run, and
# nothing outlives the run

@pytest.fixture
def decompositions(monkeypatch):
    """The (group, seed) of every decomposition computed, stored results excluded."""
    calls = []
    decompose = algebra._decompose

    def counted(A, seed):
        calls.append((A.group.name, seed))
        return decompose(A, seed)

    monkeypatch.setattr(algebra, "_decompose", counted)
    return calls


def test_check_decomposes_each_algebra_once_per_run(capsys, decompositions):
    assert main(["check", "--suite", "all", "--json"]) == 0
    assert len(decompositions) == 18
    assert main(["check", "--suite", "all", "--json"]) == 0
    assert len(decompositions) == 36
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


def test_run_scope_keys_on_seed_and_cocycle_table(decompositions):
    c = heisenberg_cocycle(2)
    b = [RootOfUnity(0, 1), RootOfUnity(1, 2), RootOfUnity(0, 1), RootOfUnity(0, 1)]
    twisted = twist(c, b)
    assert twisted.order == c.order and not np.array_equal(twisted.exps, c.exps)
    with run_scope():
        decs = [wedderburn_decompose(TwistedGroupAlgebra(c.group, cocycle), seed)
                for cocycle, seed in ((c, 0), (c, 0), (c, 1), (twisted, 0), (twisted, 0))]
    assert decompositions == [(c.group.name, 0), (c.group.name, 1), (c.group.name, 0)]
    assert decs[1].blocks is decs[0].blocks and decs[4].blocks is decs[3].blocks
    assert decs[1].algebra is not decs[0].algebra    # each caller gets its own algebra
    assert decs[3].dims == decs[0].dims
