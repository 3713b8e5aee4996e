import json
import random

import pytest

from sparsecut.cli import build_arg_parser, config_from_args, main
from sparsecut.instances import detect_format as _detect_format
from sparsecut.solver import Config

from oracles import torus_edges

MC_TRIANGLE = "3 3\n1 2 1\n1 3 1\n2 3 1\n"
BQ_SMALL = "2 3\n1 1 -2\n2 2 -1\n1 2 3\n"


def run_cli(tmp_path, capsys, content, name, extra=()):
    path = tmp_path / name
    path.write_text(content)
    rc = main([str(path), *extra])
    out = capsys.readouterr().out
    return rc, out


def test_maxcut_instance_json_to_stdout(tmp_path, capsys):
    rc, out = run_cli(tmp_path, capsys, MC_TRIANGLE, "tri.mc")
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["best_value"] == 2.0
    assert payload["primal_dual_gap_percent"] == 0.0
    assert payload["partition"] == {}  # hidden unless --write-solution
    assert list(payload) == ["status", "best_value", "primal_dual_gap_percent",
                             "bnb_nodes", "wall_time_s", "partition"]


def test_write_solution_includes_partition(tmp_path, capsys):
    rc, out = run_cli(tmp_path, capsys, MC_TRIANGLE, "tri.mc",
                      ["--write-solution"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload["partition"]) == {"1", "2", "3"}
    assert set(payload["partition"].values()) == {0, 1}


def test_qubo_instance_by_extension(tmp_path, capsys):
    rc, out = run_cli(tmp_path, capsys, BQ_SMALL, "q.bq")
    assert rc == 0
    payload = json.loads(out)
    # min over {0,1}^2 of -2a - b + 3ab is -2 (a=1, b=0)
    assert payload["best_value"] == -2.0


def test_out_file_instead_of_stdout(tmp_path, capsys):
    path = tmp_path / "tri.mc"
    path.write_text(MC_TRIANGLE)
    dest = tmp_path / "report.json"
    rc = main([str(path), "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(dest.read_text())
    assert payload["best_value"] == 2.0


def test_out_file_that_cannot_be_written_exit_code(tmp_path, capsys):
    path = tmp_path / "tri.mc"
    path.write_text(MC_TRIANGLE)
    dest = tmp_path / "missing" / "report.json"
    rc = main([str(path), "--out", str(dest)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {dest}:" in captured.err


def test_format_autodetect_without_extension():
    assert _detect_format("foo.mc", BQ_SMALL) == "mc"  # extension wins
    assert _detect_format("foo", BQ_SMALL) == "bq"  # diagonal entries
    assert _detect_format("foo", MC_TRIANGLE) == "mc"
    assert _detect_format("foo.txt", "2 1\n1 2 5\n") == "mc"


def test_forced_format_overrides_extension(tmp_path, capsys):
    rc, out = run_cli(tmp_path, capsys, BQ_SMALL, "mislabeled.mc",
                      ["--format", "bq"])
    assert rc == 0
    assert json.loads(out)["best_value"] == -2.0


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.mc"
    path.write_text("3 5\n1 2 1\n")
    rc = main([str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "announced 5 edges" in captured.err


def test_overflowing_total_weight_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.mc"
    path.write_text("3 3\n1 2 1e308\n1 3 1e308\n2 3 1e308\n")
    rc = main([str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "total |weight| of the edges exceeds 1e+300" in captured.err


@pytest.mark.parametrize("extra", [
    ["--bogus"],
    ["--time-limit", "abc"],
    ["--time-limit", "nan"],
    ["--time-limit", "inf"],
    ["--time-limit", "-1"],
    ["--gap", "-0.5"],
    ["--gap", "nan"],
    ["--node-limit", "-1"],
    ["--node-limit", "1.5"],
    ["--enum-threshold", "-1"],
    ["--seed", "-1"],
    ["--threads", "-4"],
])
def test_usage_error_exit_code(tmp_path, capsys, extra):
    path = tmp_path / "tri.mc"
    path.write_text(MC_TRIANGLE)
    rc = main([str(path), *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "usage: sparsecut" in captured.err and "error:" in captured.err


def test_help_exit_code(capsys):
    assert main(["--help"]) == 0
    assert "0 for none" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [
    ["--time-limit", "0"], ["--gap", "0"], ["--node-limit", "0"], ["--enum-threshold", "0"],
])
def test_zero_limits_are_accepted(tmp_path, capsys, extra):
    rc, out = run_cli(tmp_path, capsys, MC_TRIANGLE, "tri.mc", extra)
    assert rc == 0
    assert json.loads(out)["best_value"] == 2.0


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main([str(tmp_path / "nope.mc")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.mc"
    path.write_bytes(b"2 1\n1 2 \xff\n")
    rc = main([str(path)])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_limit_hit_exit_code(tmp_path, capsys):
    # dense-ish random instance with a 1-node budget; if it still solves at
    # the root the status is optimal, otherwise exit code 2 with a gap
    import random
    rng = random.Random(71)
    edges = []
    for u in range(1, 25):
        for v in range(u + 1, 25):
            if rng.random() < 0.5:
                edges.append((u, v, rng.choice([-3, -1, 1, 2, 5])))
    content = f"24 {len(edges)}\n" + "".join(
        f"{u} {v} {w}\n" for u, v, w in edges
    )
    rc, out = run_cli(tmp_path, capsys, content, "big.mc",
                      ["--node-limit", "1", "--enum-threshold", "0"])
    payload = json.loads(out)
    if payload["status"] == "optimal":
        assert rc == 0
    else:
        assert rc == 2
        assert payload["status"] == "node_limit"
        assert payload["primal_dual_gap_percent"] > 0.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_time_limited_run_prints_strict_json(tmp_path, capsys):
    # the root of this torus cannot finish within the limit, so the run stops
    # with the root still open
    edges = torus_edges(random.Random(7), 20)
    content = f"400 {len(edges)}\n" + "".join(
        f"{u + 1} {v + 1} {int(w)}\n" for u, v, w in edges
    )
    rc, out = run_cli(tmp_path, capsys, content, "torus.mc",
                      ["--time-limit", "0.5"])
    payload = json.loads(out, parse_constant=_reject_constant)
    assert rc == 2
    assert payload["status"] == "time_limit"
    assert 0.0 < payload["primal_dual_gap_percent"] < 100.0


def test_solver_flags_are_accepted(tmp_path, capsys):
    rc, out = run_cli(
        tmp_path, capsys, MC_TRIANGLE, "tri.mc",
        ["--no-presolve", "--heur-off", "--seed", "3",
         "--enum-threshold", "0",
         "--time-limit", "60", "--gap", "0", "--threads", "1"],
    )
    assert rc == 0
    assert json.loads(out)["best_value"] == 2.0


def test_cli_defaults_are_the_config_defaults():
    assert config_from_args(build_arg_parser().parse_args(["x.mc"])) == Config()
