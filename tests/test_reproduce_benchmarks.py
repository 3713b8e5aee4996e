import csv
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_benchmarks.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_solves_a_directory_and_writes_csv(tmp_path, capsys):
    instances = tmp_path / "instances"
    instances.mkdir()
    (instances / "tri.mc").write_text("3 3\n1 2 1\n1 3 1\n2 3 1\n")
    # min -2 x1 - x2 + 3 x1 x2 is -2, at x = (1, 0)
    (instances / "small.bq").write_text("2 3\n1 1 -2\n2 2 -1\n1 2 3\n")
    out = tmp_path / "results.csv"

    assert load_script().main([str(instances), "--csv", str(out)]) == 0
    assert "error" not in capsys.readouterr().err

    with open(out, newline="") as fh:
        rows = {row["instance"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"tri.mc", "small.bq"}
    tri, small = rows["tri.mc"], rows["small.bq"]
    assert (tri["format"], tri["size"], tri["nnz"]) == ("mc", "3", "3")
    assert (small["format"], small["size"], small["nnz"]) == ("bq", "2", "3")
    assert tri["status"] == small["status"] == "optimal"
    assert float(tri["best_value"]) == 2.0
    assert float(small["best_value"]) == -2.0
    assert float(tri["gap_percent"]) == float(small["gap_percent"]) == 0.0
