"""bench/record.py writes a BENCH file of the documented shape."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_record_writes_bench_schema(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/record.py", "--label", "t", "--seeds", "3", "--seconds", "1",
         "--workloads", "halfspace_lp", "--out", str(tmp_path)],
        cwd=_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}

    assert out["label"] == "t" and out["seeds"] == [3] and out["seconds"] == 1
    assert out["workloads"] == ["halfspace_lp"] and out["wins"] is None
    assert list(out["env"]) == ["change"]
    assert {"python", "numpy", "blas", "git_commit", "src_ncerm_lines",
            "uncommitted_changes"} <= out["env"]["change"].keys()

    (run,) = out["runs"]
    assert run["side"] == "change" and run["workload"] == "halfspace_lp" and run["seed"] == 3
    assert run["correct"] is True and run["failed"] == 0 and run["attempted"] >= 1
    assert set(run["metrics"]) == end_to_end

    stats = out["summary"]["change"]["halfspace_lp"]
    assert set(stats) == end_to_end
    for name, s in stats.items():
        assert s["n"] == 1 and s["unit"] == run["metrics"][name]["unit"]
        assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
    assert "| halfspace_lp | change |" in proc.stdout


def test_record_children_compile_into_the_given_cache(tmp_path, monkeypatch):
    """A child writes its bytecode under the prefix run_once gives it, so
    each side starts from its own fresh cache, not the checkout's."""
    spec = importlib.util.spec_from_file_location("bench_record", _ROOT / "bench" / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env, run = record.run_once(_ROOT, "halfspace_lp", 3, 1, tmp_path / "pycache")
    assert env is not None and run["correct"] is True
    assert list((tmp_path / "pycache").rglob("ncerm/solvers.*.pyc"))
