"""The ``--exact`` drift gate of ``tools/bench_diff.py``."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_diff", ROOT / "tools" / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)

COMMITTED = json.loads((ROOT / "BENCH_coloring.json").read_text())


def _gate(tmp_path, new_artifact) -> int:
    new = tmp_path / "new.json"
    new.write_text(json.dumps(new_artifact))
    return bench_diff.main(["--exact", str(ROOT / "BENCH_coloring.json"), str(new)])


def test_exact_gate_ignores_timings(tmp_path):
    artifact = copy.deepcopy(COMMITTED)
    for row in artifact["rows"]:
        row["seconds"] *= 3
        row["metrics"].pop("solve_seconds", None)
        row["metrics"].pop("peak_rss_bytes", None)
    assert _gate(tmp_path, artifact) == 0


def test_exact_gate_fails_on_drift(tmp_path, capsys):
    drifted = copy.deepcopy(COMMITTED)
    drifted["rows"][1]["metrics"]["coloring_sha"] = "0" * 16
    assert _gate(tmp_path, drifted) == 1
    assert "coloring_sha" in capsys.readouterr().err

    missing = copy.deepcopy(COMMITTED)
    del missing["rows"][0]
    assert _gate(tmp_path, missing) == 1

    extra = copy.deepcopy(COMMITTED)
    metrics = extra["rows"][0]["metrics"]
    metrics["graph_digest"] = "abc"  # a *_digest field only on one side
    assert _gate(tmp_path, extra) == 1
