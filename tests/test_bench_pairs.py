import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _runs(parent, change, name="throughput_per_s"):
    def run(v):
        return {"metrics": {name: {"value": v, "unit": "1/s"}}}
    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    bp = _tool()
    parent = [10.0] * 10
    change = [11.0] * 8 + [10.0, 9.0]
    up = bp.summarize(_runs(parent, change), {"throughput_per_s": "higher"})
    down = bp.summarize(_runs(parent, change), {"throughput_per_s": "lower"})
    assert up["throughput_per_s"]["change_wins"] == 8
    assert down["throughput_per_s"]["change_wins"] == 1
    assert up["throughput_per_s"]["parent"]["median"] == 10.0


def test_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parent_iqr():
    bp = _tool()
    better = {"throughput_per_s": "higher"}
    parent = [10.0, 10.5, 11.0, 11.5, 12.0, 10.0, 10.5, 11.0, 11.5, 12.0]
    clear = [p + 3.0 for p in parent]
    assert bp.summarize(_runs(parent, clear), better)["throughput_per_s"]["gain_shown"]
    # every pair won, but the medians differ by less than the parent's IQR
    narrow = [p + 0.1 for p in parent]
    assert not bp.summarize(_runs(parent, narrow), better)["throughput_per_s"]["gain_shown"]
    assert not bp.summarize(_runs(parent[:9], clear[:9]), better)["throughput_per_s"]["gain_shown"]
    eight = clear[:8] + parent[8:]
    assert not bp.summarize(_runs(parent, eight), better)["throughput_per_s"]["gain_shown"]


def _run_side_with(monkeypatch, returncode, stdout, stderr=""):
    bp = _tool()

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout, stderr)

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    args = argparse.Namespace(workload="train_b8", seed=0, trace=0)
    return bp.run_side(Path("tree"), args, 36)


def test_run_side_reads_the_last_json_line(monkeypatch):
    result = {"correct": True, "metrics": {}}
    got = _run_side_with(monkeypatch, 0, f"environment py\n{json.dumps(result)}\n")
    assert got == {**result, "environment": "py"}


@pytest.mark.parametrize("returncode, stdout", [
    (1, ""),
    (1, '{"correct": false, "metrics": {}}\n'),
    (0, "environment py\nmetrics follow\n"),
    (0, ""),
])
def test_run_side_failure_names_the_exit_code_and_stderr_tail(monkeypatch, returncode, stdout):
    stderr = "".join(f"line {i}\n" for i in range(40)) + "ValueError: broken workload\n"
    with pytest.raises(RuntimeError) as err:
        _run_side_with(monkeypatch, returncode, stdout, stderr)
    message = str(err.value)
    assert f"exited {returncode}" in message
    assert "ValueError: broken workload" in message
    assert "line 5\n" not in message


def test_beyond_bound_needs_the_median_past_the_bound_in_the_better_direction():
    bp = _tool()
    better = {"peak_rss_mb": "lower", "throughput_per_s": "higher"}
    bounds = {"peak_rss_mb": 0.1}
    parent = [159.0] * 10
    for change, beyond in (([140.0] * 10, True), ([145.0] * 10, False),
                           ([180.0] * 10, False)):
        got = bp.summarize(_runs(parent, change, "peak_rss_mb"), better, bounds)
        assert got["peak_rss_mb"]["beyond_bound"] is beyond
    # a metric with no bound (a per-layer one) gets no verdict
    got = bp.summarize(_runs(parent, [200.0] * 10), better, bounds)
    assert "beyond_bound" not in got["throughput_per_s"]


def test_worse_beyond_bound_needs_the_median_past_the_bound_in_the_worse_direction():
    bp = _tool()
    better = {"peak_rss_mb": "lower", "throughput_per_s": "higher"}
    bounds = {"peak_rss_mb": 0.1, "throughput_per_s": 0.25}
    parent = [100.0] * 10
    for name, change, worse in (("peak_rss_mb", 111.0, True), ("peak_rss_mb", 109.0, False),
                                ("peak_rss_mb", 80.0, False), ("throughput_per_s", 74.0, True),
                                ("throughput_per_s", 76.0, False),
                                ("throughput_per_s", 130.0, False)):
        got = bp.summarize(_runs(parent, [change] * 10, name), better, bounds)[name]
        assert got["worse_beyond_bound"] is worse
        assert not (got["worse_beyond_bound"] and got["beyond_bound"])
    got = bp.summarize(_runs(parent, [300.0] * 10), better, {"peak_rss_mb": 0.1})
    assert "worse_beyond_bound" not in got["throughput_per_s"]


def test_failed_share_worse_compares_failed_over_attempted_summed_per_side():
    bp = _tool()
    attempted = {"parent": [100, 100], "change": [50, 50]}
    # 2 of 200 against 1 of 100: the same share is not worse
    assert not bp.failed_share_worse({"parent": [2, 0], "change": [0, 1]}, attempted)
    assert bp.failed_share_worse({"parent": [2, 0], "change": [1, 1]}, attempted)
    assert not bp.failed_share_worse({"parent": [2, 0], "change": [0, 0]}, attempted)
    # a side with nothing attempted has a share of 0
    assert bp.failed_share_worse({"parent": [], "change": [1]},
                                 {"parent": [], "change": [1]})
    assert not bp.failed_share_worse({"parent": [0], "change": [0]},
                                     {"parent": [0], "change": [0]})


def test_write_entry_keeps_other_entries_and_survives_a_failed_write(tmp_path,
                                                                    monkeypatch):
    bp = _tool()
    path = tmp_path / "BENCH_x.json"
    bp.write_entry(path, "drive_b1/seed0/trace0", {"pairs": 10})
    bp.write_entry(path, "train_b8/seed0/trace0", {"pairs": 10})
    before = path.read_bytes()
    assert set(json.loads(before)) == {"drive_b1/seed0/trace0", "train_b8/seed0/trace0"}

    def half_write(self, text):
        with open(self, "w") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError("killed mid-write")

    monkeypatch.setattr(Path, "write_text", half_write)
    with pytest.raises(OSError, match="killed mid-write"):
        bp.write_entry(path, "verify_f64/seed0/trace0", {"pairs": 10})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
