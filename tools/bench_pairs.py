"""Paired benchmark runs of a parent revision against the current tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload train_b8 --seed 0 \
        --pairs 10 --tag kernels

Checks the parent revision out into a temporary git worktree, then runs
`perfbench/run.py` for one workload and seed in N pairs: once in the
worktree and once in this checkout (with its uncommitted changes),
alternating which side runs first. Each side runs its own copy of the
benchmark, for BENCHMARK.json's run_seconds. The worktree is removed
afterwards.

The results go into BENCH_<tag>.json at the root of this checkout, under
the key "<workload>/seed<seed>/trace<trace>"; other keys already in the
file are kept, so one tag collects several workloads and seeds. The file
is replaced whole through a temporary sibling, so a kill mid-write loses
none of its other entries.

For each metric the entry holds each side's values, median and
quartiles, the number of pairs the change won (by the metric's direction
in BENCHMARK.json; ties count for neither side), and whether the gain rule
holds: at least ten pairs, the change wins at least nine in ten, and the
medians differ by more than the parent's interquartile range. An
end-to-end metric also gets `beyond_bound` and `worse_beyond_bound`:
whether the change's median is better, or worse, than the parent's by
more than the metric's bound in BENCHMARK.json, taken as a fraction of
the parent's median. `failed_share_worse` says whether the change's
share of failed operations (failed over attempted, summed over its runs)
is above the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fewer pairs than this never show a gain, whatever their spread
MIN_PAIRS = 10


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_side(tree: Path, args, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        last = lines[-1][:200] if lines else ""
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RuntimeError(f"{tree}: perfbench/run.py exited {proc.returncode} with last "
                           f"stdout line {last!r}; its stderr ends:\n{tail}")
    result["environment"] = next((ln[len("environment "):] for ln in lines
                                  if ln.startswith("environment ")), None)
    return result


def summarize(runs: dict, better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's values and quartiles, the pairs the change
    won, gain_shown and, for a metric in bounds (name -> relative bound),
    beyond_bound and worse_beyond_bound."""
    names = sorted(set(runs["parent"][0]["metrics"]) & set(runs["change"][0]["metrics"]))
    out = {}
    for name in names:
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        entry = {"unit": runs["parent"][0]["metrics"][name]["unit"],
                 "better": better.get(name)}
        for side, values in sides.items():
            q1, med, q3 = quartiles(values)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "values": values}
        gap = sign * (entry["change"]["median"] - entry["parent"]["median"])
        entry["change_wins"] = wins
        pairs = len(sides["parent"])
        entry["gain_shown"] = (pairs >= MIN_PAIRS and wins >= 0.9 * pairs
                               and gap > entry["parent"]["q3"] - entry["parent"]["q1"])
        if bounds and name in bounds:
            margin = bounds[name] * abs(entry["parent"]["median"])
            entry["beyond_bound"] = gap > margin
            entry["worse_beyond_bound"] = -gap > margin
        out[name] = entry
    return out


def failed_share_worse(failed: dict, attempted: dict) -> bool:
    """Whether the change failed a larger share of its attempted operations
    than the parent; each side maps to one count per run."""
    def share(side):
        total = sum(attempted[side])
        return sum(failed[side]) / total if total else 0.0
    return share("change") > share("parent")


def write_entry(path: Path, key: str, entry: dict) -> None:
    """Set path's entry under key, keeping its other entries. The file is
    written to a temporary sibling and renamed over path, so a failed or
    killed write leaves the previous file whole."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[key] = entry
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=("drive_b1", "train_b8", "verify_f64"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_side(tree if side == "parent" else ROOT, args, seconds)
                    runs[side].append(result)
                    value = result["metrics"].get("throughput_per_s", {}).get("value")
                    print(f"pair {i + 1}/{args.pairs} {side}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}"
                          + ("" if value is None else f" throughput_per_s={value:.4g}"),
                          flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    if not all(r["metrics"] for side in runs.values() for r in side):
        print("a run printed no metrics; nothing written", file=sys.stderr)
        return 1
    failed = {side: [r["failed"] for r in rs] for side, rs in runs.items()}
    attempted = {side: [r["attempted"] for r in rs] for side, rs in runs.items()}
    entry = {
        "parent": rev, "pairs": args.pairs, "seconds": seconds,
        "environment": runs["change"][0]["environment"],
        "correct": {side: sum(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed": failed,
        "attempted": attempted,
        "failed_share_worse": failed_share_worse(failed, attempted),
        "metrics": summarize(runs, better, bounds),
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    write_entry(path, f"{args.workload}/seed{args.seed}/trace{args.trace}", entry)
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
