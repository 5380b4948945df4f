"""Self-test of the benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

1. A minimal-length run of every workload, untraced and traced, prints
   exactly the metrics BENCHMARK.json names, each with its unit, and
   passes its checks.
2. A second traced run with the same seed repeats every count exactly.
3. A corrupted drive_b1 reference, in a copy of the checkout, drives the
   error rate above 0.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Exits 1 if any of these fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"
COUNTS = (".calls", "autodiff.tape_records", "autodiff.tape_useful_frac",
          "training.backward_calls_per_step", "checkpoint.bytes_written")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        traced = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            proc, result = bench(name, trace)
            if result is None:
                expect(False, f"{name} trace={trace} ran: {proc.stderr[-2000:]}")
                continue
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{name} trace={trace} prints every {key} metric "
                                 f"with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace} passes its checks")
            if trace:
                traced.append(result["metrics"])
        if len(traced) == 2:
            counts = [{k: v["value"] for k, v in m.items() if k.endswith(COUNTS)}
                      for m in traced]
            expect(counts[0] == counts[1], f"{name} counts repeat exactly")

    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bare = Path(tmp) / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, _ = bench("drive_b1", 0, cwd=bare)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed,
               "without the program the benchmark fails without a result")

        shutil.copytree(ROOT / "src", bare / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        reference = bare / "perfbench" / "reference" / "drive_b1_seg_logits.npz"
        with np.load(reference) as ref:
            corrupted = {k: ref[k].copy() for k in ref.files}
        corrupted[next(iter(corrupted))].reshape(-1)[0] += 0.1
        np.savez(reference, **corrupted)
        _, result = bench("drive_b1", 0, cwd=bare)
        expect(result is not None and result["failed"] > 0 and not result["correct"],
               "a corrupted reference drives error_rate above 0")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
