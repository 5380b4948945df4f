"""Record drive_b1's reference seg_logits; run from the root of a checkout.

    python3 perfbench/record_reference.py

The recorded file is the program's behaviour at the commit that defined
the benchmark; later commits are compared against it, so re-record only
when a change of the model's outputs is intended.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    work = ROOT / "perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        wl = workloads.DriveB1(0, Path(tmp))
        wl.setup()
        logits = workloads.reference_logits(wl.model)
    np.savez_compressed(workloads.REFERENCE,
                        **{f"scene_{seed}": v for seed, v in logits.items()})
    print(f"wrote {workloads.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
