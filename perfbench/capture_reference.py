"""Write the gate's reference CSVs: every workload spec run once at the
reference seed and the workload's trial count, untraced.

Usage (from the root of a source checkout):
    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    run.REF_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=root / ".perfbench_work") as tmp:
            result = run.Bench(root, Path(tmp), name, run.REFERENCE_SEED).sweep(1)
            for spec, csv in zip(workload.specs, result.csvs):
                if csv is None:
                    return 1
                shutil.copyfile(csv, run.REF_DIR / f"{spec}.csv")
                print(f"wrote {run.REF_DIR / f'{spec}.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
