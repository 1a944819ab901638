"""Write the stored seed-0 rate references that ``workloads.check_records``
compares against (tolerance 1e-12 bits).

Run from the repository root, only when the numbers are meant to change::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import envinfo  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def main() -> int:
    problem = envinfo.blas_thread_problem(envinfo.collect(ROOT))
    if problem:
        print(problem, file=sys.stderr)
        return 1
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for cls in (workloads.CliAllFiles, workloads.TrendMemory):
        run_dir = ROOT / ".bench_run" / f"reference-{cls.name}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(SEED, "full", run_dir)
            workload.reference = None
            output = workload.run()
            rows = workloads.reference_rows(workload.records(output))
            problems, digests = workload.check(output)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        head = {"workload": cls.name, "seed": SEED, "digests": digests}
        body = ",\n".join(json.dumps(row) for row in rows)
        path = workloads.reference_path(cls.name, SEED)
        path.write_text(json.dumps(head)[:-1] + ', "rows": [\n' + body + "\n]}\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(rows)} records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
