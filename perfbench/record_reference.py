"""Record reference outputs of the ops whose inputs do not depend on the
seed (``reference`` in workloads.py), from the cutoff_lab sources of this checkout, into reference.json.

    python3 perfbench/record_reference.py

Run it only on the code the reference should describe; check.py compares
every later run against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BLAS_THREADS

# The same BLAS thread count as the benchmark's workers, set before numpy
# is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import check                            # noqa: E402
import workloads                        # noqa: E402
import worker                           # noqa: E402


def main() -> int:
    work = os.path.join(worker.ROOT, ".perfbench", "reference-work")
    reference = {}
    for name in workloads.WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        workloads.make_inputs(name, 0, work)
        for op in workloads.ops(name, 0, work):
            if not op["reference"]:
                continue
            rec = worker.run_op(op)
            if rec["error"] is not None or rec["rc"] not in (0, 3):
                print(f"{op['name']}: no reference ({rec['error'] or rec['rc']})")
                continue
            if op["kind"] == "cli":
                snap = os.path.join(work, "snap")
                shutil.rmtree(snap, ignore_errors=True)
                worker.snapshot(op, snap)
                reference[op["name"]] = check.read_outputs(snap)
            else:
                reference[op["name"]] = rec["values"]
            print(f"{op['name']}: recorded")
    shutil.rmtree(work, ignore_errors=True)
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
