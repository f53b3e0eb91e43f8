"""Capture the golden outputs of the seed-0 operations from the current code.

    python3 perfbench/capture_golden.py

Writes ``perfbench/golden/<workload>.json.gz`` for every workload: the
output text of every seed-0 operation, keyed by operation.  Run it only
when a change to the program is meant to change its outputs, and say so
in the change.
"""

import gzip
import json
import sys

import run  # pins the BLAS threads before numpy is imported
import workloads


def main() -> int:
    runner = run.Runner(run.import_maserline())
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        outputs = {}
        for op in workloads.build_ops(workload, 0):
            text, error, _ = runner.run_op(op)
            if error:
                print(f"{workload}: {op.key} failed: {error}", file=sys.stderr)
                return 1
            outputs[op.key] = text
        data = json.dumps(outputs, indent=0, sort_keys=True).encode()
        run.golden_path(workload).write_bytes(gzip.compress(data, mtime=0))
        print(f"{workload}: {len(outputs)} outputs, {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
