"""Record the committed exact values of the default seed.

    python3 bench/record_exact.py

Runs every audit operation of the default seed once, certifies each output
with the independent checks, and writes the values, keyed by the digest of
the instance file, to exact_values.json.  Rerun it only when the instance
generators change on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    table = {}
    for workload in ("audit-small", "audit-large", "audit-wide"):
        _, blocks = workloads.setup(workload, workloads.DEFAULT_SEED, run.WORK / "record-exact")
        table[workload] = {}
        for op in (op for block in blocks for op in block):
            code, out, err = run.call_cli(op.argv)
            inst = checks.load_instance(Path(op.instance).read_text())
            report = json.loads(out) if code == 0 else None
            reason = f"exit code {code}: {err}" if code != 0 else checks.check_audit(inst, report, op.metrics)
            if reason is not None:
                print(f"error: {' '.join(op.argv)}: {reason}", file=sys.stderr)
                return 1
            table[workload][run.digest(op.instance)] = {
                m: report["metrics"][m]["value"]["rational"] for m in op.metrics
            }
    run.EXACT_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
