"""Record perfbench/reference.json from one seed-0 sample per workload.

    python3 perfbench/record_reference.py

The reference pins the program's outputs at the commit that introduced
the benchmark; re-record it only when a change is meant to alter the
numbers, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import Run


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        run = Run(name, seed=0, seconds=0.0)
        cfg = run.prepare()
        sample = run.sample(cfg, 0, trace=False)
        out = run.dir / "sample_0" / "out"
        exits = [p for p in sample["problems"] if p.startswith("command ")]
        problems = exits or checks.CHECKS[name](out, None)
        if problems:
            print(f"{name}: sample failed: {problems}", file=sys.stderr)
            return 1
        reference[name] = checks.record_reference(name, out)
        print(f"{name}: recorded")
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
