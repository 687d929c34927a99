"""Record the pipeline workloads' counters as the expected output.

    python3 perfbench/record_expected.py

Runs each pipeline workload once and writes every app's counters to
``expected/pipeline_counters.json``.  Re-record only when a change is meant
to alter the simulated counters, and say so in the change.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import require_source  # noqa: E402
from pipeline import WORKLOADS, run_child, save_expected  # noqa: E402


def main() -> int:
    require_source()
    document = {}
    for name, workload in WORKLOADS.items():
        _setup, result = run_child(workload, trace=False)
        errors = {abbr: row["error"] for abbr, row in result["apps"].items()
                  if row["error"] is not None}
        if errors:
            print(f"{name}: apps raised {errors}", file=sys.stderr)
            return 1
        document[name] = {
            "config": workload.config(),
            "apps": {abbr: row["counters"] for abbr, row in result["apps"].items()},
        }
    save_expected(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
