"""Record the panel outputs of every workload as the benchmark's reference.

    python3 perfbench/make_reference.py

Runs one untimed panel sweep per workload and writes the CSV sha256 digests
and rows to ``perfbench/reference.json``.  ``run.py`` compares each run's
first panel sweep against it (``outputs_identical``, ``ref_max_rel_dev``).
Re-record only when a change to the program is meant to move the outputs,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    harness.import_program()
    reference = {"recorded_at": harness.environment(harness.PANEL_ROOT_SEED)}
    with harness.work_directory() as work_dir:
        for name, workload in harness.WORKLOADS.items():
            sweep = harness.run_sweep(workload, work_dir, f"ref-{name}")
            if sweep["failed"]:
                print(f"{name}: {sweep['failed']} failed cells; reference not written", file=sys.stderr)
                return 1
            reference[name] = harness.reference_entry(workload, sweep["calls"])
            print(f"{name}: {sweep['cells']} cells in {sweep['wall_s']:.1f} s", file=sys.stderr)
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
