"""Write golden.json: the SHA-256 digest of every workload's report for each
noise seed in the pool, as the code in this checkout emits them.

    python3 perfbench/make_golden.py

Regenerate it only in a change that means to move the reports, and say so.
"""

from __future__ import annotations

import json

from worker import HERE, digest, import_stabeq
from workloads import NOISE_POOL, SPECS, make_config


def main() -> None:
    stabeq = import_stabeq()
    golden = {}
    for workload, spec in SPECS.items():
        golden[workload] = {}
        for seed in range(NOISE_POOL):
            report = stabeq.run_experiment(make_config(workload, seed))
            golden[workload][str(seed)] = digest(stabeq.emit_report(report, spec["format"]))
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
