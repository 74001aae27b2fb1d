"""Record ``reference.json``: every workload's rows at the default seed.

Run from the repository root when a change is *meant* to alter figure
rows; the benchmark compares rows at the default seed against this
file (packet rows exactly, fluid rows to 1e-9 relative)::

    PYTHONPATH=src:. python3 figbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from figbench.workloads import (DEFAULT_SEED, REFERENCE_PATH,
                                    WORKLOADS)

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for name in ("fluid_grid", "dcqcn_longflow", "fct_sweep"):
            workload = WORKLOADS[name]
            inputs = workload.build(DEFAULT_SEED, Path(scratch))
            reference[name], _ = workload.execute(inputs)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
