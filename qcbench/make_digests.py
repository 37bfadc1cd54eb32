"""Regenerate digests.json from the current library.

    python3 qcbench/make_digests.py

Run it only when the workloads themselves change (sizes, generators, query
positions); its output is the reference that later changes are checked against.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import BENCH, DIGEST_SEEDS, ROOT, WORKLOADS, reference_outputs, setup, workload_inputs
from checks import digest


def main() -> None:
    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in WORKLOADS:
            inp = setup(name, 0, Path(tmp))
            table[name] = {}
            for seed in range(DIGEST_SEEDS):
                data, positions = workload_inputs(name, seed)
                table[name][str(seed)] = digest(reference_outputs(inp, name, data, positions))
                print(name, seed, table[name][str(seed)], flush=True)
    (BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
