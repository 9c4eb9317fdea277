"""Write ``reference_sha256.json``: digests of every exact data file for the default seed.

    python3 perfbench/make_reference.py

Run once per workload in this interpreter, with every check applied first;
refuses to write if any instance fails.  Regenerate only for a change that
is meant to alter the data files, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness
import workloads


def main() -> int:
    out = harness.ROOT / ".perfbench_out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    files: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        failures: dict[str, str] = {}
        _, results, _ = harness.run_rep(wl, out / name, failures)
        files.update(harness.verify(wl, out / name, results, failures, {}))
        if failures:
            print(f"{name}: {failures}", file=sys.stderr)
            return 1
    harness.REFERENCE.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "files": dict(sorted(files.items()))}, indent=1) + "\n")
    print(f"wrote {len(files)} digests to {harness.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
