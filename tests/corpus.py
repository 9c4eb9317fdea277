"""The data-file corpus: small CLI runs whose data files are pinned by sha256.

    PYTHONPATH=src python tests/corpus.py

rewrites ``corpus_sha256.json`` beside this file from the runs in ``RUNS``,
with numpy's version and the platform they ran on.  ``test_corpus.py`` re-runs
them and names every file whose bytes moved.  Regenerate only for a change
that is meant to alter data files, and name each moved file and the reason in
CHANGES.md; never delete an entry to make the test pass.

Every run covers a branch a data file can depend on: the enumeration filters
on one and two workers, the whole cube (``--r`` at least m) with and without
``--eps`` on one and two workers, both histogram kernels, both cluster
kernels, state dumps, the p-spin model at p = 2 and 3 on one and on two 64-edge words, both theory scans'
K lists at three densities, and one refusal per exit code 2, 3 and 4, whose
``--out`` must stay absent.  ``manifest.json`` is left out: it holds timings.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from nltslab import cli

TABLE = Path(__file__).with_name("corpus_sha256.json")

_THEORY_SCANS = {
    f"theory-scan-{alpha}-{name}": f"theory-scan --alpha {alpha}{flags}"
    for alpha in ("0.71", "0.75", "0.99")
    for name, flags in (("default-K", ""), ("benchmark-K", " --K-list 8,16,32,64"))
}

#: Run name -> argv without ``--out``.
RUNS: dict[str, str] = {
    "gen-alpha": "gen --n 12 --K 3 --alpha 4.0 --instances 2",
    "enumerate-early-exit": "enumerate --n 12 --K 3 --m 40 --r 0 --seeds 3",
    "enumerate-split-tables": "enumerate --n 12 --K 3 --m 40 --r 1 --seeds 3",
    "enumerate-eps-1-worker": "enumerate --n 17 --K 3 --m 64 --eps 0.06 --workers 1 --seeds 2",
    "enumerate-eps-2-workers": "enumerate --n 17 --K 3 --m 64 --eps 0.06 --workers 2 --seeds 2",
    "enumerate-early-exit-2-workers": "enumerate --n 17 --K 3 --m 64 --r 0 --workers 2 --seeds 2",
    "enumerate-split-tables-2-workers": "enumerate --n 17 --K 3 --m 64 --r 1 --workers 2 --seeds 2",
    "enumerate-whole-cube-1-worker": "enumerate --n 17 --K 3 --m 4 --r 4 --workers 1 --seeds 2",
    "enumerate-whole-cube-2-workers": "enumerate --n 17 --K 3 --m 4 --r 4 --workers 2 --seeds 2",
    "enumerate-eps-whole-cube-1-worker": "enumerate --n 17 --K 3 --m 4 --r 4 --eps 0.06 --workers 1 --seeds 2",
    "enumerate-eps-whole-cube-2-workers": "enumerate --n 17 --K 3 --m 4 --r 4 --eps 0.06 --workers 2 --seeds 2",
    "ogp-walsh": "ogp --n 12 --K 3 --m 10 --nu1 0.1 --nu2 0.3 --seeds 5",
    "ogp-tiles": "ogp --n 12 --K 3 --m 20 --nu1 0.1 --nu2 0.3 --seeds 5",
    "cluster-tiles": "cluster --n 18 --K 3 --m 70 --nu1 0.12 --nu2 0.3 --seeds 7",
    "cluster-buckets": "cluster --n 20 --K 4 --m 170 --nu1 0.0625 --nu2 0.1375 --seeds 2",
    "hamiltonian-12-qubits-dump": "hamiltonian --n 8 --K 3 --m 4 --dump-state --seeds 3",
    "hamiltonian-16-qubits-full-support-dump": "hamiltonian --n 1000 --K 1 --m 16 --dump-state --seeds 2",
    "hamiltonian-20-qubits": "hamiltonian --n 10 --K 2 --m 10 --seeds 1",
    "pspin-p2-slack": "pspin --n 12 --d 2 --p 2 --slack 2 --seeds 1",
    "pspin-p3-slack": "pspin --n 9 --d 2 --p 3 --slack 1 --seeds 1",
    "pspin-p2-quantize": "pspin --n 8 --d 2 --p 2 --quantize --gamma 0.3 --seeds 4",
    "pspin-p3-quantize": "pspin --n 6 --d 2 --p 3 --quantize --seeds 1",
    "pspin-p2-80-edges": "pspin --n 20 --d 8 --p 2 --slack 2 --seeds 1",
    "pspin-p3-66-edges": "pspin --n 22 --d 9 --p 3 --slack 2 --seeds 1",
    **_THEORY_SCANS,
    "depth-bound": "depth-bound --d 400000 --n-bits 1000000 --mu 0.45",
    "exit-2-validation": "theory-scan --alpha 0.5",
    "exit-3-resource": "enumerate --n 31 --K 3 --m 5 --seeds 1",
    "exit-4-assertion": "cluster --n 18 --K 3 --m 60 --nu1 0.12 --nu2 0.3 --seeds 7",
}


def environment() -> dict:
    """What the floats in the data files depend on besides the program."""
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}",
            "python": platform.python_version()}


def run(argv: str, out: Path) -> dict:
    """One run's exit code and the sha256 of each data file in ``out`` (null when ``out`` is absent)."""
    code = cli.main([*argv.split(), "--out", str(out)])
    files = ({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
              if p.name != "manifest.json"} if out.exists() else None)
    return {"argv": argv, "exit": code, "files": files}


def run_all(root: Path) -> dict:
    return {name: run(argv, root / name) for name, argv in RUNS.items()}


def moved(want: dict, got: dict) -> list[str]:
    """One line per run or data file that differs between two run tables."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        w, g = want.get(name), got.get(name)
        if w is None or g is None:
            lines.append(f"{name}: {'not in the table' if w is None else 'no longer run'}")
            continue
        for key in ("argv", "exit"):
            if w[key] != g[key]:
                lines.append(f"{name}: {key} {g[key]!r}, table {w[key]!r}")
        wf, gf = w["files"], g["files"]
        if (wf is None) != (gf is None):
            lines.append(f"{name}: --out {'left behind' if wf is None else 'missing'}")
            continue
        for file in sorted((wf or {}).keys() | (gf or {}).keys()):
            if wf.get(file) != gf.get(file):
                what = "bytes moved" if file in wf and file in gf else "missing" if file in wf else "new"
                lines.append(f"{name}/{file}: {what}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps({**environment(), "runs": run_all(Path(tmp))}, indent=1) + "\n")
    print(f"wrote {len(RUNS)} runs to {TABLE}")
