"""One workload in one fresh interpreter: set-up, timed repetitions, checks.

Started by ``run.py``; not meant to be run by hand.  The parent passes its
``time.monotonic()`` reading taken just before the spawn, so ``setup_s``
covers interpreter start, imports, input generation and warm-up.  The result
is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import nltslab  # noqa: E402
from nltslab import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference_sha256.json"


def run_step(step: workloads.Step, root: Path) -> tuple[float, object]:
    """Run one step; return its wall time and result.  Raises on failure."""
    step_dir = root / step.id
    step_dir.mkdir(parents=True, exist_ok=True)
    if step.argv is not None:
        argv = step.argv + ["--out", str(step_dir)]
        t0 = time.perf_counter()
        rc = cli.main(argv)  # looked up at call time, so a traced run sees the wrapper
        seconds = time.perf_counter() - t0
        if rc != 0:
            raise workloads.CheckFailed(f"exit code {rc}")
        return seconds, rc
    arg = step.prepare(root) if step.prepare is not None else None
    t0 = time.perf_counter()
    result = step.call(arg)
    return time.perf_counter() - t0, result


def cli_bytes(step_dir: Path) -> int:
    """Bytes of the data files a CLI run listed in its manifest."""
    manifest = json.loads((step_dir / "manifest.json").read_text())
    return sum((step_dir / name).stat().st_size for name in manifest["files"])


def run_rep(wl: workloads.Workload, root: Path, failures: dict, recorder=None):
    """One pass over the instance list.

    Returns (seconds per step, results per step, bytes the CLI steps wrote)."""
    times, results, written = {}, {}, 0
    for step in wl.steps:
        if recorder is not None:
            recorder.instance = step.id
        try:
            times[step.id], results[step.id] = run_step(step, root)
            if step.argv is not None and recorder is not None:
                written += cli_bytes(root / step.id)
        except Exception as exc:  # an instance failure is counted, never fatal
            failures.setdefault(step.id, f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
    return times, results, written


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify(wl: workloads.Workload, root: Path, results: dict, failures: dict, reference: dict) -> dict:
    """Run every step's check and compare exact data files with the reference
    (for the seed it was made with, and seed-independent files for any seed).

    Returns the sha256 of every exact data file, keyed "<step>/<file>"."""
    digests = {}
    ref = reference.get("files", {})
    for step in wl.steps:
        if step.id in failures:
            continue
        step_dir = root / step.id
        try:
            if step.check is not None:
                step.check(step_dir, results[step.id])
            for pattern in step.exact:
                for path in sorted(step_dir.glob(pattern)):
                    key = f"{step.id}/{path.name}"
                    digests[key] = sha256(path)
                    if ref and (wl.seed == reference["seed"] or key in wl.seed_independent):
                        workloads.need(ref.get(key) == digests[key],
                                       f"{key}: sha256 differs from the reference")
        except Exception as exc:
            failures[step.id] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
    return digests


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup"), default="main")
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--out", required=True, help="output directory inside the checkout")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    if not Path(nltslab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"nltslab imported from {nltslab.__file__}, not from this checkout")

    out = Path(args.out)
    wl = workloads.build(args.workload, args.seed)
    warm = workloads.build(args.workload, args.seed, tiny=True)
    run_rep(warm, out / "warmup", {})
    setup_s = time.monotonic() - args.t0
    result = {"role": args.role, "setup_s": setup_s}
    if args.role == "main":
        failures: dict[str, str] = {}
        layer = None
        if args.trace:
            # the first full-size pass pays first-touch page faults; compare
            # the traced pass with a second untraced one
            run_rep(wl, out / "data", failures)
            untraced, _, _ = run_rep(wl, out / "data", failures)
            recorder = spans.SpanRecorder()
            with spans.Tracer(recorder) as tracer:
                times, results, written = run_rep(wl, out / "data", failures, recorder)
            layer = tracer.metrics(sum(times.values()), sum(untraced.values()), written)
            with open(out / "spans.jsonl", "w") as fh:
                for i, s in enumerate(recorder.spans):
                    fh.write(json.dumps(s.as_dict(i)) + "\n")
            reps = [times]
        else:
            reps, walls, start = [], [], time.perf_counter()
            while True:
                times, results, _ = run_rep(wl, out / "data", failures)
                reps.append(times)
                walls.append(sum(times.values()))
                if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests = verify(wl, out / "data", results, failures, load_reference())
        result.update({
            "walls": [sum(t.values()) for t in reps], "step_seconds": reps,
            "peak_rss_mb": peak_rss_mb, "attempted": len(wl.steps), "failed": len(failures),
            "failures": failures, "layer": layer, "inputs": wl.inputs, "digests": digests,
            "python": platform.python_version(), "numpy": numpy.__version__,
        })
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
