"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; nothing is installed.  Each workload runs in a fresh
interpreter (``harness.py``) with one worker and one thread per numeric
library.  ``--trace 0`` times the instance list repeatedly for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` times untraced passes and one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object; a table of every metric with its unit and sample
count comes before it.  ``--list`` prints every metric with what it should
move.  Outputs go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (imports no nltslab code)

WORKLOADS = ("enumerate", "geometry", "spin-quantum")
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
#: set-up is measured in this many fresh interpreters per run; setup_s is their median
SETUPS = 3
#: the whole run must end within 180 s
DEADLINE_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NLTSLAB_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    })
    return env


def spawn(args, role: str, out: Path, deadline: float) -> dict:
    result = out / f"result-{role}-{time.monotonic_ns()}.json"
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--t0", repr(t0), "--out", str(out), "--result", str(result)]
    # subprocess.run kills the child on timeout and waits for it
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} interpreter exited with code {proc.returncode}")
    return json.loads(result.read_text())


def getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def env_stamp(args, main: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        git_sha = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": main["python"],
        "numpy": main["numpy"], "git_sha": git_sha,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "instances": main["attempted"], "inputs": main["inputs"],
    }


def list_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in bench["end_to_end"]:
        print(f"{m['name']:42s} {m['unit']:6s} {m['better']:6s} bound {m['bound']}  (--trace 0)")
    for name, unit, better, moves in spans.LAYER_METRICS:
        print(f"{name:42s} {unit:6s} {better:6s} {moves}  (--trace 1)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric and exit")
    args = p.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "nltslab" / "__init__.py").is_file():
        print(f"error: no nltslab package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        main_run = spawn(args, "main", out, deadline)
        setups = [main_run["setup_s"]]
        if not args.trace:
            setups += [spawn(args, "setup", out, deadline)["setup_s"] for _ in range(SETUPS - 1)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
        values = {name: (main_run["layer"][name], 1) for name in units}
    else:
        units = dict(END_TO_END)
        walls = main_run["walls"]
        values = {"wall_s": (statistics.median(walls), len(walls)),
                  "peak_rss_mb": (main_run["peak_rss_mb"], 1),
                  "setup_s": (statistics.median(setups), len(setups))}
    stamp = env_stamp(args, main_run)
    for step, why in main_run["failures"].items():
        print(f"FAILED {step}: {why}")
    print(f"{'metric':42s} {'value':>16s} {'unit':6s} samples")
    for name, (value, samples) in values.items():
        print(f"{name:42s} {value:16.6g} {units[name]:6s} {samples}")
    print("env " + json.dumps(stamp, sort_keys=True))
    report = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }
    (out / "result.json").write_text(json.dumps({**report, "env": stamp, "setups": setups,
                                                  "main": main_run}, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
