import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import literal_violation_counts
from nltslab import cli, errors, hamiltonian, ksat, landscape, pspin, theory


def run_cli(args) -> int:
    return cli.main([str(a) for a in args])


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def assert_identical_data_files(dir_a, dir_b):
    """Every non-manifest file must match byte for byte."""
    names_a = sorted(p.name for p in dir_a.iterdir() if p.name != "manifest.json")
    names_b = sorted(p.name for p in dir_b.iterdir() if p.name != "manifest.json")
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def manifests_differ_only_in_timing(dir_a, dir_b):
    ma, mb = read_manifest(dir_a), read_manifest(dir_b)
    for m in (ma, mb):
        m.pop("wall_time_s")
        m.pop("peak_rss_mb")
    # the output directory path is part of the echoed config
    ma["config"].pop("out")
    mb["config"].pop("out")
    return ma == mb


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_gen_deterministic(tmp_path):
    for d in ("a", "b"):
        code = run_cli(["gen", "--n", 10, "--K", 3, "--m", 8,
                        "--master-seed", 99, "--instances", 2, "--out", tmp_path / d])
        assert code == 0
    assert_identical_data_files(tmp_path / "a", tmp_path / "b")
    assert manifests_differ_only_in_timing(tmp_path / "a", tmp_path / "b")


def test_enumerate_deterministic(tmp_path):
    for d in ("a", "b"):
        code = run_cli(["enumerate", "--n", 10, "--K", 3, "--m", 12, "--r", 1,
                        "--master-seed", 7, "--out", tmp_path / d])
        assert code == 0
    assert_identical_data_files(tmp_path / "a", tmp_path / "b")


def test_manifest_lists_every_file(tmp_path):
    import hashlib
    seeded = ["--seeds", "3,4"]
    runs = {
        "gen": ["gen", "--n", 8, "--K", 3, "--m", 10, *seeded],
        "enumerate": ["enumerate", "--n", 8, "--K", 3, "--m", 10, "--master-seed", 3, "--instances", 2],
        "enumerate-eps": ["enumerate", "--n", 8, "--K", 3, "--m", 10, "--r", 1, "--eps", 0.2, *seeded],
        "ogp": ["ogp", "--n", 8, "--K", 3, "--m", 10, "--nu1", 0.1, "--nu2", 0.3, *seeded],
        "cluster": ["cluster", "--n", 18, "--K", 3, "--m", 70, "--nu1", 0.12, "--nu2", 0.3, "--seeds", "7"],
        "hamiltonian": ["hamiltonian", "--n", 4, "--K", 2, "--m", 4, "--dump-state", *seeded],
        "pspin": ["pspin", "--n", 8, "--d", 2, "--p", 2, "--slack", 2, "--quantize", *seeded],
        "theory-scan": ["theory-scan", "--alpha", 0.75, "--K-list", "8,64"],
        "depth-bound": ["depth-bound", "--d", 0, "--n-bits", 1000, "--mu", 0.45],
    }
    sidecars = {"gen": 2, "hamiltonian": 2}  # formula_*.cnf.json and state_*.bin.json
    for label, argv in runs.items():
        out = tmp_path / label
        assert run_cli([*argv, "--out", out]) == 0, label
        manifest = read_manifest(out)
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == on_disk, label
        assert sum(name.endswith((".cnf.json", ".bin.json")) for name in on_disk) == sidecars.get(label, 0)
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (label, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_cluster_small_instance(tmp_path, monkeypatch):
    """A constructed formula with one cluster of all 4 solutions."""
    # inject the known formula by seeding gen + cluster with explicit seeds is
    # not enough: we need this exact instance, so run cluster on a seed whose
    # generated formula we can verify via the summary instead
    out = tmp_path / "run"
    code = run_cli(["ogp", "--n", 12, "--K", 3, "--m", 20, "--r", 0,
                    "--nu1", 0.1, "--nu2", 0.3, "--seeds", "5", "--out", out])
    assert code == 0
    record = json.loads((out / "ogp_5.json").read_text())
    assert record["count"] >= 0
    assert (out / "histogram_5.csv").exists()


def test_cluster_manifest_records_the_pair_kernels(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["cluster", "--n", 18, "--K", 3, "--m", 70, "--nu1", 0.12, "--nu2", 0.3,
                    "--seeds", "7", "--out", out])
    assert code == 0
    with open(out / "clusters_7.csv", newline="") as fh:
        labels = [int(row[1]) for row in list(csv.reader(fh))[2:]]
    sizes = [labels.count(ell) for ell in set(labels)]
    work = read_manifest(out)["work"]["7"]
    assert set(work) == {"histogram_kernel", "label_kernel", "candidate_pairs", "close_pairs", "intra_pairs",
                         "certificate_kernel"}
    assert work["histogram_kernel"] in {"walsh", "tiles"}
    assert {work["label_kernel"], work["certificate_kernel"]} <= {"buckets", "tiles"}
    assert work["intra_pairs"] == sum(math.comb(s, 2) for s in sizes) > 0
    assert work["candidate_pairs"] >= work["close_pairs"] >= work["intra_pairs"]
    summary = json.loads((out / "cluster_summary_7.json").read_text())
    assert set(summary) == {"seed", "num_clusters", "max_cluster_size", "max_cluster_fraction",
                            "total_size", "max_intra", "min_inter"}


@pytest.mark.parametrize("m, size, kernel", [(10, 1170, "walsh"), (20, 266, "tiles")])
def test_ogp_manifest_records_the_histogram_kernel(tmp_path, monkeypatch, m, size, kernel):
    argv = ["ogp", "--n", 12, "--K", 3, "--m", m, "--nu1", 0.1, "--nu2", 0.3, "--seeds", "5"]
    assert run_cli(argv + ["--out", tmp_path / "priced"]) == 0
    work = ({"kernel": "walsh", "transform_ops": 12 << 12} if kernel == "walsh"
            else {"kernel": "tiles", "pairs": math.comb(size, 2)})
    assert read_manifest(tmp_path / "priced")["work"] == {"5": work}
    assert json.loads((tmp_path / "priced" / "ogp_5.json").read_text())["count"] == size
    # the other kernel writes the same histogram and verdict
    monkeypatch.setattr(landscape, "_WALSH_CROSSOVER", math.inf if kernel == "walsh" else 0)
    assert run_cli(argv + ["--out", tmp_path / "other"]) == 0
    assert read_manifest(tmp_path / "other")["work"]["5"]["kernel"] != kernel
    assert_identical_data_files(tmp_path / "priced", tmp_path / "other")


@pytest.mark.parametrize("r, filt", [(0, "early_exit"), (1, "split_tables"), (40, "early_exit")])
def test_enumerate_manifest_records_the_filter(tmp_path, r, filt):
    out = tmp_path / "run"
    assert run_cli(["enumerate", "--n", 10, "--K", 3, "--m", 40, "--r", r,
                    "--seeds", "3", "--out", out]) == 0
    summary = json.loads((out / "summary_3.json").read_text())
    assert read_manifest(out)["work"]["3"] == {
        "filter": filt, "assignments": 1024, "members": summary["count"],
        "table_bytes": 2 * 32 * 8 if filt == "split_tables" else 0,
    }
    assert set(summary) == {"seed", "n", "m", "K", "r", "eps", "count", "log_count_per_n",
                            "duplicates"}


def test_enumerate_eps_members_do_not_depend_on_workers(tmp_path, pools):
    # n = 17 holds two blocks per cube, and eps = 0.05 keeps 17 variable sets;
    # --workers 2 and 3 each start one pool of two processes over the two blocks
    f = ksat.generate_formula(17, 60, 3, 5)
    kept = [frozenset(range(17)) - {v} for v in range(17)]
    oracle = functools.reduce(np.union1d, [np.flatnonzero(literal_violation_counts(f, S) <= 1)
                                           for S in kept])
    for workers in (1, 2, 3):
        code = run_cli(["enumerate", "--n", 17, "--K", 3, "--m", 60, "--r", 1, "--eps", 0.05,
                        "--workers", workers, "--seeds", "5", "--out", tmp_path / str(workers)])
        assert code == 0
        assert pools == [2] * (workers - 1)
    with open(tmp_path / "1" / "members_5.csv", newline="") as fh:
        members = [int(row[0]) for row in list(csv.reader(fh))[2:]]
    assert members == oracle.tolist()
    for workers in (2, 3):
        assert_identical_data_files(tmp_path / "1", tmp_path / str(workers))


def test_ogp_eps_matches_the_library(tmp_path):
    f = ksat.generate_formula(12, 30, 3, 6)
    A = landscape.enumerate_sat_eps(f, 0.1, 0)
    holds, witness = landscape.detect_ogp(A, 0.1, 0.3)
    assert not holds and len(A) != len(landscape.enumerate_sat(f, 0))
    out = tmp_path / "run"
    assert run_cli(["ogp", "--n", 12, "--K", 3, "--m", 30, "--eps", 0.1, "--nu1", 0.1, "--nu2", 0.3,
                    "--seeds", "6", "--out", out]) == 0
    record = json.loads((out / "ogp_6.json").read_text())
    assert (record["count"], record["holds"], record["witness"]) == (len(A), holds, list(witness))
    landscape.histogram_to_csv(landscape.overlap_histogram(A), tmp_path / "library.csv")
    assert (out / "histogram_6.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert read_manifest(out)["config"]["eps"] == 0.1


def test_cluster_eps_matches_the_library(tmp_path):
    f = ksat.generate_formula(12, 70, 3, 21)
    A = landscape.enumerate_sat_eps(f, 0.05, 0)
    assert len(A) == 6 and len(landscape.enumerate_sat(f, 0)) == 0
    P = landscape.cluster(A, 0.25, 0.55)
    out = tmp_path / "run"
    assert run_cli(["cluster", "--n", 12, "--K", 3, "--m", 70, "--eps", 0.05, "--nu1", 0.25, "--nu2", 0.55,
                    "--seeds", "21", "--out", out]) == 0
    with open(out / "clusters_21.csv", newline="") as fh:
        rows = [(int(z), int(ell)) for z, ell in list(csv.reader(fh))[2:]]
    assert rows == [(int(z), ell) for ell, members in enumerate(P.clusters) for z in members]
    summary = json.loads((out / "cluster_summary_21.json").read_text())
    assert summary == {"seed": 21, **landscape.cluster_stats(P)}


@pytest.mark.parametrize("argv", [
    ["ogp", "--n", 18, "--K", 3, "--m", 80, "--r", 1, "--nu1", 0.1, "--nu2", 0.3, "--seeds", "4"],
    ["cluster", "--n", 17, "--K", 3, "--m", 100, "--nu1", 0.06, "--nu2", 0.2, "--seeds", "1"],  # two clusters
], ids=["ogp", "cluster"])
def test_eps_geometry_does_not_depend_on_workers(tmp_path, argv):
    # n = 18 and 17 split the cube into four and two tasks; no file may depend on the pool
    for workers in (1, 2):
        assert run_cli([*argv, "--eps", 0.05, "--workers", workers, "--out", tmp_path / str(workers)]) == 0
    assert_identical_data_files(tmp_path / "1", tmp_path / "2")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", 6, "--K", 3, "--m", 4],
    ["enumerate", "--n", 6, "--K", 3, "--m", 4, "--eps", 0.2],
    ["ogp", "--n", 6, "--K", 3, "--m", 4, "--nu1", 0.1, "--nu2", 0.3],
    ["cluster", "--n", 6, "--K", 3, "--m", 4, "--nu1", 0.1, "--nu2", 0.3],
], ids=["enumerate", "enumerate-eps", "ogp", "cluster"])
def test_workers_below_one_is_refused(tmp_path, capsys, argv, workers, source):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{argv[0]}]\nworkers = {workers}\n")
    extra = ["--workers", workers] if source == "flag" else ["--config", cfg]
    out = tmp_path / "x"
    assert run_cli([*argv, *extra, "--seeds", "4", "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert f"--workers must be at least 1, got {workers}" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("instances", [0, -3])
@pytest.mark.parametrize("argv", [
    ["gen", "--n", 5, "--K", 3, "--m", 4],
    ["pspin", "--n", 8, "--d", 2, "--p", 2],
], ids=["gen", "pspin"])
def test_instances_below_one_is_refused(tmp_path, capsys, argv, instances, source):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{argv[0]}]\ninstances = {instances}\n")
    extra = ["--instances", instances] if source == "flag" else ["--config", cfg]
    out = tmp_path / "x"
    assert run_cli([*argv, *extra, "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert f"--instances must be at least 1, got {instances}" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["gen", "--n", 4, "--K", 2, "--m", 3],
    ["pspin", "--n", 4, "--d", 2, "--p", 2],
], ids=["gen", "pspin"])
def test_negative_seed_is_refused(tmp_path, capsys, argv, source):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{argv[0]}]\nseeds = 3,-5\n")
    extra = ["--seeds", "3,-5"] if source == "flag" else ["--config", cfg]
    out = tmp_path / "x"
    assert run_cli([*argv, *extra, "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert "--seeds" in record["message"] and "-5" in record["message"]
    assert not out.exists()


def test_a_negative_master_seed_is_hashed(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["gen", "--n", 4, "--K", 2, "--m", 3, "--master-seed", -1, "--out", out]) == 0
    assert (out / f"formula_{cli.stream_seed(-1, 0)}.cnf").exists()


_KILLED_WORKER = """
import os, signal, sys
from nltslab import cli, landscape

def die(task):
    os.kill(os.getpid(), signal.SIGKILL)

if __name__ == "__main__":
    landscape._scan_range = die
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_dead_worker_is_a_resource_error(tmp_path):
    # every pool task kills its own process; the run must exit 3 instead of waiting forever
    script = tmp_path / "die.py"
    script.write_text(_KILLED_WORKER)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = tmp_path / "x"
    proc = subprocess.run(
        [sys.executable, str(script), "enumerate", "--n", "18", "--K", "3", "--m", "10", "--workers", "2",
         "--seeds", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    record = json.loads(proc.stderr.strip())
    assert record["error"] == "resource" and record["message"].startswith("a worker process died")
    assert (record["budget"], record["requested"], record["allowed"]) == (None, None, None)
    assert not out.exists()


def test_dead_eps_worker_is_a_resource_error(tmp_path):
    script = tmp_path / "die.py"
    script.write_text(_KILLED_WORKER.replace("_scan_range", "_scan_eps_range"))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = tmp_path / "x"
    proc = subprocess.run(
        [sys.executable, str(script), "enumerate", "--n", "18", "--K", "3", "--m", "10", "--eps", "0.1",
         "--workers", "2", "--seeds", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    record = json.loads(proc.stderr.strip())
    assert record["error"] == "resource" and record["message"].startswith("a worker process died")
    assert not out.exists()


def test_finish_hashes_each_file_in_chunks(tmp_path, monkeypatch):
    peaks = []
    finish = cli._Run.finish

    def traced(run):
        tracemalloc.start()
        try:
            finish(run)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli._Run, "finish", traced)
    out = tmp_path / "x"
    assert run_cli(["enumerate", "--n", 19, "--K", 3, "--m", 1, "--r", 1, "--seeds", "1", "--out", out]) == 0
    members = out / "members_1.csv"
    assert members.stat().st_size >= 8 << 20
    assert peaks[0] < 1 << 20  # reading the file whole would hold all of it
    digest = hashlib.sha256(members.read_bytes()).hexdigest()
    assert read_manifest(out)["files"]["members_1.csv"] == digest


def test_hamiltonian_subcommand(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["hamiltonian", "--n", 4, "--K", 2, "--m", 4,
                    "--gamma", 0.5, "--seeds", "3", "--dump-state", "--out", out])
    assert code == 0
    record = json.loads((out / "hamiltonian_3.json").read_text())
    assert record["qubits"] == 8
    assert record["energy"] <= 1e-10
    assert (out / "state_3.bin").exists()
    assert {"state_3.bin", "state_3.bin.json"} <= set(read_manifest(out)["files"])  # the writer's sidecar too


def test_hamiltonian_at_full_support_holds_no_string_per_amplitude(tmp_path):
    # 18 one-slot variables put every basis string in the support; a dict of
    # a string and a float per entry peaked at 11.7 states; measured 3.3 (psi,
    # then an index, a probability, a sort key and a position per entry)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = run_cli(["hamiltonian", "--n", 1000, "--K", 1, "--m", 18, "--seeds", "2", "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((out / "hamiltonian_2.json").read_text())["support"] == 2**18
    assert peak <= 4 * 2**18 * 16
    layout = hamiltonian.build_layout(ksat.generate_formula(1000, 18, 1, 2))
    dist = hamiltonian.measurement_distribution(hamiltonian.ground_state(layout, 0.5))
    with open(out / "measurement_2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[:2] == [["# nltslab measurement v1", "qubits=18"], ["bits", "probability"]]
    assert rows[2:] == [[bits, repr(dist[bits])] for bits in sorted(dist)]


def test_manifest_records_the_peak_resident_memory(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli(["depth-bound", "--d", 10, "--n-bits", 100, "--mu", 0.3, "--out", out]) == 0
    peak = read_manifest(out)["peak_rss_mb"]
    assert type(peak) is float and 1.0 < peak <= cli._peak_rss_mb()

    class FakeResource:
        RUSAGE_SELF = 0

        @staticmethod
        def getrusage(who):
            return type("usage", (), {"ru_maxrss": 3 << 20})

    monkeypatch.setattr(cli, "resource", FakeResource)
    monkeypatch.setattr(cli.sys, "platform", "linux")
    assert cli._peak_rss_mb() == 3 * 1024  # KiB
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    assert cli._peak_rss_mb() == 3.0  # bytes
    monkeypatch.setattr(cli, "resource", None)
    out = tmp_path / "no-resource"
    assert run_cli(["depth-bound", "--d", 10, "--n-bits", 100, "--mu", 0.3, "--out", out]) == 0
    assert read_manifest(out)["peak_rss_mb"] is None


def test_package_runs_as_a_module(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "nltslab", "depth-bound", "--d", "10", "--n-bits", "100",
                           "--mu", "0.3", "--out", str(out)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(["depth-bound", "--d", 10, "--n-bits", 100, "--mu", 0.3, "--out", tmp_path / "lib"]) == 0
    assert_identical_data_files(out, tmp_path / "lib")
    proc = subprocess.run([sys.executable, "-m", "nltslab", "depth-bound", "--d", "10"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "required" in proc.stderr


def test_quantum_manifest_records_the_state_and_its_energy_passes(tmp_path):
    out = tmp_path / "ham"
    assert run_cli(["hamiltonian", "--n", 4, "--K", 2, "--m", 4, "--seeds", "3", "--out", out]) == 0
    active = len(hamiltonian.build_layout(ksat.generate_formula(4, 4, 2, 3)).active_variables)
    record = json.loads((out / "hamiltonian_3.json").read_text())
    assert set(record) == {"seed", "qubits", "gamma", "energy", "support"}
    assert read_manifest(out)["work"]["3"] == {
        "qubits": 8, "amplitudes": 256, "active_variables": active,
        "energy_vector_passes": 5 * active, "support": 2**active,
    }
    assert record["support"] == 2**active

    out = tmp_path / "pspin"
    assert run_cli(["pspin", "--n", 8, "--d", 2, "--p", 2, "--quantize", "--seeds", "4", "--out", out]) == 0
    record = json.loads((out / "pspin_4.json").read_text())
    assert set(record) == {"seed", "n", "d", "p", "m", "couplings", "ground_energy",
                           "ground_energy_per_spin", "ground_state", "quantized_qubits",
                           "quantized_energy"}
    assert read_manifest(out)["work"]["4"] == {
        "qubits": 16, "amplitudes": 2**16, "active_variables": 8,
        "energy_vector_passes": 40, "support": 2**8,
    }
    assert run_cli(["pspin", "--n", 8, "--d", 2, "--p", 2, "--seeds", "4", "--out", tmp_path / "plain"]) == 0
    assert read_manifest(tmp_path / "plain")["work"] == {}


def test_pspin_subcommand(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["pspin", "--n", 8, "--d", 2, "--p", 2, "--slack", 2,
                    "--quantize", "--gamma", 0.5, "--seeds", "4", "--out", out])
    assert code == 0
    record = json.loads((out / "pspin_4.json").read_text())
    assert record["quantized_qubits"] == 16
    assert record["quantized_energy"] <= 1e-10
    assert record["ground_energy"] <= 0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_pspin_gamma_without_quantize_is_refused(tmp_path, capsys, source):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[pspin]\ngamma = 0.9\n")
    extra = ["--gamma", 0.9] if source == "flag" else ["--config", cfg]
    out = tmp_path / "x"
    assert run_cli(["pspin", "--n", 8, "--d", 2, "--p", 2, "--slack", 2, *extra,
                    "--seeds", "4", "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation" and "--quantize" in record["message"]
    assert not list(out.glob("*"))


def test_pspin_quantize_alone_uses_gamma_one_half(tmp_path):
    argv = ["pspin", "--n", 8, "--d", 2, "--p", 2, "--quantize", "--seeds", "4"]
    assert run_cli([*argv, "--out", tmp_path / "default"]) == 0
    assert run_cli([*argv, "--gamma", 0.5, "--out", tmp_path / "half"]) == 0
    assert_identical_data_files(tmp_path / "default", tmp_path / "half")


def test_theory_scan_subcommand(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["theory-scan", "--alpha", 0.75, "--K-list", "8,64", "--out", out])
    assert code == 0
    summary = json.loads((out / "scan_summary.json").read_text())
    assert summary["feasible_K"] == [64]
    import csv
    with open(out / "scan.csv") as fh:
        fh.readline()  # version header
        rows = list(csv.DictReader(fh))
    feasible = [r for r in rows if r["feasible"] == "True"]
    assert feasible
    assert all(r["K"] == "64" for r in feasible)
    for r in feasible:
        assert r["delta_ok"] == r["gamma_lambda_ok"] == r["tail_ok"] == "True"
        assert r["amplification_ok"] == r["locality_ok"] == "True"


_SCAN_FIELDS = ["K", "window_found", "nu1", "nu2", "delta", "gamma", "lambda", "eta", "eps",
                "c1", "c2", "c1_bits", "c2_bits", "delta_ok", "gamma_lambda_ok",
                "amplification_ok", "tail_ok", "locality_ok", "azuma_ok", "feasible"]


@functools.lru_cache(maxsize=None)
def _oracle_window(alpha, K):
    return theory.first_feasible_window(alpha, K, 0.005, 0.005)


def _oracle_scan(alpha, K_values):
    """scan.csv and scan_summary.json bytes from an explicit loop nest over the default grids."""
    rows = []
    for K in K_values:
        window = _oracle_window(alpha, K)
        if window is None:
            rows.append({"K": K, "window_found": False})
            continue
        nu1, nu2 = window
        for delta in (1e-4, 1e-3, 5e-3):
            for gamma in (1e-2, 1e-4, 1e-6):
                for lam in (0.05, 0.1, 0.2):
                    for eta in (1e-4, 1e-6, 1e-8):
                        eps = theory.derive_eps(eta, K)
                        params = theory.RegimeParams(
                            alpha=alpha, K=K, eps=eps if eps is not None else float("nan"),
                            lam=lam, gamma=gamma, eta=eta, nu1=nu1, nu2=nu2, delta=delta,
                        )
                        report = theory.check_parameter_consistency(params)
                        rows.append({
                            "K": K, "window_found": True, "nu1": nu1, "nu2": nu2,
                            "delta": delta, "gamma": gamma, "lambda": lam, "eta": eta,
                            "eps": eps, "c1": report.c1, "c2": report.c2,
                            "c1_bits": report.c1 / math.log(2.0),
                            "c2_bits": report.c2 / math.log(2.0),
                            "delta_ok": report.delta_ok,
                            "gamma_lambda_ok": report.gamma_lambda_ok,
                            "amplification_ok": report.amplification_ok,
                            "tail_ok": report.tail_ok,
                            "locality_ok": report.locality_ok,
                            "azuma_ok": eps is not None,
                            "feasible": report.all_ok and eps is not None,
                        })
    buf = io.StringIO()
    buf.write("# nltslab theory-scan v1\n")
    w = csv.DictWriter(buf, fieldnames=_SCAN_FIELDS)
    w.writeheader()
    w.writerows(rows)
    feasible = [r for r in rows if r.get("feasible")]
    summary = {
        "alpha": alpha, "K_values": list(K_values), "feasible_count": len(feasible),
        "feasible_K": sorted({r["K"] for r in feasible}),
        "windows": {str(r["K"]): [r["nu1"], r["nu2"]] for r in rows if r.get("window_found")},
    }
    return buf.getvalue(), json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _assert_scan_matches_oracle(out, alpha, K_values):
    want_csv, want_summary = _oracle_scan(alpha, K_values)
    got_csv = (out / "scan.csv").read_bytes().decode()
    assert got_csv.splitlines() == want_csv.splitlines()  # row by row first, for a readable diff
    assert got_csv == want_csv
    assert (out / "scan_summary.json").read_text() == want_summary


@pytest.mark.parametrize("K_list", ["8,64", "8,16,32,64", None])
def test_theory_scan_rows_match_the_loop_nest_oracle(tmp_path, K_list):
    # K = 8 has no window at alpha = 0.75 and K = 64 has one; None runs the default list
    out = tmp_path / "run"
    argv = ["theory-scan", "--alpha", 0.75, "--out", out]
    assert run_cli(argv + (["--K-list", K_list] if K_list else [])) == 0
    _assert_scan_matches_oracle(out, 0.75, [int(k) for k in (K_list or "4,8,16,32,64").split(",")])


def test_theory_scan_writes_rows_without_a_certified_eps(tmp_path, monkeypatch):
    derive_eps = theory.derive_eps
    monkeypatch.setattr(theory, "derive_eps",
                        lambda eta, K, **kw: None if eta == 1e-6 else derive_eps(eta, K, **kw))
    out = tmp_path / "run"
    assert run_cli(["theory-scan", "--alpha", 0.75, "--K-list", "8,64", "--out", out]) == 0
    _assert_scan_matches_oracle(out, 0.75, [8, 64])
    with open(out / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    uncertified = [r for r in rows if r["eta"] == "1e-06"]
    assert len(uncertified) == 27
    assert all(r["eps"] == "" and r["azuma_ok"] == r["feasible"] == "False" for r in uncertified)


@pytest.mark.parametrize("flag, value", [
    ("--nu-step", "0"), ("--s-step", "0"), ("--s-step", "-0.01"), ("--nu-step", "-0.01"),
    ("--nu-step", "0.5"), ("--s-step", "nan"),
])
def test_theory_scan_rejects_steps_outside_the_grid_range(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    code = run_cli(["theory-scan", "--alpha", 0.75, "--K-list", "8,64", flag, value, "--out", out])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert flag in record["message"] and repr(float(value)) in record["message"]
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize("flag, value, needed", [
    ("--s-step", "1e-9", "needs 24250000097 rate evaluations"),  # hours of scalar calls
    ("--nu-step", "1e-7", "needs at least 4999996 rate evaluations"),  # a 4,999,999-point nu grid
])
def test_theory_scan_prices_the_window_search(tmp_path, capsys, flag, value, needed):
    out = tmp_path / "x"
    code = run_cli(["theory-scan", "--alpha", 0.75, "--K-list", "8", flag, value, "--out", out])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "resource" and record["budget"] == "rate_eval_budget"
    assert needed in record["message"]
    assert f"over budget {errors.BUDGETS['rate_eval_budget']}" in record["message"]
    assert not (out / "scan.csv").exists()


def test_depth_bound_subcommand(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["depth-bound", "--d", 400000, "--n-bits", 1000000,
                    "--mu", 0.45, "--out", out])
    assert code == 0
    record = json.loads((out / "depth_bound.json").read_text())
    assert record["depth_bound"] == pytest.approx(2.99, abs=1e-2)


# ---------------------------------------------------------------------------
# config files, seeds, exit codes
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[enumerate]\nn = 6\nK = 3\nm = 5\nr = 2\n")
    out = tmp_path / "run"
    code = run_cli(["enumerate", "--config", cfg, "--n", 6, "--K", 3,
                    "--r", 0, "--seeds", "1", "--out", out])
    assert code == 0
    summary = json.loads((out / "summary_1.json").read_text())
    assert summary["m"] == 5  # from the config file
    assert summary["r"] == 0  # flag wins over the file's r = 2


@pytest.mark.parametrize(
    "flag", [["--master-seed", "5"], ["--master", "5"], ["--master-s=5"]],
    ids=["full", "abbreviated", "abbreviated-equals"],
)
def test_config_loses_to_every_flag_spelling(tmp_path, flag):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nmaster_seed = 7\n")
    out = tmp_path / "run"
    code = run_cli(["gen", "--config", cfg, *flag, "--n", 6, "--K", 3, "--m", 4, "--out", out])
    assert code == 0
    assert read_manifest(out)["config"]["master_seed"] == 5
    assert (out / f"formula_{cli.stream_seed(5, 0)}.cnf").exists()


@pytest.mark.parametrize("section, ini, flags, rest", [
    ("gen", "n = 6\nK = 3\nm = 4\n", ["--n", 6, "--K", 3, "--m", 4], ["--seeds", "3"]),
    ("ogp", "nu1 = 0.1\nnu2 = 0.3\n", ["--nu1", 0.1, "--nu2", 0.3],
     ["--n", 8, "--K", 3, "--m", 6, "--seeds", "3"]),
    ("theory-scan", "alpha = 0.75\n", ["--alpha", 0.75], ["--K-list", "8"]),
], ids=["gen", "ogp", "theory-scan"])
def test_config_supplies_required_flags(tmp_path, section, ini, flags, rest):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{ini}")
    assert run_cli([section, "--config", cfg, *rest, "--out", tmp_path / "ini"]) == 0
    assert run_cli([section, *flags, *rest, "--out", tmp_path / "flags"]) == 0
    assert_identical_data_files(tmp_path / "ini", tmp_path / "flags")


@pytest.mark.parametrize("section, ini, argv, missing", [
    ("gen", "m = 4\n", [], "--n, --K"),
    ("gen", "n = 6\nm = 4\n", [], "--K"),
    ("ogp", "nu1 = 0.1\n", ["--n", 8, "--K", 3, "--m", 6], "--nu2"),
    ("theory-scan", "K-list = 8\n", [], "--alpha"),
], ids=["gen-both", "gen-K", "ogp-nu2", "theory-scan-alpha"])
def test_required_flag_missing_from_argv_and_config_exits_2(tmp_path, capsys, section, ini, argv, missing):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{ini}")
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli([section, "--config", cfg, *argv, "--out", out])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().endswith(f"the following arguments are required: {missing}")
    assert not out.exists()


def test_required_flags_still_required_without_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--m", 4, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--n N --K K" in err  # the usage line still marks them required
    assert err.strip().endswith("the following arguments are required: --n, --K")


_GEN_USAGE = """\
usage: nltslab gen [-h] [--config CONFIG] [--out OUT]
                   [--master-seed MASTER_SEED] [--seeds SEEDS]
                   [--instances INSTANCES] --n N --K K [--m M] [--alpha ALPHA]
"""


@pytest.mark.parametrize("argv, error", [
    (["--n", 6, "--K", 3, "--m", 4, "--config"], "argument --config: expected one argument"),
    (["--out", "--config", "{cfg}"], "argument --out: expected one argument"),
    (["--config", "{cfg}"], "the following arguments are required: --n, --K"),
    (["--conf", "{cfg}", "--n", 6], "the following arguments are required: --K"),
], ids=["trailing-config", "out-before-config", "required-from-neither", "abbreviated-config"])
def test_parse_errors_come_from_the_subcommand_parser(tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nm = 4\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", *(str(a).format(cfg=cfg) for a in argv), "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == _GEN_USAGE + f"nltslab gen: error: {error}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("spelling", [["--config={cfg}"], ["--conf", "{cfg}"], ["--c={cfg}"]],
                         ids=["equals", "abbreviated", "abbreviated-equals"])
def test_config_is_found_under_every_spelling(tmp_path, spelling):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nn = 6\nK = 3\nm = 4\nseeds = 5\n")
    out = tmp_path / "run"
    assert run_cli(["gen", *(s.format(cfg=cfg) for s in spelling), "--out", out]) == 0
    assert read_manifest(out)["config"]["config"] == str(cfg)
    assert (out / "formula_5.cnf").exists()


def test_config_keys_help_and_config_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nhelp = true\nconfig = nowhere.ini\nn = 6\nK = 3\nm = 4\n")
    out = tmp_path / "run"
    assert run_cli(["gen", "--config", cfg, "--seeds", "5", "--out", out]) == 0
    assert capsys.readouterr() == ("", "")
    assert read_manifest(out)["config"]["config"] == str(cfg)
    assert (out / "formula_5.cnf").exists()


@pytest.mark.parametrize("ini, argv, dumped", [
    ("false", [], False), ("no", ["--dump-state"], True), ("on", [], True), ("1", ["--dump"], True),
], ids=["false", "false-then-flag", "true", "true-and-flag"])
def test_config_store_true_keys(tmp_path, ini, argv, dumped):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[hamiltonian]\ndump-state = {ini}\n")
    out = tmp_path / "run"
    assert run_cli(["hamiltonian", "--config", cfg, "--n", 2, "--K", 2, "--m", 1, *argv,
                    "--seeds", "1", "--out", out]) == 0
    assert read_manifest(out)["config"]["dump_state"] is dumped
    assert (out / "state_1.bin").exists() is dumped


def test_bad_config_value_is_refused_even_when_a_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nm = x\n")
    out = tmp_path / "x"
    assert run_cli(["gen", "--config", cfg, "--n", 6, "--K", 3, "--m", 4, "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation" and "[gen] m = 'x'" in record["message"]
    assert not out.exists()


def test_entry_point_reads_config_from_sys_argv(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nn = 6\nK = 3\nm = 4\nmaster-seed = 7\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nltslab.cli", "gen", "--config", str(cfg), "--master", "5",
         "--out", str(tmp_path / "ini")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(["gen", "--n", 6, "--K", 3, "--m", 4, "--master-seed", 5,
                    "--out", tmp_path / "flags"]) == 0
    assert_identical_data_files(tmp_path / "ini", tmp_path / "flags")
    assert (tmp_path / "ini" / f"formula_{cli.stream_seed(5, 0)}.cnf").exists()


def test_stream_seed_stable():
    assert cli.stream_seed(1, 0) == cli.stream_seed(1, 0)
    assert cli.stream_seed(1, 0) != cli.stream_seed(1, 1)
    assert cli.stream_seed(1, 0) != cli.stream_seed(2, 0)


def test_exit_code_validation(tmp_path, capsys):
    code = run_cli(["enumerate", "--n", 10, "--K", 3, "--out", tmp_path / "x"])
    assert code == 2  # neither --m nor --alpha
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"


def test_exit_code_resource_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NLTSLAB_ENUM_CAP", "5")
    code = run_cli(["enumerate", "--n", 10, "--K", 3, "--m", 5,
                    "--seeds", "1", "--out", tmp_path / "x"])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "resource"
    assert record["budget"] == "enum_cap"


def test_pspin_honours_enum_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NLTSLAB_ENUM_CAP", "8")
    code = run_cli(["pspin", "--n", 10, "--d", 2, "--p", 2, "--slack", 1,
                    "--seeds", "1", "--out", tmp_path / "x"])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "resource"
    assert record["budget"] == "enum_cap"
    assert record["message"] == "the spin cube scan needs 10 spins, over budget 8"


def test_eta_budget_variable_is_not_read(tmp_path, monkeypatch):
    monkeypatch.setenv("NLTSLAB_ETA_BUDGET", "x")
    assert run_cli(["enumerate", "--n", 6, "--K", 3, "--m", 4, "--seeds", "1",
                    "--out", tmp_path / "enum"]) == 0
    assert run_cli(["hamiltonian", "--n", 2, "--K", 2, "--m", 1, "--seeds", "1",
                    "--out", tmp_path / "ham"]) == 0


def test_override_variable_is_read_only_where_its_budget_is_checked(tmp_path, monkeypatch):
    monkeypatch.setenv("NLTSLAB_QUBIT_CAP", "lots")
    assert run_cli(["enumerate", "--n", 6, "--K", 3, "--m", 4, "--seeds", "1", "--out", tmp_path / "enum"]) == 0
    assert run_cli(["hamiltonian", "--n", 2, "--K", 2, "--m", 1, "--seeds", "1", "--out", tmp_path / "ham"]) == 2


@pytest.mark.parametrize("raw", ["2e6", "lots", "1.5"])
def test_malformed_cap_override_is_a_validation_error(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("NLTSLAB_PAIR_CAP", raw)
    code = run_cli(["ogp", "--n", 8, "--K", 3, "--m", 5, "--nu1", 0.1, "--nu2", 0.3,
                    "--seeds", "1", "--out", tmp_path / "x"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert "NLTSLAB_PAIR_CAP" in record["message"] and repr(raw) in record["message"]


def test_exit_code_assertion(tmp_path, capsys):
    # a dense instance at tiny n almost surely breaks the gap at these nus
    code = run_cli(["cluster", "--n", 6, "--K", 3, "--m", 4, "--r", 2,
                    "--nu1", 0.15, "--nu2", 0.45, "--seeds", "2",
                    "--out", tmp_path / "x"])
    assert code in (0, 4)
    if code == 4:
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "assertion"


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.2])
def test_theory_scan_rejects_alpha_outside_the_regime(tmp_path, capsys, alpha):
    out = tmp_path / "x"
    code = run_cli(["theory-scan", "--alpha", alpha, "--K-list", "8,64", "--out", out])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert "alpha" in record["message"]
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize("argv, ini, flag, token", [
    (["gen", "--n", 5, "--K", 3, "--m", 4, "--seeds", "1,x"], None, "--seeds", "x"),
    (["enumerate", "--n", 5, "--K", 3, "--m", 4, "--seeds", "1,,2"], None, "--seeds", ""),
    (["theory-scan", "--alpha", 0.75, "--K-list", "8,x"], None, "--K-list", "x"),
    (["theory-scan", "--alpha", 0.75, "--K-list", ""], None, "--K-list", ""),
    (["gen", "--n", 5, "--K", 3, "--m", 4, "--seeds", ""], None, "--seeds", ""),
    (["gen", "--n", 5, "--K", 3, "--m", 4], "[gen]\nseeds =\n", "--seeds", ""),
], ids=["gen-seeds", "enumerate-empty-seed", "K-list", "empty-K-list", "empty-seeds", "ini-empty-seeds"])
def test_malformed_integer_list_is_a_validation_error(tmp_path, capsys, argv, ini, flag, token):
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = [*argv, "--config", cfg]
    code = run_cli(argv + ["--out", tmp_path / "x"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert flag in record["message"] and repr(token) in record["message"]
    assert not any((tmp_path / "x").glob("*.csv")) and not any((tmp_path / "x").glob("*.cnf"))


def test_config_seed_list_of_one_seed(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nseeds = 5\n")
    out = tmp_path / "run"
    assert run_cli(["gen", "--config", cfg, "--n", 6, "--K", 3, "--m", 4, "--out", out]) == 0
    assert (out / "formula_5.cnf").exists()


def test_config_keys_match_flags_with_capitals(tmp_path):
    # configparser lowercases keys, so "K-list" arrives as "k-list"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[theory-scan]\nK-list = 64\n")
    out = tmp_path / "run"
    assert run_cli(["theory-scan", "--config", cfg, "--alpha", 0.75, "--out", out]) == 0
    assert json.loads((out / "scan_summary.json").read_text())["K_values"] == [64]
    assert read_manifest(out)["config"]["K_list"] == "64"


_SEED_AND_WORKER_FLAGS = [("--master-seed", 3), ("--seeds", "3"), ("--instances", 3), ("--workers", 2)]


@pytest.mark.parametrize("section, argv, flag, value", [
    ("gen", ["--n", 5, "--K", 3, "--m", 4], "--workers", 2),
    ("hamiltonian", ["--n", 2, "--K", 2, "--m", 1], "--workers", 2),
    ("pspin", ["--n", 8, "--d", 2, "--p", 2], "--workers", 2),
    *(("theory-scan", ["--alpha", 0.75, "--K-list", "8"], *fv) for fv in _SEED_AND_WORKER_FLAGS),
    *(("depth-bound", ["--d", 10, "--n-bits", 100, "--mu", 0.3], *fv) for fv in _SEED_AND_WORKER_FLAGS),
])
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, section, argv, flag, value):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli([section, *argv, flag, value, "--out", out])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"nltslab: error: unrecognized arguments: {flag} {value}\n")
    assert not out.exists()


def test_config_keys_of_flags_a_subcommand_does_not_read_are_ignored(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[theory-scan]\nK-list = 8\nworkers = 2\nseeds = 3\n")
    assert run_cli(["theory-scan", "--config", cfg, "--alpha", 0.75, "--out", tmp_path / "ini"]) == 0
    assert run_cli(["theory-scan", "--alpha", 0.75, "--K-list", "8", "--out", tmp_path / "flags"]) == 0
    assert_identical_data_files(tmp_path / "ini", tmp_path / "flags")
    assert not {"workers", "seeds"} & set(read_manifest(tmp_path / "ini")["config"])


@pytest.mark.parametrize("section, key, raw, argv", [
    ("gen", "m", "x", ["--n", 6, "--K", 3]),
    ("enumerate", "r", "x", ["--n", 6, "--K", 3, "--m", 4]),
    ("theory-scan", "nu-step", "fine", ["--alpha", 0.75]),
    ("hamiltonian", "dump-state", "maybe", ["--n", 2, "--K", 2, "--m", 1]),
])
def test_bad_config_value_is_a_validation_error(tmp_path, capsys, section, key, raw, argv):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "x"
    assert run_cli([section, "--config", cfg, *argv, "--seeds", "1", "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert f"[{section}] {key} = {raw!r}" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("text", ["[gen]\nseeds = 5%\n", "seeds = 5\n"], ids=["percent-sign", "no-section"])
def test_unreadable_config_is_a_validation_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "x"
    assert run_cli(["gen", "--config", cfg, "--n", 6, "--K", 3, "--m", 4, "--out", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation" and str(cfg) in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, env, budget, requested, allowed", [
    (["enumerate", "--n", 10, "--K", 3, "--m", 5, "--seeds", 1], {"NLTSLAB_ENUM_CAP": "5"}, "enum_cap", 10, 5),
    (["enumerate", "--n", 30, "--K", 3, "--m", 10, "--eps", 0.5, "--seeds", 1], {}, "eps_budget",
     math.comb(30, 15) << 30, errors.BUDGETS["eps_budget"]),
    (["ogp", "--n", 8, "--K", 3, "--m", 0, "--nu1", 0.1, "--nu2", 0.3, "--seeds", 1], {"NLTSLAB_PAIR_CAP": "1"},
     "pair_cap", 256, 1),
    (["pspin", "--n", 12, "--d", 2, "--p", 2, "--quantize", "--seeds", 1], {}, "qubit_cap", 24,
     errors.BUDGETS["qubit_cap"]),
    (["pspin", "--n", 32, "--d", 2, "--p", 2, "--seeds", 1], {}, "enum_cap", 32, errors.BUDGETS["enum_cap"]),
    (["pspin", "--n", 1, "--d", 2, "--p", 2, "--seeds", 1], {}, "retry_budget", None, errors.BUDGETS["retry_budget"]),
    (["theory-scan", "--alpha", 0.75, "--K-list", "8", "--s-step", "1e-9"], {}, "rate_eval_budget", 24250000097,
     errors.BUDGETS["rate_eval_budget"]),
], ids=["enum_cap", "eps_budget", "pair_cap", "qubit_cap", "pspin-enum_cap", "retry_budget", "rate_eval_budget"])
def test_resource_record_carries_the_amounts_and_leaves_no_output(
        tmp_path, capsys, monkeypatch, argv, env, budget, requested, allowed):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "x"
    assert run_cli([*argv, "--out", out]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "resource"
    assert (record["budget"], record["requested"], record["allowed"]) == (budget, requested, allowed)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", 10, "--K", 3, "--seeds", "1"],
    ["pspin", "--n", 8, "--d", 2, "--p", 2, "--gamma", 0.9, "--seeds", "1"],
    ["gen", "--n", 10, "--K", 3, "--alpha", "nan", "--seeds", "1"],
    ["gen", "--n", 10, "--K", 3, "--alpha", "inf", "--seeds", "1"],
    ["depth-bound", "--d", "nan", "--n-bits", 10, "--mu", 0.4],
    ["depth-bound", "--d", "inf", "--n-bits", 10, "--mu", 0.4],
    # (nu1, nu2) and energy's gamma floor are checked before the first file is written
    ["ogp", "--n", 8, "--K", 3, "--m", 10, "--nu1", 0.5, "--nu2", 0.3, "--seeds", "1"],
    ["hamiltonian", "--n", 4, "--K", 2, "--m", 4, "--gamma", 0.05, "--seeds", "1"],
    ["pspin", "--n", 4, "--d", 2, "--p", 2, "--quantize", "--gamma", 0.05, "--seeds", "1"],
    ["pspin", "--n", 8, "--d", 2, "--p", 2, "--slack", -1, "--seeds", "1"],
    ["pspin", "--n", 0, "--d", 4, "--p", 2, "--seeds", "1"],
    ["pspin", "--n", -1, "--d", 2, "--p", 2, "--seeds", "1"],
    ["pspin", "--n", 4, "--d", -2, "--p", 2, "--seeds", "1"],
], ids=["no-m-or-alpha", "gamma-without-quantize", "alpha-nan", "alpha-inf", "d-nan", "d-inf",
        "ogp-nu1-above-nu2", "hamiltonian-gamma-below-floor", "pspin-gamma-below-floor", "pspin-negative-slack",
        "pspin-no-nodes", "pspin-negative-n", "pspin-negative-d"])
def test_validation_error_leaves_no_output(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run_cli([*argv, "--out", out]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("sub, nu1, nu2", [("ogp", 0.5, 0.4), ("cluster", 0.3, 0.4)], ids=["ogp", "cluster"])
def test_nu_is_refused_before_enumerating(tmp_path, capsys, monkeypatch, sub, nu1, nu2, source):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before checking (nu1, nu2)")

    monkeypatch.setattr(landscape, "enumerate_sat", refuse)
    with pytest.raises(errors.ParameterError) as want:
        landscape.check_nu(nu1, nu2, clustering=sub == "cluster")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{sub}]\nnu1 = {nu1}\nnu2 = {nu2}\n")
    extra = ["--nu1", nu1, "--nu2", nu2] if source == "flag" else ["--config", cfg]
    out = tmp_path / "x"
    assert run_cli([sub, "--n", 8, "--K", 3, "--m", 10, *extra, "--seeds", "1", "--out", out]) == 2
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "validation", "message": str(want.value)}
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("argv, env, code", [
    (["ogp", "--n", 12, "--K", 3, "--m", 30, "--nu1", 0.1, "--nu2", 0.3], {"NLTSLAB_PAIR_CAP": "40"}, 3),
    (["cluster", "--n", 10, "--K", 3, "--m", 40, "--nu1", 0.1, "--nu2", 0.3], {}, 4),  # seed 2 breaks the OGP
], ids=["resource", "assertion"])
def test_run_failing_at_a_later_seed_removes_the_files_it_wrote(tmp_path, monkeypatch, argv, env, code, existing):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "x"
    if existing:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    assert run_cli([*argv, "--seeds", "1,2", "--out", out]) == code
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    else:
        assert not out.exists()


def test_failed_run_leaves_an_earlier_run_in_out_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "x"
    argv = ["ogp", "--n", 12, "--K", 3, "--m", 30, "--nu1", 0.1, "--nu2", 0.3, "--out", out]
    assert run_cli([*argv, "--seeds", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"histogram_1.csv", "ogp_1.json", "manifest.json"}
    monkeypatch.setenv("NLTSLAB_PAIR_CAP", "40")  # seed 1 passes, seed 2 is over the cap
    assert run_cli([*argv, "--seeds", "1,2"]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_KILLED_AFTER_FIRST_SEED = """
import os, sys
from nltslab import cli, ksat

draw = ksat.generate_formula
drawn = []

def draw_then_die(*args):
    if drawn:  # the first seed's files are written
        os._exit(9)
    drawn.append(1)
    return draw(*args)

if __name__ == "__main__":
    ksat.generate_formula = draw_then_die
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_run_killed_after_its_first_seed_leaves_no_file_in_out(tmp_path):
    script = tmp_path / "die.py"
    script.write_text(_KILLED_AFTER_FIRST_SEED)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = tmp_path / "x"
    proc = subprocess.run(
        [sys.executable, str(script), "gen", "--n", "6", "--K", "3", "--m", "5", "--seeds", "1,2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 9, proc.stderr
    [stage] = out.iterdir()  # the partial files sit in the stage, never beside a manifest
    assert stage.is_dir() and stage.name.startswith(".staging-")
    assert sorted(p.name for p in stage.iterdir()) == ["formula_1.cnf", "formula_1.cnf.json"]


def test_depth_bound_at_zero_distance_writes_null(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["depth-bound", "--d", 0, "--n-bits", 10, "--mu", 0.4, "--out", out]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    record = json.loads((out / "depth_bound.json").read_text(), parse_constant=refuse)
    assert record["depth_bound"] is None
    rows = list(csv.DictReader((out / "depth_bound.csv").read_text().splitlines()[1:]))
    assert [r["depth_bound"] for r in rows] == ["-inf"] * 5
    assert all(r["vacuous"] == "True" for r in rows)


def _clause_count_of(cnf: Path) -> int:
    header = next(line for line in cnf.read_text().splitlines() if line.startswith("p cnf"))
    return int(header.split()[3])


def test_gen_alpha_sets_the_clause_count(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["gen", "--n", 10, "--K", 3, "--alpha", 0.9, "--seeds", "5", "--out", out]) == 0
    assert _clause_count_of(out / "formula_5.cnf") == ksat.clause_count(0.9, 3, 10)
    sidecar = json.loads((out / "formula_5.cnf.json").read_text())
    assert sidecar["alpha"] == 0.9 and sidecar["m"] == ksat.clause_count(0.9, 3, 10)
    assert set(read_manifest(out)["files"]) == {"formula_5.cnf", "formula_5.cnf.json"}


def test_m_wins_over_alpha(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["gen", "--n", 10, "--K", 3, "--m", 7, "--alpha", 0.9, "--seeds", "5", "--out", out]) == 0
    assert ksat.clause_count(0.9, 3, 10) != 7
    assert _clause_count_of(out / "formula_5.cnf") == 7
    # the sidecar names no density the formula does not have
    assert json.loads((out / "formula_5.cnf.json").read_text())["alpha"] is None


def test_enumerate_alpha_reports_its_clause_count(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["enumerate", "--n", 8, "--K", 3, "--alpha", 0.9, "--seeds", "5", "--out", out]) == 0
    summary = json.loads((out / "summary_5.json").read_text())
    assert summary["m"] == ksat.clause_count(0.9, 3, 8)
