"""Tests of the benchmark itself: span arithmetic, wrapper restoration, exact
counts, planted clusters and output checks.  They run on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import harness
import run
import spans
import workloads
from nltslab import cli, hamiltonian, ksat, landscape, pspin, theory


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 6]
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = rec.open("root", "cli")
    a = rec.open("a", "ksat")
    b = rec.open("b", "theory")
    rec.close(b)
    rec.close(a)
    c = rec.open("c", "ksat")
    rec.close(c)
    rec.close(root)
    assert [s.parent for s in rec.spans] == [-1, root, a, root]
    assert spans.self_times(rec.spans) == [6, 2, 1, 1]
    assert sum(spans.self_times(rec.spans)) == 10


def test_covered_merges_overlapping_intervals():
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([]) == 0


def test_spans_must_close_in_order():
    rec = spans.SpanRecorder()
    outer = rec.open("outer", "cli")
    rec.open("inner", "cli")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def _originals():
    found = {}
    for mod in (cli, ksat, landscape, hamiltonian, pspin, theory):
        for name, obj in vars(mod).items():
            if callable(obj) and not isinstance(obj, type):
                found[(mod.__name__, name)] = obj
    found["clause_arrays"] = ksat.Formula.__dict__["clause_arrays"].func
    return found


def test_wrappers_are_restored_after_the_traced_run():
    before = _originals()
    with spans.Tracer(spans.SpanRecorder()):
        assert landscape.enumerate_sat is not before[("nltslab.landscape", "enumerate_sat")]
        # an alias bound by ``from .hamiltonian import layout_from_blocks`` is wrapped too
        assert pspin.layout_from_blocks is hamiltonian.layout_from_blocks
        assert pspin.layout_from_blocks is not before[("nltslab.pspin", "layout_from_blocks")]
    assert _originals() == before
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer(spans.SpanRecorder()):
            1 / 0
    assert _originals() == before


def _traced(argvs, tmp_path, calls=()):
    rec = spans.SpanRecorder()
    with spans.Tracer(rec) as tracer:
        for k, argv in enumerate(argvs):
            rec.instance = str(k)
            assert cli.main(argv + ["--out", str(tmp_path / str(k))]) == 0
        results = [call() for call in calls]
    wall = sum(s.end - s.start for s in rec.spans if s.parent < 0)
    return tracer.metrics(wall, wall, 0), results, rec


def test_counts_are_exact(tmp_path):
    argvs = [
        ["enumerate", "--n", "12", "--K", "3", "--m", "20", "--r", "1", "--seeds", "5"],
        ["ogp", "--n", "12", "--K", "3", "--m", "30", "--nu1", "0.1", "--nu2", "0.3", "--seeds", "5"],
        ["pspin", "--n", "10", "--d", "4", "--p", "2", "--slack", "2", "--seeds", "5"],
        ["hamiltonian", "--n", "4", "--K", "2", "--m", "4", "--seeds", "5"],
        ["theory-scan", "--alpha", "0.75", "--K-list", "8"],
    ]
    A, nus, partition = workloads.planted_clusters(3, clusters=6, mean_size=8)
    m, (P,), rec = _traced(argvs, tmp_path, [lambda: landscape.cluster(A, *nus)])
    f_enum = ksat.generate_formula(12, 20, 3, 5)
    f_ogp = ksat.generate_formula(12, 30, 3, 5)
    size_enum = len(landscape.enumerate_sat(f_enum, 1))
    size_ogp = len(landscape.enumerate_sat(f_ogp, 0))
    near = 0
    for path in (tmp_path / "2").glob("near_ground_*.csv"):
        near = len(workloads.read_members(path)[1])
    layout = hamiltonian.build_layout(ksat.generate_formula(4, 4, 2, 5))

    assert m["landscape.enumerate.calls"] == 2
    assert m["landscape.enumerate.assignments"] == 2 * 2**12
    assert m["landscape.enumerate.yield"] == (size_enum + size_ogp) / 2**13
    assert m["landscape.export.rows"] == size_enum + 13 + near
    # ogp histograms its set twice (overlap_histogram, then inside detect_ogp);
    # cluster's detect_ogp once more on the planted set
    assert m["landscape.pairs.histogram_calls"] == 3
    assert m["landscape.pairs.pairs"] == 2 * math.comb(size_ogp, 2) + math.comb(len(A), 2)
    assert m["landscape.pairs.histogram_calls_per_set"] == 1.5
    assert m["landscape.cluster.close_pairs"] == sum(math.comb(len(c), 2) for c in partition)
    assert m["pspin.scan.configs"] == 2 * 2**10
    assert m["pspin.scan.cube_passes"] == 2.0
    assert m["hamiltonian.vector_passes"] == 5 * len(layout.active_variables)
    assert m["theory.windows"] == 1
    assert abs(m["trace.unattributed_s"]) < 1e-9
    assert all(s.end is not None and s.instance is not None for s in rec.spans)


def test_planted_clusters_are_found_exactly():
    A, (nu1, nu2), partition = workloads.planted_clusters(7, clusters=8, mean_size=9)
    assert len(A) == 8 * 9 and len(partition) == 8
    P = landscape.cluster(A, nu1, nu2)
    assert tuple(sorted(tuple(int(z) for z in c) for c in P.clusters)) == partition
    assert P.max_intra <= math.floor(nu1 * A.n) and P.min_inter >= math.ceil(nu2 * A.n)
    again = workloads.planted_clusters(7, clusters=8, mean_size=9)
    assert again[2] == partition


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_output_is_counted_as_a_failure(name, tmp_path):
    wl = workloads.build(name, 4, tiny=True)
    failures = {}
    _, results, _ = harness.run_rep(wl, tmp_path, failures)
    digests = harness.verify(wl, tmp_path, results, failures, {})
    assert failures == {}
    assert digests

    # a digest mismatch fails the step, for the seed the reference was made with
    key = next(iter(digests))
    reference = {"seed": 4, "files": {**digests, key: "0" * 64}}
    harness.verify(wl, tmp_path, results, failures, reference)
    assert set(failures) == {key.split("/")[0]}

    # without a reference, the oracles catch a truncated data file
    corrupted = set()
    for key in digests:
        step, filename = key.split("/")
        if filename.startswith(("members_", "histogram_", "near_ground_", "hypergraph_")):
            path = tmp_path / key
            path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
            corrupted.add(step)
    failures = {}
    harness.verify(wl, tmp_path, results, failures, {})
    assert corrupted and set(failures) == corrupted


def test_pick_formula_is_deterministic_and_near_target():
    a = workloads.pick_formula(9, "t", 14, 4, 0, range(30, 90), 300, None, 2, None)
    assert a == workloads.pick_formula(9, "t", 14, 4, 0, range(30, 90), 300, None, 2, None)
    fseed, m, count = a
    assert count == len(landscape.enumerate_sat(ksat.generate_formula(14, m, 4, fseed), 0))
    assert abs(math.log(count / 300)) < 0.1


def test_benchmark_json_lists_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [row[:3] for row in spans.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enumerate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
