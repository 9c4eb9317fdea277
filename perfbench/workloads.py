"""Workload instance lists, the inputs the benchmark generates, and their checks.

Every input comes from the benchmark seed: formula seeds are derived with
blake2b, and formula sizes are chosen by benchmark-owned numpy code (a
survivor profile over sampled or all assignments), never by timing the
program.  Sizes are chosen so that every seed asks for about the same work:
runs with different seeds are compared with each other, so a workload whose
work followed the seed would measure the seed, not the program.

A step is one call into the program: a CLI subcommand through
``nltslab.cli.main`` or a public library function.  Its ``check`` runs after
the timed region and raises ``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nltslab import ksat, landscape

WORKLOADS = ("enumerate", "geometry", "spin-quantum")
#: Seed whose exact data files are compared with ``reference_sha256.json``.
DEFAULT_SEED = 1


class CheckFailed(Exception):
    pass


def need(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Step:
    id: str
    argv: list[str] | None = None      # CLI subcommand run through nltslab.cli.main
    call: Callable | None = None       # library call, given prepare()'s result
    prepare: Callable | None = None    # untimed glue, given the output root
    check: Callable | None = None      # check(step_dir, result), after timing
    exact: tuple[str, ...] = ()        # data files compared by sha256 for DEFAULT_SEED


@dataclass
class Workload:
    name: str
    seed: int
    steps: list[Step]
    inputs: dict = field(default_factory=dict)
    seed_independent: tuple[str, ...] = ()   # "<step>/<file>" compared for every seed


def derive(seed: int, *parts) -> int:
    """64-bit seed for one input, derived from the benchmark seed."""
    text = ":".join(str(p) for p in ("perfbench", seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# Formula oracles (literal by literal, no packed clause masks from the package)
# ---------------------------------------------------------------------------

def violations(f: ksat.Formula, zs: np.ndarray) -> np.ndarray:
    """Violated-clause count per packed assignment, evaluated literal by literal."""
    zs = np.asarray(zs, dtype=np.uint64)
    count = np.zeros(zs.size, dtype=np.int64)
    for c in f.clauses:
        all_false = np.ones(zs.size, dtype=bool)
        for lit in c.literals:
            bit = (zs >> np.uint64(lit.var)) & np.uint64(1)
            all_false &= bit == np.uint64(1 if lit.negated else 0)
        count += all_false
    return count


def _clause_tests(f: ksat.Formula):
    """(mask, value) per clause in formula order; None for a tautology."""
    out = []
    for c in f.clauses:
        mask = value = 0
        taut = False
        for lit in c.literals:
            bit = 1 << lit.var
            want = bit if lit.negated else 0
            if mask & bit and (value & bit) != want:
                taut = True
            mask |= bit
            value |= want
        out.append(None if taut else (np.uint64(mask), np.uint64(value)))
    return out


def survivor_profile(f: ksat.Formula, r: int, zs: np.ndarray) -> tuple[list[int], list[int]]:
    """For every prefix of m clauses: points of ``zs`` violating at most r of
    them, and the point-clause tests an early-exit filter over those m clauses
    performs."""
    viol = np.zeros(zs.size, dtype=np.int16)
    survivors, work = [zs.size], [0]
    for test in _clause_tests(f):
        if test is not None:
            work.append(work[-1] + zs.size)
            viol += (zs & test[0]) == test[1]
            keep = viol <= r
            zs, viol = zs[keep], viol[keep]
        else:
            work.append(work[-1])
        survivors.append(zs.size)
    return survivors, work


def pick_formula(seed: int, tag: str, n: int, K: int, r: int, m_range: range,
                 target_members: float, target_tests: float | None, candidates: int,
                 sample_log2: int | None) -> tuple[int, int, int]:
    """(formula seed, m, estimated members) closest to the work targets.

    ``target_tests`` is in filter tests per assignment; with ``sample_log2``
    None the whole cube is scanned and the member count is exact.
    """
    best = None
    for c in range(candidates):
        fseed = derive(seed, tag, c)
        f = ksat.generate_formula(n, m_range.stop - 1, K, fseed)
        if sample_log2 is None:
            zs, scale = np.arange(1 << n, dtype=np.uint64), 1.0
        else:
            rng = np.random.default_rng(derive(seed, tag, c, "sample"))
            zs = rng.integers(0, 1 << n, size=1 << sample_log2, dtype=np.uint64)
            scale = (1 << n) / zs.size
        survivors, work = survivor_profile(f, r, zs)
        for m in m_range:
            members = survivors[m] * scale
            if members == 0:
                continue
            score = abs(math.log(members / target_members))
            if target_tests is not None:
                score += abs(math.log(work[m] / zs.size / target_tests))
            if best is None or score < best[0]:
                best = (score, fseed, m, round(members))
    if best is None:
        raise RuntimeError(f"{tag}: no candidate formula has members for m in {m_range}")
    return best[1], best[2], best[3]


# ---------------------------------------------------------------------------
# Planted clusters
# ---------------------------------------------------------------------------

def planted_clusters(seed: int, n: int = 64, nu1: float = 0.0625, nu2: float = 0.2,
                     clusters: int = 256, mean_size: int = 48):
    """A set whose unique (nu1, nu2)-clustering is known by construction.

    Members are a center XOR a mask of weight <= floor(t1/2), so members of one
    cluster lie within t1 = floor(nu1 n) of each other.  Centers lie at least
    t2 + 2 floor(t1/2) apart, t2 = ceil(nu2 n), so members of different clusters
    lie at least t2 apart and no pair falls in the gap.  Cluster sizes come in
    pairs summing to 2 * mean_size, so |A| = clusters * mean_size for every seed.

    Returns (SolutionSet, (nu1, nu2), partition as a sorted tuple of sorted tuples).
    """
    t1, t2 = math.floor(nu1 * n), math.ceil(nu2 * n)
    w = t1 // 2
    if not (nu1 < nu2 / 2 and clusters % 2 == 0 and n <= 64 and t1 // 2 <= 2):
        raise ValueError("need nu1 < nu2/2, an even cluster count, n <= 64 and floor(t1/2) <= 2")
    rng = np.random.default_rng(derive(seed, "planted"))
    centers: list[int] = []
    arr = np.empty(0, dtype=np.uint64)
    while len(centers) < clusters:
        z = rng.integers(0, 1 << n, dtype=np.uint64)
        if arr.size and np.bitwise_count(arr ^ z).min() < t2 + 2 * w:
            continue
        centers.append(int(z))
        arr = np.append(arr, np.uint64(z))
    masks = [0] + [1 << i for i in range(n)]
    if w >= 2:
        masks += [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    masks_arr = np.asarray(masks, dtype=np.uint64)
    half = rng.integers(-(mean_size // 3), mean_size // 3 + 1, size=clusters // 2)
    sizes = np.concatenate([mean_size + half, mean_size - half])
    groups = []
    for center, size in zip(centers, sizes):
        pick = rng.choice(masks_arr.size, size=int(size), replace=False)
        groups.append(tuple(sorted(int(np.uint64(center) ^ masks_arr[k]) for k in pick)))
    members = np.asarray(sorted(z for g in groups for z in g), dtype=np.uint64)
    A = landscape.SolutionSet(n=n, members=members, r=0)
    return A, (nu1, nu2), tuple(sorted(groups))


# ---------------------------------------------------------------------------
# Output readers and checks
# ---------------------------------------------------------------------------

def read_members(path: Path) -> tuple[dict, np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        need(header[0] == "# nltslab members v1", f"{path.name}: bad header {header}")
        meta = dict(item.split("=") for item in header[1:])
        need(next(rows) == ["packed", "bits"], f"{path.name}: bad column row")
        packed, bits = [], []
        for row in rows:
            packed.append(int(row[0]))
            bits.append(row[1])
    return {k: int(v) for k, v in meta.items()}, np.asarray(packed, dtype=np.uint64), bits


def only(step_dir: Path, pattern: str) -> Path:
    found = sorted(step_dir.glob(pattern))
    need(len(found) == 1, f"{step_dir.name}: expected one {pattern}, found {len(found)}")
    return found[0]


def _check_member_file(path: Path, f: ksat.Formula, r: int, count: int, seed: int) -> np.ndarray:
    meta, packed, bits = read_members(path)
    need(meta == {"n": f.n, "r": r}, f"{path.name}: header {meta}")
    need(packed.size == count, f"{path.name}: {packed.size} rows, summary says {count}")
    need(packed.size < 2 or bool((packed[1:] > packed[:-1]).all()), f"{path.name}: not ascending")
    rng = np.random.default_rng(derive(seed, "check", path.name))
    if packed.size:
        sample = rng.choice(packed.size, size=min(512, packed.size), replace=False)
        for k in sample:
            z = int(packed[k])
            need(bits[k] == "".join(str((z >> i) & 1) for i in range(f.n)),
                 f"{path.name}: bits column differs from packed at row {k}")
        need(bool((violations(f, packed[sample]) <= r).all()),
             f"{path.name}: a member violates more than r={r} clauses")
    others = rng.integers(0, 1 << f.n, size=2048, dtype=np.uint64)
    others = others[~np.isin(others, packed)][:512]
    need(bool((violations(f, others) > r).all()),
         f"{path.name}: an assignment with at most r={r} violations is missing")
    return packed


def _enumerate_step(step_id: str, n: int, K: int, m: int, r: int, fseed: int, seed: int) -> Step:
    def check(step_dir: Path, result) -> None:
        summary = json.loads(only(step_dir, "summary_*.json").read_text())
        f = ksat.generate_formula(n, m, K, fseed)
        _check_member_file(only(step_dir, "members_*.csv"), f, r, summary["count"], seed)

    argv = ["enumerate", "--n", str(n), "--K", str(K), "--m", str(m), "--r", str(r),
            "--seeds", str(fseed)]
    return Step(step_id, argv=argv, check=check, exact=("members_*.csv",))


def read_histogram(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    need(rows[0][0] == "# nltslab histogram v1" and rows[1] == ["distance", "pairs"],
         f"{path.name}: bad header")
    need([int(r[0]) for r in rows[2:]] == list(range(len(rows) - 2)), f"{path.name}: bad distances")
    return np.asarray([int(r[1]) for r in rows[2:]], dtype=np.int64)


def _check_gap(hist: np.ndarray, n: int, nu1: float, nu2: float, holds, witness, members_ok) -> None:
    t1, t2 = math.floor(nu1 * n), math.ceil(nu2 * n)
    in_gap = int(hist[t1 + 1:t2].sum())
    need(bool(holds) == (in_gap == 0), f"OGP verdict {holds} but {in_gap} pairs in the gap")
    if not holds:
        a, b = (int(x) for x in witness)
        need(t1 < bin(a ^ b).count("1") < t2, f"witness {witness} is not in the gap")
        need(members_ok(np.asarray([a, b], dtype=np.uint64)), f"witness {witness} is not in the set")


def _ogp_step(n: int, K: int, m: int, fseed: int, exact_count: int, nu1: float, nu2: float) -> Step:
    def check(step_dir: Path, result) -> None:
        record = json.loads(only(step_dir, "ogp_*.json").read_text())
        need(record["count"] == exact_count, f"|A| = {record['count']}, exhaustive oracle says {exact_count}")
        hist = read_histogram(only(step_dir, "histogram_*.csv"))
        need(hist.size == n + 1, "histogram length differs from n + 1")
        need(int(hist.sum()) == math.comb(exact_count, 2), "histogram mass differs from C(|A|, 2)")
        f = ksat.generate_formula(n, m, K, fseed)
        _check_gap(hist, n, nu1, nu2, record["holds"], record["witness"],
                   lambda zs: bool((violations(f, zs) == 0).all()))

    argv = ["ogp", "--n", str(n), "--K", str(K), "--m", str(m), "--nu1", str(nu1), "--nu2", str(nu2),
            "--seeds", str(fseed)]
    return Step("ogp", argv=argv, check=check, exact=("histogram_*.csv",))


def write_clusters_csv(P, path: Path) -> None:
    """The partition in the CLI's ``clusters_<seed>.csv`` layout."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["# nltslab clusters v1", f"n={P.n}"])
        w.writerow(["packed", "cluster"])
        for ell, members in enumerate(P.clusters):
            for z in members:
                w.writerow([int(z), ell])


def _cluster_step(A, nus, partition) -> Step:
    nu1, nu2 = nus

    def check(step_dir: Path, P) -> None:
        got = tuple(sorted(tuple(int(z) for z in c) for c in P.clusters))
        need(got == partition, f"{len(got)} clusters returned, {len(partition)} planted, or members differ")
        need(0 <= P.max_intra <= math.floor(nu1 * A.n), f"max_intra {P.max_intra} above floor(nu1 n)")
        need(P.min_inter >= math.ceil(nu2 * A.n), f"min_inter {P.min_inter} below ceil(nu2 n)")
        write_clusters_csv(P, step_dir / "clusters.csv")

    return Step("cluster-planted", call=lambda _: landscape.cluster(A, nu1, nu2),
                check=check, exact=("clusters.csv",))


def spin_energies(hyperedges, couplings, zs: np.ndarray) -> np.ndarray:
    """H = sum_e J_e prod_{v in e} sigma_v with sigma_v = -1 where bit v is set."""
    zs = np.asarray(zs, dtype=np.uint64)
    total = np.zeros(zs.size, dtype=np.int64)
    for edge, j in zip(hyperedges, couplings):
        sign = np.ones(zs.size, dtype=np.int64)
        for v in edge:
            sign *= 1 - 2 * ((zs >> np.uint64(v)) & np.uint64(1)).astype(np.int64)
        total += j * sign
    return total


def _check_hypergraph(step_dir: Path, n: int, d: int, p: int) -> dict:
    g = json.loads(only(step_dir, "hypergraph_*.json").read_text())
    degrees = [0] * n
    for e in g["hyperedges"]:
        need(len(set(e)) == p, f"hyperedge {e} does not have {p} distinct nodes")
        for v in e:
            degrees[v] += 1
    need(degrees == [d] * n, "hypergraph is not d-regular")
    return g


def _pspin_slack_step(n: int, d: int, p: int, slack: int, gseed: int, seed: int) -> Step:
    def check(step_dir: Path, result) -> None:
        g = _check_hypergraph(step_dir, n, d, p)
        rec = json.loads(only(step_dir, "pspin_*.json").read_text())
        emin, J = rec["ground_energy"], rec["couplings"]
        meta, packed, _ = read_members(only(step_dir, "near_ground_*.csv"))
        need(meta == {"n": n, "r": slack}, f"near-ground header {meta}")
        need(packed.size == rec["near_ground_count"], "near-ground row count differs from the record")
        ground = sum(1 << i for i, s in enumerate(rec["ground_state"]) if s == -1)
        need(int(spin_energies(g["hyperedges"], J, np.asarray([ground], dtype=np.uint64))[0]) == emin,
             "the reported ground state does not have the reported ground energy")
        need(bool(np.isin(np.uint64(ground), packed)), "the ground state is missing from the near-ground set")
        need(bool((spin_energies(g["hyperedges"], J, packed) <= emin + slack).all()),
             "a near-ground member is above emin + slack")
        rng = np.random.default_rng(derive(seed, "check", "near-ground"))
        others = rng.integers(0, 1 << n, size=4096, dtype=np.uint64)
        others = others[~np.isin(others, packed)]
        need(bool((spin_energies(g["hyperedges"], J, others) > emin + slack).all()),
             "a configuration within emin + slack is missing from the near-ground set")

    argv = ["pspin", "--n", str(n), "--d", str(d), "--p", str(p), "--slack", str(slack),
            "--seeds", str(gseed)]
    return Step("pspin-slack", argv=argv, check=check,
                exact=("hypergraph_*.json", "near_ground_*.csv"))


def _near_ground_geometry_step(nu1: float, nu2: float) -> Step:
    def prepare(root: Path):
        meta, packed, _ = read_members(only(root / "pspin-slack", "near_ground_*.csv"))
        return landscape.SolutionSet(n=meta["n"], members=packed, r=meta["r"])

    def call(A):
        return A, landscape.overlap_histogram(A), landscape.detect_ogp(A, nu1, nu2)

    def check(step_dir: Path, result) -> None:
        A, hist, (holds, witness) = result
        members = A.members
        need(int(hist.counts.sum()) == math.comb(len(A), 2), "histogram mass differs from C(|A|, 2)")
        oracle = np.zeros(A.n + 1, dtype=np.int64)
        for i in range(members.size - 1):
            oracle += np.bincount(np.bitwise_count(members[i + 1:] ^ members[i]), minlength=A.n + 1)
        need(np.array_equal(oracle, hist.counts), "histogram differs from the pairwise oracle")
        _check_gap(hist.counts, A.n, nu1, nu2, holds, witness,
                   lambda zs: bool(np.isin(zs, members).all()))

    return Step("near-ground-geometry", prepare=prepare, call=call, check=check)


def _pspin_quantize_step(n: int, d: int, p: int, gseed: int) -> Step:
    def check(step_dir: Path, result) -> None:
        _check_hypergraph(step_dir, n, d, p)
        rec = json.loads(only(step_dir, "pspin_*.json").read_text())
        need(rec["quantized_qubits"] == n * d, f"{rec['quantized_qubits']} qubits, expected {n * d}")
        need(abs(rec["quantized_energy"]) <= 1e-10, f"quantized energy {rec['quantized_energy']} above 1e-10")

    argv = ["pspin", "--n", str(n), "--d", str(d), "--p", str(p), "--quantize", "--seeds", str(gseed)]
    return Step("pspin-quantize", argv=argv, check=check, exact=("hypergraph_*.json",))


def _hamiltonian_step(n: int, K: int, m: int, fseed: int) -> Step:
    def check(step_dir: Path, result) -> None:
        rec = json.loads(only(step_dir, "hamiltonian_*.json").read_text())
        need(rec["qubits"] == m * K, f"{rec['qubits']} qubits, expected {m * K}")
        need(abs(rec["energy"]) <= 1e-10, f"ground energy {rec['energy']} above 1e-10")
        with open(only(step_dir, "measurement_*.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        probs = [float(p) for _, p in rows]
        need(len(probs) == rec["support"], "measurement rows differ from the recorded support")
        need(abs(math.fsum(probs) - 1.0) <= 1e-9, f"probabilities sum to {math.fsum(probs)}")
        amp = np.frombuffer(only(step_dir, "state_*.bin").read_bytes(), dtype="<c16")
        need(amp.size == 1 << rec["qubits"], "state dump length differs from 2^qubits")
        need(abs(float(np.vdot(amp, amp).real) - 1.0) <= 1e-9, "state dump is not normalized")

    argv = ["hamiltonian", "--n", str(n), "--K", str(K), "--m", str(m), "--gamma", "0.5",
            "--dump-state", "--seeds", str(fseed)]
    return Step("hamiltonian", argv=argv, check=check)


def _theory_step(k_list: str) -> Step:
    def check(step_dir: Path, result) -> None:
        with open(step_dir / "scan.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        summary = json.loads((step_dir / "scan_summary.json").read_text())
        feasible = sum(r["feasible"] == "True" for r in rows)
        need(summary["feasible_count"] == feasible, "scan summary disagrees with scan.csv")
        need(sorted({int(r["K"]) for r in rows}) == sorted(int(k) for k in k_list.split(",")),
             "scan.csv does not cover the requested K values")

    argv = ["theory-scan", "--alpha", "0.75", "--K-list", k_list]
    return Step("theory-scan", argv=argv, check=check, exact=("scan.csv",))


def _all_variables_used(seed: int, n: int, m: int, K: int) -> int:
    """First derived formula seed whose clauses touch every variable, so the
    Hamiltonian has the same number of active variables for every seed."""
    for c in range(1000):
        fseed = derive(seed, "hamiltonian", c)
        f = ksat.generate_formula(n, m, K, fseed)
        if len({v for cl in f.clauses for v in cl.variables}) == n:
            return fseed
    raise RuntimeError("no formula touches every variable")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The instance list of one workload; ``tiny`` gives the same steps on
    small inputs, used for warm-up and by the tests."""
    if name == "enumerate":
        steps, inputs = [], {}
        for step_id, n, r, target_members, target_tests in (
            ("enumerate-r0", 26, 0, 150_000, 14.5),
            ("enumerate-r1", 24, 1, 200_000, 28.5),
        ):
            if tiny:
                n, fseed, m = n - 14, derive(seed, step_id), 24
            else:
                fseed, m, est = pick_formula(seed, step_id, n, 4, r, range(80, 131), target_members,
                                             target_tests, candidates=5, sample_log2=20)
                inputs[step_id] = {"n": n, "m": m, "r": r, "seed": fseed, "members_estimate": est}
            steps.append(_enumerate_step(step_id, n, 4, m, r, fseed, seed))
        return Workload(name, seed, steps, inputs)
    if name == "geometry":
        n = 14 if tiny else 22
        fseed, m, count = pick_formula(seed, "ogp", n, 4, 0, range(40 if tiny else 60, 111),
                                       200 if tiny else 16_000, None, candidates=1 if tiny else 3,
                                       sample_log2=None)
        if tiny:
            A, nus, partition = planted_clusters(seed, clusters=6, mean_size=8)
        else:
            A, nus, partition = planted_clusters(seed)
        inputs = {"ogp": {"n": n, "m": m, "seed": fseed, "members": count},
                  "cluster-planted": {"n": A.n, "members": len(A), "clusters": len(partition),
                                      "nu1": nus[0], "nu2": nus[1]}}
        steps = [_ogp_step(n, 4, m, fseed, count, 0.1, 0.3), _cluster_step(A, nus, partition)]
        return Workload(name, seed, steps, inputs)
    if name == "spin-quantum":
        n_slack, n_quant, n_ham = (10, 4, 4) if tiny else (22, 10, 10)
        gseed, qseed = derive(seed, "pspin-slack"), derive(seed, "pspin-quantize")
        hseed = _all_variables_used(seed, n_ham, n_ham, 2)
        k_list = "8" if tiny else "8,16,32,64"
        steps = [
            _pspin_slack_step(n_slack, 4, 2, 2, gseed, seed),
            _near_ground_geometry_step(0.1, 0.3),
            _pspin_quantize_step(n_quant, 2, 2, qseed),
            _hamiltonian_step(n_ham, 2, n_ham, hseed),
            _theory_step(k_list),
        ]
        inputs = {"pspin-slack": {"n": n_slack, "seed": gseed}, "pspin-quantize": {"n": n_quant, "seed": qseed},
                  "hamiltonian": {"n": n_ham, "m": n_ham, "seed": hseed}, "theory-scan": {"K_list": k_list}}
        return Workload(name, seed, steps, inputs, seed_independent=("theory-scan/scan.csv",))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
