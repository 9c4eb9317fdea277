"""Exhaustive enumeration of (near-)satisfying assignments and their geometry.

Assignments are enumerated as packed integers in blocks; each block is an
independent work unit, so enumeration parallelizes over a process pool and
merges deterministically (ascending order).  Pairwise Hamming distances are
computed with vectorized popcounts on the packed words.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing as mp
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ContractError, ParameterError, ResourceLimitError
from .ksat import Formula, clauses_within

#: Hard cap on variable count for exhaustive enumeration (2^n assignments).
DEFAULT_ENUM_CAP = 30
#: Work-unit size for enumeration; blocks are independent.
BLOCK_SIZE = 1 << 16
#: Cap on solution-set size for the O(|A|^2) pair loops.
DEFAULT_PAIR_CAP = 1 << 20
#: Budget for the union over variable subsets in enumerate_sat_eps:
#: choose(n, excluded) * 2^n must stay below this.
DEFAULT_EPS_BUDGET = 1 << 34
#: Member rows formatted per write in members_to_csv; bounds its buffers.
_CSV_CHUNK_ROWS = 4096


def _bit_rows(members: np.ndarray, n: int) -> np.ndarray:
    """Packed words as ASCII bit rows of dtype S{n}: bit i of a word is character i."""
    octets = np.ascontiguousarray(members, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :n] + np.uint8(ord("0"))
    return bits.view(f"S{n}").reshape(-1)


@dataclass(frozen=True)
class SolutionSet:
    """Sorted, duplicate-free set of packed assignments on n variables."""

    n: int
    members: np.ndarray  # uint64, ascending
    r: int
    formula: Formula | None = None
    restriction: frozenset[int] | None = None
    eps: float | None = None

    def __post_init__(self):
        members = np.asarray(self.members, dtype=np.uint64)
        object.__setattr__(self, "members", members)
        if not (members[1:] > members[:-1]).all():
            raise ParameterError("members must be strictly ascending")

    def __len__(self) -> int:
        return int(self.members.size)

    def bitstrings(self) -> list[str]:
        return _bit_rows(self.members, self.n).astype(str).tolist()


@dataclass(frozen=True)
class OverlapHistogram:
    """counts[d] = number of unordered member pairs at Hamming distance d."""

    n: int
    counts: np.ndarray  # int64, length n + 1

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClusterPartition:
    n: int
    clusters: tuple[np.ndarray, ...]
    nu1: float
    nu2: float
    max_intra: int  # recomputed certificate, -1 when no intra pair exists
    min_inter: int  # recomputed certificate, -1 when fewer than 2 clusters

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def _scan_range(args) -> np.ndarray:
    """Packed assignments in [start, stop) violating at most r of the clauses.

    Blocks of BLOCK_SIZE candidates are filtered clause by clause, and rows
    whose running violation count exceeds r are dropped after every clause
    (early exit).  Candidates and clause masks are uint32 words when they fit
    in 32 bits, which always holds under DEFAULT_ENUM_CAP, and uint64 words
    otherwise; the r > 0 counter is the narrowest unsigned type holding r + 1.
    The result is cast to uint64 once per range.
    """
    start, stop, masks, values, r = args
    fits32 = stop <= 1 << 32 and not (masks >> np.uint64(32)).any()
    word = np.uint32 if fits32 else np.uint64
    masks, values = masks.astype(word), values.astype(word)
    out: list[np.ndarray] = []
    for lo in range(start, stop, BLOCK_SIZE):
        cand = np.arange(lo, min(lo + BLOCK_SIZE, stop), dtype=word)
        if r >= masks.size:
            out.append(cand)
            continue
        if r == 0:
            for mask, val in zip(masks, values):
                cand = cand[(cand & mask) != val]
                if cand.size == 0:
                    break
        else:
            viol = np.zeros(cand.size, dtype=np.min_scalar_type(r + 1))
            for mask, val in zip(masks, values):
                viol += (cand & mask) == val
                keep = viol <= r
                if not keep.all():
                    cand = cand[keep]
                    viol = viol[keep]
                    if cand.size == 0:
                        break
        out.append(cand)
    return np.concatenate(out).astype(np.uint64, copy=False) if out else np.empty(0, dtype=np.uint64)


def _restricted_clause_arrays(f: Formula, S: Iterable[int] | None):
    masks, values, idx = f.clause_arrays
    if S is None:
        return masks, values
    keep_idx = clauses_within(f, S)
    sel = np.isin(idx, np.fromiter(keep_idx, dtype=np.int64, count=len(keep_idx)))
    return masks[sel], values[sel]


def enumerate_sat(
    f: Formula,
    r: int,
    S: Iterable[int] | None = None,
    workers: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
) -> SolutionSet:
    """All assignments violating at most r clauses of C(S) (all clauses if S is None)."""
    if f.n > cap:
        raise ResourceLimitError(
            f"n={f.n} exceeds enumeration cap {cap}", budget_name="enum_cap"
        )
    if r < 0:
        raise ParameterError("violation budget r must be nonnegative")
    S_frozen = frozenset(S) if S is not None else None
    masks, values = _restricted_clause_arrays(f, S_frozen)
    total = 1 << f.n
    if workers <= 1 or total <= BLOCK_SIZE:
        members = _scan_range((0, total, masks, values, r))
    else:
        n_tasks = min(workers * 8, max(1, total // BLOCK_SIZE))
        bounds = np.linspace(0, total, n_tasks + 1, dtype=np.int64)
        tasks = [
            (int(a), int(b), masks, values, r)
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        ctx = mp.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_scan_range, tasks)
        members = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
    return SolutionSet(n=f.n, members=members, r=r, formula=f, restriction=S_frozen)


def enumerate_sat_eps(
    f: Formula,
    eps: float,
    r: int,
    workers: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
    budget: int = DEFAULT_EPS_BUDGET,
) -> SolutionSet:
    """Union over all S of size n - ceil(eps*n) of enumerate_sat(f, r, S)."""
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must be in [0, 1)")
    excluded = math.ceil(eps * f.n)
    n_subsets = math.comb(f.n, excluded)
    if n_subsets * (1 << f.n) > budget:
        raise ResourceLimitError(
            f"enumerate_sat_eps needs {n_subsets} x 2^{f.n} work, over budget {budget}",
            budget_name="eps_budget",
        )
    from itertools import combinations

    all_vars = range(f.n)
    union: np.ndarray | None = None
    for excl in combinations(all_vars, excluded):
        S = frozenset(all_vars) - frozenset(excl)
        part = enumerate_sat(f, r, S=S, workers=workers, cap=cap).members
        union = part if union is None else np.union1d(union, part)
    assert union is not None
    return SolutionSet(n=f.n, members=union, r=r, formula=f, eps=eps)


# ---------------------------------------------------------------------------
# Pairwise geometry
# ---------------------------------------------------------------------------

def _check_pair_cap(size: int, cap: int):
    if size > cap:
        raise ResourceLimitError(
            f"|A|={size} exceeds pair-loop cap {cap}", budget_name="pair_cap"
        )


def overlap_histogram(A: SolutionSet, cap: int = DEFAULT_PAIR_CAP, row_block: int = 2048) -> OverlapHistogram:
    """Exact Hamming-distance histogram over all unordered member pairs."""
    _check_pair_cap(len(A), cap)
    members = A.members
    counts = np.zeros(A.n + 1, dtype=np.int64)
    for lo in range(0, members.size, row_block):
        hi = min(lo + row_block, members.size)
        block = members[lo:hi]
        # pairs within the block (strict upper triangle)
        d_in = np.bitwise_count(block[:, None] ^ block[None, :])
        iu = np.triu_indices(hi - lo, k=1)
        counts += np.bincount(d_in[iu].ravel(), minlength=A.n + 1)
        # pairs between this block and all later members
        rest = members[hi:]
        if rest.size:
            d_out = np.bitwise_count(block[:, None] ^ rest[None, :])
            counts += np.bincount(d_out.ravel(), minlength=A.n + 1)
    return OverlapHistogram(n=A.n, counts=counts)


def _thresholds(n: int, nu1: float, nu2: float) -> tuple[int, int]:
    return math.floor(nu1 * n), math.ceil(nu2 * n)


def detect_ogp(A: SolutionSet, nu1: float, nu2: float, cap: int = DEFAULT_PAIR_CAP):
    """True iff no pair sits strictly inside (nu1*n, nu2*n); else a witness pair.

    Boundary convention: distances d <= floor(nu1*n) count as close and
    d >= ceil(nu2*n) as far; both boundaries are inclusive, so only the open
    interval between the integer thresholds counts as a gap violation.
    """
    if not 0.0 < nu1 < nu2 < 1.0:
        raise ParameterError(f"need 0 < nu1 < nu2 < 1, got nu1={nu1}, nu2={nu2}")
    _check_pair_cap(len(A), cap)
    t1, t2 = _thresholds(A.n, nu1, nu2)
    if len(A) <= 1:
        return True, None
    hist = overlap_histogram(A, cap=cap)
    gap = hist.counts[t1 + 1 : t2]
    if gap.sum() == 0:
        return True, None
    members = A.members
    for i in range(members.size - 1):
        d = np.bitwise_count(members[i + 1 :] ^ members[i])
        bad = np.nonzero((d > t1) & (d < t2))[0]
        if bad.size:
            return False, (int(members[i]), int(members[i + 1 + bad[0]]))
    raise AssertionError("histogram reported a gap violation but no witness found")


class _UnionFind:
    """Disjoint sets over 0..size-1 with path compression and union by rank."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def cluster(A: SolutionSet, nu1: float, nu2: float, cap: int = DEFAULT_PAIR_CAP) -> ClusterPartition:
    """Connected components of the distance-<= nu1*n relation, with certificates.

    Requires the OGP to hold at (nu1, nu2) with nu1 < nu2/2; under that
    condition the close relation is transitive and the partition unique.
    """
    if not nu1 < nu2 / 2:
        raise ParameterError(f"clustering needs nu1 < nu2/2, got nu1={nu1}, nu2={nu2}")
    ok, witness = detect_ogp(A, nu1, nu2, cap=cap)
    if not ok:
        raise ContractError(
            f"OGP fails at (nu1={nu1}, nu2={nu2}); witness pair {witness}", witness=witness
        )
    members = A.members
    t1, t2 = _thresholds(A.n, nu1, nu2)
    uf = _UnionFind(members.size)
    for i in range(members.size - 1):
        d = np.bitwise_count(members[i + 1 :] ^ members[i])
        for j in np.nonzero(d <= t1)[0]:
            uf.union(i, i + 1 + int(j))
    groups: dict[int, list[int]] = {}
    for i in range(members.size):
        groups.setdefault(uf.find(i), []).append(i)
    clusters = tuple(members[np.asarray(g, dtype=np.int64)] for g in sorted(groups.values()))
    # recompute certificates from scratch
    labels = np.empty(members.size, dtype=np.int64)
    for ell, g in enumerate(sorted(groups.values())):
        labels[np.asarray(g, dtype=np.int64)] = ell
    max_intra, min_inter = -1, -1
    for i in range(members.size - 1):
        d = np.bitwise_count(members[i + 1 :] ^ members[i]).astype(np.int64)
        same = labels[i + 1 :] == labels[i]
        if same.any():
            max_intra = max(max_intra, int(d[same].max()))
        if (~same).any():
            mi = int(d[~same].min())
            min_inter = mi if min_inter < 0 else min(min_inter, mi)
    if max_intra > t1:
        raise ContractError(f"intra-cluster distance {max_intra} exceeds floor(nu1*n)={t1}")
    if min_inter >= 0 and min_inter < t2:
        raise ContractError(f"inter-cluster distance {min_inter} below ceil(nu2*n)={t2}")
    return ClusterPartition(
        n=A.n, clusters=clusters, nu1=nu1, nu2=nu2, max_intra=max_intra, min_inter=min_inter
    )


def cluster_stats(P: ClusterPartition, c1: float | None = None, c2: float | None = None) -> dict:
    """Summary of a partition, with optional exp(c1 n) / exp(c2 n) comparisons."""
    sizes = [int(c.size) for c in P.clusters]
    total = sum(sizes)
    stats = {
        "num_clusters": P.num_clusters,
        "max_cluster_size": max(sizes) if sizes else 0,
        "max_cluster_fraction": (max(sizes) / total) if total else 0.0,
        "total_size": total,
        "max_intra": P.max_intra,
        "min_inter": P.min_inter,
    }
    if c1 is not None:
        stats["max_cluster_below_exp_c1n"] = stats["max_cluster_size"] <= math.exp(c1 * P.n)
    if c2 is not None:
        stats["total_above_exp_c2n"] = total >= math.exp(c2 * P.n)
    return stats


# ---------------------------------------------------------------------------
# Exports (stable layout for golden tests)
# ---------------------------------------------------------------------------

def members_to_csv(A: SolutionSet, path: str | Path) -> None:
    """Two csv header rows, then one ``packed,bits`` row per member, CRLF-terminated."""
    head = io.StringIO()
    w = csv.writer(head)
    w.writerow(["# nltslab members v1", f"n={A.n}", f"r={A.r}"])
    w.writerow(["packed", "bits"])
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for lo in range(0, len(A), _CSV_CHUNK_ROWS):
            chunk = A.members[lo : lo + _CSV_CHUNK_ROWS]
            rows = zip(chunk.tolist(), _bit_rows(chunk, A.n).tolist())
            fh.write(b"".join(b"%d,%s\r\n" % row for row in rows))


def histogram_to_csv(h: OverlapHistogram, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["# nltslab histogram v1", f"n={h.n}"])
        w.writerow(["distance", "pairs"])
        for d, c in enumerate(h.counts):
            w.writerow([d, int(c)])


def summary_to_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
