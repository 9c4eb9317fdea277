"""Exhaustive enumeration of (near-)satisfying assignments and their geometry.

Assignments are enumerated as packed integers in blocks; each block is an
independent work unit, so enumeration parallelizes over a process pool and
merges deterministically (ascending order).  Every pair quantity (overlap
histogram, OGP witness, cluster labels and certificates) comes from one
kernel, _pair_tiles, which sweeps the pairs in popcounted tiles of a few MiB.
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
#: Pair tile shape: its widest temporary, 2^20 uint64 XOR words, is 8 MiB.
_TILE_ROWS, _TILE_COLS = 256, 4096
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
        if members.size and int(members[-1]) >> self.n:
            raise ParameterError(f"member {int(members[-1])} lies outside the cube of n={self.n} bits")

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


def _pair_tiles(A: SolutionSet):
    """Uint8 tiles (i0, j0, d): d[a, b] is the distance of members i0 + a, j0 + b.

    Row blocks come in ascending order.  Each yields first its square (j0 == i0:
    both orders of its pairs, plus the zero diagonal), then all later members
    in ascending column tiles.  Words are uint32 when n <= 32.
    """
    words = A.members.astype(np.uint32) if A.n <= 32 else A.members
    for i0 in range(0, words.size, _TILE_ROWS):
        i1 = min(i0 + _TILE_ROWS, words.size)
        rows = words[i0:i1, None]
        yield i0, i0, np.bitwise_count(rows ^ words[None, i0:i1])
        for j0 in range(i1, words.size, _TILE_COLS):
            yield i0, j0, np.bitwise_count(rows ^ words[None, j0 : j0 + _TILE_COLS])


def overlap_histogram(A: SolutionSet, cap: int = DEFAULT_PAIR_CAP) -> OverlapHistogram:
    """Exact Hamming-distance histogram over all unordered member pairs.

    A tile's bytes are counted two at a time, in uint16 bins folded back onto
    each byte, which halves the work of bincount.
    """
    _check_pair_cap(len(A), cap)
    n = A.n
    counts = np.zeros(n + 1, dtype=np.int64)
    for i0, j0, d in _pair_tiles(A):
        flat = d.reshape(-1)
        odd = flat.size % 2
        both = np.bincount(flat[odd:].view(np.uint16), minlength=256 * (n + 1)).reshape(n + 1, 256)
        tile = both[:, : n + 1].sum(axis=0) + both.sum(axis=1)
        tile[flat[0]] += odd  # the byte left out of the uint16 view
        if i0 == j0:  # a square holds each pair twice, plus its diagonal
            tile[0] -= d.shape[0]
            tile //= 2
        counts += tile
    return OverlapHistogram(n=n, counts=counts)


def _thresholds(n: int, nu1: float, nu2: float) -> tuple[int, int]:
    return math.floor(nu1 * n), math.ceil(nu2 * n)


def detect_ogp(A: SolutionSet, nu1: float, nu2: float, cap: int = DEFAULT_PAIR_CAP):
    """True iff no pair sits strictly inside (nu1*n, nu2*n); else a witness pair.

    Boundary convention: distances d <= floor(nu1*n) count as close and
    d >= ceil(nu2*n) as far; both boundaries are inclusive, so only the open
    interval between the integer thresholds counts as a gap violation.  The
    witness is the gap pair (i, j), i < j, with the least (i, j) in member order.
    """
    if not 0.0 < nu1 < nu2 < 1.0:
        raise ParameterError(f"need 0 < nu1 < nu2 < 1, got nu1={nu1}, nu2={nu2}")
    _check_pair_cap(len(A), cap)
    t1, t2 = _thresholds(A.n, nu1, nu2)
    if len(A) <= 1:
        return True, None
    hist = overlap_histogram(A, cap=cap)
    if hist.counts[t1 + 1 : t2].sum() == 0:
        return True, None
    witness = None
    for i0, j0, d in _pair_tiles(A):
        if witness is not None and i0 > witness[0]:
            break
        gap = (d > t1) & (d < t2)
        if gap.any():
            a, b = divmod(int(gap.argmax()), d.shape[1])  # row order: a square's upper half first
            pair = (i0 + a, j0 + b)
            witness = pair if witness is None else min(witness, pair)
    if witness is None:
        raise AssertionError("histogram reported a gap violation but no witness found")
    return False, tuple(int(A.members[k]) for k in witness)


def cluster(A: SolutionSet, nu1: float, nu2: float, cap: int = DEFAULT_PAIR_CAP) -> ClusterPartition:
    """Classes of the distance-<= nu1*n relation, with certificates.

    Requires the OGP to hold at (nu1, nu2) with nu1 < nu2/2; then the close
    relation is an equivalence, so each member's label is the index of the
    first member within nu1*n of it, and clusters come in that order.  The
    certificates max_intra and min_inter are recomputed from the labels.
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
    labels = np.arange(members.size)
    for i0, j0, d in _pair_tiles(A):
        close = d <= t1
        hit = close.any(axis=0)
        cols = j0 + np.flatnonzero(hit)
        labels[cols] = np.minimum(labels[cols], i0 + close[:, hit].argmax(axis=0))
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    clusters = tuple(np.split(members[order], starts)) if members.size else ()
    # the zero diagonal of the squares counts as intra, n + 1 stands for no pair
    intra, inter = 0, A.n + 1
    for i0, j0, d in _pair_tiles(A):
        same = labels[i0 : i0 + d.shape[0], None] == labels[None, j0 : j0 + d.shape[1]]
        intra = max(intra, int(d.max(where=same, initial=0)))
        inter = min(inter, int(d.min(where=~same, initial=A.n + 1)))
    max_intra = intra if len(clusters) < members.size else -1
    min_inter = inter if len(clusters) > 1 else -1
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
