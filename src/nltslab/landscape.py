"""Exhaustive enumeration of (near-)satisfying assignments and their geometry.

Assignments are enumerated as packed integers in ranges of the cube; each
range is an independent work unit, so _cube_scan runs both scans below in
one process or over a process pool, merging in ascending order.  Satisfying
assignments (r = 0) pass an early-exit clause filter; near-satisfying ones
(r > 0) are counted 64 clauses at a time from split tables over the low and
high variables.  The eps-robust union over excluded variable sets reads the
same tables in one pass: each excluded set is a mask of the clauses that
avoid it, tested against every assignment's violated-clause words.
Every pair histogram goes through _pair_counts, which picks one of two
kernels on n and |A| alone: for a dense set at n <= 24 the counts are the
Krawtchouk transform of the squared Walsh-Hadamard weight classes of the
set's indicator (MacWilliams identity), O(n 2^n) whatever |A| is; every
other set is swept pair by pair in popcounted tiles of a few MiB
(_pair_tiles), which also find the OGP witness.
Clustering reuses that histogram and then visits only the pairs that share
one of t1 + 1 bit chunks (multi-index hashing) and the pairs inside each
cluster, falling back to tiles when those are a large share of all pairs.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ContractError, ParameterError, check_budget
from .ksat import Formula, clauses_within

#: Work-unit size for enumeration; blocks are independent.
BLOCK_SIZE = 1 << 16
#: Pair tile shape: its widest temporary, 2^20 uint64 XOR words, is 8 MiB.
_TILE_ROWS, _TILE_COLS = 256, 4096
#: The Walsh pair kernel runs only for n <= _WALSH_MAX_N.  There its float32
#: vector of 2^n entries is at most 64 MiB, and every partial sum of the
#: transform, a signed count of at most |A| <= 2^24 members, is exact.
_WALSH_MAX_N = 24
#: ... and only when C(|A|, 2) >= _WALSH_CROSSOVER * n 2^n.  The measured
#: crossover with the tiles is 0.2-0.35 at n = 14-24 and near 1 at n = 12;
#: below that both kernels take under 0.3 ms (see CHANGES.md).
_WALSH_CROSSOVER = 1
#: Transform entries squared at a time when summing the weight classes.
_CLASS_BLOCK = 1 << 19
#: cluster visits only the candidate (or intra-cluster) pairs while they are
#: at most this share of all pairs, and tiles above it: a visited pair costs
#: 3-9x a tiled one, so below 1/8 buckets were never the slower kernel on the
#: measured sets (see CHANGES.md).
_BUCKET_SHARE = 1 / 8
#: Byte budget for the split clause tables of r > 0 enumeration, which cost
#: (2^ceil(n/2) + 2^floor(n/2)) * 8 bytes per 64-clause word; clauses past
#: the words that fit are counted on the survivors one by one.
_TABLE_BUDGET = 1 << 23
#: Member rows formatted per write in members_to_csv; bounds its buffers.
_CSV_CHUNK_ROWS = 4096


def _bit_rows(members: np.ndarray, n: int) -> np.ndarray:
    """Packed words as ASCII bit rows of dtype S{n}: bit i of a word is character i."""
    if n == 0:
        return np.zeros(len(members), dtype="S1")  # empty rows
    octets = np.ascontiguousarray(members, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :n] + np.uint8(ord("0"))
    return bits.view(f"S{n}").reshape(-1)


@dataclass(frozen=True)
class SolutionSet:
    """Sorted, duplicate-free set of packed assignments on n variables."""

    n: int
    members: np.ndarray  # uint64, ascending
    r: int
    work: dict = field(default_factory=dict, compare=False)  # filter run and its work counts

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
    work: dict = field(default_factory=dict, compare=False)  # kernel run and the work it was priced at

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
    work: dict = field(default_factory=dict, compare=False)  # kernels chosen and their pair counts

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def _table_size(n: int, m: int) -> tuple[int, int]:
    """(words, bytes per word) of the split tables for m clauses on n variables.

    Only the leading 64-clause words that fit _TABLE_BUDGET are tabled, and
    none when 2^ceil(n/2) exceeds BLOCK_SIZE (n > 32), so that every block of
    _scan_range holds whole high halves.
    """
    L = (n + 1) // 2
    per_word = ((1 << L) + (1 << (n - L))) * 8
    return (min(-(-m // 64), _TABLE_BUDGET // per_word) if 1 << L <= BLOCK_SIZE else 0), per_word


def _packed(bits: np.ndarray, words: int) -> np.ndarray:
    """(rows, m) bools as (rows, words) clause words: bit c of word w is column 64w + c, zero past m."""
    padded = np.zeros((bits.shape[0], 64 * words), dtype=bool)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _clause_tables(n: int, masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split tables (lo, hi) of shapes (words, 2^L) and (words, 2^(n-L)), L = ceil(n/2).

    Bit c of lo[w, a] is set when every literal of clause 64w + c on the low L
    variables is false under low half a, or the clause has none there; hi is
    the same over the high variables.  So lo[w, x mod 2^L] & hi[w, x >> L] is
    the set of clauses of word w that x violates.  Each table ANDs, doubling
    over its variables, the clauses that each variable's value leaves
    unsatisfied.  Only the words _table_size admits are built.
    """
    L = (n + 1) // 2
    words = _table_size(n, masks.size)[0]
    m = min(masks.size, 64 * words)
    var = np.arange(n, dtype=np.uint64)[:, None]
    inside = (masks[None, :m] >> var) & 1 == 1
    negated = (values[None, :m] >> var) & 1 == 1
    unsat0, unsat1 = ~_packed(inside & negated, words), ~_packed(inside & ~negated, words)  # by x_v = 0, 1
    valid = _packed(np.ones((1, m), dtype=bool), words)[0]

    def side(variables: range) -> np.ndarray:
        out = np.empty((words, 1 << len(variables)), dtype=np.uint64)
        out[:, 0] = valid
        for k, v in enumerate(variables):
            np.bitwise_and(out[:, : 1 << k], unsat1[v][:, None], out=out[:, 1 << k : 2 << k])
            out[:, : 1 << k] &= unsat0[v][:, None]
        return out

    return side(range(L)), side(range(L, n))


def _table_counts(tables, start: int, stop: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Assignments in [start, stop) violating at most r clauses of the tabled words, and their counts.

    start and stop are multiples of 2^L.  Word 0 is ANDed over the whole run
    of high halves at once; each later word is gathered for the survivors
    only.  The count is the narrowest unsigned type holding r + 64.
    """
    lo, hi = tables
    count = np.min_scalar_type(r + 64)
    if not lo.shape[0]:
        return np.arange(start, stop), np.zeros(stop - start, dtype=count)
    L = lo.shape[1].bit_length() - 1
    viol = np.bitwise_count(hi[0, start >> L : stop >> L, None] & lo[0]).ravel()
    x = np.flatnonzero(viol <= r)
    viol = viol[x].astype(count)
    x += start
    for w in range(1, lo.shape[0]):
        viol += np.bitwise_count(lo[w, x & ((1 << L) - 1)] & hi[w, x >> L])
        keep = viol <= r
        x, viol = x[keep], viol[keep]
    return x, viol


def _scan_range(args) -> np.ndarray:
    """Packed assignments in [start, stop) violating at most r of the clauses.

    Blocks of BLOCK_SIZE candidates are filtered clause by clause.  For r = 0
    a row is dropped at the first clause it violates (early exit).  For r > 0
    the split tables of the n-variable cube, built here so that a pool task
    carries only its clause lists, count 64 clauses at a time and keep the
    rows with at most r (_table_counts); the clauses past the tabled words add
    to that count on the survivors one by one, dropping rows above r after
    every clause; start and stop are then multiples of 2^L.
    Candidates and clause masks are uint32 words when they fit in 32 bits,
    which always holds at n <= 32 (enum_cap is 30), and uint64 words otherwise.
    The result is cast to uint64 once per range.
    """
    start, stop, masks, values, r, n = args
    if r >= masks.size:  # every assignment violates at most r clauses
        return np.arange(start, stop, dtype=np.uint64)
    tables = _clause_tables(n, masks, values) if r > 0 else None
    fits32 = stop <= 1 << 32 and not (masks >> np.uint64(32)).any()
    word = np.uint32 if fits32 else np.uint64
    masks, values = masks.astype(word), values.astype(word)
    out: list[np.ndarray] = []
    for lo in range(start, stop, BLOCK_SIZE):
        cand = np.arange(lo, min(lo + BLOCK_SIZE, stop), dtype=word)
        if r == 0:
            for mask, val in zip(masks, values):
                cand = cand[(cand & mask) != val]
                if cand.size == 0:
                    break
        else:
            cand, viol = _table_counts(tables, lo, min(lo + BLOCK_SIZE, stop), r)
            cand = cand.astype(word)
            tabled = 64 * tables[0].shape[0]
            for mask, val in zip(masks[tabled:], values[tabled:]):
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


def _cube_scan(scan, args: tuple, n: int, workers: int) -> np.ndarray:
    """Module-level scan((start, stop, *args)) over the n-bit cube, in this process or on a pool.

    A pool runs up to 8 tasks per worker, split on whole high halves of the
    split tables (multiples of 2^ceil(n/2)), and concatenates them in order.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    total = 1 << n
    if workers == 1 or total <= BLOCK_SIZE:
        return scan((0, total, *args))
    L = (n + 1) // 2
    bounds = np.linspace(0, total >> L, min(workers * 8, total // BLOCK_SIZE) + 1, dtype=np.int64) << L
    tasks = [(int(a), int(b), *args) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    # a dead worker raises BrokenProcessPool here, not a hang; the executor's module loads only here
    with concurrent.futures.ProcessPoolExecutor(min(workers, len(tasks))) as pool:
        return np.concatenate(list(pool.map(scan, tasks)))


def enumerate_sat(
    f: Formula,
    r: int,
    S: Iterable[int] | None = None,
    workers: int = 1,
) -> SolutionSet:
    """All assignments violating at most r clauses of C(S) (all clauses if S is None)."""
    check_budget("enum_cap", f.n, "enumeration", "variables")
    if r < 0:
        raise ParameterError("violation budget r must be nonnegative")
    masks, values = _restricted_clause_arrays(f, S)
    members = _cube_scan(_scan_range, (masks, values, r, f.n), f.n, workers)
    words, per_word = _table_size(f.n, masks.size)
    table_bytes = words * per_word if 0 < r < masks.size else 0
    work = {"filter": "split_tables" if table_bytes else "early_exit", "assignments": 1 << f.n,
            "table_bytes": table_bytes, "members": int(members.size)}
    return SolutionSet(n=f.n, members=members, r=r, work=work)


def _scan_eps_range(args) -> np.ndarray:
    """Packed assignments in [start, stop) violating at most r of the clauses some excluded set keeps.

    Each excluded set is a mask of the clauses that avoid it, in 64-clause
    words.  The range, on multiples of 2^L, is walked in blocks of whole high
    halves whose violated-clause words (hi & lo on the tabled words, one
    compare per clause past them) and temporaries fit _TABLE_BUDGET, as the
    masks' groups do.  x is kept when its words ANDed with some mask hold at most r bits.
    """
    start, stop, masks, values, excluded, r, n = args
    if r >= masks.size:  # no set keeps more than r clauses
        return np.arange(start, stop, dtype=np.uint64)
    lo, hi = _clause_tables(n, masks, values)
    tabled, L, words = lo.shape[0], (n + 1) // 2, -(-masks.size // 64)
    E = np.fromiter((sum(1 << v for v in e) for e in combinations(range(n), excluded)), dtype=np.uint64)
    group = max(1, _TABLE_BUDGET // (16 * 64 * words))  # 16 bytes per set and clause slot
    kept = np.concatenate([_packed((masks & E[g : g + group, None]) == 0, words) for g in range(0, E.size, group)])
    count = np.min_scalar_type(64 * words)
    halves = max(1, _TABLE_BUDGET // (48 * words) >> L)  # 17 bytes per row and word, plus 30 per row
    parts = []
    for a in range(start >> L, stop >> L, halves):
        b = min(a + halves, stop >> L)
        x = np.arange(a << L, b << L, dtype=np.uint64)
        viol = np.zeros((words, x.size), dtype=np.uint64)
        viol[:tabled] = (hi[:, a:b, None] & lo[:, None]).reshape(tabled, x.size)
        for c in range(64 * tabled, masks.size):
            viol[c // 64] |= ((x & masks[c]) == values[c]).astype(np.uint64) << np.uint64(c % 64)
        keep = np.zeros(x.size, dtype=bool)
        at, found = np.arange(x.size), 0  # the rows still tested; those kept since the last drop
        for mask in kept:
            hit = at[np.add.reduce(np.bitwise_count(viol & mask[:, None]), axis=0, dtype=count) <= r]
            keep[hit] = True
            found += hit.size
            if found * 8 > at.size:  # compress, unlike viol[:, live], stays C-ordered
                live = ~keep[at]
                at, viol, found = at[live], viol.compress(live, axis=1), 0
        parts.append(x[keep])
    return np.concatenate(parts)


def enumerate_sat_eps(
    f: Formula,
    eps: float,
    r: int,
    workers: int = 1,
) -> SolutionSet:
    """Union over all S of size n - ceil(eps*n) of enumerate_sat(f, r, S), in one _scan_eps_range pass."""
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must be in [0, 1)")
    n, excluded = f.n, math.ceil(eps * f.n)
    n_subsets = math.comb(n, excluded)
    masks, values, _ = f.clause_arrays
    check_budget("eps_budget", (n_subsets << n) * max(1, -(-masks.size // 64)),
                 f"enumerate_sat_eps over {n_subsets} kept sets", "mask-word tests")
    check_budget("enum_cap", n, "enumeration", "variables")
    if r < 0:
        raise ParameterError("violation budget r must be nonnegative")
    members = _cube_scan(_scan_eps_range, (masks, values, excluded, r, n), n, workers)
    words, per_word = _table_size(n, masks.size)
    work = {"filter": "clause_masks", "assignments": 1 << n, "excluded_sets": n_subsets,
            "table_bytes": words * per_word if r < masks.size else 0, "members": int(members.size)}
    return SolutionSet(n=n, members=members, r=r, work=work)


# ---------------------------------------------------------------------------
# Pairwise geometry
# ---------------------------------------------------------------------------

def _words(members: np.ndarray, n: int) -> np.ndarray:
    """Members as uint32 words when n <= 32, else the uint64 members themselves."""
    return members.astype(np.uint32) if n <= 32 else members


def _pair_tiles(members: np.ndarray, n: int):
    """Uint8 tiles (i0, j0, d): d[a, b] is the distance of members i0 + a, j0 + b.

    Row blocks come in ascending order.  Each yields first its square (j0 == i0:
    both orders of its pairs, plus the zero diagonal), then all later members
    in ascending column tiles.
    """
    words = _words(members, n)
    for i0 in range(0, words.size, _TILE_ROWS):
        i1 = min(i0 + _TILE_ROWS, words.size)
        rows = words[i0:i1, None]
        yield i0, i0, np.bitwise_count(rows ^ words[None, i0:i1])
        for j0 in range(i1, words.size, _TILE_COLS):
            yield i0, j0, np.bitwise_count(rows ^ words[None, j0 : j0 + _TILE_COLS])


def _tile_counts(members: np.ndarray, n: int) -> np.ndarray:
    """Int64 counts[d] of the unordered pairs of `members` at distance d, by tiles.

    A tile's bytes are counted two at a time, in uint16 bins folded back onto
    each byte, which halves the work of bincount.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    for i0, j0, d in _pair_tiles(members, n):
        flat = d.reshape(-1)
        odd = flat.size % 2
        both = np.bincount(flat[odd:].view(np.uint16), minlength=256 * (n + 1)).reshape(n + 1, 256)
        tile = both[:, : n + 1].sum(axis=0) + both.sum(axis=1)
        tile[flat[0]] += odd  # the byte left out of the uint16 view
        if i0 == j0:  # a square holds each pair twice, plus its diagonal
            tile[0] -= d.shape[0]
            tile //= 2
        counts += tile
    return counts


def _walsh_transform(members: np.ndarray, n: int) -> np.ndarray:
    """Walsh-Hadamard transform W of the indicator of `members`, as float32.

    W[s] = sum over members x of (-1)^popcount(s & x).  The bits are taken six
    at a time: each stage is one matmul of a Hadamard block over a view of
    the vector, written into a second buffer that then swaps with it.
    """
    order = np.arange(64)
    hadamard = np.where(np.bitwise_count(order[:, None] & order) & 1, -1, 1).astype(np.float32)
    v = np.zeros(1 << n, dtype=np.float32)
    v[members] = 1
    out = np.empty_like(v)
    for b in range(0, n, 6):
        k = min(6, n - b)
        H = hadamard[: 1 << k, : 1 << k]  # Sylvester order: its leading squares are Hadamard too
        shape = (1 << (n - b - k), 1 << k, 1 << b)
        if b == 0:  # the transformed bits are the last axis
            np.matmul(v.reshape(shape[:2]), H, out=out.reshape(shape[:2]))
        else:
            np.matmul(H, v.reshape(shape), out=out.reshape(shape))
        v, out = out, v
    return v


def _weight_onehot(bits: int) -> np.ndarray:
    """Float64 (2^bits, bits + 1) matrix: row x is 1 at popcount(x)."""
    return np.equal.outer(np.bitwise_count(np.arange(1 << bits)), np.arange(bits + 1)).astype(np.float64)


def _weight_classes(W: np.ndarray, n: int) -> list[int]:
    """Sums of W[s]^2 over the s of each Hamming weight 0..n.

    W is viewed as (2^ceil(n/2), 2^floor(n/2)) rows and columns, so the weight
    of an entry is its row's plus its column's.  Blocks of rows are squared in
    float64 and summed by column weight, and those sums by row weight.  Every
    value is an integer at most 2^n |A| <= 2^48 (Parseval), so the float64
    sums are exact.
    """
    R, C = (n + 1) // 2, n // 2
    rows = W.reshape(1 << R, 1 << C)
    by_column = _weight_onehot(C)
    step = max(1, _CLASS_BLOCK >> C)
    by_row = np.concatenate([np.square(rows[r0 : r0 + step], dtype=np.float64) @ by_column
                             for r0 in range(0, 1 << R, step)])
    classes = [0] * (n + 1)
    for (i, j), total in np.ndenumerate(_weight_onehot(R).T @ by_row):
        classes[i + j] += int(total)
    return classes


def _krawtchouk(n: int) -> list[list[int]]:
    """K[d][w] = sum_j (-1)^j C(w, j) C(n - w, d - j), by the three-term recurrence in d."""
    K = [[1] * (n + 1), [n - 2 * w for w in range(n + 1)]]
    for d in range(1, n):
        K.append([((n - 2 * w) * a - (n - d + 1) * b) // (d + 1)
                  for w, (a, b) in enumerate(zip(K[d], K[d - 1]))])
    return K[: n + 1]


def _walsh_counts(members: np.ndarray, n: int) -> np.ndarray:
    """_tile_counts' result from the Walsh transform, for n <= _WALSH_MAX_N.

    By the MacWilliams identity the ordered pairs at distance d number
    2^-n sum_w K_d(w) B_w, where B_w sums W^2 over weight w.  That sum is taken
    in Python ints; then the diagonal (the |A| pairs of a member with itself)
    is subtracted and the rest halved.
    """
    classes = _weight_classes(_walsh_transform(members, n), n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for d, row in enumerate(_krawtchouk(n)):
        ordered, rem = divmod(sum(k * b for k, b in zip(row, classes)), 1 << n)
        if d == 0:
            ordered -= members.size
        if rem or ordered % 2:
            raise ContractError(f"Walsh pair count at distance {d} is not an even multiple of 2^{n}")
        counts[d] = ordered // 2
    return counts


def _walsh_priced(size: int, n: int) -> bool:
    """Whether _pair_counts takes the Walsh kernel for `size` members of the n-cube."""
    return n <= _WALSH_MAX_N and math.comb(size, 2) >= _WALSH_CROSSOVER * (n << n)


def _pair_counts(members: np.ndarray, n: int) -> np.ndarray:
    """Int64 counts[d] of the unordered pairs of `members` at distance d, by the kernel _walsh_priced picks."""
    return (_walsh_counts if _walsh_priced(members.size, n) else _tile_counts)(members, n)


def overlap_histogram(A: SolutionSet) -> OverlapHistogram:
    """Exact Hamming-distance histogram over all unordered member pairs.

    `work` names the kernel and its priced amount: transform_ops = n 2^n for
    the Walsh kernel, or pairs = C(|A|, 2) for the tiles.
    """
    check_budget("pair_cap", len(A), "the pair loop", "members")
    work = ({"kernel": "walsh", "transform_ops": A.n << A.n} if _walsh_priced(len(A), A.n)
            else {"kernel": "tiles", "pairs": math.comb(len(A), 2)})
    return OverlapHistogram(n=A.n, counts=_pair_counts(A.members, A.n), work=work)


def _thresholds(n: int, nu1: float, nu2: float) -> tuple[int, int]:
    return math.floor(nu1 * n), math.ceil(nu2 * n)


def check_nu(nu1: float, nu2: float, clustering: bool = False) -> None:
    """Refuse a gap outside 0 < nu1 < nu2 < 1, and for clustering one without nu1 < nu2/2."""
    if clustering and not nu1 < nu2 / 2:
        raise ParameterError(f"clustering needs nu1 < nu2/2, got nu1={nu1}, nu2={nu2}")
    if not 0.0 < nu1 < nu2 < 1.0:
        raise ParameterError(f"need 0 < nu1 < nu2 < 1, got nu1={nu1}, nu2={nu2}")


def _detect_ogp(A: SolutionSet, nu1: float, nu2: float):
    """detect_ogp's (holds, witness), plus the histogram it was decided on."""
    check_nu(nu1, nu2)
    t1, t2 = _thresholds(A.n, nu1, nu2)
    hist = overlap_histogram(A)
    if hist.counts[t1 + 1 : t2].sum() == 0:
        return True, None, hist
    witness = None
    for i0, j0, d in _pair_tiles(A.members, A.n):
        if witness is not None and i0 > witness[0]:
            break
        gap = (d > t1) & (d < t2)
        if gap.any():
            a, b = divmod(int(gap.argmax()), d.shape[1])  # row order: a square's upper half first
            pair = (i0 + a, j0 + b)
            witness = pair if witness is None else min(witness, pair)
    if witness is None:
        raise AssertionError("histogram reported a gap violation but no witness found")
    return False, tuple(int(A.members[k]) for k in witness), hist


def detect_ogp(A: SolutionSet, nu1: float, nu2: float):
    """True iff no pair sits strictly inside (nu1*n, nu2*n); else a witness pair.

    Boundary convention: distances d <= floor(nu1*n) count as close and
    d >= ceil(nu2*n) as far; both boundaries are inclusive, so only the open
    interval between the integer thresholds counts as a gap violation.  The
    witness is the gap pair (i, j), i < j, with the least (i, j) in member order.
    """
    holds, witness, _ = _detect_ogp(A, nu1, nu2)
    return holds, witness


def _run_sizes(sorted_keys: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted array."""
    cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.diff(np.concatenate(([0], cuts, [sorted_keys.size])))


def _pairs_in_runs(sizes: np.ndarray) -> int:
    return int((sizes * (sizes - 1) // 2).sum())


def _run_pairs(sizes: np.ndarray):
    """Batches (k, s): positions k and k + s lie in one run, for s = 1, 2, ...

    The positions are those of an array cut into consecutive runs of these
    sizes.  Every pair inside a run is yielded once, and the k of one batch are
    distinct, so the k + s are too.  Arrays stay O(sum of sizes).
    """
    ends = np.cumsum(sizes)
    left = np.repeat(ends, sizes) - np.arange(sizes.sum()) - 1  # later positions in the run
    k = np.flatnonzero(left)
    left = left[k]
    s = 1
    while k.size:
        yield k, s
        s += 1
        keep = left >= s
        k, left = k[keep], left[keep]


def _chunk_keys(words: np.ndarray, n: int, t1: int):
    """Per chunk of t1 + 1 chunks that tile the n bits, every word's bits in it.

    Two words within distance t1 agree on at least one chunk (pigeonhole).
    """
    word = words.dtype.type
    bounds = [c * n // (t1 + 1) for c in range(t1 + 2)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield (words >> word(lo)) & word((1 << (hi - lo)) - 1)


def _bucket_candidates(words: np.ndarray, n: int, t1: int) -> int:
    """Pairs _bucket_labels compares: per chunk, the pairs that share its bits."""
    return sum(_pairs_in_runs(_run_sizes(np.sort(keys))) for keys in _chunk_keys(words, n, t1))


def _choose(pairs: int, total: int) -> str:
    """The kernel that does less work for `pairs` pairs in a set of `total` pairs."""
    return "buckets" if pairs <= _BUCKET_SHARE * total else "tiles"


def _bucket_labels(words: np.ndarray, n: int, t1: int) -> tuple[np.ndarray, int]:
    """Least index within t1 of each member, from the pairs that share a chunk; and the close hits.

    A stable sort keeps member order inside a run of equal keys, so of a pair
    at sorted positions k < k + s the earlier member is order[k].
    """
    labels = np.arange(words.size)
    hits = 0
    for keys in _chunk_keys(words, n, t1):
        order = np.argsort(keys, kind="stable")
        sorted_words = words[order]
        for k, s in _run_pairs(_run_sizes(keys[order])):
            close = k[np.bitwise_count(sorted_words[k] ^ sorted_words[k + s]) <= t1]
            later = order[close + s]  # distinct within one offset, so no ufunc.at
            labels[later] = np.minimum(labels[later], order[close])
            hits += close.size
    return labels, hits


def _tile_labels(members: np.ndarray, n: int, t1: int) -> np.ndarray:
    """Least index within t1 of each member, from every pair tile."""
    labels = np.arange(members.size)
    for i0, j0, d in _pair_tiles(members, n):
        close = d <= t1
        hit = close.any(axis=0)
        cols = j0 + np.flatnonzero(hit)
        labels[cols] = np.minimum(labels[cols], i0 + close[:, hit].argmax(axis=0))
    return labels


def cluster(A: SolutionSet, nu1: float, nu2: float) -> ClusterPartition:
    """Classes of the distance-<= nu1*n relation, with certificates.

    Requires the OGP to hold at (nu1, nu2) with nu1 < nu2/2; then the close
    relation is an equivalence, so each member's label is the index of the
    first member within t1 = floor(nu1*n) of it, and clusters come in that
    order.  After the OGP histogram, only pairs that can be close and pairs
    inside a cluster are visited:

    - labels come from the pairs that agree on one of t1 + 1 bit chunks
      (multi-index hashing), or from every pair tile when those candidates
      exceed _BUCKET_SHARE of all pairs;
    - the intra-cluster histogram comes from the pairs inside each cluster, by
      offsets in cluster order or by tiles under the same rule.  max_intra is
      its largest distance and min_inter the least d at which the OGP
      histogram holds more pairs than it.

    `work` records the OGP histogram's kernel and both kernel choices, the
    candidate pairs priced, the close pairs the label pass found (buckets count
    a pair once per chunk it shares) and the intra-cluster pairs.
    """
    check_nu(nu1, nu2, clustering=True)
    ok, witness, hist = _detect_ogp(A, nu1, nu2)
    if not ok:
        raise ContractError(
            f"OGP fails at (nu1={nu1}, nu2={nu2}); witness pair {witness}", witness=witness
        )
    n, members, counts = A.n, A.members, hist.counts
    t1, t2 = _thresholds(n, nu1, nu2)
    total = math.comb(members.size, 2)
    words = _words(members, n)
    candidates = _bucket_candidates(words, n, t1)
    work = {"histogram_kernel": hist.work["kernel"], "label_kernel": _choose(candidates, total),
            "candidate_pairs": candidates}
    if work["label_kernel"] == "buckets":
        labels, work["close_pairs"] = _bucket_labels(words, n, t1)
    else:
        labels, work["close_pairs"] = _tile_labels(members, n, t1), int(counts[: t1 + 1].sum())
    order = np.argsort(labels, kind="stable")
    sizes = _run_sizes(labels[order])
    clusters = tuple(np.split(members[order], np.cumsum(sizes)[:-1])) if members.size else ()
    work["intra_pairs"] = _pairs_in_runs(sizes)
    work["certificate_kernel"] = _choose(work["intra_pairs"], total)
    intra = np.zeros(n + 1, dtype=np.int64)
    if work["certificate_kernel"] == "buckets":
        sorted_words = words[order]
        for k, s in _run_pairs(sizes):
            intra += np.bincount(np.bitwise_count(sorted_words[k] ^ sorted_words[k + s]), minlength=n + 1)
    else:
        for c in clusters:
            if c.size > 1:
                intra += _pair_counts(c, n)
    max_intra = int(np.flatnonzero(intra)[-1]) if intra.any() else -1
    inter = np.flatnonzero(counts > intra)
    min_inter = int(inter[0]) if inter.size else -1
    if max_intra > t1:
        raise ContractError(f"intra-cluster distance {max_intra} exceeds floor(nu1*n)={t1}")
    if min_inter >= 0 and min_inter < t2:
        raise ContractError(f"inter-cluster distance {min_inter} below ceil(nu2*n)={t2}")
    return ClusterPartition(
        n=n, clusters=clusters, nu1=nu1, nu2=nu2, max_intra=max_intra, min_inter=min_inter,
        work=work,
    )


def cluster_stats(P: ClusterPartition) -> dict:
    """Summary of a partition: cluster count and sizes, and its intra/inter distances."""
    sizes = [int(c.size) for c in P.clusters]
    total = sum(sizes)
    return {
        "num_clusters": P.num_clusters,
        "max_cluster_size": max(sizes) if sizes else 0,
        "max_cluster_fraction": (max(sizes) / total) if total else 0.0,
        "total_size": total,
        "max_intra": P.max_intra,
        "min_inter": P.min_inter,
    }


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
