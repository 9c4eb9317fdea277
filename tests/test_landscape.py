import concurrent.futures
import csv
import functools
import io
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import literal_violation_counts, naive_enumerate, transitive_closure_clusters
from nltslab import errors, ksat, landscape
from nltslab.errors import ContractError, ParameterError, ResourceLimitError


def _set(n: int, packed) -> landscape.SolutionSet:
    return landscape.SolutionSet(n=n, members=np.asarray(sorted(packed), dtype=np.uint64), r=0)


# ---------------------------------------------------------------------------
# solution sets
# ---------------------------------------------------------------------------

def test_members_order_compared_as_unsigned_64_bit():
    # members on both sides of 2^63: a signed comparison gets both cases wrong
    A = landscape.SolutionSet(n=64, members=[1, 2**63 + 5], r=0)
    assert A.members.tolist() == [1, 2**63 + 5]
    with pytest.raises(ParameterError):
        landscape.SolutionSet(n=64, members=[2**64 - 1, 0], r=0)
    with pytest.raises(ParameterError):
        landscape.SolutionSet(n=3, members=[2, 2], r=0)


def test_members_must_lie_in_the_cube():
    with pytest.raises(ParameterError, match=r"member 8 .*n=3\b"):
        landscape.SolutionSet(n=3, members=[1, 8], r=0)
    with pytest.raises(ParameterError, match=r"member 1099511627776 .*n=40\b"):
        landscape.SolutionSet(n=40, members=[0, 2**40], r=0)
    assert len(landscape.SolutionSet(n=3, members=[0, 7], r=0)) == 2
    assert len(landscape.SolutionSet(n=64, members=[0, 2**64 - 1], r=0)) == 2


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_small_r0(demo_formula):
    A = landscape.enumerate_sat(demo_formula, r=0)
    assert sorted(A.bitstrings()) == ["001", "010", "011", "101"]
    assert len(A) == 4


def test_enumerate_small_r1(demo_formula):
    A = landscape.enumerate_sat(demo_formula, r=1)
    assert len(A) == 6
    assert set(A.bitstrings()) == {"001", "010", "011", "101", "000", "111"}


def test_enumerate_r_at_least_m(demo_formula):
    A = landscape.enumerate_sat(demo_formula, r=demo_formula.m)
    assert len(A) == 8


def test_enumerate_cap(monkeypatch):
    f = ksat.generate_formula(12, 3, 2, seed=0)
    monkeypatch.setitem(errors.BUDGETS, "enum_cap", 10)
    with pytest.raises(ResourceLimitError) as exc:
        landscape.enumerate_sat(f, r=0)
    assert exc.value.budget_name == "enum_cap"


def test_enumerate_sat_refusals_come_in_order(monkeypatch):
    # enum_cap, then r, then the range of S, then workers
    f = ksat.generate_formula(12, 3, 2, seed=0)
    with pytest.raises(ParameterError, match="out-of-range variable"):
        landscape.enumerate_sat(f, 0, S={0, 12}, workers=0)
    with pytest.raises(ParameterError, match="nonnegative"):
        landscape.enumerate_sat(f, -1, S={12}, workers=0)
    monkeypatch.setitem(errors.BUDGETS, "enum_cap", 10)
    with pytest.raises(ResourceLimitError):
        landscape.enumerate_sat(f, -1, S={12}, workers=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_enumerate_sat_refuses_workers_below_one(workers):
    f = ksat.generate_formula(8, 3, 2, seed=0)
    with pytest.raises(ParameterError, match=f"workers must be at least 1, got {workers}"):
        landscape.enumerate_sat(f, r=0, workers=workers)


@given(st.integers(0, 10**6), st.integers(2, 10), st.integers(0, 15), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_enumerate_matches_naive(seed, n, m, r):
    f = ksat.generate_formula(n, m, 3, seed)
    A = landscape.enumerate_sat(f, r=r)
    assert A.members.tolist() == naive_enumerate(f, r)


@given(st.integers(0, 10**6), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_enumerate_restricted_matches_naive(seed, r):
    f = ksat.generate_formula(7, 10, 3, seed)
    rng = np.random.default_rng(seed)
    S = frozenset(int(v) for v in rng.choice(7, size=4, replace=False))
    A = landscape.enumerate_sat(f, r=r, S=S)
    assert A.members.tolist() == naive_enumerate(f, r, S=S)


@given(st.integers(0, 10**6), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_enumerate_monotone_in_r(seed, r):
    f = ksat.generate_formula(8, 12, 3, seed)
    small = set(landscape.enumerate_sat(f, r=r).members.tolist())
    big = set(landscape.enumerate_sat(f, r=r + 1).members.tolist())
    assert small <= big


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_enumerate_antitone_in_subset(seed):
    # fewer clauses restrict less: S smaller means a larger solution set
    f = ksat.generate_formula(7, 10, 3, seed)
    S_small = frozenset({0, 1, 2})
    S_big = frozenset({0, 1, 2, 3, 4})
    A_small = set(landscape.enumerate_sat(f, r=0, S=S_small).members.tolist())
    A_big = set(landscape.enumerate_sat(f, r=0, S=S_big).members.tolist())
    assert A_big <= A_small


def test_enumerate_eps_reduces_to_plain(demo_formula):
    A = landscape.enumerate_sat_eps(demo_formula, eps=0.0, r=0)
    B = landscape.enumerate_sat(demo_formula, r=0)
    assert A.members.tolist() == B.members.tolist()


def test_enumerate_eps_union(demo_formula):
    A = landscape.enumerate_sat_eps(demo_formula, eps=1 / 3, r=0)
    base = set(landscape.enumerate_sat(demo_formula, r=0).members.tolist())
    assert base <= set(A.members.tolist())
    # every member satisfies all clauses inside some kept 2-variable subset
    for z in A.members.tolist():
        ok = False
        for drop in range(3):
            S = frozenset(range(3)) - {drop}
            if z in naive_enumerate(demo_formula, 0, S=S):
                ok = True
        assert ok


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_eps_union_exact_size_equals_union_over_larger_sets(seed):
    """Unions over kept sets of size >= n - excluded add nothing new."""
    from itertools import combinations

    f = ksat.generate_formula(6, 8, 2, seed)
    excluded = 2
    eps = excluded / f.n
    got = set(landscape.enumerate_sat_eps(f, eps=eps, r=0).members.tolist())
    full = set()
    for keep_size in range(f.n - excluded, f.n + 1):
        for S in combinations(range(f.n), keep_size):
            full |= set(naive_enumerate(f, 0, S=S))
    assert got == full


def test_enumerate_eps_records_its_work():
    f = ksat.generate_formula(6, 20, 3, seed=4)
    A = landscape.enumerate_sat_eps(f, eps=1 / 6, r=1)
    union = set()
    for v in range(6):
        union |= set(naive_enumerate(f, 1, S=frozenset(range(6)) - {v}))
    assert A.members.tolist() == sorted(union)
    assert A.work == {"filter": "clause_masks", "assignments": 1 << 6, "excluded_sets": 6,
                      "table_bytes": (8 + 8) * 8, "members": len(union)}


def test_enumerate_eps_budget(demo_formula, monkeypatch):
    monkeypatch.setitem(errors.BUDGETS, "eps_budget", 1)
    with pytest.raises(ResourceLimitError):
        landscape.enumerate_sat_eps(demo_formula, eps=1 / 3, r=0)


def test_enumerate_eps_budget_prices_every_mask_word(monkeypatch):
    # 132 live clauses fill 3 words: 10 kept sets times 2^10 assignments times 3 word tests
    f = ksat.generate_formula(10, 150, 3, seed=1)
    assert -(-f.clause_arrays[0].size // 64) == 3
    price = 10 * 2**10 * 3
    monkeypatch.setitem(errors.BUDGETS, "eps_budget", price - 1)
    with pytest.raises(ResourceLimitError) as exc:
        landscape.enumerate_sat_eps(f, 0.1, 0)
    assert (exc.value.requested, exc.value.allowed) == (price, price - 1)
    assert "mask-word tests" in str(exc.value)
    monkeypatch.setitem(errors.BUDGETS, "eps_budget", price)
    landscape.enumerate_sat_eps(f, 0.1, 0)
    # no live clause still costs one word test per set and assignment
    monkeypatch.setitem(errors.BUDGETS, "eps_budget", 10 * 2**10)
    landscape.enumerate_sat_eps(ksat.Formula(n=10, K=3, clauses=()), 0.1, 0)


def _eps_oracle(f: ksat.Formula, eps: float, r: int) -> tuple[list[int], dict]:
    """The union of counts <= r over every excluded set, and the work enumerate_sat_eps reports."""
    excluded = math.ceil(eps * f.n)
    union = np.zeros(1 << f.n, dtype=bool)
    for excl in combinations(range(f.n), excluded):
        union |= literal_violation_counts(f, frozenset(range(f.n)) - set(excl)) <= r
    members = np.flatnonzero(union).tolist()
    live = sum(not c.is_tautology for c in f.clauses)
    tabled = min(-(-live // 64), landscape._TABLE_BUDGET // _per_word(f.n)) if r < live else 0
    work = {"filter": "clause_masks" if r < live else "whole_cube", "assignments": 1 << f.n,
            "excluded_sets": math.comb(f.n, excluded),
            "table_bytes": tabled * _per_word(f.n), "members": len(members)}
    return members, work


@pytest.mark.parametrize("n, m, eps, r", [
    (10, 70, 0.2, 1),  # 73 clauses: the split tables span two words
    (9, 40, 0.25, 2),
    (8, 30, 0.0, 1),  # one set, the whole formula
    (6, 3, 0.2, 6),  # r >= m: the whole cube
    (12, 24, 0.25, 0),  # 220 sets
])
def test_enumerate_eps_matches_the_union_oracle(n, m, eps, r):
    # _kernel_formula adds a tautology and clauses that repeat a variable
    f = _kernel_formula(n, m, seed=n * 10 + r)
    A = landscape.enumerate_sat_eps(f, eps, r)
    members, work = _eps_oracle(f, eps, r)
    assert A.members.tolist() == members
    assert A.work == work


@pytest.mark.parametrize("n, m, eps, r, words, tabled", [
    (11, 160, 0.1, 2, 3, 3),  # 142 live clauses: three words, all tabled
    (11, 160, 0.1, 2, 3, 1),  # ... one tabled, two by compares
    (9, 100, 0.25, 1, 2, 0),  # 84 live clauses: two words, both by compares
    (17, 150, 0.05, 3, 3, 3),  # odd n, 131 live clauses: blocks of 113 high halves, 3 blocks
    (17, 150, 0.05, 3, 3, 1),  # ... blocks of one high half
])
def test_one_pass_eps_kernel_matches_the_union_oracle(monkeypatch, n, m, eps, r, words, tabled):
    f = _kernel_formula(n, m, seed=n + m + r)
    assert -(-f.clause_arrays[0].size // 64) == words
    if tabled < words:
        monkeypatch.setattr(landscape, "_TABLE_BUDGET", (tabled + 1) * _per_word(n) - 1)
    A = landscape.enumerate_sat_eps(f, eps, r)
    members, work = _eps_oracle(f, eps, r)
    assert A.members.tolist() == members
    assert A.work == work
    assert work["table_bytes"] == tabled * _per_word(n)


@pytest.mark.parametrize("n, m, r", [(9, 100, 0), (9, 100, 2), (12, 40, 1), (13, 20, 0)])
def test_enumerate_eps_at_zero_is_plain_enumeration(n, m, r):
    f = _kernel_formula(n, m, seed=n * m + r)
    A = landscape.enumerate_sat_eps(f, 0.0, r)
    assert A.members.tolist() == landscape.enumerate_sat(f, r).members.tolist() == _oracle_members(f, r)
    assert A.work["excluded_sets"] == 1


def test_enumerate_eps_without_live_clauses_keeps_the_cube():
    L, C = ksat.Literal, ksat.Clause
    empty = ksat.Formula(n=5, K=3, clauses=())
    tautologies = ksat.Formula(n=5, K=2, clauses=(C((L(1, False), L(1, True))),) * 3)
    three = _kernel_formula(5, 0, seed=1)  # a tautology and two live clauses
    for f, r in [(empty, 0), (tautologies, 0), (three, 2), (three, 7)]:
        for eps in (0.0, 0.4):
            A = landscape.enumerate_sat_eps(f, eps, r)
            assert A.members.tolist() == list(range(32))
            assert (A.members.tolist(), A.work) == _eps_oracle(f, eps, r)
            assert A.work["table_bytes"] == 0


def test_enumerate_eps_blocks_stay_within_the_table_budget(monkeypatch):
    # 46 clause words at n = 16: one block over the whole cube would hold
    # about 50 MiB of violated-clause words and temporaries
    monkeypatch.setattr(landscape, "_TABLE_BUDGET", 1 << 20)
    f = ksat.generate_formula(16, 7000, 8, seed=2)
    landscape.enumerate_sat_eps(f, 0.1, 0)  # warm up numpy's allocations
    tracemalloc.start()
    try:
        A = landscape.enumerate_sat_eps(f, 0.1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert -(-f.clause_arrays[0].size // 64) == 46
    assert 0 < len(A) < 1 << 15
    assert peak <= landscape._TABLE_BUDGET + A.work["table_bytes"] + 4 * A.members.nbytes


def test_enumerate_eps_one_pass_memory_is_bounded_by_the_union():
    # 2002 kept sets in one pass over a cube whose every assignment is kept:
    # the block's assignments, violated-clause words, row indices and kept
    # flags sit beside the union, so the peak is a few copies of the union
    # plus one restricted scan (measured at 4.7 union copies beyond the scan)
    f = ksat.generate_formula(14, 30, 3, seed=7)
    landscape.enumerate_sat_eps(f, 0.3, 0)  # warm up numpy's allocations
    tracemalloc.start()
    try:
        landscape.enumerate_sat(f, 0, S=range(13))
        scan = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        A = landscape.enumerate_sat_eps(f, 0.3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * A.members.nbytes + scan


# Process-pool enumeration.  At n=18 the cube is 4 blocks, so any worker
# count splits it on block boundaries; at n=21, 3 workers ask for 24 tasks
# over 32 blocks, so the task bounds fall inside blocks.
_POOL_FORMULAS = {
    18: ksat.generate_formula(18, 50, 3, seed=11),
    21: ksat.generate_formula(21, 40, 3, seed=12),
}


def _pool_restriction(n: int, restricted: bool):
    return frozenset(range(n)) - {2, 9, 15} if restricted else None


@functools.lru_cache(maxsize=None)
def _pool_oracle_counts(n: int, restricted: bool) -> np.ndarray:
    counts = literal_violation_counts(_POOL_FORMULAS[n], _pool_restriction(n, restricted))
    return counts.astype(np.uint8)  # at most 50 clauses; 2 MiB per cached cube at n=21


@pytest.mark.parametrize("n, workers", [(18, 2), (18, 3), (21, 3)])
@pytest.mark.parametrize("r", [0, 2])
@pytest.mark.parametrize("restricted", [False, True])
def test_enumerate_pool_matches_serial_and_oracle(n, workers, r, restricted):
    f, S = _POOL_FORMULAS[n], _pool_restriction(n, restricted)
    serial = landscape.enumerate_sat(f, r, S=S, workers=1).members
    pooled = landscape.enumerate_sat(f, r, S=S, workers=workers).members
    assert serial.dtype == pooled.dtype == np.uint64
    assert pooled.tolist() == serial.tolist()
    oracle = np.flatnonzero(_pool_oracle_counts(n, restricted) <= r)
    assert 0 < oracle.size < 1 << n
    assert serial.tolist() == oracle.tolist()


def test_scan_range_keeps_clause_bits_above_32():
    # (x0 | ~x40) is violated only where x40 = 1, so never inside [0, 2^16);
    # a 32-bit word would drop bit 40 and reject every even assignment
    L = ksat.Literal
    f = ksat.Formula(n=41, K=2, clauses=(ksat.Clause((L(0, False), L(40, True))),))
    masks, values, _ = f.clause_arrays
    got = landscape._scan_range((0, landscape.BLOCK_SIZE, masks, values, 0, f.n, 0))
    assert got.dtype == np.uint64
    assert got.tolist() == list(range(landscape.BLOCK_SIZE))


@pytest.mark.parametrize("live", [1, 5, 6, 7, 13])
def test_grouped_r0_filter_matches_the_oracle_at_each_live_clause_count(live):
    # below, at, one past and two groups plus one past _CLAUSE_GROUP = 6 live
    # clauses, a tautology among them; n = 17 holds two blocks
    L, C = ksat.Literal, ksat.Clause
    drawn = tuple(c for c in ksat.generate_formula(17, 30, 3, seed=live).clauses if c.mask_value is not None)[:live]
    tautology = C((L(3, False), L(9, False), L(3, True)))
    f = ksat.Formula(n=17, K=3, clauses=drawn[: live // 2] + (tautology,) + drawn[live // 2 :])
    assert landscape._CLAUSE_GROUP == 6 and f.clause_arrays[0].size == live
    oracle = _oracle_members(f, 0)
    assert 0 < len(oracle) < 1 << 17
    A = landscape.enumerate_sat(f, 0)
    assert (A.members.tolist(), A.work["filter"]) == (oracle, "early_exit")


@pytest.mark.parametrize("patterns", [8, 4])
def test_grouped_r0_filter_empties_a_block_inside_a_group(patterns):
    # 3 drawn clauses, then every sign pattern on x0..x2 (no assignment
    # survives) or on x0, x1 joined with ~x16 (the block x16 = 1 dies), then 4
    # drawn clauses: the last pattern is clause 10 or 6, inside the group 6-11
    L, C = ksat.Literal, ksat.Clause
    width = patterns.bit_length() - 1
    tail = () if patterns == 8 else (L(16, True),)
    signs = [C(tuple(L(v, bool(p >> v & 1)) for v in range(width)) + tail) for p in range(patterns)]
    drawn = ksat.generate_formula(17, 7, 3, seed=3).clauses
    f = ksat.Formula(n=17, K=3, clauses=drawn[:3] + tuple(signs) + drawn[3:])
    oracle = _oracle_members(f, 0)
    assert (oracle == []) if patterns == 8 else (0 < len(oracle) and oracle[-1] < 1 << 16)
    assert landscape.enumerate_sat(f, 0).members.tolist() == oracle


def test_grouped_r0_filter_on_uint64_words_above_2_to_32():
    # one block at n = 40 above 2^32: candidates and masks are uint64 words,
    # and 20 clauses are three whole groups and two clauses
    f = ksat.generate_formula(40, 20, 3, seed=8)
    masks, values, _ = f.clause_arrays
    start = (0x5A << 32) + (0x3C << 16)
    x = np.arange(start, start + landscape.BLOCK_SIZE)
    oracle = x[literal_violation_counts(f, z=x) == 0]
    assert 0 < oracle.size < x.size and masks.size == 20
    got = landscape._scan_range((start, start + landscape.BLOCK_SIZE, masks, values, 0, f.n, 0))
    assert got.dtype == np.uint64
    assert got.tolist() == oracle.tolist()


def _batch_formula(n: int, live: int) -> ksat.Formula:
    """`live` drawn 3-clauses with a tautology among them and, from 8 drawn on,
    every sign pattern on x0, x1 joined with ~x(n-1) as live clauses 8-11: no
    assignment with x(n-1) = 1 survives the second group, so every slice of
    that half of a batch empties inside it."""
    L, C = ksat.Literal, ksat.Clause
    drawn = tuple(c for c in ksat.generate_formula(n, 2 * live, 3, seed=n).clauses if c.mask_value is not None)[:live]
    tautology = C((L(3, False), L(9, False), L(3, True)))
    signs = tuple(C((L(0, bool(p & 1)), L(1, bool(p & 2)), L(n - 1, True))) for p in range(4)) if live >= 8 else ()
    return ksat.Formula(n=n, K=3, clauses=drawn[:2] + (tautology,) + drawn[2:8] + signs + drawn[8:])


@functools.lru_cache(maxsize=None)
def _batch_oracle(n: int, live: int, restricted: bool) -> tuple[int, ...]:
    S = frozenset(range(n)) - {n // 3} if restricted else None
    return tuple(_oracle_members(_batch_formula(n, live), 0, S))


@pytest.mark.parametrize("n, live, workers, restricted, blocks", [
    (18, 40, 1, False, None), (19, 40, 1, True, None), (20, 40, 1, False, None),  # one batch of 4-16 blocks
    (20, 40, 1, True, 3), (19, 40, 1, False, 3),  # batches of 3 blocks and a shorter last one
    (20, 40, 3, False, None), (19, 40, 3, True, 3),  # pooled tasks of one block
    (19, 4, 1, False, None), (20, 4, 3, True, 3),  # fewer live clauses than one group
])
def test_r0_batches_join_survivors_across_blocks(monkeypatch, n, live, workers, restricted, blocks):
    # the groups after the first run on survivors joined across the blocks of
    # a batch, in BLOCK_SIZE slices; members stay ascending and equal the
    # oracle's whatever the batch, the pool and the restriction
    if blocks is not None:
        monkeypatch.setattr(landscape, "_BATCH_ROWS", blocks * landscape.BLOCK_SIZE)
    f = _batch_formula(n, live)
    S = frozenset(range(n)) - {n // 3} if restricted else None
    oracle = list(_batch_oracle(n, live, restricted))
    assert 0 < len(oracle) < 1 << n
    if live >= 8:
        assert oracle[-1] < 1 << (n - 1) and f.clause_arrays[0].size == live + 4
    A = landscape.enumerate_sat(f, 0, S=S, workers=workers)
    assert (A.members.tolist(), A.work["filter"]) == (oracle, "early_exit")


def test_r0_filter_memory_is_one_batch_whatever_m_is():
    # 2,000 weak clauses (K = 10) are 334 groups, and about 15% of the cube
    # survives them all: a pipeline holding a BLOCK_SIZE buffer per group
    # would hold hundreds of blocks.  Beyond the result and its uint32 parts,
    # the filter holds one _BATCH_ROWS batch of 16 blocks and slice temporaries.
    n = 20
    f = ksat.generate_formula(n, 2000, 10, seed=1)
    masks, values, _ = f.clause_arrays
    assert landscape._BATCH_ROWS == 16 * landscape.BLOCK_SIZE
    tracemalloc.start()
    try:
        got = landscape._scan_range((0, 1 << n, masks, values, 0, n, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.1 < got.size / (1 << n) < 0.2
    beyond = (peak - got.nbytes * 3 // 2) / (4 * landscape.BLOCK_SIZE)
    assert beyond < 24, f"{beyond:.1f} blocks of uint32 rows beyond the result"


def test_violation_counter_holds_r_plus_one():
    # 510 unit clauses: counts spread around 255, so at r = 255 a row reaches
    # 256 before it is dropped, one past what a uint8 counter holds
    f = ksat.generate_formula(10, 510, 1, seed=1)
    counts = literal_violation_counts(f)
    assert counts.min() <= 255 < counts.max()
    got = landscape.enumerate_sat(f, 255).members
    assert got.tolist() == np.flatnonzero(counts <= 255).tolist()


def test_pool_runs_under_the_spawn_start_method():
    # the pool takes the default start method; under spawn no task may need fork
    code = """
import multiprocessing, os
from nltslab import ksat, landscape

def no_fork():
    raise RuntimeError("os.fork called")

multiprocessing.set_start_method("spawn")
os.fork = no_fork
f = ksat.generate_formula(18, 50, 3, seed=11)
pooled = landscape.enumerate_sat(f, 1, workers=2).members
assert pooled.tolist() == landscape.enumerate_sat(f, 1).members.tolist()
"""
    env = {**os.environ, "PYTHONPATH": str(Path(landscape.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("workers", [2, 3])
def test_enumerate_pool_without_clauses(workers):
    f = ksat.Formula(n=18, K=3, clauses=())
    pooled = landscape.enumerate_sat(f, 0, workers=workers).members
    assert pooled.dtype == np.uint64
    assert pooled.tolist() == list(range(1 << 18))


@pytest.mark.parametrize("n, m, eps, r, workers, tasks", [
    (17, 150, 0.05, 3, 2, 2),  # 131 live clauses: three mask words, each task a block
    (18, 70, 0.05, 1, 2, 4),  # 64 live clauses fill one word; 4 blocks
    (19, 90, 0.05, 0, 3, 8),  # 83 live clauses at r = 0; 8 blocks, 3 workers ask for 24 tasks
    (17, 3, 0.05, 6, 2, 2),  # r >= the 4 live clauses: the whole cube, with no scan and no pool
])
def test_pooled_eps_pass_matches_the_union_oracle(monkeypatch, pools, n, m, eps, r, workers, tasks):
    monkeypatch.setattr(landscape, "usable_cpus", lambda: 64)  # workers and tasks size the pool
    f = _kernel_formula(n, m, seed=n + m + r)
    A = landscape.enumerate_sat_eps(f, eps, r, workers=workers)
    assert pools == ([] if r >= f.clause_arrays[0].size else [min(workers, tasks)])
    assert (A.members.tolist(), A.work) == _eps_oracle(f, eps, r)


@pytest.mark.parametrize("cpu_max, cpus", [("150000 100000\n", 1), ("400000 100000\n", 4), ("50000 100000\n", 1),
                                           ("1600000 100000\n", 8), ("max 100000\n", 8)])
def test_usable_cpus_is_capped_by_a_cgroup_quota(monkeypatch, cpu_max, cpus):
    # eight CPUs in the affinity mask; the quota's whole CPUs cap them, and at least one is usable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(landscape.Path, "read_text", lambda self, *args, **kwargs: cpu_max)
    assert landscape.usable_cpus() == cpus


def test_pooled_eps_pass_starts_no_more_processes_than_usable_cpus(monkeypatch, pools):
    # 3 workers split n = 19 into 8 tasks whatever the CPUs; on 2 CPUs 2 processes run them
    monkeypatch.setattr(landscape, "usable_cpus", lambda: 2)
    f = _kernel_formula(19, 90, seed=19 + 90)
    A = landscape.enumerate_sat_eps(f, 0.05, 0, workers=3)
    assert pools == [2]
    assert (A.members.tolist(), A.work) == _eps_oracle(f, 0.05, 0)


def test_whole_cube_starts_no_pool(pools):
    # r reaches the 4 live clauses: every assignment is a member, so neither
    # enumeration scans or starts a pool, whatever the workers
    f = _kernel_formula(17, 3, seed=1)
    assert f.clause_arrays[0].size == 4
    for A in (landscape.enumerate_sat(f, 4, workers=4), landscape.enumerate_sat_eps(f, 0.05, 9, workers=4)):
        assert A.members.dtype == np.uint64
        assert np.array_equal(A.members, np.arange(2**17))
        assert (A.work["filter"], A.work["table_bytes"], A.work["members"]) == ("whole_cube", 0, 2**17)
    assert pools == []
    with pytest.raises(ParameterError, match="workers must be at least 1, got 0"):
        landscape.enumerate_sat(f, 4, workers=0)
    with pytest.raises(ParameterError, match="workers must be at least 1, got 0"):
        landscape.enumerate_sat_eps(f, 0.05, 4, workers=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_enumerate_sat_eps_refuses_workers_below_one(workers):
    f = ksat.generate_formula(8, 3, 2, seed=0)
    with pytest.raises(ParameterError, match=f"workers must be at least 1, got {workers}"):
        landscape.enumerate_sat_eps(f, 0.2, 0, workers=workers)


# ---------------------------------------------------------------------------
# the split-table kernel of r > 0 enumeration against literal-by-literal oracles
# ---------------------------------------------------------------------------

def _kernel_formula(n: int, m: int, seed: int) -> ksat.Formula:
    """m random 3-clauses plus a tautology and clauses that repeat a variable."""
    L, C = ksat.Literal, ksat.Clause
    extra = (
        C((L(0, False), L(n - 1, True), L(0, True))),  # tautology
        C((L(n - 1, True), L(n - 1, True), L(0, False))),
        C((L(n // 2, False),) * 3),
    )
    f = ksat.generate_formula(n, m, 3, seed)
    return ksat.Formula(n=n, K=3, clauses=f.clauses[: m // 2] + extra + f.clauses[m // 2 :])


def _oracle_members(f: ksat.Formula, r: int, S=None) -> list[int]:
    return np.flatnonzero(literal_violation_counts(f, S) <= r).tolist()


def _per_word(n: int) -> int:
    return ((1 << (n + 1) // 2) + (1 << n // 2)) * 8


@pytest.mark.parametrize("w, k", [(3, 0), (0, 0), (1, 1), (2, 4), (0, 5), (3, 7)])
def test_subset_xors_tables_every_word_row_at_once(w, k):
    masks = np.random.default_rng(10 * k + w).integers(0, 2**64, size=(w, k), dtype=np.uint64, endpoint=False)
    got = landscape._subset_xors(masks)
    assert got.shape == (w, 1 << k) and got.dtype == np.uint64
    for j in range(w):  # entry b of row j: the XOR of row j's masks picked by b's bits
        want = [functools.reduce(lambda x, y: x ^ y, (int(masks[j, i]) for i in range(k) if b >> i & 1), 0)
                for b in range(1 << k)]
        assert got[j].tolist() == want
        assert np.array_equal(landscape._subset_xors(masks[j].tolist()), got[j])  # each row alone


@pytest.mark.parametrize("n, m", [(1, 5), (4, 40), (7, 61), (6, 100), (9, 125), (8, 190), (10, 300)])
def test_clause_tables_give_each_violated_clause(n, m):
    # words 1, 2, 3 and 5; the low half takes the extra variable at odd n
    f = _kernel_formula(n, m, seed=n * 1000 + m)
    masks, values, idx = f.clause_arrays
    lo, hi = landscape._clause_tables(n, masks, values, -(-masks.size // 64))
    L = (n + 1) // 2
    assert lo.shape == (-(-masks.size // 64), 1 << L) and hi.shape == (lo.shape[0], 1 << (n - L))
    x = np.arange(1 << n)
    V = lo[:, x & ((1 << L) - 1)] & hi[:, x >> L]  # (words, 2^n)
    for c, j in enumerate(idx):
        violated = np.ones(x.size, dtype=bool)
        for lit in f.clauses[j].literals:
            violated &= (((x >> lit.var) & 1) == 1) == lit.negated
        assert (((V[c // 64] >> np.uint64(c % 64)) & np.uint64(1)) == 1).tolist() == violated.tolist()
    padding = np.uint64(~0 << (masks.size % 64) & (2**64 - 1)) if masks.size % 64 else np.uint64(0)
    assert not (V[-1] & padding).any()


@pytest.mark.parametrize("n, m, r", [
    (1, 4, 1), (2, 9, 1), (5, 30, 2),  # one word
    (8, 70, 1), (9, 120, 4),  # two words
    (10, 150, 3), (11, 200, 9),  # three and four words
])
@pytest.mark.parametrize("restricted", [False, True])
def test_split_table_enumeration_matches_literal_oracle(n, m, r, restricted):
    f = _kernel_formula(n, m, seed=n * 100 + r)
    S = frozenset(range(n)) - {n // 3} if restricted else None
    A = landscape.enumerate_sat(f, r, S=S)
    assert A.members.tolist() == _oracle_members(f, r, S)
    live = sum(not c.is_tautology and (S is None or c.variable_set <= S) for c in f.clauses)
    assert A.work["filter"] == ("split_tables" if r < live else "whole_cube")


def test_split_tables_at_r_m_minus_one_and_beyond():
    # 70 copies of (x0 | x1) span two words: only x0 = x1 = 0 violates all 70
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=5, K=2, clauses=(C((L(0, False), L(1, False))),) * 70)
    every = list(range(32))
    for r, expected in [(1, [z for z in every if z & 3]), (69, [z for z in every if z & 3]),
                        (70, every), (75, every)]:
        A = landscape.enumerate_sat(f, r)
        assert A.members.tolist() == expected == _oracle_members(f, r)
        assert A.work["filter"] == ("split_tables" if r < 70 else "whole_cube")


@pytest.mark.parametrize("budget_words, filt", [(0, "clause_counts"), (1, "split_tables"), (2, "split_tables")])
def test_clauses_past_the_table_budget_are_counted(monkeypatch, budget_words, filt):
    # 510 unit clauses (8 words) at r = 255: the tail counter must hold 256
    # as well, and the tables must stay within the budget
    f = ksat.generate_formula(10, 510, 1, seed=1)
    monkeypatch.setattr(landscape, "_TABLE_BUDGET", (budget_words + 1) * _per_word(10) - 1)
    for r in (1, 255):
        A = landscape.enumerate_sat(f, r)
        assert A.members.tolist() == _oracle_members(f, r)
        assert A.work["filter"] == filt
        assert A.work["table_bytes"] == budget_words * _per_word(10) <= landscape._TABLE_BUDGET
    g = _kernel_formula(9, 200, seed=3)
    assert landscape.enumerate_sat(g, 3).members.tolist() == _oracle_members(g, 3)


@pytest.mark.parametrize("halves", [1, 2])
@pytest.mark.parametrize("words", [1, 2])
def test_split_tables_serve_whole_high_halves_past_n_32(halves, words):
    # n = 34: a high half is 2^17 rows, twice BLOCK_SIZE, and the budget
    # tables both words of the 70 clauses; with one word tabled, the last 6
    # clauses are counted one by one
    f = ksat.generate_formula(34, 70, 4, seed=2)
    masks, values, _ = f.clause_arrays
    L = 17
    assert landscape._table_size(34, masks.size)[0] == 2 == -(-masks.size // 64)
    start = 0x2D3 << L
    x = np.arange(start, start + (halves << L))
    oracle = x[literal_violation_counts(f, z=x) <= 2]
    assert 0 < oracle.size < x.size
    got = landscape._scan_range((start, start + (halves << L), masks, values, 2, f.n, words))
    assert got.dtype == np.uint64
    assert got.tolist() == oracle.tolist()


_SPLIT_POOL = ksat.generate_formula(17, 150, 3, seed=21)


@functools.lru_cache(maxsize=None)
def _split_pool_counts(restricted: bool) -> np.ndarray:
    S = frozenset(range(17)) - {4, 11} if restricted else None
    return literal_violation_counts(_SPLIT_POOL, S).astype(np.uint8)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("restricted", [False, True])
def test_split_table_pool_matches_oracle(monkeypatch, workers, restricted):
    # n = 17 is odd, 150 clauses take three words; with a one-word budget the
    # other two go through the counter loop inside every worker
    S = frozenset(range(17)) - {4, 11} if restricted else None
    oracle = np.flatnonzero(_split_pool_counts(restricted) <= 8).tolist()
    assert 0 < len(oracle) < 1 << 17
    assert landscape.enumerate_sat(_SPLIT_POOL, 8, S=S, workers=workers).members.tolist() == oracle
    monkeypatch.setattr(landscape, "_TABLE_BUDGET", _per_word(17))
    A = landscape.enumerate_sat(_SPLIT_POOL, 8, S=S, workers=workers)
    assert A.members.tolist() == oracle
    assert A.work["table_bytes"] == _per_word(17)


def test_pool_is_sized_by_its_tasks(monkeypatch):
    started = []

    class Executor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    # processes = min(workers, usable CPUs, tasks): n = 17 holds two blocks, so
    # two tasks; n = 18 four.  64 CPUs leave workers and tasks to decide; at 2,
    # 3 workers start 2 processes, over the same 4 tasks.
    for cpus, n, workers, r in [(64, 17, 512, 0), (64, 17, 512, 2), (64, 18, 3, 2), (2, 18, 3, 2), (2, 18, 3, 0)]:
        monkeypatch.setattr(landscape, "usable_cpus", lambda: cpus)
        f = ksat.generate_formula(n, 60, 3, seed=5)
        got = landscape.enumerate_sat(f, r, workers=workers).members
        assert got.tolist() == _oracle_members(f, r)
    assert started == [2, 2, 3, 2, 2]


def test_blocks_round_rows_up_to_whole_high_halves():
    assert list(landscape._blocks(0, 1 << 18, 18)) == [(a, a + (1 << 16)) for a in range(0, 1 << 18, 1 << 16)]
    assert list(landscape._blocks(3 << 17, 6 << 17, 34)) == [(a << 17, a + 1 << 17) for a in (3, 4, 5)]  # one half
    assert list(landscape._blocks(0, 200, 10, 33)) == [(0, 64), (64, 128), (128, 192), (192, 200)]
    assert list(landscape._blocks(0, 64, 10, 0)) == [(0, 32), (32, 64)]  # never below one high half
    assert list(landscape._blocks(5, 5, 10)) == []


@pytest.mark.parametrize("n, workers, tasks", [(26, 4, 32), (22, 5, 40), (20, 5, 16), (17, 3, 2), (34, 2, 16), (35, 64, 512)])
def test_pool_tasks_tile_the_cube_in_whole_high_halves(monkeypatch, n, workers, tasks):
    # at most 8 tasks per worker, on whole high halves, each but the last of
    # at least BLOCK_SIZE rows; at n = 26 and 4 workers, 32 tasks of 2^21
    class Executor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    got = landscape._cube_scan(lambda task: np.array([task], dtype=np.uint64), (), n, workers).tolist()
    assert len(got) == tasks <= 8 * workers
    assert [a for a, _ in got] == [0] + [b for _, b in got[:-1]] and got[-1][1] == 1 << n
    assert all(a % (1 << (n + 1) // 2) == 0 for a, _ in got)
    assert min(b - a for a, b in got[:-1] or got) >= landscape.BLOCK_SIZE


def test_pool_tasks_carry_the_clause_lists_not_the_tables(monkeypatch):
    # n = 30 with 11 tabled words (5.5 MiB of tables): every task pickles to
    # about the clause arrays, and the parent still reports the table bytes
    pickled = []

    class Executor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            pickled.extend(len(pickle.dumps(t)) for t in tasks)
            return [np.empty(0, dtype=np.uint64) for _ in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    f = ksat.generate_formula(30, 1024, 8, seed=1)
    masks, values, _ = f.clause_arrays
    A = landscape.enumerate_sat(f, 1, workers=4)
    assert A.work["table_bytes"] == 11 * _per_word(30)
    assert len(pickled) == 32
    assert max(pickled) < masks.nbytes + values.nbytes + 1024


# ---------------------------------------------------------------------------
# overlap histogram
# ---------------------------------------------------------------------------

def test_histogram_two_points():
    h = landscape.overlap_histogram(_set(3, [0b000, 0b111]))
    assert h.counts.tolist() == [0, 0, 0, 1]


def test_histogram_full_cube():
    n = 4
    A = _set(n, range(1 << n))
    h = landscape.overlap_histogram(A)
    for d in range(1, n + 1):
        assert h.counts[d] == 2 ** (n - 1) * math.comb(n, d)
    assert h.counts[0] == 0


def test_histogram_degenerate():
    assert landscape.overlap_histogram(_set(3, [])).counts.sum() == 0
    assert landscape.overlap_histogram(_set(3, [5])).counts.sum() == 0


@given(st.integers(0, 10**6), st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_histogram_mass_and_bruteforce(seed, size):
    rng = np.random.default_rng(seed)
    members = np.unique(rng.integers(0, 1 << 10, size=size, dtype=np.uint64))
    A = landscape.SolutionSet(n=10, members=members, r=0)
    h = landscape.overlap_histogram(A)
    assert h.total_pairs == math.comb(len(A), 2)
    brute = np.zeros(11, dtype=np.int64)
    lst = members.tolist()
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            brute[bin(lst[i] ^ lst[j]).count("1")] += 1
    assert h.counts.tolist() == brute.tolist()


def test_histogram_cap(monkeypatch):
    A = _set(10, range(100))
    monkeypatch.setitem(errors.BUDGETS, "pair_cap", 10)
    with pytest.raises(ResourceLimitError):
        landscape.overlap_histogram(A)


# ---------------------------------------------------------------------------
# OGP detection and clustering
# ---------------------------------------------------------------------------

def test_ogp_gapped_case():
    # distances present: 1, 3, 4; nothing strictly inside (1, 3)
    A = _set(4, [0b0000, 0b1000, 0b0111, 0b1111])
    holds, witness = landscape.detect_ogp(A, 0.25, 0.75)
    assert holds and witness is None


def test_ogp_violated_case():
    A = _set(4, [0b0000, 0b1100])
    holds, witness = landscape.detect_ogp(A, 0.25, 0.75)
    assert not holds
    assert set(witness) == {0, 0b1100}
    d = bin(witness[0] ^ witness[1]).count("1")
    assert d == 2


def test_ogp_trivial_sets():
    assert landscape.detect_ogp(_set(4, []), 0.2, 0.4)[0]
    assert landscape.detect_ogp(_set(4, [3]), 0.2, 0.4)[0]


def test_ogp_interval_validation():
    with pytest.raises(ParameterError):
        landscape.detect_ogp(_set(4, [0, 1]), 0.4, 0.2)
    with pytest.raises(ParameterError):
        landscape.detect_ogp(_set(4, [0, 1]), 0.1, 1.2)
    with pytest.raises(ParameterError):
        landscape.detect_ogp(_set(4, [0, 1]), 0.0, 0.4)


def test_cluster_constructed_case():
    A = _set(4, [0b0000, 0b1000, 0b0111, 0b1111])
    P = landscape.cluster(A, 0.25, 0.75)
    groups = {frozenset(c.tolist()) for c in P.clusters}
    assert groups == {frozenset({0b0000, 0b1000}), frozenset({0b0111, 0b1111})}
    assert P.max_intra == 1
    assert P.min_inter == 3


def test_cluster_singleton():
    P = landscape.cluster(_set(4, [7]), 0.1, 0.3)
    assert P.num_clusters == 1
    assert P.clusters[0].tolist() == [7]


@pytest.mark.parametrize("packed", [[], [7], [0b0000, 0b1111]])
def test_cluster_certificates_without_intra_pairs(packed):
    P = landscape.cluster(_set(4, packed), 0.1, 0.3)
    assert [c.tolist() for c in P.clusters] == [[z] for z in packed]
    assert P.max_intra == -1
    assert P.min_inter == (4 if len(packed) == 2 else -1)


def test_cluster_precondition_failures():
    A = _set(8, [0, 0b11])
    with pytest.raises(ContractError) as exc:
        landscape.cluster(A, 0.125, 0.375)
    assert exc.value.witness is not None
    with pytest.raises(ParameterError):
        landscape.cluster(A, 0.2, 0.3)  # nu1 >= nu2/2


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cluster_matches_transitive_closure(seed):
    rng = np.random.default_rng(seed)
    # two separated balls in {0,1}^12 to make the OGP likely
    centers = [0, 0xFFF]
    members = set()
    for c in centers:
        for _ in range(8):
            flips = rng.choice(12, size=rng.integers(0, 2), replace=False)
            members.add(c ^ sum(1 << int(b) for b in flips))
    A = _set(12, members)
    nu1, nu2 = 2.4 / 12, 5.9 / 12
    holds, _ = landscape.detect_ogp(A, nu1, nu2)
    if not holds:
        return
    P = landscape.cluster(A, nu1, nu2)
    got = {frozenset(c.tolist()) for c in P.clusters}
    expected = set(transitive_closure_clusters(A.members, 12, math.floor(nu1 * 12)))
    assert got == expected


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_close_relation_transitive_under_ogp(seed):
    rng = np.random.default_rng(seed)
    members = np.unique(rng.integers(0, 1 << 10, size=12, dtype=np.uint64))
    A = landscape.SolutionSet(n=10, members=members, r=0)
    nu1, nu2 = 0.15, 0.45
    holds, _ = landscape.detect_ogp(A, nu1, nu2)
    if not holds:
        return
    t1 = math.floor(nu1 * 10)
    lst = members.tolist()
    close = {
        (a, b)
        for a in lst
        for b in lst
        if bin(a ^ b).count("1") <= t1
    }
    for a, b in close:
        for c in lst:
            if (b, c) in close:
                assert (a, c) in close


def test_cluster_invariant_under_member_permutation():
    members = [0b0000, 0b1000, 0b0111, 0b1111]
    P1 = landscape.cluster(_set(4, members), 0.25, 0.75)
    P2 = landscape.cluster(_set(4, reversed(members)), 0.25, 0.75)
    assert {frozenset(c.tolist()) for c in P1.clusters} == {
        frozenset(c.tolist()) for c in P2.clusters
    }


def test_cluster_stats_single_cluster(demo_formula):
    # the 4 exactly-satisfying assignments are mutually within distance 2,
    # hence a single cluster when the close threshold spans them all
    A = landscape.enumerate_sat(demo_formula, r=0)
    P = landscape.ClusterPartition(
        n=3, clusters=(A.members,), nu1=0.9, nu2=0.95, max_intra=3, min_inter=-1
    )
    stats = landscape.cluster_stats(P)
    assert stats["num_clusters"] == 1
    assert stats["max_cluster_size"] == 4
    assert stats["max_cluster_fraction"] == 1.0


def test_cluster_stats_fractions():
    A = _set(4, [0b0000, 0b1000, 0b0111, 0b1111])
    P = landscape.cluster(A, 0.25, 0.75)
    stats = landscape.cluster_stats(P)
    assert stats["num_clusters"] == 2
    assert stats["max_cluster_fraction"] == 0.5


# ---------------------------------------------------------------------------
# the tiled pair kernel against whole-matrix oracles
# ---------------------------------------------------------------------------

_CLOSE, _FAR = 2, 9  # floor(nu1 n) and ceil(nu2 n) at _gap_nus(n)


def _gap_nus(n: int) -> tuple[float, float]:
    return (_CLOSE + 0.5) / n, (_FAR - 0.5) / n


def _far_from(z: int, members: list[int], t: int) -> bool:
    m = np.asarray(members, dtype=np.uint64)
    return not m.size or int(np.bitwise_count(m ^ np.uint64(z)).min()) >= t


#: Rejected random draws in a row after which _balls and _gap_pair give up.
_MAX_REJECTS = 10_000


def _balls(rng, n: int, size: int) -> list[int]:
    """At least `size` members in balls of radius 1 around centres _FAR + 2 apart.

    Members of one ball lie within _CLOSE of each other and members of
    different balls at least _FAR apart, so the OGP holds at _gap_nus(n).
    Raises RuntimeError after _MAX_REJECTS centres in a row that lie too close.
    """
    centres: list[int] = []
    members: list[int] = []
    rejects = 0
    while len(members) < size:
        c = int(rng.integers(0, 1 << n, dtype=np.uint64))
        if _far_from(c, centres, _FAR + 2):
            rejects = 0
            centres.append(c)
            flips = rng.choice(n, size=int(rng.integers(0, 24)), replace=False)
            members += [c] + [c ^ (1 << int(b)) for b in flips]
        else:
            rejects += 1
            if rejects == _MAX_REJECTS:
                raise RuntimeError(f"no centre {_FAR + 2} from {len(centres)} centres at n={n} "
                                   f"after {rejects} rejected draws in a row")
    return members


def _gap_pair(rng, n: int, members: list[int], late: bool) -> tuple[int, int]:
    """A point below 2^(n-6) and that point with 5 bits flipped, both _FAR from `members`.

    With `late` one flipped bit is bit n-1, so the partner sits in the upper
    half of the member order; otherwise the partner stays below 2^(n-6).
    Raises RuntimeError after _MAX_REJECTS pairs that lie too close.
    """
    for _ in range(_MAX_REJECTS):
        y = int(rng.integers(0, 1 << (n - 6), dtype=np.uint64))
        if late:
            mask = 1 << (n - 1) | sum(1 << int(b) for b in rng.choice(n - 1, 4, replace=False))
        else:
            mask = sum(1 << int(b) for b in rng.choice(n - 6, 5, replace=False))
        if _far_from(y, members, _FAR) and _far_from(y ^ mask, members, _FAR):
            return y, y ^ mask
    raise RuntimeError(f"no gap pair {_FAR} from {len(members)} members at n={n} "
                       f"after {_MAX_REJECTS} rejected draws in a row")


def test_ball_helpers_give_up_on_impossible_requests():
    # random centres 11 apart stall a 24-bit cube long before 1500 members,
    # and no point below 2^6 lies 9 from the member 0
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="rejected draws"):
        _balls(np.random.default_rng(0), 24, 1500)
    with pytest.raises(RuntimeError, match="rejected draws"):
        _gap_pair(np.random.default_rng(0), 12, [0], late=False)
    assert time.monotonic() - t0 < 30


def _oracle(members: np.ndarray, n: int, close: int = _CLOSE, far: int = _FAR):
    """Histogram, gap pairs in (i, j) order, components and certificates of the full matrix."""
    d = np.bitwise_count(members[:, None] ^ members[None, :]).astype(np.int64)
    upper = np.triu(np.ones(d.shape, dtype=bool), 1)
    hist = np.bincount(d[upper], minlength=n + 1)
    gaps = np.argwhere(upper & (d > close) & (d < far))
    comp = np.full(members.size, -1)
    for s in range(members.size):  # breadth-first closure of d <= close
        frontier = [s] if comp[s] < 0 else []
        comp[frontier] = s
        while len(frontier):
            frontier = np.flatnonzero((d[frontier] <= close).any(axis=0) & (comp < 0))
            comp[frontier] = s
    same = comp[:, None] == comp[None, :]
    max_intra = int(d[upper & same].max(initial=-1))
    min_inter = int(d[upper & ~same].min()) if (~same).any() else -1
    clusters = [members[comp == s] for s in np.unique(comp)]
    return hist, gaps, clusters, max_intra, min_inter


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("tile", [(64, 96), (37, 53), None], ids=["64x96", "37x53", "default"])
def test_pair_kernel_matches_oracles_across_tiles(monkeypatch, n, tile):
    if tile is not None:
        monkeypatch.setattr(landscape, "_TILE_ROWS", tile[0])
        monkeypatch.setattr(landscape, "_TILE_COLS", tile[1])
    rng = np.random.default_rng(n)
    nu1, nu2 = _gap_nus(n)
    base = _balls(rng, n, 800)
    A = _set(n, base)
    assert A.members.max() >> (n - 1) == 1  # the top bit is in use
    hist, gaps, clusters, max_intra, min_inter = _oracle(A.members, n)
    assert gaps.size == 0 and len(clusters) > 20
    assert landscape.overlap_histogram(A).counts.tolist() == hist.tolist()
    assert landscape.detect_ogp(A, nu1, nu2) == (True, None)
    P = landscape.cluster(A, nu1, nu2)
    assert [c.tolist() for c in P.clusters] == [c.tolist() for c in clusters]
    assert (P.max_intra, P.min_inter) == (max_intra, min_inter)

    # one gap pair, whose partner lies beyond the first column tile of its row
    # block; then a decoy gap pair inside that block's square, after it in (i, j) order
    first = decoy = _gap_pair(rng, n, base, late=True)
    while min(decoy) <= first[0]:
        decoy = tuple(sorted(_gap_pair(rng, n, base + list(first), late=False)))
    for planted in ([first], [first, decoy]):
        B = _set(n, base + [z for pair in planted for z in pair])
        hist, gaps, *_ = _oracle(B.members, n)
        i, j = gaps[0]
        assert {tuple(int(z) for z in B.members[[a, b]]) for a, b in gaps} == set(planted)
        assert (int(B.members[i]), int(B.members[j])) == first
        if tile is not None:
            rows, cols = tile
            assert i < rows and j >= rows + cols
            if len(planted) == 2:
                a, b = gaps[1]
                assert i < a < rows and b < rows
        assert landscape.overlap_histogram(B).counts.tolist() == hist.tolist()
        assert landscape.detect_ogp(B, nu1, nu2) == (False, first)
        with pytest.raises(ContractError) as exc:
            landscape.cluster(B, nu1, nu2)
        assert exc.value.witness == first


def test_pair_kernel_memory_is_bounded():
    # tiles bound the temporaries, so the peak does not grow with |A|
    n = 40
    A = _set(n, _balls(np.random.default_rng(40), n, 20_000))
    nu1, nu2 = _gap_nus(n)
    tracemalloc.start()
    try:
        landscape.overlap_histogram(A)
        holds, _ = landscape.detect_ogp(A, nu1, nu2)
        P = landscape.cluster(A, nu1, nu2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and sum(c.size for c in P.clusters) == len(A)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# cluster's close-pair buckets and certificate kernels against brute force
# ---------------------------------------------------------------------------

def _chunk_agreements(members: list[int], n: int, t1: int) -> np.ndarray:
    """agree[i, j]: how many of the t1 + 1 contiguous near-equal bit chunks i and j share."""
    bounds = [c * n // (t1 + 1) for c in range(t1 + 2)]
    agree = np.zeros((len(members), len(members)), dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = [(z >> lo) & ((1 << (hi - lo)) - 1) for z in members]
        agree += np.equal.outer(part, part)
    return agree


def _brute_labels(members: list[int], n: int, t1: int):
    """Least index within t1 of each member; candidates and close hits, counted per shared chunk."""
    size = len(members)
    d = np.array([[bin(a ^ b).count("1") for b in members] for a in members], dtype=np.int64).reshape(size, size)
    agree = _chunk_agreements(members, n, t1)
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    assert (agree[upper & (d <= t1)] > 0).all()  # pigeonhole: close pairs share a chunk
    labels = [min(i for i in range(j + 1) if d[i, j] <= t1) for j in range(size)]
    return labels, int(agree[upper].sum()), int(agree[upper & (d <= t1)].sum())


def _shared_chunk_set(rng, n: int, t1: int, size: int) -> list[int]:
    """Members that all agree on their lowest chunk, so that chunk is one run of `size`."""
    width = n // (t1 + 1)
    return sorted({int(z) << width for z in rng.integers(0, 1 << (n - width), size=size, dtype=np.uint64)})


@functools.cache
def _kernel_cases():
    rng = np.random.default_rng(7)
    return {
        "t1=0": (20, 0, sorted({int(z) for z in rng.integers(0, 1 << 20, size=300, dtype=np.uint64)})),
        "26-bits-in-4-chunks": (26, 3, sorted(set(_balls(rng, 26, 200)))),
        "n=64-top-bit": (64, 4, sorted(set(_balls(rng, 64, 200)) | {1 << 63, (1 << 63) | 1, (1 << 64) - 1})),
        "one-shared-chunk": (40, 2, _shared_chunk_set(rng, 40, 2, 300)),
        "empty": (12, 2, []),
        "one": (12, 2, [5]),
        "two-close": (12, 2, [5, 7]),
        "two-far": (12, 2, [0, 0xFFF]),
    }


@pytest.mark.parametrize("case", ["t1=0", "26-bits-in-4-chunks", "n=64-top-bit", "one-shared-chunk",
                                  "empty", "one", "two-close", "two-far"])
def test_bucket_labels_match_brute_force(case):
    n, t1, members = _kernel_cases()[case]
    words = landscape._words(np.asarray(members, dtype=np.uint64), n)
    labels, candidates, hits = _brute_labels(members, n, t1)
    got, got_hits = landscape._bucket_labels(words, n, t1)
    assert got.tolist() == labels
    assert got_hits == hits
    assert landscape._bucket_candidates(words, n, t1) == candidates
    assert landscape._tile_labels(np.asarray(members, dtype=np.uint64), n, t1).tolist() == labels


def _nus(n: int, t1: int, t2: int) -> tuple[float, float]:
    return (t1 + 0.1) / n, (t2 - 0.1) / n


# (n, t1, t2, members) on which the OGP holds at _nus(n, t1, t2)
@functools.cache
def _cluster_cases():
    rng = np.random.default_rng(11)
    sparse = sorted({int(z) for z in rng.integers(0, 1 << 20, size=400, dtype=np.uint64)})
    sparse = [z for z in sparse if all(bin(z ^ y).count("1") >= 2 for y in sparse if y != z)]
    shared = _shared_chunk_set(rng, 40, 2, 60)
    return {
        "t1=0-singletons": (20, 0, 2, sparse),
        "26-bits-in-3-chunks": (26, _CLOSE, _FAR, sorted(set(_balls(rng, 26, 250)))),
        "n=64-top-bit": (64, _CLOSE, _FAR, sorted(set(_balls(rng, 64, 250)) | {(1 << 64) - 1, (1 << 64) - 2})),
        "one-shared-chunk": (40, 2, 5, sorted({z ^ f for z in shared[::7] for f in (0, 1 << 39)})),
        "empty": (12, 2, 5, []),
        "one": (12, 2, 5, [5]),
        "two-close": (12, 2, 5, [5, 7]),
        "two-far": (12, 2, 5, [0, 0xFFF]),
    }


@pytest.mark.parametrize("kernel", ["buckets", "tiles"])
@pytest.mark.parametrize("case", ["t1=0-singletons", "26-bits-in-3-chunks", "n=64-top-bit",
                                  "one-shared-chunk", "empty", "one", "two-close", "two-far"])
def test_cluster_kernels_match_brute_force(monkeypatch, case, kernel):
    n, t1, t2, members = _cluster_cases()[case]
    A = _set(n, members)
    _, gaps, clusters, max_intra, min_inter = _oracle(A.members, n, t1, t2)
    assert gaps.size == 0
    monkeypatch.setattr(landscape, "_choose", lambda pairs, total: kernel)
    P = landscape.cluster(A, *_nus(n, t1, t2))
    assert [c.tolist() for c in P.clusters] == [c.tolist() for c in clusters]
    assert (P.max_intra, P.min_inter) == (max_intra, min_inter)
    assert P.work["label_kernel"] == kernel
    # forced off buckets, the certificate runs _pair_counts only on clusters that hold a pair
    assert P.work["certificate_kernel"] == (kernel if kernel == "buckets" or P.work["intra_pairs"] else "")
    assert P.work["intra_pairs"] == sum(math.comb(c.size, 2) for c in clusters)
    if case == "t1=0-singletons":
        assert P.max_intra == -1 and len(P.clusters) == len(A)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("tile", [(37, 53), None], ids=["37x53", "default"])
def test_cluster_kernels_agree_on_tile_oracle_sets(monkeypatch, n, tile):
    if tile is not None:
        monkeypatch.setattr(landscape, "_TILE_ROWS", tile[0])
        monkeypatch.setattr(landscape, "_TILE_COLS", tile[1])
    rng = np.random.default_rng(n)
    base = _balls(rng, n, 800)
    # plus one cluster wider than a tile: a centre and all its single flips
    centre = next(c for c in map(int, rng.integers(0, 1 << n, size=100, dtype=np.uint64))
                  if _far_from(c, base, _FAR + 1))
    A = _set(n, set(base) | {centre ^ f for f in [0] + [1 << b for b in range(n)]})
    _, _, clusters, max_intra, min_inter = _oracle(A.members, n)
    words = landscape._words(A.members, n)
    assert (landscape._bucket_labels(words, n, _CLOSE)[0] == landscape._tile_labels(A.members, n, _CLOSE)).all()
    work = {}
    for kernel in ("buckets", "tiles"):
        monkeypatch.setattr(landscape, "_choose", lambda pairs, total: kernel)
        P = landscape.cluster(A, *_gap_nus(n))
        assert P.work["label_kernel"] == kernel
        assert [c.tolist() for c in P.clusters] == [c.tolist() for c in clusters]
        assert (P.max_intra, P.min_inter) == (max_intra, min_inter)
        work[kernel] = P.work
    buckets, tiles = work["buckets"], work["tiles"]
    assert buckets["candidate_pairs"] == tiles["candidate_pairs"]
    assert buckets["intra_pairs"] == tiles["intra_pairs"] == tiles["close_pairs"]
    assert buckets["close_pairs"] >= buckets["intra_pairs"]


def test_dense_set_takes_the_tile_path_within_memory_bound():
    # four radius-2 balls whose centres lie 16 apart: every ball is one cluster
    # of 301 members, and its pairs share chunks, so buckets price above the share
    n, t1, t2 = 24, 4, 9
    centres = [0, 0xFFFF00, 0x00FFFF, 0xFF00FF]
    flips = [0] + [1 << i for i in range(n)] + [1 << i | 1 << j for i in range(n) for j in range(i)]
    A = _set(n, {c ^ f for c in centres for f in flips})
    total = math.comb(len(A), 2)
    words = landscape._words(A.members, n)
    assert landscape._bucket_candidates(words, n, t1) > landscape._BUCKET_SHARE * total
    _, gaps, clusters, max_intra, min_inter = _oracle(A.members, n, t1, t2)
    assert gaps.size == 0
    tracemalloc.start()
    try:
        P = landscape.cluster(A, *_nus(n, t1, t2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.work["label_kernel"] == P.work["certificate_kernel"] == "tiles"
    assert [c.tolist() for c in P.clusters] == [c.tolist() for c in clusters]
    assert (P.max_intra, P.min_inter) == (max_intra, min_inter) == (4, 12)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# Walsh pair kernel against the tiles and brute force
# ---------------------------------------------------------------------------

def _brute_counts(members: np.ndarray, n: int) -> list[int]:
    d = np.bitwise_count(members[:, None] ^ members[None, :])
    return np.bincount(d[np.triu_indices(members.size, 1)], minlength=n + 1).tolist()


def _dense_set(rng, n: int, ratio: float = 1.0) -> np.ndarray:
    """The least random set with C(|A|, 2) >= ratio * n 2^n, or the whole cube when none fits."""
    size = min(1 << n, math.ceil((1 + math.sqrt(1 + 8 * ratio * (n << n))) / 2))
    return np.sort(rng.choice(1 << n, size=size, replace=False)).astype(np.uint64)


@pytest.mark.parametrize("n", range(1, 17))
def test_walsh_kernel_matches_tiles_and_brute_force(n):
    members = _dense_set(np.random.default_rng(n), n)
    got = landscape._walsh_counts(members, n).tolist()
    assert got == landscape._tile_counts(members, n).tolist() == _brute_counts(members, n)
    assert landscape._pair_counts(members, n)[1].tolist() == got


def test_walsh_kernel_at_n_24():
    n = 24
    members = _dense_set(np.random.default_rng(n), n)
    assert landscape._walsh_priced(members.size, n)
    assert landscape._pair_counts(members, n)[1].tolist() == landscape._tile_counts(members, n).tolist()
    # two disjoint 20-dimensional subcubes whose top bits differ in h = 3 places;
    # |A| = 2^21 takes the transform's partial sums to 2^21
    k, h = 20, 3
    low = np.arange(1 << k, dtype=np.uint64)
    members = np.concatenate([low, low | np.uint64(0b0111 << k)])
    cube = [2 * (1 << (k - 1)) * math.comb(k, d) if 0 < d <= k else 0 for d in range(n + 1)]
    cross = [(1 << k) * math.comb(k, d - h) if h <= d <= h + k else 0 for d in range(n + 1)]
    assert landscape._pair_counts(members, n)[1].tolist() == [a + b for a, b in zip(cube, cross)]


def test_walsh_kernel_on_the_full_cube():
    n = 10
    members = np.arange(1 << n, dtype=np.uint64)
    assert landscape._walsh_priced(members.size, n)
    expected = [(1 << (n - 1)) * math.comb(n, d) if d else 0 for d in range(n + 1)]
    assert landscape._walsh_counts(members, n).tolist() == expected
    assert landscape._tile_counts(members, n).tolist() == expected


@pytest.mark.parametrize("n", [0, 1, 12])
@pytest.mark.parametrize("packed", [[], [0], [0, 1], [0, 0b11]], ids=["empty", "one", "two-near", "two-far"])
def test_walsh_kernel_on_tiny_sets(n, packed):
    members = np.asarray([z for z in packed if z >> n == 0], dtype=np.uint64)
    got = landscape._walsh_counts(members, n).tolist()
    assert got == landscape._tile_counts(members, n).tolist() == _brute_counts(members, n)
    assert sum(got) == math.comb(members.size, 2)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_kernel_choice_flips_at_the_crossover(monkeypatch, n):
    calls = []
    walsh = landscape._walsh_counts
    monkeypatch.setattr(landscape, "_walsh_counts", lambda m, n: calls.append(m.size) or walsh(m, n))
    above = _dense_set(np.random.default_rng(n), n)
    for members, kernel in ((above[:-1], "tiles"), (above, "walsh")):
        calls.clear()
        h = landscape.overlap_histogram(_set(n, members))
        assert h.work == ({"kernel": "walsh", "transform_ops": n << n} if kernel == "walsh"
                          else {"kernel": "tiles", "pairs": math.comb(members.size, 2)})
        assert calls == ([members.size] if kernel == "walsh" else [])
        assert h.counts.tolist() == landscape._tile_counts(members, n).tolist()
    assert math.comb(above.size - 1, 2) < landscape._WALSH_CROSSOVER * (n << n) <= math.comb(above.size, 2)


def test_n_above_24_falls_back_to_tiles(monkeypatch):
    assert not landscape._walsh_priced(1 << 20, 25)  # 5.5e11 pairs, far past the crossover
    monkeypatch.setattr(landscape, "_WALSH_CROSSOVER", 0)  # now any set at n <= 24 is priced Walsh
    members = np.sort(np.random.default_rng(25).choice(1 << 25, size=300, replace=False)).astype(np.uint64)
    assert landscape._walsh_priced(members.size, 24) and not landscape._walsh_priced(members.size, 25)
    monkeypatch.setattr(landscape, "_walsh_counts", None)  # calling it would raise
    assert landscape._pair_counts(members, 25)[1].tolist() == _brute_counts(members, 25)
    assert landscape.overlap_histogram(_set(25, members)).work["kernel"] == "tiles"


def test_dense_set_clusters_on_the_walsh_histogram(monkeypatch):
    # the [15, 11, 3] Hamming code times one free bit: 2048 clusters of two
    # members at distance 1, each 3 or more from the rest; C(4096, 2) > 16 * 2^16
    x = np.arange(1 << 15, dtype=np.uint64)
    syndrome = np.zeros(x.size, dtype=np.uint64)
    for i in range(15):
        syndrome ^= ((x >> np.uint64(i)) & np.uint64(1)) * np.uint64(i + 1)
    even = x[syndrome == 0] << np.uint64(1)
    A = _set(16, np.concatenate([even, even | np.uint64(1)]))
    for kernel, crossover in (("walsh", 1), ("tiles", math.inf)):
        monkeypatch.setattr(landscape, "_WALSH_CROSSOVER", crossover)
        P = landscape.cluster(A, *_nus(16, 1, 3))
        assert P.work["histogram_kernel"] == kernel
        assert [c.tolist() for c in P.clusters] == [[int(z), int(z) | 1] for z in even]
        assert (P.max_intra, P.min_inter) == (1, 3)


def test_cluster_records_the_certificate_kernel_that_ran(monkeypatch):
    # the Hamming ball of radius 4 at n = 18 is one cluster of 4,048 members, so
    # its intra-cluster histogram takes the Walsh kernel, as the OGP one does
    n = 18
    ball = [sum(1 << b for b in bits) for r in range(5) for bits in combinations(range(n), r)]
    calls = []
    walsh = landscape._walsh_counts
    monkeypatch.setattr(landscape, "_walsh_counts", lambda m, n: calls.append(m.size) or walsh(m, n))
    P = landscape.cluster(_set(n, ball), 0.445, 0.95)
    assert calls == [4048, 4048]
    assert len(P.clusters) == 1 and (P.max_intra, P.min_inter) == (8, -1)
    assert P.work["histogram_kernel"] == P.work["certificate_kernel"] == "walsh"
    assert P.work["label_kernel"] == "tiles"


def test_walsh_kernel_refuses_a_count_that_is_not_a_multiple_of_2_to_the_n(monkeypatch):
    classes = landscape._weight_classes
    monkeypatch.setattr(landscape, "_weight_classes", lambda W, n: [classes(W, n)[0] + 1, *classes(W, n)[1:]])
    with pytest.raises(ContractError, match="not an even multiple"):
        landscape._walsh_counts(np.arange(16, dtype=np.uint64), 6)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walsh_kernel_memory_is_two_vectors():
    n = 24
    dense = _dense_set(np.random.default_rng(n), n)
    peak = _traced_peak(landscape._pair_counts, dense, n)
    assert 4 << n < peak < 2 * (4 << n) + 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # a near-ground set of the p-spin shape stays on the tiles: no 2^n vector
    sparse = np.sort(np.random.default_rng(1).choice(1 << n, size=144, replace=False)).astype(np.uint64)
    peak = _traced_peak(landscape._pair_counts, sparse, n)
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_csv_exports(tmp_path, demo_formula):
    A = landscape.enumerate_sat(demo_formula, r=0)
    mpath = tmp_path / "members.csv"
    landscape.members_to_csv(A, mpath)
    text = mpath.read_text()
    assert text.startswith("# nltslab members v1")
    assert "010" in text
    hpath = tmp_path / "hist.csv"
    landscape.histogram_to_csv(landscape.overlap_histogram(A), hpath)
    lines = hpath.read_text().strip().splitlines()
    assert len(lines) == 2 + A.n + 1


def _per_bit(z: int, n: int) -> str:
    return "".join(str((int(z) >> i) & 1) for i in range(n))


def _members_csv_oracle(A: landscape.SolutionSet) -> bytes:
    """The member file as csv.writer lays it out, one row per member."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["# nltslab members v1", f"n={A.n}", f"r={A.r}"])
    w.writerow(["packed", "bits"])
    for z in A.members:
        w.writerow([int(z), _per_bit(z, A.n)])
    return buf.getvalue().encode()


def _random_members(n: int, size: int) -> list[int]:
    rng = np.random.default_rng(40)
    members = np.unique(rng.integers(0, 1 << n, size + size // 10, dtype=np.uint64))[:size]
    assert members.size == size
    return members.tolist()


@pytest.mark.parametrize(
    "n, r, members",
    [
        (5, 0, []),
        (1, 1, [0, 1]),
        (30, 2, [0, 2**30 - 1]),
        (64, 0, [3, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1]),
        (40, 1, _random_members(40, 10_000)),
        (3, 0, [5]),
        # each decimal width is one run of rows; 10^9 is the first past uint32 digits
        (34, 0, [0, 9, 10, 99, 100, 10**9 - 1, 10**9, 2**32 - 1, 2**32, 2**34 - 1]),
        (64, 2, [10**19 - 1, 10**19, 2**64 - 1]),
        (17, 0, list(range(0, 1 << 17, 13))),  # widths 1-6, runs across chunks
    ],
    ids=["empty", "n1", "n30", "n64", "n40-random", "single", "widths", "n64-20-digits", "runs-across-chunks"],
)
def test_members_csv_matches_csv_writer(tmp_path, n, r, members):
    A = landscape.SolutionSet(n=n, members=np.asarray(members, dtype=np.uint64), r=r)
    path = tmp_path / "members.csv"
    landscape.members_to_csv(A, path)
    assert path.read_bytes() == _members_csv_oracle(A)
    assert A.bitstrings() == [_per_bit(z, n) for z in members]


def test_bitstrings_of_a_strided_member_view():
    A = landscape.SolutionSet(n=4, members=np.arange(16, dtype=np.uint64)[::3], r=0)
    assert A.bitstrings() == [_per_bit(z, 4) for z in range(0, 16, 3)]
