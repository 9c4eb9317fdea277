import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_violations
from nltslab import errors, ksat
from nltslab.errors import ParameterError, ResourceLimitError

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_single_variable_clause_space():
    seen = set()
    for seed in range(200):
        f = ksat.generate_formula(1, 1, 1, seed)
        lit = f.clauses[0].literals[0]
        assert lit.var == 0
        seen.add(lit.negated)
    assert seen == {False, True}


def test_clause_count_formula():
    assert ksat.clause_count(0.8, 8, 100) == round(0.8 * 256 * LN2 * 100)


def test_clause_count_past_the_float_range_is_exact():
    # 2^1100 is no float: m is the same product, rounded once, as an integer
    m = ksat.clause_count(0.9, 1100, 5)
    assert type(m) is int and m.bit_length() == 1102
    assert math.log(m) == pytest.approx(1100 * LN2 + math.log(0.9 * LN2 * 5), rel=1e-12)
    for alpha, K in [(0.9, 1100), (0.9, 14_000), (1e300, 60), (1.7e308, 1), (1.7e308, -1), (2.0**-1074, 1100)]:
        assert ksat.clause_count(alpha, K, 5) == round(Fraction(alpha) * Fraction(2)**K * Fraction(LN2) * 5), (alpha, K)
    assert ksat.clause_count(0.9, -1, 5) == round(0.9 * 0.5 * LN2 * 5)  # generate_formula refuses K < 1


def test_literal_budget_refuses_before_the_draw(monkeypatch):
    monkeypatch.setitem(errors.BUDGETS, "literal_budget", 12)
    assert ksat.generate_formula(5, 4, 3, seed=0).m == 4  # 12 literals: at the budget
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew before pricing"))
    with pytest.raises(ResourceLimitError) as exc:
        ksat.generate_formula(5, 5, 3, seed=0)
    assert (exc.value.budget_name, exc.value.requested, exc.value.allowed) == ("literal_budget", 15, 12)
    assert ksat.clause_count(0.8, 8, 100) == 14196


def test_a_K_over_the_literal_budget_is_priced_without_m(monkeypatch):
    # past the float range m = num 2^(K - s) >= 1; at 2^-1074 and n = 5, s = 1127
    # exceeds K = 1100, and that m is left to clause_count
    monkeypatch.setitem(errors.BUDGETS, "literal_budget", 1023)
    for alpha, K, n in [(0.9, 1100, 5), (0.9, 5000, 1), (3.7, 1024, 7), (1e300, 2000, 3), (2.0**-1074, 1200, 5)]:
        with pytest.raises(ResourceLimitError) as exc:
            ksat.check_literal_budget(alpha, K, n)
        bits = (ksat.clause_count(alpha, K, n) * K).bit_length() - 1
        assert (exc.value.requested, exc.value.allowed) == (None, 1023)
        assert str(exc.value) == f"the formula needs at least 2^{bits} literals, over budget 1023", (alpha, K, n)
    for alpha, K, n in [(2.0**-1074, 1100, 5), (0.9, 1000, 5), (0.0, 5000, 5), (-0.9, 5000, 5), (0.9, 5000, 0),
                        (math.inf, 5000, 5), (math.nan, 5000, 5)]:
        ksat.check_literal_budget(alpha, K, n)


def test_generation_deterministic():
    a = ksat.generate_formula(10, 5, 3, seed=42)
    b = ksat.generate_formula(10, 5, 3, seed=42)
    assert a == b
    assert ksat.to_dimacs(a) == ksat.to_dimacs(b)


def test_generation_uniform_over_clause_space():
    # n=2, K=1: four possible clauses, each should appear ~1/4 of the time
    from nltslab.cli import stream_seed

    trials = 4000
    counts = {}
    for i in range(trials):
        # hash-derived seeds: sequential integers correlate across streams
        f = ksat.generate_formula(2, 1, 1, stream_seed(7, i))
        lit = f.clauses[0].literals[0]
        counts[(lit.var, lit.negated)] = counts.get((lit.var, lit.negated), 0) + 1
    assert set(counts) == {(0, False), (0, True), (1, False), (1, True)}
    sigma = math.sqrt(trials * 0.25 * 0.75)
    for c in counts.values():
        assert abs(c - trials / 4) <= 3 * sigma


def test_generation_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        ksat.generate_formula(0, 1, 1, seed=0)
    with pytest.raises(ParameterError):
        ksat.generate_formula(1, 1, 0, seed=0)


# ---------------------------------------------------------------------------
# violating patterns
# ---------------------------------------------------------------------------

def test_violating_pattern_mixed_signs():
    # (x3 | ~x17 | ~x6 | ~x2) is falsified exactly at (0, 1, 1, 1)
    L, C = ksat.Literal, ksat.Clause
    c = C((L(3, False), L(17, True), L(6, True), L(2, True)))
    assert c.violating_pattern == (0, 1, 1, 1)


def test_violating_pattern_simple_cases():
    L, C = ksat.Literal, ksat.Clause
    assert C((L(0, False),)).violating_pattern == (0,)
    assert C((L(0, True), L(1, True))).violating_pattern == (1, 1)


def test_tautology_has_no_violating_pattern():
    L, C = ksat.Literal, ksat.Clause
    c = C((L(0, False), L(0, True)))
    assert c.is_tautology
    assert c.violating_pattern is None
    f = ksat.Formula(n=1, K=2, clauses=(c,))
    assert ksat.count_violations(f, (0,)) == 0
    assert ksat.count_violations(f, (1,)) == 0


@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_violating_pattern_characterization(seed, K, n):
    """v(C) falsifies the clause and every single-bit flip of it satisfies it."""
    f = ksat.generate_formula(n, 1, K, seed)
    c = f.clauses[0]
    pat = c.violating_pattern
    if pat is None:
        return
    base = [0] * n
    for lit, b in zip(c.literals, pat):
        base[lit.var] = b
    assert naive_violations(f, base) == 1
    for k in range(K):
        flipped = list(base)
        flipped[c.literals[k].var] ^= 1
        sub = ksat.Formula(n=n, K=K, clauses=(c,))
        assert naive_violations(sub, flipped) == 0


# ---------------------------------------------------------------------------
# violation counting
# ---------------------------------------------------------------------------

def test_count_violations_small(demo_formula):
    assert ksat.count_violations(demo_formula, (0, 0, 1)) == 0
    assert ksat.count_violations(demo_formula, (1, 1, 0)) == 2


def test_count_violations_empty_formula():
    f = ksat.Formula(n=4, K=2, clauses=())
    assert ksat.count_violations(f, (0, 1, 0, 1)) == 0


def test_count_violations_length_mismatch(demo_formula):
    with pytest.raises(ParameterError):
        ksat.count_violations(demo_formula, (0, 1))


def test_count_violations_of_a_packed_assignment(demo_formula):
    for bits in [(0, 0, 1), (1, 1, 0)]:
        packed = sum(b << i for i, b in enumerate(bits))
        assert ksat.count_violations(demo_formula, packed) == ksat.count_violations(demo_formula, bits)
        assert ksat.count_violations(demo_formula, np.int64(packed)) == ksat.count_violations(demo_formula, bits)
    for packed in (-1, 1 << 3):
        with pytest.raises(ParameterError, match="out of range"):
            ksat.count_violations(demo_formula, packed)


@given(st.integers(0, 10**6), st.integers(2, 10), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_count_violations_matches_naive(seed, n, m):
    f = ksat.generate_formula(n, m, 3, seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        bits = rng.integers(0, 2, size=n).tolist()
        assert ksat.count_violations(f, bits) == naive_violations(f, bits)


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------

def test_clauses_within(demo_formula):
    assert ksat.clauses_within(demo_formula, range(3)) == frozenset({0, 1, 2})
    assert ksat.clauses_within(demo_formula, ()) == frozenset()
    assert ksat.clauses_within(demo_formula, {1, 2}) == frozenset({2})


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_clauses_within_intersection(seed):
    f = ksat.generate_formula(8, 12, 3, seed)
    rng = np.random.default_rng(seed)
    S1 = frozenset(int(v) for v in rng.choice(8, size=5, replace=False))
    S2 = frozenset(int(v) for v in rng.choice(8, size=5, replace=False))
    lhs = ksat.clauses_within(f, S1 & S2)
    rhs = ksat.clauses_within(f, S1) & ksat.clauses_within(f, S2)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def test_eta_zero_cases(demo_formula):
    assert ksat.eta_exact(demo_formula, 0.0) == 0.0
    empty = ksat.Formula(n=4, K=2, clauses=())
    for eps in (0.0, 0.3, 0.6):
        assert ksat.eta_exact(empty, eps) == 0.0


def test_eta_single_exclusion(demo_formula):
    # excluding x3 removes both clauses that mention it, the maximum
    assert ksat.eta_exact(demo_formula, 1 / 3) == pytest.approx(2 / 3)
    assert ksat.eta_exact_excluded(demo_formula, 1) == pytest.approx(2 / 3)


def test_eta_budget(monkeypatch):
    f = ksat.generate_formula(20, 10, 3, seed=0)
    monkeypatch.setitem(errors.BUDGETS, "eta_budget", 100)
    with pytest.raises(ResourceLimitError) as exc:
        ksat.eta_exact_excluded(f, 10)
    assert exc.value.budget_name == "eta_budget"


@given(st.integers(0, 10**6), st.integers(3, 8), st.sampled_from([6, 65, 150]), st.integers(2, 4),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_eta_matches_subset_definition(seed, n, m, K, excluded):
    """Cross-check against the max over kept sets of m - |C(S)|, past one 64-clause word,
    with a tautology and a clause that repeats a variable."""
    from itertools import combinations

    lit = ksat.Literal
    taut = ksat.Clause((lit(0, False), lit(0, True)) + (lit(1, False),) * (K - 2))
    repeated = ksat.Clause((lit(1, True), lit(1, True)) + (lit(n - 1, False),) * (K - 2))
    f = ksat.generate_formula(n, m, K, seed)
    f = ksat.Formula(n=n, K=K, clauses=f.clauses + (taut, repeated))
    assert taut.is_tautology and len(repeated.variable_set) < K
    expected = max(
        f.m - len(ksat.clauses_within(f, set(range(n)) - set(excl)))
        for excl in combinations(range(n), excluded)
    ) / n
    assert ksat.eta_exact_excluded(f, excluded) == expected


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dimacs_roundtrip(tmp_path):
    f = ksat.generate_formula(8, 12, 3, seed=11)
    path = tmp_path / "f.cnf"
    ksat.save_formula(f, path, alpha=0.9)
    g = ksat.load_formula(path)
    assert g == f
    assert g.seed == 11


def test_dimacs_roundtrip_tautology(tmp_path):
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=2, K=2, clauses=(C((L(0, False), L(0, True))),))
    path = tmp_path / "t.cnf"
    ksat.save_formula(f, path)
    g = ksat.load_formula(path)
    assert g.clauses == f.clauses
    assert g.clauses[0].is_tautology


def test_dimacs_header_mismatch():
    with pytest.raises(ParameterError):
        ksat.from_dimacs("p cnf 2 3\n1 2 0\n")


@pytest.mark.parametrize("text", ["1 -2 0\n", "c only a comment\n", ""], ids=["clauses", "comment", "empty"])
def test_dimacs_without_a_header_is_refused(text):
    with pytest.raises(ParameterError, match="missing DIMACS header"):
        ksat.from_dimacs(text)


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 3 2\n1 -2 0 2 3 0\n",
        "p cnf 3 2\n1\n-2 0 2\n3\n0\n",
        "c SATLIB layout\np cnf 3 2\n 1 -2 0\n 2 3 0\n%\n0\n\n",
    ],
    ids=["clauses-sharing-a-line", "clause-across-lines", "satlib-trailer"],
)
def test_dimacs_clauses_are_a_token_stream(text):
    L, C = ksat.Literal, ksat.Clause
    f = ksat.from_dimacs(text)
    assert (f.n, f.K) == (3, 2)
    assert f.clauses == (C((L(0, False), L(1, True))), C((L(1, False), L(2, False))))
    assert ksat.from_dimacs(ksat.to_dimacs(f)) == f


@pytest.mark.parametrize(
    "text",
    ["p cnf 2 1\n1 2\n", "p cnf 2 1\n1 x 0\n", "p cnf two 1\n1 0\n"],
    ids=["unterminated", "not-a-literal", "not-a-count"],
)
def test_dimacs_malformed_input(text):
    with pytest.raises(ParameterError):
        ksat.from_dimacs(text)
