import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltslab import theory
from nltslab.errors import ParameterError

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# entropy and rate exponent
# ---------------------------------------------------------------------------

def test_entropy_values():
    assert theory.binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
    assert theory.binary_entropy(0.0) == 0.0
    assert theory.binary_entropy(1.0) == 0.0
    expected = -(0.11 * math.log(0.11) + 0.89 * math.log(0.89))
    assert theory.binary_entropy(0.11) == pytest.approx(expected, abs=1e-15)
    assert theory.binary_entropy(0.11) == pytest.approx(0.3465153, abs=5e-7)


def test_entropy_domain():
    with pytest.raises(ParameterError):
        theory.binary_entropy(-0.1)
    with pytest.raises(ParameterError):
        theory.binary_entropy(1.1)


@given(st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_entropy_symmetric(x):
    assert theory.binary_entropy(x) == pytest.approx(theory.binary_entropy(1.0 - x), abs=1e-12)


def test_rate_exponent_at_s1_exact():
    for alpha in np.linspace(0.01, 0.99, 100):
        for K in (2, 8, 64):
            assert theory.rate_exponent(float(alpha), 1.0, K) == pytest.approx(
                LN2 * (1.0 - alpha), abs=1e-15
            )


def test_rate_exponent_value():
    got = theory.rate_exponent(0.75, 0.5, 8)
    assert got == pytest.approx(LN2 * (0.5 + 0.75 * 2**-8), abs=1e-15)
    assert got == pytest.approx(0.34860, abs=5e-5)


def test_rate_exponent_window_sup_negative_at_large_K():
    window = theory.first_feasible_window(0.75, 64)
    assert window is not None
    nu1, nu2 = window
    assert theory.window_sup_rate(0.75, 64, nu1, nu2) <= -LN2 / 10.0


def test_rate_exponent_window_max_decreases_in_K():
    window = theory.first_feasible_window(0.75, 64)
    nu1, nu2 = window
    sups = [theory.window_sup_rate(0.75, K, nu1, nu2) for K in (16, 32, 64, 128)]
    assert all(a > b for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# satisfiability counting bound
# ---------------------------------------------------------------------------

def test_sat_count_bound_beta_zero():
    value, ok = theory.sat_count_lower_bound(0.0, 3)
    assert value == pytest.approx(LN2, abs=1e-15)
    assert ok


def test_sat_count_bound_high_density_k8():
    beta = 0.8 * 256 * LN2
    value, ok = theory.sat_count_lower_bound(beta, 8)
    assert ok
    assert abs(value - LN2 * 0.2) <= 0.05


def test_sat_count_bound_monotone_in_beta():
    values = [theory.sat_count_lower_bound(b, 4)[0] for b in (0.0, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sat_count_bound_regime_flag():
    limit = (2.0**3) * LN2 - (4 * LN2 + 3) / 2
    assert theory.sat_count_lower_bound(limit - 0.01, 3)[1]
    assert not theory.sat_count_lower_bound(limit + 0.01, 3)[1]


# ---------------------------------------------------------------------------
# second-moment exponent
# ---------------------------------------------------------------------------

def test_z2_exponent_endpoints():
    alpha, K = 0.8, 8
    got = theory.z2_exponent(alpha, 0.0, K)
    assert got == pytest.approx(
        LN2 + alpha * 2**K * LN2 * math.log(1 - 2.0 ** (1 - K)), abs=1e-13
    )
    got1 = theory.z2_exponent(alpha, 1.0, K)
    assert got1 == pytest.approx(
        LN2 + alpha * 2**K * LN2 * math.log(1 - 2.0 ** (1 - K) + 2.0**-K), abs=1e-13
    )


def test_z2_close_to_rate_exponent():
    for K in (8, 16):
        for alpha in (0.75, 0.8):
            tol = 4 * LN2 * alpha * 2.0**-K
            for s in np.arange(0.01, 1.0, 0.01):
                diff = abs(
                    theory.z2_exponent(alpha, float(s), K)
                    - theory.rate_exponent(alpha, float(s), K)
                )
                assert diff <= tol + 0.02


# ---------------------------------------------------------------------------
# coverage tail
# ---------------------------------------------------------------------------

def test_azuma_eps_zero():
    value, ok = theory.azuma_tail(0.5, 0.0, 4)
    assert value == pytest.approx(-0.25 / 2**5, abs=1e-15)
    assert ok


def test_azuma_small_eps_value():
    # direct evaluation: entropy term 0.001*ln(e/0.001), deficit 2^4*(1-0.999^4)
    eps, eta, K = 0.001, 0.5, 4
    deficit = 2**4 * (1 - 0.999**4)
    expected = eps * math.log(math.e / eps) - (eta - deficit) ** 2 / 2**5
    value, ok = theory.azuma_tail(eta, eps, K)
    assert value == pytest.approx(expected, abs=1e-15)
    assert ok
    # the entropy term dominates here, so certification needs a smaller eps
    assert value > 0.0
    smaller, ok2 = theory.azuma_tail(eta, 1e-5, K)
    assert ok2 and smaller < 0.0


def test_azuma_regime_flag_flips():
    # once the mean coverage deficit exceeds eta the flag goes out of regime
    _, ok_small = theory.azuma_tail(0.5, 0.001, 4)
    _, ok_large = theory.azuma_tail(0.5, 0.2, 4)
    assert ok_small and not ok_large




def test_derive_eps_certifies():
    for K in (8, 64):
        for eta in (1e-4, 1e-6):
            eps = theory.derive_eps(eta, K)
            assert eps is not None
            value, ok = theory.azuma_tail(eta, eps, K)
            assert ok and value < 0.0


def _first_certified_eps(eta, K):
    """derive_eps's walk down its grid from eta / (4 K 2^K), taken as a product of floats."""
    eps = min(eta / (4.0 * K * 2.0**K), 0.25)
    while eps >= 5e-300:
        value, ok = theory.azuma_tail(eta, eps, K)
        if ok and value < 0.0:
            return eps
        eps /= 8.0
    return None


def test_derive_eps_starts_from_eta_over_4K_2_to_the_K_without_overflow():
    for K in range(1, 65):
        for eta in theory.ETA_GRID:
            assert theory.derive_eps(eta, K) == _first_certified_eps(eta, K), (K, eta)
    for K in (1023, 1024, 2000, 10**6):  # 2.0**K overflows from 1024 on
        assert theory.derive_eps(1e-4, K) is None


# ---------------------------------------------------------------------------
# depth bound
# ---------------------------------------------------------------------------

def test_depth_bound_worked_value():
    got = theory.depth_lower_bound(0.4 * 10**6, 10**6, 0.45)
    expected = math.log2(0.16e6 / (400 * math.log(1 / 0.45))) / 3
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(2.99, abs=1e-2)


def test_depth_bound_vacuous():
    assert theory.depth_lower_bound(1.0, 10**6, 0.5) <= 0.0


def test_depth_bound_doubling_d():
    base = theory.depth_lower_bound(1000.0, 10**4, 0.3)
    assert theory.depth_lower_bound(2000.0, 10**4, 0.3) == pytest.approx(
        base + 2 / 3, abs=1e-12
    )


def test_depth_bound_monotonicity():
    ds = np.linspace(100, 10**6, 50)
    vals = [theory.depth_lower_bound(float(d), 10**6, 0.45) for d in ds]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # decreasing in n_bits; increasing in mu since ln(1/mu) shrinks as mu -> 1
    assert theory.depth_lower_bound(1e5, 10**6, 0.45) > theory.depth_lower_bound(1e5, 10**7, 0.45)
    assert theory.depth_lower_bound(1e5, 10**6, 0.9) > theory.depth_lower_bound(1e5, 10**6, 0.45)


def test_depth_bound_base_flag():
    b2 = theory.depth_lower_bound(1e5, 10**6, 0.45, outer_base2=True)
    nat = theory.depth_lower_bound(1e5, 10**6, 0.45, outer_base2=False)
    assert nat == pytest.approx(b2 * LN2, abs=1e-12)


def test_depth_bound_domain():
    with pytest.raises(ParameterError):
        theory.depth_lower_bound(100.0, 10**6, 1.5)
    with pytest.raises(ParameterError):
        theory.depth_lower_bound(-1.0, 10**6, 0.5)


# ---------------------------------------------------------------------------
# parameter consistency and scans
# ---------------------------------------------------------------------------

def _params(**kw):
    base = dict(alpha=0.75, K=64, eps=1e-40, lam=0.1, gamma=1e-4,
                eta=1e-6, nu1=0.015, nu2=0.03, delta=1e-4)
    base.update(kw)
    return theory.RegimeParams(**base)


def test_consistency_gamma_lambda_failure():
    report = theory.check_parameter_consistency(_params(gamma=0.5, lam=0.5))
    assert not report.gamma_lambda_ok
    assert not report.all_ok


def test_consistency_eta_zero_trivial():
    report = theory.check_parameter_consistency(_params(eta=0.0))
    assert report.amplification_ok
    assert report.locality_ok


def test_consistency_c_constants():
    p = _params(delta=1e-3)
    assert p.c1 == pytest.approx(0.5 * LN2 * 0.25 + 2e-3, abs=1e-15)
    assert p.c2 == pytest.approx(LN2 * 0.25 - 1e-3, abs=1e-15)
    assert p.delta_cap == pytest.approx(LN2 * 0.25 / 7, abs=1e-15)
    # at the boundary delta the gap stays positive with margin (1/14) ln2 (1-alpha)
    boundary = _params(delta=p.delta_cap)
    assert boundary.c2 - boundary.c1 == pytest.approx(LN2 * 0.25 / 14, abs=1e-12)
    assert 0 < boundary.c1 < boundary.c2


def test_scan_alpha_validation():
    with pytest.raises(ParameterError):
        theory.scan_regime(0.5, [8])


def test_scan_rows_refuses_a_K_below_1_or_past_float_range_before_any_row(monkeypatch):
    monkeypatch.setattr(theory, "first_feasible_window", None)  # calling it would raise TypeError
    for K_values, bad in (([8, 0], 0), (iter([64, -1, 8]), -1), ([8, int(sys.float_info.max), 2**1024 - 1], 2**1024 - 1)):
        with pytest.raises(ParameterError, match=rf"--K-list entries must lie in \[1, 1.8e\+308\], got {bad} in"):
            next(theory.scan_rows(0.75, K_values))


def test_scan_small_K_empty():
    assert theory.scan_regime(0.9, [4]) == []
    assert theory.scan_regime(0.75, [4, 8]) == []


def test_scan_large_K_nonempty():
    results = theory.scan_regime(0.75, [64])
    assert results
    for p in results:
        assert theory.check_parameter_consistency(p).all_ok
        value, ok = theory.azuma_tail(p.eta, p.eps, p.K)
        assert ok and value < 0.0


def test_scan_rows_yield_every_grid_point():
    rows = list(theory.scan_rows(0.75, [8, 64]))
    assert rows[0] == (8, None, None, None, None)  # no window at K = 8
    assert len(rows) == 1 + 3**4
    assert {row[1] for row in rows[1:]} == {theory.first_feasible_window(0.75, 64)}
    feasible = [p for _, _, eps, p, report in rows if eps is not None and report.all_ok]
    assert 0 < len(feasible) < 3**4
    assert theory.scan_regime(0.75, [8, 64]) == feasible
    with pytest.raises(ParameterError):
        next(theory.scan_rows(1.2, [8]))


def test_scan_regime_stops_at_max_results(monkeypatch):
    scanned = []
    window = theory.first_feasible_window
    monkeypatch.setattr(theory, "first_feasible_window",
                        lambda alpha, K, *rest: scanned.append(K) or window(alpha, K, *rest))
    got = theory.scan_regime(0.75, [64, 32], max_results=2)
    assert scanned == [64]  # K = 32 is never scanned
    assert got == theory.scan_regime(0.75, [64])[:2]


# ---------------------------------------------------------------------------
# regime-window search
# ---------------------------------------------------------------------------

def _oracle_window(alpha, K, nu_step, s_step, slack):
    """Window by window, as the search first ran: (first feasible window, its grid sup)."""
    nu_values = np.arange(nu_step, 0.5, nu_step)
    for nu2 in nu_values:
        if nu2 >= 0.5:
            break
        for nu1 in nu_values:
            if nu1 >= nu2 / 2.0:
                break
            lo, hi = 1.0 - float(nu2), 1.0 - float(nu1)
            grid = np.clip(np.arange(lo, hi + s_step / 2, s_step), 0.0, 1.0)
            sup = max(theory.rate_exponent(alpha, float(s), K) for s in grid)
            if sup <= -slack:
                return (float(nu1), float(nu2)), sup
    return None, None


# the module grid, then patched grids, since the prefix argument holds on any grid: equal
# coarser steps, a finer s grid, a finer nu grid, and 1/38, whose nu arange ends at 0.5 itself
@pytest.mark.parametrize("nu_step, s_step", [
    (0.005, 0.005), (0.01, 0.01), (0.02, 0.007), (0.01, 0.02), (1 / 38, 0.004),
])
def test_first_feasible_window_matches_the_loop_nest_oracle(monkeypatch, nu_step, s_step):
    assert (theory.NU_STEP, theory.S_STEP) == (0.005, 0.005)
    monkeypatch.setattr(theory, "NU_STEP", nu_step)
    monkeypatch.setattr(theory, "S_STEP", s_step)
    found = missing = 0
    for alpha in (0.71, 0.75, 0.85, 0.95, 0.99):
        for K in (3, 8, 16, 32, 64, 128):
            want, sup = _oracle_window(alpha, K, nu_step, s_step, LN2 / 20)
            got = theory.first_feasible_window(alpha, K)
            assert got == want, (alpha, K)
            if got is None:
                missing += 1
                continue
            found += 1
            assert all(type(nu) is float for nu in got)
            assert theory.window_sup_rate(alpha, K, *got) == sup, (alpha, K)
    assert found and missing  # both outcomes are compared
    assert np.arange(1 / 38, 0.5, 1 / 38)[-1] == 0.5  # the nu2 >= 0.5 guard is reached


# K = 8 has no window at alpha = 0.75, so the search evaluates every nu2's grid; on the
# patched 1/38 grid the nu2 = 0.5 grid would add 119 more calls
@pytest.mark.parametrize("nu_step, s_step, calls", [(0.005, 0.005, 4947), (1 / 38, 0.004, 1016)])
def test_window_search_evaluates_each_nu2_grid_once(monkeypatch, nu_step, s_step, calls):
    monkeypatch.setattr(theory, "NU_STEP", nu_step)
    monkeypatch.setattr(theory, "S_STEP", s_step)
    seen = []
    rate = theory.rate_exponent
    monkeypatch.setattr(theory, "rate_exponent", lambda *args: seen.append(args) or rate(*args))
    assert theory.first_feasible_window(0.75, 8) is None
    assert len(seen) == calls  # window by window, the module grid made 122,497
