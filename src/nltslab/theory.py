"""Closed-form exponents and bounds, plus feasibility scans over parameters.

All exponents are in nats internally; CSV emitters add base-2 columns for
readability.  The rate exponent drops the O_K(2^-K) correction while the
second-moment exponent keeps the full inner logarithm, so the two bracket
the dropped term.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice, product
from typing import Iterable

import numpy as np

from .errors import ParameterError

LN2 = math.log(2.0)

#: The window search's nu and s grid steps, the margin below zero the
#: window's rate exponent must clear, and the parameter-ledger grids.
NU_STEP = S_STEP = 0.005
SLACK = LN2 / 20.0
GAMMA_GRID = (1e-2, 1e-4, 1e-6)
LAMBDA_GRID = (0.05, 0.1, 0.2)
ETA_GRID = (1e-4, 1e-6, 1e-8)
DELTA_GRID = (1e-4, 1e-3, 5e-3)


@dataclass(frozen=True)
class RegimeParams:
    alpha: float
    K: int
    eps: float
    lam: float
    gamma: float
    eta: float
    nu1: float
    nu2: float
    delta: float

    @property
    def c1(self) -> float:
        return 0.5 * LN2 * (1.0 - self.alpha) + 2.0 * self.delta

    @property
    def c2(self) -> float:
        return LN2 * (1.0 - self.alpha) - self.delta

    @property
    def delta_cap(self) -> float:
        return (1.0 / 7.0) * LN2 * (1.0 - self.alpha)


def binary_entropy(x: float) -> float:
    """H(x) = -x ln x - (1-x) ln(1-x), with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"entropy argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def rate_exponent(alpha: float, s: float, K: int) -> float:
    """C(alpha, s, K) = ln2 + H(s) - 2 ln2 alpha + ln2 alpha s^K (leading form)."""
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"overlap fraction s must lie in [0, 1], got {s}")
    return LN2 + binary_entropy(s) - 2.0 * LN2 * alpha + LN2 * alpha * s**K


def sat_count_lower_bound(beta: float, K: int) -> tuple[float, bool]:
    """Per-variable log lower bound on |SAT| at density beta; (value, in_regime).

    in_regime reflects the hypothesis beta < 2^K ln2 - ((K+1) ln2 + 3)/2, K >= 3.
    """
    q = 2.0**-K
    inner = 1.0 - 2.0 * q + q * q - K * q * (1.0 - q) * (2.0 * q + 3.0 * K * q * q)
    if inner <= 0.0:
        raise ParameterError("log argument nonpositive; K too small for this bound")
    value = LN2 + 0.5 * beta * math.log(inner)
    in_regime = K >= 3 and beta < (2.0**K) * LN2 - ((K + 1) * LN2 + 3.0) / 2.0
    return value, in_regime


def z2_exponent(alpha: float, s: float, K: int) -> float:
    """Normalized second-moment exponent with the full inner logarithm."""
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"overlap fraction s must lie in [0, 1], got {s}")
    inner = 1.0 - (2.0 * 2.0**-K - (2.0**-K) * s**K)
    if inner <= 0.0:
        raise ParameterError("inner logarithm argument nonpositive")
    return LN2 + binary_entropy(s) + alpha * 2.0**K * LN2 * math.log(inner)


def coverage_deficit(eps: float, K: int) -> float:
    """2^K (1 - (1-eps)^K): clause mass lost to an eps-fraction exclusion."""
    return 2.0**K * (1.0 - (1.0 - eps) ** K)


def azuma_tail(eta: float, eps: float, K: int) -> tuple[float, bool]:
    """Per-variable log of the union bound for the coverage event; (value, in_regime).

    value = eps ln(e/eps) - (eta - 2^K(1-(1-eps)^K))^2 / 2^(K+1); negative
    certifies the event at rate n.  in_regime requires eta above the mean
    coverage deficit.
    """
    if eps < 0.0:
        raise ParameterError("eps must be nonnegative")
    deficit = coverage_deficit(eps, K)
    in_regime = eta > deficit
    entropy = 0.0 if eps == 0.0 else eps * math.log(math.e / eps)
    value = entropy - (eta - deficit) ** 2 / 2.0 ** (K + 1)
    return value, in_regime


def depth_lower_bound(
    d: float, n_bits: int, mu: float, outer_base2: bool = True
) -> float:
    """(1/3) log(d^2 / (400 n ln(1/mu))); outer log base 2 by default.

    The inner log(1/mu) is always natural.  A nonpositive argument yields a
    nonpositive (vacuous) bound rather than an error.
    """
    if not 0.0 < mu < 1.0:
        raise ParameterError(f"mu must lie in (0, 1), got {mu}")
    if not 0.0 <= d < math.inf or n_bits < 1:
        raise ParameterError(f"need a finite d >= 0 and n_bits >= 1, got d={d}, n_bits={n_bits}")
    arg = d * d / (400.0 * n_bits * math.log(1.0 / mu))
    if arg <= 0.0:
        return -math.inf
    log_val = math.log2(arg) if outer_base2 else math.log(arg)
    return log_val / 3.0


@dataclass(frozen=True)
class ConsistencyReport:
    c1: float
    c2: float
    delta_ok: bool
    gamma_lambda_ok: bool  # gamma^(2 lambda) < 1/8
    amplification_ok: bool  # (2/gamma)^(4 K eta) <= 2^((c2-c1)/2)
    tail_ok: bool  # gamma^(2 lambda - 3 K eta) < 1/8
    locality_ok: bool  # 4 K eta < 1

    @property
    def all_ok(self) -> bool:
        return (
            self.delta_ok
            and self.gamma_lambda_ok
            and self.amplification_ok
            and self.tail_ok
            and self.locality_ok
        )


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base > 0, inf where the float overflows (K past about 10^5)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def check_parameter_consistency(p: RegimeParams) -> ConsistencyReport:
    c1, c2 = p.c1, p.c2
    return ConsistencyReport(
        c1=c1,
        c2=c2,
        delta_ok=0.0 < p.delta <= p.delta_cap and 0.0 < c1 < c2,
        gamma_lambda_ok=p.gamma ** (2.0 * p.lam) < 1.0 / 8.0,
        amplification_ok=_power(2.0 / p.gamma, 4.0 * p.K * p.eta) <= 2.0 ** ((c2 - c1) / 2.0),
        tail_ok=_power(p.gamma, 2.0 * p.lam - 3.0 * p.K * p.eta) < 1.0 / 8.0,
        locality_ok=4.0 * p.K * p.eta < 1.0,
    )


def _grid_size(nu1: float, nu2: float) -> int:
    """Points in the s grid of [1 - nu2, 1 - nu1], by np.arange's length rule."""
    return math.ceil((1.0 - nu1 + S_STEP / 2 - (1.0 - nu2)) / S_STEP)


def _window_rates(alpha: float, K: int, nu1: float, nu2: float) -> list[float]:
    """C(alpha, s, K) on the s grid of [1 - nu2, 1 - nu1], clipped to [0, 1]."""
    grid = np.clip(np.arange(1.0 - nu2, 1.0 - nu1 + S_STEP / 2, S_STEP), 0.0, 1.0)
    return [rate_exponent(alpha, float(s), K) for s in grid]


def window_sup_rate(alpha: float, K: int, nu1: float, nu2: float) -> float:
    """Grid sup of C(alpha, s, K) over s in [1 - nu2, 1 - nu1]."""
    return max(_window_rates(alpha, K, nu1, nu2))


def derive_eps(eta: float, K: int) -> float | None:
    """Largest geometric-grid eps making the Azuma tail strictly negative."""
    eps = min(math.ldexp(eta / (4.0 * K), -K), 0.25)  # eta / (4 K 2^K); 0.0, not an overflow, at large K
    for _ in range(600):
        if eps <= 0.0 or eps < 5e-300:
            return None
        value, in_regime = azuma_tail(eta, eps, K)
        if in_regime and value < 0.0:
            return eps
        eps /= 8.0
    return None


def scan_rows(alpha: float, K_values: Iterable[int]):
    """Every scan row (K, window, eps, params, report), feasible or not; generator.

    A K whose rate exponent never drops below -SLACK on a grid window yields
    (K, None, None, None, None).  Otherwise each point of the module grids
    DELTA_GRID x GAMMA_GRID x LAMBDA_GRID x ETA_GRID yields one row with
    window = (nu1, nu2), the derived eps (None when no grid eps certifies the
    Azuma tail; params then carry nan) and the parameter-ledger report.
    Before any row, an alpha outside (0.7, 1) or a K below 1 or past the
    largest float raises ParameterError.
    """
    if not 0.5 + 0.2 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (1/2 + 1/5, 1), got {alpha}")
    K_values = list(K_values)
    bad = [K for K in K_values if not 1 <= K <= sys.float_info.max]  # a larger int overflows a float
    if bad:
        raise ParameterError(f"--K-list entries must lie in [1, {sys.float_info.max:.3g}], "
                             f"got {bad[0]} in {K_values}")
    for K in K_values:
        window = first_feasible_window(alpha, K)
        if window is None:
            yield K, None, None, None, None
            continue
        nu1, nu2 = window
        for delta, gamma, lam, eta in product(DELTA_GRID, GAMMA_GRID, LAMBDA_GRID, ETA_GRID):
            eps = derive_eps(eta, K)
            params = RegimeParams(
                alpha=alpha, K=K, eps=math.nan if eps is None else eps, lam=lam, gamma=gamma,
                eta=eta, nu1=nu1, nu2=nu2, delta=delta,
            )
            yield K, window, eps, params, check_parameter_consistency(params)


def scan_regime(alpha: float, K_values: Iterable[int], max_results: int = 200) -> list[RegimeParams]:
    """The first max_results feasible (K, nu1, nu2, eps, lambda, gamma, eta, delta) tuples.

    The scan runs scan_rows on the module grids.  A tuple is
    feasible when the rate exponent stays below -SLACK on the [1-nu2, 1-nu1]
    window, the Azuma coverage event certifies at the derived eps, and all
    parameter-ledger constraints hold.  The scan stops at the max_results-th.
    """
    rows = scan_rows(alpha, K_values)
    feasible = (params for _, _, eps, params, report in rows if eps is not None and report.all_ok)
    return list(islice(feasible, max_results))


def first_feasible_window(alpha: float, K: int) -> tuple[float, float] | None:
    """Smallest (nu1, nu2) grid pair with nu1 < nu2/2 whose window sup is <= -SLACK.

    Pairs are tried nu2-major and nu1 ascending; the first one found is
    returned.  nu runs over np.arange(NU_STEP, 0.5, NU_STEP) below 0.5.  For
    one nu2 the s grid of every window is
    np.arange(1 - nu2, 1 - nu1 + S_STEP/2, S_STEP), whose points are
    start + i*step whatever the stop, so each window is a prefix of the
    window of the smallest nu1.  That grid is evaluated once, and its running
    maximum is read at each window's last index.  A prefix maximum is exact,
    so each sup, and hence the window found, is the same float that a
    window-by-window search with window_sup_rate gives.
    """
    nus = [float(nu) for nu in np.arange(NU_STEP, 0.5, NU_STEP) if nu < 0.5]
    for nu2 in nus:
        nu1s = nus[: bisect_left(nus, nu2 / 2.0)]  # every nu1 < nu2/2, ascending
        if not nu1s:
            continue
        sups = list(accumulate(_window_rates(alpha, K, nus[0], nu2), max))
        for nu1 in nu1s:
            if sups[_grid_size(nu1, nu2) - 1] <= -SLACK:
                return nu1, nu2
    return None
