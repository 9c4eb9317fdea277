import math

import pytest

from conftest import make_demo_formula
from nltslab import hamiltonian, ksat, landscape, pspin, theory
from nltslab.errors import ResourceLimitError, check_budget


def _layout():
    return hamiltonian.build_layout(make_demo_formula())


def _free_qubits(layout):
    return sum(len(layout.fibers[i]) for i in layout.active_variables)


def _spins(n):
    g = pspin.generate_regular_hypergraph(n, 2, 2, seed=0)
    return g, pspin.generate_couplings(g, 1)


# each budget: (the refused call, budget name, requested, allowed)
BUDGETS = {
    "enum_cap": (lambda: landscape.enumerate_sat(ksat.generate_formula(12, 3, 2, seed=0), r=0, cap=10), 12, 10),
    "eps_budget": (lambda: landscape.enumerate_sat_eps(make_demo_formula(), eps=1 / 3, r=0, budget=1),
                   math.comb(3, 1) << 3, 1),
    "pair_cap": (lambda: landscape.overlap_histogram(landscape.SolutionSet(n=3, members=[0, 1, 2], r=0), cap=2),
                 3, 2),
    "qubit_cap": (lambda: hamiltonian.build_layout(make_demo_formula(), cap=5), 6, 5),
    "basis_cap": (lambda: next(hamiltonian.w_elements_cat_on(_layout(), (), cap=2)), _free_qubits(_layout()), 2),
    "sbar_cap": (lambda: hamiltonian.consistent_strings(_layout(), (), cap_log2=3), _free_qubits(_layout()), 3),
    "eta_budget": (lambda: ksat.eta_exact_excluded(ksat.generate_formula(20, 10, 3, seed=0), 10, budget=100),
                   math.comb(20, 10), 100),
    "spin_cap": (lambda: pspin.ground_state_bruteforce(*_spins(10), cap=8), 10, 8),
    "retry_budget": (lambda: pspin.generate_regular_hypergraph(1, 2, 2, seed=0, retry_budget=10), None, 10),
    "rate_eval_budget": (lambda: next(theory.scan_rows(0.75, [8], 0.005, 1e-9)), 24250000097,
                         theory.RATE_EVAL_BUDGET),
}


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_every_budget_reports_its_amounts(budget):
    call, requested, allowed = BUDGETS[budget]
    with pytest.raises(ResourceLimitError) as exc:
        call()
    assert (exc.value.budget_name, exc.value.requested, exc.value.allowed) == (budget, requested, allowed)
    assert str(allowed) in str(exc.value)
    assert requested is None or str(requested) in str(exc.value)


def test_check_budget_refuses_only_above_the_allowance():
    check_budget("b", 3, 3, "the job", "units")
    with pytest.raises(ResourceLimitError, match="^the job needs 4 units, over budget 3$"):
        check_budget("b", 4, 3, "the job", "units")
