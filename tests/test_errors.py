import math
from pathlib import Path

import numpy as np
import pytest

from nltslab import errors, hamiltonian, ksat, landscape, pspin
from nltslab.errors import ParameterError, ResourceLimitError, check_budget


def _layout(n, K, m):
    return hamiltonian.build_layout(ksat.generate_formula(n, m, K, seed=0))


def _spins(n):
    g = pspin.generate_regular_hypergraph(n, 2, 2, seed=0)
    return g, pspin.generate_couplings(g, 1)


# each budget: (a call its table entry refuses, requested)
BUDGETS = {
    "enum_cap": (lambda: landscape.enumerate_sat(ksat.generate_formula(31, 3, 2, seed=0), r=0), 31),
    "eps_budget": (lambda: landscape.enumerate_sat_eps(ksat.generate_formula(30, 10, 3, seed=0), eps=0.5, r=0),
                   math.comb(30, 15) << 30),
    "pair_cap": (lambda: landscape.overlap_histogram(
        landscape.SolutionSet(n=21, members=np.arange((1 << 20) + 1), r=0)), (1 << 20) + 1),
    "qubit_cap": (lambda: _layout(4, 3, 7), 21),
    "basis_cap": (lambda: next(hamiltonian.w_elements_cat_on(_layout(6, 3, 6), ())), 18),
    "eta_budget": (lambda: ksat.eta_exact_excluded(ksat.generate_formula(30, 10, 3, seed=0), 15),
                   math.comb(30, 15)),
    "retry_budget": (lambda: pspin.generate_regular_hypergraph(1, 2, 2, seed=0), None),
    "literal_budget": (lambda: ksat.generate_formula(10, 500_000, 3, seed=0), 1_500_000),
}


def test_every_table_entry_has_one_case():
    assert sorted(BUDGETS) == sorted(errors.BUDGETS)
    assert set(errors.OVERRIDES) <= set(errors.BUDGETS)


def test_readme_names_every_budget_and_override():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name in [*errors.BUDGETS, *errors.OVERRIDES.values()]:
        assert f"`{name}`" in readme, name


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_every_budget_reports_its_amounts(budget):
    call, requested = BUDGETS[budget]
    allowed = errors.BUDGETS[budget]
    with pytest.raises(ResourceLimitError) as exc:
        call()
    assert (exc.value.budget_name, exc.value.requested, exc.value.allowed) == (budget, requested, allowed)
    assert str(allowed) in str(exc.value)
    assert requested is None or str(requested) in str(exc.value)


# each variable: (a library call it refuses when set to the value, requested)
OVERRIDDEN = {
    "NLTSLAB_ENUM_CAP": ("enum_cap", 5, lambda: landscape.enumerate_sat(ksat.generate_formula(10, 3, 2, seed=0), r=0),
                         10),
    "NLTSLAB_QUBIT_CAP": ("qubit_cap", 5, lambda: _layout(3, 2, 3), 6),
    "NLTSLAB_PAIR_CAP": ("pair_cap", 2, lambda: landscape.overlap_histogram(
        landscape.SolutionSet(n=3, members=[0, 1, 2], r=0)), 3),
}


@pytest.mark.parametrize("variable", sorted(OVERRIDDEN))
def test_override_variable_lowers_its_budget_for_a_library_call(monkeypatch, variable):
    budget, value, call, requested = OVERRIDDEN[variable]
    assert errors.OVERRIDES[budget] == variable
    monkeypatch.setenv(variable, str(value))
    with pytest.raises(ResourceLimitError) as exc:
        call()
    assert (exc.value.budget_name, exc.value.requested, exc.value.allowed) == (budget, requested, value)
    monkeypatch.setenv(variable, "")  # an empty variable leaves the table entry
    assert errors.allowance(budget) == errors.BUDGETS[budget]


def test_malformed_override_names_the_variable_and_the_value(monkeypatch):
    monkeypatch.setenv("NLTSLAB_ENUM_CAP", "lots")
    with pytest.raises(ParameterError, match="NLTSLAB_ENUM_CAP='lots'"):
        pspin.ground_state_bruteforce(*_spins(4))


def test_eta_budget_variable_is_not_read_by_the_library(monkeypatch):
    monkeypatch.setenv("NLTSLAB_ETA_BUDGET", "1")
    assert errors.allowance("eta_budget") == errors.BUDGETS["eta_budget"]
    assert ksat.eta_exact_excluded(ksat.generate_formula(8, 6, 3, seed=0), 2) > 0


def test_spin_cap_variable_is_not_read_by_the_library(monkeypatch):
    # the p-spin cube scan is priced by enum_cap, so only NLTSLAB_ENUM_CAP lowers it
    monkeypatch.setenv("NLTSLAB_SPIN_CAP", "1")
    assert "spin_cap" not in errors.BUDGETS and "NLTSLAB_SPIN_CAP" not in errors.OVERRIDES.values()
    assert pspin.ground_state_bruteforce(*_spins(4))[1] < 0
    monkeypatch.setenv("NLTSLAB_ENUM_CAP", "3")
    with pytest.raises(ResourceLimitError) as exc:
        pspin.ground_state_bruteforce(*_spins(4))
    assert (exc.value.budget_name, exc.value.requested, exc.value.allowed) == ("enum_cap", 4, 3)
    assert str(exc.value) == "the spin cube scan needs 4 spins, over budget 3"


def test_check_budget_refuses_only_above_the_allowance(monkeypatch):
    monkeypatch.setitem(errors.BUDGETS, "b", 3)
    check_budget("b", 3, "the job", "units")
    with pytest.raises(ResourceLimitError, match="^the job needs 4 units, over budget 3$"):
        check_budget("b", 4, "the job", "units")
