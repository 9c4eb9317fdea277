"""Exception hierarchy shared by all modules, and the resource budget table.

The CLI maps these onto distinct exit codes (validation 2, resource 3,
internal assertion 4).  Every refusal of a budget is built by ``check_budget``
or ``ResourceLimitError`` from the budget's name, requested and allowed amounts;
the allowance is the budget's ``BUDGETS`` entry, or its ``OVERRIDES`` variable
when that is set, read where the budget is checked.
"""

import os
from typing import NoReturn

#: Every resource allowance, by budget name.
BUDGETS = {
    "enum_cap": 30,  # variables or spins of a 2^n cube scan: K-SAT enumeration and the p-spin scan
    # members of a set given to the pair kernels.  It counts members, not work:
    # the tiled histogram (sparse sets, n > 24) and the OGP witness search sweep
    # up to |A|^2/2 pairs, a dense set's Walsh histogram costs n 2^n, and
    # cluster adds its candidate and intra-cluster pairs or one more sweep.
    "pair_cap": 1 << 20,
    "eps_budget": 1 << 34,  # enumerate_sat_eps's mask-word tests: C(n, excluded) 2^n 64-clause words
    # qubits of a layout, checked when it is built: every state vector, violation
    # table and consistent-string set on it holds at most 2^qubits entries
    "qubit_cap": 20,
    "basis_cap": 16,  # free qubits of W(S), log2 of its elements; full-basis enumeration is exponential
    "eta_budget": 2_000_000,  # excluded-variable sets eta_exact_excluded visits
    "retry_budget": 10_000,  # configuration-model draws of generate_regular_hypergraph
    # literals m*K that generate_formula draws; each holds about 150 bytes as
    # Clause and Literal objects, so the cap is about 150 MB
    "literal_budget": 1_000_000,
}
#: The environment variables that override a budget's entry, such as NLTSLAB_ENUM_CAP.
OVERRIDES = {name: f"NLTSLAB_{name.upper()}" for name in ("enum_cap", "qubit_cap", "pair_cap")}


class ParameterError(ValueError):
    """Invalid argument: bad sizes, indices out of range, malformed intervals."""


class ResourceLimitError(RuntimeError):
    """A budget would be exceeded; ``requested`` is None for work not priced up front,
    or priced at more digits than Python turns into a string."""

    def __init__(self, budget_name: str, requested: int | None, allowed: int, message: str):
        super().__init__(message)
        self.budget_name = budget_name
        self.requested = requested
        self.allowed = allowed


def allowance(budget_name: str) -> int:
    """The budget's allowance: its override variable's integer if set, else its table entry."""
    variable = OVERRIDES.get(budget_name)
    raw = os.environ.get(variable) if variable else None
    if not raw:
        return BUDGETS[budget_name]
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{variable}={raw!r} is not an integer") from None


def check_budget(budget_name: str, requested: int, what: str, unit: str) -> None:
    """Raise ResourceLimitError when ``requested`` exceeds the budget's allowance."""
    allowed = allowance(budget_name)
    if requested > allowed:
        try:
            amount = str(requested)
        except ValueError:  # past sys.get_int_max_str_digits()
            refuse_at_least(budget_name, requested.bit_length() - 1, what, unit)
        raise ResourceLimitError(budget_name, requested, allowed,
                                 f"{what} needs {amount} {unit}, over budget {allowed}")


def refuse_at_least(budget_name: str, bits: int, what: str, unit: str) -> NoReturn:
    """Refuse an amount over the budget's allowance known only to reach 2^bits: ``requested`` None."""
    allowed = allowance(budget_name)
    raise ResourceLimitError(budget_name, None, allowed,
                             f"{what} needs at least 2^{bits} {unit}, over budget {allowed}")


class ContractError(RuntimeError):
    """A postcondition or certificate re-check failed.

    Carries an optional witness (e.g. the offending pair of assignments).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
