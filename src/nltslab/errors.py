"""Exception hierarchy shared by all modules.

The CLI maps these onto distinct exit codes (validation 2, resource 3,
internal assertion 4).  Every refusal of a budget is built by ``check_budget``
or ``ResourceLimitError`` from the budget's name, requested and allowed amounts.
"""


class ParameterError(ValueError):
    """Invalid argument: bad sizes, indices out of range, malformed intervals."""


class ResourceLimitError(RuntimeError):
    """A budget would be exceeded; ``requested`` is None for work not priced up front."""

    def __init__(self, budget_name: str, requested: int | None, allowed: int, message: str):
        super().__init__(message)
        self.budget_name = budget_name
        self.requested = requested
        self.allowed = allowed


def check_budget(budget_name: str, requested: int, allowed: int, what: str, unit: str) -> None:
    """Raise ResourceLimitError when ``requested`` exceeds ``allowed``."""
    if requested > allowed:
        raise ResourceLimitError(budget_name, requested, allowed,
                                 f"{what} needs {requested} {unit}, over budget {allowed}")


class ContractError(RuntimeError):
    """A postcondition or certificate re-check failed.

    Carries an optional witness (e.g. the offending pair of assignments).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
