"""Random K-SAT formulas and their clause/variable incidence structure.

Clauses are ordered lists of exactly K literals, drawn uniformly with
replacement from the (2n)^K possible clauses.  A clause whose variables all
admit a consistent falsifying value has a unique violating pattern v(C);
clauses containing a variable with both polarities are tautologies and are
treated as always satisfied.

Assignments are packed bit masks (bit i = value of variable i), so clause
evaluation reduces to one mask-and-compare per clause.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, allowance, check_budget, refuse_at_least

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool

    def falsifying_value(self) -> int:
        """Variable value that falsifies this literal (0 positive, 1 negated)."""
        return 1 if self.negated else 0


@dataclass(frozen=True)
class Clause:
    """Ordered K literals plus the precomputed violating pattern.

    ``violating_pattern`` is the per-slot falsifying bit string v(C), or None
    when the clause is a tautology (some variable occurs with both signs).
    """

    literals: tuple[Literal, ...]

    @cached_property
    def violating_pattern(self) -> tuple[int, ...] | None:
        forced: dict[int, int] = {}
        for lit in self.literals:
            value = lit.falsifying_value()
            if forced.setdefault(lit.var, value) != value:
                return None
        return tuple(lit.falsifying_value() for lit in self.literals)

    @cached_property
    def variables(self) -> tuple[int, ...]:
        return tuple(lit.var for lit in self.literals)

    @cached_property
    def variable_set(self) -> frozenset[int]:
        return frozenset(self.variables)

    @property
    def is_tautology(self) -> bool:
        return self.violating_pattern is None

    @cached_property
    def mask_value(self) -> tuple[int, int] | None:
        """(mask, value) over packed assignments; violated iff a & mask == value."""
        if self.is_tautology:
            return None
        mask = 0
        value = 0
        for lit in self.literals:
            mask |= 1 << lit.var
            if lit.negated:
                value |= 1 << lit.var
        return mask, value

    def violated_by(self, packed: int) -> bool:
        mv = self.mask_value
        if mv is None:
            return False
        mask, value = mv
        return (packed & mask) == value


@dataclass(frozen=True)
class Formula:
    n: int
    K: int
    clauses: tuple[Clause, ...]
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.K < 1:
            raise ParameterError(f"need n >= 1 and K >= 1, got n={self.n}, K={self.K}")
        for c in self.clauses:
            if len(c.literals) != self.K:
                raise ParameterError("clause width differs from K")
            for lit in c.literals:
                if not 0 <= lit.var < self.n:
                    raise ParameterError(f"literal variable {lit.var} out of range [0, {self.n})")

    @property
    def m(self) -> int:
        return len(self.clauses)

    @cached_property
    def clause_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(masks, values, indices) of the non-tautological clauses, as uint64."""
        masks, values, idx = [], [], []
        for j, c in enumerate(self.clauses):
            mv = c.mask_value
            if mv is not None:
                masks.append(mv[0])
                values.append(mv[1])
                idx.append(j)
        return (
            np.asarray(masks, dtype=np.uint64),
            np.asarray(values, dtype=np.uint64),
            np.asarray(idx, dtype=np.int64),
        )


def clause_count(alpha: float, K: int, n: int) -> int:
    """m = round(alpha * 2^K * ln2 * n), round-to-nearest; exact past the float range."""
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    try:
        m = round(alpha * 2.0**K * LN2 * n)
    except OverflowError:  # 2^K or the product is past the largest float
        num, s = _dyadic(alpha, n)
        if num < 0 and K >= s:  # refused before num 2^(K - s), about K bits, is built
            raise ParameterError("derived clause count is negative") from None
        m = num << (K - s) if K >= s else round(Fraction(num, 1 << s) * Fraction(2) ** K)
    if m < 0:
        raise ParameterError("derived clause count is negative")
    return m


def _dyadic(alpha: float, n: int) -> tuple[int, int]:
    """(num, s) with alpha * ln2 * n = num / 2^s exactly: both floats are dyadic rationals."""
    c = Fraction(alpha) * Fraction(LN2) * n
    return c.numerator, c.denominator.bit_length() - 1


def check_literal_budget(alpha: float, K: int, n: int) -> None:
    """Refuse under literal_budget, before m = clause_count(alpha, K, n) is built, a K over it alone.

    At alpha > 0, n >= 1 and K >= max(s, 1024), clause_count's m is
    num 2^(K - s) >= 1, so m K is over the budget; the refusal names the power
    of two m K reaches, 2^(K - s + bitlen(num K) - 1), which needs no m.
    Every other input is left to clause_count and generate_formula.
    """
    if 0 < alpha < math.inf and n >= 1 and K > allowance("literal_budget"):
        num, s = _dyadic(alpha, n)
        if K >= max(s, 1024):  # 2.0**K overflows from 1024 on
            refuse_at_least("literal_budget", K - s + (num * K).bit_length() - 1, "the formula", "literals")


def generate_formula(n: int, m: int, K: int, seed: int) -> Formula:
    """Draw m clauses uniformly (ordered literals, variables with repetition)."""
    if n < 1 or K < 1:
        raise ParameterError(f"need n >= 1 and K >= 1, got n={n}, K={K}")
    if m < 0:
        raise ParameterError("m must be nonnegative")
    check_budget("literal_budget", m * K, "the formula", "literals")
    rng = np.random.default_rng(seed)
    # One uniform draw from [0, 2n) per slot: low bit = polarity.
    raw = rng.integers(0, 2 * n, size=(m, K), dtype=np.int64)
    clauses = tuple(
        Clause(tuple(Literal(int(v) // 2, bool(int(v) & 1)) for v in row)) for row in raw
    )
    return Formula(n=n, K=K, clauses=clauses, seed=seed)


def pack_assignment(bits: Sequence[int] | int, n: int) -> int:
    if isinstance(bits, (int, np.integer)):
        packed = int(bits)
        if not 0 <= packed < (1 << n):
            raise ParameterError(f"packed assignment out of range for n={n}")
        return packed
    if len(bits) != n:
        raise ParameterError(f"assignment length {len(bits)} != n={n}")
    packed = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ParameterError("assignment entries must be 0/1")
        packed |= int(b) << i
    return packed


def count_violations(f: Formula, assignment: Sequence[int] | int) -> int:
    """Number of clauses violated by the assignment (tautologies never count)."""
    packed = pack_assignment(assignment, f.n)
    return sum(c.violated_by(packed) for c in f.clauses)


def clauses_within(f: Formula, S: Iterable[int]) -> frozenset[int]:
    """C(S): indices of clauses whose variables all lie in S."""
    S = frozenset(S)
    if any(not 0 <= i < f.n for i in S):
        raise ParameterError("subset contains out-of-range variable index")
    return frozenset(j for j, c in enumerate(f.clauses) if c.variable_set <= S)


def eta_exact_excluded(f: Formula, excluded: int) -> float:
    """eta = (1/n) max over |S| = n - excluded of (m - |C(S)|), exhaustively.

    Equivalently: the largest number of clauses touching any excluded set of
    the given size, divided by n.  The clauses touching a set are the OR of
    its variables' clause bitsets (bit j: clause j contains the variable).
    """
    if not 0 <= excluded <= f.n:
        raise ParameterError("excluded count out of range")
    if excluded == 0 or f.m == 0:
        return 0.0
    n_subsets = math.comb(f.n, excluded)
    check_budget("eta_budget", n_subsets, "eta_exact", "excluded sets")
    bitsets = [0] * f.n
    for j, c in enumerate(f.clauses):
        for v in c.variable_set:
            bitsets[v] |= 1 << j
    return max(reduce(or_, chosen).bit_count() for chosen in combinations(bitsets, excluded)) / f.n


def eta_exact(f: Formula, eps: float) -> float:
    """eta for subsets of size exactly n - ceil(eps * n)."""
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must be in [0, 1)")
    return eta_exact_excluded(f, math.ceil(eps * f.n))


def repeated_variable_stats(f: Formula) -> dict:
    """Frequency of clauses with duplicate variables / tautologies per instance."""
    dup = sum(1 for c in f.clauses if len(c.variable_set) < f.K)
    taut = sum(1 for c in f.clauses if c.is_tautology)
    m = max(f.m, 1)
    return {
        "m": f.m,
        "duplicate_variable_clauses": dup,
        "tautological_clauses": taut,
        "duplicate_fraction": dup / m,
        "tautology_fraction": taut / m,
    }


# ---------------------------------------------------------------------------
# DIMACS-compatible serialization (plus JSON sidecar with K / seed / alpha)
# ---------------------------------------------------------------------------

def to_dimacs(f: Formula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    for c in f.clauses:
        toks = [str(-(lit.var + 1)) if lit.negated else str(lit.var + 1) for lit in c.literals]
        lines.append(" ".join(toks) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str, K: int | None = None, seed: int | None = None) -> Formula:
    """Parse DIMACS CNF: a ``p cnf n m`` header, then m 0-terminated clauses.

    Clauses are read from the stream of tokens, so a line may hold several
    clauses and a clause may span lines.  Lines starting with ``c`` are
    comments; a line starting with ``%`` (the SATLIB trailer) ends the input.
    """
    n = None
    m_declared = None
    clauses: list[Clause] = []
    lits: list[Literal] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not (parts[2] + parts[3]).isdigit():
                raise ParameterError(f"malformed DIMACS header: {line!r}")
            n, m_declared = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            try:
                t = int(tok)
            except ValueError:
                raise ParameterError(f"malformed DIMACS literal {tok!r} in line {line!r}") from None
            if t == 0:
                clauses.append(Clause(tuple(lits)))
                lits = []
            else:
                lits.append(Literal(abs(t) - 1, t < 0))
    if lits:
        raise ParameterError(f"last clause not 0-terminated: {len(lits)} literals after the last 0")
    if n is None:
        raise ParameterError("missing DIMACS header")
    if m_declared != len(clauses):
        raise ParameterError(f"header declares {m_declared} clauses, found {len(clauses)}")
    if K is None:
        K = len(clauses[0].literals) if clauses else 1
    return Formula(n=n, K=K, clauses=tuple(clauses), seed=seed)


def save_formula(f: Formula, path: str | Path, alpha: float | None = None) -> None:
    path = Path(path)
    path.write_text(to_dimacs(f))
    sidecar = {"n": f.n, "K": f.K, "m": f.m, "seed": f.seed, "alpha": alpha}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_formula(path: str | Path) -> Formula:
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    K = seed = None
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        K = sidecar.get("K")
        seed = sidecar.get("seed")
    return from_dimacs(path.read_text(), K=K, seed=seed)
