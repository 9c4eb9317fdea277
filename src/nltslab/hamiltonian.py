"""CAT / Q(gamma) Hamiltonian construction and matrix-free state-vector ops.

One qubit per clause slot: qubit (j, k) holds the k-th literal of clause j
and gets global index j*K + k (bit q of a basis-state index is qubit q).
Each variable owns the fiber D(i) of its clause-slot qubits; the fibers are
disjoint and cover all qubits.  Constraints are "forbidden pattern" blocks:
a K-SAT clause forbids its single violating pattern v(C) (none for a
tautology), a quantized p-spin hyperedge forbids the 2^(p-1) energy-raising
sign patterns.  All Q operators are diagonal, so everything is applied
matrix-free; per-amplitude violation counts are accumulated as integers and
exponentiated once.  Each vector pass (``violation_counts``,
``apply_q_gamma``, ``project_out_cat``) holds its input, at most one output
state and at most one more byte per amplitude, besides fixed-size chunks:
counts are kept in the narrowest unsigned type that holds the selected
constraint count, complex factors are gathered and multiplied in chunks of
``_GATHER_CHUNK`` amplitudes and the fiber mean is taken in chunks of about
``_MEAN_CHUNK``.  ``apply_q_gamma`` and ``project_out_cat`` return a fresh
state, or write into their input given ``out=psi``; ``apply_h_i`` makes one
fresh state and runs its other two passes in it.  Nothing state-sized is
cached on a layout, so violation counts are recomputed for each pass that
needs them.  The measurement distribution is held per support entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import ksat
from .errors import ContractError, ParameterError, check_budget
from .ksat import Formula
from .landscape import _bit_strings, _subset_fold

INV_SQRT2 = 1.0 / math.sqrt(2.0)
#: gamma below this underflows double precision at large violation counts.
MIN_GAMMA = 0.1
#: vector passes per active variable in ``energy``: two ``violation_counts``,
#: two ``apply_q_gamma`` and one ``project_out_cat``
ENERGY_PASSES_PER_VARIABLE = 5
#: amplitudes per chunk of ``apply_q_gamma``'s factor gather, which indexes with intp
_GATHER_CHUNK = 1 << 14
#: amplitudes, about, per chunk of ``project_out_cat``'s fiber mean; numpy also
#: buffers each strided operand up to a chunk, so a larger chunk raises the peak
_MEAN_CHUNK = 1 << 12
#: support entries per chunk of ``measurement_rows``' strings
_ROW_CHUNK = 1 << 12
#: _REVERSED_BYTE[b] is the byte b with its 8 bits in reverse order
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
#: measurement_support refuses a state whose norm is further from 1 than this
#: plus 2^-52 per support entry, which bounds the rounding of a norm of N
#: normalized amplitudes, about (N/4 + 1) 2^-52 (Higham 2002, section 3.1).
_NORM_TOL = 1e-12
#: near_ground_state refuses a state with <psi|H_i|psi> above this for some i in S.
_VERIFY_TOL = 1e-10
#: check_probability_bound counts a bound or sandwich entry past this relative slack as violated.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Constraint:
    """A forbidden-pattern block on its own contiguous set of qubits.

    ``forbidden`` holds local patterns as integers (bit k = value on
    ``qubits[k]``) whose presence costs one unit of energy / one factor gamma.
    """

    qubits: tuple[int, ...]
    variables: tuple[int, ...]
    forbidden: tuple[int, ...]

    @cached_property
    def global_mask(self) -> int:
        return sum(1 << q for q in self.qubits)

    @cached_property
    def global_values(self) -> tuple[int, ...]:
        return tuple(_scatter(pat, self.qubits) for pat in self.forbidden)


@dataclass(frozen=True)
class QubitLayout:
    """Qubits, constraints and fibers.  Building one checks qubit_cap, so every
    state vector, violation table and string set made from it is bounded."""

    num_qubits: int
    num_variables: int
    constraints: tuple[Constraint, ...]
    fibers: tuple[tuple[int, ...], ...]  # D(i), ascending qubit order

    def __post_init__(self):
        check_budget("qubit_cap", self.num_qubits, "the layout", "qubits")
        seen: set[int] = set()
        for fiber in self.fibers:
            for q in fiber:
                if q in seen:
                    raise ParameterError("fibers must be disjoint")
                seen.add(q)
        if seen != set(range(self.num_qubits)):
            raise ParameterError("fibers must cover all qubits")

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """C(x_i): constraint indices per variable."""
        inc: list[list[int]] = [[] for _ in range(self.num_variables)]
        for j, c in enumerate(self.constraints):
            for v in set(c.variables):
                inc[v].append(j)
        return tuple(tuple(ix) for ix in inc)

    @cached_property
    def fiber_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << q for q in fiber) for fiber in self.fibers)

    @cached_property
    def active_variables(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.num_variables) if self.fibers[i])

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def content_hash(self) -> str:
        payload = json.dumps(
            {
                "num_qubits": self.num_qubits,
                "num_variables": self.num_variables,
                "constraints": [
                    [list(c.qubits), list(c.variables), list(c.forbidden)]
                    for c in self.constraints
                ],
                "fibers": [list(f) for f in self.fibers],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class StateVector:
    layout: QubitLayout
    amp: np.ndarray  # complex128, length layout.dim

    def __post_init__(self):
        self.amp = np.asarray(self.amp, dtype=np.complex128)
        if self.amp.shape != (self.layout.dim,):
            raise ParameterError("amplitude array length must be 2^(num qubits)")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def normalized(self) -> "StateVector":
        return _normalize(StateVector(self.layout, self.amp.copy()))


def _normalize(psi: StateVector) -> StateVector:
    """Divide psi by its norm in place and return it."""
    nrm = psi.norm()
    if nrm == 0.0:
        raise ParameterError("cannot normalize the zero vector")
    psi.amp /= nrm
    return psi


def layout_from_blocks(
    blocks: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    num_variables: int,
) -> QubitLayout:
    """Build a layout from (variables, forbidden patterns) blocks.

    Block b of arity p occupies the next p global qubits.
    """
    constraints: list[Constraint] = []
    fibers: list[list[int]] = [[] for _ in range(num_variables)]
    q = 0
    for variables, forbidden in blocks:
        qubits = tuple(range(q, q + len(variables)))
        q += len(variables)
        for slot, v in enumerate(variables):
            if not 0 <= v < num_variables:
                raise ParameterError("block variable index out of range")
            fibers[v].append(qubits[slot])
        constraints.append(Constraint(qubits=qubits, variables=tuple(variables), forbidden=tuple(forbidden)))
    return QubitLayout(
        num_qubits=q,
        num_variables=num_variables,
        constraints=tuple(constraints),
        fibers=tuple(tuple(f) for f in fibers),
    )


def build_layout(f: Formula) -> QubitLayout:
    """Km-qubit layout for a K-SAT formula; clause j owns qubits j*K .. j*K+K-1."""
    blocks = []
    for c in f.clauses:
        pat = c.violating_pattern
        if pat is None:
            forbidden: tuple[int, ...] = ()
        else:
            forbidden = (sum(b << k for k, b in enumerate(pat)),)
        blocks.append((c.variables, forbidden))
    return layout_from_blocks(blocks, num_variables=f.n)


def violation_counts(layout: QubitLayout, constraint_ids: Iterable[int] | None = None) -> np.ndarray:
    """Per-basis-index count of constraints whose local pattern is forbidden.

    An outer sum of tables over the high nq - L and the low L qubits, where L
    is the split nearest nq/2 that no selected constraint straddles (0 or nq).
    Counts come in the narrowest unsigned type that holds the number of
    selected constraints, one byte each below 256.
    """
    nq = layout.num_qubits
    ids = range(len(layout.constraints)) if constraint_ids is None else constraint_ids
    selected = [layout.constraints[j] for j in ids]
    spans = [(min(c.qubits), max(c.qubits)) for c in selected if c.qubits]
    L = min(
        (b for b in range(nq + 1) if all(last < b or first >= b for first, last in spans)),
        key=lambda b: abs(2 * b - nq),
    )
    dtype = np.min_scalar_type(len(selected))
    lo, hi = np.zeros(1 << L, dtype=dtype), np.zeros(1 << (nq - L), dtype=dtype)
    idx = np.arange(max(lo.size, hi.size), dtype=np.uint64)
    for c in selected:
        table, shift = (lo, 0) if c.global_mask < 1 << L else (hi, L)
        mask = np.uint64(c.global_mask >> shift)
        for gval in c.global_values:
            table += (idx[: table.size] & mask) == np.uint64(gval >> shift)
    return (hi[:, None] + lo[None, :]).ravel()


def cat_state(layout: QubitLayout) -> StateVector:
    """Tensor product of (|0..0> + |1..1>)/sqrt(2) over every nonempty fiber."""
    return basis_element_vector(layout, cat_basis_element(layout))


def check_gamma(gamma: float, sign: int = 1):
    """Refuse a gamma that Q(gamma)^sign cannot apply: outside (0, 1], or below MIN_GAMMA for the inverse."""
    if not 0.0 < gamma <= 1.0:
        if gamma == 0.0 and sign == -1:
            raise ParameterError("gamma=0 is not invertible")
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if gamma < MIN_GAMMA and sign == -1:
        raise ParameterError(
            f"gamma={gamma} below {MIN_GAMMA}: inverse application risks overflow/underflow"
        )


def _in_place_array(psi: StateVector, out: StateVector | None) -> np.ndarray | None:
    """The array an in-place pass writes (``psi.amp``), or None for a fresh output.

    Only ``psi`` itself is accepted as ``out``, and only with a C-contiguous,
    writeable array: a reshape of a strided array is a copy, so writes into
    it would be lost.
    """
    if out is None:
        return None
    if out is not psi:
        raise ParameterError("out must be None or the input state itself")
    if not (psi.amp.flags.c_contiguous and psi.amp.flags.writeable):
        raise ParameterError("an in-place pass needs a C-contiguous, writeable amplitude array")
    return psi.amp


def apply_q_gamma(
    psi: StateVector,
    gamma: float,
    sign: int = 1,
    constraint_ids: Iterable[int] | None = None,
    *,
    out: StateVector | None = None,
) -> StateVector:
    """Diagonal map: amplitude of z scaled by gamma^(sign * violations_J(z)).

    J is ``constraint_ids``, every constraint when None.  ``out=psi`` scales
    psi in place and returns it; None returns a fresh state.
    """
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    check_gamma(gamma, sign)
    target = _in_place_array(psi, out)
    viol = violation_counts(psi.layout, constraint_ids)
    vmax = int(viol.max()) if viol.size else 0
    powers = gamma ** (sign * np.arange(vmax + 1, dtype=np.float64))
    # a complex factor (p + 0j) times the amplitude gives the bits of
    # psi.amp * powers[viol]: one product per component is exactly +-0; take
    # indexes with an intp copy of the counts, so gather a chunk at a time,
    # into the fresh output or, in place, into a chunk buffer
    factors = powers.astype(np.complex128)
    fresh = target is None
    if fresh:
        target = np.empty_like(psi.amp)
    else:
        buf = np.empty(min(_GATHER_CHUNK, target.size), dtype=np.complex128)
    for start in range(0, target.size, _GATHER_CHUNK):
        part = slice(start, start + _GATHER_CHUNK)
        chunk = target[part] if fresh else buf[: min(_GATHER_CHUNK, target.size - start)]
        np.take(factors, viol[part], out=chunk, mode="clip")  # "raise" would buffer out
        np.multiply(chunk, psi.amp[part], out=target[part])
    return out if out is not None else StateVector(psi.layout, target)


def _fiber_slabs(amp: np.ndarray, num_qubits: int, fiber: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``amp`` with every fiber qubit at 0, and at 1.

    Adjacent qubits of one kind share an axis (the first axis holds the top
    qubits), so a slab has one axis per run of qubits off the fiber, and a
    trailing unit axis, so that no slab is 0-d, even when the fiber holds
    every qubit.
    """
    runs: list[list] = []  # [on the fiber, qubits], from the top qubit down
    on = set(fiber)
    for q in reversed(range(num_qubits)):
        if runs and runs[-1][0] == (q in on):
            runs[-1][1] += 1
        else:
            runs.append([q in on, 1])
    view = amp.reshape([*(1 << size for _, size in runs), 1])
    return (view[tuple(0 if fib else slice(None) for fib, _ in runs)],
            view[tuple(-1 if fib else slice(None) for fib, _ in runs)])


def project_out_cat(psi: StateVector, variable: int, *, out: StateVector | None = None) -> StateVector:
    """(I - |CAT(i)><CAT(i)|) applied on the fiber D(i).

    ``out=psi`` projects psi in place and returns it; None returns a fresh state.
    """
    target = _in_place_array(psi, out)
    if target is None:
        target = psi.amp.copy()  # strings mixed on the fiber pass through
    fiber = psi.layout.fibers[variable]
    if not fiber:
        # no qubits carry this variable; its CAT projector is trivial
        target[...] = 0.0
    else:
        s0, s1 = _fiber_slabs(target, psi.layout.num_qubits, fiber)
        # the fiber mean s = (a0 + a1) / 2, a chunk of about _MEAN_CHUNK
        # amplitudes at a time along the slabs' longest axis
        axis = int(np.argmax(s0.shape))
        rows = max(1, _MEAN_CHUNK * s0.shape[axis] // s0.size)
        head = (slice(None),) * axis
        for start in range(0, s0.shape[axis], rows):
            block = (*head, slice(start, start + rows))
            c0, c1 = s0[block], s1[block]
            mean = c0 + c1
            mean /= 2.0
            c1 -= mean
            c0 -= mean
    return out if out is not None else StateVector(psi.layout, target)


def apply_h_i(psi: StateVector, variable: int, gamma: float) -> StateVector:
    """H_i = Q_{x_i,g}^{-1} (I - |CAT(i)><CAT(i)|) Q_{x_i,g}^{-1}, matrix-free.

    The first pass makes one fresh state and the other two write into it, so
    psi is never written and one state is held beside it.
    """
    layout = psi.layout
    if not 0 <= variable < layout.num_variables:
        raise ParameterError("variable index out of range")
    if not layout.fibers[variable]:
        return StateVector(layout, np.zeros_like(psi.amp))
    ids = layout.incidence[variable]
    out = apply_q_gamma(psi, gamma, sign=-1, constraint_ids=ids)
    project_out_cat(out, variable, out=out)
    return apply_q_gamma(out, gamma, sign=-1, constraint_ids=ids, out=out)


def energy(psi: StateVector, gamma: float) -> float:
    """Sum_i <psi|H_i|psi> (real part; each term is PSD).

    A variable with an empty fiber has H_i = 0 and is skipped; every other
    term takes ``ENERGY_PASSES_PER_VARIABLE`` vector passes in one scratch
    state, so psi, that state and a count byte per amplitude are held.
    """
    total = 0.0
    for i in psi.layout.active_variables:
        total += float(np.real(np.vdot(psi.amp, apply_h_i(psi, i, gamma).amp)))
    return total


def ground_state(layout: QubitLayout, gamma: float) -> StateVector:
    """Normalized Q(gamma)|CAT>, the shared zero-energy state of every H_i, built in one state."""
    psi = cat_state(layout)
    return _normalize(apply_q_gamma(psi, gamma, out=psi))


def measurement_support(psi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of nonzero |amplitude|^2, ascending, and those probabilities.

    Only the support is squared, a chunk at a time, so an index and a float
    are held per support entry; an amplitude whose square underflows is left out.
    """
    z = np.flatnonzero(psi.amp)
    nrm, tol = psi.norm(), _NORM_TOL + z.size * np.finfo(np.float64).eps
    if abs(nrm - 1.0) > tol:
        raise ContractError(f"state norm {nrm} deviates from 1 beyond {tol}")
    probs = np.empty(z.size)
    for start in range(0, z.size, _GATHER_CHUNK):
        part = slice(start, start + _GATHER_CHUNK)
        np.abs(psi.amp[z[part]], out=probs[part])
    np.square(probs, out=probs)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-10:
        raise ContractError(f"probabilities sum to {total}")
    kept = probs != 0.0
    if not kept.all():
        z, probs = z[kept], probs[kept]
    return z, probs


def measurement_rows(z: np.ndarray, probs: np.ndarray, num_qubits: int) -> Iterator[tuple[str, float]]:
    """(basis string, probability) of each support entry, in the order sorted()
    gives the strings; strings are made ``_ROW_CHUNK`` at a time.

    Position q of a string is qubit q, so the strings sort as the indices
    with their 64 bits reversed: each byte reversed by table, then the bytes
    swapped in place.  An index below 2^num_qubits keeps its low 64 -
    num_qubits reversed bits 0, so they do not change the order.
    """
    key = _REVERSED_BYTE[np.ascontiguousarray(z, dtype="<i8").view(np.uint8)].view("<u8")
    key.byteswap(inplace=True)
    order = np.argsort(key)
    del key
    for start in range(0, order.size, _ROW_CHUNK):
        pick = order[start : start + _ROW_CHUNK]
        yield from zip(_bit_strings(z[pick], num_qubits), probs[pick].tolist())


def measurement_distribution(psi: StateVector) -> dict[str, float]:
    """|amplitude|^2 per computational basis string (zero entries omitted), in index order.

    It holds a Python string and float per support entry; ``measurement_rows``
    writes the same entries a chunk at a time.
    """
    z, probs = measurement_support(psi)
    return dict(zip(_bit_strings(z, psi.layout.num_qubits), probs.tolist()))


# ---------------------------------------------------------------------------
# The noncanonical product basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """Per active variable: a local fiber pattern (lexicographically below its
    flip, i.e. first-slot bit 0) and a sign; the element is
    tensor_i (|sigma_i> + sign_i |~sigma_i>)/sqrt(2).

    ``patterns[a]`` / ``signs[a]`` refer to the a-th *active* variable in
    increasing variable order; bit k of a pattern is the k-th fiber qubit.
    """

    patterns: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.patterns) != len(self.signs):
            raise ParameterError("patterns and signs must have equal length")
        for pat, sign in zip(self.patterns, self.signs):
            if pat & 1:
                raise ParameterError("pattern must be lexicographically below its flip (first bit 0)")
            if sign not in (1, -1):
                raise ParameterError("signs must be +1 or -1")

    def is_cat_at(self, active_pos: int) -> bool:
        return self.patterns[active_pos] == 0 and self.signs[active_pos] == 1


def cat_basis_element(layout: QubitLayout) -> BasisElement:
    k = len(layout.active_variables)
    return BasisElement(patterns=(0,) * k, signs=(1,) * k)


def _scatter(pattern: int, fiber: tuple[int, ...]) -> int:
    return sum(((pattern >> k) & 1) << q for k, q in enumerate(fiber))


def _basis_support(layout: QubitLayout, w: BasisElement) -> tuple[np.ndarray, np.ndarray | None]:
    """Indices of |w> in the computational basis, and per index 1 where its sign is -1 (None if none is)."""
    active = layout.active_variables
    if len(w.patterns) != len(active):
        raise ParameterError(
            f"basis element has {len(w.patterns)} factors, layout has {len(active)} active variables"
        )
    # bit k of an entry's position picks ~sigma over sigma on the k-th active fiber
    base = 0
    for pat, i in zip(w.patterns, active):
        base |= _scatter(pat, layout.fibers[i])
    idx = _subset_fold(base, [layout.fiber_masks[i] for i in active])
    return idx, _subset_fold(0, [sign == -1 for sign in w.signs]) if -1 in w.signs else None


def basis_element_vector(layout: QubitLayout, w: BasisElement) -> StateVector:
    """|w> as a dense state: the scale scattered onto its support, negated where its sign is -1."""
    idx, minus = _basis_support(layout, w)
    scale = INV_SQRT2 ** len(layout.active_variables)
    amp = np.zeros(layout.dim, dtype=np.complex128)
    amp[idx] = scale
    if minus is not None:
        amp[idx[minus == 1]] = -scale
    return StateVector(layout, amp)


def basis_coefficient(psi: StateVector, w: BasisElement) -> complex:
    """<w|psi> without materializing the full |w> vector."""
    idx, minus = _basis_support(psi.layout, w)
    coef = 1.0 if minus is None else 1.0 - 2.0 * minus
    scale = INV_SQRT2 ** len(psi.layout.active_variables)
    return complex(np.sum(coef * psi.amp[idx]) * scale)


def all_basis_elements(layout: QubitLayout):
    """Every basis element (2^(num qubits) of them): W(S) with S empty; generator."""
    return w_elements_cat_on(layout, ())


def w_elements_cat_on(layout: QubitLayout, S: Iterable[int]):
    """W(S): basis elements with the CAT factor at every active i in S."""
    S = frozenset(S)
    active = layout.active_variables
    free_qubits = sum(len(layout.fibers[i]) for i in active if i not in S)
    check_budget("basis_cap", free_qubits, "W(S)", "free qubits (log2 of its elements)")
    # a free factor: any fiber pattern with first bit 0 (below its flip), either sign
    choice_lists = [
        [(0, 1)] if i in S else list(product(range(0, 1 << len(layout.fibers[i]), 2), (1, -1)))
        for i in active
    ]
    for combo in product(*choice_lists):
        yield BasisElement(
            patterns=tuple(c[0] for c in combo), signs=tuple(c[1] for c in combo)
        )


def near_ground_state(
    layout: QubitLayout,
    gamma: float,
    S: Iterable[int],
    off_factors: Mapping[int, tuple[int, int]] | None = None,
) -> StateVector:
    """Normalized Q(gamma)|w> with CAT factors on S and caller factors off S.

    ``off_factors`` maps each active variable outside S to a (pattern, sign)
    local factor; H_i annihilation is verified for every i in S.
    """
    S = frozenset(S)
    off_factors = dict(off_factors or {})
    factors = []
    for i in layout.active_variables:
        if i not in S and i not in off_factors:
            raise ParameterError(f"missing local factor for variable {i} outside S")
        factors.append((0, 1) if i in S else off_factors[i])
    w = BasisElement(patterns=tuple(c[0] for c in factors), signs=tuple(c[1] for c in factors))
    psi = basis_element_vector(layout, w)
    _normalize(apply_q_gamma(psi, gamma, out=psi))
    for i in S:
        if 0 <= i < layout.num_variables and layout.fibers[i]:
            e_i = float(np.real(np.vdot(psi.amp, apply_h_i(psi, i, gamma).amp)))
            if e_i > _VERIFY_TOL:
                raise ContractError(f"<psi|H_{i}|psi> = {e_i} exceeds {_VERIFY_TOL} for i in S")
    return psi


# ---------------------------------------------------------------------------
# Probability bounds for near-ground states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilityBoundReport:
    eta: float
    eta_n: int
    s_bar_size: int
    s0_size: int
    vacuous: bool
    bound_violations: int
    max_bound_ratio: float  # max over z of |<psi|z>|^2 / rhs(l(z))
    sandwich_violations: int
    max_sandwich_slack: float


def consistent_strings(layout: QubitLayout, S: Iterable[int]) -> np.ndarray:
    """All basis indices whose fiber values are constant on every active i in S.

    At most one flip per qubit, so at most the layout's 2^num_qubits indices.
    """
    S = frozenset(S)
    flips = []
    for i in layout.active_variables:
        flips += [layout.fiber_masks[i]] if i in S else [1 << q for q in layout.fibers[i]]
    return np.sort(_subset_fold(0, flips))


def check_probability_bound(
    f: Formula,
    gamma: float,
    S: Iterable[int],
    psi: StateVector,
) -> ProbabilityBoundReport:
    """Verify |<psi|z>|^2 <= gamma^(2r) (2/gamma)^(3K eta n) / |Sbar(0)| on Sbar(r),
    and the gamma^(r + eta n) |<phi|z>| <= |<psi|z>| <= gamma^r |<phi|z>| sandwich.
    """
    layout = psi.layout
    S = frozenset(S)
    excluded = f.n - len(S)
    eta = ksat.eta_exact_excluded(f, excluded)
    eta_n = round(eta * f.n)
    zs = consistent_strings(layout, S)
    # l(z): violations among clauses entirely within S
    cs_ids = sorted(ksat.clauses_within(f, S))
    ell = violation_counts(layout, cs_ids)[zs].astype(np.int64)  # so 2 * ell and ell + eta_n cannot wrap
    s0 = int((ell == 0).sum())
    psi_abs = np.abs(psi.amp[zs])
    if s0 == 0:
        return ProbabilityBoundReport(
            eta=eta, eta_n=eta_n, s_bar_size=int(zs.size), s0_size=0, vacuous=True,
            bound_violations=0, max_bound_ratio=0.0, sandwich_violations=0,
            max_sandwich_slack=0.0,
        )
    amplification = (2.0 / gamma) ** (3 * f.K * eta_n)
    rhs = (gamma ** (2 * ell)) * amplification / s0
    probs = psi_abs**2
    ratios = probs / rhs
    bound_viol = int((ratios > 1.0 + _REL_TOL).sum())
    phi = apply_q_gamma(psi, gamma, sign=-1)
    phi_abs = np.abs(phi.amp[zs])
    upper = (gamma**ell) * phi_abs
    lower = (gamma ** (ell + eta_n)) * phi_abs
    scale = max(float(psi_abs.max()), 1e-300)
    up_slack = (psi_abs - upper) / scale
    lo_slack = (lower - psi_abs) / scale
    sandwich_viol = int(((up_slack > _REL_TOL) | (lo_slack > _REL_TOL)).sum())
    return ProbabilityBoundReport(
        eta=eta,
        eta_n=eta_n,
        s_bar_size=int(zs.size),
        s0_size=s0,
        vacuous=False,
        bound_violations=bound_viol,
        max_bound_ratio=float(ratios.max()),
        sandwich_violations=sandwich_viol,
        max_sandwich_slack=float(max(up_slack.max(), lo_slack.max())),
    )


# ---------------------------------------------------------------------------
# State dumps
# ---------------------------------------------------------------------------

def save_state(psi: StateVector, path: str | Path, gamma: float | None = None) -> None:
    """Binary little-endian complex doubles plus a JSON header sidecar."""
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(psi.amp, dtype="<c16"))
    header = {
        "num_qubits": psi.layout.num_qubits,
        "layout_hash": psi.layout.content_hash(),
        "gamma": gamma,
        "dtype": "<c16",
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(header, indent=2) + "\n")


def load_state(path: str | Path, layout: QubitLayout) -> StateVector:
    path = Path(path)
    header = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if header["layout_hash"] != layout.content_hash():
        raise ParameterError("state dump does not match the provided layout")
    amp = np.frombuffer(path.read_bytes(), dtype="<c16").astype(np.complex128)
    return StateVector(layout, amp)
