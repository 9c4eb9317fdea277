import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import dense_h_i, make_demo_formula
from nltslab import hamiltonian as ham
from nltslab import errors, ksat
from nltslab.errors import ContractError, ParameterError, ResourceLimitError

GAMMAS = (0.25, 0.5, 0.9)


@pytest.fixture
def demo_layout(demo_formula):
    return ham.build_layout(demo_formula)


def _rand_state(layout, seed=0) -> ham.StateVector:
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return ham.StateVector(layout, amp / np.linalg.norm(amp))


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_layout_small(demo_layout):
    assert demo_layout.num_qubits == 6
    # each variable appears in two clause slots, so every fiber has 2 qubits
    # and every H_i acts on its fiber plus the 2 other qubits of its clauses
    assert all(len(f) == 2 for f in demo_layout.fibers)
    for i in range(3):
        support = set(demo_layout.fibers[i])
        for j in demo_layout.incidence[i]:
            support |= set(demo_layout.constraints[j].qubits)
        assert len(support) == 4


def test_layout_singleton_fibers():
    f = ksat.generate_formula(10, 1, 3, seed=3)
    layout = ham.build_layout(f)
    for i in f.clauses[0].variable_set:
        if len([v for v in f.clauses[0].variables if v == i]) == 1:
            assert len(layout.fibers[i]) == 1


def test_layout_fiber_sizes_count_slots():
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=2, K=2, clauses=(
        C((L(0, False), L(1, False))),
        C((L(0, True), L(1, False))),
        C((L(1, True), L(0, False))),
    ))
    layout = ham.build_layout(f)
    assert len(layout.fibers[0]) == 3
    assert len(layout.fibers[1]) == 3


def test_layout_qubit_indexing(demo_formula):
    layout = ham.build_layout(demo_formula)
    # qubit (j, k) = j*K + k; fibers collect a variable's slots
    for j, c in enumerate(demo_formula.clauses):
        for k, var in enumerate(c.variables):
            assert j * demo_formula.K + k in layout.fibers[var]


def test_layout_cap():
    f = ksat.generate_formula(10, 10, 3, seed=0)
    with pytest.raises(ResourceLimitError):
        ham.build_layout(f)


def test_hand_built_layout_past_qubit_cap_is_refused():
    # the cap is checked before the fibers, so even a layout without fibers is refused by it
    allowed = errors.BUDGETS["qubit_cap"]
    q = allowed + 1
    for fibers in (tuple((i,) for i in range(q)), ()):
        with pytest.raises(ResourceLimitError) as exc:
            ham.QubitLayout(num_qubits=q, num_variables=q, constraints=(), fibers=fibers)
        assert (exc.value.budget_name, exc.value.requested, exc.value.allowed) == ("qubit_cap", q, allowed)
        assert str(exc.value) == f"the layout needs {q} qubits, over budget {allowed}"


# ---------------------------------------------------------------------------
# CAT state
# ---------------------------------------------------------------------------

def test_cat_single_variable():
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=1, K=1, clauses=(C((L(0, False),)),))
    psi = ham.cat_state(ham.build_layout(f))
    assert np.allclose(psi.amp, [1 / math.sqrt(2)] * 2)


def test_cat_small(demo_layout):
    psi = ham.cat_state(demo_layout)
    nz = np.nonzero(psi.amp)[0]
    assert nz.size == 8
    assert np.allclose(psi.amp[nz], (1 / math.sqrt(2)) ** 3)
    assert psi.norm() == pytest.approx(1.0, abs=1e-14)
    # support = fiber-consistent strings
    for z in nz:
        for mask in demo_layout.fiber_masks:
            assert (int(z) & mask) in (0, mask)


# ---------------------------------------------------------------------------
# Q(gamma)
# ---------------------------------------------------------------------------

def test_q_gamma_scales_by_violations(demo_layout):
    psi = _rand_state(demo_layout)
    out = ham.apply_q_gamma(psi, 0.5)
    viol = ham.violation_counts(demo_layout)
    assert np.allclose(out.amp, psi.amp * 0.5**viol)
    # unviolated strings untouched, single violation halved
    z_clean = int(np.nonzero(viol == 0)[0][0])
    z_one = int(np.nonzero(viol == 1)[0][0])
    assert out.amp[z_clean] == psi.amp[z_clean]
    assert out.amp[z_one] == psi.amp[z_one] * 0.5


def test_q_gamma_inverse_roundtrip(demo_layout):
    psi = _rand_state(demo_layout, seed=5)
    for gamma in GAMMAS:
        back = ham.apply_q_gamma(ham.apply_q_gamma(psi, gamma, 1), gamma, -1)
        assert np.allclose(back.amp, psi.amp, atol=1e-13)


def test_q_gamma_validation(demo_layout):
    psi = _rand_state(demo_layout)
    with pytest.raises(ParameterError):
        ham.apply_q_gamma(psi, 0.0, -1)
    with pytest.raises(ParameterError):
        ham.apply_q_gamma(psi, 1.5, 1)
    with pytest.raises(ParameterError):
        ham.apply_q_gamma(psi, 0.01, -1)  # inverse below the conditioning floor


def test_q_gamma_tautology_is_identity():
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=1, K=2, clauses=(C((L(0, False), L(0, True))),))
    layout = ham.build_layout(f)
    psi = _rand_state(layout)
    out = ham.apply_q_gamma(psi, 0.3)
    assert np.array_equal(out.amp, psi.amp)


# ---------------------------------------------------------------------------
# vector-pass kernels against literal oracles
# ---------------------------------------------------------------------------

def literal_violation_counts(layout, constraint_ids) -> np.ndarray:
    """Read each constraint's local pattern bit by bit and look it up."""
    z = np.arange(layout.dim)
    viol = np.zeros(layout.dim, dtype=np.int64)
    for j in constraint_ids:
        c = layout.constraints[j]
        local = np.zeros(layout.dim, dtype=np.int64)
        for k, q in enumerate(c.qubits):
            local |= ((z >> q) & 1) << k
        viol += np.isin(local, c.forbidden)
    return viol


def index_projection(psi, variable) -> np.ndarray:
    """(I - |CAT(i)><CAT(i)|) through explicit index arrays over the fiber."""
    fiber = psi.layout.fibers[variable]
    if not fiber:
        return np.zeros_like(psi.amp)
    mask = np.uint64(psi.layout.fiber_masks[variable])
    idx = np.arange(psi.layout.dim, dtype=np.uint64)
    z0 = idx[(idx & mask) == 0]
    z1 = z0 | mask
    out = psi.amp.copy()
    s = (psi.amp[z0] + psi.amp[z1]) / 2.0
    out[z0] -= s
    out[z1] -= s
    return out


def _kernel_layouts():
    from nltslab import pspin

    L, C = ksat.Literal, ksat.Clause
    # a tautology clause (no forbidden pattern), and variable 5 in no clause
    sat = ksat.Formula(n=6, K=3, clauses=(
        C((L(0, False), L(1, True), L(2, False))),
        C((L(3, False), L(3, True), L(4, False))),
        C((L(1, False), L(2, True), L(4, True))),
        C((L(0, True), L(3, False), L(4, False))),
    ))
    g2 = pspin.generate_regular_hypergraph(6, 2, 2, seed=4)
    g3 = pspin.generate_regular_hypergraph(6, 2, 3, seed=4)
    mixed = ham.QubitLayout(
        num_qubits=7,
        num_variables=4,
        constraints=(
            ham.Constraint(qubits=(0, 5), variables=(0, 2), forbidden=(1, 2)),
            ham.Constraint(qubits=(1, 2), variables=(1, 0), forbidden=(3,)),
            ham.Constraint(qubits=(3, 4), variables=(2, 3), forbidden=(0,)),
            # spans qubits 1..6, so with every constraint selected no inner split exists
            ham.Constraint(qubits=(6, 1), variables=(1, 1), forbidden=(1, 2)),
            # alone it sits on the high side of the split at qubit 3
            ham.Constraint(qubits=(3,), variables=(2,), forbidden=(0,)),
        ),
        fibers=((0, 2), (1, 6), (3, 5), (4,)),
    )
    return {
        "ksat-tautology": ham.build_layout(sat),
        "pspin-p2": pspin.quantize(g2, pspin.generate_couplings(g2, 5)),
        "pspin-p3": pspin.quantize(g3, pspin.generate_couplings(g3, 5)),
        "no-constraints": ham.QubitLayout(num_qubits=3, num_variables=3, constraints=(),
                                          fibers=((0, 2), (), (1,))),
        "non-contiguous": mixed,
        "demo": ham.build_layout(make_demo_formula()),
    }


@pytest.mark.parametrize("name", sorted(_kernel_layouts()))
def test_violation_counts_match_literal_oracle(name):
    layout = _kernel_layouts()[name]
    everything = range(len(layout.constraints))
    selections = [None, (), *([j] for j in everything), *layout.incidence]
    for ids in selections:
        got = ham.violation_counts(layout, ids)
        want = literal_violation_counts(layout, everything if ids is None else ids)
        assert got.dtype == np.uint8  # one byte per amplitude below 256 constraints
        assert np.array_equal(got, want), ids


def test_violation_counts_widen_past_255_constraints():
    # 300 copies of one constraint on qubit 0: a uint8 count would wrap to 44
    copies = tuple(ham.Constraint(qubits=(0,), variables=(0,), forbidden=(0,)) for _ in range(300))
    layout = ham.QubitLayout(num_qubits=2, num_variables=2, constraints=copies, fibers=((0,), (1,)))
    got = ham.violation_counts(layout)
    assert got.dtype == np.uint16
    assert got.tolist() == [300, 0, 300, 0]
    assert ham.violation_counts(layout, range(255)).dtype == np.uint8


@pytest.mark.parametrize("name", sorted(_kernel_layouts()))
def test_project_out_cat_matches_index_formula(name):
    layout = _kernel_layouts()[name]
    psi = _rand_state(layout, seed=layout.num_qubits)
    for i in range(layout.num_variables):
        got = ham.project_out_cat(psi, i).amp
        assert np.array_equal(got, index_projection(psi, i)), i


def _signed_zero_state(layout, seed) -> ham.StateVector:
    """Random complex amplitudes; about a third of the parts are +0 or -0.

    The first entries run through every pairing of {+0, -0, x, -x} for the
    real and the imaginary part, so each sign of zero meets each other part.
    """
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, layout.dim))
    zeros = rng.random((2, layout.dim)) < 0.35
    parts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    head = np.array([(re, im) for re in (0.0, -0.0, 0.7, -0.7) for im in (0.0, -0.0, 1.3, -1.3)])
    k = min(len(head), layout.dim)
    parts[:, :k] = head[:k].T
    amp = np.empty(layout.dim, dtype=np.complex128)
    amp.real, amp.imag = parts
    return ham.StateVector(layout, amp)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def plain_q_gamma(psi, gamma, sign, constraint_ids) -> np.ndarray:
    """A float64 factor per amplitude, promoted into one complex product."""
    layout = psi.layout
    viol = ham.violation_counts(layout, constraint_ids)
    powers = gamma ** (sign * np.arange(int(viol.max()) + 1, dtype=np.float64))
    return psi.amp * powers[viol]


def plain_projection(psi, variable) -> np.ndarray:
    """The fiber mean on the strided views, out of place."""
    fiber = psi.layout.fibers[variable]
    if not fiber:
        return np.zeros_like(psi.amp)
    nq = psi.layout.num_qubits
    z0, z1 = [slice(None)] * nq, [slice(None)] * nq
    for q in fiber:
        z0[nq - 1 - q], z1[nq - 1 - q] = 0, 1
    out = psi.amp.copy()
    amp, view, z0, z1 = psi.amp.reshape((2,) * nq), out.reshape((2,) * nq), tuple(z0), tuple(z1)
    s = (amp[z0] + amp[z1]) / 2.0
    view[z0] -= s
    view[z1] -= s
    return out


def plain_h_i(psi, variable, gamma) -> np.ndarray:
    layout = psi.layout
    if not layout.fibers[variable]:
        return np.zeros_like(psi.amp)
    ids = layout.incidence[variable]
    out = ham.StateVector(layout, plain_q_gamma(psi, gamma, -1, ids))
    out = ham.StateVector(layout, plain_projection(out, variable))
    return plain_q_gamma(out, gamma, -1, ids)


def plain_energy(psi, gamma) -> float:
    total = 0.0
    for i in range(psi.layout.num_variables):
        total += float(np.real(np.vdot(psi.amp, plain_h_i(psi, i, gamma))))
    return total


@pytest.mark.parametrize("name", sorted(_kernel_layouts()))
def test_vector_passes_match_plain_formulas_bit_for_bit(name):
    layout = _kernel_layouts()[name]
    psi = _signed_zero_state(layout, seed=layout.num_qubits)
    assert np.signbit(psi.amp.real[psi.amp.real == 0]).any()
    selections = [None, (), *layout.incidence]
    before = psi.amp.tobytes()

    def in_place(pass_, *args):
        scratch = ham.StateVector(layout, psi.amp.copy())
        assert pass_(scratch, *args, out=scratch) is scratch
        return scratch.amp

    for gamma in (ham.MIN_GAMMA, 0.5, 1.0):
        for sign in (1, -1):
            for ids in selections:
                got = ham.apply_q_gamma(psi, gamma, sign, ids).amp
                assert np.array_equal(_bits(got), _bits(plain_q_gamma(psi, gamma, sign, ids))), (gamma, sign, ids)
                got = in_place(ham.apply_q_gamma, gamma, sign, ids)
                assert np.array_equal(_bits(got), _bits(plain_q_gamma(psi, gamma, sign, ids))), (gamma, sign, ids)
        for i in range(layout.num_variables):
            got = ham.apply_h_i(psi, i, gamma).amp
            assert np.array_equal(_bits(got), _bits(plain_h_i(psi, i, gamma))), (gamma, i)
            assert psi.amp.tobytes() == before
        assert _bits(ham.energy(psi, gamma)) == _bits(plain_energy(psi, gamma)), gamma
        assert psi.amp.tobytes() == before
    for i in range(layout.num_variables):
        got = ham.project_out_cat(psi, i).amp
        assert np.array_equal(_bits(got), _bits(plain_projection(psi, i))), i
        got = in_place(ham.project_out_cat, i)
        assert np.array_equal(_bits(got), _bits(plain_projection(psi, i))), i


def test_in_place_passes_accept_only_their_own_contiguous_writeable_input():
    layout = _kernel_layouts()["non-contiguous"]
    psi = _rand_state(layout, seed=4)
    # the non-contiguous amp of test_state_dump_bytes_are_little_endian_doubles
    strided = ham.StateVector(layout, _signed_zero_state(layout, seed=1).amp.repeat(2)[::2])
    assert not strided.amp.flags.c_contiguous
    frozen = _rand_state(layout, seed=5)
    frozen.amp.flags.writeable = False
    other_layout = _rand_state(_kernel_layouts()["demo"])
    twin = ham.StateVector(layout, psi.amp.copy())
    for state, out in ((psi, other_layout), (psi, twin), (psi, psi.amp), (strided, strided), (frozen, frozen)):
        before = state.amp.tobytes()
        with pytest.raises(ParameterError):
            ham.apply_q_gamma(state, 0.5, -1, out=out)
        with pytest.raises(ParameterError):
            ham.project_out_cat(state, 0, out=out)
        assert state.amp.tobytes() == before
    # the fresh forms take any of them
    for state in (strided, frozen):
        assert np.array_equal(ham.project_out_cat(state, 0).amp, index_projection(state, 0))


def test_in_place_projection_on_an_empty_fiber_zeroes_psi():
    layout = _kernel_layouts()["ksat-tautology"]
    assert not layout.fibers[5]
    psi = _rand_state(layout, seed=3)
    amp = psi.amp
    assert ham.project_out_cat(psi, 5, out=psi) is psi
    assert psi.amp is amp
    assert np.array_equal(_bits(amp), _bits(np.zeros_like(amp)))


def test_projection_on_a_fiber_of_every_qubit():
    # one variable in every slot: each slab is a single amplitude
    layout = ham.layout_from_blocks([((0, 0, 0), (1, 6))], num_variables=1)
    assert layout.fibers == ((0, 1, 2),)
    psi = _signed_zero_state(layout, seed=3)
    want = index_projection(psi, 0)
    assert np.array_equal(_bits(ham.project_out_cat(psi, 0).amp), _bits(want))
    assert ham.project_out_cat(psi, 0, out=psi) is psi
    assert np.array_equal(_bits(psi.amp), _bits(want))


def test_energy_makes_five_passes_per_active_variable(monkeypatch):
    layout = _kernel_layouts()["ksat-tautology"]
    psi = _rand_state(layout, seed=2)
    calls = Counter()
    for name in ("violation_counts", "apply_q_gamma", "project_out_cat"):
        def counted(*args, _fn=getattr(ham, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ham, name, counted)
    active = len(layout.active_variables)
    assert active == layout.num_variables - 1  # variable 5 has an empty fiber
    ham.energy(psi, 0.5)
    assert calls == {"violation_counts": 2 * active, "apply_q_gamma": 2 * active,
                     "project_out_cat": active}
    assert sum(calls.values()) == ham.ENERGY_PASSES_PER_VARIABLE * active
    calls.clear()
    ham.apply_h_i(psi, 5, 0.5)
    assert not calls


def _peak_states(call) -> float:
    """tracemalloc peak of ``call()`` in 18-qubit states (4 MiB each)."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (2**18 * 16)


@pytest.fixture(scope="module")
def psi18():
    # 18 qubits with fibers of 1 to 3 qubits
    layout = ham.build_layout(ksat.generate_formula(9, 9, 2, seed=3))
    assert layout.num_qubits == 18 and min(len(x) for x in layout.fibers if x) == 1
    return ham.ground_state(layout, 0.5)


def test_energy_peak_memory_is_one_and_a_quarter_states(psi18):
    # H_i's three passes share one scratch state; a pass adds a one-byte count
    # per amplitude (1/16 of a state) and one gather chunk with its intp
    # indices; measured 1.16 states
    assert _peak_states(lambda: ham.energy(psi18, 0.5)) <= 1.25


def test_ground_state_at_full_support_peaks_at_one_and_a_half_states():
    # the state and its uint64 support indices while |CAT> is scattered, then
    # Q(gamma) and the division in place; the parent's fresh Q(gamma)|CAT>
    # and .normalized() copies measured 2.548 states, this 1.519
    layout = ham.build_layout(ksat.generate_formula(1000, 18, 1, 2))
    assert layout.num_qubits == len(layout.active_variables) == 18
    assert _peak_states(lambda: ham.ground_state(layout, 0.3)) <= 1.6


def test_q_gamma_peak_memory_is_its_output_and_a_count_byte(psi18):
    # the output, a uint8 count per amplitude (1/16 of a state) and the intp
    # indices of one 2^14-amplitude gather chunk; measured 1.094 states
    for ids in (None, psi18.layout.incidence[3]):
        assert _peak_states(lambda: ham.apply_q_gamma(psi18, 0.5, -1, ids)) <= 1.125, ids


def test_q_gamma_matches_plain_formula_across_gather_chunks(psi18):
    layout = psi18.layout
    assert layout.dim == 16 * ham._GATHER_CHUNK
    psi = _signed_zero_state(layout, seed=18)
    for ids in (None, *layout.incidence):
        got = ham.apply_q_gamma(psi, 0.5, -1, ids).amp
        assert np.array_equal(_bits(got), _bits(plain_q_gamma(psi, 0.5, -1, ids))), ids


def test_project_out_cat_peak_memory_is_its_output(psi18):
    # the output, one 2^12-amplitude mean chunk and numpy's iterator buffers
    # on the strided slab chunks (0.06 of a state in all); measured 1.064
    for i in psi18.layout.active_variables:
        assert _peak_states(lambda: ham.project_out_cat(psi18, i)) <= 1.125, i


def test_in_place_passes_hold_no_state(psi18):
    # a count byte per amplitude and fixed-size chunks; measured 0.157 and 0.064
    scratch = ham.StateVector(psi18.layout, psi18.amp.copy())
    for ids in (None, psi18.layout.incidence[3]):
        assert _peak_states(lambda: ham.apply_q_gamma(scratch, 0.5, -1, ids, out=scratch)) <= 0.25, ids
    for i in psi18.layout.active_variables:
        assert _peak_states(lambda: ham.project_out_cat(scratch, i, out=scratch)) <= 0.125, i


def test_measurement_distribution_holds_nothing_per_amplitude(psi18):
    # only the 2^9 support entries are squared; measured 0.01 of a state
    assert _peak_states(lambda: ham.measurement_distribution(psi18)) <= 0.05


def test_measurement_distribution_drops_amplitudes_whose_square_underflows(demo_layout):
    amp = np.zeros(demo_layout.dim, dtype=np.complex128)
    amp[5], amp[9], amp[12] = 1e-200, 1.0, 1e-200j
    assert ham.measurement_distribution(ham.StateVector(demo_layout, amp)) == {"100100": 1.0}


def test_ground_state_leaves_nothing_state_sized_on_its_layout():
    f = ksat.generate_formula(9, 9, 2, seed=3)
    layout = ham.build_layout(f)
    assert layout.num_qubits == 18
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        psi = ham.ground_state(layout, 0.5)
        again = ham.ground_state(layout, 0.5)
        assert np.array_equal(_bits(psi.amp), _bits(again.amp))
        del psi, again
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # a violation count cached per amplitude would hold 2 MiB
    assert held <= 2**16


def test_consistent_strings_match_literal_oracle():
    layout = _kernel_layouts()["non-contiguous"]
    for S in (set(), {0}, {1, 3}, {0, 1, 2, 3}):
        want = [
            z for z in range(layout.dim)
            if all((z & layout.fiber_masks[i]) in (0, layout.fiber_masks[i]) for i in S)
        ]
        assert ham.consistent_strings(layout, S).tolist() == want


# ---------------------------------------------------------------------------
# H_i action
# ---------------------------------------------------------------------------

def test_h_i_annihilates_ground_state(demo_formula):
    for gamma in GAMMAS:
        psi = ham.ground_state(ham.build_layout(demo_formula), gamma)
        for i in range(demo_formula.n):
            assert np.linalg.norm(ham.apply_h_i(psi, i, gamma).amp) < 1e-12


def test_h_i_matches_dense_oracle():
    for seed in range(8):
        f = ksat.generate_formula(3, 2, 2, seed=seed)
        layout = ham.build_layout(f)
        psi = _rand_state(layout, seed=seed)
        for gamma in GAMMAS:
            for i in range(f.n):
                dense = dense_h_i(layout, i, gamma)
                expected = dense @ psi.amp
                got = ham.apply_h_i(psi, i, gamma).amp
                assert np.max(np.abs(got - expected)) < 1e-12


def test_h_i_positive_expectation(demo_layout):
    for seed in range(5):
        psi = _rand_state(demo_layout, seed=seed)
        for i in range(3):
            e = np.real(np.vdot(psi.amp, ham.apply_h_i(psi, i, 0.5).amp))
            assert e >= -1e-12


def test_h_i_reduces_to_projector_without_constraints():
    # a variable with clause slots but no forbidden patterns: H_i = I - P
    layout = ham.layout_from_blocks([((0,), ())], num_variables=1)
    minus = ham.basis_element_vector(layout, ham.BasisElement((0,), (-1,)))
    out = ham.apply_h_i(minus, 0, 0.5)
    assert np.allclose(out.amp, minus.amp)


def test_h_i_inactive_variable_is_zero():
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=3, K=2, clauses=(C((L(0, False), L(1, False))),))
    layout = ham.build_layout(f)
    psi = _rand_state(layout)
    assert np.all(ham.apply_h_i(psi, 2, 0.5).amp == 0)


# ---------------------------------------------------------------------------
# ground state and measurement
# ---------------------------------------------------------------------------

def test_ground_state_no_clauses_is_cat():
    layout = ham.layout_from_blocks([((0, 1), ())], num_variables=2)
    psi = ham.ground_state(layout, 0.5)
    assert np.allclose(psi.amp, ham.cat_state(layout).amp)


def test_ground_state_energy(demo_formula):
    for gamma in GAMMAS:
        psi = ham.ground_state(ham.build_layout(demo_formula), gamma)
        assert ham.energy(psi, gamma) <= 1e-10


def test_measurement_distribution_small(demo_formula):
    gamma = 0.5
    psi = ham.ground_state(ham.build_layout(demo_formula), gamma)
    dist = ham.measurement_distribution(psi)
    Z = 4 + 2 * gamma**2 + 2 * gamma**4
    counts = ham.violation_counts(psi.layout)
    assert len(dist) == 8
    for bits, p in dist.items():
        z = sum(int(b) << q for q, b in enumerate(bits))
        viol = int(counts[z])
        assert p == pytest.approx(gamma ** (2 * viol) / Z, abs=1e-14)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_measurement_distribution_cat_uniform(demo_layout):
    dist = ham.measurement_distribution(ham.cat_state(demo_layout))
    assert len(dist) == 8
    assert all(p == pytest.approx(1 / 8, abs=1e-14) for p in dist.values())


def test_measurement_distribution_point_mass(demo_layout):
    amp = np.zeros(demo_layout.dim)
    amp[37] = 1.0
    dist = ham.measurement_distribution(ham.StateVector(demo_layout, amp))
    assert dist == {"101001": 1.0}


def per_bit_distribution(psi) -> dict[str, float]:
    probs = np.abs(psi.amp) ** 2
    nq = psi.layout.num_qubits
    return {"".join(str((int(z) >> q) & 1) for q in range(nq)): float(probs[z])
            for z in np.nonzero(probs)[0]}


@pytest.mark.parametrize("nq", [0, 1, 8, 20])
def test_measurement_distribution_matches_per_bit_oracle(nq):
    layout = ham.QubitLayout(num_qubits=nq, num_variables=nq, constraints=(),
                             fibers=tuple((q,) for q in range(nq)))
    rng = np.random.default_rng(nq)
    amp = np.zeros(layout.dim, dtype=np.complex128)
    support = rng.choice(layout.dim, size=min(layout.dim, 3000), replace=False)
    amp[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
    amp[support[: support.size // 4]] = 0.0
    psi = ham.StateVector(layout, amp).normalized()
    dist = ham.measurement_distribution(psi)
    want = per_bit_distribution(psi)
    assert list(dist.items()) == list(want.items())
    assert all(type(p) is float for p in dist.values())
    z, probs = ham.measurement_support(psi)
    assert list(ham.measurement_rows(z, probs, nq)) == sorted(want.items())


def test_measurement_distribution_norm_check(demo_layout):
    amp = np.zeros(demo_layout.dim)
    amp[0] = 0.5
    with pytest.raises(ContractError):
        ham.measurement_distribution(ham.StateVector(demo_layout, amp))


def test_norm_check_allows_the_rounding_of_a_full_support_norm():
    # 20 one-slot clauses put all 2^20 strings in the support; this norm is
    # 1 + 1.08e-12, inside its rounding bound 1e-12 + 2^20 2^-52 = 2.3e-10
    psi = ham.ground_state(ham.build_layout(ksat.generate_formula(1000, 20, 1, 1)), 0.3)
    assert abs(psi.norm() - 1.0) > 1e-12
    z, probs = ham.measurement_support(psi)
    assert z.size == 1 << 20 and abs(probs.sum() - 1.0) <= 1e-10
    psi.amp *= 1.0 + 1e-6
    with pytest.raises(ContractError, match="deviates from 1"):
        ham.measurement_support(psi)


# ---------------------------------------------------------------------------
# product basis
# ---------------------------------------------------------------------------

def test_basis_cat_element(demo_layout):
    w = ham.cat_basis_element(demo_layout)
    vec = ham.basis_element_vector(demo_layout, w)
    assert np.allclose(vec.amp, ham.cat_state(demo_layout).amp)


def test_basis_minus_single_qubit():
    layout = ham.layout_from_blocks([((0,), ())], num_variables=1)
    vec = ham.basis_element_vector(layout, ham.BasisElement((0,), (-1,)))
    assert np.allclose(vec.amp, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_basis_orthonormal(demo_layout):
    vecs = [ham.basis_element_vector(demo_layout, w).amp
            for w in ham.all_basis_elements(demo_layout)]
    mat = np.array(vecs)
    assert mat.shape == (64, 64)
    gram = mat @ mat.conj().T
    assert np.max(np.abs(gram - np.eye(64))) < 1e-12


def test_basis_element_validation():
    with pytest.raises(ParameterError):
        ham.BasisElement((1,), (1,))  # first slot bit must be 0
    with pytest.raises(ParameterError):
        ham.BasisElement((0,), (2,))


def test_ground_preimage_supported_on_cat_elements(demo_formula):
    """The inverse-softened ground state has no non-CAT basis component."""
    gamma = 0.5
    layout = ham.build_layout(demo_formula)
    psi = ham.ground_state(layout, gamma)
    phi = ham.apply_q_gamma(psi, gamma, sign=-1)
    for w in ham.all_basis_elements(layout):
        if any(not w.is_cat_at(pos) for pos in range(len(w.patterns))):
            assert abs(ham.basis_coefficient(phi, w)) < 1e-12


def test_w_elements_cat_on_counts(demo_layout):
    assert len(list(ham.w_elements_cat_on(demo_layout, {0, 1, 2}))) == 1
    # freeing one variable with |D(i)| = 2 gives 2^2 = 4 local factors
    assert len(list(ham.w_elements_cat_on(demo_layout, {0, 1}))) == 4


def test_basis_elements_come_in_product_order(demo_layout):
    # the last active variable varies fastest, its sign fastest of all; W(S)
    # is the subsequence of the full basis with the CAT factor on S
    full = list(ham.all_basis_elements(demo_layout))
    B = ham.BasisElement
    assert full[:5] == [B((0, 0, 0), (1, 1, 1)), B((0, 0, 0), (1, 1, -1)), B((0, 0, 2), (1, 1, 1)),
                        B((0, 0, 2), (1, 1, -1)), B((0, 0, 0), (1, -1, 1))]
    assert demo_layout.active_variables == (0, 1, 2)
    for S in ({0, 1}, {2}, set()):
        cat_on_S = [w for w in full if all(w.is_cat_at(i) for i in S)]
        assert list(ham.w_elements_cat_on(demo_layout, S)) == cat_on_S


def test_w_elements_size_bound(demo_formula):
    """|W(S)| never exceeds 2^(n K eta) with eta from the exact search."""
    layout = ham.build_layout(demo_formula)
    for S in ({0, 1, 2}, {0, 1}, {0, 2}, {1, 2}):
        eta = ksat.eta_exact_excluded(demo_formula, demo_formula.n - len(S))
        count = len(list(ham.w_elements_cat_on(layout, S)))
        assert count <= 2 ** (demo_formula.n * demo_formula.K * eta) + 1e-9


# ---------------------------------------------------------------------------
# near-ground states
# ---------------------------------------------------------------------------

def test_near_ground_full_s_is_ground(demo_layout):
    psi = ham.near_ground_state(demo_layout, 0.5, {0, 1, 2})
    ref = ham.ground_state(demo_layout, 0.5)
    assert np.allclose(psi.amp, ref.amp, atol=1e-12)


def test_near_ground_one_excited_variable(demo_formula):
    layout = ham.build_layout(demo_formula)
    for i0 in range(3):
        S = set(range(3)) - {i0}
        psi = ham.near_ground_state(layout, 0.5, S, off_factors={i0: (0, -1)})
        e0 = np.real(np.vdot(psi.amp, ham.apply_h_i(psi, i0, 0.5).amp))
        assert e0 > 0.1
        for i in S:
            e = np.real(np.vdot(psi.amp, ham.apply_h_i(psi, i, 0.5).amp))
            assert abs(e) <= 1e-10


def test_near_ground_requires_off_factors(demo_layout):
    with pytest.raises(ParameterError):
        ham.near_ground_state(demo_layout, 0.5, {0, 1})


def test_near_ground_no_constraints_product_states():
    layout = ham.layout_from_blocks(
        [((0,), ()), ((1,), ())], num_variables=2
    )
    psi = ham.near_ground_state(
        layout, 0.5, S=set(), off_factors={0: (0, -1), 1: (0, 1)}
    )
    for i in range(2):
        e = float(np.real(np.vdot(psi.amp, ham.apply_h_i(psi, i, 0.5).amp)))
        assert e == pytest.approx(0.0, abs=1e-12) or e == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# probability bounds
# ---------------------------------------------------------------------------

def test_probability_bound_full_s(demo_formula):
    gamma = 0.5
    psi = ham.ground_state(ham.build_layout(demo_formula), gamma)
    rep = ham.check_probability_bound(demo_formula, gamma, set(range(3)), psi)
    assert rep.eta == 0.0
    assert rep.s0_size == 4
    assert not rep.vacuous
    assert rep.bound_violations == 0
    assert rep.sandwich_violations == 0
    assert rep.max_bound_ratio <= 1.0


def test_probability_bound_reduced_s(demo_formula):
    gamma = 0.5
    layout = ham.build_layout(demo_formula)
    for i0 in range(3):
        S = set(range(3)) - {i0}
        psi = ham.near_ground_state(layout, gamma, S, off_factors={i0: (0, -1)})
        rep = ham.check_probability_bound(demo_formula, gamma, S, psi)
        assert rep.bound_violations == 0
        assert rep.sandwich_violations == 0


def test_probability_bound_is_vacuous_when_no_consistent_string_satisfies_C_S():
    # x0 and not-x0: every string violates one clause of C({0}), so Sbar(0) is empty
    L, C = ksat.Literal, ksat.Clause
    f = ksat.Formula(n=1, K=1, clauses=(C((L(0, False),)), C((L(0, True),))))
    psi = ham.ground_state(ham.build_layout(f), 0.5)
    rep = ham.check_probability_bound(f, 0.5, {0}, psi)
    assert rep.vacuous and rep.s0_size == 0
    assert rep.s_bar_size == ham.consistent_strings(psi.layout, {0}).size == 2
    assert (rep.bound_violations, rep.sandwich_violations) == (0, 0)
    assert (rep.max_bound_ratio, rep.max_sandwich_slack) == (0.0, 0.0)


def test_amplitude_zero_off_basis_span(demo_formula):
    """Strings inconsistent on a fiber of S carry exactly zero amplitude."""
    gamma = 0.5
    layout = ham.build_layout(demo_formula)
    S = {0, 1}
    psi = ham.near_ground_state(layout, gamma, S, off_factors={2: (0, -1)})
    consistent = set(ham.consistent_strings(layout, S).tolist())
    for z in range(layout.dim):
        if z not in consistent:
            assert psi.amp[z] == 0


# ---------------------------------------------------------------------------
# state dumps
# ---------------------------------------------------------------------------

def test_state_roundtrip(tmp_path, demo_formula):
    layout = ham.build_layout(demo_formula)
    psi = ham.ground_state(layout, 0.5)
    path = tmp_path / "state.bin"
    ham.save_state(psi, path, gamma=0.5)
    back = ham.load_state(path, layout)
    assert np.array_equal(back.amp, psi.amp)


def test_state_dump_bytes_are_little_endian_doubles(tmp_path):
    layout = _kernel_layouts()["non-contiguous"]
    strided = _signed_zero_state(layout, seed=1).amp.repeat(2)[::2]  # a non-contiguous amp
    for psi in (_rand_state(layout, seed=4), ham.StateVector(layout, strided)):
        path = tmp_path / "state.bin"
        ham.save_state(psi, path, gamma=0.5)
        assert path.read_bytes() == psi.amp.astype("<c16").tobytes()
        back = ham.load_state(path, layout)
        assert np.array_equal(_bits(back.amp), _bits(psi.amp))


def test_state_layout_mismatch(tmp_path, demo_formula):
    layout = ham.build_layout(demo_formula)
    psi = ham.ground_state(layout, 0.5)
    path = tmp_path / "state.bin"
    ham.save_state(psi, path)
    f2 = ksat.Formula(n=3, K=2, clauses=make_demo_formula().clauses[:2])
    layout2 = ham.build_layout(f2)
    with pytest.raises(ParameterError):
        ham.load_state(path, layout2)
