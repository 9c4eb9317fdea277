import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltslab import hamiltonian as ham
from nltslab import errors, landscape, pspin
from nltslab.errors import ParameterError, ResourceLimitError


def naive_energy(g, J, spins) -> int:
    total = 0
    for e, j in zip(g.hyperedges, J.values):
        prod = j
        for v in e:
            prod *= spins[v]
        total += prod
    return total


# ---------------------------------------------------------------------------
# hypergraph generation
# ---------------------------------------------------------------------------

def test_generate_small_graph():
    g = pspin.generate_regular_hypergraph(4, 2, 2, seed=7)
    assert g.m == 4
    degrees = [0] * 4
    for e in g.hyperedges:
        assert len(set(e)) == 2
        for v in e:
            degrees[v] += 1
    assert degrees == [2, 2, 2, 2]


def test_single_edge_covers_all_nodes():
    g = pspin.generate_regular_hypergraph(5, 1, 5, seed=0)
    assert g.m == 1
    assert set(g.hyperedges[0]) == set(range(5))


def test_degrees_exact_across_seeds():
    for seed in range(100):
        g = pspin.generate_regular_hypergraph(9, 4, 3, seed=seed)
        degrees = [0] * 9
        for e in g.hyperedges:
            for v in e:
                degrees[v] += 1
        assert degrees == [4] * 9


def test_generation_validation(monkeypatch):
    with pytest.raises(ParameterError):
        pspin.generate_regular_hypergraph(5, 2, 3, seed=0)  # 10 not divisible by 3
    with pytest.raises(ParameterError):
        pspin.generate_regular_hypergraph(4, 1, 1, seed=0)  # p < 2
    monkeypatch.setitem(errors.BUDGETS, "retry_budget", 10)
    with pytest.raises(ResourceLimitError):
        # one edge must contain node 0 twice: every draw is rejected
        pspin.generate_regular_hypergraph(1, 2, 2, seed=0)


def test_sizes_below_one_node_or_a_negative_degree_are_refused(tmp_path):
    for n, d in [(0, 4), (-1, 2), (4, -2)]:
        with pytest.raises(ParameterError, match="n >= 1"):
            pspin.generate_regular_hypergraph(n, d, 2, seed=0)
    with pytest.raises(ParameterError, match="at least 1 node"):
        pspin.RegularHypergraph(n=0, d=0, p=2, hyperedges=())
    path = tmp_path / "g.json"
    path.write_text('{"n": 0, "d": 3, "p": 3, "hyperedges": []}')
    with pytest.raises(ParameterError, match="at least 1 node"):
        pspin.load_hypergraph(path)
    # degree 0 stays valid: no edges, and every configuration has energy 0
    g = pspin.generate_regular_hypergraph(3, 0, 2, seed=0)
    assert g.m == 0
    sigma, emin = pspin.ground_state_bruteforce(g, pspin.generate_couplings(g, 1))
    assert emin == 0 and list(sigma) == [1, 1, 1]


def test_generation_deterministic():
    a = pspin.generate_regular_hypergraph(8, 3, 4, seed=5)
    b = pspin.generate_regular_hypergraph(8, 3, 4, seed=5)
    assert a.hyperedges == b.hyperedges
    J1 = pspin.generate_couplings(a, 11)
    J2 = pspin.generate_couplings(b, 11)
    assert J1.values == J2.values
    assert all(v in (1, -1) for v in J1.values)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_single_edge():
    g = pspin.RegularHypergraph(n=2, d=1, p=2, hyperedges=((0, 1),))
    J = pspin.CouplingVector(values=(1,))
    assert pspin.energy(g, J, (1, -1)) == -1
    assert pspin.energy(g, J, (1, 1)) == 1


def test_energy_all_aligned_positive_couplings():
    g = pspin.generate_regular_hypergraph(8, 2, 2, seed=1)
    J = pspin.CouplingVector(values=(1,) * g.m)
    assert pspin.energy(g, J, (1,) * 8) == g.m


def test_energy_dimension_mismatch():
    g = pspin.generate_regular_hypergraph(4, 2, 2, seed=7)
    with pytest.raises(ParameterError):
        pspin.energy(g, pspin.CouplingVector(values=(1,)), (1, 1, 1, 1))
    J = pspin.generate_couplings(g, 0)
    with pytest.raises(ParameterError):
        pspin.energy(g, J, (1, 1, 1))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_energy_matches_naive_and_packed(seed):
    g = pspin.generate_regular_hypergraph(8, 3, 4, seed=seed)
    J = pspin.generate_couplings(g, seed + 1)
    cube = pspin._energies_packed(g, J, np.arange(256, dtype=np.uint64))  # all 16 high halves at once
    rng = np.random.default_rng(seed)
    for _ in range(5):
        spins = (rng.integers(0, 2, size=8) * 2 - 1).tolist()
        e = pspin.energy(g, J, spins)
        assert e == naive_energy(g, J, spins)
        packed = pspin.spins_to_packed(spins, 8)
        half = packed >> 4  # L = 4: the high half holding the configuration, alone
        assert cube[packed] == e == pspin._energies_packed(g, J, np.arange(half << 4, half + 1 << 4))[packed & 15]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_single_flip_energy_change(seed):
    g = pspin.generate_regular_hypergraph(8, 3, 2, seed=seed)
    J = pspin.generate_couplings(g, seed + 1)
    rng = np.random.default_rng(seed)
    spins = (rng.integers(0, 2, size=8) * 2 - 1).tolist()
    e0 = pspin.energy(g, J, spins)
    for i in range(8):
        flipped = list(spins)
        flipped[i] = -flipped[i]
        delta = pspin.energy(g, J, flipped) - e0
        assert delta % 2 == 0
        assert abs(delta) <= 2 * g.d


def test_packed_roundtrip():
    spins = [1, -1, -1, 1, -1]
    packed = pspin.spins_to_packed(spins, 5)
    assert packed == 0b10110
    assert pspin.packed_to_spins(packed, 5).tolist() == spins


# ---------------------------------------------------------------------------
# the split-table energy kernel against the per-edge oracle
# ---------------------------------------------------------------------------

def circulant_hypergraph(n, offset_families):
    """Edges {i + a mod n : a in offsets} for every i and family: d = p * families."""
    edges = tuple(
        tuple((i + a) % n for a in offsets) for offsets in offset_families for i in range(n)
    )
    p = len(offset_families[0])
    return pspin.RegularHypergraph(n=n, d=p * len(offset_families), p=p, hyperedges=edges)


def per_edge_energies(g, J, zs) -> np.ndarray:
    """sum_e J_e prod_{v in e} sigma_v for each packed configuration in zs, one edge at a time."""
    spins = (1 - 2 * ((np.asarray(zs, dtype=np.int64)[:, None] >> np.arange(g.n)) & 1)).astype(np.int8)
    total = np.zeros(spins.shape[0], dtype=np.int64)
    for e, j in zip(g.hyperedges, J.values):
        total += j * np.prod(spins[:, list(e)], axis=1, dtype=np.int64)
    return total


def whole_cube_energies(g, J) -> list[int]:
    return per_edge_energies(g, J, np.arange(1 << g.n)).tolist()


KERNEL_CASES = {
    # name: (n, offset families); m = n * families
    "p2-m64": (16, [(0, 1), (0, 2), (0, 3), (0, 5)]),
    "p3-odd-n": (11, [(0, 1, 3), (0, 2, 7)]),
    "p2-m65-odd-n": (13, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6)]),
    "p3-m105": (21, [(0, 1, 3), (0, 2, 7), (0, 4, 9), (0, 5, 11), (0, 6, 13)]),
    "p4-m132-odd-n": (33, [(0, 1, 2, 3), (0, 2, 5, 9), (0, 3, 7, 12), (0, 4, 9, 15)]),
    "p2-m145-odd-n": (29, [(0, k) for k in range(1, 6)]),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_energies_packed_matches_per_edge_oracle(case):
    n, families = KERNEL_CASES[case]
    g = circulant_hypergraph(n, families)
    assert g.m == n * len(families)
    L = (n + 1) // 2
    halves = 1 << (n - L)
    rng = np.random.default_rng(g.m)
    couplings = [
        tuple(int(v) for v in rng.integers(0, 2, size=g.m) * 2 - 1),
        (1,) * g.m,
        (-1,) * g.m,
    ]
    for values in couplings:
        J = pspin.CouplingVector(values=values)
        # the first (z = 0 first), a middle and the last (z = 2^n - 1 last) high half
        for a in (0, halves // 2 + 1, halves - 1):
            zs = np.arange(a << L, a + 1 << L, dtype=np.uint64)
            got = pspin._energies_packed(g, J, zs)
            assert got.dtype == np.int64
            assert got.tolist() == per_edge_energies(g, J, zs).tolist()
            # every configuration of a half of at most 4096, else a sample with both ends
            picks = range(zs.size) if zs.size <= 4096 else [0, zs.size - 1, *rng.integers(0, zs.size, 60)]
            for i in picks:
                assert got[i] == naive_energy(g, J, pspin.packed_to_spins(int(zs[i]), n).tolist())
        # two halves in one call read as each half alone
        both = pspin._energies_packed(g, J, np.arange(2 << L, dtype=np.uint64))
        assert both.tolist() == [*pspin._energies_packed(g, J, np.arange(1 << L, dtype=np.uint64)),
                                 *pspin._energies_packed(g, J, np.arange(1 << L, 2 << L, dtype=np.uint64))]
        assert pspin._energies_packed(g, J, np.zeros(0, dtype=np.uint64)).shape == (0,)


@pytest.mark.parametrize("zs", [
    np.arange(16)[::-1], np.delete(np.arange(17), 3), np.concatenate([np.arange(15), [14]]), np.arange(3, 19),
    np.arange(8, 40), [0], [5], np.arange(256, 272), np.arange(240, 272),
], ids=["unsorted", "gapped", "duplicated", "misaligned", "misaligned-two-halves", "single-zero", "single",
        "past-the-cube", "across-the-cube-end"])
def test_energies_packed_refuses_anything_but_whole_high_halves_in_order(zs):
    g = pspin.generate_regular_hypergraph(8, 3, 4, seed=1)  # L = 4: halves of 16
    with pytest.raises(ParameterError, match="whole high halves"):
        pspin._energies_packed(g, pspin.generate_couplings(g, 2), np.asarray(zs, dtype=np.uint64))


def test_energy_blocks_hold_whole_high_halves_past_n_32(monkeypatch):
    # n = 33: a high half is 2^17 configurations, twice BLOCK_SIZE, so each block is one half
    g = circulant_hypergraph(*KERNEL_CASES["p4-m132-odd-n"])
    J = pspin.generate_couplings(g, 3)
    kernel, calls = pspin._energies_packed, []
    monkeypatch.setattr(pspin, "_energies_packed", lambda g, J, zs: calls.append(zs) or kernel(g, J, zs))
    blocks = list(pspin._energy_blocks(g, J, 1 << 18))
    assert [lo for lo, _ in blocks] == [0, 1 << 17]
    assert all(np.array_equal(zs, np.arange(lo, lo + (1 << 17))) for zs, (lo, _) in zip(calls, blocks))
    got = np.concatenate([en for _, en in blocks])
    assert got.tolist() == per_edge_energies(g, J, np.arange(1 << 18)).tolist()


def test_energies_with_no_edges_and_a_single_node():
    # d = 0: no 64-edge word at all, and every configuration has energy 0
    g = pspin.generate_regular_hypergraph(5, 0, 3, seed=0)
    J = pspin.generate_couplings(g, 1)
    assert pspin._energies_packed(g, J, np.arange(32, dtype=np.uint64)).tolist() == [0] * 32
    # n = 1 at even p: one high half holds the whole cube, so the flip symmetry cannot halve it
    g = pspin.generate_regular_hypergraph(1, 0, 2, seed=0)
    J = pspin.generate_couplings(g, 1)
    sigma, emin = pspin.ground_state_bruteforce(g, J)
    assert (sigma.tolist(), emin) == ([1], 0)
    assert pspin.near_ground_set(g, J, 0).members.tolist() == [0, 1]


@pytest.mark.parametrize("n, families", [
    (9, [(0, 1, 3)]), (10, [(0, 1), (0, 3)]), (9, [(0, 1, 2, 4)]), (8, [(0, 1, 2, 3), (0, 2, 3, 5)]),
])
def test_ground_state_and_near_ground_set_match_whole_cube(n, families):
    g = circulant_hypergraph(n, families)
    for seed in range(4):
        J = pspin.generate_couplings(g, seed)
        energies = whole_cube_energies(g, J)
        emin = min(energies)
        sigma, got = pspin.ground_state_bruteforce(g, J)
        assert got == emin
        # ties go to the lexicographically smallest packed state
        assert pspin.spins_to_packed(sigma, n) == energies.index(emin)
        for slack in (0, 1, 2, 4):
            A = pspin.near_ground_set(g, J, slack)
            want = [z for z, e in enumerate(energies) if e <= emin + slack]
            assert A.members.tolist() == want
            assert A.r == slack


def test_ground_state_ties_across_scan_blocks():
    """Two components with their own flip symmetry: the ground states tie across blocks.

    Component A holds spin 16, so flipping A moves a minimizer between the
    first two 2^16-blocks of the searched half; the smaller one must win.
    """
    comps = ([*range(8), 16], [*range(8, 16), 17])
    edges = tuple(
        (c[i], c[(i + k) % len(c)]) for c in comps for k in (1, 2) for i in range(len(c))
    )
    g = pspin.RegularHypergraph(n=18, d=4, p=2, hyperedges=edges)
    for seed in range(3):
        J = pspin.generate_couplings(g, seed)
        energies = whole_cube_energies(g, J)
        emin = min(energies)
        best = energies.index(emin)
        tie = best ^ sum(1 << v for v in comps[0])
        assert energies[tie] == emin and tie >> 16 != best >> 16
        sigma, got = pspin.ground_state_bruteforce(g, J)
        assert (got, pspin.spins_to_packed(sigma, 18)) == (emin, best)


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------

def test_ground_state_single_edge():
    g = pspin.RegularHypergraph(n=2, d=1, p=2, hyperedges=((0, 1),))
    J = pspin.CouplingVector(values=(1,))
    sigma, emin = pspin.ground_state_bruteforce(g, J)
    assert emin == -1
    assert pspin.energy(g, J, sigma) == -1


def test_ground_state_flip_symmetry_even_p():
    g = pspin.generate_regular_hypergraph(8, 2, 4, seed=3)
    J = pspin.generate_couplings(g, 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        spins = (rng.integers(0, 2, size=8) * 2 - 1).tolist()
        flipped = [-s for s in spins]
        assert pspin.energy(g, J, spins) == pspin.energy(g, J, flipped)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_ground_state_matches_exhaustive(seed):
    g = pspin.generate_regular_hypergraph(6, 2, 3, seed=seed)
    J = pspin.generate_couplings(g, seed + 1)
    sigma, emin = pspin.ground_state_bruteforce(g, J)
    energies = [
        pspin.energy(g, J, pspin.packed_to_spins(z, 6)) for z in range(64)
    ]
    assert emin == min(energies)
    assert pspin.energy(g, J, sigma) == emin
    # deterministic tie-break: smallest packed minimizer
    assert pspin.spins_to_packed(sigma, 6) == energies.index(emin)


def test_ground_state_negative_per_spin():
    for seed in range(20):
        g = pspin.generate_regular_hypergraph(16, 4, 2, seed=seed)
        J = pspin.generate_couplings(g, seed + 1000)
        _, emin = pspin.ground_state_bruteforce(g, J)
        assert emin < 0


def test_ground_state_cap(monkeypatch):
    g = pspin.generate_regular_hypergraph(8, 2, 4, seed=3)
    J = pspin.generate_couplings(g, 4)
    monkeypatch.setitem(errors.BUDGETS, "enum_cap", 4)
    with pytest.raises(ResourceLimitError) as exc:
        pspin.ground_state_bruteforce(g, J)
    assert exc.value.budget_name == "enum_cap"


def test_scans_walk_the_cube_in_blocks(monkeypatch):
    g = pspin.generate_regular_hypergraph(18, 3, 2, seed=5)
    J = pspin.generate_couplings(g, 6)
    kernel, calls = pspin._energies_packed, []

    def counting(g, J, zs):
        calls.append(zs)
        return kernel(g, J, zs)

    def blocks(stop):
        return [np.arange(lo, lo + (1 << 16), dtype=np.uint64) for lo in range(0, stop, 1 << 16)]

    def assert_calls(want):
        assert len(calls) == len(want)
        assert all(zs.dtype == np.uint64 and np.array_equal(zs, w) for zs, w in zip(calls, want))
        calls.clear()

    monkeypatch.setattr(pspin, "_energies_packed", counting)
    pspin.ground_state_bruteforce(g, J)  # even p: the half cube
    assert_calls(blocks(1 << 17))
    pspin.near_ground_set(g, J, 2)
    assert_calls(blocks(1 << 17) + blocks(1 << 18))


def test_parity_tables_are_built_once_per_hypergraph(monkeypatch):
    # n = 18: per coupling vector the two scans walk 2 + 2 + 4 blocks; the
    # two half tables are built by one call for all of them, whatever the couplings
    g = pspin.generate_regular_hypergraph(18, 3, 2, seed=5)
    tables, builds = pspin._split_tables, []
    monkeypatch.setattr(pspin, "_split_tables",
                        lambda n, base, ones, op: builds.append((n, ones.shape)) or tables(n, base, ones, op))
    for seed in (6, 7):
        J = pspin.generate_couplings(g, seed)
        emin = pspin.ground_state_bruteforce(g, J)[1]
        A = pspin.near_ground_set(g, J, 2)
        energies = per_edge_energies(g, J, np.arange(1 << 18))
        assert emin == energies.min()
        assert A.members.tolist() == np.flatnonzero(energies <= emin + 2).tolist()
    assert builds == [(18, (1, 18))]


# ---------------------------------------------------------------------------
# near-ground sets
# ---------------------------------------------------------------------------

def test_near_ground_full_slack():
    g = pspin.generate_regular_hypergraph(6, 2, 3, seed=9)
    J = pspin.generate_couplings(g, 10)
    A = pspin.near_ground_set(g, J, slack=2 * g.m)
    assert len(A) == 64


def test_near_ground_zero_slack_even_p_flip_closed():
    g = pspin.generate_regular_hypergraph(8, 2, 4, seed=3)
    J = pspin.generate_couplings(g, 4)
    A = pspin.near_ground_set(g, J, slack=0)
    members = set(A.members.tolist())
    full = (1 << 8) - 1
    assert members
    assert all((z ^ full) in members for z in members)
    _, emin = pspin.ground_state_bruteforce(g, J)
    for z in members:
        assert pspin.energy(g, J, pspin.packed_to_spins(z, 8)) == emin


def test_near_ground_feeds_landscape():
    g = pspin.generate_regular_hypergraph(10, 2, 2, seed=12)
    J = pspin.generate_couplings(g, 13)
    _, emin = pspin.ground_state_bruteforce(g, J)
    A = pspin.near_ground_set(g, J, slack=2)
    hist = landscape.overlap_histogram(A)
    assert hist.total_pairs == len(A) * (len(A) - 1) // 2


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_forbidden_patterns_p2():
    g = pspin.RegularHypergraph(n=2, d=1, p=2, hyperedges=((0, 1),))
    layout = pspin.quantize(g, pspin.CouplingVector(values=(1,)))
    # J=+1 penalizes aligned spins: bit patterns 00 and 11
    assert set(layout.constraints[0].forbidden) == {0b00, 0b11}
    layout_neg = pspin.quantize(g, pspin.CouplingVector(values=(-1,)))
    assert set(layout_neg.constraints[0].forbidden) == {0b01, 0b10}


def test_quantize_single_edge_frustration_free():
    g = pspin.RegularHypergraph(n=3, d=1, p=3, hyperedges=((0, 1, 2),))
    for jval in (1, -1):
        layout = pspin.quantize(g, pspin.CouplingVector(values=(jval,)))
        assert layout.num_qubits == 3
        for gamma in (0.25, 0.5, 0.9):
            psi = ham.ground_state(layout, gamma)
            assert ham.energy(psi, gamma) <= 1e-10


def test_quantize_measurement_matches_energy_raising_count():
    g = pspin.generate_regular_hypergraph(4, 2, 2, seed=7)
    J = pspin.generate_couplings(g, 3)
    layout = pspin.quantize(g, J)
    gamma = 0.5
    psi = ham.ground_state(layout, gamma)
    dist = ham.measurement_distribution(psi)
    viol = ham.violation_counts(layout)
    Z = sum(
        gamma ** (2 * int(viol[z]))
        for z in range(layout.dim)
        if all((z & m) in (0, m) for m in layout.fiber_masks)
    )
    for bits, p in dist.items():
        z = sum(int(b) << q for q, b in enumerate(bits))
        assert p == pytest.approx(gamma ** (2 * int(viol[z])) / Z, abs=1e-12)


def test_quantize_locality_bound():
    g = pspin.generate_regular_hypergraph(6, 3, 2, seed=2)
    J = pspin.generate_couplings(g, 1)
    layout = pspin.quantize(g, J)
    assert layout.num_qubits == 6 * 3
    for i in range(g.n):
        support = set(layout.fibers[i])
        for j in layout.incidence[i]:
            support |= set(layout.constraints[j].qubits)
        assert len(support) <= g.d * g.p


def test_quantize_cap():
    g = pspin.generate_regular_hypergraph(8, 3, 4, seed=5)
    J = pspin.generate_couplings(g, 6)
    with pytest.raises(ResourceLimitError):
        pspin.quantize(g, J)


def test_sqrt_d_energy_trend(monkeypatch):
    """Per-spin ground energy should roughly double from d=4 to d=16."""
    # dense degrees make loop-free pairings rare; spend more retries
    monkeypatch.setitem(errors.BUDGETS, "retry_budget", 10**6)
    medians = {}
    for d in (4, 16):
        vals = []
        for seed in range(20):
            g = pspin.generate_regular_hypergraph(20, d, 2, seed=seed)
            J = pspin.generate_couplings(g, seed + 500)
            _, emin = pspin.ground_state_bruteforce(g, J)
            vals.append(emin / g.n)
        medians[d] = float(np.median(vals))
    ratio = medians[16] / medians[4]
    assert 1.5 <= ratio <= 2.7


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_hypergraph_roundtrip(tmp_path):
    g = pspin.generate_regular_hypergraph(8, 3, 4, seed=5)
    path = tmp_path / "g.json"
    pspin.save_hypergraph(g, path)
    back = pspin.load_hypergraph(path)
    assert back == g
