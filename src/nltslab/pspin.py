"""p-spin Ising model on random d-regular p-uniform hypergraphs.

Hypergraphs come from the configuration model: n*d stubs are shuffled and
grouped into m = n*d/p hyperedges, resampling whole draws until no edge
repeats a node.  Spin configurations are packed bit masks (bit i = 1 means
sigma_i = -1), so each energy term is a parity.  Whether each edge's term is
-1 is read from two half-cube tables, and both cube scans (the ground state
and the near-ground set) read one walk over the cube's blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError, ResourceLimitError, allowance, check_budget
from .hamiltonian import QubitLayout, _subset_xors, layout_from_blocks
from .landscape import BLOCK_SIZE, SolutionSet


@dataclass(frozen=True)
class RegularHypergraph:
    n: int
    d: int
    p: int
    hyperedges: tuple[tuple[int, ...], ...]
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"a hypergraph needs at least 1 node, got n = {self.n}")
        degrees = [0] * self.n
        for e in self.hyperedges:
            if len(e) != self.p or len(set(e)) != self.p:
                raise ParameterError("hyperedge must contain p distinct nodes")
            for v in e:
                degrees[v] += 1
        if any(deg != self.d for deg in degrees):
            raise ParameterError("hypergraph is not d-regular")

    @property
    def m(self) -> int:
        return len(self.hyperedges)


@dataclass(frozen=True)
class CouplingVector:
    values: tuple[int, ...]  # +1 / -1 per hyperedge
    seed: int | None = None

    def __post_init__(self):
        if any(v not in (1, -1) for v in self.values):
            raise ParameterError("couplings must be +1 or -1")


def generate_regular_hypergraph(n: int, d: int, p: int, seed: int) -> RegularHypergraph:
    """Configuration-model pairing, rejecting samples with a repeated node in an edge."""
    if p < 2:
        raise ParameterError("uniformity p must be at least 2")
    if n < 1 or d < 0:
        raise ParameterError(f"need n >= 1 nodes and degree d >= 0, got n = {n}, d = {d}")
    if (n * d) % p != 0:
        raise ParameterError(f"n*d = {n * d} not divisible by p = {p}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    tries = allowance("retry_budget")
    for _ in range(tries):
        perm = rng.permutation(stubs)
        groups = perm.reshape(-1, p)
        if (np.diff(np.sort(groups, axis=1), axis=1) != 0).all():
            edges = tuple(tuple(int(v) for v in g) for g in groups)
            return RegularHypergraph(n=n, d=d, p=p, hyperedges=edges, seed=seed)
    raise ResourceLimitError("retry_budget", None, tries, f"no simple pairing found in {tries} tries")


def generate_couplings(g: RegularHypergraph, seed: int) -> CouplingVector:
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 2, size=g.m) * 2 - 1
    return CouplingVector(values=tuple(int(v) for v in vals), seed=seed)


def _as_spins(sigma: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    spins = np.asarray(sigma, dtype=np.int64)
    if spins.shape != (n,):
        raise ParameterError(f"spin configuration must have length {n}")
    if not np.isin(spins, (-1, 1)).all():
        raise ParameterError("spins must be +1 or -1")
    return spins


def spins_to_packed(sigma: Sequence[int], n: int) -> int:
    spins = _as_spins(sigma, n)
    return int(sum(1 << i for i in range(n) if spins[i] == -1))


def packed_to_spins(packed: int, n: int) -> np.ndarray:
    return np.asarray([-1 if (packed >> i) & 1 else 1 for i in range(n)], dtype=np.int64)


def energy(g: RegularHypergraph, J: CouplingVector, sigma: Sequence[int]) -> int:
    """H(sigma) = sum_e J_e prod_i sigma(e(i)); exact integer in [-m, m]."""
    if len(J.values) != g.m:
        raise ParameterError("coupling vector length differs from edge count")
    spins = _as_spins(sigma, g.n)
    total = 0
    for e, j in zip(g.hyperedges, J.values):
        prod = 1
        for v in e:
            prod *= int(spins[v])
        total += j * prod
    return total


def _energies_packed(g: RegularHypergraph, J: CouplingVector, zs: np.ndarray) -> np.ndarray:
    """Vectorized energies for packed configurations (bit i set = spin -1).

    Bit e of a 64-edge word W(z) is set exactly where edge e's term
    J_e * prod sigma is -1.  W splits over the low L = ceil(n/2) and the high
    n - L spins, W(z) = T_lo[z mod 2^L] ^ T_hi[z >> L]: each table XOR-doubles
    the spins' edge-incidence words (the parities), and T_lo also carries the
    word's J_e = -1 bits.  Then H = m - 2 sum_words popcount(W).
    """
    L = (g.n + 1) // 2
    zs = np.asarray(zs, dtype=np.uint64)
    lo = (zs & np.uint64((1 << L) - 1)).astype(np.intp)
    hi = (zs >> np.uint64(L)).astype(np.intp)
    total = np.full(zs.size, g.m, dtype=np.int64)
    for w in range(0, g.m, 64):
        incidence = [0] * g.n
        for e, edge in enumerate(g.hyperedges[w : w + 64]):
            for v in edge:
                incidence[v] |= 1 << e
        t_lo = _subset_xors(incidence[:L])
        t_lo ^= np.uint64(sum(1 << e for e, j in enumerate(J.values[w : w + 64]) if j == -1))
        total -= 2 * np.bitwise_count(t_lo[lo] ^ _subset_xors(incidence[L:])[hi])
    return total


def _energy_blocks(g: RegularHypergraph, J: CouplingVector, stop: int):
    """(offset, energies) for each BLOCK_SIZE block of the configurations [0, stop), in order."""
    for lo in range(0, stop, BLOCK_SIZE):
        yield lo, _energies_packed(g, J, np.arange(lo, min(lo + BLOCK_SIZE, stop), dtype=np.uint64))


def ground_state_bruteforce(g: RegularHypergraph, J: CouplingVector) -> tuple[np.ndarray, int]:
    """Global minimizer and energy; lexicographically smallest on ties.

    For even p the global flip symmetry halves the search space; the
    lexicographically smallest minimizer always lies in the searched half.
    """
    check_budget("enum_cap", g.n, "the spin cube scan", "spins")
    if len(J.values) != g.m:
        raise ParameterError("coupling vector length differs from edge count")
    search = 1 << (g.n - 1) if g.p % 2 == 0 else 1 << g.n
    emin, zmin = min((int(en.min()), lo + int(en.argmin())) for lo, en in _energy_blocks(g, J, search))
    return packed_to_spins(zmin, g.n), emin


def near_ground_set(g: RegularHypergraph, J: CouplingVector, slack: int) -> SolutionSet:
    """All sigma with H(sigma) <= min + slack, as packed bits for the landscape tools."""
    if slack < 0:
        raise ParameterError("slack must be nonnegative")
    threshold = ground_state_bruteforce(g, J)[1] + slack
    members = [np.flatnonzero(en <= threshold) + lo for lo, en in _energy_blocks(g, J, 1 << g.n)]
    return SolutionSet(n=g.n, members=np.concatenate(members).astype(np.uint64), r=int(slack))


def quantize(g: RegularHypergraph, J: CouplingVector) -> QubitLayout:
    """Forbidden-pattern layout on n*d qubits: one qubit per (edge, position).

    A local bit pattern q (bit set = spin -1) is energy-raising exactly when
    the sign product equals J_e, i.e. when (-1)^popcount(q) == J_e; those
    2^(p-1) patterns are forbidden.
    """
    if len(J.values) != g.m:
        raise ParameterError("coupling vector length differs from edge count")
    blocks = []
    for e, j in zip(g.hyperedges, J.values):
        forbidden = tuple(
            pat for pat in range(1 << g.p) if (-1) ** int(bin(pat).count("1")) == j
        )
        blocks.append((e, forbidden))
    return layout_from_blocks(blocks, num_variables=g.n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_hypergraph(g: RegularHypergraph, path: str | Path) -> None:
    payload = {
        "n": g.n,
        "d": g.d,
        "p": g.p,
        "seed": g.seed,
        "hyperedges": [list(e) for e in g.hyperedges],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_hypergraph(path: str | Path) -> RegularHypergraph:
    payload = json.loads(Path(path).read_text())
    return RegularHypergraph(
        n=payload["n"],
        d=payload["d"],
        p=payload["p"],
        hyperedges=tuple(tuple(e) for e in payload["hyperedges"]),
        seed=payload.get("seed"),
    )
