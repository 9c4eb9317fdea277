"""p-spin Ising model on random d-regular p-uniform hypergraphs.

Hypergraphs come from the configuration model: n*d stubs are shuffled and
grouped into m = n*d/p hyperedges, resampling whole draws until no edge
repeats a node.  Spin configurations are packed bit masks (bit i = 1 means
sigma_i = -1), so each energy term is a parity, as in p-XORSAT.  Both cube
scans (the ground state and the near-ground set) read the cube in
landscape._blocks's blocks of whole high halves, the walk the K-SAT scans
take, each read by broadcast from two half-cube tables of 64-edge parity
words, built once per hypergraph by landscape._split_tables: the XOR kind of
the subset fold whose AND kind builds the K-SAT clause tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError, ResourceLimitError, allowance, check_budget
from .hamiltonian import QubitLayout, layout_from_blocks
from .landscape import SolutionSet, _blocks, _packed, _split_tables


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

    @cached_property
    def _parity_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """_energies_packed's (t_lo, t_hi), built once per hypergraph: _split_tables's XOR fold of the incidence words."""
        incidence = np.equal.outer(np.arange(self.n), np.reshape(self.hyperedges, (self.m, self.p))).any(axis=2)
        return _split_tables(self.n, 0, _packed(incidence, -(-self.m // 64)).T, np.bitwise_xor)


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
    """int64 energies of the configurations zs = [a 2^L, b 2^L), L = ceil(n/2): whole high halves, in order.

    Bit i of z set means spin i is -1.  Bit e of word w of W(z) is set exactly
    where edge 64w + e's term J_e prod sigma is -1 (a p-XORSAT parity), and
    W_w(z) = t_lo[w, z mod 2^L] ^ t_hi[w, z >> L] ^ j_w: g's tables, built once
    per hypergraph by _split_tables's XOR fold, XOR each word row's
    edge-incidence bits over every subset of each half, and j_w holds the
    J_e = -1 bits.  So H = m - 2 sum_w popcount((t_hi[w, a:b] ^ j_w)[:, None] ^ t_lo[w]).
    """
    L, size = (g.n + 1) // 2, np.size(zs)
    a = int(zs[0]) >> L if size else 0
    b = a + (size >> L)
    if size % (1 << L) or b > 1 << (g.n - L) or not np.array_equal(zs, np.arange(a << L, b << L)):
        raise ParameterError(f"p-spin energies are read by whole high halves [a 2^{L}, b 2^{L}) in order")
    t_lo, t_hi = g._parity_tables
    t_hi = t_hi[:, a:b, None] ^ _packed(np.reshape(J.values, (1, -1)) == -1, t_hi.shape[0]).T[:, :, None]
    return g.m - 2 * np.bitwise_count(t_hi ^ t_lo[:, None]).sum(axis=0, dtype=np.int64).ravel()


def _energy_blocks(g: RegularHypergraph, J: CouplingVector, stop: int):
    """(offset, energies) per block of [0, stop), in order: _blocks's serial blocks, whole high halves."""
    for a, b in _blocks(0, stop, g.n):
        yield a, _energies_packed(g, J, np.arange(a, b, dtype=np.uint64))


def _ground_search(g: RegularHypergraph) -> int:
    """Configurations ground_state_bruteforce walks: [0, this), whole high halves."""
    return max(1 << (g.n - 1), 1 << (g.n + 1) // 2) if g.p % 2 == 0 else 1 << g.n


def ground_state_bruteforce(g: RegularHypergraph, J: CouplingVector) -> tuple[np.ndarray, int]:
    """Global minimizer and energy; lexicographically smallest on ties.

    For even p the global flip symmetry halves the search space; the
    lexicographically smallest minimizer always lies in the searched half
    (at n = 1, the whole cube: one high half).
    """
    check_budget("enum_cap", g.n, "the spin cube scan", "spins")
    if len(J.values) != g.m:
        raise ParameterError("coupling vector length differs from edge count")
    emin, zmin = min((int(en.min()), lo + int(en.argmin())) for lo, en in _energy_blocks(g, J, _ground_search(g)))
    return packed_to_spins(zmin, g.n), emin


def near_ground_set(g: RegularHypergraph, J: CouplingVector, slack: int) -> SolutionSet:
    """All sigma with H(sigma) <= min + slack, as packed bits for the landscape tools.

    Its work records the configurations walked, the ground search's and then
    the whole cube's, and the member count.
    """
    if slack < 0:
        raise ParameterError("slack must be nonnegative")
    threshold = ground_state_bruteforce(g, J)[1] + slack
    members = np.concatenate([np.flatnonzero(en <= threshold) + lo for lo, en in _energy_blocks(g, J, 1 << g.n)])
    return SolutionSet(n=g.n, members=members.astype(np.uint64), r=int(slack),
                       work={"configurations": _ground_search(g) + (1 << g.n), "members": int(members.size)})


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
