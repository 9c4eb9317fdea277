"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the packed-word fast paths of the package:
clause evaluation walks literals one by one, Hamiltonian terms are assembled
as dense matrices, and clustering uses boolean matrix closure.  Agreement
between the two implementations is the point of most tests.
"""

import concurrent.futures

import numpy as np
import pytest

from nltslab import ksat
from nltslab.landscape import usable_cpus  # noqa: F401  (criterion 10b's bar reads it from here)


def make_demo_formula() -> ksat.Formula:
    """Three 2-SAT clauses on 3 variables: (~x2 | ~x1), (x3 | ~x1), (x2 | x3).

    Variables are 0-indexed internally (x1 -> 0, x2 -> 1, x3 -> 2).  The
    satisfying set is {001, 010, 011, 101} written as (x1, x2, x3).
    """
    L, C = ksat.Literal, ksat.Clause
    return ksat.Formula(
        n=3,
        K=2,
        clauses=(
            C((L(1, True), L(0, True))),
            C((L(2, False), L(0, True))),
            C((L(1, False), L(2, False))),
        ),
    )


@pytest.fixture
def demo_formula() -> ksat.Formula:
    return make_demo_formula()


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The max_workers of each process pool started; the pools are real."""
    started, executor = [], concurrent.futures.ProcessPoolExecutor

    def recorded(max_workers):
        started.append(max_workers)
        return executor(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    return started


def naive_violations(f: ksat.Formula, bits) -> int:
    """Literal-by-literal clause evaluation, no packing tricks."""
    count = 0
    for c in f.clauses:
        satisfied = False
        for lit in c.literals:
            value = bits[lit.var]
            if (value == 1) != lit.negated:
                satisfied = True
                break
        if not satisfied:
            count += 1
    return count


def literal_violation_counts(f: ksat.Formula, S=None, z=None) -> np.ndarray:
    """Violated-clause count of each packed assignment in z (all of the cube by default), literal by literal.

    The same evaluation as ``naive_violations``, vectorised over assignments
    rather than packed into clause masks; clauses outside C(S) are skipped.
    """
    z = np.arange(1 << f.n, dtype=np.int64) if z is None else np.asarray(z, dtype=np.int64)
    counts = np.zeros(z.size, dtype=np.int64)
    for c in f.clauses:
        if S is not None and not set(c.variables) <= set(S):
            continue
        satisfied = np.zeros(z.size, dtype=bool)
        for lit in c.literals:
            satisfied |= (((z >> lit.var) & 1) == 1) != lit.negated
        counts += ~satisfied
    return counts


def naive_enumerate(f: ksat.Formula, r: int, S=None) -> list[int]:
    """Per-assignment loop oracle; returns sorted packed assignments."""
    if S is None:
        active = list(range(f.m))
    else:
        S = set(S)
        active = [j for j, c in enumerate(f.clauses) if set(c.variables) <= S]
    sub = ksat.Formula(n=f.n, K=f.K, clauses=tuple(f.clauses[j] for j in active)) \
        if active else None
    out = []
    for z in range(1 << f.n):
        bits = [(z >> i) & 1 for i in range(f.n)]
        viol = naive_violations(sub, bits) if sub is not None else 0
        if viol <= r:
            out.append(z)
    return out


def transitive_closure_clusters(members, n: int, t1: int) -> list[frozenset]:
    """Connected components of d <= t1 via repeated squaring of adjacency."""
    members = [int(z) for z in members]
    size = len(members)
    adj = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(size):
            adj[i, j] = bin(members[i] ^ members[j]).count("1") <= t1
    reach = adj.copy()
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            break
        reach = nxt
    seen, comps = set(), []
    for i in range(size):
        if i in seen:
            continue
        comp = frozenset(members[j] for j in range(size) if reach[i, j])
        seen |= {j for j in range(size) if reach[i, j]}
        comps.append(comp)
    return comps


def dense_h_i(layout, variable: int, gamma: float) -> np.ndarray:
    """Explicit dense matrix for one local Hamiltonian term.

    Built from scratch: diagonal inverse-softening matrices assembled entry
    by entry, and the fiber projector as an outer product.
    """
    dim = layout.dim
    inc = layout.incidence[variable]
    qinv = np.zeros((dim, dim), dtype=complex)
    for z in range(dim):
        viol = 0
        for j in inc:
            c = layout.constraints[j]
            local = 0
            for k, q in enumerate(c.qubits):
                local |= ((z >> q) & 1) << k
            if local in c.forbidden:
                viol += 1
        qinv[z, z] = gamma ** (-viol)
    fiber = layout.fibers[variable]
    if not fiber:
        return np.zeros((dim, dim), dtype=complex)
    cat = np.zeros(dim, dtype=complex)
    mask = sum(1 << q for q in fiber)
    rest = [q for q in range(layout.num_qubits) if q not in fiber]
    for z in range(dim):
        if (z & mask) in (0, mask):
            cat[z] = 1.0
    # normalize per co-fiber block: each block of the identity on the
    # complement hosts one 2-dimensional CAT direction
    proj = np.zeros((dim, dim), dtype=complex)
    for z_rest in range(1 << len(rest)):
        base = 0
        for b, q in enumerate(rest):
            base |= ((z_rest >> b) & 1) << q
        vec = np.zeros(dim, dtype=complex)
        vec[base] = vec[base | mask] = 1.0 / np.sqrt(2.0)
        proj += np.outer(vec, vec.conj())
    return qinv @ (np.eye(dim) - proj) @ qinv
