"""Reference answers computed without the program, for the answer checks.

A dense ring Hamiltonian built here by tensor transposes, and exact integer
traces of the transfer matrices from a reported interaction graph.
"""

from __future__ import annotations

import numpy as np

INTEGER_TOL = 1e-6


def ring_spectrum(op: np.ndarray, d: int, n: int) -> dict[int, int]:
    """Eigenvalue multiplicities of sum_j P_{j,j+1} on a periodic ring of n >= 2 sites."""
    size = d**n
    base = np.kron(op, np.eye(d ** (n - 2))).reshape((d,) * (2 * n))
    h = np.zeros((size, size), dtype=complex)
    for j in range(n):
        # base's site k sits on ring site (j + k) % n
        perm = list(np.argsort([(j + k) % n for k in range(n)]))
        h += base.transpose(perm + [n + p for p in perm]).reshape(size, size)
    w = np.linalg.eigvalsh(h)
    rounded = np.rint(w)
    if np.max(np.abs(w - rounded)) > INTEGER_TOL:
        raise ValueError("reference spectrum is not integral")
    out: dict[int, int] = {}
    for v in rounded.astype(int):
        out[int(v)] = out.get(int(v), 0) + 1
    return out


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def trace_power(a, n: int) -> int:
    """Tr(a^n) in exact integers, by binary powering."""
    size = len(a)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [[int(x) for x in row] for row in a]
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return sum(result[i][i] for i in range(size))


def census_at(m, r, n: int, x: int) -> int:
    """Tr((M + xR)^n): the census polynomial evaluated at an integer x."""
    a = [[mi + x * ri for mi, ri in zip(mrow, rrow)] for mrow, rrow in zip(m, r)]
    return trace_power(a, n)


def census_poly(m, r, n: int) -> dict[int, int]:
    """Nonzero coefficients of Tr((M + xR)^n), by repeated polynomial-matrix products."""
    size = len(m)
    power = [[[int(i == j)] for j in range(size)] for i in range(size)]
    for step in range(n):
        new = [[[0] * (step + 2) for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for k in range(size):
                for j in range(size):
                    for deg, c in enumerate(power[i][k]):
                        new[i][j][deg] += c * int(m[k][j])
                        new[i][j][deg + 1] += c * int(r[k][j])
        power = new
    trace = [sum(power[i][i][k] for i in range(size)) for k in range(n + 1)]
    return {k: c for k, c in enumerate(trace) if c}
