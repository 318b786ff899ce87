"""The multimodular energy census against the big-integer reference.

``spectral_census`` evaluates Tr((M + xR)^N) at roots of unity modulo NTT
primes and rebuilds the coefficients by CRT.  Here it must reproduce
``conftest.bigint_census`` exactly on random integer matrices, on both
sides of every power-of-two boundary of the transform length, and on
degenerate graphs; at large N it is checked through exact big-integer
evaluations of the same polynomial instead.
"""

import random

import numpy as np
import pytest

from commchain import groundspace, models
from commchain.errors import TooLarge
from commchain.graph import InteractionGraph
from commchain.groundspace import degeneracy, spectral_census

from conftest import bigint_census, full_pipeline, graph_of, reference_census_residues

SMALL_N = (1, 2, 3, 7, 8, 15, 16, 31, 32)


def _random_graph(nv: int, seed: int) -> InteractionGraph:
    rng = random.Random(seed)
    m, r = ([[rng.randint(0, 81) for _ in range(nv)] for _ in range(nv)] for _ in range(2))
    return graph_of(m, r)


def _census_at(g: InteractionGraph, n: int, x: int) -> int:
    """Exact Tr((M + xR)^n) by big-integer matrix powering."""
    p = groundspace._mat_pow(g.M + x * g.R, n)
    return sum(p[i][i] for i in range(g.num_vertices))


@pytest.mark.parametrize("n", SMALL_N)
@pytest.mark.parametrize("nv", range(1, 7))
def test_matches_bigint_small_n(nv, n):
    g = _random_graph(nv, 1000 * nv + n)
    assert spectral_census(g, n).dims == bigint_census(g, n).dims


@pytest.mark.parametrize(
    "nv, n",
    [(nv, n) for n in (63, 64, 127, 128) for nv in (1, 2, 3)] + [(1, 200), (2, 200), (6, 64)],
)
def test_matches_bigint_large_n(nv, n):
    g = _random_graph(nv, 1000 * nv + n)
    assert spectral_census(g, n).dims == bigint_census(g, n).dims


@pytest.mark.parametrize("n", SMALL_N + (64, 200))
def test_zero_and_single_vertex_graphs(n):
    cases = [graph_of([[0] * nv for _ in range(nv)]) for nv in (0, 1, 2, 4)]
    cases += [graph_of([[a]], [[b]]) for a in (0, 1, 2, 81) for b in (0, 1, 3, 81)]
    for g in cases:
        assert spectral_census(g, n).dims == bigint_census(g, n).dims


@pytest.mark.parametrize("name, n", [("fig2", 300), ("ising", 1000)])
def test_large_n_against_exact_evaluations(name, n):
    p, _, _, g = full_pipeline(models.builtin(name))
    dims = spectral_census(g, n).dims
    assert sorted(dims) == list(range(n + 1))
    assert sum(dims.values()) == p.d**n
    assert dims[0] == degeneracy(g, n)
    for x in (-1, 2):
        assert sum(c * x**k for k, c in dims.items()) == _census_at(g, n, x)


def test_prime_table():
    fig2 = full_pipeline(models.fig2())[3]
    for n in (1, 5, 300):
        spectral_census(fig2, n)
    assert groundspace._NTT_PRIMES
    for k, primes in groundspace._NTT_PRIMES.items():
        assert primes == sorted(set(primes), reverse=True)
        size = 1 << k
        for p in primes:
            assert p < 2**31 and p % size == 1
            assert all(p % q for q in range(2, int(p**0.5) + 1)), p
            w = groundspace._root_of_unity(p, size)
            assert pow(w, size, p) == 1 and pow(w, size // 2, p) == p - 1
        # The search skips no prime: every other candidate above the last
        # cached one is composite.
        for c in range(primes[-1] >> k, (2**31 - 2 >> k) + 1):
            q = (c << k) + 1
            if q not in primes:
                assert any(q % f == 0 for f in range(2, int(q**0.5) + 1)), q


def test_is_prime_matches_trial_division():
    # Strong pseudoprimes to some of the bases, Carmichael numbers, and a
    # dense run of small integers.
    for n in [2047, 1373653, 25326001, 561, 1105, 41041, 2147483647,
              2147483649] + list(range(0, 2000)):
        expect = n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))
        assert groundspace._is_prime(n) == expect, n


def test_bound_raises_before_any_evaluation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluation started past the bound")

    monkeypatch.setattr(groundspace, "_mat_pow", forbidden)
    monkeypatch.setattr(groundspace, "_census_residues", forbidden)
    fig2 = graph_of([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]],
                    [[0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
    for n in (2048, 10**6, 10**12):
        with pytest.raises(TooLarge):
            spectral_census(fig2, n)
    with pytest.raises(TooLarge):
        spectral_census(graph_of([[1]]), groundspace.MAX_CENSUS_ENTRIES)


def test_garner_bound_raises_before_any_evaluation(monkeypatch):
    # A one-vertex graph passes the entry bound at N=8191 (547 primes x
    # 8192 entries), but Garner would take 547^2 x 8192 = 2.5e9 steps.
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluation started past the bound")

    monkeypatch.setattr(groundspace, "_mat_pow", forbidden)
    monkeypatch.setattr(groundspace, "_census_residues", forbidden)
    with pytest.raises(TooLarge, match="Garner"):
        spectral_census(graph_of([[2]], [[2]]), 8191)


def test_bound_admits_its_documented_sizes(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(groundspace, "_census_residues", reached)
    fig2 = full_pipeline(models.fig2())[3]
    ising = full_pipeline(models.ising())[3]
    two = graph_of([[2]], [[2]])
    for g, n in ((fig2, 2047), (ising, 6208), (two, 3914)):
        with pytest.raises(Reached):
            spectral_census(g, n)
    for g, n in ((fig2, 2048), (ising, 6209), (two, 3915)):
        with pytest.raises(TooLarge):
            spectral_census(g, n)


def test_sum_self_check_raises(monkeypatch):
    real = groundspace._garner
    monkeypatch.setattr(groundspace, "_garner", lambda r, p: [c + 1 for c in real(r, p)])
    with pytest.raises(AssertionError, match="sum"):
        spectral_census(graph_of([[1, 0], [0, 1]], [[0, 1], [1, 0]]), 5)


def test_residues_equal_the_per_product_reference(monkeypatch):
    # Every prime of every census, for nv = 1..9 (on both sides of each
    # group of 4 unreduced products) and N up to 300.
    real = groundspace._census_residues
    seen = []

    def checked(m, r, n, p, size):
        out = real(m, r, n, p, size)
        ref = reference_census_residues(m, r, n, p, size)
        assert out.dtype == ref.dtype and np.array_equal(out, ref), (len(m), n, p)
        seen.append(p)
        return out

    monkeypatch.setattr(groundspace, "_census_residues", checked)
    rng = random.Random(15)
    for nv in range(1, 10):
        for n in (1, 2, 3, 5, 8, 31, 300):
            m, r = ([[rng.randint(0, 2) for _ in range(nv)] for _ in range(nv)] for _ in range(2))
            spectral_census(graph_of(m, r), n)
    assert len(seen) > 300, len(seen)


def test_fig2_residues_equal_the_per_product_reference_at_the_bound():
    g = full_pipeline(models.fig2())[3]
    n, size = 2047, 4096
    for p in groundspace._ntt_primes(12, 3):
        out = groundspace._census_residues(g.M, g.R, n, p, size)
        assert np.array_equal(out, reference_census_residues(g.M, g.R, n, p, size)), p


@pytest.mark.parametrize("nv", range(1, 10))
def test_one_reduction_per_group_of_four_products(monkeypatch, nv):
    # Each matrix product sums nv unreduced products, reducing after every
    # group of 4 and at the end: one reduction per product when nv <= 4.
    real = groundspace._reduce
    calls = []
    monkeypatch.setattr(groundspace, "_reduce", lambda *a: calls.append(1) or real(*a))
    p = groundspace._ntt_primes(10, 1)[0]
    assert groundspace._UNREDUCED_PRODUCTS == 4 and (2**64 - p) // (p - 1) ** 2 == 4
    rng = np.random.default_rng(nv)
    a, b = (rng.integers(0, p, (nv, nv, 7), dtype=np.uint64) for _ in range(2))
    out = groundspace._mulmod(a, b, p)
    assert len(calls) == -(-nv // 4)
    expect = np.einsum("ikb,kjb->ijb", a.astype(object), b.astype(object)) % p
    assert np.array_equal(out.astype(object), expect)
    del calls[:]
    tr = groundspace._trace_mulmod(a, b, p)
    assert len(calls) == -(-nv * nv // 4)
    assert np.array_equal(tr.astype(object), np.einsum("ii...->...", expect) % p)
