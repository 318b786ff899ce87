"""Tests for degeneracy counting, cycles, scale invariance, ground states."""

import numpy as np
import pytest

import commchain as cc
from commchain import groundspace, models
from commchain.canonical import Analysis
from commchain.ed import build_chain, integer_spectrum, kernel_dim
from commchain.errors import TooLarge
from commchain.groundspace import (
    TransferMatrices,
    check_scale_invariance,
    degeneracy,
    enumerate_cycles,
    ground_states,
    spectral_census,
)

from conftest import assemble_state, dense_chain, full_pipeline, mps_reconstruct
from test_graph import fig2_block_permutation


def test_degeneracy_ising_constant(ising):
    _, _, _, g = full_pipeline(ising)
    t = TransferMatrices.from_graph(g)
    assert [degeneracy(t, n) for n in range(1, 11)] == [2] * 10


def test_degeneracy_fig2(fig2):
    _, _, _, g = full_pipeline(fig2)
    t = TransferMatrices.from_graph(g)
    assert degeneracy(t, 3) == 8
    dim, _ = kernel_dim(build_chain(fig2, 3))
    assert dim == 8


def test_degeneracy_zero_chain():
    _, _, _, g = full_pipeline(models.zero(2))
    t = TransferMatrices.from_graph(g)
    assert degeneracy(t, 3) == 8


def test_degeneracy_big_integers():
    t = TransferMatrices(M=[[2]], R=[[0]])
    assert degeneracy(t, 100) == 2**100


def test_mat_pow_skips_the_squaring_past_the_top_bit(monkeypatch):
    # M^N by binary powering takes popcount(N) products into the result and
    # bit_length(N) - 1 squarings; one more squaring would be wasted.
    mat_mul = groundspace._mat_mul
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(groundspace, "_mat_mul", counted)
    m = [[1, 1], [1, 0]]
    for n in (1, 2, 7, 2**10):
        calls.clear()
        power = groundspace._mat_pow(m, n)
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1, n
        expected = m
        for _ in range(n - 1):
            expected = mat_mul(expected, m)
        assert power == expected, n


def test_enumerate_cycles_ising(ising):
    _, _, _, g = full_pipeline(ising)
    cycles, truncated = enumerate_cycles(g, 2)
    assert not truncated
    assert sorted(cycles) == [(0, 0), (1, 1)]


def test_enumerate_cycles_fig2(fig2):
    _, dec, _, g = full_pipeline(fig2)
    cycles, truncated = enumerate_cycles(g, 3)
    assert not truncated
    assert len(cycles) == 8
    perm = fig2_block_permutation(dec)  # perm[paper_label] = block index
    a, _, gm, th = perm
    assert (a, gm, th) in cycles
    assert (gm, th, a) in cycles  # rotations are distinct ordered cycles


def test_enumerate_cycles_empty_graph():
    p = cc.ProjectorTerm(2, np.eye(4, dtype=complex))
    _, _, _, g = full_pipeline(p)
    cycles, truncated = enumerate_cycles(g, 4)
    assert cycles == [] and not truncated


def test_enumerate_cycles_cap():
    _, _, _, g = full_pipeline(models.zero(2))
    # self-loop of weight 2 still has exactly one vertex sequence per N
    cycles, truncated = enumerate_cycles(g, 5, cap=10)
    assert cycles == [(0, 0, 0, 0, 0)] and not truncated


def _recursive_cycles(g, n, cap):
    """Reference enumeration: recursive depth-first search over walks."""
    nv = g.num_vertices
    adj = [[b for b in range(nv) if g.M[a, b] > 0] for a in range(nv)]
    out = []

    def walk(start, seq):
        if len(seq) == n:
            if g.M[seq[-1], start] > 0:
                if len(out) >= cap:
                    return True
                out.append(tuple(seq))
            return False
        return any(walk(start, seq + [nxt]) for nxt in adj[seq[-1]])

    truncated = any(walk(v, [v]) for v in range(nv))
    return out, truncated


def test_enumerate_cycles_matches_recursive_order(fig2, small_corpus):
    graphs = [full_pipeline(fig2)[3]] + [full_pipeline(m.term)[3] for m in small_corpus]
    for g in graphs:
        for n in (2, 3, 4, 5):
            full, _ = _recursive_cycles(g, n, 10**6)
            for cap in (0, 1, 5, len(full), 10**6):
                assert enumerate_cycles(g, n, cap) == _recursive_cycles(g, n, cap), (n, cap)


def test_enumerate_cycles_long_chain(fig2):
    _, _, _, g = full_pipeline(fig2)
    cycles, truncated = enumerate_cycles(g, 1200, cap=2)
    assert truncated and len(cycles) == 2
    assert all(len(c) == 1200 and g.M[c[-1], c[0]] > 0 for c in cycles)


def test_cycle_trace_agreement(small_corpus):
    for m in small_corpus:
        _, _, _, g = full_pipeline(m.term)
        t = TransferMatrices.from_graph(g)
        for n in range(1, 7):
            cycles, truncated = enumerate_cycles(g, n, cap=100_000)
            assert not truncated
            weighted = 0
            for cyc in cycles:
                w = 1
                for j in range(n):
                    w *= int(g.M[cyc[j], cyc[(j + 1) % n]])
                weighted += w
            assert weighted == degeneracy(t, n), (m.name, n)


def test_scale_invariance_ising(ising):
    _, _, _, g = full_pipeline(ising)
    v = check_scale_invariance(g)
    assert v.scale_invariant and sorted(v.loops) == [0, 1] and v.witness is None


def test_scale_invariance_fig2(fig2):
    _, _, _, g = full_pipeline(fig2)
    v = check_scale_invariance(g)
    assert not v.scale_invariant
    assert v.witness.kind == "cycle" and len(v.witness.vertices) >= 2


def test_scale_invariance_zero():
    _, _, _, g = full_pipeline(models.zero(2))
    v = check_scale_invariance(g)
    assert not v.scale_invariant
    assert v.witness.kind == "heavy_loop" and v.witness.weight == 2


def test_ground_states_ising(ising):
    a = Analysis(ising)
    dec = a.dec
    gs = ground_states(a, 4)
    assert len(gs.states) == 2 and not gs.truncated
    dense = [assemble_state(dec, s.cycle, s.bond_vectors) for s in gs.states]
    targets = [np.zeros(16), np.zeros(16)]
    targets[0][0] = 1.0  # |0000>
    targets[1][15] = 1.0  # |1111>
    got = {int(np.argmax(np.abs(v))) for v in dense}
    assert got == {0, 15}
    for v in dense:
        assert abs(np.max(np.abs(v)) - 1) < 1e-10


def test_ground_states_fig2_paper_state(fig2):
    analysis = Analysis(fig2)
    dec = analysis.dec
    gs = ground_states(analysis, 3)
    assert len(gs.states) == 8
    perm = fig2_block_permutation(dec)
    a, _, gm, th = perm
    match = [s for s in gs.states if s.cycle == (a, gm, th)]
    assert len(match) == 1
    dense = assemble_state(dec, match[0].cycle, match[0].bond_vectors)
    # (|00> + |11>) (x) (|00> - |11>) (x) (|01> + |10>), normalized
    b_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    b_minus = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    b_psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    target = np.kron(np.kron(b_plus, b_minus), b_psi)
    assert abs(abs(np.vdot(target, dense)) - 1.0) < 1e-9


def test_ground_states_frustrated_graph():
    # two loops pruned away: acyclic graph with no loops has no cycles at all
    term = cc.synthesize_local_term([(1, 1), (1, 1)], [[0, 1], [0, 0]], seed=2)
    gs = ground_states(Analysis(term), 3)
    assert gs.states == []


def test_ground_states_annihilated(small_corpus):
    for m in small_corpus:
        if m.d**3 > 512:
            continue
        a = Analysis(m.term)
        dec = a.dec
        gs = ground_states(a, 3, cap=64)
        h = dense_chain(m.term, 3)
        for s in gs.states:
            v = assemble_state(dec, s.cycle, s.bond_vectors)
            assert np.linalg.norm(h @ v) < 1e-8, m.name


def test_capped_degeneracy_is_min_of_cap_and_degeneracy(fig2, small_corpus):
    for term in [fig2] + [m.term for m in small_corpus]:
        t = TransferMatrices.from_graph(Analysis(term).graph)
        for n in range(1, 13):
            exact = degeneracy(t, n)
            for ceiling in (1, 2, 7, 64, 10_000):
                assert groundspace._capped_degeneracy(t, n, ceiling) == min(exact, ceiling)


def test_ground_states_refuse_past_the_entry_bound(ising):
    a = Analysis(ising)
    with pytest.raises(TooLarge, match="N=1000000"):
        ground_states(a, 10**6)
    assert len(ground_states(a, 4).states) == 2


def test_ground_states_cap_keeps_a_prefix_and_flags_what_it_cut(fig2):
    # In the synthesized term the bond 0 -> 1 has a 2-dimensional kernel, so
    # a closed walk through it carries several states and a cap can cut
    # inside one walk.
    term = cc.synthesize_local_term([(1, 2), (2, 1)], [[1, 2], [1, 1]], seed=99)
    for a in (Analysis(fig2), Analysis(term)):
        t = TransferMatrices.from_graph(a.graph)
        for n in (3, 4):
            full = ground_states(a, n)
            total = degeneracy(t, n)
            assert len(full.states) == total and not full.truncated
            for cap in range(1, total + 2):
                gs = ground_states(a, n, cap)
                assert gs.truncated == (cap < total), (n, cap)
                assert [s.cycle for s in gs.states] == [s.cycle for s in full.states[:cap]]
                for s, f in zip(gs.states, full.states):
                    assert all(map(np.array_equal, s.bond_vectors, f.bond_vectors))
    walks = [s.cycle for s in ground_states(Analysis(term), 3).states]
    assert len(walks) > len(set(walks))


def test_ground_state_count_matches_degeneracy(small_corpus):
    for m in small_corpus:
        a = Analysis(m.term)
        t = TransferMatrices.from_graph(a.graph)
        gs = ground_states(a, 3, cap=100_000)
        assert not gs.truncated
        assert len(gs.states) == degeneracy(t, 3), m.name


def test_loop_mps_reconstructs(ising, small_corpus):
    for term in [ising] + [m.term for m in small_corpus if m.scale_invariant_planted][:3]:
        a = Analysis(term)
        dec = a.dec
        v = check_scale_invariance(a.graph)
        if not v.scale_invariant:
            continue
        gs = ground_states(a, 4)
        for s in gs.states:
            assert s.mps_tensor is not None
            dense = assemble_state(dec, s.cycle, s.bond_vectors)
            from_mps = mps_reconstruct(s.mps_tensor, 4)
            assert np.linalg.norm(dense - from_mps) < 1e-9


def test_census_ising(ising):
    _, _, _, g = full_pipeline(ising)
    t = TransferMatrices.from_graph(g)
    c = spectral_census(t, 3)
    assert c.dims == {0: 2, 1: 0, 2: 6, 3: 0}


def test_census_zero():
    _, _, _, g = full_pipeline(models.zero(2))
    t = TransferMatrices.from_graph(g)
    assert spectral_census(t, 3).dims == {0: 8, 1: 0, 2: 0, 3: 0}


def test_census_fig2(fig2):
    _, _, _, g = full_pipeline(fig2)
    t = TransferMatrices.from_graph(g)
    c = spectral_census(t, 3)
    assert c.dims[0] == 8 and c.total() == 64


def test_census_completeness(small_corpus):
    for m in small_corpus:
        _, _, _, g = full_pipeline(m.term)
        t = TransferMatrices.from_graph(g)
        for n in range(1, 13):
            assert spectral_census(t, n).total() == m.d**n, (m.name, n)


def test_census_matches_ed(small_corpus):
    for m in small_corpus[:5]:
        if m.d**3 > 512:
            continue
        _, _, _, g = full_pipeline(m.term)
        t = TransferMatrices.from_graph(g)
        spec = integer_spectrum(build_chain(m.term, 3))
        census = {k: v for k, v in spectral_census(t, 3).dims.items() if v}
        assert census == spec, m.name


def test_scale_invariant_constant_degeneracy(small_corpus):
    for m in small_corpus:
        _, _, _, g = full_pipeline(m.term)
        v = check_scale_invariance(g)
        if v.scale_invariant:
            t = TransferMatrices.from_graph(g)
            assert all(degeneracy(t, n) == len(v.loops) for n in range(1, 13))


def test_ground_states_keep_every_cycle_when_enumeration_truncated(fig2):
    # Three closed walks fit under the cap; each carries one state, so all
    # three are returned, marked truncated because more walks exist.
    a = Analysis(fig2)
    cycles, enum_truncated = enumerate_cycles(a.graph, 4, cap=3)
    assert len(cycles) == 3 and enum_truncated
    gs = ground_states(a, 4, cap=3)
    assert len(gs.states) == 3 and gs.truncated
    assert [s.cycle for s in gs.states] == cycles
