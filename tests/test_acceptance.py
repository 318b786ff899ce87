"""Acceptance suite: one test per criterion, printing one PASS line each.

Run `pytest -s tests/test_acceptance.py -v` to see the criterion table.
Criterion 3 performs the full census-versus-spectrum sweep over the
50-model corpus and all builtins and is the slow one (about 20 s on two
cores).
"""

import json
import time

import numpy as np

import commchain as cc
from commchain import cli, models
from commchain._linalg import dag
from commchain.canonical import Analysis, canonical_chain, canonical_hamiltonian, classify_phase
from commchain.cli import main as cli_main
from commchain.bridge import commutify, mps_parent, random_injective_map, verify_x
from commchain.ed import (
    apply_sitewise,
    build_chain,
    integer_spectrum,
    kernel_dim,
    same_subspace,
)
from commchain.graph import reconstruct_term
from commchain.groundspace import (
    check_scale_invariance,
    degeneracy,
    enumerate_cycles,
    spectral_census,
)
from commchain.operators import commutator_residual, operator_schmidt

from conftest import full_pipeline
from test_graph import FIG2_M_EXPECTED, fig2_block_permutation


def _max_n(d: int, cap: int = 4096) -> int:
    n = 1
    while d ** (n + 1) <= cap:
        n += 1
    return n


def _ed_census(term, n: int) -> dict[int, int]:
    return integer_spectrum(build_chain(term, n))


def test_criterion_1_ising_end_to_end(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "ising.json"
    code = cli_main(["analyze", "--model", "ising", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["commuting"] is True
    assert doc["blocks"] == [[1, 1], [1, 1]]
    m = np.array(doc["graph"]["M"])
    assert np.array_equal(m, np.eye(2, dtype=int))
    assert doc["scale_invariant"] is True
    assert doc["degeneracy"] == 2

    ising = models.ising()
    _, _, _, g = full_pipeline(ising)
    for n in range(2, 9):
        ed_dim, _ = kernel_dim(build_chain(ising, n))
        assert degeneracy(g, n) == ed_dim == 2
    dt = time.monotonic() - t0
    assert dt < 1.0, f"criterion 1 took {dt:.2f}s"
    print(f"\nACCEPTANCE 1 (Ising end-to-end, N=2..8): PASS in {dt:.2f}s")


def test_criterion_2_fig2():
    t0 = time.monotonic()
    fig2 = models.fig2()
    _, dec, bonds, g = full_pipeline(fig2)
    assert dec.block_dims == [(1, 1)] * 4
    perm = fig2_block_permutation(dec)
    assert np.array_equal(g.M[np.ix_(perm, perm)], FIG2_M_EXPECTED)
    a, _, gm, th = perm
    cycles, _ = enumerate_cycles(g, 3)
    assert (a, gm, th) in cycles
    verdict = check_scale_invariance(g)
    assert not verdict.scale_invariant
    assert verdict.witness.kind == "cycle" and len(verdict.witness.vertices) >= 2
    expected = {2: 4, 3: 8, 4: 16, 5: 32}
    for n in range(2, 6):
        spec = _ed_census(fig2, n)
        assert degeneracy(g, n) == spec.get(0, 0) == expected[n]
    dt = time.monotonic() - t0
    assert dt < 10.0, f"criterion 2 took {dt:.2f}s"
    print(f"\nACCEPTANCE 2 (fig2 blocks/cycle/witness, N=2..5): PASS in {dt:.2f}s")


def test_criterion_3_census_oracle_equivalence(acceptance_corpus):
    t0 = time.monotonic()
    builtins = [
        ("ising", models.ising()),
        ("fig2", models.fig2()),
        ("zero(2)", models.zero(2)),
        ("zero(3)", models.zero(3)),
    ]
    corpus = [(m.name, m.term) for m in acceptance_corpus]
    assert len(corpus) >= 50
    checked = 0
    for name, term in builtins + corpus:
        _, _, _, g = full_pipeline(term)
        for n in range(2, _max_n(term.d) + 1):
            census = {k: v for k, v in spectral_census(g, n).dims.items() if v}
            ed = _ed_census(term, n)
            assert census == ed, f"{name} N={n}: census {census} != ED {ed}"
            if name == "ising":
                assert spectral_census(g, n).dims[1] == 0
            checked += 1
    dt = time.monotonic() - t0
    assert dt < 300.0, f"criterion 3 took {dt:.1f}s"
    print(
        f"\nACCEPTANCE 3 (census == dense spectrum, {len(corpus)} models + "
        f"{len(builtins)} builtins, {checked} (model, N) pairs): PASS in {dt:.1f}s"
    )


def test_criterion_4_decomposition_properties(acceptance_corpus):
    t0 = time.monotonic()
    worst_post = 0.0
    worst_recon = 0.0
    for m in acceptance_corpus:
        p, dec, bonds, _ = full_pipeline(m.term)
        assert sorted(dec.block_dims) == sorted(m.blocks), m.name
        left, right = operator_schmidt(p).folded
        for b in dec.blocks:
            w = b.isometry
            for fam, mode in ((right, "l"), (left, "r")):
                for s in fam:
                    c = dag(w) @ s @ w
                    tens = c.reshape(b.l, b.r, b.l, b.r)
                    if mode == "l":
                        tilde = np.einsum("axbx->ab", tens) / b.r
                        resid = np.linalg.norm(c - np.kron(tilde, np.eye(b.r)))
                    else:
                        tilde = np.einsum("xaxb->ab", tens) / b.l
                        resid = np.linalg.norm(c - np.kron(np.eye(b.l), tilde))
                    worst_post = max(worst_post, resid)
        worst_recon = max(
            worst_recon, float(np.linalg.norm(reconstruct_term(dec, bonds) - p.op))
        )
    assert worst_post < 1e-8, f"worst postcondition residual {worst_post:.3e}"
    assert worst_recon < 1e-8, f"worst reconstruction residual {worst_recon:.3e}"
    dt = time.monotonic() - t0
    print(
        f"\nACCEPTANCE 4 (decomposition suite, 50 models: postconditions "
        f"{worst_post:.1e}, reconstruction {worst_recon:.1e}, round-trips exact): "
        f"PASS in {dt:.1f}s"
    )


def test_criterion_5_canonicalization(acceptance_corpus):
    t0 = time.monotonic()
    checked = 0
    for m in acceptance_corpus:
        _, _, _, g = full_pipeline(m.term)
        if not check_scale_invariance(g).scale_invariant:
            continue
        chain = canonical_chain(Analysis(m.term))
        n = 3
        assert m.d**n <= 4096
        kconj = kernel_dim(build_chain(chain.conjugated, n))[1]
        if chain.k == 0:
            assert kconj.shape[1] == 0
        else:
            cols = []
            for s in chain.site_states:
                v = s
                for _ in range(n - 1):
                    v = np.kron(v, s)
                cols.append(v)
            assert same_subspace(kconj, np.column_stack(cols)), m.name
            # the normal form has the same kernel in the computational basis
            khat = kernel_dim(build_chain(chain.canonical, n))[1]
            comp = np.zeros((m.d**n, chain.k), dtype=complex)
            for a in range(chain.k):
                idx = sum(a * m.d**j for j in range(n))
                comp[idx, a] = 1.0
            assert same_subspace(khat, comp), m.name
        checked += 1
    assert checked >= 10, f"only {checked} scale-invariant corpus instances"
    for d in range(1, 7):
        for k in range(1, d + 1):
            rep = classify_phase(canonical_hamiltonian(k, d))
            assert rep.degeneracy == k, (k, d)
    dt = time.monotonic() - t0
    print(
        f"\nACCEPTANCE 5 (canonical chain on {checked} scale-invariant instances; "
        f"normal-form fixed points k<=d<=6): PASS in {dt:.1f}s"
    )


def test_criterion_6_bridge():
    t0 = time.monotonic()
    seeds = list(range(10))
    for seed in seeds:
        m = random_injective_map(2, seed=seed)
        res = mps_parent(m)
        resid = commutator_residual(operator_schmidt(res.h))
        assert resid > 1e-3, f"seed {seed}: h unexpectedly commuting"
        x = m.s @ m.s
        v = verify_x(res.h, x)
        assert v.residual < 1e-10 and v.pd, f"seed {seed}: verify_x failed"
        out = commutify(res.h, x)
        assert np.linalg.norm(out.h_prime.op - res.p.op) < 1e-9, f"seed {seed}"
        root = m.s  # X^(1/2) = S
        for n in (3, 4):
            kp = kernel_dim(build_chain(out.h_prime, n))[1]
            kh = kernel_dim(build_chain(res.h, n))[1]
            mapped = apply_sitewise(root, n, kp)
            mapped, _ = np.linalg.qr(mapped)
            assert same_subspace(mapped, kh), f"seed {seed} N={n}"
    dt = time.monotonic() - t0
    assert dt < 60.0, f"criterion 6 took {dt:.1f}s"
    print(f"\nACCEPTANCE 6 (bridge, {len(seeds)} seeded maps, N=3,4): PASS in {dt:.1f}s")


def test_criterion_7_determinism(tmp_path):
    t0 = time.monotonic()
    term = cc.synthesize_local_term([(1, 2), (2, 1)], [[1, 2], [1, 1]], seed=99)
    term_path = tmp_path / "term.json"
    term_path.write_text(cli._dumps(term.to_dict()))
    jobs = [
        ["analyze", "--model", "ising"],
        ["analyze", "--model", "fig2", "--seed", "4"],
        ["analyze", "--input", str(term_path), "--seed", "11"],
        ["census", "--model", "fig2", "--N", "2..5"],
        ["ground", "--model", "ising", "--N", "4"],
        ["bridge", "mps-parent", "--chi", "2", "--seed", "7"],
    ]
    for argv in jobs:
        outs = []
        for run in range(2):
            path = tmp_path / f"out{run}.json"
            cli_main(argv + ["--json", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], f"non-deterministic output for {argv}"
    dt = time.monotonic() - t0
    print(f"\nACCEPTANCE 7 (byte-identical reports, {len(jobs)} jobs x 2 runs): PASS in {dt:.1f}s")
