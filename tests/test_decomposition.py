"""Tests for algebra closure, commutants, and the site decomposition."""

import numpy as np
import pytest

from commchain import models
from commchain._linalg import dag, subspace_angle_sin
from commchain.decomposition import (
    SiteDecomposition,
    commutant,
    center,
    decompose_site,
    generate_algebra,
)
from commchain.errors import DecompositionFailed
from commchain.graph import extract_bond_projectors, reconstruct_term
from commchain.operators import ProjectorTerm, operator_schmidt, synthesize_local_term

from conftest import identifiable

SX = models.SIGMA_X
SZ = models.SIGMA_Z


def test_generate_algebra_scalars():
    alg = generate_algebra([np.eye(2, dtype=complex)])
    assert alg.dim == 1


def test_generate_algebra_diagonal():
    alg = generate_algebra([np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)])
    assert alg.dim == 2
    assert alg.closure_defect() < 1e-10


def test_generate_algebra_full():
    alg = generate_algebra([SX, SZ])
    assert alg.dim == 4
    assert alg.closure_defect() < 1e-10


def test_commutant_of_scalars():
    alg = generate_algebra([np.eye(3, dtype=complex)])
    assert commutant(alg).dim == 9


def test_commutant_of_full_algebra():
    alg = generate_algebra([SX, SZ])
    assert commutant(alg).dim == 1


def test_commutant_of_diagonal():
    alg = generate_algebra([np.diag([1.0, -1.0]).astype(complex)])
    com = commutant(alg)
    assert com.dim == 2
    for b in com.basis:
        assert np.linalg.norm(b - np.diag(np.diagonal(b))) < 1e-10


def _span_distance(a, b) -> float:
    """Largest principal-angle sine between two operator spans."""
    fa = np.linalg.qr(np.array([m.reshape(-1) for m in a]).T)[0]
    fb = np.linalg.qr(np.array([m.reshape(-1) for m in b]).T)[0]
    return subspace_angle_sin(fa, fb)


def test_double_commutant(small_corpus):
    for m in small_corpus[:6]:
        pair = operator_schmidt(m.term)
        if not pair.right_factors:
            continue
        alg = generate_algebra(pair.right_factors + [np.eye(m.d, dtype=complex)])
        dc = commutant(commutant(alg))
        assert dc.dim == alg.dim
        assert _span_distance(dc.basis, alg.basis) < 1e-8


def test_center_of_full_algebra_is_scalars():
    alg = generate_algebra([SX, SZ])
    z = center(alg)
    assert z.dim == 1


def test_decompose_ising(ising):
    dec = decompose_site(ising)
    assert dec.block_dims == [(1, 1), (1, 1)]
    # blocks are the two computational basis states, in some order
    supports = {int(np.argmax(np.abs(b.isometry[:, 0]))) for b in dec.blocks}
    assert supports == {0, 1}
    for b in dec.blocks:
        assert abs(np.max(np.abs(b.isometry[:, 0])) - 1.0) < 1e-10


def test_decompose_fig2_bell_blocks(fig2):
    dec = decompose_site(fig2)
    assert dec.block_dims == [(1, 1)] * 4
    bells = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, -1, 0],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
        ],
        dtype=complex,
    ) / np.sqrt(2)
    found = set()
    for b in dec.blocks:
        col = b.isometry[:, 0]
        for i, bell in enumerate(bells):
            if abs(abs(np.vdot(bell, col)) - 1.0) < 1e-9:
                found.add(i)
    assert found == {0, 1, 2, 3}


def test_decompose_zero_term():
    dec = decompose_site(models.zero(3))
    assert dec.block_dims == [(1, 3)]


# Specs that fail the corpus identifiability rule (a partial bond of kernel
# dim k and full dim f carries only opposite_dim * min(k, f - k) random
# component vectors): the library correctly returns the finer blocks.
@pytest.mark.parametrize(
    "blocks,kdims,seed,finer",
    [
        ([(2, 3)], [[5]], 881738886, [(2, 1), (2, 2)]),
        (
            [(1, 2), (1, 1), (3, 1)],
            [[2, 0, 5], [0, 0, 3], [1, 0, 3]],
            1911487024,
            [(1, 1), (1, 1), (1, 2), (2, 1)],
        ),
    ],
)
def test_unidentifiable_spec_decomposes_finer(blocks, kdims, seed, finer):
    assert not identifiable(blocks, kdims)
    p = synthesize_local_term(blocks, kdims, seed)
    dec = decompose_site(p)
    assert sorted(dec.block_dims) == sorted(finer)
    assert dec.completeness_defect() < 1e-10
    bonds = extract_bond_projectors(p, dec)
    assert np.linalg.norm(reconstruct_term(dec, bonds) - p.op) < 1e-8


def test_decompose_identity_term():
    p = ProjectorTerm(2, np.eye(4, dtype=complex))
    dec = decompose_site(p)
    assert dec.block_dims == [(1, 2)]


def test_decompose_completeness(small_corpus):
    for m in small_corpus:
        dec = decompose_site(m.term)
        assert dec.completeness_defect() < 1e-10
        for i, bi in enumerate(dec.blocks):
            assert np.linalg.norm(dag(bi.isometry) @ bi.isometry - np.eye(bi.l * bi.r)) < 1e-10
            for j, bj in enumerate(dec.blocks):
                if i != j:
                    assert np.linalg.norm(dag(bi.isometry) @ bj.isometry) < 1e-10


def test_decompose_postcondition_residuals(small_corpus):
    for m in small_corpus:
        dec = decompose_site(m.term)
        pair = operator_schmidt(m.term)
        worst = 0.0
        for b in dec.blocks:
            w = b.isometry
            for s in pair.right_factors:  # act as s~ (x) 1_r
                c = dag(w) @ s @ w
                t = c.reshape(b.l, b.r, b.l, b.r)
                stilde = np.einsum("axbx->ab", t) / b.r
                worst = max(worst, np.linalg.norm(c - np.kron(stilde, np.eye(b.r))))
            for s in pair.left_factors:  # act as 1_l (x) c~
                c = dag(w) @ s @ w
                t = c.reshape(b.l, b.r, b.l, b.r)
                ctilde = np.einsum("xaxb->ab", t) / b.l
                worst = max(worst, np.linalg.norm(c - np.kron(np.eye(b.l), ctilde)))
        assert worst < 1e-8, f"{m.name}: residual {worst}"


def test_decompose_determinism(small_corpus):
    m = small_corpus[0]
    a = decompose_site(m.term, seed=12)
    b = decompose_site(m.term, seed=12)
    assert a.block_dims == b.block_dims
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x.isometry, y.isometry)


def test_decompose_round_trip(small_corpus):
    for m in small_corpus:
        dec = decompose_site(m.term)
        assert sorted(dec.block_dims) == sorted(m.blocks), m.name


def test_decompose_rejects_non_commuting():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, v = np.linalg.eigh(z + dag(z))
    p = ProjectorTerm(2, v[:, :2] @ dag(v[:, :2]))
    with pytest.raises(DecompositionFailed):
        decompose_site(p)


def test_site_decomposition_json_round_trip(fig2):
    dec = decompose_site(fig2)
    back = SiteDecomposition.from_dict(dec.to_dict())
    assert back.d == dec.d
    assert back.block_dims == dec.block_dims
    for a, b in zip(back.blocks, dec.blocks):
        assert np.allclose(a.isometry, b.isometry)
