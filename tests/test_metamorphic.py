"""Metamorphic properties of the commutator gate, the verdict and the census.

A local basis change U (x) U moves no physics: the Frobenius residual is
unitarily invariant, the verdict, the block dimensions, the degeneracy
and the energy census stay put, and the graph's M and R change only by a
relabelling of the vertices.  The census is also unchanged
by relabelling the graph's vertices (P M P^T, P R P^T) and by reversing
its edges (M^T, R^T).  Planted verdicts also hold across six decades of
``tol``.

Hermitian noise of spectral norm eps on a corpus projector: with
eps << tol the verdict and the block dimensions stay; with eps >> sqrt(tol)
the commutator gate rejects the term (exit 2, ``commuting: false``).  In
between lies a grey zone that no test pins down: the commutator residual
is eps times a model-dependent constant (up to about d^(3/2), since it is
a Frobenius norm), the gate compares it with tol, and an accepted term
must still pass the sqrt(tol) checks of the decomposition, so either
outcome, or a decomposition failure, can occur there.  What is pinned
down is that the gate at tol alone decides: a residual between tol and
sqrt(tol) is refused before the decomposition starts.

Hypothesis runs derandomized with a handful of examples, so the draws are
the same on every run.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commchain import canonical, cli, models
from commchain._linalg import haar_unitary
from commchain.canonical import Analysis, classify_phase
from commchain.cli import main
from commchain.errors import NotCommuting
from commchain.groundspace import TransferMatrices, spectral_census
from commchain.operators import (
    DEFAULT_TOL,
    LocalTerm,
    ProjectorTerm,
    commutator_residual,
    operator_schmidt,
)

from conftest import full_pipeline

SETTINGS = settings(max_examples=8, derandomize=True, deadline=None, database=None)


def _builtins():
    return [models.ising(), models.fig2(), models.zero(3)]


def _rotate(term, seed):
    u = haar_unitary(term.d, np.random.default_rng(seed))
    uu = np.kron(u, u)
    op = uu @ term.op @ uu.conj().T
    return type(term)(term.d, (op + op.conj().T) / 2.0)


@SETTINGS
@given(index=st.integers(0, 14), seed=st.integers(0, 2**31 - 1), eps=st.sampled_from([0.0, 1e-6, 1e-3]))
def test_basis_change_keeps_residual(small_corpus, index, seed, eps):
    terms = _builtins() + [m.term for m in small_corpus]
    term = terms[index]
    if eps:
        rng = np.random.default_rng(seed + 1)
        n = term.d * term.d
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        term = LocalTerm(term.d, term.op + eps * (z + z.conj().T) / 2.0)
    before = commutator_residual(operator_schmidt(term))
    after = commutator_residual(operator_schmidt(_rotate(term, seed)))
    assert abs(after - before) <= 1e-12 * max(1.0, before)


@SETTINGS
@given(index=st.integers(0, 14), seed=st.integers(0, 2**31 - 1))
def test_basis_change_keeps_verdict(small_corpus, index, seed):
    terms = _builtins() + [m.term for m in small_corpus]
    term = terms[index]
    rep = classify_phase(term)
    rot = classify_phase(_rotate(term, seed))
    assert rot.stage == rep.stage
    assert rot.commuting and rep.commuting
    assert rot.scale_invariant == rep.scale_invariant
    assert sorted(rot.block_dims) == sorted(rep.block_dims)
    assert rot.degeneracy == rep.degeneracy


@SETTINGS
@given(index=st.integers(0, 14), seed=st.integers(0, 2**31 - 1))
def test_basis_change_permutes_graph(small_corpus, index, seed):
    terms = _builtins() + [m.term for m in small_corpus]
    term = terms[index]
    g, rot = full_pipeline(term)[3], full_pipeline(_rotate(term, seed))[3]
    assert rot.num_vertices == g.num_vertices
    m, r = g.M.tolist(), g.R.tolist()
    assert any(
        _relabel(m, perm) == rot.M.tolist() and _relabel(r, perm) == rot.R.tolist()
        for perm in itertools.permutations(range(g.num_vertices))
    )


@SETTINGS
@given(index=st.integers(0, 11), exponent=st.floats(-12.0, -6.0))
def test_planted_verdict_across_tol(small_corpus, index, exponent):
    m = small_corpus[index]
    rep = classify_phase(m.term, tol=10.0**exponent)
    assert rep.commuting and rep.error is None
    assert rep.scale_invariant == m.scale_invariant_planted


def _noisy(term, eps, seed):
    """``term + eps H`` with H hermitian, ||H||_2 = 1, and no kernel-kernel block.

    The kernel-kernel block is left out because it moves the kernel
    eigenvalues by up to eps at first order: past sqrt(tol), projectorize
    would refuse the term as not PSD (exit 1) before the commutator gate
    sees it.  The rest moves them by O(eps^2) and rotates the range by
    O(eps).
    """
    rng = np.random.default_rng(seed)
    n = term.d * term.d
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kernel = np.eye(n) - term.op
    h = z + z.conj().T
    h = h - kernel @ h @ kernel
    h = (h + h.conj().T) / (2.0 * np.linalg.norm(h, 2))
    return LocalTerm(term.d, term.op + eps * h)


@SETTINGS
@given(index=st.integers(0, 11), seed=st.integers(0, 2**31 - 1))
def test_noise_far_below_tol_keeps_verdict(small_corpus, index, seed):
    term = small_corpus[index].term
    rep = classify_phase(term)
    noisy = classify_phase(_noisy(term, 1e-3 * DEFAULT_TOL, seed))
    assert noisy.commuting and noisy.error is None
    assert noisy.stage == rep.stage
    assert noisy.scale_invariant == rep.scale_invariant
    assert sorted(noisy.block_dims) == sorted(rep.block_dims)
    assert noisy.degeneracy == rep.degeneracy


@SETTINGS
@given(index=st.integers(0, 11), seed=st.integers(0, 2**31 - 1))
def test_noise_far_above_sqrt_tol_is_not_commuting(tmp_path_factory, small_corpus, index, seed):
    term = _noisy(small_corpus[index].term, 30 * np.sqrt(1e-9), seed)
    path = tmp_path_factory.mktemp("noise") / "term.json"
    path.write_text(cli._dumps(term.to_dict()))
    out = path.with_name("report.json")
    assert main(["analyze", "--input", str(path), "--json", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["commuting"] is False and report["stage"] == "check_commuting"


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_residual_between_tol_and_sqrt_tol_is_refused_by_the_gate(monkeypatch, tol):
    # ising rotated by a two-site unitary exp(i eps K) with eps = 1e-2 sqrt(tol):
    # still a projector, with a commutator residual of 0.09 sqrt(tol).
    ising = models.ising()
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh(z + z.conj().T)
    u = (v * np.exp(1e-2j * np.sqrt(tol) * w)) @ v.conj().T
    p = ProjectorTerm(2, u @ ising.op @ u.conj().T)

    def unreachable(*args):
        raise AssertionError("the decomposition started")

    monkeypatch.setattr(canonical, "decompose_site", unreachable)
    with pytest.raises(NotCommuting) as exc:
        Analysis(p, tol).dec
    assert tol < exc.value.residual <= np.sqrt(tol)


def _transfer(term) -> TransferMatrices:
    return TransferMatrices.from_graph(full_pipeline(term)[3])


def _relabel(a, perm):
    """P A P^T for the permutation matrix P of ``perm``."""
    return [[a[i][j] for j in perm] for i in perm]


def _square(nv: int):
    row = st.lists(st.integers(0, 81), min_size=nv, max_size=nv)
    return st.lists(row, min_size=nv, max_size=nv)


_matrices = st.integers(1, 5).flatmap(
    lambda nv: st.tuples(_square(nv), _square(nv), st.permutations(range(nv)))
)


@SETTINGS
@given(mrp=_matrices, n=st.sampled_from([1, 2, 7, 8, 33, 64]))
def test_census_invariant_under_relabelling_and_transposition(mrp, n):
    m, r, perm = mrp
    census = spectral_census(TransferMatrices(M=m, R=r), n).dims
    relabelled = TransferMatrices(M=_relabel(m, perm), R=_relabel(r, perm))
    transposed = TransferMatrices(M=[list(c) for c in zip(*m)], R=[list(c) for c in zip(*r)])
    assert spectral_census(relabelled, n).dims == census
    assert spectral_census(transposed, n).dims == census


@SETTINGS
@given(index=st.integers(0, 2), seed=st.integers(0, 2**31 - 1))
def test_census_invariant_under_basis_change(index, seed):
    term = _builtins()[index]
    before, after = _transfer(term), _transfer(_rotate(term, seed))
    for n in (2, 5, 40):
        assert spectral_census(after, n).dims == spectral_census(before, n).dims
