"""Staged analysis of one term, and the canonical form of its phase.

``Analysis`` is the one path from a two-site term to its graph and
verdict.  Three ground-space-preserving moves then bring a scale-invariant
term to a normal form determined only by its degeneracy k:

1. prune: replace every bond projector that is not a weight-1 self-loop
   by the identity, leaving a graph of bare loops;
2. disentangle: conjugate by a block-diagonal two-site unitary that turns
   each loop kernel vector into a product of reference vectors;
3. normal form: the projector 1 - sum_a |aa><aa| over k basis states.

The phase report bundles the pipeline verdicts; two scale-invariant
commuting terms are in the same phase exactly when their degeneracies
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _linalg as la
from .decomposition import SiteDecomposition, decompose_site
from .ed import same_chain_kernel
from .errors import (
    CommchainError,
    InvalidK,
    NotCommuting,
    NotScaleInvariant,
    TooLarge,
)
from .graph import BondFactor, InteractionGraph, build_graph, extract_bond_projectors
from .groundspace import (
    GroundLoopState,
    ScaleInvarianceVerdict,
    check_scale_invariance,
    loop_states,
)
from .operators import (
    DEFAULT_TOL,
    CommutingCheck,
    LocalTerm,
    OperatorSchmidt,
    ProjectorTerm,
    check_commuting,
    operator_schmidt,
    projectorize,
)

__all__ = [
    "Analysis",
    "PhaseReport",
    "prune_to_loops",
    "disentangling_unitary",
    "conjugate_term",
    "canonical_hamiltonian",
    "check_normal_form_size",
    "classify_phase",
    "CanonicalChain",
    "canonical_chain",
]


class Analysis:
    """The pipeline of one term, each stage computed once, on first access.

    ``p`` validates a ``ProjectorTerm`` and uses it as given (a mislabelled
    one is an error) and projectorizes any other term; ``schmidt`` is its
    one operator-Schmidt factorization, read by the next two stages;
    ``commuting`` is the commutator gate at ``tol``, the only one an input
    term passes; ``dec`` raises ``NotCommuting`` when the gate failed and
    otherwise decomposes the factors (see ``operators`` for the tolerance
    rule); ``bonds``, ``graph`` and ``verdict`` follow.  A stage that
    raises is not cached, so the next access raises again.
    """

    def __init__(self, term: LocalTerm, tol: float = DEFAULT_TOL, seed: int = 0):
        self.term, self.tol, self.seed = term, tol, seed

    @cached_property
    def p(self) -> ProjectorTerm:
        if isinstance(self.term, ProjectorTerm):
            self.term.validate()
            return self.term
        return projectorize(self.term, self.tol)

    @cached_property
    def schmidt(self) -> OperatorSchmidt:
        return operator_schmidt(self.p, self.tol)

    @cached_property
    def commuting(self) -> CommutingCheck:
        return check_commuting(self.schmidt, self.tol)

    @cached_property
    def dec(self) -> SiteDecomposition:
        if not self.commuting.commuting:
            raise NotCommuting(self.commuting.residual)
        return decompose_site(self.schmidt, self.tol, self.seed)

    @cached_property
    def bonds(self) -> list[list[BondFactor]]:
        return extract_bond_projectors(self.p, self.dec, self.tol)

    @cached_property
    def graph(self) -> InteractionGraph:
        return build_graph(self.dec, self.bonds)

    @cached_property
    def verdict(self) -> ScaleInvarianceVerdict:
        return check_scale_invariance(self.graph)


def prune_to_loops(analysis: Analysis) -> ProjectorTerm:
    """Replace every non-loop bond projector of ``analysis.p`` by the identity.

    Requires a scale-invariant graph.  The result is a commuting projector
    whose graph consists of the original self-loops and nothing else, with
    the same chain kernel; the kernel equality is checked by exact
    diagonalization at one small chain length.
    """
    verdict, dec, bonds = analysis.verdict, analysis.dec, analysis.bonds
    if not verdict.scale_invariant:
        raise NotScaleInvariant(f"witness: {verdict.witness.to_dict()}")
    op = dec.assemble({(a, a): bonds[a][a].q for a in verdict.loops})
    pruned = ProjectorTerm(dec.d, (op + la.dag(op)) / 2.0)
    pruned.validate()
    chk = check_commuting(operator_schmidt(pruned, analysis.tol), np.sqrt(analysis.tol))
    if not chk.commuting:
        raise CommchainError(f"pruned term not commuting (residual {chk.residual:.3e})")
    n, same = same_chain_kernel(analysis.p, pruned)
    if n is not None and not same:
        raise CommchainError(f"chain kernels differ at N={n} after pruning")
    return pruned


def disentangling_unitary(
    dec: SiteDecomposition, loops: list[GroundLoopState], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Unitary on C^{d^2} acting as U_a on each loop bond block, identity elsewhere.

    U_a = [phi, completion]^dag maps the loop kernel vector phi to the
    first basis vector of H_{a_r} (x) H_{a_l}, i.e. xi_r (x) xi_l for the
    first standard basis vector of each factor.  The assembled operator is
    block-diagonal for the four-index two-site decomposition, hence
    conjugation preserves commutativity.
    """
    u = dec.assemble({(s.block, s.block): la.dag(la.complete_orthonormal(s.phi)) for s in loops})
    unit_defect = np.linalg.norm(u @ la.dag(u) - np.eye(dec.d**2))
    if unit_defect > np.sqrt(tol):
        raise CommchainError(f"disentangler not unitary (defect {unit_defect:.3e})")
    return u


def conjugate_term(p: ProjectorTerm, u: np.ndarray) -> ProjectorTerm:
    op = u @ p.op @ la.dag(u)
    out = ProjectorTerm(p.d, (op + la.dag(op)) / 2.0)
    out.validate()
    return out


# The normal form is a dense d^2 x d^2 matrix; past this many entries
# (d > 45) it is refused.  Inputs up to d = 36 still classify.
MAX_NORMAL_FORM_ENTRIES = 1 << 22


def check_normal_form_size(d: int) -> None:
    """Raise ``TooLarge`` when the d^2 x d^2 normal form has too many entries."""
    if d**4 > MAX_NORMAL_FORM_ENTRIES:
        raise TooLarge(
            f"normal form at d={d} has d^4 = {d**4} entries, "
            f"past the limit {MAX_NORMAL_FORM_ENTRIES}"
        )


def canonical_hamiltonian(k: int, d: int) -> ProjectorTerm:
    """Normal form 1 (x) 1 - sum_{a<k} |aa><aa| for degeneracy k."""
    if not (1 <= k <= d):
        raise InvalidK(f"need 1 <= k <= d, got k={k}, d={d}")
    check_normal_form_size(d)
    op = np.eye(d * d, dtype=complex)
    for a in range(k):
        idx = a * d + a
        op[idx, idx] = 0.0
    return ProjectorTerm(d, op)


@dataclass
class PhaseReport:
    """Verdict bundle of the full classification pipeline."""

    commuting: bool | None = None
    commutator_residual: float | None = None
    block_dims: list[tuple[int, int]] | None = None
    graph: InteractionGraph | None = None
    verdict: ScaleInvarianceVerdict | None = None
    degeneracy: int | None = None
    canonical_rep: ProjectorTerm | None = None
    notes: list[str] = field(default_factory=list)
    error: str | None = None
    stage: str | None = None

    @property
    def scale_invariant(self) -> bool | None:
        return self.verdict.scale_invariant if self.verdict else None

    def to_dict(self) -> dict:
        return {
            "commuting": self.commuting,
            "commutator_residual": self.commutator_residual,
            "blocks": self.block_dims,
            "graph": self.graph.to_dict() if self.graph else None,
            "scale_invariant": self.scale_invariant,
            "witness": (
                self.verdict.witness.to_dict()
                if self.verdict and self.verdict.witness
                else None
            ),
            "degeneracy": self.degeneracy,
            "canonical_rep": self.canonical_rep.to_dict() if self.canonical_rep else None,
            "conventions": self.notes,
            "error": self.error,
            "stage": self.stage,
        }


_CONVENTION_NOTES = [
    "blocks with trivial action keep the algebra side as the left factor",
    "reference vectors default to the first standard basis vector per factor",
    "phase equality of scale-invariant commuting terms is decided by equal degeneracy",
]


def classify_phase(term: LocalTerm, tol: float = DEFAULT_TOL, seed: int = 0) -> PhaseReport:
    """Run the staged analysis of ``term`` and report its phase."""
    a = Analysis(term, tol, seed)
    report = PhaseReport(notes=list(_CONVENTION_NOTES))
    try:
        p = a.p
    except (CommchainError, ValueError) as exc:
        report.error = str(exc)
        report.stage = "projectorize"
        return report
    report.commuting = a.commuting.commuting
    report.commutator_residual = a.commuting.residual
    if not report.commuting:
        report.stage = "check_commuting"
        return report
    try:
        report.block_dims = a.dec.block_dims
        report.graph = a.graph
    except CommchainError as exc:
        report.error = str(exc)
        report.stage = "decomposition"
        return report
    report.verdict = a.verdict
    if not report.verdict.scale_invariant:
        report.stage = "scale_invariance"
        return report
    k = len(report.verdict.loops)
    report.degeneracy = k
    if k >= 1:
        report.canonical_rep = canonical_hamiltonian(k, p.d)
    else:
        report.notes.append("no loops: frustrated at every length, no canonical form")
    report.stage = "classified"
    return report


@dataclass
class CanonicalChain:
    """All stages of the canonicalization pipeline for one input."""

    dec: SiteDecomposition
    pruned: ProjectorTerm
    disentangler: np.ndarray  # unitary on C^{d^2}
    conjugated: ProjectorTerm
    k: int
    canonical: ProjectorTerm | None
    site_states: list[np.ndarray]  # per-loop one-site reference state in C^d


def canonical_chain(analysis: Analysis) -> CanonicalChain:
    """prune -> disentangle -> normal form, with the loop site states.

    After conjugation the chain ground space is spanned by the product
    states s_a^(x N) with s_a = W_a (xi_l (x) xi_r), the first column of
    W_a.  Each s_a (x) s_a must lie in the kernel of the conjugated term;
    past ``sqrt(tol)`` the disentangler is refused.
    """
    pruned = prune_to_loops(analysis)
    dec, bonds, loops = analysis.dec, analysis.bonds, analysis.verdict.loops
    u = disentangling_unitary(dec, loop_states(bonds), analysis.tol)
    conjugated = conjugate_term(pruned, u)
    # + 0.0 writes a -0.0 entry as 0.0, as the product W_a (xi_l (x) xi_r) does.
    site_states = [dec.blocks[a].isometry[:, 0] + 0.0 for a in loops]
    for a, s in zip(loops, site_states):
        defect = np.linalg.norm(conjugated.op @ np.kron(s, s))
        if defect > np.sqrt(analysis.tol):
            raise CommchainError(
                f"site state of loop {a} is not a ground state of the disentangled term "
                f"(||P (s x s)|| = {defect:.3e})"
            )
    k = len(loops)
    return CanonicalChain(
        dec=dec,
        pruned=pruned,
        disentangler=u,
        conjugated=conjugated,
        k=k,
        canonical=canonical_hamiltonian(k, dec.d) if k >= 1 else None,
        site_states=site_states,
    )
