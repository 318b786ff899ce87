"""Analysis toolkit for translation-invariant commuting 1D spin chains.

Pipeline: ``Analysis(term)`` projectorizes a hermitian two-site term,
tests it for commutativity and block-decomposes its single-site space;
the bond projectors between blocks define a weighted directed graph whose
cycles carry the entire ground-space structure.  On top of that the package
computes exact degeneracies and energy censuses for any chain length,
decides scale invariance, produces the canonical representative of the
phase, and bridges non-commuting frustration-free terms to commuting ones.
"""

from .bridge import commutify, mps_parent, polar_normalize, solve_x, verify_x
from .canonical import (
    Analysis,
    canonical_chain,
    canonical_hamiltonian,
    classify_phase,
    disentangling_unitary,
    prune_to_loops,
)
from .decomposition import SiteDecomposition, commutant, decompose_site
from .ed import build_chain, integer_spectrum, kernel_dim, same_subspace
from .graph import InteractionGraph, build_graph, export_dot, extract_bond_projectors
from .models import synthesize_local_term
from .groundspace import (
    TransferMatrices,
    check_scale_invariance,
    degeneracy,
    enumerate_cycles,
    ground_states,
    spectral_census,
)
from .operators import (
    LocalTerm,
    ProjectorTerm,
    check_commuting,
    operator_schmidt,
    projectorize,
)

__version__ = "0.1.0"
