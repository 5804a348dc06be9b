"""graphconc: regularized concentration of inhomogeneous random graphs.

Sampling of sparse inhomogeneous Erdos-Renyi graphs from counter-based
seeds, the regularization schemes (vertex removal, edge trimming,
proportional reweighting, tau-shift), matrix-free spectral estimators,
Grothendieck-Pietsch factorization, the constructive N/R/C edge
decomposition, and spectral clustering for the two-block SBM -- plus a
seeded CLI harness (``graphconc --help``).
"""

from .errors import (DimensionMismatch, EntryOutOfRange, GraphconcError,
                     InvalidModel, InvalidRates, LengthMismatch,
                     NoConvergence, SizeExceeded, VerificationError,
                     WidthExceeded, ZeroDegree, ZeroGap)
from .models import (BlockTwo, Explicit, RankOne, SparseGraph, Uniform,
                     degree_profile, expected_adjacency, expected_degrees,
                     expected_dense, load_graph, max_expected_degree,
                     model_from_dict, model_to_dict, sample,
                     sample_directed, save_graph)
from .operators import LinearOp, compose_difference
from .regularize import (SCHEMES, ShiftedGraph, adjacency_shifted_op,
                         apply_scheme, average_degree,
                         expected_laplacian, high_degree_set, laplacian,
                         proportional_reweight, remove_vertices, tau_shift,
                         trim_edges)
from .spectral import (DENSE_SOLVE_LIMIT, full_spectrum, inf_to_2_norm_exact,
                       inf_to_2_norm_lower, l1_operator_bound,
                       l2_sparsity_bound, spectral_norm, top_k_eigs)
from .pietsch import GPCertificate, PietschWeights, gp_submatrix, gp_weights
from .decompose import (EdgeDecomposition, decompose, decomposition_to_csv,
                        trace_to_json, transposed, triangle_split,
                        verify_decomposition)
from .community import (Detection, davis_kahan_bound, davis_kahan_check,
                        detect, expected_laplacian_eigs,
                        expected_laplacian_eigvec, misclassification,
                        sbm_instance)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
