"""Compile multivariate normal distributions into compact state-preparation
circuits via tree-tensor-network compression of truncated Fourier
coefficients, with a-priori fidelity certificates."""

from .errors import (CapacityError, CircuitValidityError, ConfigError,
                     DegenerateDistributionError, GenerationError,
                     IllConditionedError, NormalizationError, NumericalError,
                     ParameterError, PivotDegeneracyError, PrecisionError,
                     RankError, ShapeError, TtnError, VerificationError)
from .gaussian import (Bipartition, CovarianceMatrix, SchmidtSpectrum,
                       canonical_correlations, closed_form_rank_bound,
                       cut_spectrum, make_covariance, pair_ratio,
                       pair_spectrum, predict_ttn_fidelity, required_bond,
                       required_bond_profile)
from .fourier import (FourierEvaluator, GridSpec, dense_coeff_tensor,
                      exact_target, fourier_ceiling, fsl_state,
                      index_to_frequency,
                      inverse_dft_embedding_matrix)
from .topology import (TreeTopology, canonical_leaf_tree,
                       caterpillar_leaf_tree, enumerate_leaf_trees,
                       normalize_leaf_tree, random_leaf_tree, tree_distances)
from .ttn import (Edge, FidelityLedger, TreeTensorNetwork,
                  entanglement_entropy, frobenius_from_fidelity, from_dense,
                  random_mps)
from .tci import BlackBoxTensor, maxvol, tci_build
from .structopt import ReconnectionChoice, local_reconnect, optimize_structure
from .circuit import (CostReport, Placement, QftTtn, QuantumCircuit,
                      build_qft_ttn, compose_and_compress, fsl_baseline_cost,
                      qubitize, synthesize, with_inverse_dft)
from .sim import (StateVector, baseline_comparison, compile_circuit, fidelity,
                  reference, scan_trees, simulate, verify_circuit,
                  verify_pipeline)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
