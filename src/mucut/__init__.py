"""Expander decomposition of weighted graphs under vertex measures."""

from .graph import (Graph, INFINITE, Infinite, VertexMeasure, connected_components,
                    cut_weight, induced_subgraph, is_connected, mu_expansion_of_cut)
from .spectral import (ActiveState, StochasticMatching, WalkOperator, default_delta,
                       potentials, projections, sample_unit_vector)
from .cutplayer import WeightedBipartition, check_bipartition, rst_partition
from .flow import FlowNetwork, FlowSolution, Terminals, decompose_paths, edge_network, max_flow
from .matching import RoundRecord, build_pi_problem, solve_matching_round
from .game import CutMatchingOutcome, GameParams, Variant, run_cut_matching
from .trimming import trim
from .decompose import (BalanceOutcome, ClusterCertificate, DecomposeConfig,
                        DecompositionResult, OutcomeKind, balanced_or_expander, decompose)
from .verify import (ValidationReport, brute_force_expansion, brute_force_near_expansion,
                     check_embedding_congestion, validate_partition)
from .errors import GraphInputError, InvariantViolation

__version__ = "0.1.0"
