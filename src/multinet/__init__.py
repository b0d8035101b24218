"""Multi-layer network composition under a unified random-walk process.

Stage 1 (transform) folds per-vertex bias and delay dynamics into each
layer's edge weights; stage 2 (compose) assembles the layers into one
ln x ln super-adjacency under a multiplex, egocentric, stationary, or
distance-coupled regime. The composed network is then open to ordinary
single-layer machinery: spectral sweep bisection, conductance, stationary
distributions, and per-layer traffic load.
"""

from . import errors
from .graph import (
    LayerGraph,
    StationaryDistribution,
    TransitionMatrix,
    components,
    is_detailed_balanced,
    reconstruct_adjacency,
    stationary,
    symmetrize_from_markov,
    urw_transition,
)
from .transform import (
    DynamicsParams,
    bias_transform,
    degree_proportional_delay,
    delay_transform,
    laplacian_of,
    transform_layer,
)
from .compose import (
    EgoMarkov,
    SuperAdjacency,
    check_undirected_feasibility,
    compose_distance,
    compose_ego,
    compose_multiplex,
    compose_stationary,
    degree_table,
    ego_block,
    ego_block_from_stationary,
    split_flat,
    verify_ego_consistency,
    verify_layer_consistency,
)
from .spectral import (
    Bisection,
    LayerLoad,
    bisect,
    conductance,
    fiedler_vector,
    layer_load,
    sweep_cut,
)
from .io import (
    LayeredDataset,
    read_dimacs_gr,
    read_dynamics,
    read_ego_file,
    read_layers,
    read_pi_file,
    read_super,
    write_dot,
    write_ego_file,
    write_layers,
    write_pi_file,
    write_super,
)

__version__ = "0.1.0"
