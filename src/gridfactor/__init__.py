"""DC power-flow distribution factors, localization certificates, cascades.

The package is organized around an immutable network model:

- :mod:`gridfactor.net_model` loads and validates networks;
- :mod:`gridfactor.graph_algos` provides blocks, bridges, and cut sets;
- :mod:`gridfactor.dcpf` solves the DC power flow;
- :mod:`gridfactor.factors` computes PTDF/LODF/GLODF matrices;
- :mod:`gridfactor.forests` is the exact spanning-forest oracle;
- :mod:`gridfactor.localization` certifies block-diagonal factor structure;
- :mod:`gridfactor.cascade` simulates stage-wise cascading failures.
"""

from .cascade import CascadeTrace, Stage, influence_graph, run_cascade
from .dcpf import FlowState, LaplacianBundle, build_laplacian, solve_flow
from .errors import (
    AnalysisError,
    BridgeError,
    BridgeOutageError,
    CutSetError,
    DisconnectedError,
    GridFactorError,
    InputError,
    ParseError,
    SingularError,
    TooLargeError,
    UnbalancedInjectionError,
    UnknownEdgeError,
    ValidationError,
    ZeroFactorError,
)
from .factors import (
    GlodfResult,
    OutageSet,
    PtdfMatrix,
    apply_outage,
    characteristic_injection_flow,
    detect_islanding,
    glodf,
    lodf_single,
    lodf_stack,
    ptdf_matrix,
)
from .forests import (
    MatrixTreeReport,
    ReactanceReport,
    a_entry_via_forests,
    effective_reactance,
    lodf_via_forests,
    matrix_tree_check,
    ptdf_via_forests,
)
from .graph_algos import BlockDecomposition, block_decomposition, is_cut_set, shares_simple_cycle
from .localization import (
    AdversarialInstance,
    LocalizationReport,
    PerturbationSpec,
    PerturbationStats,
    adversarial_capacity,
    almost_sure_nonzero_test,
    block_structure_report,
    simple_cycle_criterion,
)
from .net_model import (
    Network,
    ValidationReport,
    incidence_matrix,
    injection_vector,
    load_network,
    network_to_document,
    validate,
)

__version__ = "0.1.0"
