"""chromacode: functional compression with characteristic graphs.

Graph colorings of confusability (characteristic) graphs and their n-fold
OR powers give zero-error encodings of a function of two correlated sources;
the package provides the graph core, coloring schemes, chromatic-entropy
bounds, spectral machinery (eigenvalue chromatic bounds, Gershgorin circle
theorems, split decomposition), expansion rates, and an end-to-end codec.
"""

__version__ = "0.1.0"

from .errors import ChromacodeError, GuardExceeded, UsageError, resolve_guard
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    make_graph,
    max_independent_set_size,
    maximal_independent_sets,
    path_graph,
    prism_graph,
)
from .orpower import (
    PowerGraph,
    encode_tuple,
    or_power,
    or_power_degree,
)
from .coloring import (
    Coloring,
    FractionalColoring,
    even_cycle_power_coloring,
    exact_chromatic_number,
    fractional_chromatic_cycle,
    greedy_coloring,
    is_valid_b_fold,
    is_valid_coloring,
    odd_cycle_power_coloring,
    power_chromatic_number,
    power_coloring,
    product_coloring,
)
from .chargraph import (
    FunctionSpec,
    JointPMF,
    build_characteristic_graph,
    example1_spec,
)
from .entropy import (
    AlphaProfile,
    alpha_n_window,
    chromatic_entropy_bruteforce,
    entropy_bits,
    fractional_entropy_lower_bound,
    general_entropy_upper_bound,
    huffman_code,
    odd_cycle_entropy_upper_bound,
)
from .spectral import (
    BOUND_VARIANTS,
    BoundReport,
    GershgorinIntervals,
    Spectrum,
    SplitReport,
    chromatic_bounds_spectral,
    cycle_power_largest_eig,
    gershgorin,
    graph_spectrum,
    hong_bound,
    jacobi_eigenvalues,
    lambda1_window,
    smallest_eig_lower_bounds,
    split_decomposition,
)
from .expansion import (
    ExpansionBounds,
    expansion_bounds,
    expansion_rate,
    tanner_lower_bound,
)
from .codec import (
    AmbiguityError,
    CodecPlan,
    RateReport,
    build_codec,
    decode_pair,
    encode_block,
    roundtrip_exhaustive,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
