"""dfrep: finite-truncation engine for decoherence functionals and their
operator representations on H (x) H."""

from .functionals import (
    AxiomReport,
    DecoherenceFunctional,
    DimensionExclusionError,
    FormBackedFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
    check_axioms,
)
from .histories import (
    ClassOperatorFunctional,
    ClassOperatorModel,
    ConsistencyReport,
    consistency_report,
)
from .ils import (
    ConditionsReport,
    extract_ils,
    verify_ils_conditions,
)
from .linalg import (
    DimensionLimitError,
    Projection,
    kron_trace,
    operator_norm,
    random_projection,
    swap_operator,
    trace_norm,
)
from .probes import SweepReport, tensor_bound_probe
from .tracial import (
    Decomposition,
    GramHermiticityError,
    build_tracial_operator,
    evaluate_double_sum,
    gram_matrix,
    hermitian_form_decomposition,
    pure_state_m,
    reconstruct_from_product_diagonal,
)

__version__ = "0.1.0"
