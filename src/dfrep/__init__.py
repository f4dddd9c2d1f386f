"""dfrep: finite-truncation engine for decoherence functionals and their
operator representations on H (x) H."""

from .functionals import (
    AxiomReport,
    BilinearForm,
    DecoherenceFunctional,
    DimensionExclusionError,
    FormBackedFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
    beta,
    beta_of_product_projection,
    check_axioms,
    extend_to_bilinear,
    sesquilinear_q,
)
from .histories import (
    ClassOperatorModel,
    ConsistencyReport,
    HomogeneousHistory,
    class_operator,
    consistency_report,
    history_pair_value,
    iter_homogeneous_histories,
    orthogonal_decompose,
    standard_df,
)
from .ils import (
    ConditionViolationError,
    ConditionsReport,
    ILSOperator,
    df_from_operator,
    evaluate_ils,
    extract_ils,
    functional_to_operator,
    verify_ils_conditions,
)
from .linalg import (
    DimensionLimitError,
    ElementaryTensorSum,
    Projection,
    identity_projection,
    kron,
    kron_trace,
    operator_norm,
    projector_tensor_sum,
    random_projection,
    rank_one_proj,
    spectral_projections,
    swap_operator,
    trace_norm,
    trace_pair,
    zero_projection,
)
from .probes import (
    SweepReport,
    boundedness_probe,
    tensor_bound_probe,
    tracial_bound_probe,
)
from .tracial import (
    Decomposition,
    GramHermiticityError,
    TracialOperator,
    build_tracial_operator,
    evaluate_double_sum,
    gram_matrix,
    hermitian_form_decomposition,
    pure_state_m,
    reconstruct_from_product_diagonal,
)

__version__ = "0.1.0"
