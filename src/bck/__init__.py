"""bck - bundle curvature kit.

Operator-valued reproducing kernels on complex chart domains, the metric
connections and curvature of the Hermitian structures they induce, and
spectral positivity verdicts of the associated curvature forms, all at
desk scale with finite-difference differentiation and closed-form disc
oracles built in.
"""

__version__ = "0.1.0"

from .chern import (
    ConnectionField,
    CurvatureField,
    FdSteps,
    MetricField,
    analytic_curvature_field,
    chern_connection,
    chern_connection_field,
    curvature,
    dual_curvature_check,
    hs_connection_check,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
    subbundle_split,
)
from .errors import BckError, DomainError, SingularMetricError, StructuralError
from .forms import (
    Form1,
    Form2,
    cauchy_riemann_residual,
    exterior_derivative,
    split_bilinear,
    split_linear,
    wedge,
)
from .grids import ChartGrid
from .kernels import (
    GramMatrix,
    KernelSpec,
    RkhsModel,
    admissibility,
    disc_power,
    dual_kernel,
    eval_kernel,
    evaluation_adjoint_check,
    from_sections,
    gram,
    lemma51_consistency,
    psd_check,
    psd_margin,
    reproducing_check,
    rkhs_inner,
    universal_grassmann,
)
from .polys import MatrixPolynomial
from .positivity import (
    GriffithsReport,
    griffiths_form,
    griffiths_verdict,
    triple_join,
    triple_split,
)
