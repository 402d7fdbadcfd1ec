"""cartanfree: exact-arithmetic toolkit for Virasoro-type Lie algebras and
the module families that are free of rank one over their Cartan generator.

The package realizes the Virasoro algebra, its Laurent-loop extension, and
a family of Block-type algebras with exact Gaussian-rational structure
constants, together with the polynomial module families these algebras act
on.  Everything checkable about them at desk scale -- bracket axioms,
module axioms, centrality, invariant subspaces, composition chains,
isomorphism classification, tensor irreducibility evidence -- is verified
by exact computation, with zero numerical tolerance.
"""

from .scalars import GaussianRational, I, ONE, ZERO, parse_scalar, pow_int, scalar
from .polynomials import (
    MultiPolynomial,
    P_ONE,
    P_ZERO,
    Polynomial,
    T,
    constant,
    degree_leading,
    monomial,
    parse_polynomial,
    shift,
)
from .algebras import (
    Algebra,
    AlgebraElement,
    BasisSymbol,
    Block,
    BlockHat,
    BlockTrunc,
    C,
    IndexBox,
    L,
    LOOP,
    LoopVirasoro,
    VIRASORO,
    Virasoro,
    algebra_from_name,
    bracket_basis,
    centrality_check,
    jacobi_check,
    parse_box,
    parse_element,
    virasoro_embedding_check,
)
from .linalg import SpanBasis, VectorWindow
from .modules import (
    ActionTable,
    Derivation,
    ModuleSpec,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    TensorOmega,
    build_action_table,
    derive_parameters,
    match_template,
    strip_t,
)
from .analysis import (
    DEFAULT_SEEDS,
    GRID_ALPHA,
    GRID_BETA,
    GRID_LAMBDA_MU,
    GRID_Q,
    ProbeConfig,
    ProbeVerdict,
    center_report,
    composition_series_check,
    isomorphism_classify,
    module_axiom_check,
    simplicity_probe,
    submodule_invariance_check,
    tensor_irreducibility_probe,
)

__version__ = "0.1.0"
