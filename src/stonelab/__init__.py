"""Finite-scale laboratory for Boolean algebras, their Stone-dual point
sets, separating families, and the min-max-order optimization."""

from .algebra import (
    Element,
    FiniteBooleanAlgebra,
    SubalgebraPartition,
    generated_subalgebra,
    generates_whole,
)
from .combinators import (
    PorcupineResult,
    alexandrov_duplication,
    porcupine,
    product_system,
    sum_with_point,
)
from .errors import (
    AlgebraMismatchError,
    CapExceededError,
    LintWarning,
    OracleMismatchError,
    PoolInsufficientError,
    StonelabError,
    ValidationError,
)
from .families import (
    Member,
    OrderProfile,
    PointedSystem,
    PointSet,
    SeparatingFamily,
    is_t0_separating,
    order_profile,
)
from .freealg import (
    FreeAlgebra,
    FreeElement,
    dense_small_support_check,
    min_support_ultrafilter,
)
from .freeseq import (
    SigmaTree,
    is_free_sequence,
    longest_free_point_sequence,
    longest_free_sequence,
    sigma_squared,
    sigma_tree,
)
from .orders import (
    FinalSegmentLattice,
    FinitePoset,
    MeetSemilattice,
    ModestReport,
    discrete_witness,
    filters,
    final_segments,
    generator_orientation,
    modest_analysis,
    prime_clopen_filters,
)
from .solver import (
    GeneratorPool,
    SolveResult,
    decision_max_order_at_most,
    min_max_order,
    preset_pool,
)
from .trees import (
    FiniteForest,
    initial_chain_algebra,
    paths,
    sigma_system,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
