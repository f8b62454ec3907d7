"""polycox: coherent presentations of monoids by homotopical
completion-reduction of string rewriting systems, specialized to Garside's
and Artin's coherent presentations of Artin monoids."""

from types import ModuleType as _ModuleType

from .completion import (
    Branching,
    Polygraph31,
    Sphere3,
    SphereEntry,
    ThreeCell,
    TripleBranching,
    cells_by_branching,
    critical_branchings,
    generating_triple_confluence,
    homotopical_complete,
    triple_critical_branchings,
)
from .coxeter import (
    CoxeterGroup,
    CoxeterMatrix,
    enumerate_group,
    rank3_finite,
    sliding_normal_form,
)
from .errors import (
    BudgetError,
    ClassificationError,
    CoherenceError,
    CompositionError,
    DivergenceError,
    InfiniteOrUnknown,
    InputError,
    NielsenError,
    NonterminationError,
    OrientationError,
    PolycoxError,
    PreconditionError,
    StepError,
)
from .garside import (
    ArtinProjection,
    Classification,
    FamilyTag,
    Gar3,
    GarsideCompletion,
    GarsidePresentation,
    artin_coherent,
    artin_presentation,
    artin_reduction_part,
    cell_census,
    classify_tuple,
    complete_garside,
    gar4_spheres,
    garside_coherent,
    garside_order,
    garside_presentation,
    garside_reduction_part,
    phi_key,
)
from .paths import (
    Path2,
    Step2,
    compose,
    identity_path,
    inverse,
    normalize,
    normalize_path,
    paths_equal,
    whisker,
)
from .tietze import (
    CollapsiblePart,
    OrderWitness,
    SphereCollapse,
    ThreeCollapse,
    TwoCollapse,
    homotopical_reduce,
    validate_collapsible,
)
from .words import (
    Deglex,
    GarsideWreath,
    Ordering,
    Polygraph2,
    Rule,
    UserTable,
    Word,
    apply_step,
    check_termination,
    deglex_from_names,
    find_redexes,
)

__all__ = [n for n in dir() if n[0] != "_" and not isinstance(globals()[n], _ModuleType)]
