"""The public names of ``polycox``, pinned: a new public name, or the loss
of one, has to be made here on purpose."""

from types import ModuleType

import polycox

PUBLIC = [
    # completion
    "Branching",
    "Polygraph31",
    "Sphere3",
    "SphereEntry",
    "ThreeCell",
    "TripleBranching",
    "cells_by_branching",
    "critical_branchings",
    "generating_triple_confluence",
    "homotopical_complete",
    "triple_critical_branchings",
    # coxeter
    "CoxeterGroup",
    "CoxeterMatrix",
    "enumerate_group",
    "rank3_finite",
    "sliding_normal_form",
    # errors
    "BudgetError",
    "ClassificationError",
    "CoherenceError",
    "CompositionError",
    "DivergenceError",
    "InfiniteOrUnknown",
    "InputError",
    "NielsenError",
    "NonterminationError",
    "OrientationError",
    "PolycoxError",
    "PreconditionError",
    "StepError",
    # garside
    "ArtinProjection",
    "Classification",
    "FamilyTag",
    "Gar3",
    "GarsideCompletion",
    "GarsidePresentation",
    "artin_coherent",
    "artin_presentation",
    "artin_reduction_part",
    "cell_census",
    "classify_tuple",
    "complete_garside",
    "gar4_spheres",
    "garside_coherent",
    "garside_order",
    "garside_presentation",
    "garside_reduction_part",
    "phi_key",
    # paths
    "Path2",
    "Step2",
    "compose",
    "identity_path",
    "inverse",
    "normalize",
    "normalize_path",
    "paths_equal",
    "whisker",
    # tietze
    "CollapsiblePart",
    "OrderWitness",
    "SphereCollapse",
    "ThreeCollapse",
    "TwoCollapse",
    "homotopical_reduce",
    "validate_collapsible",
    # words
    "Deglex",
    "GarsideWreath",
    "Ordering",
    "Polygraph2",
    "Rule",
    "Word",
    "apply_step",
    "check_termination",
    "deglex_from_names",
    "find_redexes",
]


def test_public_names_pinned():
    assert sorted(polycox.__all__) == sorted(PUBLIC)


def test_reprs_name_the_contents():
    pg = polycox.Polygraph2(["s", "t"], [polycox.Rule("a", (0, 1), (1, 0))])
    path = polycox.Path2(pg, (0, 1), [(0, 1, 0)])
    assert repr(pg) == "Polygraph2(['s', 't'], 1 rules)"
    assert repr(path) == "Path2('st', [Step2(rule=0, dir=1, pos=0)])"
    assert repr(polycox.Polygraph31(pg, [polycox.ThreeCell("c", path, path)])) == (
        "Polygraph31(Polygraph2(['s', 't'], 1 rules), 1 cells)"
    )


def test_star_import_binds_no_module():
    ns: dict = {}
    exec("from polycox import *", ns)
    del ns["__builtins__"]
    assert not [name for name, value in ns.items() if isinstance(value, ModuleType)]
