"""Exact computations in the partic algebra, a quotient of the local plactic algebra.

The package provides the monomial normal form and graded basis enumeration,
a brute-force rewriting oracle that certifies them at desk scale, the
faithful action on bosonic particle configurations with its input/output
labelling, the graded center, and relation checks for the affine variant.
"""
from __future__ import annotations

from .affine import (
    AffineConfiguration,
    AffineWord,
    affine_act_word,
    affine_configurations,
    affine_relation_instances,
    find_relation_counterexample,
)
from .center import (
    center_basis_in_degree,
    central_candidate,
    expected_center_dimension,
    nullspace,
    theorem_mismatch,
)
from .core import (
    AlgebraElement,
    MultiDegree,
    NormalMonomial,
    Word,
    check_rank,
    compositions,
    multidegrees_up_to,
    nm_to_word,
    normal_condition,
)
from .normal_form import (
    element_product,
    enumerate_basis,
    gen_element,
    gen_monomial,
    left_mul_gen,
    nm_product,
    normalize,
    normalize_right_to_left,
    right_mul_gen,
)
from .particles import (
    ANNIHILATED,
    Configuration,
    IoLabel,
    act_gen,
    act_word,
    configurations,
    faithfulness_problem,
    io_label,
    label_mul,
    min_input,
    monomial_from_io,
    output_of,
)
from .rewriting import (
    PARTIC,
    PLACTIC,
    RelationSet,
    RewriteRule,
    congruence_partition,
    partic_rules,
    plactic_rules,
    words_with_degree,
)
from .verify import VerifyCheck, VerifyConfig, VerifyReport, run_verify

__version__ = "0.1.0"
