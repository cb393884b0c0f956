"""Exact computer algebra for Cuntz algebras of product systems over N^k.

The package models the dense *-subalgebra spanned by products i(x) i(y)* of
the generating isometries of a twisted-lexicographic product system, decides
equality through canonical normal forms, evaluates elements in concrete
step-operator representations, and carries the verification constructions:
simplicity classification from generator dimensions, nonsimplicity
witnesses, compression annihilation, generator-assignment morphisms, and
the dimension-absorbing isomorphism.
"""

from .system import (
    BasisMonomial,
    ConfigurationError,
    FiberVector,
    SpecFormatError,
    SystemSpec,
    parse_spec_text,
)
from .scalars import (
    FLOAT,
    RATIONAL,
    Cyclotomic,
    CyclotomicField,
    FloatComplex,
    RationalComplex,
    cyclotomic_field,
)
from .algebra import (
    AlgebraElement,
    NormalForm,
    Term,
    equals,
    expand_normal_form,
    gauge_expectation,
    identity,
    isometry,
    monomial_pair,
    multiply,
    normal_form,
    rewrite_pair,
    shift_endomorphism,
    zero,
)
from .steprep import (
    CharacterTwist,
    LevelError,
    OperatorFamily,
    StepOperator,
    UnsupportedRepresentationError,
    evaluate,
    evaluate_twisted,
    generator_operator,
    minimal_level,
    vector_operator,
)
from .core import (
    CoreElement,
    core_element,
    corner_shift,
    embed,
    embed_to,
    multiply_core,
    to_algebra,
    trace,
)
from .analysis import (
    AnnihilationInstance,
    Classification,
    HypothesisViolationError,
    annihilating_vector,
    annihilation_instance,
    classify,
    exponent_matrix,
    nonsimplicity_witness,
    verify_annihilation,
)
from .morphisms import (
    GeneratorAssignment,
    IsomorphismPair,
    RelationReport,
    canonical_assignment,
    check_relations,
    extend,
    factor_iso,
    map_element,
    parse_assignment,
    verify_roundtrip,
)
from .expr import (
    ExpressionError,
    format_element,
    format_scalar,
    parse_element,
    parse_scalar,
)

__version__ = "0.1.0"
