"""Lowering of existential formulas over commutative rings.

The pipeline walks a formula down the chain

    existential -> positive-existential -> conjunctive -> single equation

using three ring-specific gadgets (nonzero, axes, origin), and a
brute-force finite-ring oracle certifies that every step preserves the
defined set.
"""

from .formula import (
    And,
    Atom,
    Body,
    Formula,
    Or,
    Relation,
    SyntacticClass,
    classify,
    conjunction,
    disjunction,
)
from .gadgets import (
    AxesGadget,
    GadgetError,
    GadgetSet,
    NonzeroGadget,
    OriginGadget,
    Status,
    Verification,
    crt_combine_origin,
    default_gadgets,
    norm_form_gadget,
    search_origin_gadget,
    verify_axes_gadget,
    verify_nonzero_gadget,
    verify_origin_gadget,
)
from .oracle import (
    DefinableSet,
    EqualityResult,
    ProductResult,
    ProductVerdict,
    Verdict,
    count_solutions,
    definable_set,
    first_witness,
    has_witness,
    is_product_set,
    sets_equal,
)
from .parser import ParseError, format_formula, parse_formula, parse_polynomial
from .passes import (
    CompileResult,
    MissingGadgetError,
    PassError,
    PassTrace,
    UnionResult,
    compile_formula,
    eliminate_disjunctions,
    eliminate_inequalities,
    encode_union,
    fold_to_single,
)
from .poly import Monomial, Polynomial, UnboundVariableError
from .ring import (
    ProductRing,
    RingBackend,
    ZBox,
    ZMod,
    as_single_modulus,
    crt_split,
    parse_ring,
)

__version__ = "0.1.0"
