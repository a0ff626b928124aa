"""Enumeration of regular quaternion/dihedral subgroups of holomorphs of
finite abelian groups, the braces they induce, and the associated counts of
braces and Hopf-Galois structures."""

from .abelian import Element, GroupSpec, make_group, parse_group, sylow_decompose
from .brace import BraceTable, brace_from_subgroup, verify_brace, ybe_solution
from .counts import (
    census,
    cross_check,
    d_closed,
    d_computed,
    hgs_count,
    hgs_reduce,
    q_closed,
    q_computed,
    table1_report,
    table3_report,
    table4_report,
)
from .endo import AutGroup, EndoMatrix, enumerate_aut
from .errors import (
    CapacityError,
    HolobraceError,
    InternalConsistencyError,
    InvalidInputError,
)
from .holomorph import (
    HolElement,
    exponent_bound,
    hol_apply,
    hol_compose,
    hol_invert,
    hol_order,
    order_spectrum,
)
from .oddpart import reduce_counts
from .presentations import TargetKind, admissible_types, aut_order, parse_kind
from .regular import (
    ConjugacyClass,
    RegularSubgroup,
    SearchResult,
    classify,
    list_regular,
    search_regular,
)
from .structured import StructuredRangeError

__version__ = "0.1.0"
