"""Fundamental N-quandles of spatial graphs and links.

Builds Wirtinger-style quandle presentations from diagram data,
enumerates the quotient N-quandle by tracing and collapsing relations on
its Cayley graph, and cross-checks the results against closed-form
models for the twist families.
"""

from .words import (
    GeneratorSymbol,
    GroupWord,
    Letter,
    ParseError,
    invert,
    parse_word,
)
from .presentation import (
    Presentation,
    PrimaryRelation,
    expand_relations,
    loop_words,
    parse_presentation,
    render_presentation,
)
from .engine import (
    CayleyGraph,
    EnumerationLimits,
    EnumerationResult,
    EnumerationStats,
    Quandle,
    canonical_code,
    canonical_code_of_actions,
    components,
    enumerate_quandle,
    quandle_table,
    verify,
)
from .families import (
    FAMILY_NAMES,
    ExplicitComponent,
    FamilyParams,
    build_explicit_Qa,
    build_explicit_Qd,
    family_presentation,
    gkm_size,
    gkmn_size,
)
from .diagram import (
    Crossing,
    DiagramSpec,
    delete_edge,
    parse_diagram,
    subdivide_edge,
    wirtinger,
)

__version__ = "0.1.0"
