"""Exact symbolic workbench for multiple structures on projective varieties.

Polynomial rings over the rationals or prime fields, Groebner bases for
ideals and submodules of free modules, syzygies and free resolutions,
ideal calculus (colon, intersection and Ext annihilators as one module
colon; saturation, elimination, Fitting ideals), Hilbert series and
polynomials in the P-basis, S1-filtrations, Cohen-Macaulay / type-I and
local-freeness verdicts, line-bundle quotient searches, parametric
families, a catalog of classification tables, and a scenario runner.
"""

from .groebner import Guard, ResourceGuardExceeded, groebner_basis, syzygies
from .hilbert import HilbertPoly, HilbertSeries, dense_to_p_basis, twisted_free_hilbert
from .ideals import (
    Ideal,
    colon,
    eliminate,
    ext_annihilator,
    fitting_ideal,
    intersect,
    radical_contains,
    same_zero_locus,
    saturate,
    unmixed_part,
)
from .modules import GradedModule, Resolution, free_resolution
from .ring import PolyRing, Vec
from .structures import (
    Embedding,
    Filtration,
    MultiStructure,
    StructureError,
    is_locally_CM,
    is_S1,
    s1_filtration,
    thicken,
)
from .quotients import TwistVerdict, line_bundle_quotients
from .families import Family, build_family
from .catalog import CatalogEntry, CatalogError, load_catalog, table_ids
from .scenarios import (
    ScenarioOptions,
    ScenarioResult,
    emit_report,
    run_scenario,
    scenario_ids,
)

__version__ = "0.1.0"
