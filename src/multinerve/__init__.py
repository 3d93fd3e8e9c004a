"""Multinerves of finite set families, exact rational simplicial homology,
Leray numbers, and verification of the associated Helly-type bounds."""

from .poset import (CellRecord, PosetError, SimplicialComplex,
                    SimplicialPoset, barycentric_subdivision, build_poset,
                    order_complex)
from .homology import (BettiVector, ChainComplex, chain_complex,
                       euler_characteristic, reduced_betti, sparse_rank)
from .leray import CapExceeded, LerayReport, Witness, j_index, leray_number
from .families import (Box, BoxUnionMember, ComponentLabel, FamilyError,
                       SetFamily, SubcomplexMember, box, box_family,
                       component_containing, components, is_acyclic_with_slack,
                       max_components, region_betti, region_is_empty,
                       subcomplex_family)
from .nerve import (CellTag, LabeledPoset, MonotoneMap, canonical_projection,
                    multinerve, nerve, reduced_multinerve, validate_map)
from .verify import (BoundReport, Check, HellyResult, PreconditionError,
                     grid_triangulation, helly_number, instance_id,
                     random_family, verify_helly_bound,
                     verify_multinerve_theorem, verify_projection_bound)

__version__ = "0.1.0"
