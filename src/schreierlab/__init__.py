"""Desk-scale laboratory for Schreier families, ordinal indices,
well-founded trees, Tsirelson-type norms and the gluing constructions
that connect them, everything verified on finite truncations in exact
rational arithmetic."""

from .ordinal import (Ordinal, OrdinalError, ParseError, SymbolicOrdinal,
                      UnsupportedOrdinalError, compare, fundamental_sequence,
                      parse, symbolic_omega_pow, symbolic_product)
from .families import (Family, FamilyError, ResourceBoundError, bracket,
                       explicit_family, index_symbolic, parse_family, power,
                       schreier, schreier_member, tail_domination)
from .trees import (BlockTree, TreeError, certify_block_tree,
                    index_lower_bound_search, tree_to_family)
from .spaces import (C0, L1, Bounds, Derived, FsVector,
                     MixedTsirelson, Schlumprecht, SpaceError, Tsirelson,
                     assoc_norm, dual_assoc_norm, dual_norm, norm, norm_n,
                     parse_space, primal_from_dual)
from .constructions import (SCC, ConstructionError, DistortionReport,
                            GluingReport, SCCInfeasibleError, SpreadingReport,
                            build_scc, check_spreading_model, distortion_scan,
                            gluing_lemma1, gluing_lemma2, gluing_lemma3,
                            gluing_lemma4, measure_asymptoticity)

__version__ = "0.1.0"
