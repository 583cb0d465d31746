"""Finite presentations of fundamental groups of glued spaces.

The package assembles a presentation of the fundamental group of a space
described combinatorially (component pieces, singular loci, and the edges of
the normalization joining them), by a spanning-tree van Kampen construction
and by a recursive block splitting, and verifies every assembly against a
brute-force census of finite covers modelled as descent tuples.
"""

from .words import GenId, Word, IDENTITY, gen, word, reduce_word
from .presentations import (Presentation, free_presentation,
                            trivial_presentation, cyclic_presentation,
                            free_product, add_relations, rename_namespaces)
from .perms import (Perm, PermGroupTarget, symmetric, cyclic, compose,
                    inverse_perm, identity_perm, is_transitive)
from .homs import (Hom, hom, Fingerprint, eval_word, verify_hom,
                   pullback, enumerate_homs, hom_count, fingerprint,
                   count_transitive_actions)
from .vankampen import (Interface, VKInput, IsoWitness, ConjugatorGroup,
                        conjugator_group, van_kampen, VKForms,
                        van_kampen_forms, amalgamated_coproduct)
from .configuration import (ComponentNode, SingularNode, Edge, Configuration,
                            DisconnectedError, validate_config, is_connected,
                            free_rank, spanning_tree, subconfiguration)
from .assembly import (Origin, AssemblyResult, free_edge_generator,
                       assemble_direct, SingularBlock, split_blocks,
                       block_order, assemble_recursive)
from .discreteness import (Verdict, combine, NodeVerdict, DiscretenessVerdict,
                           discreteness_verdict, Leaf, Coproduct, Quotient,
                           fold_verdicts)
from .covers import (DescentTuple, TupleIso, is_tuple_iso, validate_tuple,
                     tuple_components, enumerate_tuples, rep_of_tuple,
                     tuple_of_rep, EquivalenceRow, EquivalenceReport,
                     equivalence_report)
from .serialize import (ConfigParseError, parse_config, parse_config_text,
                        emit_config, render_report)
from . import corpus

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
