"""PBPO+ rewriting of lattice-labeled directed multigraphs.

The package is organized along the layers of the formalism: label lattices,
labeled graphs and morphisms, pullback/pushout construction, strong-match
search, the rewrite engines (ToyPO, ToyPB, PBPO+), and the BDD reduction
system built on top of them.  ``formats``/``dot``/``cli`` provide the
interchange format, DOT export, and command-line surface.
"""

from .bdd import (Bdd, ReducedCheck, TruthTable, build_decision_tree,
                  elim_vacuous_rule, evaluate, is_reduced, leaf_rule,
                  merge_iso_rule, oracle_reduce, reduce_bdd, reduction_rules,
                  validate_bdd)
from .errors import (BddError, DanglingReferenceError, EngineError,
                     GraphError, InternalMediatorError, LatticeError,
                     MorphismError, NonCommutingSquareError, ParseError,
                     Report, RuleError, SquareError, StrongMatchError,
                     UnknownLabelError, Violation)
from .graph import (DisjointUnion, GraphMorphism, LabeledGraph, compose,
                    disjoint_union, identity, is_isomorphic, validate_graph,
                    validate_morphism)
from .lattice import (BOOL_CLASS, BOTTOM, FALSE, TOP, TRUE, VAR_CLASS,
                      LabelLattice, bdd_lattice, unit_lattice,
                      validate_lattice)
from .limits import (Cospan, LimitResult, PreimageResult, Span,
                     enumerate_mediators, is_pullback_square,
                     is_pushout_square, preimage, pullback,
                     pullback_mediators, pushout, pushout_mediators)
from .matching import (Match, check_strong_match, enumerate_homomorphisms,
                       find_matches, verify_match_square)
from .rewriting import (NormalizeResult, PbpoRule, RewriteTrace, RhsSpec,
                        ToyPbRule, ToyPbTrace, ToyPoRule, ToyPoTrace,
                        complete_rule, normalize, pbpo_step, toypb_step,
                        toypo_step, validate_rule, verify_trace)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
