"""Symbolic verification of Lie point symmetries for coupled
reaction-diffusion systems with triangular or nilpotent diffusion matrices.
"""

from .expr import (Expr, add, differentiate, expand, exp_, cos_, sin_, ln_,
                   jet, ker, mul, powe, rat, substitute, sym,
                   KernelRule, RuleSet)
from .parser import ParseError, parse, to_text
from .numeric import eval_at, UnboundSymbol
from .equality import EqDecision, decide_equivalence
from .jets import JetOrderError, laplacian, total_derivative
from .fields import (Generator, ProlongedGenerator, commutator, generator,
                     h_field, named_operator, zero_generator)
from .systems import (DriftNormalization, ExtensionReport, FullSymmetryData,
                      RDSystem, SymmetryReport, classifying_residual_a0,
                      classifying_residual_drift, classifying_residual_full,
                      classifying_residual_main, drift, drift_normalize,
                      evolution_reduce, extension_check, galilei_residuals,
                      heat_kernel_rule, is_symmetry, laplace_kernel_rule,
                      symmetry_residual, triangular, w_kernel_rules)
from .nmatrix import (AlgebraPresentation, CanonicalForm, FundamentalPair,
                      NMatrix, algebra_catalog, as_nmatrix, canonical_form,
                      closure_check, conjugate, fundamental_pair, g1, g2,
                      g2_tilde, g3, g4, g5, g6, mat_commutator, mat_mul,
                      pair_residuals, realize, realized_basis,
                      wronskian_at_zero)
from .transforms import (InapplicableTransform, LinearEquiv, PointMap, VShift,
                         aet, apply_equiv, check_eqv3_admissible,
                         preserves_class, pushforward)

__version__ = "0.1.0"
