"""Exact Hopf-algebra computations on decorated rooted forests,
ordered and heap-ordered forests, words and permutations, with the
morphism into quasi-symmetric functions, its inverse elements, and
character evaluations: symbolic iterated integrals of polynomial
paths and Fourier normal ordering of trigonometric ones."""

from .errors import (ForestHopfError, ParseError, BoundExceededError,
                     StructureMismatchError, SingularAtomError,
                     MagnitudeTieError)
from .coeffs import (GaussianRational, GR_ZERO, GR_ONE, GR_I,
                     MultiPoly, FreqExp, LinComb)
from .words import Word, EMPTY_WORD, all_words
from .perms import (Perm, DecoratedPerm, all_perms, standardize, shuffles)
from .forests import (PlainTree, PlainForest, OrderedForest,
                      EMPTY_PLAIN, EMPTY_ORDERED, act,
                      ordered_cuts, plain_cuts,
                      linear_extensions, heap_order_lift,
                      enumerate_heap_ordered, enumerate_ordered,
                      enumerate_plain_trees, enumerate_plain_forests)
from .fqsym import (fq_product, fq_coproduct, fq_product_dec,
                    fq_coproduct_dec, unique_factorization)
from .hopf import (Shuffle, CKForests, Ordered, HeapOrdered, FQSym,
                   FQSymDec, get_structure, hopf_axiom_sweep,
                   sh_product, sh_coproduct, sh_antipode,
                   ck_coproduct, ho_coproduct)
from .morphisms import (theta, theta_dec, pi_ho, pi_sigma, theta_small,
                        ThetaMatrix, theta_inverse_table, t_sigma,
                        t_sigma_by_matrix, t_sigma_decorated, square_check)
from .characters import (Character, unit_character, convolve, char_inverse,
                         validate_character, PolyPath, iter_int_word,
                         iter_int_tree, iter_int_char, tree_int_char,
                         chen_check, fubini_tsigma, fubini_matches_t_sigma)
from .fourier import (TrigPath, AtomMeasure, sector_of, split_measure,
                      word_measure, chi, chi_character, chi_measure,
                      rough_path_J, j_convolution, j_character, j_chen_check,
                      sector_sweep, converse_check)
from .report import RunReport

__version__ = "0.1.0"
