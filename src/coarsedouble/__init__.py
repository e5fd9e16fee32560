"""Exact computations with metrics on doubles of discrete proper spaces.

Cross-copy kernels are evaluated by certified bounded search, expanding
sequences are level functions, asymptotic comparisons return window
verdicts, certified-on-window or inconclusive, whose certificates carry
re-validatable witnesses, and the finite Boolean
fragment of the projection lattice comes with Stone-dual points and
density measures.
"""

__version__ = "0.1.0"

from .errors import DomainError, IncompleteEnumeration, SearchInconclusive
from .space import (Evaluation, MetricSpace, PointSet, Window, dist_to_set,
                    neighborhood, set_distances, set_family, space_by_name,
                    window_points)
from .double import (AdjointMetric, ClosedFormMetric, ComposedMetric,
                     DeltaFunction, DeltaMetric, DoubleMetric, MaxMetric,
                     MinGlueMetric, PointMetric, SubsetMetric, adjoint,
                     check_axioms, compose, const_delta, dist_to_copy,
                     evaluate, evaluate_exact)
from .projection import (CmFunction, LevelFunction, check_cm, classify_type,
                         cm_join, cm_meet, delta_from_levels, f_map, join,
                         levels_from_metric, levels_from_subset, meet,
                         metric_from_levels, metric_join, metric_meet,
                         projection_criterion, range_projection,
                         source_projection, subset_metric, unit_levels,
                         zero_levels)
from .asymptotics import (TransferTable, equivalent, sweep_radii, sweep_windows,
                          transfer)
from .verdicts import (AffineWitness, Status, TabulatedWitness, Verdict,
                       revalidate)
from .boolalg import (AtomPattern, FilterBase, FormalSum, TwoValuedHom,
                      atom_nonzero, check_hom, enumerate_atoms, extend_hom,
                      homs, is_zero, powers_tail_base, separating_set, tau)
from .measure import (DensityInterval, DensityMeasure, check_modularity,
                      default_schedule, density, measure0_check, nu_bar,
                      nu_hat)
from .ideals import (ApproximateUnit, check_au, level_set_identities,
                     recovered_levels, recovery_transfer, unit_eval,
                     unit_join, unit_meet)
