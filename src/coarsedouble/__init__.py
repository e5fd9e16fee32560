"""Exact computations with metrics on doubles of discrete proper spaces.

Cross-copy kernels are evaluated by certified bounded search, expanding
sequences are level functions, asymptotic comparisons return window
verdicts, certified-on-window or inconclusive, whose certificates carry
re-validatable witnesses, and the finite Boolean
fragment of the projection lattice comes with Stone-dual points and
density measures.
"""

__version__ = "0.1.0"

from .errors import DomainError, SearchInconclusive
from .space import (Evaluation, MetricSpace, PointSet, Window, dist_to_set,
                    neighborhood, set_distances, set_family, space_by_name,
                    window_points)
from .double import (AdjointMetric, ClosedFormMetric, ComposedMetric,
                     DeltaFunction, DeltaMetric, DoubleMetric, MaxMetric,
                     MinGlueMetric, PointMetric, SubsetMetric, check_axioms,
                     cm_join, cm_meet, compose, const_delta, evaluate,
                     evaluate_exact, f_map)
from .projection import (LevelFunction, check_cm, classify_type, delta_from_levels,
                         join, levels_from_metric, levels_from_subset, meet,
                         metric_from_levels, metric_join, metric_meet,
                         projection_criterion, source_projection,
                         subset_metric, unit_levels, zero_levels)
from .asymptotics import (TransferTable, equivalent, sweep_radii, sweep_windows,
                          transfer)
from .verdicts import (AffineWitness, Status, TabulatedWitness, Verdict,
                       revalidate)
from .boolalg import (AtomPattern, FilterBase, FormalSum, TwoValuedHom,
                      atom_nonzero, check_hom, enumerate_atoms, homs, is_zero,
                      powers_tail_base, tau)
from .measure import (DensityInterval, DensityMeasure, check_modularity,
                      default_schedule, density, nu_bar, nu_hat)
from .ideals import (ApproximateUnit, check_au, recovered_levels,
                     recovery_transfer)
