"""Exact simulator and analysis toolkit for hidden-polynomial identification.

The oracle hides a polynomial Q (zero constant term, total degree <= n, m
variables) over a finite field behind a secret output permutation; the
quantum identification algorithm recovers Q from few oracle uses.  This
package provides:

  gf         finite-field contexts, characters, square and quadratic roots
  polyring   uni/multivariate polynomials, restriction, Lagrange basis
  blackbox   hidden instances and the permuted oracle
  fibers     fiber-size tables of the direction map, good sets, moments
  pgm        success report (probabilities, bounds), outcome sampling
  densmat    explicit density-matrix cross-validation of the closed forms
  reduction  multivariate-to-univariate recovery schedule
  baseline   classical collision-search reference point
  cli        command-line front end (installed as `hpp`)
"""

from .blackbox import HiddenInstance, make_instance, sample_instance, verify_candidate
from .errors import GuardExceededError, InvariantViolationError, RecoveryError
from .fibers import (
    Analysis,
    EtaTable,
    eta_moments,
    eta_table,
    good_sets,
    iter_eta_tables,
    pick_analysis,
)
from .gf import FieldCtx, chi, make_field, parse_field, trace
from .pgm import outcome_distribution, run_many, success_report
from .polyring import MultiPoly, UniPoly, multi_poly
from .reduction import kappa, solve_multivariate, univariate_oracle_view

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "EtaTable",
    "FieldCtx",
    "GuardExceededError",
    "HiddenInstance",
    "InvariantViolationError",
    "MultiPoly",
    "RecoveryError",
    "UniPoly",
    "chi",
    "eta_moments",
    "eta_table",
    "good_sets",
    "iter_eta_tables",
    "kappa",
    "make_field",
    "make_instance",
    "multi_poly",
    "outcome_distribution",
    "parse_field",
    "pick_analysis",
    "run_many",
    "sample_instance",
    "solve_multivariate",
    "success_report",
    "trace",
    "univariate_oracle_view",
    "verify_candidate",
]
