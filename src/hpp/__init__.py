"""Exact simulator and analysis toolkit for hidden-polynomial identification.

The oracle hides a polynomial Q (zero constant term, total degree <= n, m
variables) over a finite field behind a secret output permutation; the
quantum identification algorithm recovers Q from few oracle uses.  This
package provides:

  gf         finite-field contexts, characters, square and quadratic roots
  polyring   uni/multivariate polynomials, restriction, Lagrange basis
  blackbox   hidden instances and the permuted oracle
  fibers     fiber-size tables of the direction map, orbit store, good sets, moments
  pgm        success report (probabilities, bounds), outcome sampling
  densmat    explicit density-matrix cross-validation of the closed forms
  reduction  multivariate-to-univariate recovery schedule
  baseline   classical collision-search reference point
  cli        command-line front end (installed as `hpp`)

The names in __all__ are resolved on first use, each by importing its own
module, so `import hpp.cli`, `import hpp.fibers` or `from hpp import
eta_table` loads only the layers that module needs.
"""

__version__ = "0.1.0"

# The public names each module defines.
_HOMES = {
    "blackbox": ("HiddenInstance", "make_instance", "sample_instance", "verify_candidate"),
    "errors": ("GuardExceededError", "InvariantViolationError", "RecoveryError"),
    "fibers": (
        "Analysis",
        "EtaTable",
        "GoodSets",
        "Orbits",
        "eta_moments",
        "eta_table",
        "iter_eta_tables",
        "pick_analysis",
    ),
    "gf": ("FieldCtx", "chi", "make_field", "parse_field", "trace"),
    "pgm": ("Sampler", "outcome_distribution", "run_many", "success_report"),
    "polyring": ("MultiPoly", "UniPoly", "multi_poly"),
    "reduction": ("kappa", "solve_multivariate", "univariate_oracle_view"),
}

# Each public name's home module.
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, resolved on first use (PEP 562) by importing its home
    module only (and what that imports), so `from hpp import eta_table`
    loads gf, errors and fibers but no recovery layer."""
    match _HOME.get(name):
        case "blackbox":
            from . import blackbox as home
        case "errors":
            from . import errors as home
        case "fibers":
            from . import fibers as home
        case "gf":
            from . import gf as home
        case "pgm":
            from . import pgm as home
        case "polyring":
            from . import polyring as home
        case "reduction":
            from . import reduction as home
        case _:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value
