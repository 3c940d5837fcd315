"""Underlay cognitive MAC capacity simulator with random aerial beamforming.

Library layout:

* :mod:`cogmac.analytic` - closed-form distributions, scaling laws, and the
  special functions behind them (Wright omega, that is Lambert W in log
  form, the modified Bessel I0, and J0 for Kluyver's M-pattern RAB law).
* :mod:`cogmac.channels` - the channel kernel: seeded draws of every user's
  equivalent secondary and interference powers, baseline and RAB alike.
* :mod:`cogmac.rab` - the arcsine law of the random-weight artificial LoS.
* :mod:`cogmac.espar` - parasitic-array beamspace model (currents, basis
  patterns, pattern weights).
* :mod:`cogmac.simulator` - max-SINR scheduling and the Monte-Carlo
  capacity kernel, its sweep and its CSV writer.
* :mod:`cogmac.stats` - empirical CDFs and Kolmogorov-Smirnov checks.
* :mod:`cogmac.validation` - the named cross-validation checks run by the
  CLI and the acceptance test suite, growth-law slopes included.
* :mod:`cogmac.cli` - ``cogmac`` command-line front end.

The package re-exports names of ``analytic`` and ``simulator`` only, and
loads no other layer but ``channels``: ``espar``, ``rab``, ``stats`` and
``validation`` load when imported, so a ``simulate`` run never loads
them, and the KS machinery is reached as ``cogmac.stats.*``.
"""

from .analytic import (
    RatioDistParams,
    bessel_i0e,
    effective_users_moderate_k,
    effective_users_rab_m2,
    normalizer_a_n,
    rab_m2_cdf,
    rab_m2_tail_cdf,
    ratio_cdf,
    ratio_pdf,
    ratio_ppf,
    theorem1_law,
    wright_omega,
)
from .simulator import (
    CapacityEstimate,
    NetworkConfig,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"
