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
* :mod:`cogmac.stats` - the one-sample Kolmogorov-Smirnov test of sorted
  samples against a closed-form CDF.
* :mod:`cogmac.validation` - the named cross-validation checks run by the
  CLI and the acceptance test suite, growth-law slopes included.
* :mod:`cogmac.cli` - ``cogmac`` command-line front end.

The package exports the four simulator names of ``__all__``; the laws are
reached as ``cogmac.analytic.*``.  It loads no other layer but
``analytic`` and ``channels``: ``espar``, ``rab``, ``stats`` and
``validation`` load when imported, so a ``simulate`` run never loads them.
"""

from .simulator import CapacityEstimate, NetworkConfig, run_experiment, sweep

__all__ = ["CapacityEstimate", "NetworkConfig", "run_experiment", "sweep"]
__version__ = "0.1.0"
