"""Comparator players.

* :mod:`repro.baselines.mptcp` — an idealized MPTCP-style aggregator:
  two paths into a *single* video server, the §2 counterfactual that
  motivates source diversity (one server absorbs the whole aggregate
  demand, and the server's overload penalty caps the gain);
* the single-path commercial-player emulation lives in
  :mod:`repro.sim.singlepath` (it is a driver, not a scheduler).
"""

from .mptcp import MPTCPLikeDriver

__all__ = ["MPTCPLikeDriver"]
