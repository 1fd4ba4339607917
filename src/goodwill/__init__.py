"""Numerical toolkit for stochastic optimal advertising under delay.

Goodwill dynamics with delayed carryover in both the state and the
control, simulated directly as an SDDE and through its lifting to
R x L2([-r, 0]); closed-form linear-quadratic policies via the costate,
solved as the e1 trajectory run backward; Monte Carlo policy evaluation
with common random numbers; feedback maps for the state-delay-only
model; and the regularization schemes used in the approximation study.
"""

from . import approximation, hilbert, lifting, lq, sdde, state_delay
from .sdde import BlowupError, ConfigurationError

__version__ = "0.1.0"
