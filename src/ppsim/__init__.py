"""Monte Carlo security analysis of deterministic two-way ("ping-pong")
quantum communication protocols: honest runs, invisible-photon and
intercept-resend eavesdropping, the narrowband filter defense, and the
three-way blind-rotation variant.

The package exports the session API; everything else is imported from
its module (``ppsim.quantum``, ``ppsim.optics``, ``ppsim.cli``, ...)."""

from .adversaries import StrategyKind, StrategySpec
from .harness import RunStats, run_session
from .protocols import ConfigError, ProtocolConfig, ProtocolKind
from .scenario import Scenario

__version__ = "0.1.0"
