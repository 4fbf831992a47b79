"""Link-level simulator and analytical toolkit for backscatter over OFDM.

A base station leaves scheme-specific null subcarriers in its OFDM
grid; a passive tag conveys bits by frequency-shifting the primary
signal onto them, and the receiver detects those bits non-coherently
from null-bin energies.  The package provides the subcarrier plans, a
frequency-domain link kernel, the detectors, exact error laws (Erlang
and binomial tails averaged over the Rayleigh backward gain), a CRC-5
retransmission experiment, and a reproducible Monte Carlo harness with
a command-line front end.
"""

__version__ = "0.1.0"
