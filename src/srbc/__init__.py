"""Link-level simulator and analytical toolkit for backscatter over OFDM.

A base station leaves scheme-specific null subcarriers in its OFDM
grid; a passive tag conveys bits by frequency-shifting the primary
signal onto them, and the receiver detects those bits non-coherently
from null-bin energies.  The package provides the subcarrier plans, a
frequency-domain link kernel, the detectors, characteristic-function
error analysis, a CRC-5 retransmission experiment, and a reproducible
Monte Carlo harness with a command-line front end.
"""
from .analysis import (ExpMixSpec, QuadratureSpec, TheoryCurve, TheoryParams,
                       charfn_h0, charfn_h1, fsk_error_prob, gil_pelaez_cdf,
                       noise_bin_variance, optimal_threshold, pfa_of_threshold,
                       pmd_given_v, pmd_marginal, rayleigh_nodes, theory_sweep)
from .backscatter import BdWaveform, bd_waveform
from .channel import NoiseSpec, snr_to_noise_variance
from .crc import GEN2_PRESET, GENERATOR, crc5_check_many, crc5_encode_many
from .detector import fsk_detect, ook_detect, primary_detect
from .harness import (CSV_HEADER, SimCurve, SystemConfig, compare_theory_sim,
                      emit_csv, parse_csv, run_ber_sweep, run_cfo_study,
                      run_compare, run_pmd_sweep, run_retx, run_roc)
from .quadrature import PanelIntegral, QuadratureError, integrate_adaptive
from .waveform import (SCHEMES, ConfigurationError, FreqGrid, SubcarrierPlan,
                       build_subcarrier_plan)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
