"""The per-bin SNR convention.

Direct and forward links are tapped delay lines with uniform power
profiles normalized to unit total power, so every per-subcarrier
response has unit mean-square gain.  The backward link from the tag is
a single Rayleigh tap of mean-square gain sigma_v**2 by default.  SNR
is defined per data subcarrier after the receiver DFT on the direct
link: with unit-power symbols, snr_db fixes the per-bin noise energy at
10**(-snr_db/10).
"""


def noise_bin_variance(snr_db: float) -> float:
    """Per-bin noise energy after the DFT at the given data-bin SNR."""
    return 10.0 ** (-snr_db / 10.0)
