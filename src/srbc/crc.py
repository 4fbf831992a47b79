"""5-bit cyclic redundancy check over batches of frames.

The generator polynomial is x^5 + x^3 + 1, run most-significant bit
first through the usual Galois shift register.  The register preset is
all-zeros by default; passing ``GEN2_PRESET`` reproduces the RFID Gen2
variant of the same code.  A frame is valid when feeding payload and
check bits through the register (from the same preset) ends in the zero
state, which holds for every preset.
"""
from __future__ import annotations

import numpy as np

GENERATOR = 0b101001
GEN2_PRESET = 0b01001
CRC_BITS = 5
_POLY_LOW = GENERATOR & 0x1F


def _validate_preset(preset: int) -> int:
    preset = int(preset)
    if not 0 <= preset < 32:
        raise ValueError(f"preset must be a 5-bit value, got {preset}")
    return preset


def _register(bits: np.ndarray, preset: int) -> np.ndarray:
    """Run the shift register over the trailing axis; returns final states."""
    bits = np.asarray(bits)
    reg = np.full(bits.shape[:-1], preset, dtype=np.int64)
    for i in range(bits.shape[-1]):
        feedback = ((reg >> 4) & 1) ^ bits[..., i]
        reg = ((reg << 1) & 0x1F) ^ np.where(feedback, _POLY_LOW, 0)
    return reg


def _register_to_bits(reg: np.ndarray) -> np.ndarray:
    shifts = np.arange(CRC_BITS - 1, -1, -1)
    return ((np.asarray(reg)[..., None] >> shifts) & 1).astype(np.int8)


def crc5_encode_many(payloads, preset: int = 0) -> np.ndarray:
    """Encode a batch of payload rows into full frame-bit rows."""
    payloads = np.asarray(payloads)
    if payloads.ndim != 2 or not np.isin(payloads, (0, 1)).all():
        raise ValueError("payloads must be a 2-d 0/1 array, one payload per row")
    payloads = payloads.astype(np.int8)
    preset = _validate_preset(preset)
    crc = _register_to_bits(_register(payloads, preset))
    return np.concatenate([payloads, crc], axis=-1)


def crc5_check_many(frame_bits, preset: int = 0) -> np.ndarray:
    """Boolean validity per row of a batch of full frame-bit rows."""
    frame_bits = np.asarray(frame_bits)
    if frame_bits.ndim != 2 or not np.isin(frame_bits, (0, 1)).all():
        raise ValueError("frame_bits must be a 2-d 0/1 array, one frame per row")
    if frame_bits.shape[1] <= CRC_BITS:
        raise ValueError(
            f"frame rows need a payload in front of the {CRC_BITS} check bits")
    preset = _validate_preset(preset)
    return _register(frame_bits.astype(np.int8), preset) == 0

