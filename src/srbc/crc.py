"""5-bit cyclic redundancy check over batches of frames.

The generator polynomial is x^5 + x^3 + 1, run most-significant bit
first through the usual Galois shift register.  The register preset is
all-zeros by default; passing ``GEN2_PRESET`` reproduces the RFID Gen2
variant of the same code.  A frame is valid when feeding payload and
check bits through the register (from the same preset) ends in the zero
state, which holds for every preset.  The register is linear over GF(2)
in its bits, so a batch runs as the preset's own final state XOR the
syndromes of the set bit positions, cached per frame length and preset.
"""
from __future__ import annotations

import functools

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


@functools.cache
def _affine_map(length: int, preset: int) -> tuple[int, np.ndarray]:
    """The register over ``length`` bits as an affine map over GF(2).

    Returns the final state from ``preset`` after all-zero bits, and per
    bit position the state a one there adds by XOR (its syndrome), read
    off the shift register run on unit frames.
    """
    def run(bits, reg):
        for bit in bits:
            feedback = ((reg >> 4) & 1) ^ bit
            reg = ((reg << 1) & 0x1F) ^ (_POLY_LOW if feedback else 0)
        return reg

    # 5-bit states fit int8, so the product with int8 bits stays one byte a bit
    columns = np.array([run((i == j for j in range(length)), 0) for i in range(length)],
                       dtype=np.int8)
    columns.flags.writeable = False
    return run((0,) * length, preset), columns


def _register(bits: np.ndarray, preset: int) -> np.ndarray:
    """Final register states of the rows of 0/1 bits on the trailing axis."""
    bits = np.asarray(bits)
    start, columns = _affine_map(bits.shape[-1], preset)
    return start ^ np.bitwise_xor.reduce(bits * columns, axis=-1)


def _register_to_bits(reg: np.ndarray) -> np.ndarray:
    shifts = np.arange(CRC_BITS - 1, -1, -1)
    return ((np.asarray(reg)[..., None] >> shifts) & 1).astype(np.int8)


def crc5_encode_many(payloads, preset: int = 0) -> np.ndarray:
    """Encode a batch of payload rows into full frame-bit rows."""
    payloads = np.asarray(payloads)
    if payloads.ndim != 2 or not ((payloads == 0) | (payloads == 1)).all():
        raise ValueError("payloads must be a 2-d 0/1 array, one payload per row")
    payloads = payloads.astype(np.int8)
    preset = _validate_preset(preset)
    crc = _register_to_bits(_register(payloads, preset))
    return np.concatenate([payloads, crc], axis=-1)


def crc5_check_many(frame_bits, preset: int = 0) -> np.ndarray:
    """Boolean validity per row of a batch of full frame-bit rows."""
    frame_bits = np.asarray(frame_bits)
    if frame_bits.ndim != 2 or not ((frame_bits == 0) | (frame_bits == 1)).all():
        raise ValueError("frame_bits must be a 2-d 0/1 array, one frame per row")
    if frame_bits.shape[1] <= CRC_BITS:
        raise ValueError(
            f"frame rows need a payload in front of the {CRC_BITS} check bits")
    preset = _validate_preset(preset)
    return _register(frame_bits.astype(np.int8), preset) == 0

