"""Tests for the 5-bit CRC over batches of frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srbc import crc
from srbc.crc import CRC_BITS, GEN2_PRESET, crc5_check_many, crc5_encode_many

# independently computed by long division of x^5 + x^3 + 1 into the
# payload polynomial (MSB first), for both register presets
KNOWN_CHECKSUMS = {
    0: {
        "0000000": "00000",
        "1000000": "01111",
        "0000001": "01001",
        "1111111": "01101",
        "1010101": "10110",
        "0110010": "11100",
    },
    GEN2_PRESET: {
        "0000000": "11110",
        "1000000": "10001",
        "0000001": "10111",
        "1111111": "10011",
        "1010101": "01000",
        "0110010": "00010",
    },
}


def bits_of(text):
    return np.array([int(c) for c in text], dtype=np.int8)


def encode(payload, preset=0):
    """Frame bits of one payload, encoded as a one-row batch."""
    return crc5_encode_many(np.asarray(payload)[None, :], preset=preset)[0]


def check(frame, preset=0):
    """Validity of one frame, checked as a one-row batch."""
    return bool(crc5_check_many(frame[None, :], preset=preset)[0])


def test_known_checksums():
    for preset, table in KNOWN_CHECKSUMS.items():
        for payload, crc in table.items():
            frame = encode(bits_of(payload), preset=preset)
            got = "".join(str(b) for b in frame[-CRC_BITS:])
            assert got == crc, (preset, payload, got)


def test_check_accepts_every_encoded_frame():
    for preset in (0, GEN2_PRESET):
        for value in range(128):
            payload = bits_of(format(value, "07b"))
            frame = encode(payload, preset=preset)
            assert check(frame, preset=preset)
            assert frame.shape == (12,)


def test_single_bit_errors_always_detected():
    for value in range(128):
        clean = encode(bits_of(format(value, "07b")))
        for position in range(12):
            corrupted = clean.copy()
            corrupted[position] ^= 1
            assert not crc5_check_many(corrupted[None, :])[0], (value, position)


def test_burst_errors_up_to_generator_degree_detected():
    # every contiguous error pattern of length <= 5 whose end bits are
    # set must change the remainder
    rng = np.random.default_rng(139)
    payloads = rng.integers(0, 2, size=(40, 7), dtype=np.int8)
    frames = crc5_encode_many(payloads)
    for length in range(1, 6):
        if length <= 2:
            patterns = [np.ones(length, dtype=np.int8)]
        else:
            patterns = []
            for interior in range(2 ** (length - 2)):
                mid = [int(c) for c in format(interior, f"0{length - 2}b")]
                patterns.append(np.array([1, *mid, 1], dtype=np.int8))
        for start in range(12 - length + 1):
            for pattern in patterns:
                corrupted = frames.copy()
                corrupted[:, start:start + length] ^= pattern
                assert not crc5_check_many(corrupted).any(), (length, start)


def test_checksum_is_linear_over_gf2():
    rng = np.random.default_rng(149)
    for _ in range(50):
        a = rng.integers(0, 2, size=7, dtype=np.int8)
        b = rng.integers(0, 2, size=7, dtype=np.int8)
        crc_a = encode(a)[-CRC_BITS:]
        crc_b = encode(b)[-CRC_BITS:]
        crc_xor = encode(a ^ b)[-CRC_BITS:]
        assert np.array_equal(crc_xor, crc_a ^ crc_b)


def test_frame_validation_and_formatting():
    frame = encode(bits_of("1010101"))
    assert frame.tolist() == [1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0]
    assert CRC_BITS == 5
    with pytest.raises(ValueError):
        crc5_encode_many(np.full((1, 7), 2, dtype=np.int8))


def test_check_many_validates_shape():
    # rows must carry at least one payload bit ahead of the check bits
    with pytest.raises(ValueError):
        crc5_check_many(np.zeros((4, 5), dtype=np.int8))
    with pytest.raises(ValueError):
        crc5_check_many(np.zeros(12, dtype=np.int8))
    # a shorter payload is still a legal frame
    short = encode(np.array([1], dtype=np.int8))
    assert crc5_check_many(short[None, :])[0]



def bitwise_register(bits, preset):
    """The x^5 + x^3 + 1 shift register, MSB first, one bit at a time."""
    reg = preset
    for bit in bits:
        top = (reg >> 4) & 1
        reg = (reg << 1) & 0b11111
        if top ^ bit:
            reg ^= 0b01001
    return reg


@settings(max_examples=25)
@given(rows=st.lists(st.integers(0, 2 ** 20 - 1), min_size=1, max_size=8))
def test_register_is_the_bitwise_shift_register(rows):
    # the affine form, the preset's own final state XOR the syndrome of
    # each set bit, is the register run bit by bit, at every preset and
    # frame length 6-20 (each row's last `length` bits)
    for length in range(6, 21):
        bits = np.array([[(row >> (length - 1 - i)) & 1 for i in range(length)]
                         for row in rows], dtype=np.int8)
        for preset in range(32):
            got = crc._register(bits, preset)
            assert got.tolist() == [bitwise_register(row, preset)
                                    for row in bits.tolist()], (length, preset)
