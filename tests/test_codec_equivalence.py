"""Optimized codec kernels vs their pinned ``_reference_*`` twins.

Every optimized codec hot path keeps its original implementation in the
same module (``tests/test_reference_speedups.py`` pins the speedup); these
sweeps pin the pair equivalent — byte-identical outputs on valid inputs and
identical error messages on corrupt ones — across parameterized shape grids,
hypothesis-driven random inputs, and the degenerate shapes the rewrites
special-case (empty sets, zero-length bitstrings, single-dimension
interleaves, maximum-depth quadtrees).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import zcurve
from repro.codec.bits import BitReader, Bits, BitWriter, _ReferenceBitReader, _ReferenceBitWriter
from repro.codec.quadtree import QuadtreeCodec
from repro.errors import CodecError


# ---------------------------------------------------------------------------
# Z-curve interleave / deinterleave
# ---------------------------------------------------------------------------


SHAPES = [
    [1],                 # single dimension, single bit
    [7],                 # single dimension (pass-through path)
    [1, 1],
    [10, 10],
    [4, 9],              # unequal widths
    [13, 2, 5],
    [3, 0, 3],           # zero-width dimension mixed in
    [2] * 8,             # many narrow dimensions
]


class TestZcurveEquivalence:
    @pytest.mark.parametrize("bits_per_dim", SHAPES, ids=str)
    def test_round_trip_matches_reference_exhaustively_or_sampled(self, bits_per_dim):
        total = sum(bits_per_dim)
        rng = random.Random(total * 1001)
        if total <= 12:
            zs = range(1 << total)
        else:
            zs = [rng.getrandbits(total) for _ in range(500)]
        for z in zs:
            coords = zcurve.deinterleave(z, bits_per_dim)
            assert coords == zcurve._reference_deinterleave(z, bits_per_dim)
            assert zcurve.interleave(coords, bits_per_dim) == z
            assert zcurve._reference_interleave(coords, bits_per_dim) == z

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_shapes_match_reference(self, data):
        ndim = data.draw(st.integers(1, 4))
        bits_per_dim = data.draw(
            st.lists(st.integers(0, 14), min_size=ndim, max_size=ndim).filter(
                lambda widths: sum(widths) > 0
            )
        )
        coords = [data.draw(st.integers(0, (1 << w) - 1)) for w in bits_per_dim]
        z = zcurve.interleave(coords, bits_per_dim)
        assert z == zcurve._reference_interleave(coords, bits_per_dim)
        assert zcurve.deinterleave(z, bits_per_dim) == coords

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: f([1, 2], [3]),            # arity mismatch
            lambda f: f([8], [3]),               # coordinate too wide
            lambda f: f([-1], [3]),              # negative coordinate
        ],
    )
    def test_error_messages_match_reference(self, call):
        with pytest.raises(CodecError) as optimized:
            call(zcurve.interleave)
        with pytest.raises(CodecError) as reference:
            call(zcurve._reference_interleave)
        assert str(optimized.value) == str(reference.value)

    def test_deinterleave_error_matches_reference(self):
        for bad in (-1, 1 << 6):
            with pytest.raises(CodecError) as optimized:
                zcurve.deinterleave(bad, [3, 3])
            with pytest.raises(CodecError) as reference:
                zcurve._reference_deinterleave(bad, [3, 3])
            assert str(optimized.value) == str(reference.value)


# ---------------------------------------------------------------------------
# BitWriter / BitReader
# ---------------------------------------------------------------------------


class TestBitWriterEquivalence:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_op_sequences_build_identical_bits(self, data):
        chunked, reference = BitWriter(), _ReferenceBitWriter()
        for _ in range(data.draw(st.integers(0, 60))):
            if data.draw(st.booleans()):
                bit = data.draw(st.integers(0, 1))
                chunked.write_bit(bit)
                reference.write_bit(bit)
            else:
                width = data.draw(st.integers(0, 12))
                value = data.draw(st.integers(0, max(0, (1 << width) - 1)))
                chunked.write_uint(value, width)
                reference.write_uint(value, width)
        assert chunked.getvalue() == reference.getvalue()

    def test_getvalue_is_resumable_like_reference(self):
        chunked, reference = BitWriter(), _ReferenceBitWriter()
        for writer in (chunked, reference):
            writer.write_uint(5, 4)
            writer.getvalue()
            writer.write_uint(2, 3)
        assert chunked.getvalue() == reference.getvalue()

    def test_zero_length_value(self):
        assert BitWriter().getvalue() == _ReferenceBitWriter().getvalue() == Bits()

    @pytest.mark.parametrize("widths", [[0, 0, 5], [1] * 20, [64, 1]])
    def test_degenerate_widths(self, widths):
        chunked, reference = BitWriter(), _ReferenceBitWriter()
        for width in widths:
            value = (1 << width) - 1 if width else 0
            chunked.write_uint(value, width)
            reference.write_uint(value, width)
        assert chunked.getvalue() == reference.getvalue()

    @given(st.lists(st.integers(0, 16), max_size=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reader_matches_reference_reader(self, widths, data):
        writer = BitWriter()
        values = []
        for width in widths:
            value = data.draw(st.integers(0, max(0, (1 << width) - 1)))
            writer.write_uint(value, width)
            values.append(value)
        bits = writer.getvalue()
        fast, slow = BitReader(bits), _ReferenceBitReader(bits)
        for width, expected in zip(widths, values):
            assert fast.read_uint(width) == slow.read_uint(width) == expected
        assert fast.remaining == slow.remaining == 0
        # Reading past the end reports the identical underrun message.
        with pytest.raises(CodecError) as a:
            fast.read_uint(1)
        with pytest.raises(CodecError) as b:
            slow.read_uint(1)
        assert str(a.value) == str(b.value)


# ---------------------------------------------------------------------------
# Quadtree encode / size / decode
# ---------------------------------------------------------------------------


def _random_points(rng, codec, count):
    max_flags = (1 << codec.flag_bits) - 1 if codec.flag_bits else 0
    return {
        (
            rng.randint(1, max_flags) if codec.flag_bits else 0,
            rng.getrandbits(codec.z_bits),
        )
        for _ in range(count)
    }


CODEC_SHAPES = [
    (2, [10, 10]),   # the paper's two-alias standard shape
    (2, [4, 9]),     # unequal dims
    (0, [5, 5]),     # no flag level
    (1, [6]),        # single dimension
    (3, [2, 2, 2]),  # three aliases, three dims
    (2, [1, 1]),     # maximum-depth tree: every level one bit wide
    (0, [8]),        # single dim, no flags: 8 levels of width 1
]


class TestQuadtreeEquivalence:
    @pytest.mark.parametrize("flag_bits,bpd", CODEC_SHAPES, ids=str)
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 40, 200])
    def test_encode_size_decode_match_reference(self, flag_bits, bpd, count):
        codec = QuadtreeCodec(flag_bits, zcurve.level_widths(bpd))
        rng = random.Random(count * 31 + sum(bpd))
        points = _random_points(rng, codec, count)
        encoded = codec.encode(points)
        assert encoded == codec._reference_encode(points)
        assert (
            codec.encoded_size_bits(points)
            == codec._reference_encoded_size_bits(points)
            == len(encoded)
        )
        assert codec.decode(encoded) == codec._reference_decode(encoded) == frozenset(points)

    def test_zero_length_bits_decode_to_empty_set(self):
        codec = QuadtreeCodec(2, zcurve.level_widths([10, 10]))
        assert codec.encode([]) == Bits()
        assert codec.decode(Bits()) == codec._reference_decode(Bits()) == frozenset()

    def test_full_domain_max_depth_tree(self):
        # Every point of a tiny domain present: decomposition reaches the
        # maximum level everywhere subdivision pays off.
        codec = QuadtreeCodec(0, zcurve.level_widths([2, 2]))
        points = {(0, z) for z in range(1 << 4)}
        encoded = codec.encode(points)
        assert encoded == codec._reference_encode(points)
        assert codec.decode(encoded) == frozenset(points)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_codecs_match_reference(self, data):
        flag_bits = data.draw(st.integers(0, 3))
        ndim = data.draw(st.integers(1, 3))
        bpd = data.draw(st.lists(st.integers(1, 6), min_size=ndim, max_size=ndim))
        codec = QuadtreeCodec(flag_bits, zcurve.level_widths(bpd))
        seed = data.draw(st.integers(0, 2**16))
        rng = random.Random(seed)
        points = _random_points(rng, codec, data.draw(st.integers(0, 60)))
        encoded = codec.encode(points)
        assert encoded == codec._reference_encode(points)
        assert codec.encoded_size_bits(points) == len(encoded)
        assert codec.decode(encoded) == frozenset(points)

    @pytest.mark.parametrize("mutation", ["truncate", "extend", "bitflip"])
    def test_corrupt_streams_fail_identically(self, mutation):
        codec = QuadtreeCodec(2, zcurve.level_widths([5, 5]))
        rng = random.Random(77)
        points = _random_points(rng, codec, 25)
        encoded = codec.encode(points)
        for trial in range(40):
            if mutation == "truncate":
                cut = rng.randint(0, max(0, len(encoded) - 1))
                corrupt = Bits(encoded.value >> (len(encoded) - cut), cut)
            elif mutation == "extend":
                extra = rng.randint(1, 8)
                corrupt = Bits(
                    (encoded.value << extra) | rng.getrandbits(extra),
                    len(encoded) + extra,
                )
            else:
                position = rng.randint(0, len(encoded) - 1)
                corrupt = Bits(encoded.value ^ (1 << position), len(encoded))
            try:
                fast = ("ok", codec.decode(corrupt))
            except CodecError as error:
                fast = ("error", str(error))
            try:
                slow = ("ok", codec._reference_decode(corrupt))
            except CodecError as error:
                slow = ("error", str(error))
            assert fast == slow
