"""Bit-level I/O for the quadtree wire format.

The pointerless quadtree (§V-C, Fig. 9) is a *bitstring*: index-node markers,
presence masks, relative point encodings and list terminators are all
sub-byte fields.  :class:`BitWriter` and :class:`BitReader` provide MSB-first
append/consume over a growable buffer, plus the byte-level view used for
packet accounting (a transmission carries whole bytes).

Implementation note: :class:`BitWriter` buffers appends as ``(value, width)``
chunks and assembles the final integer with a balanced pairwise fold in
:meth:`BitWriter.getvalue` — O(N log N) word operations for an N-bit stream,
versus the O(N²) of growing one big int by a few bits per append (kept as
:class:`_ReferenceBitWriter`: ``tests/test_codec_equivalence.py`` pins the
two equivalent and ``tests/test_reference_speedups.py`` pins the speedup).
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import CodecError

__all__ = ["BitWriter", "BitReader", "Bits"]


class Bits:
    """An immutable bit string (MSB-first).

    Stored as (value, length): the integer's binary expansion padded to
    ``length`` bits.  Cheap to hash and compare, which the codec tests use
    heavily.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int = 0, length: int = 0):
        if length < 0:
            raise CodecError(f"negative bit length: {length}")
        if value < 0:
            raise CodecError(f"negative bit value: {value}")
        if value >> length:
            raise CodecError(f"value {value:#x} does not fit in {length} bits")
        self._value = value
        self._length = length

    @property
    def value(self) -> int:
        """The bits as an unsigned integer (MSB = first bit)."""
        return self._value

    def __len__(self) -> int:
        return self._length

    @property
    def byte_length(self) -> int:
        """Bytes needed on the wire (ceil of bits / 8); 0 bits -> 0 bytes."""
        return (self._length + 7) // 8

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bits)
            and self._value == other._value
            and self._length == other._length
        )

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        if self._length == 0:
            return "Bits('')"
        return f"Bits('{self._value:0{self._length}b}')"

    @staticmethod
    def from_string(text: str) -> "Bits":
        """Build from a '0101...' string (test convenience)."""
        if text and set(text) - {"0", "1"}:
            raise CodecError(f"not a bit string: {text!r}")
        return Bits(int(text, 2) if text else 0, len(text))

    def to_bytes(self) -> bytes:
        """Left-aligned byte representation (pad bits are zero)."""
        if self._length == 0:
            return b""
        padded = self._value << (self.byte_length * 8 - self._length)
        return padded.to_bytes(self.byte_length, "big")


def _fold_chunks(chunks: List[Tuple[int, int]]) -> Tuple[int, int]:
    """Concatenate (value, width) chunks into one, merging balanced pairs.

    Pairwise merging keeps operand sizes even across rounds, so total work is
    O(N log N) in the bit length instead of the O(N²) of a left fold.
    """
    while len(chunks) > 1:
        merged = [
            ((chunks[i][0] << chunks[i + 1][1]) | chunks[i + 1][0],
             chunks[i][1] + chunks[i + 1][1])
            for i in range(0, len(chunks) - 1, 2)
        ]
        if len(chunks) % 2:
            merged.append(chunks[-1])
        chunks = merged
    return chunks[0] if chunks else (0, 0)


class BitWriter:
    """Append-only MSB-first bit sink."""

    def __init__(self) -> None:
        self._chunks: List[Tuple[int, int]] = []
        self._length = 0

    def write_bit(self, bit: int) -> None:
        """Append one bit (0 or 1)."""
        if bit not in (0, 1):
            raise CodecError(f"bit must be 0 or 1, got {bit!r}")
        self._chunks.append((bit, 1))
        self._length += 1

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a ``width``-bit big-endian unsigned field."""
        if width < 0:
            raise CodecError(f"negative field width: {width}")
        if value < 0 or value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        self._chunks.append((value, width))
        self._length += width

    def write_bits(self, bits: Bits) -> None:
        """Append another bit string."""
        self._chunks.append((bits.value, len(bits)))
        self._length += len(bits)

    def __len__(self) -> int:
        return self._length

    def getvalue(self) -> Bits:
        """Snapshot the accumulated bits (further appends still allowed)."""
        if len(self._chunks) > 1:
            self._chunks = [_fold_chunks(self._chunks)]
        value = self._chunks[0][0] if self._chunks else 0
        return Bits(value, self._length)


class _ReferenceBitWriter:
    """The original immediate-fold writer (pre-optimization).

    Grows a single big int by ``width`` bits per append — O(N²) word work
    for an N-bit stream.  Kept as the oracle for the equivalence tests and
    the baseline of ``tests/test_reference_speedups.py``.
    """

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise CodecError(f"bit must be 0 or 1, got {bit!r}")
        self._value = (self._value << 1) | bit
        self._length += 1

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise CodecError(f"negative field width: {width}")
        if value < 0 or value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def write_bits(self, bits: Bits) -> None:
        self._value = (self._value << len(bits)) | bits.value
        self._length += len(bits)

    def __len__(self) -> int:
        return self._length

    def getvalue(self) -> Bits:
        return Bits(self._value, self._length)


class _ReferenceBitReader:
    """The original reader (pre-optimization): every read re-derives the
    stream length and value through the :class:`Bits` attributes and shifts
    the full stream integer.  Kept as the oracle of
    ``tests/test_codec_equivalence.py``; inside
    :meth:`~repro.codec.quadtree.QuadtreeCodec._reference_decode` it is part
    of the decode baseline of ``tests/test_reference_speedups.py``."""

    def __init__(self, bits: Bits):
        self._bits = bits
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._position

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_uint(self, width: int) -> int:
        if width < 0:
            raise CodecError(f"negative field width: {width}")
        if self._position + width > len(self._bits):
            raise CodecError(
                f"bitstream underrun: wanted {width} bits at position "
                f"{self._position}, only {self.remaining} remain"
            )
        shift = len(self._bits) - self._position - width
        mask = (1 << width) - 1
        self._position += width
        return (self._bits.value >> shift) & mask

    def at_end(self) -> bool:
        return self._position == len(self._bits)


class BitReader:
    """MSB-first bit source over a :class:`Bits`."""

    def __init__(self, bits: Bits):
        self._bits = bits
        # Cached locally: read_uint is the innermost decode loop and
        # attribute-chasing through Bits dominates otherwise.
        self._value = bits.value
        self._length = len(bits)
        self._position = 0

    @property
    def position(self) -> int:
        """Bits consumed so far."""
        return self._position

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._length - self._position

    def read_bit(self) -> int:
        """Consume one bit."""
        return self.read_uint(1)

    def read_uint(self, width: int) -> int:
        """Consume a ``width``-bit big-endian unsigned field."""
        if width < 0:
            raise CodecError(f"negative field width: {width}")
        position = self._position
        if position + width > self._length:
            raise CodecError(
                f"bitstream underrun: wanted {width} bits at position "
                f"{position}, only {self._length - position} remain"
            )
        shift = self._length - position - width
        self._position = position + width
        return (self._value >> shift) & ((1 << width) - 1)

    def at_end(self) -> bool:
        """True once every bit has been consumed."""
        return self._position == self._length
