"""Z-order (Morton) encoding with unequal dimension widths.

§V-B: "We compute the Z-number of a point by bit interleaving of the
coordinates of each dimension. ... We compute the number of bits for each
dimension separately as, in general, the dimensions are not of equal size.
In this case, each dimension contributes to the bit interleaving until its
bits are exhausted."

Interleaving runs MSB-first in rounds: in round *l* every dimension that
still has bits left (``bits[d] > l``) contributes its next-most-significant
bit, in dimension order.  This aligns exactly with the region quadtree's
level-wise subdivision: round *l* decides the quadrant at tree level *l*,
and dimensions whose extent is exhausted simply stop splitting (the tree's
fan-out shrinks at deeper levels).

Implementation note: the public :func:`interleave`/:func:`deinterleave` are
*table-driven* — per ``bits_per_dim`` schedule (memoized) each dimension gets
precomputed bit-scatter/gather lookup tables processing :data:`CHUNK_BITS`
source bits per table hit, instead of one Python loop iteration per bit.
The original per-bit loops are kept as :func:`_reference_interleave` /
:func:`_reference_deinterleave`; the two implementations are bit-identical
(pinned by the equivalence suite in ``tests/test_codec_equivalence.py``; the
optimized side's speedup is pinned by ``tests/test_reference_speedups.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import CodecError

__all__ = ["interleave", "deinterleave", "level_widths", "total_bits"]

#: Source/target bits consumed per lookup-table hit.  11 keeps each table at
#: 2048 entries (a few KB) while covering typical quantizer widths (<= 11
#: bits per dimension) in a single probe.
CHUNK_BITS = 11
_CHUNK_MASK = (1 << CHUNK_BITS) - 1


def _validate(bits_per_dim: Sequence[int]) -> None:
    if not bits_per_dim:
        raise CodecError("need at least one dimension")
    for width in bits_per_dim:
        if width < 0:
            raise CodecError(f"negative bit width: {width}")
    if sum(bits_per_dim) == 0:
        raise CodecError("all dimensions are zero bits wide")


def total_bits(bits_per_dim: Sequence[int]) -> int:
    """Length of a Z-number for the given per-dimension widths."""
    _validate(bits_per_dim)
    return sum(bits_per_dim)


def level_widths(bits_per_dim: Sequence[int]) -> List[int]:
    """Bits consumed per interleave round (= quadtree level fan-out log2).

    ``level_widths([3, 1])`` is ``[2, 1, 1]``: in round 0 both dimensions
    contribute, afterwards only the wider one.
    """
    _validate(bits_per_dim)
    rounds = max(bits_per_dim)
    return [sum(1 for width in bits_per_dim if width > level) for level in range(rounds)]


class _Interleaver:
    """Precomputed scatter/gather tables for one ``bits_per_dim`` schedule.

    ``scatter[d][c][v]`` is the Z-contribution of chunk ``c`` (source bits
    ``[c*CHUNK_BITS, (c+1)*CHUNK_BITS)``, LSB-first) of dimension ``d``
    holding value ``v`` — already shifted into its interleaved positions, so
    interleaving is an OR of table hits.  ``gather[c][v]`` inverts that: the
    per-dimension coordinate contributions of Z-chunk ``c`` holding ``v``.
    """

    __slots__ = ("bits_per_dim", "ndim", "total", "scatter", "gather")

    def __init__(self, bits_per_dim: Tuple[int, ...]):
        self.bits_per_dim = bits_per_dim
        self.ndim = len(bits_per_dim)
        self.total = sum(bits_per_dim)
        # Output position of each dimension's i-th most significant bit,
        # replaying the reference round-major/dimension-minor order.
        positions: List[List[int]] = [[] for _ in bits_per_dim]
        contribution = 0
        for level in range(max(bits_per_dim)):
            for dim, width in enumerate(bits_per_dim):
                if width > level:
                    positions[dim].append(self.total - 1 - contribution)
                    contribution += 1

        scatter: List[Tuple[Tuple[int, ...], ...]] = []
        for dim, width in enumerate(bits_per_dim):
            dim_positions = positions[dim]
            chunks: List[Tuple[int, ...]] = []
            for chunk in range((width + CHUNK_BITS - 1) // CHUNK_BITS):
                table = [0] * (1 << CHUNK_BITS)
                for bit in range(CHUNK_BITS):
                    source = chunk * CHUNK_BITS + bit  # LSB index in the coordinate
                    if source >= width:
                        break
                    mask = 1 << positions[dim][width - 1 - source]
                    step = 1 << bit
                    for base in range(0, 1 << CHUNK_BITS, step * 2):
                        for offset in range(step):
                            table[base + step + offset] |= mask
                chunks.append(tuple(table))
            scatter.append(tuple(chunks))
        self.scatter = tuple(scatter)

        # gather: z bit position -> (dimension, source bit position).
        owner: Dict[int, Tuple[int, int]] = {}
        for dim, width in enumerate(bits_per_dim):
            for i, position in enumerate(positions[dim]):
                owner[position] = (dim, width - 1 - i)
        gather: List[Tuple[Tuple[int, ...], ...]] = []
        for chunk in range((self.total + CHUNK_BITS - 1) // CHUNK_BITS):
            table: List[Tuple[int, ...]] = []
            for value in range(1 << CHUNK_BITS):
                parts = [0] * self.ndim
                v = value
                bit = 0
                while v:
                    if v & 1:
                        position = chunk * CHUNK_BITS + bit
                        if position < self.total:
                            dim, source = owner[position]
                            parts[dim] |= 1 << source
                    v >>= 1
                    bit += 1
                table.append(tuple(parts))
            gather.append(tuple(table))
        self.gather = tuple(gather)


_INTERLEAVERS: Dict[Tuple[int, ...], _Interleaver] = {}


def _interleaver(bits_per_dim: Sequence[int]) -> _Interleaver:
    key = tuple(bits_per_dim)
    cached = _INTERLEAVERS.get(key)
    if cached is None:
        _validate(key)
        if len(_INTERLEAVERS) >= 256:  # fuzzers sweep many shapes; stay bounded
            _INTERLEAVERS.clear()
        cached = _INTERLEAVERS[key] = _Interleaver(key)
    return cached


def interleave(coordinates: Sequence[int], bits_per_dim: Sequence[int]) -> int:
    """Morton-encode ``coordinates`` into a single Z-number.

    Coordinates must fit their declared widths; the result has
    ``sum(bits_per_dim)`` bits.
    """
    itl = _interleaver(bits_per_dim)
    if len(coordinates) != itl.ndim:
        raise CodecError(
            f"{len(coordinates)} coordinates for {itl.ndim} dimensions"
        )
    z = 0
    for coordinate, width, chunks in zip(coordinates, itl.bits_per_dim, itl.scatter):
        if coordinate < 0 or coordinate >> width:
            raise CodecError(f"coordinate {coordinate} does not fit in {width} bits")
        for table in chunks:
            z |= table[coordinate & _CHUNK_MASK]
            coordinate >>= CHUNK_BITS
    return z


def deinterleave(z: int, bits_per_dim: Sequence[int]) -> List[int]:
    """Invert :func:`interleave`."""
    itl = _interleaver(bits_per_dim)
    if z < 0 or z >> itl.total:
        raise CodecError(f"Z-number {z} does not fit in {itl.total} bits")
    if itl.ndim == 2:
        # The dominant shape (two join attributes): unpack without the
        # per-dimension inner loop.
        x = y = 0
        for table in itl.gather:
            part_x, part_y = table[z & _CHUNK_MASK]
            z >>= CHUNK_BITS
            x |= part_x
            y |= part_y
        return [x, y]
    coordinates = [0] * itl.ndim
    for table in itl.gather:
        parts = table[z & _CHUNK_MASK]
        z >>= CHUNK_BITS
        for dim, part in enumerate(parts):
            if part:
                coordinates[dim] |= part
    return coordinates


# -- reference implementations (pre-optimization, kept for equivalence) --------


def _reference_interleave(coordinates: Sequence[int], bits_per_dim: Sequence[int]) -> int:
    """Per-bit interleave loop — the original implementation.

    Kept verbatim as the correctness oracle for :func:`interleave`; the
    equivalence suite pins bit-identical results and
    ``tests/test_reference_speedups.py`` pins the table-driven speedup.
    """
    _validate(bits_per_dim)
    if len(coordinates) != len(bits_per_dim):
        raise CodecError(
            f"{len(coordinates)} coordinates for {len(bits_per_dim)} dimensions"
        )
    for coordinate, width in zip(coordinates, bits_per_dim):
        if coordinate < 0 or coordinate >> width:
            raise CodecError(f"coordinate {coordinate} does not fit in {width} bits")
    z = 0
    rounds = max(bits_per_dim)
    for level in range(rounds):
        for dimension, width in enumerate(bits_per_dim):
            if width > level:
                bit = (coordinates[dimension] >> (width - 1 - level)) & 1
                z = (z << 1) | bit
    return z


def _reference_deinterleave(z: int, bits_per_dim: Sequence[int]) -> List[int]:
    """Per-bit deinterleave loop — the original implementation."""
    _validate(bits_per_dim)
    length = sum(bits_per_dim)
    if z < 0 or z >> length:
        raise CodecError(f"Z-number {z} does not fit in {length} bits")
    coordinates = [0] * len(bits_per_dim)
    position = length
    rounds = max(bits_per_dim)
    for level in range(rounds):
        for dimension, width in enumerate(bits_per_dim):
            if width > level:
                position -= 1
                bit = (z >> position) & 1
                coordinates[dimension] = (coordinates[dimension] << 1) | bit
    return coordinates
