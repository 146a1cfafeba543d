"""Each optimized kernel stays faster than its pinned ``_reference_*`` twin.

The twins are the pre-optimization implementations kept beside the
optimized ones (``tests/test_codec_equivalence.py`` and
``tests/test_sim_spatial.py`` pin the pairs equivalent).  Here each pair is
timed in the same process on the same input, so host speed and load cancel
out of the ratio: a rewrite that loses its advantage, or a kernel swapped
back for its twin, fails its case while a slow or busy host does not.

Each side is timed best-of-:data:`REPEATS`, alternating optimized and
reference runs so that a burst of host noise hits both.  Measured on a
2-core host under Python 3.11, the smallest speedup was 4.7-6.4x (the
adjacency build) and the largest 24-37x (quadtree encode);
:data:`MIN_SPEEDUP` sits at about 40% of the smallest.
"""

import time
from random import Random
from typing import Any, Callable, Tuple

import pytest

from repro.codec import zcurve
from repro.codec.bits import BitWriter, _ReferenceBitWriter
from repro.codec.quadtree import QuadtreeCodec
from repro.sim.network import DeploymentConfig, deploy_uniform

#: The optimized side must be at least this many times faster.
MIN_SPEEDUP = 2.0

#: Timed runs per side; the best of them counts.
REPEATS = 5

#: Seed of the codec inputs (the paper's venue, ICDE 2009).
CODEC_SEED = 20090329

Pair = Tuple[Callable[[], Any], Callable[[], Any]]


def _each(function: Callable, items: list, bpd: list) -> Callable[[], None]:
    """A closure applying ``function(item, bpd)`` to every item."""

    def run() -> None:
        for item in items:
            function(item, bpd)

    return run


def _coords() -> list:
    rng = Random(CODEC_SEED)
    return [(rng.randrange(1 << 10), rng.randrange(1 << 10)) for _ in range(4096)]


def _interleave() -> Pair:
    coords, bpd = _coords(), [10, 10]
    return (
        _each(zcurve.interleave, coords, bpd),
        _each(zcurve._reference_interleave, coords, bpd),
    )


def _deinterleave() -> Pair:
    bpd = [10, 10]
    zs = [zcurve.interleave(c, bpd) for c in _coords()]
    return (
        _each(zcurve.deinterleave, zs, bpd),
        _each(zcurve._reference_deinterleave, zs, bpd),
    )


def _bits_writer() -> Pair:
    # Long enough for the O(N log N) vs O(N^2) assembly to separate (a
    # filter-phase quadtree stream is tens of kilobits).
    rng = Random(CODEC_SEED)
    fields = [(rng.randrange(1 << 7), 7) for _ in range(32768)]

    def timed(writer_class: type) -> Callable[[], None]:
        def run() -> None:
            writer = writer_class()
            write = writer.write_uint
            for value, width in fields:
                write(value, width)
            writer.getvalue()

        return run

    return timed(BitWriter), timed(_ReferenceBitWriter)


def _standard_codec() -> Tuple[QuadtreeCodec, list]:
    """The 20-bit two-dimension shape of the filter phase, 512 points."""
    rng = Random(CODEC_SEED)
    codec = QuadtreeCodec(2, zcurve.level_widths([10, 10]))
    points = sorted({(rng.randrange(1, 4), rng.randrange(1 << 20)) for _ in range(512)})
    return codec, points


def _quadtree_encode() -> Pair:
    codec, points = _standard_codec()
    return lambda: codec.encode(points), lambda: codec._reference_encode(points)


def _quadtree_size() -> Pair:
    codec, points = _standard_codec()
    return (
        lambda: codec.encoded_size_bits(points),
        lambda: codec._reference_encoded_size_bits(points),
    )


def _quadtree_decode() -> Pair:
    # A deep, wide shape, where the linear-time parse shows.
    rng = Random(CODEC_SEED)
    codec = QuadtreeCodec(2, zcurve.level_widths([13, 13]))
    points = sorted({(rng.randrange(1, 4), rng.randrange(1 << 26)) for _ in range(8192)})
    encoded = codec.encode(points)
    return lambda: codec.decode(encoded), lambda: codec._reference_decode(encoded)


def _adjacency_build() -> Pair:
    network = deploy_uniform(DeploymentConfig().scaled(2000))
    return network._rebuild_adjacency, network._reference_adjacency


KERNELS = {
    "interleave": _interleave,
    "deinterleave": _deinterleave,
    "bits_writer": _bits_writer,
    "quadtree_encode": _quadtree_encode,
    "quadtree_size": _quadtree_size,
    "quadtree_decode": _quadtree_decode,
    "adjacency_build": _adjacency_build,
}


def _elapsed(run: Callable[[], Any]) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_optimized_kernel_beats_reference_twin(kernel):
    optimized, reference = KERNELS[kernel]()
    best_optimized = best_reference = float("inf")
    for _ in range(REPEATS):
        best_optimized = min(best_optimized, _elapsed(optimized))
        best_reference = min(best_reference, _elapsed(reference))
    speedup = best_reference / best_optimized
    assert speedup >= MIN_SPEEDUP, (
        f"{kernel}: {best_optimized * 1e3:.2f} ms vs reference "
        f"{best_reference * 1e3:.2f} ms, {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
