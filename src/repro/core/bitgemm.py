"""Any-bitwidth matrix multiplication via 1-bit composition (paper §3).

The product of an ``s``-bit matrix ``A`` and a ``t``-bit matrix ``B`` is
assembled from ``s * t`` one-bit GEMMs: plane ``i`` of ``A`` times plane
``j`` of ``B`` contributes at bit position ``i + j`` (paper Eq. 5/6 and
Algorithm 1):

.. math::

    C = \\sum_{i<s} \\sum_{j<t} \\mathrm{BMM}(A_i, B_j) \\ll (i + j)

Each 1-bit GEMM is an AND + popcount over the packed K dimension
(paper Eq. 7).

Every backend honours one contract: ``run(a_packed, b_packed,
tile_masks)`` returns the *reduced*, exact ``(M, N)`` int64 product —
never a stack of plane products.  How it gets there differs:

* ``"packed"`` — word-at-a-time ``popcount(a & b)`` on the uint32 storage,
  exactly what the emulated Tensor Core executes, each plane pair
  shift-accumulated into the output as it is produced.  Memory-blocked.
* ``"sparse"`` — the host realization of the paper's §4.3 zero-tile
  jumping: census the ``8 x 128`` tiles of the left operand once, then
  compute only the non-zero ones (gather the surviving k-tiles of each
  row group, AND+popcount, shift-accumulate, scatter the row block back).
  Bit-identical to ``"packed"`` because all-zero tiles contribute nothing
  to any AND+popcount dot product; much faster when the operand is
  tile-sparse — e.g. the block-diagonal adjacency of a coalesced serving
  batch, where roughly ``1/members`` of the tiles survive.
* ``"blas"`` — the host fast path.  Since
  ``sum_ij 2^(i+j) A_i B_j = A @ B``, it recombines each operand's codes
  from its planes (:func:`recombine_codes`) and multiplies them *once*
  (:func:`bitgemm_recombined`), in the narrowest float dtype whose
  exactness bound ``K (2^s - 1)(2^t - 1)`` the product fits
  (:func:`exact_matmul_plan`), splitting the bits into chunks only when
  even float64 cannot hold it.  The multiply runs in blocks small enough
  that BLAS keeps each call on the calling thread
  (:data:`SERIAL_BLAS_MNK`).
* ``"einsum"`` — one int64 ``np.einsum`` contraction over the recombined
  codes: exact at any bitwidth, BLAS-free.

``packed``, ``sparse`` and the TC emulator's
:meth:`~repro.tc.kernel.BitGemmKernel.run_tile_loop` remain the faithful
bit-serial form of §3/§4; the modeled device time
(:mod:`repro.tc.costmodel`) prices that form whichever host engine runs.
All engines are tested against each other and against an int64 reference.

Engines are *registered objects*: each lives in the
:class:`~repro.plan.registry.BackendRegistry` as a
:class:`~repro.plan.registry.Backend` carrying capability metadata and a
cost pricer (see :mod:`repro.plan.backends` for the built-ins).  The
``engine=`` parameters here are a compatibility shim over that registry:
they accept the literal names above, any custom backend name registered
via :func:`repro.plan.register_backend`, *or* an :data:`EngineSelector` —
a callable ``(m, k, n, bits_a, bits_b) -> name`` — so callers such as the
serving dispatcher (:mod:`repro.serving.dispatch`) can pick the engine per
product from a cost model instead of the built-in size threshold.  Pass
``registry=`` to resolve names against a non-default registry.

Scalar- and vector-level decomposed products (Eq. 5/6 verbatim) are included
as executable documentation; the test-suite uses them as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from ..errors import BitwidthError, PackingError, ShapeError
from .bitdecomp import bit_decompose
from .bitops import and_popcount, popcount
from .bitpack import PackedBits, pack_matrix, tile_nonzero_mask

if TYPE_CHECKING:  # pragma: no cover - typing only (plan layers above core)
    from ..plan.registry import BackendRegistry

__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "EngineSelector",
    "CODE_BLOCK_BYTES",
    "ExactMatmulPlan",
    "SERIAL_BLAS_MNK",
    "scalar_mul_decomposed",
    "vector_dot_decomposed",
    "bmm_plane_packed",
    "bmm_plane_packed_sparse",
    "bmm_plane_blas",
    "bitgemm",
    "bitgemm_codes",
    "bitgemm_recombined",
    "exact_matmul_plan",
    "matmul_int_reference",
    "recombine_codes",
]

#: A pluggable engine chooser: ``(m, k, n, bits_a, bits_b) -> engine name``.
EngineSelector = Callable[[int, int, int, int, int], str]
#: ``"auto"``, a registered backend name, or a selector callable.
Engine = Union[str, EngineSelector]

#: Names of the built-in backends (the default registry may hold more;
#: see :func:`repro.plan.register_backend`).
ENGINE_NAMES = ("packed", "blas", "sparse", "einsum")

#: Row-block size of the packed engine; caps the broadcast temporary at
#: roughly ``block * N * k_words * 4`` bytes.
_PACKED_ROW_BLOCK = 128


def scalar_mul_decomposed(a: int, b: int, bits_a: int, bits_b: int) -> int:
    """Multiply two quantized scalars by explicit bit composition (Eq. 5).

    Decomposes ``a`` into ``bits_a`` bits and ``b`` into ``bits_b`` bits,
    forms every cross term ``a_i * b_j`` and accumulates it at bit position
    ``i + j``.  Used as an oracle in tests; the array code below is the same
    arithmetic vectorized.
    """
    if a < 0 or b < 0:
        raise BitwidthError("decomposed multiply requires non-negative codes")
    if a >= (1 << bits_a) or b >= (1 << bits_b):
        raise BitwidthError("operand does not fit its declared bitwidth")
    total = 0
    for i in range(bits_a):
        for j in range(bits_b):
            total += ((a >> i) & 1) * ((b >> j) & 1) << (i + j)
    return total


def vector_dot_decomposed(
    va: np.ndarray, vb: np.ndarray, bits_a: int, bits_b: int
) -> int:
    """Dot product of two quantized vectors by bit composition (Eq. 6/7).

    For every pair of bit positions, the partial result is
    ``popcount(a_bits & b_bits)`` — the AND + popcount identity the Tensor
    Core path relies on.
    """
    va = np.asarray(va, dtype=np.int64)
    vb = np.asarray(vb, dtype=np.int64)
    if va.shape != vb.shape or va.ndim != 1:
        raise ShapeError(f"expected equal-length vectors, got {va.shape}, {vb.shape}")
    pa = bit_decompose(va, bits_a).astype(bool)
    pb = bit_decompose(vb, bits_b).astype(bool)
    total = 0
    for i in range(bits_a):
        for j in range(bits_b):
            total += int(np.count_nonzero(pa[i] & pb[j])) << (i + j)
    return total


def matmul_int_reference(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Exact int64 matrix product — the oracle every engine must match."""
    a = np.asarray(a_codes, dtype=np.int64)
    b = np.asarray(b_codes, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"incompatible matmul shapes {a.shape} x {b.shape}")
    return a @ b


def bmm_plane_packed(
    a_words: np.ndarray, b_words: np.ndarray, *, row_block: int = _PACKED_ROW_BLOCK
) -> np.ndarray:
    """1-bit GEMM on packed words: ``C[m, n] = popcnt(Arow_m & Bcol_n)``.

    ``a_words`` is ``(M, W)``, ``b_words`` is ``(N, W)`` (both packed along
    K).  Blocked over rows of ``A`` so the broadcast temporary stays small —
    the software analogue of walking TC fragments tile by tile.
    """
    a_words = np.asarray(a_words)
    b_words = np.asarray(b_words)
    if a_words.ndim != 2 or b_words.ndim != 2:
        raise ShapeError("bmm_plane_packed expects 2-D packed word arrays")
    if a_words.shape[1] != b_words.shape[1]:
        raise ShapeError(
            f"packed K-word axes differ: {a_words.shape[1]} vs {b_words.shape[1]}"
        )
    m = a_words.shape[0]
    out = np.empty((m, b_words.shape[0]), dtype=np.int64)
    for start in range(0, m, row_block):
        stop = min(start + row_block, m)
        out[start:stop] = and_popcount(
            a_words[start:stop, None, :], b_words[None, :, :]
        )
    return out


def bmm_plane_packed_sparse(
    a_words: np.ndarray,
    b_words: np.ndarray,
    *,
    tile_mask: np.ndarray | None = None,
    row_block: int = _PACKED_ROW_BLOCK,
) -> np.ndarray:
    """1-bit GEMM that computes only the non-zero ``8 x 128`` tiles of A.

    Host analogue of the paper's §4.3 zero-tile jumping: the tile census of
    the left operand (``tile_nonzero_mask``, the vectorized warp ballot) is
    taken once, then only surviving tiles are multiplied.  Rows are gathered
    per tile-row group, the surviving k-tiles accumulated with AND+popcount,
    and the partial rows scattered back — skipped tiles contribute exactly
    zero to every dot product, so the result is bit-identical to
    :func:`bmm_plane_packed` at a fraction of the work proportional to the
    non-zero tile ratio.

    Parameters
    ----------
    a_words, b_words:
        Packed planes as in :func:`bmm_plane_packed`; ``a_words`` must
        additionally be a whole number of ``8 x 128`` tiles (always true
        for :class:`~repro.core.bitpack.PackedBits` planes).
    tile_mask:
        Optional precomputed ``(rows // 8, k_words // 4)`` boolean census of
        ``a_words`` (e.g. from a serving session's tile-mask cache).  Must
        be *conservative*: ``True`` wherever the tile has any set bit.
        Computed on the fly when omitted.
    """
    a_words = np.asarray(a_words)
    b_words = np.asarray(b_words)
    if a_words.ndim != 2 or b_words.ndim != 2:
        raise ShapeError("bmm_plane_packed_sparse expects 2-D packed word arrays")
    if a_words.shape[1] != b_words.shape[1]:
        raise ShapeError(
            f"packed K-word axes differ: {a_words.shape[1]} vs {b_words.shape[1]}"
        )
    rows, kwords = a_words.shape
    if tile_mask is None:
        tile_mask = tile_nonzero_mask(a_words)
    else:
        tile_mask = np.asarray(tile_mask)
        if rows % 8 or kwords % 4:
            raise ShapeError(
                f"plane shape {a_words.shape} is not a whole number of 8x128 tiles"
            )
        if tile_mask.shape != (rows // 8, kwords // 4):
            raise ShapeError(
                f"tile mask shape {tile_mask.shape} does not match the "
                f"{(rows // 8, kwords // 4)} tile grid of the plane"
            )
    return _sparse_shift_products(
        a_words, b_words[None, :, :], tile_mask, row_block=row_block
    )


def _sparse_shift_products(
    a_words: np.ndarray,
    b_planes: np.ndarray,
    tile_mask: np.ndarray,
    *,
    row_block: int = _PACKED_ROW_BLOCK,
) -> np.ndarray:
    """One packed A plane against a stack of packed B planes, zero tiles
    skipped, B planes shift-accumulated.

    ``b_planes`` is ``(bits_b, N, W)``; returns the ``(rows, N)`` int64
    ``sum_j BMM(A, B_j) << j``.  Shared core of the ``sparse`` engine:
    computing every B bit plane inside one gather amortizes the per-call
    overhead that dominates tiny tile-group products (the host analogue
    of §4.4's load-A-once schedule).
    """
    rows, kwords = a_words.shape
    bits_b, n = b_planes.shape[0], b_planes.shape[1]
    out = np.zeros((rows, n), dtype=np.int64)
    if not tile_mask.any() or n == 0:
        return out
    a_tiles = a_words.reshape(rows // 8, 8, kwords // 4, 4)
    b_tiles = b_planes.reshape(bits_b, n, kwords // 4, 4)
    shifts = np.arange(bits_b, dtype=np.int64)[:, None, None]
    # Tile rows sharing an active-tile set are processed in one gather — a
    # block-diagonal batch collapses to roughly one group per member.
    masks, inverse = np.unique(tile_mask, axis=0, return_inverse=True)
    for group, mask in enumerate(masks):
        active = np.flatnonzero(mask)
        if active.size == 0:
            continue
        awords = active.size * 4
        tile_rows = np.flatnonzero(inverse == group)
        # B laid out (bits_b, active-words, N) so the broadcast's contiguous
        # inner axis is N, not the (often tiny) surviving word count — the
        # short-axis layout is ~3x slower purely on loop overhead.
        b_sel = np.ascontiguousarray(
            b_tiles[:, :, active, :].reshape(bits_b, n, awords).transpose(0, 2, 1)
        )
        a_sel = a_tiles[tile_rows][:, :, active, :].reshape(-1, awords)
        row_idx = (tile_rows[:, None] * 8 + np.arange(8)[None, :]).ravel()
        # The broadcast temporary is (bits_b, block, active-words, N); pick
        # the row block so its footprint stays near the packed engine's
        # ``row_block x N x kwords`` budget.
        block = max(8, (row_block * kwords) // max(bits_b * awords, 1))
        for start in range(0, row_idx.size, block):
            stop = min(start + block, row_idx.size)
            counts = popcount(
                a_sel[None, start:stop, :, None] & b_sel[:, None, :, :]
            ).sum(axis=2, dtype=np.int64)
            out[row_idx[start:stop]] = (
                counts[0] if bits_b == 1 else (counts << shifts).sum(axis=0)
            )
    return out


def bmm_plane_blas(a_plane: np.ndarray, b_plane: np.ndarray) -> np.ndarray:
    """1-bit GEMM on *unpacked* planes via float32 BLAS.

    ``a_plane`` is ``(M, K)`` binary, ``b_plane`` is ``(N, K)`` binary
    (B's columns as rows).  A 0/1 dot product of length < 2^24 is exactly
    representable in float32, so the result is exact.
    """
    a = np.asarray(a_plane)
    b = np.asarray(b_plane)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"K axes differ: {a.shape[-1]} vs {b.shape[-1]}")
    if a.shape[-1] >= (1 << 24):
        raise ShapeError("K too large for exact float32 accumulation")
    return (a.astype(np.float32) @ b.astype(np.float32).T).astype(np.int64)


#: Largest ``m * n * k`` of one float BLAS call on the host paths.  The
#: bundled OpenBLAS ran gemm on the calling thread up to 2^18 at every
#: aspect ratio measured; at 2^19 some shapes already wake a worker thread
#: (2048 x 16 x 16 and 64 x 128 x 64 do, 16 x 2048 x 16 does not).  A
#: woken worker spins for ~80 ms after the call returns, taking the other
#: core from whatever else runs, and a large threaded call stalls
#: whenever that core is busy (a 2048-node dynamic-graph round whose
#: 2048 x 2048 x 16 products ran as single calls went from a 6 to a 15 ms
#: median under one CPU hog, measured on a 2-core host).  Blocking every
#: call below this size keeps a product's cost independent of what else
#: the host runs.
SERIAL_BLAS_MNK = 1 << 18

#: Bytes of float codes :func:`bitgemm_recombined` recombines per row
#: block of ``A`` (about an L2 cache): recombining and multiplying block by
#: block keeps the codes cache-resident, and fewer, larger recombine calls
#: than :data:`SERIAL_BLAS_MNK` slices keep the per-call overhead small.
CODE_BLOCK_BYTES = 1 << 18

#: Exactness limits of the float matmul dtypes, narrowest first: a sum of
#: non-negative integer products whose total stays below the limit is
#: exact in any summation order (every partial sum is an integer the dtype
#: represents), so BLAS blocking and FMA cannot perturb it.
_EXACT_FLOAT_LIMITS = (
    (np.dtype(np.float32), 1 << 24),
    (np.dtype(np.float64), 1 << 53),
)


@dataclass(frozen=True)
class ExactMatmulPlan:
    """How :func:`bitgemm_recombined` multiplies one product exactly.

    ``chunks_a`` / ``chunks_b`` are the half-open bit ranges ``(lo, hi)``
    each operand's codes are recombined over; one ``(0, bits)`` range per
    side means a single matmul of the full codes.
    """

    dtype: np.dtype
    chunks_a: tuple[tuple[int, int], ...]
    chunks_b: tuple[tuple[int, int], ...]

    @property
    def matmuls(self) -> int:
        """Float matmuls the product costs (chunk pairs)."""
        return len(self.chunks_a) * len(self.chunks_b)

    def code_bytes(self, m: int, k: int, n: int) -> int:
        """Bytes of the recombined code matrices the plan materializes."""
        return self.dtype.itemsize * k * (
            m * len(self.chunks_a) + n * len(self.chunks_b)
        )


def _exact_bound(k: int, bits_a: int, bits_b: int) -> int:
    """Largest possible entry of a K-deep ``bits_a x bits_b`` code product."""
    return k * ((1 << bits_a) - 1) * ((1 << bits_b) - 1)


def _split_bits(bits: int, width: int) -> tuple[tuple[int, int], ...]:
    """Split ``bits`` planes into the fewest balanced ranges of at most
    ``width`` planes each."""
    count = -(-bits // width)
    edges = [i * bits // count for i in range(count + 1)]
    return tuple(zip(edges[:-1], edges[1:]))


def exact_matmul_plan(k: int, bits_a: int, bits_b: int) -> ExactMatmulPlan:
    """The narrowest exact float matmul for a K-deep ``bits_a x bits_b``
    product.

    Derived from the operands alone, through the bound
    ``K (2^bits_a - 1)(2^bits_b - 1)``: float32 below 2^24 (so 1-bit
    products keep the speed of a plain float32 BLAS call), float64 below
    2^53, and above that the bits of each operand split into the fewest
    chunk pairs whose own bound stays below 2^53 — their float64 products
    are exact and shift-accumulate in int64.
    """
    if k < 0 or bits_a < 1 or bits_b < 1:
        raise ShapeError(f"invalid product K={k}, bits {bits_a}x{bits_b}")
    for dtype, limit in _EXACT_FLOAT_LIMITS:
        if _exact_bound(k, bits_a, bits_b) < limit:
            return ExactMatmulPlan(dtype, ((0, bits_a),), ((0, bits_b),))
    dtype, limit = _EXACT_FLOAT_LIMITS[-1]
    best: tuple[int, int, int] | None = None
    for width_a in range(1, bits_a + 1):
        for width_b in range(1, bits_b + 1):
            if _exact_bound(k, width_a, width_b) >= limit:
                continue
            pairs = -(-bits_a // width_a) * -(-bits_b // width_b)
            if best is None or pairs < best[0]:
                best = (pairs, width_a, width_b)
    if best is None:
        raise ShapeError(f"K={k} too large for exact float64 accumulation")
    return ExactMatmulPlan(
        dtype, _split_bits(bits_a, best[1]), _split_bits(bits_b, best[2])
    )


def recombine_codes(
    packed: PackedBits,
    dtype: np.dtype | type = np.int64,
    planes: tuple[int, int] | None = None,
    vectors: tuple[int, int] | None = None,
) -> np.ndarray:
    """Integer codes recombined from packed bit planes ``[lo, hi)``.

    Returns ``sum_{lo<=p<hi} plane_p << (p - lo)`` on the logical
    ``(logical_vectors, logical_k)`` grid — the rows of ``A`` for a
    column-compressed operand, the columns of ``B`` (``B`` transposed) for
    a row-compressed one — cast to ``dtype``.  ``planes`` defaults to
    every plane, ``vectors`` (a ``[start, stop)`` range of those rows) to
    every logical vector.
    """
    lo, hi = (0, packed.bits) if planes is None else planes
    if not 0 <= lo < hi <= packed.bits:
        raise ShapeError(f"plane range {(lo, hi)} outside [0, {packed.bits})")
    start, stop = (0, packed.logical_vectors) if vectors is None else vectors
    if not 0 <= start <= stop <= packed.logical_vectors:
        raise ShapeError(
            f"vector range {(start, stop)} outside [0, {packed.logical_vectors}]"
        )
    words = np.ascontiguousarray(packed.words[lo:hi, start:stop])
    bits = np.unpackbits(
        words.view(np.uint8), axis=-1, count=packed.logical_k, bitorder="little"
    )
    if hi - lo == 1:
        return bits[0].astype(dtype)
    acc = np.min_scalar_type((1 << (hi - lo)) - 1)
    codes = bits[0].astype(acc)
    shifted = np.empty_like(codes)
    for p in range(1, hi - lo):
        np.left_shift(bits[p], p, out=shifted, dtype=acc)
        codes |= shifted
    return codes.astype(dtype, copy=False)


def bitgemm_recombined(a_packed: PackedBits, b_packed: PackedBits) -> np.ndarray:
    """The exact int64 product as *one* float matmul of recombined codes.

    ``sum_ij 2^(i+j) BMM(A_i, B_j)`` is just ``A @ B``, so instead of
    ``bits_a * bits_b`` plane GEMMs this recombines each operand's codes
    and multiplies them once, in the dtype :func:`exact_matmul_plan`
    derives from ``K`` and the bitwidths (chunk pairs shift-accumulate
    when even float64 cannot hold the product).  ``A``'s codes are
    recombined one cache-sized row block at a time
    (:data:`CODE_BLOCK_BYTES`), and each block is multiplied in row (and,
    when one row alone is too large, column) slices of at most
    :data:`SERIAL_BLAS_MNK`, so the float codes never stream through
    memory and no BLAS call wakes a worker thread.  The host fast path of
    the ``blas`` engine; the bit-serial engines keep the paper's
    decomposed form.
    """
    k = a_packed.logical_k
    plan = exact_matmul_plan(k, a_packed.bits, b_packed.bits)
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.zeros((m, n), np.int64)
    cols = max(1, min(n, SERIAL_BLAS_MNK // max(k, 1)))
    rows = max(1, SERIAL_BLAS_MNK // (max(k, 1) * cols))
    block = rows * max(1, CODE_BLOCK_BYTES // max(rows * k * plan.dtype.itemsize, 1))
    col_slices = [slice(c0, c0 + cols) for c0 in range(0, n, cols)]
    b_chunks = []  # (low bit, [(column slice, B codes of those columns)])
    for lo, hi in plan.chunks_b:
        b = recombine_codes(b_packed, plan.dtype, (lo, hi)).T
        b_chunks.append((lo, [(cs, b[:, cs]) for cs in col_slices]))
    buffer = np.empty((min(block, m), n), plan.dtype)
    for r0 in range(0, m, block):
        r1 = min(m, r0 + block)
        product = buffer[: r1 - r0]
        for a_lo, a_hi in plan.chunks_a:
            a = recombine_codes(a_packed, plan.dtype, (a_lo, a_hi), (r0, r1))
            for b_lo, b_cols in b_chunks:
                for s0 in range(0, r1 - r0, rows):
                    rs = slice(s0, s0 + rows)
                    for cs, b in b_cols:
                        np.matmul(a[rs], b, out=product[rs, cs])
                if plan.matmuls == 1:
                    out[r0:r1] = product
                else:
                    out[r0:r1] += product.astype(np.int64) << (a_lo + b_lo)
    return out


def _resolve_backend(
    engine: Engine,
    a_packed: PackedBits,
    b_packed: PackedBits,
    registry: "BackendRegistry | None" = None,
):
    """Compatibility shim: resolve an ``engine=`` argument to a registered
    :class:`~repro.plan.registry.Backend` (imported lazily — the plan layer
    sits above core)."""
    from ..plan.ir import GemmSpec
    from ..plan.registry import default_registry, resolve_engine_name

    # None check, not truthiness: an empty caller registry (falsy — it
    # defines __len__) must not silently become the default backend set.
    if registry is None:
        registry = default_registry()
    spec = GemmSpec(
        m=a_packed.logical_vectors,
        k=a_packed.logical_k,
        n=b_packed.logical_vectors,
        bits_a=a_packed.bits,
        bits_b=b_packed.bits,
    )
    return registry.get(resolve_engine_name(engine, spec, registry))


def bitgemm(
    a_packed: PackedBits,
    b_packed: PackedBits,
    *,
    engine: Engine = "auto",
    tile_masks: Sequence[np.ndarray] | None = None,
    registry: "BackendRegistry | None" = None,
) -> np.ndarray:
    """Any-bitwidth GEMM of two packed matrices (Algorithm 1).

    Returns the exact int64 product of the underlying integer matrices,
    shape ``(M, N)`` on the *logical* (unpadded) shapes, from the
    registered backend (:mod:`repro.plan.backends` holds the built-ins)
    resolved from ``engine``.  ``tile_masks`` optionally supplies one
    precomputed non-zero-tile census per A plane (e.g. from a serving
    session's tile-mask cache); consumed by backends whose caps declare
    ``consumes_tile_masks`` (the ``sparse`` engine), ignored by the
    others.
    """
    if a_packed.layout != "col":
        raise PackingError("left operand must use column-wise compression")
    if b_packed.layout != "row":
        raise PackingError("right operand must use row-wise compression")
    if a_packed.logical_k != b_packed.logical_k:
        raise ShapeError(
            f"reduction dims differ: A has K={a_packed.logical_k}, "
            f"B has K={b_packed.logical_k}"
        )
    if tile_masks is not None and len(tile_masks) != a_packed.bits:
        raise ShapeError(
            f"tile_masks must have {a_packed.bits} entries (one per A plane), "
            f"got {len(tile_masks)}"
        )
    backend = _resolve_backend(engine, a_packed, b_packed, registry)
    return backend.run(a_packed, b_packed, tile_masks)


def bitgemm_codes(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    bits_a: int,
    bits_b: int,
    *,
    engine: Engine = "auto",
    registry: "BackendRegistry | None" = None,
) -> np.ndarray:
    """Convenience wrapper: decompose, pack, multiply in one call."""
    a_packed = pack_matrix(a_codes, bits_a, layout="col")
    b_packed = pack_matrix(b_codes, bits_b, layout="row")
    return bitgemm(a_packed, b_packed, engine=engine, registry=registry)
