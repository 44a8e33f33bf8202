"""The built-in host backends (``packed``, ``blas``, ``sparse``, ``einsum``).

Each :class:`~repro.plan.registry.Backend` couples an implementation
(built on the low-level kernels in :mod:`repro.core.bitgemm`) with its
capability metadata and the cost pricer the serving dispatcher consults.
Every implementation returns the reduced, exact ``(M, N)`` int64 product:

* the host fast path — ``blas`` (and ``tensorcore8``, the same arithmetic
  under the modeled device price) — recombines each operand's codes from
  its planes and multiplies them once, in the dtype the exactness bound
  ``K (2^bits_a - 1)(2^bits_b - 1)`` allows;
* the bit-serial engines — ``packed`` and ``sparse`` — keep the paper's
  §3/§4 structure, shift-accumulating each plane product into the output
  inside their own loops (no ``bits_a x bits_b`` stack is allocated);
* ``einsum`` and ``csr`` contract recombined codes in exact int64.

Pricers consume the calibrated :class:`~repro.plan.rates.HostRates`, so
per-machine recalibration is a value, not a subclass.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.bitgemm import (
    ExactMatmulPlan,
    _sparse_shift_products,
    bitgemm_recombined,
    bmm_plane_packed,
    exact_matmul_plan,
    recombine_codes,
)
from ..core.bitpack import PackedBits, tile_nonzero_mask
from ..errors import ShapeError
from .registry import Backend, BackendCaps, BackendPrice, PriceContext

__all__ = ["builtin_backends", "extension_backends"]


def _scipy_sparse():
    """The ``scipy.sparse`` module, or ``None`` when scipy is absent.

    The CSR backend is import-guarded: without scipy it is simply not
    registered, so the registry (and every digest/exchange built on it)
    degrades cleanly instead of raising at dispatch time.
    """
    try:
        from scipy import sparse
    except Exception:  # pragma: no cover - scipy present in the pinned env
        return None
    return sparse


# --------------------------------------------------------------------- #
# GEMM implementations
# --------------------------------------------------------------------- #
def _run_packed(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Word-at-a-time AND+popcount on the packed words, each plane pair
    shift-accumulated at bit position ``i + j`` (ignores masks)."""
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(a_packed.bits):
        a_plane = a_packed.plane(i)[:m]
        for j in range(b_packed.bits):
            out += bmm_plane_packed(a_plane, b_packed.plane(j)[:n]) << (i + j)
    return out


def _run_blas(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Recombine both operands' codes and multiply once with BLAS, in the
    narrowest exact float dtype (:func:`repro.core.bitgemm.bitgemm_recombined`)."""
    return bitgemm_recombined(a_packed, b_packed)


def _run_sparse(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Zero-tile-skipping AND+popcount over only the non-zero 8x128 tiles
    of each A plane; bit-identical to ``packed`` (skipped tiles contribute
    nothing to any dot product)."""
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.zeros((m, n), dtype=np.int64)
    grid = (a_packed.padded_vectors // 8, a_packed.k_words // 4)
    for i in range(a_packed.bits):
        # One census per A plane, consumed by every B plane in a single
        # gathered pass (the host analogue of the §4.4 cross-tile schedule).
        mask = (
            np.asarray(tile_masks[i])
            if tile_masks is not None
            else tile_nonzero_mask(a_packed.plane(i))
        )
        if mask.shape != grid:
            raise ShapeError(
                f"tile mask shape {mask.shape} does not match the "
                f"{grid} tile grid of the plane"
            )
        full = _sparse_shift_products(a_packed.plane(i), b_packed.words, mask)
        out += full[:m, :n] << i
    return out


#: Left-operand bitwidth ceiling of the ``einsum`` backend (the low
#: bitwidths the paper sweeps).
EINSUM_MAX_BITS = 8


def _run_einsum(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """One int64 ``np.einsum`` contraction over the recombined codes.

    Exact at any supported bitwidth (int64 arithmetic wraps exactly as
    the int64 oracle does) and BLAS-free: the engine the tuner measures
    against the float paths.
    """
    a = recombine_codes(a_packed, np.int64)  # (M, K)
    b = recombine_codes(b_packed, np.int64)  # (N, K)
    return np.einsum("mk,nk->mn", a, b, optimize=True)


#: Tile-census fraction below which the CSR backend considers itself a
#: candidate: compressed-row storage only pays when the adjacency is far
#: sparser than the tile-skip engines' sweet spot (row compression keeps
#: per-*element* work, tile skipping per-*tile* work).
CSR_MAX_FRACTION = 0.05
#: Modeled CSR multiply throughput (nnz-driven multiply-adds per second)
#: and per-A-plane conversion overhead.
CSR_NNZ_PER_S = 2.0e8
CSR_PAIR_OVERHEAD_S = 400e-6


def _run_csr(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Compressed-sparse-row aggregation for extreme-sparsity operands.

    Each A plane becomes a scipy CSR matrix multiplied against B's
    recombined int64 codes and shift-accumulated at its bit position —
    exact int64 arithmetic throughout, so bit-identical to the dense
    engines.  Only reachable when scipy is installed (the backend is not
    registered otherwise).
    """
    sparse = _scipy_sparse()
    if sparse is None:  # pragma: no cover - registration is import-guarded
        raise ShapeError("csr backend requires scipy, which is not installed")
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.zeros((m, n), dtype=np.int64)
    b_codes = recombine_codes(b_packed, np.int64).T  # (K, N)
    for i in range(a_packed.bits):
        csr = sparse.csr_matrix(recombine_codes(a_packed, np.int64, (i, i + 1)))
        out += np.asarray(csr @ b_codes, dtype=np.int64).reshape(m, n) << i
    return out


#: Bitwidth ceiling of the modeled Tensor-Core int8 backend: mirrors the
#: cuBLAS baseline's int8 operand contract from the paper's comparison.
TENSORCORE8_MAX_BITS = 8


def _run_tensorcore8(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Host stand-in for the modeled int8 Tensor-Core path.

    Numerically this is the exact ``blas`` recombined product (the model
    backend must stay bit-identical so differential sweeps cover it); its
    *price* is what differs — the cuBLAS-like device time model — which
    is how the tuner prices the paper's hardware comparison point.
    """
    return _run_blas(a_packed, b_packed, tile_masks)


# --------------------------------------------------------------------- #
# Pricers (host seconds from HostRates; see serving.dispatch for context)
# --------------------------------------------------------------------- #
def _price_packed(ctx: PriceContext) -> BackendPrice:
    r = ctx.rates
    return BackendPrice(
        seconds=ctx.pairs * r.packed_pair_overhead_s + ctx.flops / r.packed_flops
    )


def _recombined_bytes(ctx: PriceContext) -> tuple[int, ExactMatmulPlan]:
    """Working set of the recombined-code engines: the code matrices the
    exact matmul plan materializes, at its chosen dtype."""
    spec = ctx.spec
    plan = exact_matmul_plan(spec.k, spec.bits_a, spec.bits_b)
    return plan.code_bytes(spec.m, spec.k, spec.n), plan


def _over_budget(ctx: PriceContext, nbytes: int) -> bool:
    return ctx.blas_bytes_budget is not None and nbytes > ctx.blas_bytes_budget


def _price_blas(ctx: PriceContext) -> BackendPrice:
    # One matmul of the recombined codes (one per chunk pair when float64
    # cannot hold the product): a single plane pair's FLOPs, at half the
    # float32 rate once the exactness bound forces float64 — the price no
    # longer scales with bits_a * bits_b.
    r = ctx.rates
    code_bytes, plan = _recombined_bytes(ctx)
    matmul_flops = ctx.flops / ctx.pairs * plan.dtype.itemsize / 4
    seconds = (
        plan.matmuls * (r.blas_pair_overhead_s + matmul_flops / r.blas_flops)
        + code_bytes / r.unpack_bytes_per_s
    )
    return BackendPrice(
        seconds=seconds, bytes=code_bytes, vetoed=_over_budget(ctx, code_bytes)
    )


def _price_sparse(ctx: PriceContext) -> BackendPrice:
    # Only a 1-bit left operand (the adjacency) has a tile census, and only
    # an observed census makes the price a measurement rather than a guess.
    fraction = ctx.tile_fraction
    if ctx.spec.bits_a != 1 or fraction is None:
        return BackendPrice(seconds=math.inf)
    r = ctx.rates
    groups = min(
        max(ctx.spec.m // 8, 1), math.ceil(1.0 / max(fraction, 1e-9))
    )
    seconds = (
        ctx.pairs * r.packed_pair_overhead_s
        + ctx.flops * fraction / r.packed_flops
        + groups * r.sparse_group_overhead_s
    )
    return BackendPrice(seconds=seconds, tile_fraction=fraction)


def _price_einsum(ctx: PriceContext) -> BackendPrice:
    # One int64 contraction of the recombined codes: 8 bytes per code
    # element (twice blas's float32 footprint), charged against the same
    # unpack throughput and the same memory budget — a measured-fast
    # einsum must not smuggle an allocation past the veto that would have
    # stopped blas at half the size.
    r, spec = ctx.rates, ctx.spec
    code_bytes = 8 * spec.k * (spec.m + spec.n)
    seconds = (
        r.einsum_call_overhead_s
        + ctx.flops / ctx.pairs / r.einsum_flops
        + code_bytes / r.unpack_bytes_per_s
    )
    return BackendPrice(
        seconds=seconds, bytes=code_bytes, vetoed=_over_budget(ctx, code_bytes)
    )


def _price_csr(ctx: PriceContext) -> BackendPrice:
    # Same observability gate as ``sparse`` — only a censused 1-bit left
    # operand — plus the extreme-sparsity cut: CSR is priced out entirely
    # unless the observed tile fraction is below CSR_MAX_FRACTION.
    fraction = ctx.tile_fraction
    if ctx.spec.bits_a != 1 or fraction is None or fraction > CSR_MAX_FRACTION:
        return BackendPrice(seconds=math.inf)
    spec = ctx.spec
    nnz = max(fraction * spec.m * spec.k, 1.0)
    seconds = ctx.pairs * CSR_PAIR_OVERHEAD_S + nnz * spec.bits_b / CSR_NNZ_PER_S
    return BackendPrice(seconds=seconds, tile_fraction=fraction)


def _price_tensorcore8(ctx: PriceContext) -> BackendPrice:
    # Always vetoed: the price is the *modeled device* seconds of the
    # paper's cuBLAS int8 comparison point, not a host cost — the tuner
    # and dashboards read it, but the dispatcher must never route a host
    # execution on it.
    from ..baselines.cublas_like import cublas_int8_gemm_time

    spec = ctx.spec
    code_bytes, _ = _recombined_bytes(ctx)
    if min(spec.m, spec.k, spec.n) < 1:
        return BackendPrice(seconds=math.inf, bytes=code_bytes, vetoed=True)
    breakdown = cublas_int8_gemm_time(spec.m, spec.k, spec.n)
    return BackendPrice(seconds=breakdown.total_s, bytes=code_bytes, vetoed=True)


def builtin_backends() -> tuple[Backend, Backend, Backend, Backend]:
    """Fresh instances of the four built-in backends, registration order
    ``packed``, ``blas``, ``sparse``, ``einsum`` (ties in pricing resolve
    to the first)."""
    return (
        Backend(
            name="packed",
            run=_run_packed,
            caps=BackendCaps(
                summary="word-at-a-time popcount(a & b) on the uint32 storage"
            ),
            pricer=_price_packed,
        ),
        Backend(
            name="blas",
            run=_run_blas,
            caps=BackendCaps(
                summary="recombine codes, one exact float BLAS matmul"
            ),
            pricer=_price_blas,
        ),
        Backend(
            name="sparse",
            run=_run_sparse,
            caps=BackendCaps(
                consumes_tile_masks=True,
                summary="zero-tile-skipping popcount over non-zero 8x128 tiles",
            ),
            pricer=_price_sparse,
        ),
        Backend(
            name="einsum",
            run=_run_einsum,
            caps=BackendCaps(
                max_bits_a=EINSUM_MAX_BITS,
                max_bits_b=EINSUM_MAX_BITS,
                summary="int64 einsum over recombined codes "
                "(low bitwidths)",
            ),
            pricer=_price_einsum,
        ),
    )


def extension_backends() -> tuple[Backend, ...]:
    """Fresh instances of the extension backends, registration order
    ``codegen``, ``csr`` (scipy only), ``tensorcore8``.

    These register after :func:`builtin_backends` in the default
    registry, so on analytic price ties every built-in engine still wins
    — extensions are routed only when their price (or a tuned
    measurement) strictly beats the incumbents.
    """
    from ..codegen import codegen_backend

    backends: list[Backend] = [codegen_backend()]
    if _scipy_sparse() is not None:
        backends.append(
            Backend(
                name="csr",
                run=_run_csr,
                caps=BackendCaps(
                    max_bits_a=1,
                    consumes_tile_masks=False,
                    summary="scipy CSR aggregation for extreme-sparsity "
                    "1-bit operands",
                ),
                pricer=_price_csr,
            )
        )
    backends.append(
        Backend(
            name="tensorcore8",
            run=_run_tensorcore8,
            caps=BackendCaps(
                max_bits_a=TENSORCORE8_MAX_BITS,
                max_bits_b=TENSORCORE8_MAX_BITS,
                summary="modeled cuBLAS int8 Tensor-Core comparison point "
                "(priced, never host-routed)",
            ),
            pricer=_price_tensorcore8,
        )
    )
    return tuple(backends)
