"""The reduced-product GEMM contract: every backend returns exact A @ B.

``Backend.run`` hands back the reduced ``(M, N)`` int64 product — the
bit-serial engines shift-accumulate plane products in their own loops,
the BLAS fast path multiplies recombined codes once in the narrowest
exact float dtype.  Every registered backend is checked bit-for-bit
against ``matmul_int_reference`` across the bitwidth grid, on both sides
of the float32 exactness bound, through a chunked (beyond float64)
product, and on empty and padding-hostile shapes.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.bitgemm import (
    SERIAL_BLAS_MNK,
    bitgemm_recombined,
    exact_matmul_plan,
    matmul_int_reference,
    recombine_codes,
)
from repro.core.bitpack import pack_matrix
from repro.errors import ShapeError
from repro.plan import GemmSpec, default_registry

# The module, not the ``bitgemm`` function ``repro.core`` re-exports.
gemm_module = importlib.import_module("repro.core.bitgemm")


def _run_all(a, b, bits_a, bits_b, context=""):
    """Run every caps-eligible registered backend; assert each is exact."""
    pa = pack_matrix(a, bits_a, layout="col")
    pb = pack_matrix(b, bits_b, layout="row")
    ref = matmul_int_reference(a, b)
    spec = GemmSpec(a.shape[0], a.shape[1], b.shape[1], bits_a, bits_b)
    ran = []
    for backend in default_registry().eligible(spec):
        got = backend.run(pa, pb, None)
        assert got.dtype == np.int64, backend.name
        assert got.shape == ref.shape, backend.name
        np.testing.assert_array_equal(
            got, ref, err_msg=f"{backend.name} bits={bits_a}x{bits_b} {context}"
        )
        ran.append(backend.name)
    return ran


class TestEveryBackendIsExact:
    @pytest.mark.parametrize("bits_a", range(1, 9))
    @pytest.mark.parametrize("bits_b", range(1, 9))
    def test_bitwidth_grid(self, bits_a, bits_b):
        rng = np.random.default_rng(bits_a * 16 + bits_b)
        a = rng.integers(0, 1 << bits_a, (13, 150), dtype=np.int64)
        b = rng.integers(0, 1 << bits_b, (150, 21), dtype=np.int64)
        ran = _run_all(a, b, bits_a, bits_b)
        assert {"packed", "blas", "sparse", "codegen"} <= set(ran)

    @pytest.mark.parametrize("k", [257, 258, 259])
    def test_float32_bound(self, k):
        # 8x8 bits: K * 255 * 255 < 2^24 holds through K = 258 and fails
        # at K = 259.  All-max codes put every output exactly on the bound.
        plan = exact_matmul_plan(k, 8, 8)
        expected = np.float32 if k * 255 * 255 < 1 << 24 else np.float64
        assert plan.dtype == np.dtype(expected)
        assert plan.matmuls == 1
        a = np.full((9, k), 255, dtype=np.int64)
        b = np.full((k, 7), 255, dtype=np.int64)
        _run_all(a, b, 8, 8, f"K={k} all-max")
        rng = np.random.default_rng(k)
        a = rng.integers(0, 256, (9, k), dtype=np.int64)
        b = rng.integers(0, 256, (k, 7), dtype=np.int64)
        _run_all(a, b, 8, 8, f"K={k} random")

    def test_chunked_product(self):
        # 32 x 16-bit codes at K = 64 exceed 2^53 (so float64 alone is
        # inexact) while the exact product still fits int64.
        k = 64
        plan = exact_matmul_plan(k, 32, 16)
        assert plan.matmuls > 1
        a = np.full((10, k), (1 << 32) - 1, dtype=np.int64)
        b = np.full((k, 9), (1 << 16) - 1, dtype=np.int64)
        a[::3] = np.random.default_rng(1).integers(0, 1 << 32, (4, k))
        ran = _run_all(a, b, 32, 16, "chunked")
        assert "blas" in ran

    @pytest.mark.parametrize(
        "shape", [(0, 96, 8), (16, 300, 0), (0, 5, 0)], ids=str
    )
    def test_empty_outputs(self, shape):
        m, k, n = shape
        a = np.ones((m, k), dtype=np.int64)
        b = np.ones((k, n), dtype=np.int64) * 3
        _run_all(a, b, 1, 2, f"shape={shape}")

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (9, 129, 3), (130, 257, 17)], ids=str
    )
    def test_off_grid_shapes(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(m + k + n)
        a = rng.integers(0, 8, (m, k), dtype=np.int64)
        b = rng.integers(0, 16, (k, n), dtype=np.int64)
        _run_all(a, b, 3, 4, f"shape={shape}")


class _MatmulSpy(np.ndarray):
    """Recombined codes that record the ``(m, k, n)`` of every matmul."""

    calls: list[tuple[int, int, int]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(np.asarray(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        if ufunc is np.matmul:
            (m, k), n = inputs[0].shape, inputs[1].shape[1]
            _MatmulSpy.calls.append((m, k, n))
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestSerialBlasBlocking:
    """The recombined product never issues a BLAS call above the serial
    cap, and blocking never changes a bit."""

    @pytest.fixture
    def spy(self, monkeypatch):
        recombine = gemm_module.recombine_codes
        monkeypatch.setattr(
            gemm_module,
            "recombine_codes",
            lambda *args: recombine(*args).view(_MatmulSpy),
        )
        _MatmulSpy.calls = []
        return _MatmulSpy.calls

    @pytest.mark.parametrize(
        "shape, bits",
        [
            ((300, 2048, 16), (1, 4)),  # row blocks only
            ((5, 4096, 200), (1, 1)),  # one row exceeds the cap: column blocks
            ((40, 64, 9), (32, 16)),  # chunk pairs, each blocked
        ],
        ids=str,
    )
    def test_every_call_under_the_cap(self, spy, shape, bits):
        m, k, n = shape
        rng = np.random.default_rng(m * k + n)
        a = rng.integers(0, 1 << bits[0], (m, k), dtype=np.int64)
        b = rng.integers(0, 1 << bits[1], (k, n), dtype=np.int64)
        got = bitgemm_recombined(
            pack_matrix(a, bits[0], layout="col"),
            pack_matrix(b, bits[1], layout="row"),
        )
        np.testing.assert_array_equal(got, matmul_int_reference(a, b))
        assert spy and max(mm * kk * nn for mm, kk, nn in spy) <= SERIAL_BLAS_MNK
        if m * k * n > SERIAL_BLAS_MNK:
            assert len(spy) > exact_matmul_plan(k, *bits).matmuls

    @pytest.mark.parametrize("block_bytes", [1, 3000, 1 << 18])
    @pytest.mark.parametrize("cap", [1, 7, 100, 5000])
    @pytest.mark.parametrize(
        "shape", [(23, 131, 11), (1, 300, 40), (17, 0, 5), (0, 9, 4)], ids=str
    )
    def test_ragged_blocks_are_exact(self, monkeypatch, block_bytes, cap, shape):
        monkeypatch.setattr(gemm_module, "SERIAL_BLAS_MNK", cap)
        monkeypatch.setattr(gemm_module, "CODE_BLOCK_BYTES", block_bytes)
        m, k, n = shape
        rng = np.random.default_rng(cap + m + k + n)
        a = rng.integers(0, 8, (m, k), dtype=np.int64)
        b = rng.integers(0, 4, (k, n), dtype=np.int64)
        got = bitgemm_recombined(
            pack_matrix(a, 3, layout="col"), pack_matrix(b, 2, layout="row")
        )
        assert got.shape == (m, n) and got.dtype == np.int64
        np.testing.assert_array_equal(got, matmul_int_reference(a, b))


class TestExactMatmulPlan:
    @pytest.mark.parametrize(
        "k,bits_a,bits_b", [(64, 32, 16), (1 << 20, 32, 32), (4096, 24, 24)]
    )
    def test_chunks_cover_bits_within_bound(self, k, bits_a, bits_b):
        plan = exact_matmul_plan(k, bits_a, bits_b)
        for chunks, bits in ((plan.chunks_a, bits_a), (plan.chunks_b, bits_b)):
            assert chunks[0][0] == 0 and chunks[-1][1] == bits
            assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        widest_a = max(hi - lo for lo, hi in plan.chunks_a)
        widest_b = max(hi - lo for lo, hi in plan.chunks_b)
        assert k * ((1 << widest_a) - 1) * ((1 << widest_b) - 1) < 1 << 53

    def test_fewest_chunk_pairs(self):
        # No split with fewer chunk pairs keeps every pair under 2^53.
        k, bits_a, bits_b = 64, 32, 16
        plan = exact_matmul_plan(k, bits_a, bits_b)
        for wa in range(1, bits_a + 1):
            for wb in range(1, bits_b + 1):
                if k * ((1 << wa) - 1) * ((1 << wb) - 1) < 1 << 53:
                    pairs = -(-bits_a // wa) * -(-bits_b // wb)
                    assert pairs >= plan.matmuls

    def test_one_bit_products_stay_float32(self):
        plan = exact_matmul_plan(1 << 20, 1, 1)
        assert plan.dtype == np.dtype(np.float32) and plan.matmuls == 1

    def test_rejects_invalid(self):
        with pytest.raises(ShapeError):
            exact_matmul_plan(-1, 1, 1)


class TestRecombineCodes:
    def test_roundtrip_both_layouts(self, rng):
        a = rng.integers(0, 1 << 11, (21, 140), dtype=np.int64)
        pa = pack_matrix(a, 11, layout="col")
        pb = pack_matrix(a, 11, layout="row")
        np.testing.assert_array_equal(recombine_codes(pa), a)
        np.testing.assert_array_equal(recombine_codes(pb), a.T)

    def test_plane_range(self, rng):
        a = rng.integers(0, 1 << 9, (8, 40), dtype=np.int64)
        pa = pack_matrix(a, 9, layout="col")
        np.testing.assert_array_equal(
            recombine_codes(pa, np.int64, (3, 7)), (a >> 3) & 0xF
        )
        with pytest.raises(ShapeError):
            recombine_codes(pa, np.int64, (5, 10))

    def test_vector_range(self, rng):
        a = rng.integers(0, 1 << 5, (13, 40), dtype=np.int64)
        pa = pack_matrix(a, 5, layout="col")
        np.testing.assert_array_equal(
            recombine_codes(pa, np.int64, (1, 4), (2, 11)), (a[2:11] >> 1) & 0x7
        )
        assert recombine_codes(pa, np.float32, vectors=(6, 6)).shape == (0, 40)
        for bad in [(5, 14), (7, 6), (-1, 3)]:
            with pytest.raises(ShapeError):
                recombine_codes(pa, np.int64, vectors=bad)

    def test_recombined_product_matches_plane_sum(self, rng):
        a = rng.integers(0, 1 << 5, (12, 200), dtype=np.int64)
        b = rng.integers(0, 1 << 3, (200, 6), dtype=np.int64)
        pa = pack_matrix(a, 5, layout="col")
        pb = pack_matrix(b, 3, layout="row")
        planes_a, planes_b = pa.to_planes(), pb.to_planes()
        plane_sum = sum(
            (planes_a[i].astype(np.int64) @ planes_b[j]) << (i + j)
            for i in range(5)
            for j in range(3)
        )
        np.testing.assert_array_equal(bitgemm_recombined(pa, pb), plane_sum)
