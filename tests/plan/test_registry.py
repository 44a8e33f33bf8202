"""Tests for the backend registry: registration, capability metadata,
pricing, engine-name resolution, and end-to-end custom backends."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm, bitgemm_codes, matmul_int_reference
from repro.core.bitpack import pack_matrix
from repro.errors import ConfigError, ShapeError
from repro.plan import (
    Backend,
    BackendCaps,
    BackendPrice,
    BackendRegistry,
    GemmSpec,
    HostRates,
    PriceContext,
    builtin_backends,
    default_registry,
    register_backend,
    resolve_engine_name,
)


def _reference_backend(name: str = "reference") -> Backend:
    """A custom backend: unpack the codes and multiply in int64."""

    def run(a_packed, b_packed, tile_masks=None):
        return a_packed.to_codes() @ b_packed.to_codes()

    return Backend(name=name, run=run,
                   caps=BackendCaps(summary="int64 oracle"))


class TestRegistry:
    def test_default_registry_holds_builtins_then_extensions(self):
        names = default_registry().names()
        # Built-ins first (registration order breaks price ties in their
        # favor), then the extension backends; ``csr`` appears exactly
        # when scipy is importable.
        assert names[:4] == ("packed", "blas", "sparse", "einsum")
        expected = ["codegen"]
        try:
            import scipy.sparse  # noqa: F401
        except ImportError:
            pass
        else:
            expected.append("csr")
        expected.append("tensorcore8")
        assert names[4:] == tuple(expected)

    def test_get_unknown_raises_with_known_names(self):
        registry = BackendRegistry(builtin_backends())
        with pytest.raises(ConfigError, match="packed"):
            registry.get("cuda")

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = BackendRegistry(builtin_backends())
        clone = _reference_backend("packed")
        with pytest.raises(ConfigError):
            registry.register(clone)
        registry.register(clone, replace=True)
        assert registry.get("packed") is clone

    def test_unregister(self):
        registry = BackendRegistry([_reference_backend()])
        registry.unregister("reference")
        assert "reference" not in registry
        with pytest.raises(ConfigError):
            registry.unregister("reference")

    def test_iteration_and_len(self):
        registry = BackendRegistry(builtin_backends())
        assert len(registry) == 4
        assert [b.name for b in registry] == ["packed", "blas", "sparse", "einsum"]

    def test_backend_name_must_be_string(self):
        with pytest.raises(ConfigError):
            Backend(name="", run=lambda a, b, m=None: None)


class TestCaps:
    def test_supports_filters_bitwidths(self):
        caps = BackendCaps(max_bits_a=1)
        assert caps.supports(GemmSpec(8, 8, 8, 1, 8))
        assert not caps.supports(GemmSpec(8, 8, 8, 2, 8))

    def test_eligible_respects_caps(self):
        registry = BackendRegistry(
            [
                _reference_backend("wide"),
                Backend(
                    name="narrow",
                    run=lambda a, b, m=None: None,
                    caps=BackendCaps(max_bits_a=1),
                ),
            ]
        )
        spec = GemmSpec(8, 8, 8, 4, 4)
        assert [b.name for b in registry.eligible(spec)] == ["wide"]


class TestPricing:
    def _ctx(self, spec, **kwargs):
        return PriceContext(
            spec=spec, flops=1e9, rates=HostRates(), **kwargs
        )

    def test_backend_without_pricer_prices_infinite(self):
        backend = _reference_backend()
        price = backend.price(self._ctx(GemmSpec(8, 8, 8, 1, 1)))
        assert price.seconds == math.inf

    def test_price_all_skips_unpriceable(self):
        registry = BackendRegistry(builtin_backends())
        registry.register(_reference_backend())
        prices = registry.price_all(self._ctx(GemmSpec(64, 64, 64, 2, 2)))
        assert set(prices) == {"packed", "blas", "sparse", "einsum"}

    def test_vetoed_price_is_effectively_infinite(self):
        price = BackendPrice(seconds=1.0, bytes=10, vetoed=True)
        assert price.effective_s == math.inf
        assert BackendPrice(seconds=1.0).effective_s == 1.0


class TestRecombinedPricing:
    """``blas`` prices one matmul of recombined codes, not a plane-pair
    loop."""

    @staticmethod
    def _price(m, k, n, bits_a, bits_b, budget=None):
        spec = GemmSpec(m, k, n, bits_a, bits_b)
        ctx = PriceContext(
            spec=spec,
            flops=2.0 * m * k * n * spec.bits_a * spec.bits_b,
            rates=HostRates(),
            blas_bytes_budget=budget,
        )
        return default_registry().get("blas").price(ctx)

    def test_price_does_not_scale_with_plane_pairs(self):
        # Every bitwidth below the float32 exactness bound costs the same
        # single float32 matmul; plane pairs went 1 -> 64.
        one = self._price(256, 128, 64, 1, 1)
        for bits_a, bits_b in [(1, 8), (4, 4), (8, 8)]:
            assert 128 * ((1 << bits_a) - 1) * ((1 << bits_b) - 1) < 1 << 24
            price = self._price(256, 128, 64, bits_a, bits_b)
            assert price.seconds == pytest.approx(one.seconds)
            assert price.bytes == one.bytes

    def test_float64_costs_twice_the_matmul_not_the_pairs(self):
        r = HostRates()
        m, k, n = 256, 512, 64
        f32 = self._price(m, k, n, 1, 1)
        f64 = self._price(m, k, n, 8, 8)  # 512 * 255^2 >= 2^24
        assert f64.bytes == 2 * f32.bytes
        matmul_s = 2.0 * m * k * n / r.blas_flops
        assert f64.seconds - f32.seconds == pytest.approx(
            matmul_s + (f64.bytes - f32.bytes) / r.unpack_bytes_per_s
        )

    def test_one_bit_price_unchanged(self):
        # The plane-pair formula at one pair: call overhead + FLOPs at the
        # BLAS rate + float32 unpack of both operands.
        r = HostRates()
        m, k, n = 300, 700, 90
        price = self._price(m, k, n, 1, 1)
        plane_bytes = 4 * (m * k + k * n)
        assert price.bytes == plane_bytes
        assert price.seconds == pytest.approx(
            r.blas_pair_overhead_s
            + 2.0 * m * k * n / r.blas_flops
            + plane_bytes / r.unpack_bytes_per_s
        )

    def test_memory_veto_charges_recombined_codes(self):
        # 8x8 bits at K=64 stay float32: the veto sees 4 bytes per code
        # element, not bits_a + bits_b unpacked planes.
        m, k, n = 256, 64, 256
        code_bytes = 4 * k * (m + n)
        assert not self._price(m, k, n, 8, 8, budget=code_bytes).vetoed
        assert self._price(m, k, n, 8, 8, budget=code_bytes - 1).vetoed


class TestResolveEngineName:
    def test_literal_names_validated_against_registry(self):
        spec = GemmSpec(8, 8, 8, 1, 1)
        assert resolve_engine_name("sparse", spec) == "sparse"
        with pytest.raises(ShapeError):
            resolve_engine_name("cuda", spec)

    def test_auto_threshold(self):
        assert resolve_engine_name("auto", GemmSpec(8, 128, 8, 1, 1)) == "packed"
        assert resolve_engine_name("auto", GemmSpec(512, 128, 512, 1, 1)) == "blas"

    def test_selector_return_validated(self):
        spec = GemmSpec(8, 8, 8, 1, 1)
        assert resolve_engine_name(lambda *a: "packed", spec) == "packed"
        with pytest.raises(ShapeError):
            resolve_engine_name(lambda *a: "gpu", spec)


class TestCustomBackendEndToEnd:
    def test_private_registry_through_bitgemm(self, small_codes):
        a, b = small_codes
        registry = BackendRegistry(builtin_backends())
        registry.register(_reference_backend())
        packed_a = pack_matrix(a, 3, layout="col")
        packed_b = pack_matrix(b, 2, layout="row")
        out = bitgemm(packed_a, packed_b, engine="reference", registry=registry)
        np.testing.assert_array_equal(out, matmul_int_reference(a, b))

    def test_registered_default_backend_reachable_by_name(self, small_codes):
        a, b = small_codes
        backend = register_backend(_reference_backend("oracle-e2e"))
        try:
            out = bitgemm_codes(a, b, 3, 2, engine="oracle-e2e")
            np.testing.assert_array_equal(out, matmul_int_reference(a, b))
            # Selector callables may return the custom name too.
            out = bitgemm_codes(a, b, 3, 2, engine=lambda *args: "oracle-e2e")
            np.testing.assert_array_equal(out, matmul_int_reference(a, b))
        finally:
            default_registry().unregister(backend.name)
