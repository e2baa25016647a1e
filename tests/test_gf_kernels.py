"""Differential tests of the field kernels against the naive Field methods.

Every kernel backend must be *bit-identical* to the dispatched
:class:`~repro.gf.base.Field` arithmetic — the encoding, the stored shares
and the query results all depend on it.  The properties below drive the
scalar and vector primitives of :class:`~repro.gf.kernels.PrimeKernel` and
:class:`~repro.gf.kernels.TableKernel` with random inputs and compare them
against both the raw field methods and the :class:`NaiveKernel` reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.base import FieldError
from repro.gf.factory import make_field
from repro.gf.kernels import (
    HAS_NUMPY,
    KERNEL_BACKENDS,
    MAX_NUMPY_PRIME,
    NaiveKernel,
    PrimeKernel,
    TableKernel,
    make_kernel,
)

FIELDS = {
    "F_5": make_field(5),
    "F_29": make_field(29),
    "F_83": make_field(83),
    "F_27": make_field(3, 3),
    "F_16": make_field(2, 4),
}

#: (field name, kernel class) pairs under test; TableKernel must agree for
#: *any* small field, PrimeKernel only exists for prime fields
KERNELS = [(name, TableKernel) for name in sorted(FIELDS)] + [
    (name, PrimeKernel) for name in sorted(FIELDS) if FIELDS[name].degree == 1
]

#: the auto-selected kernel of a prime field up to MAX_NUMPY_PRIME: the
#: vectorized kernel when numpy is importable, direct modular arithmetic
#: without it
AUTO_PRIME_KERNEL = "numpy" if HAS_NUMPY else "prime"

_KERNEL_CACHE = {}


def kernel_for(name, kernel_class):
    key = (name, kernel_class)
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE[key] = kernel_class(FIELDS[name])
    return _KERNEL_CACHE[key]


def elements_of(field):
    return st.integers(min_value=0, max_value=field.order - 1)


def vectors_of(field, min_size=0, max_size=12):
    return st.lists(elements_of(field), min_size=min_size, max_size=max_size)


@pytest.mark.parametrize(("name", "kernel_class"), KERNELS)
class TestScalarAgreement:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_add_sub_neg(self, name, kernel_class, data):
        field = FIELDS[name]
        kernel = kernel_for(name, kernel_class)
        a = data.draw(elements_of(field))
        b = data.draw(elements_of(field))
        assert kernel.add(a, b) == field.add(a, b)
        assert kernel.sub(a, b) == field.sub(a, b)
        assert kernel.neg(a) == field.neg(a)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mul_inv_div_pow(self, name, kernel_class, data):
        field = FIELDS[name]
        kernel = kernel_for(name, kernel_class)
        a = data.draw(elements_of(field))
        b = data.draw(elements_of(field))
        exponent = data.draw(st.integers(min_value=-6, max_value=30))
        assert kernel.mul(a, b) == field.mul(a, b)
        if a != 0:
            assert kernel.inv(a) == field.inv(a)
            assert kernel.pow(a, exponent) == field.pow(a, exponent)
        else:
            assert kernel.pow(0, abs(exponent)) == field.pow(0, abs(exponent))
        if b != 0:
            assert kernel.div(a, b) == field.div(a, b)

    def test_zero_has_no_inverse(self, name, kernel_class):
        kernel = kernel_for(name, kernel_class)
        with pytest.raises(FieldError):
            kernel.inv(0)


@pytest.mark.parametrize(("name", "kernel_class"), KERNELS)
class TestVectorAgreement:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_componentwise_ops(self, name, kernel_class, data):
        field = FIELDS[name]
        kernel = kernel_for(name, kernel_class)
        naive = NaiveKernel(field)
        size = data.draw(st.integers(min_value=0, max_value=10))
        a = data.draw(vectors_of(field, min_size=size, max_size=size))
        b = data.draw(vectors_of(field, min_size=size, max_size=size))
        scalar = data.draw(elements_of(field))
        assert kernel.vec_add(a, b) == naive.vec_add(a, b)
        assert kernel.vec_sub(a, b) == naive.vec_sub(a, b)
        assert kernel.vec_neg(a) == naive.vec_neg(a)
        assert kernel.vec_scale(a, scalar) == naive.vec_scale(a, scalar)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_convolutions(self, name, kernel_class, data):
        field = FIELDS[name]
        kernel = kernel_for(name, kernel_class)
        naive = NaiveKernel(field)
        a = data.draw(vectors_of(field))
        b = data.draw(vectors_of(field))
        assert kernel.convolve(a, b) == naive.convolve(a, b)
        size = data.draw(st.integers(min_value=1, max_value=10))
        ca = data.draw(vectors_of(field, min_size=size, max_size=size))
        cb = data.draw(vectors_of(field, min_size=size, max_size=size))
        assert kernel.cyclic_convolve(ca, cb) == naive.cyclic_convolve(ca, cb)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_evaluation(self, name, kernel_class, data):
        field = FIELDS[name]
        kernel = kernel_for(name, kernel_class)
        naive = NaiveKernel(field)
        coeffs = data.draw(vectors_of(field))
        other = data.draw(vectors_of(field))
        point = data.draw(elements_of(field))
        assert kernel.horner(coeffs, point) == naive.horner(coeffs, point)
        assert kernel.horner_many([coeffs, other, []], point) == naive.horner_many(
            [coeffs, other, []], point
        )
        assert kernel.eval_points(coeffs, range(field.order)) == naive.eval_points(
            coeffs, range(field.order)
        )

    def test_cyclic_convolve_rejects_mismatched_lengths(self, name, kernel_class):
        kernel = kernel_for(name, kernel_class)
        with pytest.raises(FieldError):
            kernel.cyclic_convolve([0, 0], [0, 0, 0])


class TestDenseConvolutionShapes:
    """Shapes the hypothesis strategies rarely produce but the encoder hits."""

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_dense_times_sparse_ring_product(self, name):
        field = FIELDS[name]
        naive = NaiveKernel(field)
        n = field.order - 1
        dense = [(7 * i + 3) % field.order for i in range(n)]
        sparse = [0] * n
        sparse[0] = field.neg(field.one)
        if n > 1:
            sparse[1] = field.one
        for kernel in (TableKernel(field), make_kernel(field)):
            # unwrap: the auto-selected numpy kernel returns int64 arrays
            assert kernel.unwrap(kernel.cyclic_convolve(sparse, dense)) == (
                naive.cyclic_convolve(sparse, dense)
            )
            assert kernel.unwrap(kernel.cyclic_convolve(dense, dense)) == (
                naive.cyclic_convolve(dense, dense)
            )


class TestKernelSelection:
    def test_prime_field_defaults_to_numpy_kernel_when_available(self):
        assert make_field(83).kernel.name == AUTO_PRIME_KERNEL

    def test_extension_field_defaults_to_table_kernel(self):
        # small extension fields stay on the pure-Python tables even with
        # numpy installed: they beat the array kernel at these orders
        assert make_field(3, 3).kernel.name == "table"

    def test_kernel_is_cached_and_shared(self):
        field = make_field(83)
        assert field.kernel is field.kernel
        # make_field caches the field, so every consumer shares one kernel.
        assert make_field(83).kernel is field.kernel

    def test_backend_switch_replaces_the_cached_kernel(self):
        from repro.gf.prime import PrimeField

        field = PrimeField(83)  # bypass the factory cache
        default = field.kernel
        naive = field.set_kernel_backend("naive")
        assert field.kernel is naive and naive.name == "naive"
        assert field.kernel is not default
        field.set_kernel_backend("prime")
        assert field.kernel.name == "prime"

    def test_prime_kernel_rejects_extension_fields(self):
        with pytest.raises(FieldError):
            PrimeKernel(make_field(2, 4))

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(FieldError):
            make_kernel(make_field(5), "fft")
        assert sorted(KERNEL_BACKENDS) == ["naive", "numpy", "prime", "table"]

    def test_default_backend_switch_invalidates_cached_kernels(self):
        # Switching the process-wide default must atomically rebuild every
        # field's cached kernel — including fields whose kernel was already
        # resolved — and produce bit-identical arithmetic under each backend.
        from repro.gf.prime import PrimeField
        from repro.gf.kernels import HAS_NUMPY, default_backend, set_default_backend

        field = PrimeField(83)
        assert field.kernel.name == AUTO_PRIME_KERNEL
        backends = ["prime", "table", "naive"] + (["numpy"] if HAS_NUMPY else [])
        coeffs_a = [(i * 37 + 11) % 83 for i in range(82)]
        coeffs_b = [(i * 53 + 29) % 83 for i in range(82)]
        reference = None
        try:
            for backend in backends:
                set_default_backend(backend)
                assert default_backend() == backend
                kernel = field.kernel
                assert kernel.name == backend
                stream = (
                    [int(v) for v in kernel.cyclic_convolve(coeffs_a, coeffs_b)],
                    kernel.horner_many([coeffs_a, coeffs_b], 7),
                    [int(v) for v in kernel.cyclic_mul_linear(5, coeffs_a)],
                )
                if reference is None:
                    reference = stream
                else:
                    assert stream == reference
        finally:
            set_default_backend(None)
        assert field.kernel.name == AUTO_PRIME_KERNEL

    def test_per_field_override_survives_generation_bumps(self):
        from repro.gf.prime import PrimeField
        from repro.gf.kernels import set_default_backend

        field = PrimeField(83)
        field.set_kernel_backend("naive")
        try:
            set_default_backend("table")
            assert field.kernel.name == "naive"  # sticky per-field override
            field.set_kernel_backend(None)  # clear: default applies again
            assert field.kernel.name == "table"
        finally:
            set_default_backend(None)
        assert field.kernel.name == AUTO_PRIME_KERNEL

    def test_large_extension_fields_fall_back_to_naive(self):
        # The q x q addition table is only viable for small fields; a big
        # extension field must not hang or exhaust memory on .kernel access.
        field = make_field(2, 10)  # q = 1024 > MAX_TABLE_ORDER
        assert field.kernel.name == "naive"
        # Large *prime* fields stay on table-free kernels: numpy while a
        # Horner step fits int64, the big-integer prime kernel beyond that.
        assert make_field(7919).kernel.name == AUTO_PRIME_KERNEL
        assert make_field(2147483659).order > MAX_NUMPY_PRIME
        assert make_field(2147483659).kernel.name == "prime"


class TestPRGShareMemo:
    def test_memo_returns_identical_streams(self):
        from repro.prg.generator import KeyedPRG

        prg = KeyedPRG(b"memo-test-seed", make_field(29))
        first = prg.elements(7, 28)
        again = prg.elements(7, 28)
        assert first == again
        info = prg.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_memo_is_bounded(self):
        from repro.prg.generator import KeyedPRG

        prg = KeyedPRG(b"memo-test-seed", make_field(29), memo_size=4)
        for pre in range(10):
            prg.elements(pre, 28)
        info = prg.cache_info()
        assert info["size"] == 4 and info["capacity"] == 4
        # Entry 0 was evicted; regenerating it is a miss with the same bits.
        baseline = KeyedPRG(b"memo-test-seed", make_field(29), memo_size=0)
        assert prg.elements(0, 28) == baseline.elements(0, 28)

    def test_zero_capacity_disables_the_memo(self):
        from repro.prg.generator import KeyedPRG

        prg = KeyedPRG(b"memo-test-seed", make_field(29), memo_size=0)
        prg.elements(1, 28)
        prg.elements(1, 28)
        assert prg.cache_info()["size"] == 0
        assert prg.cache_info()["hits"] == 0


class TestRingHashInvariant:
    def test_equal_polynomials_from_distinct_rings_hash_alike(self):
        from repro.poly.ring import QuotientRing

        ring_a = QuotientRing(make_field(29))
        ring_b = QuotientRing(make_field(29))
        assert ring_a is not ring_b and ring_a == ring_b
        poly_a = ring_a.from_coeffs([3, 1, 4, 1, 5])
        poly_b = ring_b.from_coeffs([3, 1, 4, 1, 5])
        assert poly_a == poly_b
        assert hash(poly_a) == hash(poly_b)
        assert len({poly_a, poly_b}) == 1
        assert {poly_a: "x"}[poly_b] == "x"
