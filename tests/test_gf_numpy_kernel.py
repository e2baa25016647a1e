"""Edge cases of the vectorized numpy kernel backend.

The generic differential properties live in ``test_gf_kernels.py``; this
module targets the hazards specific to the array-resident backend:

* int64 overflow guards — the chunked ``np.convolve`` path near ``p**2``,
* degenerate batch shapes (empty, length 1),
* the fallback matrix (huge primes, big extension fields, numpy absent),
* numpy scalar types never leaking into rows, the codec or the schema,
* the vectorized PRG block path, and
* an end-to-end encode/query run that must be bit-identical to the
  pure-Python kernels.

Every test that needs a live numpy skips cleanly when the optional
``repro[fast]`` extra is not installed — the suite must pass either way.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import kernels
from repro.gf.base import FieldError
from repro.gf.factory import make_field
from repro.gf.kernels import (
    HAS_NUMPY,
    MAX_NUMPY_PRIME,
    MAX_TABLE_ORDER,
    KernelUnavailableError,
    NaiveKernel,
    PrimeKernel,
    make_kernel,
    set_default_backend,
)
from repro.gf.prime import PrimeField

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


# ----------------------------------------------------------------------
# Overflow guards
# ----------------------------------------------------------------------


@needs_numpy
class TestOverflowGuards:
    def test_chunked_convolve_matches_prime_kernel_at_max_prime(self):
        # p = 2**31 - 1 makes (p-1)**2 ≈ 2**62, so at most 2 partial
        # products fit in an int64 accumulator: the chunked overlap-add
        # path runs for real instead of the single np.convolve call.
        field = PrimeField(MAX_NUMPY_PRIME)
        numpy_kernel = kernels.NumpyPrimeKernel(field)
        assert numpy_kernel._chunk == 2
        reference = PrimeKernel(field)
        a = [(MAX_NUMPY_PRIME - 1 - 7 * i) % MAX_NUMPY_PRIME for i in range(23)]
        b = [(MAX_NUMPY_PRIME - 1 - 11 * i) % MAX_NUMPY_PRIME for i in range(17)]
        assert [int(v) for v in numpy_kernel.convolve(a, b)] == reference.convolve(a, b)
        square = a[:17]
        assert [int(v) for v in numpy_kernel.cyclic_convolve(square, b)] == (
            reference.cyclic_convolve(square, b)
        )

    def test_horner_at_max_prime_stays_exact(self):
        field = PrimeField(MAX_NUMPY_PRIME)
        numpy_kernel = kernels.NumpyPrimeKernel(field)
        reference = PrimeKernel(field)
        coeffs = [MAX_NUMPY_PRIME - 1 - i for i in range(40)]
        point = MAX_NUMPY_PRIME - 2
        assert numpy_kernel.horner(coeffs, point) == reference.horner(coeffs, point)
        assert numpy_kernel.horner_many([coeffs, coeffs[:3]], point) == (
            reference.horner_many([coeffs, coeffs[:3]], point)
        )

    def test_primes_just_above_the_limit_are_rejected(self):
        # 2**31 + 11 is prime; the numpy kernel must refuse it (the Horner
        # step could exceed int64) while the factory silently falls back.
        field = PrimeField(2**31 + 11)
        with pytest.raises(FieldError):
            kernels.NumpyPrimeKernel(field)
        assert kernels.make_numpy_kernel(field).name == "prime"


#: primes whose int64 bound ``width * (p-1)^2 < 2^63`` falls at a small width
_BOUNDARY_PRIMES = (MAX_NUMPY_PRIME, 2**30 - 35, 2**29 - 3, 2**28 - 57)
_BOUNDARY_FIELDS = {}


def _boundary_width(p):
    """The narrowest row whose dot product could overflow int64."""
    return -(-(2**63) // (p - 1) ** 2)


@needs_numpy
class TestHornerMatVec:
    """``horner_many`` is one mat-vec below the int64 bound and the column
    sweep at and above it; both must equal the big-int prime kernel."""

    @given(
        data=st.data(),
        p=st.sampled_from(_BOUNDARY_PRIMES),
        offset=st.sampled_from((-1, 0, 1)),
        rows=st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_prime_kernel_at_the_overflow_boundary(self, data, p, offset, rows):
        width = _boundary_width(p) + offset
        assert (width * (p - 1) ** 2 < 2**63) == (offset < 0)
        field = _BOUNDARY_FIELDS.setdefault(p, PrimeField(p))
        # biased towards p - 1, where the dot products are largest
        coefficient = st.one_of(st.just(p - 1), st.integers(0, p - 1))
        row = st.lists(coefficient, min_size=width, max_size=width)
        matrix = data.draw(st.lists(row, min_size=rows, max_size=rows))
        point = data.draw(st.integers(1, p - 1))
        expected = PrimeKernel(field).horner_many(matrix, point)
        assert kernels.NumpyPrimeKernel(field).horner_many(matrix, point) == expected

    @pytest.mark.parametrize("p", _BOUNDARY_PRIMES)
    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_largest_coefficients(self, p, offset):
        field = _BOUNDARY_FIELDS.setdefault(p, PrimeField(p))
        matrix = [[p - 1] * (_boundary_width(p) + offset)] * 2
        for point in (2, p // 2, p - 2, p - 1):
            expected = PrimeKernel(field).horner_many(matrix, point)
            assert kernels.NumpyPrimeKernel(field).horner_many(matrix, point) == expected

    def test_an_overflowing_dot_product_is_still_exact(self):
        # Four coefficients of p - 1 at p = 2^31 - 1 against a point whose
        # powers are large: the dot product passes 2^63, so only the
        # column sweep gets it right.
        p = MAX_NUMPY_PRIME
        field = _BOUNDARY_FIELDS.setdefault(p, PrimeField(p))
        width = _boundary_width(p) + 1
        draws = random.Random(0)
        point = next(
            x
            for x in (draws.randrange(2, p) for _ in range(1000))
            if (p - 1) * sum(pow(x, i, p) for i in range(width)) >= 2**63
        )
        matrix = [[p - 1] * width]
        expected = PrimeKernel(field).horner_many(matrix, point)
        assert kernels.NumpyPrimeKernel(field).horner_many(matrix, point) == expected

    def test_gathered_share_rows_match_the_list_kernel(self):
        from array import array

        field = make_field(83)
        block = array("B", [(7 * i) % 83 for i in range(5 * 82)])
        rows = [4, 0, 2, 2]
        gathered = make_kernel(field, "numpy").gather_rows(block, 82, rows)
        assert gathered.dtype.name == "int64"
        listed = PrimeKernel(field).gather_rows(block, 82, rows)
        assert gathered.tolist() == [list(row) for row in listed]
        for point in (1, 5, 82):
            assert make_kernel(field, "numpy").horner_many(gathered, point) == (
                PrimeKernel(field).horner_many(listed, point)
            )


# ----------------------------------------------------------------------
# Degenerate batch shapes
# ----------------------------------------------------------------------


@needs_numpy
class TestDegenerateBatches:
    @pytest.fixture(params=["F_83", "F_81"])
    def kernel(self, request):
        field = {"F_83": make_field(83), "F_81": make_field(3, 4)}[request.param]
        return make_kernel(field, "numpy")

    def test_empty_batches(self, kernel):
        assert kernel.horner_many([], 5) == []
        assert kernel.stack([]).size == 0
        assert kernel.unstack(kernel.stack([])) == []
        assert kernel.eval_points([1, 2], []) == []
        assert [int(v) for v in kernel.sum_rows([[7, 9]])] == [7, 9]
        assert list(kernel.weighted_sum([], [])) == []
        with pytest.raises(FieldError):
            kernel.weighted_sum([[1, 2]], [])

    def test_length_one_vectors(self, kernel):
        # length-1 ring: (x - root) folds onto the constant 1 - root
        naive = NaiveKernel(kernel.field)
        root = 3 % kernel.field.order
        assert [int(v) for v in kernel.linear_factor(root, 1)] == naive.linear_factor(root, 1)
        assert [int(v) for v in kernel.cyclic_mul_linear(root, [5 % kernel.field.order])] == (
            naive.cyclic_mul_linear(root, [5 % kernel.field.order])
        )
        assert kernel.horner_many([[4]], 2 % kernel.field.order) == [4]

    def test_single_row_batch(self, kernel):
        coeffs = [i % kernel.field.order for i in range(5)]
        naive = NaiveKernel(kernel.field)
        point = 2 % kernel.field.order
        assert kernel.horner_many([coeffs], point) == naive.horner_many([coeffs], point)


# ----------------------------------------------------------------------
# Fallback matrix
# ----------------------------------------------------------------------


class TestFallbacks:
    @needs_numpy
    def test_big_extension_field_falls_back_to_naive(self):
        field = make_field(2, 10)  # q = 1024 > MAX_TABLE_ORDER: no log table
        assert field.order > MAX_TABLE_ORDER
        assert make_kernel(field, "numpy").name == "naive"

    @needs_numpy
    def test_huge_prime_falls_back_to_scalar_prime_kernel(self):
        field = PrimeField(2**61 - 1)
        assert make_kernel(field, "numpy").name == "prime"

    def test_explicit_numpy_without_numpy_is_a_clear_error(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        with pytest.raises(KernelUnavailableError):
            make_kernel(make_field(83), "numpy")
        with pytest.raises(KernelUnavailableError):
            set_default_backend("numpy")

    def test_auto_selection_never_picks_numpy_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        field = PrimeField(83)
        assert make_kernel(field).name == "prime"


# ----------------------------------------------------------------------
# Dtype stability: no numpy scalars past the kernel boundary
# ----------------------------------------------------------------------


@needs_numpy
class TestDtypeStability:
    def test_unwrapped_values_are_python_ints(self):
        for field in (make_field(83), make_field(3, 4)):
            kernel = make_kernel(field, "numpy")
            vector = kernel.vec_add([1, 2, 3], [4, 5, 6])
            for value in kernel.unwrap(vector):
                assert type(value) is int
            for value in kernel.horner_many([[1, 2, 3]], 2):
                assert type(value) is int

    def test_encoded_rows_hold_plain_int_tuples(self):
        from repro.encode.encoder import Encoder
        from repro.encode.tagmap import TagMap

        set_default_backend("numpy")
        try:
            tag_map = TagMap.from_names(["a", "b"], field=make_field(83))
            encoded = Encoder(tag_map, b"dtype-prg-seed-00").encode_text("<a><b/></a>")
        finally:
            set_default_backend(None)
        for row in encoded.node_table.rows():
            assert type(row["pre"]) is int
            share = row["share"]
            assert type(share) is tuple
            assert all(type(value) is int for value in share)

    def test_shares_survive_the_wire_codec(self):
        # The ``V`` array frame takes plain ints only; a numpy scalar leaking
        # out of the kernel layer would push the row onto the generic list.
        from repro.rmi.codec import Codec

        field = make_field(83)
        kernel = make_kernel(field, "numpy")
        row = kernel.unwrap(kernel.vec_scale([1, 2, 3], 7))
        payload = {"share": row}
        codec = Codec()
        assert codec.encode(row)[0:1] == b"V"
        assert codec.decode(codec.encode(payload)) == payload


# ----------------------------------------------------------------------
# Vectorized PRG blocks
# ----------------------------------------------------------------------


@needs_numpy
class TestPRGBlocks:
    def test_block_matches_scalar_streams_and_accounting(self):
        from repro.prg.generator import KeyedPRG

        for field in (make_field(83), make_field(3, 4)):
            block_prg = KeyedPRG(b"block-seed-0123456789abcdef", field)
            scalar_prg = KeyedPRG(b"block-seed-0123456789abcdef", field)
            pres = [5, 1, 5, 9, 2]  # duplicate exercises memo accounting
            block = block_prg.elements_block(pres, 10, lane=1)
            scalar = [scalar_prg.elements(pre, 10, lane=1) for pre in pres]
            assert [[int(v) for v in row] for row in block] == scalar
            assert block_prg.cache_info() == scalar_prg.cache_info()

    def test_block_larger_than_memo_evicts_like_scalar(self):
        # A block that overflows the LRU exercises the simulate-then-
        # rebuild replay: hit/miss counts AND the surviving memo entries
        # (keys, order, values) must match the per-call path exactly.
        from repro.prg.generator import KeyedPRG

        field = make_field(83)
        block_prg = KeyedPRG(b"block-seed-0123456789abcdef", field, memo_size=3)
        scalar_prg = KeyedPRG(b"block-seed-0123456789abcdef", field, memo_size=3)
        warm = [100, 101]
        pres = [1, 2, 3, 1, 4, 5, 2, 6]
        for pre in warm:
            block_prg.elements(pre, 7)
            scalar_prg.elements(pre, 7)
        block = block_prg.elements_block(pres, 7)
        scalar = [scalar_prg.elements(pre, 7) for pre in pres]
        assert [[int(v) for v in row] for row in block] == scalar
        assert block_prg.cache_info() == scalar_prg.cache_info()
        assert list(block_prg._memo) == list(scalar_prg._memo)
        # block-path entries may still be lazy array rows; a scalar read
        # normalises them and must return the exact memoised stream
        for key in list(scalar_prg._memo):
            pre, count, lane, version = key
            assert block_prg.elements(
                pre, count, lane, version=version
            ) == scalar_prg.elements(pre, count, lane, version=version)
            assert type(block_prg._memo[key]) is tuple
        assert block_prg._memo == scalar_prg._memo

    def test_empty_block(self):
        from repro.prg.generator import KeyedPRG

        prg = KeyedPRG(b"block-seed-0123456789abcdef", make_field(83))
        block = prg.elements_block([], 10)
        assert len(block) == 0


# ----------------------------------------------------------------------
# End-to-end: encode + query bit-identical across backends
# ----------------------------------------------------------------------


@needs_numpy
class TestEndToEndDifferential:
    _DOC = (
        "<site><people>"
        "<person><name/><city/></person>"
        "<person><city/></person>"
        "</people><regions><item><name/></item></regions></site>"
    )

    @pytest.mark.parametrize(
        ("p", "e", "pure_backend"), [(83, 1, "prime"), (3, 4, "table")]
    )
    def test_encode_and_query_match_pure_python(self, p, e, pure_backend):
        from repro.encode.encoder import Encoder
        from repro.encode.tagmap import TagMap
        from repro.engines.simple import SimpleQueryEngine
        from repro.filters.client import ClientFilter
        from repro.filters.interface import MatchRule
        from repro.filters.server import ServerFilter

        def run(backend):
            set_default_backend(backend)
            try:
                field = make_field(p, e)
                tags = ["site", "people", "person", "name", "city", "regions", "item"]
                tag_map = TagMap.from_names(tags, field=field)
                encoder = Encoder(tag_map, b"e2e-prg-seed-0000")
                encoded = encoder.encode_text(self._DOC)
                rows = sorted(
                    (row["pre"], row["post"], row["parent"], tuple(row["share"]))
                    for row in encoded.node_table.rows()
                )
                server = ServerFilter(encoded.node_table, encoded.ring)
                client = ClientFilter(server, encoded.sharing, tag_map)
                engine = SimpleQueryEngine(client)
                hits = [
                    sorted(engine.execute("//city", rule=MatchRule.CONTAINMENT).matches),
                    sorted(
                        engine.execute(
                            "/site/people/person", rule=MatchRule.EQUALITY
                        ).matches
                    ),
                    sorted(
                        engine.execute("//person//name", rule=MatchRule.CONTAINMENT).matches
                    ),
                ]
                counters = client.counters.snapshot()
                backend_name = encoded.ring.kernel.name
            finally:
                set_default_backend(None)
            return rows, hits, counters, backend_name

        numpy_run = run("numpy")
        pure_run = run(pure_backend)
        assert numpy_run[3] == "numpy" and pure_run[3] == pure_backend
        assert numpy_run[:3] == pure_run[:3]
