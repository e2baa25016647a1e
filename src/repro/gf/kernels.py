"""Table-driven field kernels: the bulk-arithmetic backend of the system.

Every hot path of the reproduction — ring multiplication during encoding,
Horner evaluation during containment tests, share reconstruction during
equality tests — bottoms out in finite-field coefficient arithmetic.  The
generic :class:`~repro.gf.base.Field` interface dispatches one method call
per coefficient operation, which for extension fields additionally unpacks
and repacks base-``p`` coefficient vectors on *every* product.  The paper
(Brinkman et al., SDM 2005) works over small fields (``q`` up to a few
hundred), which is exactly the regime where precomputed tables turn scalar
operations into array lookups and whole-vector primitives amortise the
remaining interpreter overhead.

Four interchangeable backends implement the :class:`FieldKernel` interface:

* :class:`NaiveKernel` — delegates every operation to the dispatched
  ``Field`` methods with exactly the pre-kernel loops.  It exists as the
  differential-testing oracle and the baseline the kernel benchmark
  (``benchmarks/bench_field_kernels.py``) compares against.
* :class:`PrimeKernel` — direct modular arithmetic for prime fields.  Dense
  convolutions use Kronecker substitution: both coefficient vectors are
  packed into one big integer each (one fixed-width digit per coefficient,
  wide enough that no digit can overflow), multiplied with Python's C-speed
  big-integer multiply, and the product digits are the exact convolution
  coefficients, reduced ``mod p`` once at the end.
* :class:`TableKernel` — one-time discrete-log/exponent tables over a
  generator of the multiplicative group ``F_q^*`` plus a flat addition
  table, valid for *any* small field.  For extension fields this kills the
  ``to_coeffs``/``from_coeffs`` round trips entirely: ``mul``/``inv``/
  ``div``/``pow`` become O(1) list indexing.
* the ``"numpy"`` backend — :class:`NumpyPrimeKernel` /
  :class:`NumpyTableKernel`, vectorized whole-array arithmetic for the
  document scales (10^4+ nodes) where even the per-element Python loops of
  the prime/table kernels dominate.  Prime fields run elementwise int64
  arithmetic with a single ``% p`` (``np.convolve`` for dense products,
  chunked partial reductions where a coefficient sum could overflow int64);
  extension fields reuse the table kernel's log/exp/add tables as numpy
  arrays indexed with whole vectors, and convolve by decomposing products
  into base-``p`` digit planes that sum with exact integer arithmetic.
  NumPy is an *optional* dependency (``pip install repro[fast]``): the
  backend registers only when the import succeeds, requesting it without
  numpy raises :class:`KernelUnavailableError`, and fields the numpy
  kernels cannot serve (huge primes, extension fields past
  :data:`MAX_TABLE_ORDER`) fall back to the best non-numpy backend.
  When numpy is importable it is the *default* for prime fields up to
  :data:`MAX_NUMPY_PRIME` (see :func:`make_kernel`); extension fields keep
  the pure-Python table kernel unless numpy is requested explicitly.

All kernels operate on canonical integer elements (``range(q)``) and are
**bit-identical** to the naive ``Field`` methods — the test suite asserts
agreement property-by-property, and the benchmark asserts byte-identical
shares, query results and evaluation counters under both backends.

Array-native bulk surface
-------------------------

The hot paths (the encoder's share generation, ``evaluate_batch``'s Horner
sweep, Lagrange combination) want to stay *array-resident* end to end
instead of converting per element.  Every kernel therefore also exposes a
small bulk surface — :meth:`FieldKernel.stack` / :meth:`FieldKernel.unstack`
/ :meth:`FieldKernel.unwrap`, :meth:`FieldKernel.gather_rows` (rows of the
node table's share block, a zero-copy view under numpy), the
matrix-capable ``vec_*`` primitives, :meth:`FieldKernel.weighted_sum` and
:meth:`FieldKernel.sum_rows` — with
generic list-based fallbacks, so scheme/encoder code can be written once
against the kernel and transparently runs on int64 matrices when the
backend ``is array_native``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.gf.base import Field, FieldError

try:  # optional accelerator: the library itself stays dependency-free
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI axis
    np = None

__all__ = [
    "FieldKernel",
    "KernelUnavailableError",
    "NaiveKernel",
    "NumpyPrimeKernel",
    "NumpyTableKernel",
    "PrimeKernel",
    "TableKernel",
    "default_backend",
    "kernel_generation",
    "make_kernel",
    "set_default_backend",
    "KERNEL_BACKENDS",
    "HAS_NUMPY",
    "MAX_TABLE_ORDER",
]

#: whether the optional numpy accelerator imported successfully
HAS_NUMPY = np is not None


class KernelUnavailableError(FieldError):
    """Raised when an explicitly requested kernel backend cannot be built.

    The one current case: requesting the ``"numpy"`` backend (per field via
    ``Field.set_kernel_backend`` or process-wide via
    :func:`set_default_backend`) in an environment where numpy is not
    installed.  Auto-selection never raises this — without numpy the
    existing prime/table/naive backends serve every field.
    """


class FieldKernel:
    """Bulk arithmetic over one finite field.

    Subclasses implement the scalar operations; the vector primitives
    defined here are generic fallbacks that concrete kernels override where
    a faster formulation exists.  Inputs are sequences of canonical field
    integers; outputs are plain lists of canonical field integers.
    """

    #: backend identifier recorded in traces and accounting ("naive",
    #: "prime", "table" or "numpy")
    name = "abstract"

    #: True when the kernel's vector primitives consume and produce a
    #: native array type (int64 ndarrays) that callers should keep resident
    #: across operations; list-based kernels leave this False
    array_native = False

    def __init__(self, field: Field):
        self.field = field
        self.order = field.order

    # ------------------------------------------------------------------
    # Scalar operations
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, exponent: int) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Vector primitives
    # ------------------------------------------------------------------

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Component-wise sum of two equal-length vectors."""
        add = self.add
        return [add(x, y) for x, y in zip(a, b)]

    def vec_sub(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Component-wise difference of two equal-length vectors."""
        sub = self.sub
        return [sub(x, y) for x, y in zip(a, b)]

    def vec_neg(self, a: Sequence[int]) -> List[int]:
        """Component-wise negation."""
        neg = self.neg
        return [neg(x) for x in a]

    def vec_scale(self, a: Sequence[int], scalar: int) -> List[int]:
        """Multiply every component by one field scalar."""
        mul = self.mul
        return [mul(x, scalar) for x in a]

    def convolve(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Linear convolution (polynomial product), length ``len(a)+len(b)-1``.

        Either input being empty yields the empty list (the zero polynomial).
        """
        if not a or not b:
            return []
        add, mul = self.add, self.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                out[i + j] = add(out[i + j], mul(x, y))
        return out

    def cyclic_convolve(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Cyclic convolution of two length-``n`` vectors (mod ``x^n - 1``)."""
        n = len(a)
        if len(b) != n:
            raise FieldError(
                "cyclic convolution needs equal lengths, got %d and %d" % (n, len(b))
            )
        add, mul = self.add, self.mul
        out = [0] * n
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                k = i + j
                if k >= n:
                    k -= n
                out[k] = add(out[k], mul(x, y))
        return out

    def cyclic_mul_linear(self, root: int, vec: Sequence[int]) -> List[int]:
        """Cyclic product ``(x - root) * vec`` (mod ``x^n - 1``).

        The encoding multiplies every node polynomial by one ``x - tag``
        monomial, so this shape deserves an O(n) path:
        ``out[k] = vec[k-1] - root * vec[k]`` (indices cyclic).  The generic
        implementation materialises the monomial and convolves — exactly
        what the pre-kernel code did — so the naive backend keeps its
        original cost profile; concrete kernels override it.
        """
        coeffs = [0] * len(vec)
        coeffs[0] = self.field.neg(self.field.validate(root))
        if len(vec) > 1:
            coeffs[1] = self.field.one
        else:  # degenerate length-1 ring folds x onto the constant term
            coeffs[0] = self.field.add(coeffs[0], self.field.one)
        return self.cyclic_convolve(coeffs, vec)

    def horner(self, coeffs: Sequence[int], point: int) -> int:
        """Evaluate a little-endian coefficient vector at ``point``."""
        add, mul = self.add, self.mul
        accumulator = 0
        for coefficient in reversed(coeffs):
            accumulator = add(mul(accumulator, point), coefficient)
        return accumulator

    def horner_many(self, vectors: Iterable[Sequence[int]], point: int) -> List[int]:
        """Evaluate many coefficient vectors at the same point."""
        return [self.horner(coeffs, point) for coeffs in vectors]

    def eval_points(self, coeffs: Sequence[int], points: Iterable[int]) -> List[int]:
        """Evaluate one coefficient vector at many points."""
        return [self.horner(coeffs, point) for point in points]

    def linear_factor(self, root: int, length: int) -> Sequence[int]:
        """Kernel-native coefficient vector of the monomial ``x - root``.

        Mirrors ``QuotientRing.linear_factor`` (including the degenerate
        length-1 ring that folds ``x`` onto the constant term) but returns a
        raw vector, so the encoder can build per-node leaf polynomials
        without constructing ring objects.
        """
        field = self.field
        coeffs = [0] * length
        coeffs[0] = field.neg(field.validate(root))
        if length > 1:
            coeffs[1] = field.one
        else:
            coeffs[0] = field.add(coeffs[0], field.one)
        return coeffs

    # ------------------------------------------------------------------
    # Array-native bulk surface (generic list fallbacks)
    # ------------------------------------------------------------------

    def stack(self, vectors: Sequence[Sequence[int]]):
        """Bundle equal-length vectors into the kernel's matrix form."""
        return [list(vector) for vector in vectors]

    def gather_rows(self, block, width: int, rows: Sequence[int]):
        """Rows ``rows`` (0-based) of a row-major ``array`` block of
        ``width``-coefficient vectors, in the kernel's matrix form.

        This is how the node table's share block reaches the kernel: the
        list kernels get one array slice per row, which iterates as plain
        ints.
        """
        return [block[row * width : (row + 1) * width] for row in rows]

    def unstack(self, matrix) -> List[List[int]]:
        """Split a kernel matrix back into plain lists of canonical ints."""
        if hasattr(matrix, "tolist"):
            return matrix.tolist()
        return [list(row) for row in matrix]

    def unwrap(self, vector) -> List[int]:
        """Convert one kernel-native vector into a plain list of ints."""
        if hasattr(vector, "tolist"):
            return vector.tolist()
        return list(vector)

    def weighted_sum(
        self, vectors: Sequence[Sequence[int]], weights: Sequence[int]
    ):
        """``sum_i weights[i] * vectors[i]`` over equal-length vectors.

        This is Lagrange interpolation at zero once the weights are fixed:
        the scheme caches the weight vector per server subset and the kernel
        applies it to a whole share (or batched-evaluation) matrix.  The
        generic path reproduces the historical scale-then-fold loop exactly.
        """
        if len(vectors) != len(weights):
            raise FieldError(
                "weighted sum needs one weight per vector, got %d vectors and %d weights"
                % (len(vectors), len(weights))
            )
        if not vectors:
            return []
        combined = self.vec_scale(vectors[0], weights[0])
        for vector, weight in zip(vectors[1:], weights[1:]):
            combined = self.vec_add(combined, self.vec_scale(vector, weight))
        return combined

    def sum_rows(self, vectors: Sequence[Sequence[int]]):
        """Component-wise sum of many equal-length vectors (fold order 0..n-1)."""
        if not vectors:
            return []
        combined = list(vectors[0])
        for vector in vectors[1:]:
            combined = self.vec_add(combined, vector)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "%s(%r)" % (type(self).__name__, self.field)


class NaiveKernel(FieldKernel):
    """Reference kernel delegating to the dispatched ``Field`` methods.

    This reproduces the arithmetic exactly as it ran before the kernel layer
    existed — one dynamically-dispatched method call per coefficient
    operation — and serves as both the differential-testing oracle and the
    baseline of ``benchmarks/bench_field_kernels.py``.
    """

    name = "naive"

    def __init__(self, field: Field):
        super().__init__(field)
        self.add = field.add
        self.sub = field.sub
        self.neg = field.neg
        self.mul = field.mul
        self.inv = field.inv
        self.div = field.div
        self.pow = field.pow


class PrimeKernel(FieldKernel):
    """Direct modular arithmetic for prime fields ``F_p``.

    Scalar operations are plain integer arithmetic mod ``p``.  The dense
    convolution path uses Kronecker substitution (see the module docstring);
    sparse operands (the encoding's ``x - tag`` linear factors) take a
    schoolbook path that accumulates unreduced Python integers and reduces
    once at the end.  Both are bit-identical to coefficient-wise ``Field``
    arithmetic because all of it is the same math mod ``p``.
    """

    name = "prime"

    #: operands with at most this many non-zero coefficients skip the
    #: Kronecker packing and use the schoolbook loop over non-zeros
    _SPARSE_LIMIT = 4

    def __init__(self, field: Field):
        if field.degree != 1:
            raise FieldError(
                "PrimeKernel requires a prime field, got degree %d" % field.degree
            )
        super().__init__(field)
        self._p = field.order

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        result = a + b
        return result - self._p if result >= self._p else result

    def sub(self, a: int, b: int) -> int:
        result = a - b
        return result + self._p if result < 0 else result

    def neg(self, a: int) -> int:
        return self._p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self._p

    def inv(self, a: int) -> int:
        a %= self._p
        if a == 0:
            raise FieldError("zero has no multiplicative inverse in F_%d" % self._p)
        return pow(a, self._p - 2, self._p)

    def pow(self, a: int, exponent: int) -> int:
        if exponent < 0:
            a = self.inv(a)
            exponent = -exponent
        return pow(a % self._p, exponent, self._p)

    # ------------------------------------------------------------------
    # Vectors
    # ------------------------------------------------------------------

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        p = self._p
        return [(x + y) % p for x, y in zip(a, b)]

    def vec_sub(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        p = self._p
        return [(x - y) % p for x, y in zip(a, b)]

    def vec_neg(self, a: Sequence[int]) -> List[int]:
        p = self._p
        return [(-x) % p for x in a]

    def vec_scale(self, a: Sequence[int], scalar: int) -> List[int]:
        p = self._p
        return [(x * scalar) % p for x in a]

    # ------------------------------------------------------------------
    # Convolution via Kronecker substitution
    # ------------------------------------------------------------------

    def _digits(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Unreduced convolution coefficients of ``a * b``.

        Packs both vectors into big integers with one fixed-width digit per
        coefficient.  Every product digit equals the exact integer
        convolution coefficient because the digit width is chosen so that
        ``min(len) * (p-1)^2`` — the largest possible coefficient — cannot
        carry into the next digit.
        """
        p = self._p
        bound = min(len(a), len(b)) * (p - 1) * (p - 1)
        width = max(1, (bound.bit_length() + 7) // 8)
        packed_a = bytearray(len(a) * width)
        for i, x in enumerate(a):
            if x:
                packed_a[i * width : i * width + width] = x.to_bytes(width, "little")
        packed_b = bytearray(len(b) * width)
        for i, x in enumerate(b):
            if x:
                packed_b[i * width : i * width + width] = x.to_bytes(width, "little")
        product = int.from_bytes(packed_a, "little") * int.from_bytes(packed_b, "little")
        out_len = len(a) + len(b) - 1
        raw = product.to_bytes((len(a) + len(b)) * width, "little")
        return [
            int.from_bytes(raw[k * width : (k + 1) * width], "little")
            for k in range(out_len)
        ]

    def _sparse_digits(
        self, sparse: Sequence[int], dense: Sequence[int], out_len: int
    ) -> List[int]:
        """Schoolbook convolution over the non-zeros of ``sparse``."""
        out = [0] * out_len
        for i, x in enumerate(sparse):
            if x:
                for j, y in enumerate(dense):
                    if y:
                        out[i + j] += x * y
        return out

    def _nonzeros(self, a: Sequence[int]) -> int:
        count = 0
        for x in a:
            if x:
                count += 1
                if count > self._SPARSE_LIMIT:
                    break
        return count

    def convolve(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not a or not b:
            return []
        out_len = len(a) + len(b) - 1
        if self._nonzeros(a) <= self._SPARSE_LIMIT:
            digits = self._sparse_digits(a, b, out_len)
        elif self._nonzeros(b) <= self._SPARSE_LIMIT:
            digits = self._sparse_digits(b, a, out_len)
        else:
            digits = self._digits(a, b)
        p = self._p
        return [v % p for v in digits]

    def cyclic_convolve(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        n = len(a)
        if len(b) != n:
            raise FieldError(
                "cyclic convolution needs equal lengths, got %d and %d" % (n, len(b))
            )
        if self._nonzeros(a) <= self._SPARSE_LIMIT:
            digits = self._sparse_digits(a, b, 2 * n - 1)
        elif self._nonzeros(b) <= self._SPARSE_LIMIT:
            digits = self._sparse_digits(b, a, 2 * n - 1)
        else:
            digits = self._digits(a, b)
        for k in range(n, len(digits)):
            digits[k - n] += digits[k]
        p = self._p
        return [v % p for v in digits[:n]]

    def cyclic_mul_linear(self, root: int, vec: Sequence[int]) -> List[int]:
        p = self._p
        root = root % p
        if len(vec) == 1:
            return [((1 - root) * vec[0]) % p]
        rotated = [vec[-1], *vec[:-1]]
        return [(x - root * y) % p for x, y in zip(rotated, vec)]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def horner(self, coeffs: Sequence[int], point: int) -> int:
        p = self._p
        accumulator = 0
        for coefficient in reversed(coeffs):
            accumulator = (accumulator * point + coefficient) % p
        return accumulator

    def horner_many(self, vectors: Iterable[Sequence[int]], point: int) -> List[int]:
        """Evaluate many vectors at one point via a shared power table.

        ``sum(c_i * point^i) mod p`` with a single reduction per vector —
        the intermediate sum stays a machine-word-sized Python int for the
        small fields the encoding uses.
        """
        vectors = list(vectors)
        if not vectors:
            return []
        p = self._p
        longest = max(len(v) for v in vectors)
        powers = [1] * longest
        for i in range(1, longest):
            powers[i] = (powers[i - 1] * point) % p
        return [sum(c * w for c, w in zip(v, powers)) % p for v in vectors]

    def eval_points(self, coeffs: Sequence[int], points: Iterable[int]) -> List[int]:
        p = self._p
        results = []
        for point in points:
            accumulator = 0
            for coefficient in reversed(coeffs):
                accumulator = (accumulator * point + coefficient) % p
            results.append(accumulator)
        return results


class TableKernel(FieldKernel):
    """Discrete-log/exp table kernel valid for any small field.

    Construction finds a generator ``g`` of ``F_q^*`` with the field's own
    multiplication, then records ``exp[k] = g^k`` (doubled in length so a
    sum of two logs never needs a modular reduction) and its inverse map
    ``log``.  A flat ``q × q`` addition table plus a negation table complete
    the picture: every scalar operation is O(1) list indexing, with no
    coefficient-vector packing on any path.  The one-time table cost is
    O(q^2) naive field additions, paid once per field (kernels are cached on
    the field object).
    """

    name = "table"

    def __init__(self, field: Field):
        super().__init__(field)
        q = field.order
        self._q = q
        generator = self._find_generator(field)
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        value = field.one
        for k in range(q - 1):
            exp[k] = value
            exp[k + q - 1] = value
            log[value] = k
            value = field.mul(value, generator)
        if value != field.one:  # pragma: no cover - defended by _find_generator
            raise FieldError("generator search returned a non-generator")
        self.generator = generator
        self._exp = exp
        self._log = log
        self._neg = [field.neg(a) for a in range(q)]
        add_flat = [0] * (q * q)
        for a in range(q):
            base = a * q
            for b in range(q):
                add_flat[base + b] = field.add(a, b)
        self._add = add_flat

    @staticmethod
    def _find_generator(field: Field) -> int:
        """Smallest (canonical) generator of the multiplicative group."""
        target = field.order - 1
        for candidate in range(1, field.order):
            value = candidate
            order = 1
            while value != field.one:
                value = field.mul(value, candidate)
                order += 1
                if order > target:  # pragma: no cover - impossible in a field
                    break
            if order == target:
                return candidate
        raise FieldError(
            "no generator found in F_%d; the field arithmetic is inconsistent"
            % field.order
        )

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a * self._q + b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a * self._q + self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse in F_%d" % self._q)
        return self._exp[self._q - 1 - self._log[a]]

    def pow(self, a: int, exponent: int) -> int:
        if a == 0:
            if exponent < 0:
                raise FieldError("zero has no multiplicative inverse in F_%d" % self._q)
            return self.field.one if exponent == 0 else 0
        return self._exp[(self._log[a] * exponent) % (self._q - 1)]

    # ------------------------------------------------------------------
    # Vectors
    # ------------------------------------------------------------------

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        add, q = self._add, self._q
        return [add[x * q + y] for x, y in zip(a, b)]

    def vec_sub(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        add, neg, q = self._add, self._neg, self._q
        return [add[x * q + neg[y]] for x, y in zip(a, b)]

    def vec_neg(self, a: Sequence[int]) -> List[int]:
        neg = self._neg
        return [neg[x] for x in a]

    def vec_scale(self, a: Sequence[int], scalar: int) -> List[int]:
        if scalar == 0:
            return [0] * len(a)
        exp, log = self._exp, self._log
        ls = log[scalar]
        return [exp[ls + log[x]] if x else 0 for x in a]

    def convolve(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not a or not b:
            return []
        exp, log, add, q = self._exp, self._log, self._add, self._q
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            lx = log[x]
            for j, y in enumerate(b):
                if y == 0:
                    continue
                k = i + j
                out[k] = add[out[k] * q + exp[lx + log[y]]]
        return out

    def cyclic_convolve(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        n = len(a)
        if len(b) != n:
            raise FieldError(
                "cyclic convolution needs equal lengths, got %d and %d" % (n, len(b))
            )
        exp, log, add, q = self._exp, self._log, self._add, self._q
        out = [0] * n
        for i, x in enumerate(a):
            if x == 0:
                continue
            lx = log[x]
            for j, y in enumerate(b):
                if y == 0:
                    continue
                k = i + j
                if k >= n:
                    k -= n
                out[k] = add[out[k] * q + exp[lx + log[y]]]
        return out

    def cyclic_mul_linear(self, root: int, vec: Sequence[int]) -> List[int]:
        field = self.field
        add, neg, exp, log, q = self._add, self._neg, self._exp, self._log, self._q
        if len(vec) == 1:
            factor = add[field.one * q + neg[field.validate(root)]]
            return [exp[log[factor] + log[vec[0]]] if factor and vec[0] else 0]
        rotated = [vec[-1], *vec[:-1]]
        negated_root = neg[field.validate(root)]
        if negated_root == 0:
            return rotated
        ln = log[negated_root]
        return [
            add[x * q + (exp[ln + log[y]] if y else 0)] for x, y in zip(rotated, vec)
        ]

    def horner(self, coeffs: Sequence[int], point: int) -> int:
        if point == 0:
            # Horner with point 0 degenerates to the constant term, matching
            # the naive loop exactly.
            return coeffs[0] if coeffs else 0
        exp, log, add, q = self._exp, self._log, self._add, self._q
        lp = log[point]
        accumulator = 0
        for coefficient in reversed(coeffs):
            scaled = exp[lp + log[accumulator]] if accumulator else 0
            accumulator = add[scaled * q + coefficient]
        return accumulator


class _NumpyMixin:
    """Shared array plumbing for the numpy kernels.

    Provides the int64 coercion helpers plus the matrix builders; the
    concrete kernels supply the arithmetic.  The mixin must precede the
    list-based parent in the MRO so ``name``/``array_native`` and the bulk
    surface resolve to the numpy variants.
    """

    name = "numpy"
    array_native = True

    @staticmethod
    def _as_array(values) -> "np.ndarray":
        if isinstance(values, np.ndarray):
            return values
        return np.asarray(values, dtype=np.int64)

    def stack(self, vectors):
        """Equal-length vectors as one (n_vectors, length) int64 matrix."""
        if isinstance(vectors, np.ndarray):
            return vectors
        vectors = list(vectors)
        if not vectors:
            return np.empty((0, 0), dtype=np.int64)
        return np.asarray([self._as_array(vector) for vector in vectors], dtype=np.int64)

    def gather_rows(self, block, width: int, rows):
        """One fancy index over a zero-copy ``np.frombuffer`` view of the
        block, widened to the kernels' int64."""
        view = np.frombuffer(block, dtype=block.typecode).reshape(-1, width)
        return view[np.asarray(rows, dtype=np.intp)].astype(np.int64)

    def _matrix(self, vectors) -> "np.ndarray":
        """Possibly-ragged vectors as one zero-padded int64 matrix.

        Zero padding is exact for Horner sweeps: trailing zero coefficients
        never change the evaluation.
        """
        if isinstance(vectors, np.ndarray):
            return vectors
        vectors = list(vectors)
        if not vectors:
            return np.empty((0, 0), dtype=np.int64)
        lengths = [len(vector) for vector in vectors]
        longest = max(lengths)
        if min(lengths) == longest:
            return np.asarray(
                [self._as_array(vector) for vector in vectors], dtype=np.int64
            )
        matrix = np.zeros((len(vectors), longest), dtype=np.int64)
        for i, vector in enumerate(vectors):
            if len(vector):
                matrix[i, : len(vector)] = self._as_array(vector)
        return matrix

    def horner(self, coeffs, point: int) -> int:
        # Normalise ndarray inputs so the scalar parent loop sees plain ints
        # (and truth-tests on the vector stay unambiguous).
        if hasattr(coeffs, "tolist"):
            coeffs = coeffs.tolist()
        return super().horner(coeffs, int(point))


class NumpyPrimeKernel(_NumpyMixin, PrimeKernel):
    """Vectorized mod-``p`` arithmetic on int64 arrays for prime fields.

    Every vector primitive is a whole-array numpy expression with a single
    ``% p`` reduction.  Dense convolutions run through ``np.convolve`` on
    int64; where a convolution coefficient could exceed int64 (large ``p``),
    one operand is processed in chunks sized so each partial product sum
    stays below ``2^63``, partials are reduced mod ``p`` and then summed —
    exact because modular reduction commutes with the chunked sum.  Only
    primes up to :data:`MAX_NUMPY_PRIME` are served so the Horner step
    ``acc * point + c`` also stays in int64.
    """

    def __init__(self, field: Field):
        super().__init__(field)
        p = self._p
        if p > MAX_NUMPY_PRIME:
            raise FieldError(
                "NumpyPrimeKernel requires p <= %d to stay within int64, got %d"
                % (MAX_NUMPY_PRIME, p)
            )
        # largest segment length whose worst-case convolution coefficient
        # min(len) * (p-1)^2 still fits in int64
        self._chunk = max(1, (2**63 - 1) // max(1, (p - 1) * (p - 1)))
        # cached rotate-by-one gather indexes, keyed on vector length
        self._rot_index = {}
        # cached power vectors (point^0 .. point^(width-1) mod p), keyed on
        # (point, width): the points are the tag map's few values
        self._power_vectors = {}

    def _powers(self, point: int, width: int) -> "np.ndarray":
        powers = self._power_vectors.get((point, width))
        if powers is None:
            if len(self._power_vectors) >= 4096:
                self._power_vectors.clear()
            values = [1] * width
            for i in range(1, width):
                values[i] = values[i - 1] * point % self._p
            powers = self._power_vectors[(point, width)] = np.asarray(values, dtype=np.int64)
        return powers

    # ------------------------------------------------------------------
    # Vectors
    # ------------------------------------------------------------------

    def vec_add(self, a, b):
        return (self._as_array(a) + self._as_array(b)) % self._p

    def vec_sub(self, a, b):
        return (self._as_array(a) - self._as_array(b)) % self._p

    def vec_neg(self, a):
        return (-self._as_array(a)) % self._p

    def vec_scale(self, a, scalar: int):
        return (self._as_array(a) * (int(scalar) % self._p)) % self._p

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------

    def convolve(self, a, b):
        if not len(a) or not len(b):
            return np.empty(0, dtype=np.int64)
        A, B = self._as_array(a), self._as_array(b)
        p = self._p
        if min(len(A), len(B)) <= self._chunk:
            return np.convolve(A, B) % p
        if len(A) < len(B):
            A, B = B, A
        # chunk the longer operand: each partial convolution's coefficients
        # are bounded by chunk * (p-1)^2 < 2^63; reduced partials are < p,
        # so the overlap-add accumulation cannot overflow either
        chunk = self._chunk
        out = np.zeros(len(A) + len(B) - 1, dtype=np.int64)
        for start in range(0, len(A), chunk):
            segment = A[start : start + chunk]
            out[start : start + len(segment) + len(B) - 1] += (
                np.convolve(segment, B) % p
            )
        return out % p

    def cyclic_convolve(self, a, b):
        n = len(a)
        if len(b) != n:
            raise FieldError(
                "cyclic convolution needs equal lengths, got %d and %d" % (n, len(b))
            )
        if n and 2 * n <= self._chunk:
            # Small-p fast path: raw coefficients are bounded by
            # n * (p-1)^2 and the wrap-around fold at most doubles them,
            # so everything stays in int64 and one % p at the end suffices.
            full = np.convolve(self._as_array(a), self._as_array(b))
            folded = full[:n]
            folded[: len(full) - n] += full[n:]
            return folded % self._p
        full = self.convolve(a, b)
        if len(full) <= n:
            return full
        folded = full[:n].copy()
        folded[: len(full) - n] += full[n:]
        return folded % self._p

    def cyclic_mul_linear(self, root: int, vec):
        p = self._p
        root = int(root) % p
        V = self._as_array(vec)
        n = len(V)
        if n == 1:
            return ((1 - root) * V) % p
        # out = rot(V) - root*V via one cached fancy-index gather: values
        # are < p <= 2**31, so the pre-reduction difference fits int64.
        # This call runs once per (x - tag) factor — the innermost encode
        # step — so it is worth keeping at four array operations.
        index = self._rot_index.get(n)
        if index is None:
            index = np.concatenate(([n - 1], np.arange(n - 1)))
            self._rot_index[n] = index
        out = V[index]
        out -= root * V
        out %= p
        return out

    def linear_factor(self, root: int, length: int):
        coeffs = np.zeros(length, dtype=np.int64)
        p = self._p
        coeffs[0] = (-int(root)) % p
        if length > 1:
            coeffs[1] = 1 % p
        else:
            coeffs[0] = (coeffs[0] + 1) % p
        return coeffs

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def horner_many(self, vectors, point: int):
        """One mat-vec with the point's power vector when no dot product
        can overflow int64 (``width * (p-1)^2 < 2^63``, canonical
        coefficients), else a Horner sweep down the columns.  Both give
        ``sum(c_i * point^i) mod p`` exactly."""
        matrix = self._matrix(vectors)
        rows, width = matrix.shape
        if rows == 0:
            return []
        p = self._p
        if width == 0:
            return [0] * rows
        point = int(point) % p
        if width * (p - 1) ** 2 < 2**63:
            return ((matrix @ self._powers(point, width)) % p).tolist()
        accumulator = matrix[:, width - 1] % p
        for column in range(width - 2, -1, -1):
            accumulator = (accumulator * point + matrix[:, column]) % p
        return accumulator.tolist()

    def eval_points(self, coeffs, points):
        if hasattr(coeffs, "tolist"):
            coeffs = coeffs.tolist()
        P = self._as_array(list(points)) % self._p
        if P.size == 0:
            return []
        if not coeffs:
            return [0] * len(P)
        p = self._p
        accumulator = np.full(len(P), coeffs[-1] % p, dtype=np.int64)
        for coefficient in reversed(coeffs[:-1]):
            accumulator = (accumulator * P + coefficient % p) % p
        return accumulator.tolist()

    # ------------------------------------------------------------------
    # Bulk surface
    # ------------------------------------------------------------------

    def weighted_sum(self, vectors, weights):
        matrix = self.stack(vectors)
        weights = [int(w) for w in weights]
        if matrix.shape[0] != len(weights):
            raise FieldError(
                "weighted sum needs one weight per vector, got %d vectors and %d weights"
                % (matrix.shape[0], len(weights))
            )
        if matrix.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        p = self._p
        W = np.asarray(weights, dtype=np.int64) % p
        scaled = (W[:, None] * matrix) % p
        return scaled.sum(axis=0) % p

    def sum_rows(self, vectors):
        matrix = self.stack(vectors)
        if matrix.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return matrix.sum(axis=0) % self._p


class NumpyTableKernel(_NumpyMixin, TableKernel):
    """Vectorized log/exp-table lookups for small (extension) fields.

    Reuses the parent's generator search and table construction, mirrors
    the tables into int64 arrays, and replaces per-element list indexing
    with whole-vector fancy indexing (``exp[log[a] + log[b]]`` with zero
    operands masked out, since ``log[0]`` is a placeholder).  Convolutions
    decompose the pairwise field products into base-``p`` digit planes —
    field addition is digit-wise mod ``p`` under the canonical base-``p``
    packing — accumulate each plane with exact integer sums, reduce mod
    ``p`` once, and repack via a dot with the ``p``-power vector.
    """

    def __init__(self, field: Field):
        super().__init__(field)
        q = self._q
        self._np_exp = np.asarray(self._exp, dtype=np.int64)
        self._np_log = np.asarray(self._log, dtype=np.int64)
        self._np_neg = np.asarray(self._neg, dtype=np.int64)
        self._np_add = np.asarray(self._add, dtype=np.int64)
        p, e = field.characteristic, field.degree
        self._p_char = p
        self._e = e
        # row v = little-endian base-p digits of canonical element v
        values = np.arange(q, dtype=np.int64)
        digits = np.empty((q, e), dtype=np.int64)
        for d in range(e):
            digits[:, d] = values % p
            values //= p
        self._digit_planes = digits
        self._p_powers = p ** np.arange(e, dtype=np.int64)

    # ------------------------------------------------------------------
    # Vectors
    # ------------------------------------------------------------------

    def vec_add(self, a, b):
        A, B = self._as_array(a), self._as_array(b)
        return self._np_add[A * self._q + B]

    def vec_sub(self, a, b):
        A, B = self._as_array(a), self._as_array(b)
        return self._np_add[A * self._q + self._np_neg[B]]

    def vec_neg(self, a):
        return self._np_neg[self._as_array(a)]

    def vec_scale(self, a, scalar: int):
        A = self._as_array(a)
        scalar = int(scalar)
        if scalar == 0:
            return np.zeros(len(A), dtype=np.int64)
        products = self._np_exp[self._log[scalar] + self._np_log[A]]
        return np.where(A == 0, 0, products)

    # ------------------------------------------------------------------
    # Convolution via digit planes
    # ------------------------------------------------------------------

    def _product_planes(self, A: "np.ndarray", B: "np.ndarray") -> "np.ndarray":
        """Digit planes of every pairwise field product ``A[i] * B[j]``."""
        products = self._np_exp[self._np_log[A][:, None] + self._np_log[B][None, :]]
        mask = (A[:, None] == 0) | (B[None, :] == 0)
        products = np.where(mask, 0, products)
        return self._digit_planes[products]

    def _accumulate(self, planes: "np.ndarray", out_len: int) -> "np.ndarray":
        """Sum product planes along anti-diagonals (linear convolution)."""
        n, m, e = planes.shape
        out = np.zeros((out_len, e), dtype=np.int64)
        for i in range(n):
            out[i : i + m] += planes[i]
        return out

    def _repack(self, plane_sums: "np.ndarray") -> "np.ndarray":
        """Reduce digit planes mod p and repack into canonical elements."""
        return (plane_sums % self._p_char) @ self._p_powers

    def convolve(self, a, b):
        if not len(a) or not len(b):
            return np.empty(0, dtype=np.int64)
        A, B = self._as_array(a), self._as_array(b)
        planes = self._product_planes(A, B)
        return self._repack(self._accumulate(planes, len(A) + len(B) - 1))

    def cyclic_convolve(self, a, b):
        n = len(a)
        if len(b) != n:
            raise FieldError(
                "cyclic convolution needs equal lengths, got %d and %d" % (n, len(b))
            )
        A, B = self._as_array(a), self._as_array(b)
        plane_sums = self._accumulate(self._product_planes(A, B), 2 * n - 1)
        if n > 1:
            plane_sums[: n - 1] += plane_sums[n:]
        return self._repack(plane_sums[:n])

    def cyclic_mul_linear(self, root: int, vec):
        V = self._as_array(vec)
        negated_root = self._neg[self.field.validate(int(root))]
        if len(V) == 1:
            factor = self._add[self.field.one * self._q + negated_root]
            return self.vec_scale(V, factor)
        rotated = np.concatenate((V[-1:], V[:-1]))
        if negated_root == 0:
            return rotated
        return self.vec_add(rotated, self.vec_scale(V, negated_root))

    def linear_factor(self, root: int, length: int):
        return self._as_array(super().linear_factor(root, length))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def horner_many(self, vectors, point: int):
        matrix = self._matrix(vectors)
        rows, width = matrix.shape
        if rows == 0:
            return []
        if width == 0:
            return [0] * rows
        point = int(point)
        if point == 0:
            # Horner at 0 degenerates to the constant term, as in the
            # scalar path.
            return matrix[:, 0].tolist()
        exp, log, add, q = self._np_exp, self._np_log, self._np_add, self._q
        log_point = self._log[point]
        accumulator = np.zeros(rows, dtype=np.int64)
        for column in range(width - 1, -1, -1):
            scaled = np.where(
                accumulator == 0, 0, exp[log_point + log[accumulator]]
            )
            accumulator = add[scaled * q + matrix[:, column]]
        return accumulator.tolist()

    def eval_points(self, coeffs, points):
        if hasattr(coeffs, "tolist"):
            coeffs = coeffs.tolist()
        P = self._as_array(list(points))
        if P.size == 0:
            return []
        if not coeffs:
            return [0] * len(P)
        exp, log, add, q = self._np_exp, self._np_log, self._np_add, self._q
        log_points = log[P]
        zero_points = P == 0
        accumulator = np.zeros(len(P), dtype=np.int64)
        for coefficient in reversed(coeffs):
            scaled = np.where(
                (accumulator == 0) | zero_points,
                0,
                exp[log_points + log[accumulator]],
            )
            accumulator = add[scaled * q + coefficient]
        return accumulator.tolist()

    # ------------------------------------------------------------------
    # Bulk surface
    # ------------------------------------------------------------------

    def weighted_sum(self, vectors, weights):
        matrix = self.stack(vectors)
        weights = [int(w) for w in weights]
        if matrix.shape[0] != len(weights):
            raise FieldError(
                "weighted sum needs one weight per vector, got %d vectors and %d weights"
                % (matrix.shape[0], len(weights))
            )
        if matrix.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        combined = self.vec_scale(matrix[0], weights[0])
        for row, weight in zip(matrix[1:], weights[1:]):
            combined = self.vec_add(combined, self.vec_scale(row, weight))
        return combined

    def sum_rows(self, vectors):
        matrix = self.stack(vectors)
        if matrix.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        # field addition is digit-wise mod p under base-p packing, so the
        # whole stack sums exactly via digit planes
        plane_sums = self._digit_planes[matrix].sum(axis=0)
        return self._repack(plane_sums)


#: largest prime order the numpy prime kernel serves: (p-1)^2 + (p-1) must
#: fit in int64 so a Horner step never overflows
MAX_NUMPY_PRIME = 2**31 - 1


def make_numpy_kernel(field: Field) -> FieldKernel:
    """Build the best numpy-backed kernel for ``field``, with fallbacks.

    Raises :class:`KernelUnavailableError` when numpy is not importable.
    Fields the int64 kernels cannot serve fall back to the best non-numpy
    backend rather than erroring: primes above :data:`MAX_NUMPY_PRIME` get
    the big-integer :class:`PrimeKernel`, extension fields past
    :data:`MAX_TABLE_ORDER` (whose log/exp tables we refuse to build) get
    :class:`NaiveKernel`.
    """
    if np is None:
        raise KernelUnavailableError(
            "the 'numpy' kernel backend requires numpy; "
            "install it with `pip install repro[fast]` or `pip install numpy`"
        )
    if field.degree == 1:
        if field.order <= MAX_NUMPY_PRIME:
            return NumpyPrimeKernel(field)
        return PrimeKernel(field)
    if field.order <= MAX_TABLE_ORDER:
        return NumpyTableKernel(field)
    return NaiveKernel(field)


#: the selectable kernel backends ("numpy" is registered unconditionally so
#: requesting it without numpy installed raises KernelUnavailableError
#: rather than an unknown-backend error)
KERNEL_BACKENDS = {
    "naive": NaiveKernel,
    "numpy": make_numpy_kernel,
    "prime": PrimeKernel,
    "table": TableKernel,
}

#: largest field order for which the table kernel is auto-selected — its
#: q x q addition table and O(q^2) construction are only a win for the
#: small fields the encoding targets; bigger extension fields fall back to
#: the naive dispatched path (callers may still build a TableKernel
#: explicitly if they accept the cost)
MAX_TABLE_ORDER = 512

#: process-wide default backend (None = per-field auto-selection) and the
#: generation counter that invalidates every Field's cached kernel when the
#: default changes — Field.kernel stores (generation, kernel) and rebuilds
#: on mismatch, so a mid-process switch takes effect atomically everywhere
_DEFAULT_BACKEND: Optional[str] = None
_GENERATION = 0


def kernel_generation() -> int:
    """Monotonic counter identifying the current kernel configuration."""
    return _GENERATION


def default_backend() -> Optional[str]:
    """The process-wide default backend, or None for auto-selection."""
    return _DEFAULT_BACKEND


def set_default_backend(backend: Optional[str]) -> None:
    """Set (or clear, with ``None``) the process-wide default backend.

    Validates eagerly — an unknown name raises :class:`FieldError` and
    ``"numpy"`` without numpy installed raises
    :class:`KernelUnavailableError` — then bumps the kernel generation so
    every cached ``Field.kernel`` (and per-field overrides set through
    ``Field.set_kernel_backend``) rebuilds on next access.
    """
    global _DEFAULT_BACKEND, _GENERATION
    if backend is not None:
        if backend not in KERNEL_BACKENDS:
            raise FieldError(
                "unknown kernel backend %r; expected one of %s"
                % (backend, sorted(KERNEL_BACKENDS))
            )
        if backend == "numpy" and np is None:
            raise KernelUnavailableError(
                "the 'numpy' kernel backend requires numpy; "
                "install it with `pip install repro[fast]` or `pip install numpy`"
            )
    _DEFAULT_BACKEND = backend
    _GENERATION += 1


def make_kernel(field: Field, backend: str = None) -> FieldKernel:
    """Build the kernel for ``field``.

    Without an explicit ``backend`` the process-wide default (see
    :func:`set_default_backend`) applies first; failing that the cheapest
    valid implementation is chosen: the vectorized numpy kernel for prime
    fields up to :data:`MAX_NUMPY_PRIME` when numpy is importable (direct
    modular arithmetic otherwise, and for bigger primes), log/exp tables
    for extension fields up to :data:`MAX_TABLE_ORDER` elements, and the
    naive dispatched path beyond that (where the one-time O(q^2) table
    build would dwarf any realistic workload).  Extension fields stay on
    the pure-Python table kernel even with numpy installed: at the small
    orders the encoding targets its per-call array overhead loses to plain
    list indexing.  ``backend`` may name any entry of :data:`KERNEL_BACKENDS`
    (the ``"naive"`` backend is the pre-kernel reference path used for
    differential testing and benchmarking; ``"numpy"`` selects the
    vectorized kernels and requires numpy).
    """
    if backend is None:
        backend = _DEFAULT_BACKEND
    if backend is None:
        if field.degree == 1:
            backend = "numpy" if np is not None and field.order <= MAX_NUMPY_PRIME else "prime"
        elif field.order <= MAX_TABLE_ORDER:
            backend = "table"
        else:
            backend = "naive"
    try:
        kernel_factory = KERNEL_BACKENDS[backend]
    except KeyError:
        raise FieldError(
            "unknown kernel backend %r; expected one of %s"
            % (backend, sorted(KERNEL_BACKENDS))
        )
    return kernel_factory(field)
