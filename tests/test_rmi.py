"""Tests for the RMI-style codec, transport, proxies and call accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rmi.codec import Codec, CodecError
from repro.rmi.proxy import Registry, RemoteProxy
from repro.rmi.stats import CallStats
from repro.rmi.transport import SimulatedTransport

CODEC = Codec()

#: the array-frame width boundaries: each signed/unsigned limit, +-1
_FRAME_BOUNDARIES = sorted(
    {
        edge + delta
        for bits in (7, 8, 15, 16, 31, 32, 63, 64)
        for edge in (2**bits, -(2**bits))
        for delta in (-1, 0, 1)
    }
    | {0}
)
_FRAME_INTS = st.sampled_from(_FRAME_BOUNDARIES) | st.integers(
    min_value=-(2**66), max_value=2**66
)


def _frame_width(values):
    """Narrowest array-frame element width for ``values``, or None."""
    low, high = min(values), max(values)
    for width in (1, 2, 4, 8):
        bits = 8 * width
        if 0 <= low and high < 2**bits:
            return width
        if -(2 ** (bits - 1)) <= low and high < 2 ** (bits - 1):
            return width
    return None


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**80,
            3.5,
            "",
            "héllo wörld",
            b"",
            b"\x00\x01binary",
            [],
            [1, "two", None, [3, 4]],
            {"a": 1, "b": [True, {"c": "d"}]},
        ],
    )
    def test_roundtrip(self, value):
        assert CODEC.decode(CODEC.encode(value)) == value

    def test_tuples_decode_as_lists(self):
        assert CODEC.decode(CODEC.encode((1, 2, 3))) == [1, 2, 3]

    def test_int_vector_roundtrip(self):
        """Homogeneous int lists take the compact vector form."""
        vectors = [
            [0],
            [1, -2, 3],
            list(range(-500, 500)),
        ]
        for vector in vectors:
            payload = CODEC.encode(vector)
            assert payload[0:1] == b"V"
            assert CODEC.decode(payload) == vector

    def test_int_vector_is_smaller_than_generic_list(self):
        vector = list(range(1000))
        generic_size = sum(len(CODEC.encode(v)) for v in vector) + 5
        assert len(CODEC.encode(vector)) < generic_size

    def test_bools_and_huge_ints_fall_back_to_generic_list(self):
        for value in ([True, 1], [1, False], [10**300, 1], [2**80, -(2**80), 0], []):
            payload = CODEC.encode(value)
            assert payload[0:1] == b"L"
            decoded = CODEC.decode(payload)
            assert decoded == value
            # bool identity is preserved (True must not decode as 1)
            for original, roundtripped in zip(value, decoded):
                assert type(original) is type(roundtripped)

    def test_numpy_scalars_fall_back_to_generic_ints(self):
        np = pytest.importorskip("numpy")
        for value in ([np.int64(5), 3], [np.int64(-(2**63)), np.int64(2**63 - 1)]):
            payload = CODEC.encode(value)
            assert payload[0:1] == b"L"
            decoded = CODEC.decode(payload)
            assert decoded == [int(element) for element in value]
            assert all(type(element) is int for element in decoded)
        for value in ([[np.int64(1), 2], [3, 4]], {"k": np.int32(-7)}):
            assert CODEC.decode(CODEC.encode(value)) == value

    def test_truncated_int_vector_rejected(self):
        payload = CODEC.encode([1, 2, 3])
        with pytest.raises(CodecError):
            CODEC.decode(payload[:-1])

    @pytest.mark.parametrize(
        "value", [[1, 2, 3], [-1, 2**40], [[1, 2], [3, 4], [5, 6]], [[-(2**20), 7]]]
    )
    def test_truncated_array_frames_rejected_at_every_byte(self, value):
        payload = CODEC.encode(value)
        assert payload[0:1] in (b"V", b"W")
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                CODEC.decode(payload[:cut])

    @pytest.mark.parametrize("width_byte", [0x00, 0x03, 0x10, 0x80, 0x83, 0xFF])
    def test_unknown_width_byte_rejected(self, width_byte):
        for value, header in (([1, 2], 5), ([[1, 2], [3, 4]], 9)):
            payload = bytearray(CODEC.encode(value))
            payload[header] = width_byte
            with pytest.raises(CodecError):
                CODEC.decode(bytes(payload))

    def test_zero_column_matrix_frame_rejected(self):
        payload = b"W" + (3).to_bytes(4, "big") + (0).to_bytes(4, "big") + b"\x01"
        with pytest.raises(CodecError):
            CODEC.decode(payload)

    @settings(max_examples=200, deadline=None)
    @given(vector=st.lists(_FRAME_INTS, min_size=1, max_size=12))
    def test_int_vector_frame_property(self, vector):
        """Every packable vector takes the narrowest ``V`` frame; the rest
        fall back to the generic list; both round-trip exactly."""
        payload = CODEC.encode(vector)
        assert CODEC.decode(payload) == vector
        width = _frame_width(vector)
        if width is None:
            assert payload[0:1] == b"L"
        else:
            assert payload[0:1] == b"V"
            assert len(payload) == 1 + 4 + 1 + width * len(vector)

    @settings(max_examples=200, deadline=None)
    @given(
        matrix=st.lists(
            st.lists(_FRAME_INTS, min_size=1, max_size=5), min_size=1, max_size=5
        )
        | st.integers(min_value=1, max_value=5).flatmap(
            lambda cols: st.lists(
                st.lists(_FRAME_INTS, min_size=cols, max_size=cols),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_int_matrix_frame_property(self, matrix):
        """Rectangular packable matrices take one ``W`` block at the
        narrowest width; ragged or unpackable ones the generic list."""
        payload = CODEC.encode(matrix)
        assert CODEC.decode(payload) == matrix
        cols = len(matrix[0])
        width = _frame_width([element for row in matrix for element in row])
        if width is None or any(len(row) != cols for row in matrix):
            assert payload[0:1] == b"L"
        else:
            assert payload[0:1] == b"W"
            assert len(payload) == 1 + 4 + 4 + 1 + width * len(matrix) * cols

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CodecError):
            CODEC.encode({1: "a"})

    def test_arbitrary_objects_rejected(self):
        class Opaque:
            pass

        with pytest.raises(CodecError):
            CODEC.encode(Opaque())

    def test_trailing_bytes_rejected(self):
        payload = CODEC.encode(42) + b"junk"
        with pytest.raises(CodecError):
            CODEC.decode(payload)

    def test_truncated_payload_rejected(self):
        payload = CODEC.encode("hello")
        with pytest.raises(CodecError):
            CODEC.decode(payload[:-2])

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            CODEC.decode(b"Z")

    @settings(max_examples=80, deadline=None)
    @given(
        value=st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.text(max_size=20)
            | st.binary(max_size=20),
            lambda children: st.lists(children, max_size=5)
            | st.dictionaries(st.text(max_size=5), children, max_size=5),
            max_leaves=20,
        )
    )
    def test_roundtrip_property(self, value):
        assert CODEC.decode(CODEC.encode(value)) == value


class _EchoService:
    """A tiny server object used to exercise the transport and proxies."""

    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value

    def add(self, a, b=0):
        return a + b

    def fail(self):
        raise RuntimeError("server-side failure")

    def leak_object(self):
        return object()


class TestTransport:
    def test_invoke_roundtrips_arguments_and_result(self):
        transport = SimulatedTransport()
        service = _EchoService()
        assert transport.invoke(service, "echo", ({"k": [1, 2]},)) == {"k": [1, 2]}
        assert transport.invoke(service, "add", (2,), {"b": 3}) == 5

    def test_stats_accumulate(self):
        stats = CallStats()
        transport = SimulatedTransport(per_call_latency=0.5, per_byte_latency=0.0, stats=stats)
        service = _EchoService()
        transport.invoke(service, "echo", ("x",))
        transport.invoke(service, "echo", ("y",))
        assert stats.calls == 2
        assert stats.bytes_sent > 0
        assert stats.bytes_received > 0
        assert stats.simulated_latency == pytest.approx(1.0)
        assert stats.calls_by_method == {"echo": 2}

    def test_server_exception_propagates(self):
        transport = SimulatedTransport()
        with pytest.raises(RuntimeError):
            transport.invoke(_EchoService(), "fail")

    def test_server_exception_still_recorded_in_stats(self):
        """A failed call must not be invisible: counts, bytes and the error
        flag are recorded even when the server method raises."""
        stats = CallStats()
        transport = SimulatedTransport(per_call_latency=0.25, stats=stats)
        with pytest.raises(RuntimeError):
            transport.invoke(_EchoService(), "fail")
        assert stats.calls == 1
        assert stats.errors == 1
        assert stats.calls_by_method == {"fail": 1}
        assert stats.errors_by_method == {"fail": 1}
        assert stats.bytes_sent > 0
        assert stats.bytes_received == 0
        assert stats.simulated_latency == pytest.approx(0.25)
        # A subsequent successful call keeps the error count at 1.
        transport.invoke(_EchoService(), "echo", ("x",))
        assert stats.calls == 2
        assert stats.errors == 1

    def test_unserialisable_result_rejected(self):
        transport = SimulatedTransport()
        with pytest.raises(CodecError):
            transport.invoke(_EchoService(), "leak_object")

    def test_unserialisable_result_recorded_as_error(self):
        stats = CallStats()
        transport = SimulatedTransport(stats=stats)
        with pytest.raises(CodecError):
            transport.invoke(_EchoService(), "leak_object")
        assert stats.calls == 1
        assert stats.errors == 1

    def test_per_query_accounting(self):
        stats = CallStats()
        transport = SimulatedTransport(stats=stats)
        assert stats.calls_per_query == 0.0
        assert stats.bytes_per_query == 0.0
        transport.invoke(_EchoService(), "echo", (1,))
        transport.invoke(_EchoService(), "echo", (2,))
        stats.count_query()
        assert stats.queries == 1
        assert stats.calls_per_query == 2.0
        assert stats.bytes_per_query == float(stats.total_bytes)
        snapshot = stats.snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["errors"] == 0
        assert snapshot["calls_per_query"] == 2.0
        stats.reset()
        assert stats.queries == 0 and stats.errors == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SimulatedTransport(per_call_latency=-1)

    def test_stats_reset(self):
        stats = CallStats()
        transport = SimulatedTransport(stats=stats)
        transport.invoke(_EchoService(), "echo", (1,))
        stats.reset()
        assert stats.calls == 0
        assert stats.total_bytes == 0
        assert stats.calls_by_method == {}

    def test_stats_snapshot(self):
        stats = CallStats()
        SimulatedTransport(stats=stats).invoke(_EchoService(), "echo", (1,))
        snapshot = stats.snapshot()
        assert snapshot["calls"] == 1
        assert snapshot["total_bytes"] == snapshot["bytes_sent"] + snapshot["bytes_received"]


class TestProxyAndRegistry:
    def test_proxy_routes_calls_through_transport(self):
        transport = SimulatedTransport()
        service = _EchoService()
        proxy = RemoteProxy(service, transport)
        assert proxy.echo("hello") == "hello"
        assert proxy.add(1, b=2) == 3
        assert transport.stats.calls == 2
        assert service.calls == 1

    def test_proxy_unknown_method(self):
        proxy = RemoteProxy(_EchoService(), SimulatedTransport())
        with pytest.raises(AttributeError):
            proxy.does_not_exist()

    def test_registry_bind_lookup(self):
        registry = Registry()
        service = _EchoService()
        registry.bind("echo", service)
        stub = registry.lookup("echo")
        assert stub.echo(5) == 5
        assert registry.names() == ["echo"]

    def test_registry_bind_twice_rejected(self):
        registry = Registry()
        registry.bind("echo", _EchoService())
        with pytest.raises(KeyError):
            registry.bind("echo", _EchoService())

    def test_registry_rebind_and_unbind(self):
        registry = Registry()
        registry.rebind("echo", _EchoService())
        registry.rebind("echo", _EchoService())
        registry.unbind("echo")
        with pytest.raises(KeyError):
            registry.lookup("echo")
        with pytest.raises(KeyError):
            registry.unbind("echo")

    def test_registry_shares_one_transport(self):
        registry = Registry()
        registry.bind("a", _EchoService())
        registry.bind("b", _EchoService())
        registry.lookup("a").echo(1)
        registry.lookup("b").echo(2)
        assert registry.transport.stats.calls == 2
