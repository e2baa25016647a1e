"""Layer spans recorded from outside the program.

:func:`install` replaces the public functions of each layer module with
wrappers that open a span on entry and close it on exit.  A span's *self
time* is its duration minus the durations of the spans it caused (its
direct children on the same thread), so the self times of one thread add
up to the time that thread spent inside any layer; the rest of the traced
wall clock is unaccounted (``other``).

Spans on threads other than the one that enabled the tracer (the asyncio
transport's event-loop thread) overlap the main thread's wait for a reply.
They are kept apart and never added into the main thread's sum.

Wrapping happens once per process, before the traced deployment is
built, so bound methods captured at construction time are wrappers too.
The tracer records nothing while :attr:`Tracer.enabled` is false (the
oracle checks run in that state).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: layer name -> (module, [class names] or None for its public functions)
#: Every class listed contributes its public methods (and ``__init__`` when
#: named in ``CONSTRUCTORS``); a ``None`` entry wraps the module's public
#: top-level functions instead.
LAYERS: Dict[str, List[Tuple[str, Any]]] = {
    "xmldoc": [
        ("repro.xmldoc.parser", None),
        ("repro.xmldoc.parser", ["StreamingParser", "TreeBuilder"]),
        ("repro.xmldoc.serializer", None),
        ("repro.xmldoc.numbering", ["PrePostNumbering"]),
    ],
    "xpath": [
        ("repro.xpath.parser", None),
        ("repro.xpath.rewrite", None),
    ],
    "engines": [
        ("repro.engines.base", ["EncryptedQueryEngine"]),
        ("repro.engines.simple", ["SimpleQueryEngine"]),
        ("repro.engines.advanced", ["AdvancedQueryEngine"]),
        ("repro.engines.plaintext", ["PlaintextEngine"]),
    ],
    "encode": [
        ("repro.encode.encoder", ["Encoder", "EncodedDatabase", "_EncodingHandler"]),
        ("repro.encode.deploy", None),
        ("repro.encode.deploy", ["ClusterDeployment"]),
        ("repro.encode.tagmap", ["TagMap"]),
    ],
    "encode.mutate": [
        ("repro.encode.mutate", ["DocumentState", "WriteDelta"]),
    ],
    "prg": [
        ("repro.prg.generator", ["KeyedPRG"]),
    ],
    "poly": [
        ("repro.poly.ring", ["QuotientRing"]),
    ],
    "gf": [
        ("repro.gf.kernels", "KERNELS"),
    ],
    "secretshare": [
        ("repro.secretshare.scheme", ["SharingScheme"]),
        ("repro.secretshare.additive", ["AdditiveSharing", "AdditiveNSharing"]),
        ("repro.secretshare.shamir", ["ShamirSharing"]),
    ],
    "storage": [
        ("repro.storage.table", ["Table"]),
        ("repro.storage.database", ["Database"]),
    ],
    "server": [
        ("repro.filters.server", ["ServerFilter"]),
    ],
    "client": [
        ("repro.filters.client", ["ClientFilter"]),
    ],
    "cluster": [
        ("repro.filters.cluster", ["ClusterClient"]),
    ],
    "codec": [
        ("repro.rmi.codec", ["Codec"]),
    ],
    "transport": [
        ("repro.rmi.transport", ["SimulatedTransport"]),
        ("repro.rmi.proxy", ["Registry"]),
        ("repro.rmi.cluster", ["ClusterTransport"]),
        ("repro.rmi.aio", ["AsyncClusterTransport"]),
        ("repro.rmi.server", ["SocketCluster"]),
    ],
    # Blocking on a reply from the event-loop thread: the part of a
    # transport call the main thread spends waiting.
    "transport.wait": [
        ("repro.rmi.aio", ["LoopThread"]),
    ],
    "write": [
        ("repro.rmi.write", ["WriteCoordinator", "WriteJournal"]),
    ],
}

#: classes whose construction is real work (a full re-encode, a fleet spawn)
CONSTRUCTORS = {"DocumentState", "ServerFilter", "ClientFilter", "Encoder"}

#: per-element scalar arithmetic: far too fine-grained to span
SCALAR_KERNEL_METHODS = {"add", "sub", "neg", "mul", "inv", "div", "pow"}

#: kernel methods whose time is reported as ``gf.horner_s``
HORNER_METHODS = {"horner", "horner_many", "eval_points"}


class Tracer:
    """Per-thread span stacks with per-layer self-time accumulation."""

    def __init__(self) -> None:
        self.enabled = False
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (layer, function) -> self seconds on the main thread
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: layer -> self seconds on every other thread
        self.offthread_s: Dict[str, float] = defaultdict(float)
        #: layer -> entries into the layer from outside it (every thread)
        self.calls: Dict[str, int] = defaultdict(int)
        #: codec payload bytes encoded plus decoded
        self.codec_bytes = 0
        #: functions wrapped by :func:`install`
        self.wrapped = 0

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Tuple[List[Any], List[Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [layer, 0.0, time.perf_counter()]
        stack.append(frame)
        if parent is None or parent[0] != layer:
            with self._lock:
                self.calls[layer] += 1
        return stack, frame

    def close(self, stack: List[List[Any]], frame: List[Any], name: str) -> None:
        duration = time.perf_counter() - frame[2]
        stack.pop()
        if stack:
            stack[-1][1] += duration
        own = duration - frame[1]
        layer = frame[0]
        if threading.get_ident() == self.main_thread:
            self.self_s[(layer, name)] += own
        else:
            with self._lock:
                self.offthread_s[layer] += own

    def count_codec_bytes(self, count: int) -> None:
        with self._lock:
            self.codec_bytes += count

    def open_spans(self) -> int:
        """Spans open on the calling thread (0 between operations)."""
        return len(self._stack())

    # -- summaries ------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for (layer, _), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(totals)

    def function_self(self, layer: str, names: Iterable[str]) -> float:
        wanted = set(names)
        return sum(
            seconds
            for (span_layer, name), seconds in self.self_s.items()
            if span_layer == layer and name in wanted
        )


def _span(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):

        def generator_wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                if not tracer.enabled:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                else:
                    stack, frame = tracer.open(layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(stack, frame, name)
                yield item

        wrapper = generator_wrapper
    elif layer == "codec":

        def codec_wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, frame = tracer.open(layer)
            try:
                value = fn(*args, **kwargs)
            finally:
                tracer.close(stack, frame, name)
            tracer.count_codec_bytes(len(value if name == "encode" else args[-1]))
            return value

        wrapper = codec_wrapper
    else:

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, frame = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(stack, frame, name)

    return functools.update_wrapper(wrapper, fn)


def _kernel_classes(module: Any) -> List[str]:
    from repro.gf.kernels import FieldKernel

    return [
        name
        for name, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, FieldKernel)
    ]


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for name, attribute in list(vars(cls).items()):
        public = not name.startswith("_") or (
            name == "__init__" and cls.__name__ in CONSTRUCTORS
        )
        if cls.__name__ == "_EncodingHandler":
            # the encoder's SAX callbacks: encode work the parser drives
            public = name in ("start_element", "end_element", "flush")
        if not public:
            continue
        if layer == "gf" and name in SCALAR_KERNEL_METHODS:
            continue
        if isinstance(attribute, (staticmethod, classmethod)):
            wrapper = type(attribute)(_span(tracer, layer, name, attribute.__func__))
        elif inspect.isfunction(attribute) and not inspect.iscoroutinefunction(attribute):
            wrapper = _span(tracer, layer, name, attribute)
        else:
            continue  # properties, constants, coroutines
        setattr(cls, name, wrapper)
        tracer.wrapped += 1


def _wrap_functions(tracer: Tracer, layer: str, module: Any) -> None:
    replaced: Dict[int, Callable] = {}
    for name, value in list(vars(module).items()):
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue  # an import, wrapped (or not) where it is defined
        wrapper = _span(tracer, layer, name, value)
        setattr(module, name, wrapper)
        replaced[id(value)] = wrapper
        tracer.wrapped += 1
    # ``from module import fn`` bound the original elsewhere: rebind it.
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(other).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                setattr(other, name, wrapper)


def install() -> Tracer:
    """Wrap every layer's public functions and return the (idle) tracer."""
    tracer = Tracer()
    for layer, targets in LAYERS.items():
        for module_name, names in targets:
            module = importlib.import_module(module_name)
            if names is None:
                _wrap_functions(tracer, layer, module)
                continue
            if names == "KERNELS":
                names = _kernel_classes(module)
            for class_name in names:
                _wrap_class(tracer, layer, getattr(module, class_name))
    return tracer
