"""Implementations of the CLI subcommands.

Each ``cmd_*`` function takes the parsed ``argparse`` namespace and returns a
process exit code.  They print human-readable summaries to stdout and raise
:class:`CommandError` for user-facing failures (missing files, malformed
inputs), which the dispatcher turns into exit code 2.
"""

from __future__ import annotations

import argparse
import os

from repro.encode.encoder import Encoder, NODE_TABLE_NAME
from repro.encode.tagmap import TagMap, TagMapError
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.simple import SimpleQueryEngine
from repro.experiments import (
    render_record,
    run_accuracy_experiment,
    run_encoding_experiment,
    run_query_length_experiment,
    run_strictness_experiment,
    run_trie_compression_experiment,
)
from repro.experiments.workloads import build_database
from repro.filters.client import ClientFilter
from repro.filters.interface import MatchRule
from repro.filters.server import CorruptibleServerFilter, ServerFilter
from repro.gf.factory import field_for_alphabet, make_field
from repro.poly.ring import QuotientRing
from repro.prg.generator import KeyedPRG
from repro.prg.seed import SeedFile
from repro.secretshare.additive import AdditiveSharing
from repro.storage.database import Database
from repro.trie.transform import TrieTransformer
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import parse_document, parse_string
from repro.xmldoc.serializer import serialize
from repro.xpath.parser import parse_query
from repro.xpath.rewrite import rewrite_for_trie


class CommandError(Exception):
    """A user-facing CLI failure (bad arguments, missing files, …)."""


def _require_file(path: str, description: str) -> str:
    if not os.path.exists(path):
        raise CommandError("%s not found: %s" % (description, path))
    return path


# ----------------------------------------------------------------------
# genxmark
# ----------------------------------------------------------------------


def cmd_genxmark(args: argparse.Namespace) -> int:
    """Generate a synthetic auction document and write it to disk."""
    if args.scale <= 0:
        raise CommandError("--scale must be positive, got %r" % args.scale)
    document = generate_document(scale=args.scale, seed=args.seed)
    text = serialize(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(
        "wrote %s: %d elements, %d bytes (scale %.3f, seed %d)"
        % (args.output, document.element_count(), len(text.encode("utf-8")), args.scale, args.seed)
    )
    return 0


# ----------------------------------------------------------------------
# makemap / makeseed
# ----------------------------------------------------------------------


def cmd_makemap(args: argparse.Namespace) -> int:
    """Create a tag map file from a DTD or a sample document."""
    if args.dtd is None and args.xml is None:
        raise CommandError("makemap needs --dtd or --xml to define the tag alphabet")
    names = []
    if args.dtd == "xmark":
        names.extend(XMARK_DTD.element_names())
    if args.xml is not None:
        document = parse_document(_require_file(args.xml, "XML document"))
        for tag in sorted(document.distinct_tags()):
            if tag not in names:
                names.append(tag)
    if args.trie:
        for tag in TrieTransformer().tag_alphabet():
            if tag not in names:
                names.append(tag)
    field = None
    if args.p is not None:
        field = make_field(args.p, args.e)
    try:
        tag_map = TagMap.from_names(names, field=field, shuffle_seed=args.shuffle_seed)
    except TagMapError as error:
        raise CommandError(str(error)) from error
    tag_map.save(args.output)
    print("wrote %s: %d tags over F_%d" % (args.output, len(tag_map), tag_map.field.order))
    return 0


def cmd_makeseed(args: argparse.Namespace) -> int:
    """Generate a fresh seed file (the encryption key)."""
    try:
        seed = SeedFile.generate(args.num_bytes)
    except ValueError as error:
        raise CommandError(str(error)) from error
    seed.save(args.output)
    print("wrote %s: %d random bytes — keep this file secret" % (args.output, args.num_bytes))
    return 0


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------


def _load_map(args: argparse.Namespace) -> TagMap:
    try:
        return TagMap.load(_require_file(args.map_path, "map file"), p=args.p, e=args.e)
    except TagMapError as error:
        raise CommandError(str(error)) from error


def _load_seed(args: argparse.Namespace) -> bytes:
    try:
        return SeedFile.load(_require_file(args.seed_path, "seed file")).seed
    except ValueError as error:
        raise CommandError(str(error)) from error


def cmd_encode(args: argparse.Namespace) -> int:
    """Encode a plaintext document into the secret-shared server database."""
    tag_map = _load_map(args)
    seed = _load_seed(args)
    with open(_require_file(args.xml_path, "XML document"), "r", encoding="utf-8") as handle:
        xml_text = handle.read()
    if args.trie:
        document = parse_string(xml_text)
        document = TrieTransformer().transform_document(document)
        xml_text = serialize(document)
    try:
        encoded = Encoder(tag_map, seed).encode_text(xml_text)
    except TagMapError as error:
        raise CommandError(
            "%s — regenerate the map file so it covers every tag of the document" % error
        ) from error
    encoded.database.save(args.output)
    stats = encoded.stats
    print("wrote %s" % args.output)
    print("  nodes           : %d" % stats.node_count)
    print("  input size      : %d bytes" % stats.input_bytes)
    print("  output size     : %d bytes (%.2fx input)" % (stats.output_bytes, stats.expansion_ratio))
    print("  index size      : %d bytes" % stats.index_bytes)
    print("  structure share : %.1f%%" % (stats.structure_fraction * 100.0))
    print("  encode time     : %.3f s" % stats.encoding_seconds)
    return 0


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------


def cmd_query(args: argparse.Namespace) -> int:
    """Run one query against a previously encoded server database."""
    tag_map = _load_map(args)
    seed = _load_seed(args)
    database = Database.load(_require_file(args.db_path, "server database"))
    if NODE_TABLE_NAME not in database:
        raise CommandError("%s does not contain a node table" % args.db_path)

    ring = QuotientRing(tag_map.field)
    server = ServerFilter(database.table(NODE_TABLE_NAME), ring)
    sharing = AdditiveSharing(ring, KeyedPRG(seed, tag_map.field))
    client = ClientFilter(server, sharing, tag_map)
    engine = SimpleQueryEngine(client) if args.engine == "simple" else AdvancedQueryEngine(client)

    parsed = parse_query(args.xpath)
    if args.trie:
        parsed = rewrite_for_trie(parsed)
    rule = MatchRule.from_strict_flag(args.strict)
    result = engine.execute(parsed, rule=rule)

    print("query        : %s" % args.xpath)
    print("engine       : %s   test: %s" % (args.engine, rule.value))
    print("matches      : %d node(s)" % result.result_size)
    if result.matches:
        print("pre numbers  : %s" % ", ".join(str(pre) for pre in result.matches))
    print("evaluations  : %d" % result.evaluations)
    print("equality     : %d" % result.equality_tests)
    print("elapsed      : %.4f s" % result.elapsed_seconds)
    return 0


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------


def cmd_server(args: argparse.Namespace) -> int:
    """Serve one encoded share database over a real socket.

    This is the daemon half of a :class:`~repro.rmi.server.SocketCluster`
    deployment (and of the ``repro-server`` entry point): it loads the node
    table written by ``encode`` / :meth:`Database.save`, rebuilds the ring
    from ``--p``/``--e``, and answers the full ``ServerFilter`` protocol
    over the multiplexed socket wire until a ``__shutdown__`` request
    (or Ctrl-C).  On startup it prints one READY line announcing the bound
    port and its pid — the handshake a spawning parent waits for.
    """
    import sys as _sys
    import threading as _threading

    from repro.rmi.methods import SERVER_METHODS
    from repro.rmi.server import SocketServer, format_ready_line
    from repro.rmi.socket import DEFAULT_MAX_FRAME_BYTES

    database = Database.load(_require_file(args.db_path, "server database"))
    if NODE_TABLE_NAME not in database:
        raise CommandError("%s does not contain a node table" % args.db_path)
    if args.p is not None and args.p < 2:
        raise CommandError("--p must be a prime >= 2, got %d" % args.p)
    try:
        ring = QuotientRing(make_field(args.p, args.e))
    except Exception as error:
        raise CommandError("cannot build F_{%d^%d}: %s" % (args.p, args.e, error)) from error
    table = database.table(NODE_TABLE_NAME)
    # --chaos exports the share-corruption fault injector; chaos harnesses
    # only — a production fleet must never expose it on the wire.
    chaos = bool(getattr(args, "chaos", False))
    filter_class = CorruptibleServerFilter if chaos else ServerFilter
    server_filter = filter_class(table, ring)
    # A fleet server's wire surface is exactly the declarative spec table
    # (plus the chaos injector when explicitly gated on): an endpoint must
    # be registered in repro.rmi.methods to be remotely callable.
    method_table = SERVER_METHODS | frozenset(("corrupt_share",)) if chaos else SERVER_METHODS
    server = SocketServer(
        server_filter,
        host=args.host,
        port=args.port,
        unix_path=args.unix_path,
        name=args.name or "repro-server",
        max_frame_bytes=args.max_frame_bytes or DEFAULT_MAX_FRAME_BYTES,
        delay=args.delay,
        method_table=method_table,
    )
    if args.parent_watch:
        # The spawning parent holds our stdin pipe: EOF means it is gone
        # (crashed, SIGKILLed, or just exited), so shut down rather than
        # linger as an orphan holding the port and the share table.  Read
        # the raw fd — a daemon thread parked in the *buffered* stdin
        # reader holds its lock and crashes interpreter shutdown
        # ("could not acquire lock ... at interpreter shutdown").
        stdin_fd = _sys.stdin.fileno()

        def _watch_parent() -> None:
            try:
                while os.read(stdin_fd, 4096):
                    pass
            except OSError:  # pragma: no cover - stdin already closed
                pass
            server.close()

        _threading.Thread(target=_watch_parent, daemon=True, name="parent-watch").start()
    address = server.start()
    print(format_ready_line(address, len(table)))
    _sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
    return 0


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------


def _parse_server_endpoint(text: str) -> "object":
    """Parse one ``--server HOST:PORT`` argument into a ServerAddress."""
    from repro.rmi.socket import ServerAddress

    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise CommandError("--server expects HOST:PORT, got %r" % text)
    try:
        port = int(port_text)
    except ValueError:
        raise CommandError("--server expects a numeric port, got %r" % text) from None
    if not 0 < port < 65536:
        raise CommandError("--server port out of range: %r" % text)
    return ServerAddress(host=host, port=port)


def cmd_gateway(args: argparse.Namespace) -> int:
    """Serve many concurrent client sessions over one share-server fleet.

    The daemon half of the ``repro-gateway`` entry point: it dials the
    already-running share servers named by ``--server`` (one multiplexed
    asyncio connection each), rebuilds the deployment's sharing scheme from
    the seed file and ``--p``/``--e``/``--sharing``/``--threshold``, and
    serves the single-server ``ServerFilter`` surface to any number of
    concurrent clients — each connection an isolated session, every share
    read scatter-gathered, verified and combined gateway-side.  On startup
    it prints one READY line announcing the bound port and its pid (the
    ``nodes=`` field counts the fleet's servers).
    """
    import sys as _sys
    import threading as _threading

    from repro.prg.generator import KeyedPRG as _KeyedPRG
    from repro.rmi.aio import AsyncClusterTransport
    from repro.rmi.gateway import AsyncClusterClient, Gateway
    from repro.rmi.server import format_ready_line
    from repro.rmi.socket import DEFAULT_MAX_FRAME_BYTES
    from repro.secretshare import make_scheme
    from repro.secretshare.scheme import SharingError

    seed = _load_seed(args)
    servers = [_parse_server_endpoint(text) for text in args.servers]
    if args.p < 2:
        raise CommandError("--p must be a prime >= 2, got %d" % args.p)
    try:
        ring = QuotientRing(make_field(args.p, args.e))
    except Exception as error:
        raise CommandError("cannot build F_{%d^%d}: %s" % (args.p, args.e, error)) from error
    prg = _KeyedPRG(seed, ring.field)
    try:
        scheme = make_scheme(
            args.sharing, ring, prg, servers=len(servers), threshold=args.threshold
        )
    except (ValueError, SharingError) as error:
        raise CommandError(str(error)) from error
    if args.cache_bytes < 0:
        raise CommandError("--cache-bytes must be non-negative, got %d" % args.cache_bytes)
    if args.fair_cap < 1:
        raise CommandError("--fair-cap must be positive, got %d" % args.fair_cap)
    max_frame_bytes = args.max_frame_bytes or DEFAULT_MAX_FRAME_BYTES
    try:
        cluster = AsyncClusterTransport(
            servers,
            max_frame_bytes=max_frame_bytes,
            hedge=args.hedge or False,
        )
    except ValueError as error:
        raise CommandError(str(error)) from error
    try:
        # Fail fast on an unusable session configuration (e.g. a read
        # quorum below the scheme threshold) instead of erroring per
        # connecting client later.
        AsyncClusterClient(
            cluster, scheme, read_quorum=args.read_quorum, verify_shares=args.verify_shares
        )
    except (ValueError, SharingError) as error:
        raise CommandError(str(error)) from error
    gateway = Gateway(
        cluster,
        scheme,
        read_quorum=args.read_quorum,
        verify_shares=args.verify_shares,
        host=args.host,
        port=args.port,
        unix_path=args.unix_path,
        max_frame_bytes=max_frame_bytes,
        name=args.name or "repro-gateway",
        cache_bytes=args.cache_bytes,
        fair=args.fair,
        fair_session_cap=args.fair_cap,
    )
    if args.parent_watch:
        # Same orphan protection as cmd_server: parent's stdin pipe EOF
        # means the spawning process died — shut down with it.
        stdin_fd = _sys.stdin.fileno()

        def _watch_parent() -> None:
            try:
                while os.read(stdin_fd, 4096):
                    pass
            except OSError:  # pragma: no cover - stdin already closed
                pass
            gateway.close()

        _threading.Thread(target=_watch_parent, daemon=True, name="parent-watch").start()
    address = gateway.start()
    print(format_ready_line(address, len(servers)))
    _sys.stdout.flush()
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        gateway.close()
    return 0


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def cmd_experiments(args: argparse.Namespace) -> int:
    """Re-run the requested paper figure(s) and print their tables."""
    if args.scale <= 0:
        raise CommandError("--scale must be positive, got %r" % args.scale)
    selection = args.figure
    records = []
    if selection in ("4", "all"):
        records.append(run_encoding_experiment(scales=[args.scale * step for step in range(1, 11)]))
    if selection in ("5", "6", "7", "all"):
        database = build_database(scale=args.scale)
        if selection in ("5", "all"):
            records.append(run_query_length_experiment(database=database))
        if selection in ("6", "all"):
            records.append(run_strictness_experiment(database=database))
        if selection in ("7", "all"):
            records.append(run_accuracy_experiment(database=database))
    if selection in ("trie", "all"):
        records.append(run_trie_compression_experiment())
    for record in records:
        print(render_record(record))
        print()
    return 0
