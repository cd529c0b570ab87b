"""Wire protocol for the serving tier: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding a single object.  This module is
the one wire layer: the read payload (:func:`_result_payload`), the
batch rows (:func:`_batch_rows`), the semantics/method vocabulary and
the request-stream grammar (:func:`_parse_stream_line`) live here, and
the CLI's ``--json`` output and its ``batch``/``watch`` stream files use
the same code, so a scripted consumer of ``repro query --json`` reads
server replies unchanged.

A request stream (a ``batch`` op's ``lines``, a CLI stream file) holds
one op per line: ``assert: <atoms>`` / ``retract: <atoms>`` (text-DSL
database fragments), ``answers(x, y): <query>`` for open queries, and
anything else a closed query (an optional ``query:`` prefix is
dropped); blank lines and ``#`` comments are skipped.

Requests are objects with an ``op`` field and an optional caller-chosen
``id`` echoed back on the reply::

    {"op": "execute", "id": 7, "query": "Boot(a) & a < b & Crash(b)"}

Replies carry ``ok`` plus either the op's payload or a structured
``error``, and a server-assigned global ``seq`` — the position of the
op in the server's single serialization order (what makes the
concurrent-equals-sequential differential checkable)::

    {"id": 7, "seq": 42, "ok": true, "entailed": true, "method": "seq"}
    {"id": 7, "seq": 43, "ok": false,
     "error": {"type": "parse", "message": "..."}}

Server-pushed frames (``watch`` deltas) have an ``event`` field instead
of ``id``; clients must tolerate them between any two replies.

Op fields beyond the query text: ``execute`` takes ``countermodel: true``
to add the rendered falsifying model (or ``null``) to a not-entailed
reply; ``watch`` takes the ``lines`` of the request stream that will
drive it, so its query resolves the constants those writes introduce
(as a ``batch`` stream's query lines do); ``unwatch`` replies with the
view's ``full_refreshes``, ``delta_refreshes`` and ``delta_capable``.
A ``batch`` reply's ``mode`` is always ``stream``: the stream runs in
process through :func:`~repro.engine.batch.execute_stream`.

Replica extensions (``repro serve --replica-of``) ride the same frames:

* every reply from a replica — ok or error — additionally carries
  ``applied_seq``, the primary ``seq`` of the last WAL record the
  replica's session has applied (its read-your-writes token);
* read requests may carry ``min_seq``: a replica whose ``applied_seq``
  is still below it answers with a structured :class:`ReplicaLagging`
  error instead of serving stale state (primaries ignore the field);
* write/watch/prepare ops sent to a replica get a structured
  :class:`ReadOnly` error — those ops belong to the primary.

Both replica errors keep the connection open: they are routing signals
for :class:`~repro.server.client.ReplicaRouter`, not protocol damage.

Failure taxonomy — the split every handler relies on:

* :class:`PayloadError` — the *frame* was well-formed but its body was
  not (bad JSON, not an object).  The stream is still in sync, so the
  server answers with a structured error reply and keeps the
  connection.
* :class:`FrameError` — the framing itself broke (oversized length
  prefix, truncated frame).  Frame boundaries are now unknowable, so
  the connection must close — after a best-effort error frame.
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.api.plan import METHODS as _METHODS
from repro.core.database import IndefiniteDatabase
from repro.core.errors import ReproError
from repro.core.semantics import Semantics
from repro.core.sorts import objvar
from repro.engine.batch import Mutation, QueryRequest
from repro.substrate.parser import (
    parse_database,
    parse_query,
    scan_order_names,
)

#: Frame prefix: payload byte length, big-endian (network order).
_PREFIX = struct.Struct("!I")

#: Default inbound/outbound frame-size cap.  Generous for answer sets,
#: far below anything a framing desync could ask us to allocate.
MAX_FRAME = 4 * 1024 * 1024

#: Wire names of the semantics a read may ask for (``_METHODS``, the
#: method names, is :data:`repro.api.plan.METHODS`).
_SEMANTICS = {"fin": Semantics.FIN, "z": Semantics.Z, "q": Semantics.Q}

#: Request-stream write prefixes and the session mutator each names.
_WRITE_VERBS = (("assert:", "assert_facts"), ("retract:", "retract_facts"))


class ProtocolError(ReproError):
    """Base class for wire-protocol failures."""


class FrameError(ProtocolError):
    """Framing broke (oversize/truncated): the connection must close."""


class PayloadError(ProtocolError):
    """A well-framed but undecodable body: reply with an error, keep going."""


class ReadOnly(ProtocolError):
    """A write/watch/prepare op reached a read-only replica.

    Surfaced to clients as an ``ok: false`` reply with error type
    ``"ReadOnly"``; the router reacts by sending the op to the primary.
    """


class ReplicaLagging(ProtocolError):
    """A read's ``min_seq`` is ahead of the replica's ``applied_seq``.

    Surfaced as error type ``"ReplicaLagging"``; the router reacts by
    backing off and retrying, or falling back to the primary once its
    bounded wait expires.  Serving the read anyway would break
    read-your-writes.
    """


def encode_frame(payload: dict, max_frame: int = MAX_FRAME) -> bytes:
    """Serialize one JSON object into a length-prefixed frame."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    if len(body) > max_frame:
        raise FrameError(
            f"outbound frame of {len(body)} bytes exceeds the "
            f"{max_frame}-byte cap"
        )
    return _PREFIX.pack(len(body)) + body


def _decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PayloadError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise PayloadError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


async def read_frame_async(reader, max_frame: int = MAX_FRAME) -> dict | None:
    """Read one frame from an :mod:`asyncio` stream reader.

    Returns ``None`` on clean EOF (no bytes mid-frame).  Raises
    :class:`FrameError` on an oversized length or a truncated frame,
    :class:`PayloadError` on an undecodable body.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-frame") from exc
    (length,) = _PREFIX.unpack(prefix)
    if length > max_frame:
        raise FrameError(
            f"inbound frame of {length} bytes exceeds the "
            f"{max_frame}-byte cap"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return _decode_body(body)


def read_frame_sync(rfile, max_frame: int = MAX_FRAME) -> dict | None:
    """Read one frame from a blocking binary file (client side).

    Same contract as :func:`read_frame_async`.
    """
    prefix = rfile.read(_PREFIX.size)
    if not prefix:
        return None
    if len(prefix) < _PREFIX.size:
        raise FrameError("connection closed mid-frame")
    (length,) = _PREFIX.unpack(prefix)
    if length > max_frame:
        raise FrameError(
            f"inbound frame of {length} bytes exceeds the "
            f"{max_frame}-byte cap"
        )
    body = rfile.read(length)
    if len(body) < length:
        raise FrameError("connection closed mid-frame")
    return _decode_body(body)


# -- request streams and reply payloads --------------------------------------


def _stream_write(line: str) -> tuple[str, str] | None:
    """``(mutator kind, fragment text)`` of a write line, else ``None``."""
    line = line.strip()
    for verb, kind in _WRITE_VERBS:
        if line.startswith(verb):
            return kind, line[len(verb):]
    return None


def _stream_order_names(lines, names=()) -> set[str]:
    """Sort inference over every stream write, on top of ``names``.

    A constant that only a later ``assert:`` line orders must already be
    order-sorted where the base database merely labels it (one spelling
    at two sorts is a :class:`~repro.core.errors.SortError`), so the
    fragments are scanned together before any of them is parsed.
    """
    names = set(names)
    for line in lines:
        write = _stream_write(line)
        if write is not None:
            names |= scan_order_names(write[1])
    return names


def _stream_vocabulary(
    db: IndefiniteDatabase, lines, order_names: set[str]
) -> IndefiniteDatabase:
    """The database plus every atom any stream write mentions.

    Query lines resolve constants against this *vocabulary* database, so
    a name introduced only by a later ``assert:`` line is still parsed
    as a constant (of the right sort) rather than as a variable.
    Execution always runs against the session's real state — a query
    naming a not-yet-asserted constant is simply not entailed yet.
    """
    vocab = db
    for line in lines:
        write = _stream_write(line)
        if write is not None:
            vocab = vocab.union(
                parse_database(write[1], extra_order=order_names)
            )
    return vocab


def _parse_stream_line(
    line: str, db: IndefiniteDatabase, order_names=frozenset()
) -> QueryRequest | Mutation | None:
    """One request-stream line -> a QueryRequest or Mutation (or None).

    ``db`` is the vocabulary queries resolve constants against and
    ``order_names`` the stream-wide sort inference (see
    :func:`_stream_vocabulary` and :func:`_stream_order_names`).
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    write = _stream_write(line)
    if write is not None:
        kind, text = write
        fragment = parse_database(text, extra_order=order_names)
        return Mutation(kind, tuple(fragment.atoms()))
    if line.startswith("answers(") and "):" in line:
        names, _, rest = line[len("answers("):].partition("):")
        free = tuple(
            objvar(n.strip()) for n in names.split(",") if n.strip()
        )
        return QueryRequest(parse_query(rest, db), free_vars=free)
    if line.startswith("query:"):
        line = line[len("query:"):]
    return QueryRequest(parse_query(line, db))


def _parse_stream(lines, db: IndefiniteDatabase, order_names) -> list:
    """A request stream's ops, in order (blank/comment lines dropped)."""
    ops = (_parse_stream_line(line, db, order_names) for line in lines)
    return [op for op in ops if op is not None]


def _result_payload(result) -> dict:
    """A read's reply payload: verdict or answer set, plus the method."""
    if result.answers is not None:
        return {
            "answers": sorted(list(a) for a in result.answers),
            "count": len(result.answers),
            "method": result.method,
        }
    return {"entailed": result.holds, "method": result.method}


def _batch_rows(ops, results) -> list[dict]:
    """One row per stream op: the write's atoms or the read's payload."""
    rows = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(op, Mutation):
            rows.append({"op": i, "kind": op.kind,
                         "atoms": [str(a) for a in op.atoms]})
        else:
            rows.append({"op": i, "kind": "query",
                         **_result_payload(result)})
    return rows


__all__ = [
    "FrameError",
    "MAX_FRAME",
    "PayloadError",
    "ProtocolError",
    "ReadOnly",
    "ReplicaLagging",
    "encode_frame",
    "read_frame_async",
    "read_frame_sync",
]
