"""The serving protocol's binary wire v1, written out for the generator.

The benchmark speaks the wire on its own so that rewrites of the
program's client or codec cannot move the yardstick.  A connection
starts with one NDJSON ``hello`` line; after an affirmative answer both
directions carry frames::

    header  <2sBBHHIQ  magic "RB" | version 1 | kind | flags
                       | nsections | body_len | seq
    section <BBHI      type (1 JSON, 2 float64) | dtype | name_len
                       | payload_len, then name, then payload

Responses echo the request ``id`` as ``seq`` and their JSON section
starts with ``{"ok":true`` or ``{"ok":false``, which is all the
generator reads while the clock runs.
"""

from __future__ import annotations

import json
import struct
from typing import Any

HEADER = struct.Struct("<2sBBHHIQ")
SECTION = struct.Struct("<BBHI")
MAGIC = b"RB"
VERSION = 1
KIND_REQUEST = 1
KIND_RESPONSE = 2
SECTION_JSON = 1
SECTION_F64 = 2
F64 = struct.Struct("<d")
OK_PREFIX = b'{"ok":true'

HELLO_LINE = b'{"id":0,"op":"hello","wire":["binary"]}\n'


class FrameError(ValueError):
    """A reply that does not parse as a wire v1 frame."""


def hello_accepted(line: bytes) -> bool:
    """Whether the NDJSON answer to :data:`HELLO_LINE` switches to binary."""
    try:
        reply = json.loads(line)
    except ValueError:
        return False
    result = reply.get("result") if isinstance(reply, dict) else None
    return (
        isinstance(result, dict)
        and reply.get("ok") is True
        and result.get("wire") == "binary"
        and result.get("version") == VERSION
    )


def encode_request(request: dict[str, Any]) -> bytes:
    """One request frame for ``request`` (which must carry an int ``id``).

    A grid (``intensities``) travels as a raw float64 section, as the
    protocol's clients send it; everything else is the JSON section.
    """
    grid = request.get("intensities")
    if grid is not None:
        request = {k: v for k, v in request.items() if k != "intensities"}
    blob = json.dumps(request, separators=(",", ":")).encode("utf-8")
    parts = [SECTION.pack(SECTION_JSON, 0, 0, len(blob)), blob]
    if grid is not None:
        raw = struct.pack(f"<{len(grid)}d", *grid)
        name = b"intensities"
        parts += [SECTION.pack(SECTION_F64, 1, len(name), len(raw)), name, raw]
    body = b"".join(parts)
    nsections = 1 if grid is None else 2
    header = HEADER.pack(
        MAGIC, VERSION, KIND_REQUEST, 0, nsections, len(body), request["id"]
    )
    return header + body


def split_frames(buffer: bytearray):
    """Yield ``(seq, frame_start, frame_end)`` for each complete frame.

    Stops at the first incomplete frame; the caller keeps the tail.
    """
    size = HEADER.size
    start = 0
    end = len(buffer)
    while end - start >= size:
        magic, version, _kind, _flags, _n, body_len, seq = HEADER.unpack_from(
            buffer, start
        )
        if magic != MAGIC or version != VERSION:
            raise FrameError(f"bad frame header at offset {start}")
        stop = start + size + body_len
        if stop > end:
            return
        yield seq, start, stop
        start = stop


def reply_ok(frame: bytes | bytearray | memoryview) -> bool:
    """The ``ok`` flag of a response frame, read from its first bytes."""
    offset = HEADER.size + SECTION.size
    return bytes(frame[offset : offset + len(OK_PREFIX)]) == OK_PREFIX


def sample_frame(frame: bytes, picks: dict[str, tuple[int, ...]]) -> tuple:
    """A compact copy of a large response frame.

    Keeps the JSON section whole, and of each float64 section only its
    length and the values at the pre-chosen indices in ``picks``.
    Returns ``(json_bytes, {name: (length, {index: value})})``.
    """
    view = memoryview(frame)
    nsections = HEADER.unpack_from(view, 0)[4]
    offset = HEADER.size
    blob = b""
    arrays: dict[str, tuple[int, dict[int, float]]] = {}
    for _ in range(nsections):
        stype, _dtype, name_len, payload_len = SECTION.unpack_from(view, offset)
        offset += SECTION.size
        name = bytes(view[offset : offset + name_len]).decode("utf-8")
        offset += name_len
        if stype == SECTION_JSON:
            blob = bytes(view[offset : offset + payload_len])
        else:
            count = payload_len // 8
            arrays[name] = (
                count,
                {
                    i: F64.unpack_from(view, offset + 8 * i)[0]
                    for i in picks.get(name, ())
                    if i < count
                },
            )
        offset += payload_len
    return blob, arrays


def decode_frame(frame: bytes) -> dict[str, Any]:
    """Full decode of a response frame into its envelope.

    Float sections are spliced into ``result`` as lists, as the
    protocol specifies.
    """
    blob, arrays = sections(frame)
    envelope = json.loads(blob)
    if arrays:
        result = envelope.get("result")
        if not isinstance(result, dict):
            raise FrameError("float sections on a reply without a result")
        result.update(arrays)
    return envelope


def sections(frame: bytes) -> tuple[bytes, dict[str, list[float]]]:
    """(JSON section bytes, {name: floats}) of a whole response frame."""
    if len(frame) < HEADER.size:
        raise FrameError("truncated frame")
    magic, version, _kind, _flags, nsections, body_len, _seq = (
        HEADER.unpack_from(frame, 0)
    )
    if magic != MAGIC or version != VERSION:
        raise FrameError("bad frame header")
    if HEADER.size + body_len != len(frame):
        raise FrameError("frame length does not match its header")
    offset = HEADER.size
    blob = None
    arrays: dict[str, list[float]] = {}
    for _ in range(nsections):
        stype, _dtype, name_len, payload_len = SECTION.unpack_from(frame, offset)
        offset += SECTION.size
        name = frame[offset : offset + name_len].decode("utf-8")
        offset += name_len
        payload = frame[offset : offset + payload_len]
        offset += payload_len
        if stype == SECTION_JSON:
            blob = payload
        elif stype == SECTION_F64:
            arrays[name] = list(
                struct.unpack(f"<{payload_len // 8}d", payload)
            )
        else:
            raise FrameError(f"unknown section type {stype}")
    if blob is None:
        raise FrameError("frame has no JSON section")
    return blob, arrays
