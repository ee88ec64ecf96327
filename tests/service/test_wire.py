"""Binary wire framing: frames, negotiation, corruption, equivalence.

Four layers, one contract — framing is *never* semantic:

* **Frames.**  ``encode_frame``/``decode_body`` round-trip envelopes
  exactly: array sections carry the identical IEEE float64 values the
  JSON text form would, so the decoded envelope is bit-equal either
  way.  Every malformed header or body is a typed ``bad_frame`` error,
  never a hang or a silent misparse.
* **Negotiation.**  A connection always starts NDJSON; only an
  affirmative ``hello`` answer upgrades it.  A binary client degrades
  cleanly against an NDJSON-only server *and* against a pre-binary
  server that answers ``unknown_op``; an NDJSON client never notices
  the feature; ``hello`` after the first request is an ordinary
  unknown op.
* **Corruption.**  After the upgrade, garbage or truncation gets one
  structured ``bad_frame`` error frame and a closed connection — a
  framed stream has no resync point — bounded by a timeout, not a
  hang.
* **Equivalence.**  The same request stream over
  {ndjson, binary} x {workers 0, 4} yields canonically identical
  response payloads — the acceptance bar for "framing changes bytes,
  not answers".
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro._canon import canonical_json
from repro.exceptions import ServiceError
from repro.service import wire as wireformat
from repro.service.client import AsyncServiceClient
from repro.service.protocol import (
    BAD_FRAME,
    UNKNOWN_OP,
    decode,
    encode,
    error_response,
    ok_response,
    request_cache_key,
)
from repro.service.server import ModelServer, ServerConfig
from repro.service.wire import (
    HEADER_SIZE,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_body,
    encode_frame,
    hello_request,
    negotiated_wire,
    parse_header,
)


def run(coro):
    return asyncio.run(coro)


def decode_frame(frame: bytes):
    """Parse one full frame; returns (kind, seq, envelope)."""
    kind, nsections, body_len, seq = parse_header(frame[:HEADER_SIZE])
    body = frame[HEADER_SIZE:]
    assert len(body) == body_len
    return kind, seq, decode_body(kind, nsections, body)


# ---------------------------------------------------------------------------
# Frame round-trips
# ---------------------------------------------------------------------------


#: Builds 50 curve-sized frames in a fresh interpreter (so no earlier
#: import has moved malloc's thresholds) and prints the minor page
#: faults they cost.
_FAULT_PROBE = """
import resource, sys
import numpy as np
from repro.service.protocol import ok_response
from repro.service.wire import KIND_RESPONSE, encode_frame, settle_allocator
if sys.argv[1] == "settle":
    settle_allocator()
arrays = {"intensities": np.arange(1.0, 20002.0)}
arrays["values"] = arrays["intensities"] * 0.5
envelope = ok_response(1, {"label": "curve", "units": ""})
encode_frame(KIND_RESPONSE, 1, envelope, arrays=arrays)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    encode_frame(KIND_RESPONSE, 1, envelope, arrays=arrays)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc malloc behaviour"
)
def test_settled_allocator_builds_curve_frames_without_page_faults():
    """After ``settle_allocator`` a 20001-point curve frame (~320 KB)
    reuses heap pages instead of faulting in a fresh mapping per frame."""
    src = str(Path(wireformat.__file__).resolve().parents[2])

    def faults(mode: str) -> int:
        out = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE, mode],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        return int(out.stdout)

    unsettled, settled = faults("raw"), faults("settle")
    assert settled < 50, (unsettled, settled)
    assert unsettled > 10 * max(settled, 1), (unsettled, settled)


class TestFrameRoundTrip:
    def test_request_intensities_lift_into_a_section(self):
        grid = (2.0 ** np.linspace(-3, 6, 64)).tolist()
        request = {"id": 7, "op": "eval", "machine": "m", "intensities": grid}
        frame = encode_frame(KIND_REQUEST, 7, request)
        _, nsections, _, _ = parse_header(frame[:HEADER_SIZE])
        assert nsections == 2  # JSON envelope + one array section
        kind, seq, decoded = decode_frame(frame)
        assert (kind, seq) == (KIND_REQUEST, 7)
        # Request grids decode to read-only float64 arrays, whose
        # ``.tolist()`` is the sent list (== on floats: bit-identity).
        array = decoded["intensities"]
        assert isinstance(array, np.ndarray) and array.dtype == np.float64
        assert not array.flags.writeable
        assert {**decoded, "intensities": array.tolist()} == request

    def test_short_float_lists_stay_in_json(self):
        request = {"id": 1, "op": "eval", "intensities": [1.0, 2.0, 4.0]}
        frame = encode_frame(KIND_REQUEST, 1, request)
        _, nsections, _, _ = parse_header(frame[:HEADER_SIZE])
        assert nsections == 1
        assert decode_frame(frame)[2] == request

    def test_response_arrays_splice_into_result(self):
        values = np.sqrt(np.arange(200, dtype=np.float64))
        response = ok_response(3, {"label": "sweep"})
        frame = encode_frame(
            KIND_RESPONSE, 3, response, arrays={"values": values}
        )
        kind, seq, decoded = decode_frame(frame)
        assert (kind, seq) == (KIND_RESPONSE, 3)
        assert decoded["ok"] is True
        assert decoded["result"]["label"] == "sweep"
        assert decoded["result"]["values"] == values.tolist()

    def test_response_list_fields_lift_automatically(self):
        xs = (10.0 ** np.linspace(-2, 2, 500)).tolist()
        response = ok_response(9, {"intensities": xs, "values": xs, "n": 1})
        frame = encode_frame(KIND_RESPONSE, 9, response)
        _, nsections, _, _ = parse_header(frame[:HEADER_SIZE])
        assert nsections == 3
        decoded = decode_frame(frame)[2]
        assert decoded == response

    def test_integer_lists_are_not_lifted(self):
        response = ok_response(2, {"values": list(range(100))})
        frame = encode_frame(KIND_RESPONSE, 2, response)
        _, nsections, _, _ = parse_header(frame[:HEADER_SIZE])
        assert nsections == 1
        assert decode_frame(frame)[2] == response

    def test_error_envelope_round_trips(self):
        response = error_response(5, "bad_request", "nope")
        assert decode_frame(encode_frame(KIND_RESPONSE, 5, response))[2] == (
            response
        )

    def test_oversize_frame_is_refused_at_encode(self):
        huge = np.zeros((MAX_FRAME_BYTES // 8) + 16, dtype=np.float64)
        with pytest.raises(ServiceError) as excinfo:
            encode_frame(
                KIND_RESPONSE, 1, ok_response(1, {}), arrays={"v": huge}
            )
        assert excinfo.value.code == BAD_FRAME


# ---------------------------------------------------------------------------
# Malformed headers and bodies
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<2sBBHHIQ")


def _header(magic=b"RB", version=WIRE_VERSION, kind=KIND_REQUEST,
            nsections=1, body_len=0, seq=0):
    return _HEADER.pack(magic, version, kind, 0, nsections, body_len, seq)


class TestHeaderValidation:
    @pytest.mark.parametrize(
        "header,fragment",
        [
            (b"\x00" * 8, "truncated"),
            (_header(magic=b"XX"), "magic"),
            (_header(version=9), "version"),
            (_header(kind=7), "kind"),
            (_header(nsections=0), "no sections"),
            (_header(body_len=MAX_FRAME_BYTES + 1), "exceeds"),
        ],
    )
    def test_bad_headers_raise_bad_frame(self, header, fragment):
        with pytest.raises(ServiceError) as excinfo:
            parse_header(header)
        assert excinfo.value.code == BAD_FRAME
        assert fragment in excinfo.value.message


class TestBodyValidation:
    def _json_section(self, payload) -> bytes:
        blob = json.dumps(payload).encode()
        return struct.pack("<BBHI", 1, 0, 0, len(blob)) + blob

    def test_section_header_overrun(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 2, self._json_section({"op": "x"}))
        assert excinfo.value.code == BAD_FRAME
        assert "overruns" in excinfo.value.message

    def test_section_payload_overrun(self):
        body = struct.pack("<BBHI", 1, 0, 0, 999) + b"{}"
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 1, body)
        assert excinfo.value.code == BAD_FRAME

    def test_multiple_json_sections(self):
        body = self._json_section({"a": 1}) + self._json_section({"b": 2})
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 2, body)
        assert "multiple JSON" in excinfo.value.message

    def test_missing_json_section(self):
        raw = np.zeros(4).tobytes()
        body = struct.pack("<BBHI", 2, 1, 1, len(raw)) + b"v" + raw
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 1, body)
        assert "no JSON envelope" in excinfo.value.message

    def test_misaligned_float_section(self):
        body = self._json_section({"op": "x"}) + (
            struct.pack("<BBHI", 2, 1, 1, 7) + b"v" + b"\x00" * 7
        )
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 2, body)
        assert "float64" in excinfo.value.message

    def test_unknown_section_type(self):
        body = self._json_section({"op": "x"}) + struct.pack(
            "<BBHI", 9, 0, 0, 0
        )
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 2, body)
        assert "section type" in excinfo.value.message

    def test_trailing_bytes(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_body(
                KIND_REQUEST, 1, self._json_section({"op": "x"}) + b"junk"
            )
        assert "trailing" in excinfo.value.message

    def test_json_section_must_be_an_object(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 1, self._json_section([1, 2]))
        assert "object" in excinfo.value.message

    def test_invalid_json_bytes(self):
        blob = b"\xff\xfe{"
        body = struct.pack("<BBHI", 1, 0, 0, len(blob)) + blob
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_REQUEST, 1, body)
        assert excinfo.value.code == BAD_FRAME

    def test_response_arrays_need_a_result_object(self):
        raw = np.zeros(2).tobytes()
        body = self._json_section({"ok": False}) + (
            struct.pack("<BBHI", 2, 1, 1, len(raw)) + b"v" + raw
        )
        with pytest.raises(ServiceError) as excinfo:
            decode_body(KIND_RESPONSE, 2, body)
        assert "without a result" in excinfo.value.message


# ---------------------------------------------------------------------------
# Negotiation helpers
# ---------------------------------------------------------------------------


class TestNegotiationHelpers:
    def test_hello_request_shape(self):
        assert hello_request() == {"id": 0, "op": "hello", "wire": ["binary"]}

    @pytest.mark.parametrize(
        "response,expected",
        [
            (ok_response(0, {"wire": "binary", "version": 1}), "binary"),
            (ok_response(0, {"wire": "ndjson"}), "ndjson"),
            (ok_response(0, {"wire": "binary", "version": 2}), "ndjson"),
            (error_response(0, UNKNOWN_OP, "unknown op 'hello'"), "ndjson"),
            (ok_response(0, "binary"), "ndjson"),
            ({"ok": True}, "ndjson"),
            ("nonsense", "ndjson"),
        ],
    )
    def test_negotiated_wire_matrix(self, response, expected):
        assert negotiated_wire(response) == expected


# ---------------------------------------------------------------------------
# Negotiation over real TCP
# ---------------------------------------------------------------------------


async def start_server(**overrides) -> ModelServer:
    overrides.setdefault("cache_size", 0)
    overrides.setdefault("flush_window", 0.0)
    overrides.setdefault("port", 0)
    server = ModelServer(ServerConfig(**overrides))
    await server.start()
    return server


CURVE = {
    "op": "curve",
    "machine": "i7-950-double",
    "kind": "roofline",
    "points_per_octave": 100,
}


class TestNegotiationOverTCP:
    def test_binary_negotiated_end_to_end(self):
        async def scenario():
            server = await start_server()
            host, port = server.address
            client = await AsyncServiceClient.connect(host, port,
                                                      wire="binary")
            try:
                assert client.wire == "binary"
                result = await client.call(dict(CURVE))
                assert len(result["values"]) == 1001
                stats = await client.call({"op": "stats"})
            finally:
                await client.close()
                await server.stop()
            return stats

        stats = run(scenario())
        assert stats["counters"]["wire_binary_connections_total"] == 1
        assert stats["counters"]["wire_ndjson_connections_total"] == 0

    def test_ndjson_only_server_refuses_upgrade(self):
        async def scenario():
            server = await start_server(wire="ndjson")
            host, port = server.address
            client = await AsyncServiceClient.connect(host, port,
                                                      wire="binary")
            try:
                assert client.wire == "ndjson"
                result = await client.call(dict(CURVE))
                assert len(result["values"]) == 1001
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_prebinary_server_degrades_to_ndjson(self):
        """A server that has never heard of ``hello`` answers
        ``unknown_op`` — the client must settle on NDJSON, exactly as
        against a live pre-binary deployment."""

        async def legacy(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = decode(line)
                writer.write(encode(error_response(
                    request.get("id"), UNKNOWN_OP, "unknown op"
                )))
                await writer.drain()
            writer.close()

        async def scenario():
            legacy_server = await asyncio.start_server(
                legacy, "127.0.0.1", 0
            )
            port = legacy_server.sockets[0].getsockname()[1]
            async with legacy_server:
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", port, wire="binary"
                )
                try:
                    assert client.wire == "ndjson"
                finally:
                    await client.close()

        run(scenario())

    def test_ndjson_client_never_sees_the_feature(self):
        async def scenario():
            server = await start_server()
            host, port = server.address
            client = await AsyncServiceClient.connect(host, port)
            try:
                assert client.wire == "ndjson"
                result = await client.call(dict(CURVE))
                assert len(result["values"]) == 1001
            finally:
                await client.close()
            # The connection counter lands when the connection ends.
            await asyncio.sleep(0.05)
            stats = server.stats()
            await server.stop()
            return stats

        stats = run(scenario())
        assert stats["counters"]["wire_ndjson_connections_total"] == 1
        assert stats["counters"]["wire_binary_connections_total"] == 0

    def test_hello_after_first_request_is_unknown_op(self):
        """Only a connection's *first* request may negotiate."""

        async def scenario():
            server = await start_server()
            host, port = server.address
            client = await AsyncServiceClient.connect(host, port)
            try:
                await client.call({"op": "ping"})
                late = await client.request(hello_request(request_id=41))
            finally:
                await client.close()
                await server.stop()
            return late

        late = run(scenario())
        assert late["ok"] is False
        assert late["error"]["code"] == UNKNOWN_OP

    def test_config_rejects_unknown_wire_policy(self):
        with pytest.raises(ValueError):
            ModelServer(ServerConfig(wire="carrier-pigeon"))


# ---------------------------------------------------------------------------
# Corrupt and truncated frames
# ---------------------------------------------------------------------------


async def upgraded_raw_connection(server):
    """A raw socket that has completed the hello upgrade."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode(hello_request()))
    await writer.drain()
    reply = decode(await reader.readline())
    assert negotiated_wire(reply) == "binary"
    return reader, writer


async def read_frame(reader):
    header = await reader.readexactly(HEADER_SIZE)
    kind, nsections, body_len, _ = parse_header(header)
    body = await reader.readexactly(body_len)
    return decode_body(kind, nsections, body)


class TestCorruptFrames:
    def test_garbage_header_gets_error_frame_then_close(self):
        async def scenario():
            server = await start_server()
            reader, writer = await upgraded_raw_connection(server)
            writer.write(b"Y" * HEADER_SIZE)
            await writer.drain()
            response = await asyncio.wait_for(read_frame(reader), timeout=5)
            rest = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await server.stop()
            return response, rest

        response, rest = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == BAD_FRAME
        assert "magic" in response["error"]["message"]
        assert rest == b""  # server closed the stream after the error

    def test_truncated_body_times_out_with_structured_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(wireformat, "FRAME_BODY_TIMEOUT", 0.2)

        async def scenario():
            server = await start_server()
            reader, writer = await upgraded_raw_connection(server)
            # A header promising 64 body bytes, then only 8 — the peer
            # stalls mid-frame.
            writer.write(_header(body_len=64, seq=17) + b"x" * 8)
            await writer.drain()
            response = await asyncio.wait_for(read_frame(reader), timeout=5)
            rest = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await server.stop()
            return response, rest

        response, rest = run(scenario())
        assert response["error"]["code"] == BAD_FRAME
        assert "truncated frame body" in response["error"]["message"]
        assert rest == b""

    def test_truncated_header_at_eof_gets_error_frame(self):
        async def scenario():
            server = await start_server()
            reader, writer = await upgraded_raw_connection(server)
            writer.write(b"RB")  # a header fragment, then EOF
            await writer.drain()
            writer.write_eof()
            response = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()
            await server.stop()
            return response

        response = run(scenario())
        assert response["error"]["code"] == BAD_FRAME
        assert "truncated frame header" in response["error"]["message"]

    def test_malformed_body_sections_get_error_frame(self):
        async def scenario():
            server = await start_server()
            reader, writer = await upgraded_raw_connection(server)
            writer.write(_header(body_len=4, seq=3) + b"junk")
            await writer.drain()
            response = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()
            await server.stop()
            return response

        response = run(scenario())
        assert response["error"]["code"] == BAD_FRAME

    def test_client_survives_a_corrupt_server_frame(self):
        """A corrupt frame from the *server* side fails the pending
        call with a typed error instead of hanging the client."""

        async def evil(reader, writer):
            line = await reader.readline()
            request = decode(line)
            writer.write(encode(ok_response(
                request.get("id"), {"wire": "binary", "version": 1}
            )))
            await writer.drain()
            await reader.readexactly(HEADER_SIZE)  # swallow the request
            writer.write(b"Z" * HEADER_SIZE)  # then corrupt the stream
            await writer.drain()

        async def scenario():
            evil_server = await asyncio.start_server(evil, "127.0.0.1", 0)
            port = evil_server.sockets[0].getsockname()[1]
            async with evil_server:
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", port, wire="binary"
                )
                assert client.wire == "binary"
                with pytest.raises(ServiceError):
                    await asyncio.wait_for(
                        client.call({"op": "ping"}), timeout=5
                    )
                await client.close()

        run(scenario())


# ---------------------------------------------------------------------------
# Cross-framing, cross-topology equivalence
# ---------------------------------------------------------------------------

EQUIVALENCE_REQUESTS = [
    {"op": "ping"},
    dict(CURVE),
    dict(CURVE),  # repeat: exercises the response cache + cached flag
    {
        "op": "curve",
        "machine": "gtx580-double",
        "kind": "powerline",
        "points_per_octave": 150,
    },
    {
        "op": "eval",
        "machine": "i7-950-double",
        "model": "energy",
        "metric": "energy_per_flop",
        "intensity": 4.0,
    },
    {
        "op": "eval",
        "machine": "gtx580-double",
        "model": "capped",
        "metric": "energy_per_flop",
        "intensities": (2.0 ** np.linspace(-3.0, 6.0, 256)).tolist(),
    },
    {"op": "balance", "machine": "i7-950-double"},
    {"op": "describe", "machine": "gtx580-double"},
    {"op": "eval", "machine": "no-such-machine", "intensity": 1.0},
]


class TestWireEquivalence:
    """The acceptance sweep: responses are canonically identical
    across {ndjson, binary} x {workers 0, 4}."""

    def _payloads(self, wire: str, workers: int) -> list[str]:
        async def scenario():
            server = await start_server(cache_size=64, workers=workers)
            host, port = server.address
            if server.pool is not None:
                await server.pool.ready()
            client = await AsyncServiceClient.connect(host, port, wire=wire)
            try:
                assert client.wire == wire
                responses = []
                for body in EQUIVALENCE_REQUESTS:
                    responses.append(await client.request(dict(body)))
                return responses
            finally:
                await client.close()
                await server.stop()

        responses = run(scenario())
        # ids are client-assigned and sequential in both clients, so
        # they participate in the comparison rather than being stripped.
        return [canonical_json(response) for response in responses]

    @pytest.mark.parametrize("workers", [0, 4])
    def test_framings_agree(self, workers):
        assert self._payloads("ndjson", workers) == self._payloads(
            "binary", workers
        )

    def test_topologies_agree(self):
        """workers=0 and workers=4 serve identical payloads (binary)."""
        assert self._payloads("binary", 0) == self._payloads("binary", 4)


class TestGridRequests:
    """Binary request grids stay float64 arrays end to end; NDJSON grids
    are lists.  Both forms must answer, key the cache, and count cost
    identically."""

    GRID = {
        "op": "eval",
        "machine": "gtx580-double",
        "model": "capped",
        "metric": "energy_per_flop",
        "intensities": (2.0 ** np.linspace(-3.0, 9.0, 1000)).tolist(),
    }

    def test_array_and_list_forms_share_one_cache_key(self):
        grid = np.array(self.GRID["intensities"])
        as_array = {**self.GRID, "intensities": grid}
        assert request_cache_key(as_array) == request_cache_key(self.GRID)
        # numpy's repr elides the middle of long arrays; the key must not.
        nudged = as_array["intensities"].copy()
        nudged[500] = np.nextafter(nudged[500], 0.0)
        assert request_cache_key(
            {**self.GRID, "intensities": nudged}
        ) != request_cache_key(as_array)

    @pytest.mark.parametrize("first", ["ndjson", "binary"])
    def test_grid_eval_identical_across_framings_and_workers(self, first):
        second = "binary" if first == "ndjson" else "ndjson"

        async def scenario(workers):
            server = await start_server(cache_size=64, workers=workers)
            host, port = server.address
            if server.pool is not None:
                await server.pool.ready()
            try:
                replies = []
                for wire in (first, second):
                    client = await AsyncServiceClient.connect(
                        host, port, wire=wire
                    )
                    try:
                        replies.append(await client.request(dict(self.GRID)))
                    finally:
                        await client.close()
                return replies
            finally:
                await server.stop()

        results = []
        for workers in (0, 2):
            computed, cached = run(scenario(workers))
            assert computed["ok"] and "cached" not in computed
            # The second framing hit the entry the first one stored.
            assert cached.get("cached") is True
            results += [computed["result"], cached["result"]]
        assert len({canonical_json(result) for result in results}) == 1
        assert len(results[0]["values"]) == len(self.GRID["intensities"])
