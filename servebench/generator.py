"""The load generator: one process, one event loop, few connections.

Concurrency comes from several outstanding requests per connection,
matched by ``id``.  Request frames are encoded before a phase starts;
while it runs a reply is parsed only far enough to read its ``id`` (the
frame's ``seq``) and ``ok`` flag.  Large replies are cut down to their
JSON section plus pre-chosen float samples as they arrive, so memory
stays small; everything is decoded and checked after the clock stops.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import frames
from workloads import SampledGrid, expected_points

#: Replies larger than this are sampled on arrival instead of kept whole.
KEEP_WHOLE_BYTES = 4096
#: Float samples kept per series of a large reply (plus both ends).
SAMPLES_PER_SERIES = 8
DRAIN_TIMEOUT = 30.0


@dataclass
class Phase:
    """Pre-encoded requests of one measured phase and what came back."""

    name: str
    requests: list[dict[str, Any]]
    id_base: int
    due: list[float] | None = None  # open loop: offsets from phase start
    frames: list[bytes] = field(default_factory=list)
    picks: dict[int, dict[str, tuple[int, ...]]] = field(default_factory=dict)
    sent: list[float] = field(default_factory=list)
    recv: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    replies: list[Any] = field(default_factory=list)
    next_index: int = 0
    received: int = 0
    sending: bool = True
    aborted: bool = False
    window: tuple[float, float] = (0.0, 0.0)
    snapshots: dict[str, Any] = field(default_factory=dict)
    exhausted: bool = False
    strays: list[int] = field(default_factory=list)
    backlog_end: int = 0

    def __post_init__(self) -> None:
        n = len(self.requests)
        rng = random.Random(f"picks/{self.name}/{self.id_base}")
        for i, request in enumerate(self.requests):
            request["id"] = self.id_base + i
            self.frames.append(frames.encode_request(request))
            if request["op"] == "curve" or "intensities" in request:
                count = expected_points(request)
                chosen = {0, count - 1}
                chosen.update(rng.randrange(count) for _ in range(SAMPLES_PER_SERIES))
                picks = tuple(sorted(chosen))
                self.picks[i] = {"values": picks, "intensities": picks}
                grid = request.get("intensities")
                if grid is not None:
                    # Keep only what verification reads of a large grid.
                    request["intensities"] = SampledGrid(
                        len(grid), {k: grid[k] for k in picks}
                    )
        self.sent = [0.0] * n
        self.recv = [0.0] * n
        self.ok = [False] * n
        self.replies = [None] * n
        self._done = asyncio.get_running_loop().create_future()
        self.out_of_input = asyncio.Event()

    @property
    def outstanding(self) -> int:
        return self.next_index - self.received

    def settled(self) -> bool:
        return not self.sending and self.received >= self.next_index

    def check_settled(self) -> None:
        if self.settled() and not self._done.done():
            self._done.set_result(None)

    async def drain(self, timeout: float = DRAIN_TIMEOUT) -> bool:
        """Stop sending, wait for every reply, then drop unsent input."""
        self.sending = False
        self.check_settled()
        try:
            await asyncio.wait_for(asyncio.shield(self._done), timeout)
        except (asyncio.TimeoutError, TimeoutError):
            return False
        n = self.next_index
        self.frames = []
        for series in (self.requests, self.sent, self.recv, self.ok, self.replies):
            del series[n:]
        return True


class Connection(asyncio.Protocol):
    """One TCP connection in binary framing, demultiplexing by ``seq``."""

    def __init__(self) -> None:
        self.transport: asyncio.Transport | None = None
        self.phase: Phase | None = None
        self.on_replies: Callable[["Connection", int], None] | None = None
        self._buffer = bytearray()
        self._hello: asyncio.Future | None = None
        self.closed = asyncio.get_running_loop().create_future()
        self.bytes_in = 0
        self.bytes_out = 0

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        loop = asyncio.get_running_loop()
        _, conn = await loop.create_connection(cls, host, port)
        conn._hello = loop.create_future()
        conn.transport.write(frames.HELLO_LINE)
        line = await asyncio.wait_for(conn._hello, 30.0)
        if not frames.hello_accepted(line):
            raise ConnectionError(f"binary wire refused: {line!r}")
        return conn

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(exc)
        if self._hello is not None and not self._hello.done():
            self._hello.set_exception(ConnectionError("closed during hello"))

    def write(self, data: bytes) -> None:
        self.bytes_out += len(data)
        self.transport.write(data)

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        self.bytes_in += len(data)
        buffer = self._buffer
        buffer += data
        if self._hello is not None and not self._hello.done():
            cut = buffer.find(b"\n")
            if cut < 0:
                return
            self._hello.set_result(bytes(buffer[: cut + 1]))
            del buffer[: cut + 1]
        phase = self.phase
        consumed = 0
        count = 0
        for seq, start, stop in frames.split_frames(buffer):
            consumed = stop
            frame = bytes(buffer[start:stop])
            if phase is None:
                continue
            i = seq - phase.id_base
            if not 0 <= i < len(phase.recv) or phase.recv[i]:
                phase.strays.append(seq)
                continue
            phase.recv[i] = now
            phase.ok[i] = frames.reply_ok(frame)
            if len(frame) > KEEP_WHOLE_BYTES:
                phase.replies[i] = frames.sample_frame(frame, phase.picks.get(i, {}))
            else:
                phase.replies[i] = frame
            phase.received += 1
            count += 1
        if consumed:
            del buffer[:consumed]
        if count and self.on_replies is not None:
            self.on_replies(self, count)
        if phase is not None and not phase.sending:
            phase.check_settled()

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


def _send(phase: Phase, conn: Connection, count: int, now: float) -> None:
    """Send the next ``count`` closed-loop requests on ``conn``."""
    start = phase.next_index
    stop = min(start + count, len(phase.frames))
    if stop < start + count:
        phase.exhausted = True
        phase.out_of_input.set()
    if stop <= start:
        return
    phase.next_index = stop
    for i in range(start, stop):
        phase.sent[i] = now
    conn.write(b"".join(phase.frames[start:stop]))


async def closed_loop(
    conns: list[Connection],
    phase: Phase,
    outstanding: int,
    warmup: float,
    window: float,
    snapshot: Callable[[], Any],
) -> None:
    """Keep ``outstanding`` requests in flight; measure one window."""

    def on_replies(conn: Connection, count: int) -> None:
        if phase.sending:
            _send(phase, conn, count, time.perf_counter())

    for conn in conns:
        conn.phase = phase
        conn.on_replies = on_replies
    share = [outstanding // len(conns)] * len(conns)
    for k in range(outstanding % len(conns)):
        share[k] += 1
    now = time.perf_counter()
    for conn, count in zip(conns, share):
        _send(phase, conn, count, now)
    await asyncio.sleep(warmup)
    phase.snapshots["start"] = snapshot()
    start = time.perf_counter()
    try:
        # A program fast enough to use up the pre-encoded input ends the
        # window early; the rate is still replies over the window's length.
        await asyncio.wait_for(phase.out_of_input.wait(), window)
    except (asyncio.TimeoutError, TimeoutError):
        pass
    phase.snapshots["end"] = snapshot()
    phase.window = (start, time.perf_counter())
    ok = await phase.drain()
    for conn in conns:
        conn.on_replies = None
    if not ok:
        raise RuntimeError(f"{phase.name}: replies missing after {DRAIN_TIMEOUT} s")


async def open_loop(
    conns: list[Connection],
    phase: Phase,
    backlog_limit: int,
    snapshot: Callable[[], Any] | None = None,
) -> None:
    """Send each request at its due time, whatever the replies do.

    Latency is later taken from the due time, so a stall that delays
    sending is charged to the requests it delayed.  The phase aborts
    (and is marked failed) once the backlog passes ``backlog_limit``.
    """
    assert phase.due is not None
    for conn in conns:
        conn.phase = phase
        conn.on_replies = None
    due = phase.due
    n = len(due)
    nconn = len(conns)
    start = time.perf_counter() + 0.002
    if snapshot is not None:
        phase.snapshots["start"] = snapshot()
    i = 0
    while i < n:
        now = time.perf_counter()
        rel = now - start
        j = i
        while j < n and due[j] <= rel:
            j += 1
        if j > i:
            batches: list[list[bytes]] = [[] for _ in range(nconn)]
            for k in range(i, j):
                phase.sent[k] = now
                batches[k % nconn].append(phase.frames[k])
            phase.next_index = j
            for conn, batch in zip(conns, batches):
                if batch:
                    conn.write(b"".join(batch))
            i = j
            if phase.outstanding > backlog_limit:
                phase.aborted = True
                break
            continue
        await asyncio.sleep(max(0.0, due[i] - rel))
    phase.backlog_end = phase.outstanding
    if snapshot is not None:
        phase.snapshots["end"] = snapshot()
    phase.window = (start, time.perf_counter())
    phase.due = [start + d for d in due]
    if not await phase.drain():
        raise RuntimeError(f"{phase.name}: replies missing after {DRAIN_TIMEOUT} s")
