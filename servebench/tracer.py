"""Span recording around the public entry points of each serving layer.

A span is ``(id, name, start, end, parent, request_id, extra)`` with
``perf_counter`` times.  The parent is whichever span is current in the
calling context (a ``ContextVar``), so spans of one request nest under
its ``handle_request`` span; a micro-batch flush starts its own root
span, and the engine or worker call inside it nests under the flush.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from contextvars import ContextVar
from typing import Any, Callable

_current: ContextVar[int | None] = ContextVar("servebench_span", default=None)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.marks: dict[str, float] = {}
        self._ids = itertools.count()
        self._tasks: set[asyncio.Task] = set()

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "marks": self.marks}, out)

    def wrap_async(self, owner: Any, attr: str, name: str, *,
                   root: bool = False, rid: Callable | None = None) -> None:
        original = getattr(owner, attr)
        spans = self.spans

        async def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = None if root else _current.get()
            token = _current.set(sid)
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                spans.append((sid, name, start, end, parent,
                              rid(args) if rid else None, None))

        setattr(owner, attr, wrapper)

    def wrap_sync(self, owner: Any, attr: str, name: str, *,
                  root: bool = False, extra: Callable | None = None) -> None:
        original = getattr(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = None if root else _current.get()
            token = _current.set(sid)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                spans.append((sid, name, start, end, parent, None,
                              extra(args, result) if extra else None))

        setattr(owner, attr, wrapper)

    def wrap_future(self, owner: Any, attr: str, name: str) -> None:
        """A sync call returning a future: the span ends when it resolves."""
        original = getattr(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = _current.get()
            start = time.perf_counter()
            future = original(*args, **kwargs)
            future.add_done_callback(
                lambda _f: spans.append(
                    (sid, name, start, time.perf_counter(), parent, None, None)
                )
            )
            return future

        setattr(owner, attr, wrapper)


def install() -> Recorder:
    """Wrap every traced layer; returns the process's recorder."""
    from repro.service import wire
    from repro.service.batcher import MicroBatcher
    from repro.service.engine import EvalEngine
    from repro.service.router.router import BackendHandle, RouterServer
    from repro.service.server import ModelServer
    from repro.service.workers import WorkerPool

    rec = Recorder()
    request_id = lambda args: args[1].get("id") if isinstance(args[1], dict) else None  # noqa: E731
    rec.wrap_async(ModelServer, "handle_request", "server.handle", root=True, rid=request_id)
    rec.wrap_async(RouterServer, "handle_request", "router.handle", root=True, rid=request_id)
    rec.wrap_async(BackendHandle, "call", "router.backend_call")
    rec.wrap_async(WorkerPool, "submit", "workers.submit")
    rec.wrap_future(MicroBatcher, "submit", "batcher.submit")
    rec.wrap_sync(MicroBatcher, "flush", "batcher.flush", root=True)
    rec.wrap_sync(
        EvalEngine, "eval_batch", "engine.eval_batch",
        extra=lambda args, _r: len(args[4]),
    )
    rec.wrap_sync(EvalEngine, "curve_plan", "engine.curve_plan")
    rec.wrap_sync(
        wire, "decode_body", "wire.decode",
        extra=lambda args, _r: [args[0], len(args[2]) + wire.HEADER_SIZE],
    )
    rec.wrap_sync(
        wire, "encode_frame", "wire.encode",
        extra=lambda args, r: [args[0], len(r) if r is not None else 0],
    )
    _mark_ready(rec, ModelServer)
    _mark_ready(rec, RouterServer)
    return rec


def _mark_ready(rec: Recorder, cls: type) -> None:
    """``setup.ready_ms``: construction to started (and pool ready)."""
    init, start = cls.__init__, cls.start

    def traced_init(self, *args, **kwargs):
        rec.marks.setdefault("init", time.perf_counter())
        init(self, *args, **kwargs)

    async def traced_start(self, *args, **kwargs):
        address = await start(self, *args, **kwargs)
        pool = getattr(self, "pool", None)
        if pool is None:
            rec.marks["ready"] = time.perf_counter()
            return address

        async def await_pool() -> None:
            await pool.ready()
            rec.marks["ready"] = time.perf_counter()

        task = asyncio.ensure_future(await_pool())
        rec._tasks.add(task)
        task.add_done_callback(rec._tasks.discard)
        return address

    cls.__init__ = traced_init
    cls.start = traced_start
