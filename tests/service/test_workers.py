"""The sharded worker-pool execution tier.

The load-bearing assertions:

* routing is a pure function of ``(shard_by, machine, model)`` — stable
  across processes and runs, so per-shard caches stay hot;
* identical request streams through ``workers=0``, ``1``, and ``4``
  servers produce **byte-identical** response payloads (the pool is an
  execution placement choice, never a semantic one);
* a killed worker surfaces as a ``worker_crashed`` error marked
  ``retriable`` and the shard respawns — the next job succeeds;
* graceful drain completes in-flight worker jobs and joins every
  worker process (no zombies), including under SIGTERM;
* the per-shard queue bound refuses excess jobs with ``overloaded``.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro._canon import canonical_json
from repro.exceptions import ServiceError
from repro.service.engine import EvalEngine
from repro.service.loadgen import build_requests
from repro.service.metrics import MetricsRegistry
from repro.service.server import ModelServer, ServerConfig
from repro.service.workers import (
    WorkerCrashError,
    WorkerPool,
    _stable_shard,
    route_key,
)

MACHINES = ("gtx580-double", "i7-950-double")


def run(coro):
    return asyncio.run(coro)


def make_server(**overrides) -> ModelServer:
    config = {"cache_size": 0, "flush_window": 0.0}
    config.update(overrides)
    return ModelServer(ServerConfig(**config))


class TestRouting:
    def test_route_key_machine_ignores_model(self):
        assert route_key("machine", "m1", "energy") == "m1"
        assert route_key("machine", "m1", None) == "m1"

    def test_route_key_model_combines_both(self):
        key = route_key("model", "m1", "energy")
        assert key != "m1"
        assert route_key("model", "m1", "time") != key
        # No model component (curve, balance, …) falls back to machine.
        assert route_key("model", "m1", None) == "m1"

    def test_stable_shard_is_deterministic_and_in_range(self):
        for n in (1, 2, 4, 7):
            for key in ("gtx580-double", "i7-950-double", "a\x1fb"):
                shard = _stable_shard(key, n)
                assert shard == _stable_shard(key, n)
                assert 0 <= shard < n

    def test_known_assignments_do_not_drift(self):
        # Pinned values: a routing change silently invalidates every
        # shard's warm cache on upgrade, so make it loud instead.
        assert _stable_shard("gtx580-double", 4) == 2
        assert _stable_shard("i7-950-double", 4) == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, shard_by="nope")


class TestWorkerPool:
    """Direct pool-level behavior (one spawned pool per test)."""

    def test_jobs_match_in_process_engine(self):
        engine = EvalEngine()
        grid = [0.25, 1.0, 3.0, 17.0]

        async def scenario():
            pool = WorkerPool(2)
            try:
                await pool.ready()
                batch = await pool.submit(
                    "eval_batch",
                    ("gtx580-double", "energy", "energy_per_flop", grid),
                    pool.key_for("gtx580-double", "energy"),
                )
                curve = await pool.submit(
                    "op",
                    ("curve", {"machine_key": "i7-950-double",
                               "kind": "roofline", "lo": 0.5, "hi": 512.0,
                               "points_per_octave": 16, "normalized": True}),
                    pool.key_for("i7-950-double"),
                )
                balance = await pool.submit(
                    "op",
                    ("balance", {"machine_key": "gtx580-double"}),
                    pool.key_for("gtx580-double"),
                )
                stats = pool.stats()
            finally:
                await pool.close()
            return batch, curve, balance, stats

        batch, curve, balance, stats = run(scenario())
        expected = engine.eval_batch(
            "gtx580-double", "energy", "energy_per_flop", grid
        )
        assert batch.tolist() == expected.tolist()  # bit-identical
        assert curve == engine.curve(
            "i7-950-double", "roofline", points_per_octave=16
        )
        assert isinstance(curve["values"], list)
        assert balance == engine.balance("gtx580-double")
        assert stats["workers"] == 2
        assert sum(s["jobs"] for s in stats["shards"]) == 3
        assert all(s["crashes"] == 0 for s in stats["shards"])

    def test_shm_path_is_value_transparent(self):
        """Bodies above the shm threshold round-trip unchanged."""
        engine = EvalEngine()
        grid = [0.5 + 0.001 * i for i in range(10_000)]

        async def scenario():
            # Threshold so low every body travels via shared memory.
            pool = WorkerPool(1, shm_threshold=64)
            try:
                await pool.ready()
                return await pool.submit(
                    "eval_batch",
                    ("gtx580-double", "energy", "energy_per_flop", grid),
                    "k",
                )
            finally:
                await pool.close()

        values = run(scenario())
        expected = engine.eval_batch(
            "gtx580-double", "energy", "energy_per_flop", grid
        )
        assert values.tolist() == expected.tolist()

    def test_worker_error_codes_cross_the_boundary(self):
        async def scenario():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                with pytest.raises(ServiceError) as excinfo:
                    await pool.submit(
                        "eval_batch",
                        ("no-such-machine", "energy", "energy_per_flop",
                         [1.0]),
                        "k",
                    )
                bad_machine = excinfo.value
                with pytest.raises(ServiceError) as excinfo:
                    await pool.submit("op", ("machines", {}), "k")
                bad_op = excinfo.value
            finally:
                await pool.close()
            return bad_machine, bad_op

        bad_machine, bad_op = run(scenario())
        assert bad_machine.code == "unknown_machine"
        assert not getattr(bad_machine, "retriable", False)
        assert bad_op.code == "internal"

    def test_crash_respawns_and_marks_retriable(self):
        async def scenario():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                victim = pool.stats()["shards"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(WorkerCrashError) as excinfo:
                    await pool.submit(
                        "op", ("balance", {"machine_key": MACHINES[0]}), "k"
                    )
                crash = excinfo.value
                # The shard respawned: same API call now succeeds.
                after = await pool.submit(
                    "op", ("balance", {"machine_key": MACHINES[0]}), "k"
                )
                stats = pool.stats()
            finally:
                await pool.close()
            return victim, crash, after, stats

        victim, crash, after, stats = run(scenario())
        assert crash.code == "worker_crashed"
        assert crash.retriable is True
        assert after == EvalEngine().balance(MACHINES[0])
        assert stats["shards"][0]["crashes"] == 1
        assert stats["shards"][0]["pid"] != victim
        assert stats["shards"][0]["alive"]

    def test_queue_limit_refuses_with_overloaded(self):
        async def scenario():
            pool = WorkerPool(1, queue_limit=1)
            try:
                await pool.ready()
                job = ("op", ("balance", {"machine_key": MACHINES[0]}), "k")
                results = await asyncio.gather(
                    pool.submit(*job), pool.submit(*job), pool.submit(*job),
                    return_exceptions=True,
                )
            finally:
                await pool.close()
            return results

        results = run(scenario())
        rejected = [
            r for r in results
            if isinstance(r, ServiceError) and r.code == "overloaded"
        ]
        accepted = [r for r in results if isinstance(r, dict)]
        assert len(rejected) == 2
        assert len(accepted) == 1

    def test_close_joins_every_worker(self):
        async def scenario():
            pool = WorkerPool(2)
            await pool.ready()
            procs = [shard.process for shard in pool._shards]
            await pool.close()
            return procs

        procs = run(scenario())
        for proc in procs:
            assert not proc.is_alive()
            assert proc.exitcode == 0


class TestDispatch:
    """Idle-shard spill-over: the hashed shard while it is idle, the
    least-loaded shard once it is busy."""

    # ~200k points: holds a shard busy for tens of milliseconds.
    LONG_CURVE = (
        "op",
        (
            "curve",
            {
                "machine_key": MACHINES[0],
                "kind": "archline",
                "points_per_octave": 20000,
            },
        ),
    )

    def test_idle_pool_uses_the_hashed_shard(self):
        async def scenario():
            pool = WorkerPool(2)
            try:
                await pool.ready()
                for machine in MACHINES * 3:
                    await pool.submit(
                        "op", ("balance", {"machine_key": machine}), machine
                    )
                return [s["jobs"] for s in pool.stats()["shards"]]
            finally:
                await pool.close()

        jobs = run(scenario())
        expected = [0, 0]
        for machine in MACHINES * 3:
            expected[_stable_shard(machine, 2)] += 1
        assert jobs == expected

    def test_busy_shard_spills_over_to_the_idle_one(self):
        key = MACHINES[0]
        home = _stable_shard(key, 2)
        job = ("op", ("balance", {"machine_key": MACHINES[1]}))

        async def scenario():
            pool = WorkerPool(2)
            try:
                await pool.ready()
                long = asyncio.ensure_future(
                    pool.submit(*self.LONG_CURVE, key)
                )
                await asyncio.sleep(0)  # the curve is now in flight
                assert pool._shards[home].inflight == 1
                spilled = await pool.submit(*job, key)
                jobs = [s["jobs"] for s in pool.stats()["shards"]]
                await long
                hashed = await pool.submit(*job, key)  # idle again
                return spilled, hashed, jobs
            finally:
                await pool.close()

        spilled, hashed, jobs = run(scenario())
        # The short job ran on the other shard while the curve held its
        # own, and answered the same bytes the hashed shard does.
        assert jobs[1 - home] == 1 and jobs[home] == 0
        assert canonical_json(spilled) == canonical_json(hashed)
        assert spilled == EvalEngine().balance(MACHINES[1])

    def test_queue_wait_is_not_billed_as_ipc(self):
        """A job queued behind a long curve on a one-shard pool waits
        in ``worker_queue_wait_ms``; ``worker_ipc_overhead_ms`` keeps
        only its round trip minus compute."""

        async def scenario():
            metrics = MetricsRegistry()
            pool = WorkerPool(1, metrics=metrics)
            try:
                await pool.ready()
                long = asyncio.ensure_future(
                    pool.submit(*self.LONG_CURVE, "k")
                )
                await asyncio.sleep(0)
                await pool.submit(
                    "op", ("balance", {"machine_key": MACHINES[0]}), "k"
                )
                await long
                busy = pool.stats()["shards"][0]["busy_seconds"]
            finally:
                await pool.close()
            return metrics.snapshot()["histograms"], busy

        histograms, busy = run(scenario())
        wait = histograms["worker_queue_wait_ms"]
        ipc = histograms["worker_ipc_overhead_ms"]
        assert wait["count"] == ipc["count"] == 2
        # The balance job waited out the curve's compute (nearly all of
        # the shard's busy time)...
        assert wait["max"] >= 0.5 * busy * 1e3
        # ...and none of that wait shows up as IPC.
        assert ipc["max"] < wait["max"]


class TestServerEquivalence:
    """Satellite: worker count is invisible in the response bytes."""

    # Mixed workload (scalar + grid evals, all four curve kinds, every
    # analysis op) plus malformed requests — errors must match too.
    STREAM = build_requests(
        48,
        machines=list(MACHINES),
        model="capped",
        metric="energy_per_flop",
        unique_intensities=True,
        workload="mixed",
    ) + [
        {"op": "eval", "machine": "no-such-machine", "model": "energy",
         "metric": "energy_per_flop", "intensity": 1.0},
        {"op": "curve", "machine": MACHINES[0], "kind": "nope"},
        {"op": "machines"},
        {"op": "nonsense"},
    ]

    @staticmethod
    async def _drive(workers: int) -> bytes:
        server = make_server(workers=workers, flush_window=0.001)
        try:
            sequential = [
                await server.handle_request(dict(body))
                for body in TestServerEquivalence.STREAM
            ]
            concurrent = await asyncio.gather(*(
                server.handle_request(dict(body))
                for body in TestServerEquivalence.STREAM
            ))
        finally:
            await server.stop()
        return canonical_json([sequential, concurrent])

    def test_workers_0_1_4_byte_identical(self):
        async def scenario():
            return [await self._drive(n) for n in (0, 1, 4)]

        payloads = run(scenario())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_model_sharding_byte_identical_too(self):
        async def scenario():
            baseline = await self._drive(0)
            server = make_server(workers=3, shard_by="model",
                                 flush_window=0.001)
            try:
                sequential = [
                    await server.handle_request(dict(body))
                    for body in self.STREAM
                ]
                concurrent = await asyncio.gather(*(
                    server.handle_request(dict(body))
                    for body in self.STREAM
                ))
            finally:
                await server.stop()
            return baseline, canonical_json([sequential, concurrent])

        baseline, sharded = run(scenario())
        assert baseline == sharded


class TestServerWorkerFailures:
    def test_crash_reply_envelope_is_retriable(self):
        async def scenario():
            server = make_server(workers=1)
            try:
                await server.pool.ready()
                os.kill(server.pool.stats()["shards"][0]["pid"],
                        signal.SIGKILL)
                failed = await server.handle_request(
                    {"op": "balance", "machine": MACHINES[0]}
                )
                recovered = await server.handle_request(
                    {"op": "balance", "machine": MACHINES[0]}
                )
            finally:
                await server.stop()
            return failed, recovered

        failed, recovered = run(scenario())
        assert failed["ok"] is False
        assert failed["error"]["code"] == "worker_crashed"
        assert failed["error"]["retriable"] is True
        assert recovered["ok"] is True

    def test_worker_stats_surface_in_server_stats(self):
        async def scenario():
            server = make_server(workers=2)
            try:
                await server.pool.ready()
                await server.handle_request(
                    {"op": "balance", "machine": MACHINES[0]}
                )
                stats = server.stats()
            finally:
                await server.stop()
            return stats

        stats = run(scenario())
        assert stats["config"]["workers"] == 2
        assert stats["workers"]["workers"] == 2
        assert len(stats["workers"]["shards"]) == 2
        assert stats["counters"]["worker_jobs_total"] >= 1
        assert "worker_job_ms" in stats["histograms"]
        assert "worker_ipc_overhead_ms" in stats["histograms"]


class TestGracefulDrain:
    """Satellite: SIGTERM with a worker job in flight loses nothing."""

    def test_sigterm_completes_inflight_curve(self):
        async def scenario():
            server = make_server(workers=1)
            await server.pool.ready()
            procs = [shard.process for shard in server.pool._shards]

            loop = asyncio.get_running_loop()
            terminated = asyncio.Event()
            loop.add_signal_handler(signal.SIGTERM, terminated.set)
            try:
                # A 10k-point curve (1000/octave over 10 octaves), in
                # flight on the worker when SIGTERM lands.
                request = asyncio.ensure_future(server.handle_request({
                    "op": "curve", "machine": MACHINES[0],
                    "kind": "roofline", "points_per_octave": 1000,
                }))
                await asyncio.sleep(0)  # let the job reach the pool
                os.kill(os.getpid(), signal.SIGTERM)
                await terminated.wait()
                await server.stop()  # drains, then joins the workers
                response = await request
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
            return response, procs

        response, procs = run(scenario())
        assert response["ok"] is True
        assert len(response["result"]["values"]) == 10_001
        for proc in procs:
            assert not proc.is_alive()  # joined, not zombied
            assert proc.exitcode == 0   # exited via sentinel, not kill


def _shm_entries(token: str) -> list[str]:
    """Shared-memory segments belonging to one pool, by its token."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if token in name
        )
    except FileNotFoundError:  # pragma: no cover - non-posix-shm host
        pytest.skip("/dev/shm not available on this platform")


class TestRingTransport:
    """The shm ring-buffer job transport and its crash-safety story."""

    CURVE_JOB = (
        "op",
        (
            "curve",
            {
                "machine_key": MACHINES[0],
                "kind": "roofline",
                "points_per_octave": 400,
            },
        ),
        "k",
    )
    BALANCE_JOB = ("op", ("balance", {"machine_key": MACHINES[0]}), "k")

    def test_ring_carries_jobs_and_oversize_falls_back(self):
        # A 2000-point grid pickles well past a 4 KiB slot, so that
        # job must take the per-job spill path; the balance job fits
        # in the slot and rides the ring.
        grid = [float(i) for i in range(1, 2001)]
        big_job = (
            "eval_batch",
            (MACHINES[0], "energy", "energy_per_flop", grid),
            "k",
        )

        async def scenario():
            pool = WorkerPool(1, ring_slot_size=4096)
            try:
                await pool.ready()
                small = await pool.submit(*self.BALANCE_JOB)
                big = await pool.submit(*big_job)
                stats = pool.stats()
            finally:
                await pool.close()
            return small, big, stats

        small, big, stats = run(scenario())
        assert stats["job_transport"] == "ring"
        ring = stats["ring"]
        assert ring["slot_size"] == 4096
        assert ring["jobs"] >= 1          # the balance job rode a slot
        assert ring["fallbacks"] >= 1     # the big grid spilled
        assert small == EvalEngine().balance(MACHINES[0])
        assert len(big) == 2000

    def test_ring_and_pickle_transports_agree(self):
        """Transport is an optimisation, never semantic."""

        async def run_jobs(transport):
            pool = WorkerPool(
                1, job_transport=transport, ring_slot_size=2048
            )
            try:
                await pool.ready()
                results = []
                for job in (self.BALANCE_JOB, self.CURVE_JOB,
                            self.BALANCE_JOB):
                    results.append(canonical_json(await pool.submit(*job)))
                return results
            finally:
                await pool.close()

        async def scenario():
            return (await run_jobs("ring"), await run_jobs("pickle"))

        ringed, pickled = run(scenario())
        assert ringed == pickled

    def test_pickle_transport_reports_no_ring_stats(self):
        async def scenario():
            pool = WorkerPool(1, job_transport="pickle")
            try:
                await pool.ready()
                await pool.submit(*self.BALANCE_JOB)
                return pool.stats()
            finally:
                await pool.close()

        stats = run(scenario())
        assert stats["job_transport"] == "pickle"
        assert "ring" not in stats

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError):
            WorkerPool(1, job_transport="carrier-pigeon")

    def test_crash_mid_spill_leaves_no_shm_orphans(self):
        """Regression: a worker killed with a spilled job in flight must
        not leak its job/reply segments, and respawn must replace the
        ring arenas rather than strand them."""

        async def scenario():
            # Tiny ring capacity: every real job body takes the per-job
            # spill path.
            pool = WorkerPool(1, ring_slot_size=64)
            token = pool.shm_token
            try:
                await pool.ready()
                arenas_before = _shm_entries(token)
                victim = pool.stats()["shards"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(WorkerCrashError):
                    await pool.submit(*self.CURVE_JOB)
                spills_after_crash = [
                    name for name in _shm_entries(token)
                    if name.startswith("rs-")
                ]
                # The shard respawned and serves again.
                after = await pool.submit(*self.BALANCE_JOB)
                arenas_after = _shm_entries(token)
            finally:
                await pool.close()
            leftovers = _shm_entries(token)
            return (token, arenas_before, spills_after_crash, after,
                    arenas_after, leftovers)

        (token, arenas_before, spills_after_crash, after, arenas_after,
         leftovers) = run(scenario())
        # Two arenas (job + reply) exist while the pool runs...
        assert len(arenas_before) == 2
        # ...the crashed job's spill segments were reclaimed...
        assert spills_after_crash == []
        # ...the respawned shard got *fresh* arenas (epoch bumped)...
        assert len(arenas_after) == 2
        assert set(arenas_after) != set(arenas_before)
        assert after == EvalEngine().balance(MACHINES[0])
        # ...and close() leaves nothing of this pool behind.
        assert leftovers == []

    def test_reply_overflow_counts_as_a_fallback(self):
        """A job that fits the slot but whose reply does not is a
        fallback too — in ``stats`` and in the counters alike."""

        async def scenario():
            metrics = MetricsRegistry()
            # A ~4k-point curve reply (~64 KB) overflows a 4 KiB slot;
            # its job body (a few kwargs) fits.
            pool = WorkerPool(1, ring_slot_size=4096, metrics=metrics)
            try:
                await pool.ready()
                before = pool.stats()["ring"]
                curve = await pool.submit(*self.CURVE_JOB)
                after = pool.stats()["ring"]
            finally:
                await pool.close()
            return metrics.snapshot()["counters"], before, after, curve

        counters, before, after, curve = run(scenario())
        assert after["fallbacks"] - before["fallbacks"] == 1
        assert after["jobs"] == before["jobs"]
        assert counters["ring_fallbacks_total"] == 1
        assert counters.get("ring_jobs_total", 0) == 0
        assert curve == EvalEngine().curve(
            MACHINES[0], "roofline", points_per_octave=400
        )

    def test_close_unlinks_ring_arenas(self):
        async def scenario():
            pool = WorkerPool(2)
            token = pool.shm_token
            await pool.ready()
            live = _shm_entries(token)
            await pool.close()
            return token, live

        token, live = run(scenario())
        assert len(live) == 4  # two shards x (job + reply) arenas
        assert _shm_entries(token) == []

    def test_plan_cache_size_reaches_workers(self):
        """The knob travels to the worker engine: a disabled plan
        cache still answers curves correctly."""

        async def scenario():
            pool = WorkerPool(1, plan_cache_size=0)
            try:
                await pool.ready()
                first = await pool.submit(*self.CURVE_JOB)
                second = await pool.submit(*self.CURVE_JOB)
            finally:
                await pool.close()
            return first, second

        first, second = run(scenario())
        assert canonical_json(first) == canonical_json(second)
        assert len(first["values"]) == 4001
