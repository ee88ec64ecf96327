"""Bring a workload's topology up through the real CLI and time it.

``setup_s`` runs from launching the server-side processes to the first
verified reply through the entry point, with every worker shard (or
backend) having answered one.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path

import frames
import procs
from procs import Topology
from verify import Reference, check
from workloads import CATALOG, PLATFORMS, Workload

#: Fixed backend ports for the routed workload.  The ring hashes the
#: backend address, so OS-chosen ports would move machines between
#: backends from launch to launch; every pair here places three catalog
#: machines on one backend and two on the other.
BACKEND_PORTS = ((47100, 47101), (47112, 47113), (47122, 47123), (47124, 47125))


def free_backend_ports() -> tuple[int, int]:
    listening = procs.listening_ports()
    for pair in BACKEND_PORTS:
        if not set(pair) & listening and all(_bindable(p) for p in pair):
            return pair
    raise procs.LaunchError(f"no free backend port pair among {BACKEND_PORTS}")


def _bindable(port: int) -> bool:
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            s.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def probe_requests(workload: Workload) -> list[dict]:
    machines = CATALOG if workload.topology == "route" else PLATFORMS
    return [
        {"id": i + 1, "op": "eval", "machine": m, "model": "energy",
         "metric": "energy_per_flop", "intensity": 1.5}
        for i, m in enumerate(machines)
    ]


def call(port: int, requests: list[dict], timeout: float = 60.0) -> list[bytes]:
    """Blocking round trip of a few requests; returns the reply frames."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(frames.HELLO_LINE)
        buffer = bytearray()
        while b"\n" not in buffer:
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("closed during hello")
            buffer += chunk
        cut = buffer.index(b"\n") + 1
        if not frames.hello_accepted(bytes(buffer[:cut])):
            raise ConnectionError("binary wire refused")
        del buffer[:cut]
        s.sendall(b"".join(frames.encode_request(r) for r in requests))
        replies: dict[int, bytes] = {}
        while len(replies) < len(requests):
            consumed = 0
            for seq, start, stop in frames.split_frames(buffer):
                replies[seq] = bytes(buffer[start:stop])
                consumed = stop
            del buffer[:consumed]
            if len(replies) < len(requests):
                chunk = s.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("closed before all replies")
                buffer += chunk
    return [replies[r["id"]] for r in requests]


def stats(port: int) -> dict:
    (reply,) = call(port, [{"id": 1, "op": "stats"}])
    return json.loads(frames.sections(reply)[0])["result"]


def bring_up(
    workload: Workload,
    env: dict[str, str],
    logdir: Path,
    ref: Reference,
    argv_for=None,
) -> tuple[Topology, float]:
    """Launch, wait for readiness, verify a probe; returns (topology, setup_s).

    ``argv_for(role, args)`` builds each process's command line; the
    default runs the ``repro`` CLI verb named by ``args[0]``.
    """
    argv_for = argv_for or (lambda _role, args: procs.cli(*args))
    topo = Topology()
    started = time.perf_counter()
    deadline = started + procs.READY_TIMEOUT
    try:
        if workload.topology == "route":
            # All three start together, as a deployment would start them;
            # the router connects to its backends on first use.
            ports = free_backend_ports()
            args = ["route", "--port", "0"]
            for p in ports:
                args += ["--backend", f"127.0.0.1:{p}"]
            front = procs.spawn("frontend", argv_for("frontend", args), env, logdir)
            topo.procs.append(front)
            for p in ports:
                topo.procs.append(procs.spawn(
                    "backend", argv_for("backend", ["serve", "--port", str(p)]), env, logdir
                ))
            for proc in topo.procs[1:]:
                procs.wait_ready(proc, deadline)
            topo.procs.remove(front)
        else:
            args = ["serve", "--port", "0", *workload.serve_args]
            front = procs.spawn("frontend", argv_for("frontend", args), env, logdir)
        topo.procs.insert(0, front)
        port = procs.wait_ready(front, deadline)
        topo.entry = ("127.0.0.1", port)
        requests = probe_requests(workload)
        replies = call(port, requests)
        setup_s = time.perf_counter() - started
    except BaseException:
        procs.kill(topo)
        raise
    for request, reply in zip(requests, replies):
        problem = check(request, reply, ref)
        if problem is not None:
            procs.kill(topo)
            raise procs.LaunchError(f"probe reply wrong: {problem}")
    return topo, setup_s
