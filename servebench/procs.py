"""Server-side processes: launch through the CLI, account, tear down.

Every process the benchmark starts carries a ``SERVEBENCH_RUN`` token
in its environment, and children inherit it, so the hygiene check can
find anything a run left behind — a worker orphaned by its parent, a
listening socket, a shared-memory segment — and fail the run.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")
RUN_TOKEN_VAR = "SERVEBENCH_RUN"
BANNER = re.compile(rb"(?:serving|routing) energy-roofline .*? on ([\d.]+):(\d+)")
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 5.0


class LaunchError(RuntimeError):
    """A server-side process failed to start, stop or clean up."""


@dataclass
class Proc:
    """One launched process and where its output goes."""

    role: str
    popen: subprocess.Popen
    log: Path
    port: int | None = None

    @property
    def pid(self) -> int:
        return self.popen.pid


@dataclass
class Topology:
    """The processes of one launch; ``entry`` is the port clients use."""

    procs: list[Proc] = field(default_factory=list)
    entry: tuple[str, int] | None = None

    @property
    def ports(self) -> list[int]:
        return [p.port for p in self.procs if p.port is not None]


def server_env(root: Path, token: str, workdir: Path) -> dict[str, str]:
    """Environment for server-side processes.

    Bytecode is written to (and read from) a cache under ``workdir``, as
    an installed program would have it, rather than recompiled on every
    launch.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
    env["PYTHONPATH"] = str(root / "src")
    env[RUN_TOKEN_VAR] = token
    return env


PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM this child if the benchmark dies.

    SIGTERM is the CLI's drain signal, so a server whose generator was
    killed still shuts its workers down and unlinks its segments.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def spawn(role: str, argv: list[str], env: dict[str, str], logdir: Path) -> Proc:
    logdir.mkdir(parents=True, exist_ok=True)
    log = logdir / f"{role}-{len(list(logdir.iterdir()))}.log"
    with open(log, "wb") as out:
        popen = subprocess.Popen(
            argv,
            stdout=out,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
            preexec_fn=_die_with_parent,
        )
    return Proc(role, popen, log)


def wait_ready(proc: Proc, deadline: float) -> int:
    """Poll the process log for its ready banner; returns the bound port."""
    while True:
        data = proc.log.read_bytes()
        match = BANNER.search(data)
        if match:
            proc.port = int(match.group(2))
            return proc.port
        if proc.popen.poll() is not None:
            raise LaunchError(
                f"{proc.role} exited with {proc.popen.returncode} before "
                f"it was ready:\n{data.decode(errors='replace')[-2000:]}"
            )
        if time.perf_counter() > deadline:
            raise LaunchError(f"{proc.role} not ready within {READY_TIMEOUT} s")
        time.sleep(0.002)


def cli(*args: str) -> list[str]:
    """argv for one ``repro`` CLI verb."""
    return [sys.executable, "-m", "repro", *args]


def stop(topology: Topology) -> tuple[list[str], list[str]]:
    """SIGTERM (graceful drain) front to back.

    Returns ``(failures, slow)``: a process that exits non-zero or
    without its ``drained cleanly`` line is a failure; one still
    draining after ``STOP_TIMEOUT`` is killed and listed as slow.  The
    hygiene check afterwards decides whether anything it owned survived.
    """
    failures, slow = [], []
    for proc in topology.procs:
        if proc.popen.poll() is None:
            proc.popen.send_signal(signal.SIGTERM)
        try:
            proc.popen.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.popen.wait()
            slow.append(f"{proc.role} still draining after {STOP_TIMEOUT:g} s; killed")
            continue
        text = proc.log.read_text(errors="replace")
        if proc.popen.returncode != 0 or "drained cleanly" not in text:
            failures.append(
                f"{proc.role} exited {proc.popen.returncode}: {text[-500:]!r}"
            )
    return failures, slow


def kill(topology: Topology) -> None:
    """Last-resort teardown on an error path."""
    for proc in topology.procs:
        if proc.popen.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.popen.wait()


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one live process."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                kids.setdefault(int(fields[1]), []).append(int(entry))
    return kids


def tree(pids: list[int]) -> list[int]:
    """The given pids and all their live descendants."""
    kids = children_map()
    out, todo = [], list(pids)
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def roles(topology: Topology) -> dict[int, str]:
    """Role of every live server-side process.

    ``frontend`` is the process clients connect to, ``backend`` a server
    behind the router, ``worker`` anything a server spawned (pool
    workers and the shared-memory tracker).
    """
    out: dict[int, str] = {}
    for proc in topology.procs:
        for pid in tree([proc.pid]):
            out[pid] = proc.role if pid == proc.pid else "worker"
    return out


def vm_hwm_mb(pid: int) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"VmHWM:\s+(\d+) kB", text)
    return int(match.group(1)) / 1024.0 if match else 0.0


def host_cpu() -> tuple[int, int]:
    """(total, steal) jiffies from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return sum(fields[:8]), fields[7]


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def tagged_processes(token: str) -> list[int]:
    """Live processes whose environment carries this run's token."""
    needle = f"{RUN_TOKEN_VAR}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
            state = _stat_fields(int(entry))
        except OSError:
            continue
        if state is not None and state[0] != "Z" and needle in environ.split(b"\0"):
            found.append(int(entry))
    return found


def listening_ports() -> set[int]:
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            parts = line.split()
            if len(parts) > 3 and parts[3] == "0A":  # TCP_LISTEN
                ports.add(int(parts[1].rsplit(":", 1)[1], 16))
    return ports


def hygiene(token: str, ports: list[int], shm_before: set[str],
            grace: float = 5.0) -> list[str]:
    """Everything this run created that still exists; empty when clean.

    Waits up to ``grace`` seconds for exiting processes to be reaped.
    """
    problems = []
    deadline = time.perf_counter() + grace
    while True:
        procs = tagged_processes(token)
        open_ports = sorted(set(ports) & listening_ports())
        leaked = sorted(shm_names() - shm_before)
        if not (procs or open_ports or leaked) or time.perf_counter() > deadline:
            break
        time.sleep(0.05)
    if procs:
        problems.append(f"processes survived the run: {procs}")
    if open_ports:
        problems.append(f"ports still listening: {open_ports}")
    if leaked:
        problems.append(f"shared-memory segments survived: {leaked}")
    return problems
