"""Fleet supervisor: spawn, monitor, restart and drain worker processes.

``repro serve --workers N`` turns the serve process into a *control plane*:
the data path moves into N single-tenant-pool worker processes (each an
ordinary ``repro serve`` on an ephemeral port), and this supervisor owns
their lifecycle plus the consistent-hash ring that maps each project to
exactly one worker.  The split follows the admission/routing separation
the ROADMAP calls for: the front process decides *placement* and holds no
shard data, so a router restart loses nothing and a worker crash loses at
most unflushed buffers (which the client seal protocol already covers).

Lifecycle protocol:

* **spawn** — workers start with ``--fleet-worker <id> --fleet-register
  <router-url>`` and ``--port 0``; only the worker knows its bound port,
  so membership is completed by the worker's ``/fleet/register`` POST
  (see :mod:`repro.fleet.worker`).  A worker id joins the ring on its
  *first* registration and keeps its ring position across restarts —
  placement is a function of worker *identity*, not process incarnation.
* **monitor** — a daemon thread polls every handle: a dead process (or a
  live one whose heartbeat went stale, i.e. a hung worker) is respawned
  under the same id.  The router keeps routing that id's projects and
  simply waits for the re-registration before proxying.
* **drain (scale-down / shutdown)** — ``POST /fleet/drain`` makes the
  worker flush and seal (close) every open shard, *then* the id leaves
  the ring, then one more drain sweeps anything that landed during the
  window, then SIGTERM.  Sealing before reassignment matters because two
  processes must never hold writable handles on one shard's SQLite file.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..errors import FleetError, TransportError
from .ring import HashRing
from .transport import HttpClient
from .worker import DEFAULT_HEARTBEAT_INTERVAL

#: Heartbeats older than this many seconds mark a worker as hung.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0
#: Seconds between monitor sweeps.
DEFAULT_POLL_INTERVAL = 0.25


def worker_ids(count: int) -> list[str]:
    return [f"w{i}" for i in range(count)]


@dataclass
class WorkerHandle:
    """Everything the supervisor knows about one worker id."""

    worker_id: str
    process: subprocess.Popen | None = None
    url: str | None = None
    pid: int | None = None  # pid that registered (matches process.pid)
    registered: bool = False
    last_heartbeat: float | None = None
    restarts: int = 0
    draining: bool = False
    #: Set on every (re-)registration; routing waits on it during failover.
    ready: threading.Event = field(default_factory=threading.Event)

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def heartbeat_age(self) -> float | None:
        if self.last_heartbeat is None:
            return None
        return time.monotonic() - self.last_heartbeat

    def view(self) -> dict:
        return {
            "id": self.worker_id,
            "url": self.url,
            "pid": self.pid,
            "alive": self.alive(),
            "registered": self.registered,
            "heartbeat_age": self.heartbeat_age(),
            "restarts": self.restarts,
            "draining": self.draining,
        }


class FleetSupervisor:
    """Owns the worker registry, the hash ring, and worker lifecycles.

    Parameters
    ----------
    argv_for:
        ``(worker_id, register_url) -> argv`` building the worker's command
        line.  The CLI uses :func:`default_worker_argv`; tests can inject a
        stub worker.
    workers:
        Number of workers to run (ids ``w0..w{N-1}``).
    heartbeat_timeout:
        Seconds without a heartbeat before a live worker is declared hung
        and recycled.
    """

    def __init__(
        self,
        argv_for: Callable[[str, str], list[str]],
        *,
        workers: int,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ):
        if workers < 1:
            raise FleetError(f"a fleet needs at least 1 worker, got {workers}")
        self._argv_for = argv_for
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.ring = HashRing()
        self._handles: dict[str, WorkerHandle] = {
            worker_id: WorkerHandle(worker_id) for worker_id in worker_ids(workers)
        }
        self._lock = threading.RLock()
        self._register_url: str | None = None
        self._stopping = False
        self._monitor: threading.Thread | None = None
        self._rr = 0  # round-robin cursor for project-less routes

    # ------------------------------------------------------------- lifecycle
    def start(self, register_url: str, *, startup_timeout: float = 30.0) -> "FleetSupervisor":
        """Spawn every worker and wait until all have registered."""
        self._register_url = register_url
        with self._lock:
            for handle in self._handles.values():
                self._spawn_locked(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        self.wait_registered(timeout=startup_timeout)
        return self

    def _spawn_locked(self, handle: WorkerHandle) -> None:
        argv = self._argv_for(handle.worker_id, self._register_url or "")
        env = {**os.environ}
        src_dir = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        handle.registered = False
        handle.ready.clear()
        # Worker stdout/stderr are discarded: the supervisor's own stdout is
        # a parsed protocol (the ready banner), and N workers interleaving
        # their banners into it would corrupt that.
        handle.process = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def wait_registered(self, *, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                pending = [
                    h.worker_id
                    for h in self._handles.values()
                    if not h.draining and not h.registered
                ]
                dead = [
                    h.worker_id
                    for h in self._handles.values()
                    if not h.draining and h.process is not None and not h.alive()
                ]
            if dead:
                raise FleetError(f"worker(s) {dead} exited before registering")
            if not pending:
                return
            time.sleep(0.05)
        raise FleetError(f"worker(s) {pending} did not register within {timeout}s")

    # ------------------------------------------------------- control callbacks
    def on_register(self, worker_id: str, url: str, pid: int) -> dict:
        """A worker announced itself (first boot or post-restart)."""
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is None:
                raise FleetError(f"unknown worker id {worker_id!r}")
            if handle.process is not None and pid != handle.process.pid:
                # A registration from a pid we did not spawn (or an old
                # incarnation racing its own death) must not hijack routing.
                raise FleetError(
                    f"stale registration for {worker_id!r}: pid {pid} is not the "
                    f"supervised process {handle.process.pid}"
                )
            handle.url = url
            handle.pid = pid
            handle.registered = True
            handle.last_heartbeat = time.monotonic()
            if worker_id not in self.ring:
                self.ring.add(worker_id)
            handle.ready.set()
            return handle.view()

    def on_heartbeat(self, worker_id: str, pid: int) -> dict:
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is None:
                raise FleetError(f"unknown worker id {worker_id!r}")
            if pid == handle.pid:
                handle.last_heartbeat = time.monotonic()
            return handle.view()

    # ---------------------------------------------------------------- routing
    def route(self, project: str) -> str:
        """The worker id owning ``project`` (stable across restarts)."""
        with self._lock:
            return self.ring.route(project)

    def any_worker(self) -> str:
        """Round-robin over ring members, for project-less routes (``/jobs``)."""
        with self._lock:
            members = self.ring.workers()
            if not members:
                raise FleetError("no workers on the ring")
            self._rr = (self._rr + 1) % len(members)
            return members[self._rr]

    def url_for(self, worker_id: str, *, wait_timeout: float = 0.0) -> str:
        """The worker's current base url, waiting out a restart window."""
        deadline = time.monotonic() + wait_timeout
        while True:
            with self._lock:
                handle = self._handles.get(worker_id)
                if handle is None:
                    raise FleetError(f"unknown worker id {worker_id!r}")
                if handle.registered and handle.url:
                    return handle.url
                ready = handle.ready
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FleetError(f"worker {worker_id!r} is not registered")
            ready.wait(timeout=min(remaining, 0.25))

    def note_unreachable(self, worker_id: str) -> None:
        """A proxy attempt failed: stop routing to the stale url immediately.

        The monitor will notice the dead process within a poll interval
        anyway; clearing ``registered`` here makes the very next proxy
        retry *wait* for the restart instead of burning its failover
        budget on a connection-refused loop.
        """
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is not None and not handle.alive():
                handle.registered = False
                handle.ready.clear()

    # ----------------------------------------------------------------- views
    def worker_views(self) -> list[dict]:
        with self._lock:
            return [handle.view() for handle in self._handles.values()]

    def summary(self) -> dict:
        with self._lock:
            handles = list(self._handles.values())
            return {
                "workers": len(handles),
                "registered": sum(1 for h in handles if h.registered),
                "alive": sum(1 for h in handles if h.alive()),
                "restarts": sum(h.restarts for h in handles),
                "ring": self.ring.workers(),
            }

    # ---------------------------------------------------------------- monitor
    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(self.poll_interval)
            with self._lock:
                if self._stopping:
                    return
                for handle in self._handles.values():
                    if handle.draining or handle.process is None:
                        continue
                    if not handle.alive():
                        self._restart_locked(handle, reason="exited")
                    elif (
                        handle.registered
                        and (handle.heartbeat_age() or 0.0) > self.heartbeat_timeout
                    ):
                        # Alive but silent: hung worker. Kill hard, respawn.
                        try:
                            handle.process.kill()
                            handle.process.wait(timeout=5)
                        except OSError:
                            pass
                        self._restart_locked(handle, reason="heartbeat stale")

    def _restart_locked(self, handle: WorkerHandle, *, reason: str) -> None:
        handle.restarts += 1
        handle.registered = False
        handle.ready.clear()
        self._spawn_locked(handle)

    # ------------------------------------------------------------ scale-down
    def _drain_worker(self, url: str) -> None:
        """Ask one worker to flush + seal every open shard."""
        with HttpClient(url, timeout=30.0) as client:
            client.post_json("/fleet/drain")

    def stop_worker(self, worker_id: str, *, drain: bool = True, timeout: float = 20.0) -> int | None:
        """Drain hand-off: seal shards, leave the ring, drain again, SIGTERM.

        Returns the worker's exit code (None if it was never spawned).
        """
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is None:
                raise FleetError(f"unknown worker id {worker_id!r}")
            handle.draining = True  # monitor must not resurrect it
            url = handle.url if handle.registered else None
        if drain and url is not None and handle.alive():
            try:
                self._drain_worker(url)
            except TransportError:
                pass  # a crashed worker has nothing buffered to hand off
        with self._lock:
            if worker_id in self.ring:
                self.ring.remove(worker_id)
        # Second sweep: anything routed to it between the first drain and
        # the ring change is flushed before the process goes away.
        if drain and url is not None and handle.alive():
            try:
                self._drain_worker(url)
            except TransportError:
                pass
        code: int | None = None
        if handle.process is not None:
            if handle.alive():
                handle.process.send_signal(signal.SIGTERM)
                try:
                    handle.process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    handle.process.kill()
                    handle.process.wait(timeout=5)
            code = handle.process.returncode
        with self._lock:
            handle.registered = False
            handle.url = None
        return code

    def shutdown(self, *, drain: bool = True) -> dict[str, int | None]:
        """Stop the monitor, then drain and stop every worker."""
        with self._lock:
            self._stopping = True
            ids = list(self._handles)
        if self._monitor is not None:
            self._monitor.join(timeout=self.poll_interval * 8)
        codes = {}
        for worker_id in ids:
            codes[worker_id] = self.stop_worker(worker_id, drain=drain)
        return codes


def default_worker_argv(
    root: Path | str,
    *,
    sync_flush: bool = False,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    extra: Iterable[str] = (),
) -> Callable[[str, str], list[str]]:
    """Build the ``argv_for`` hook spawning real ``repro serve`` workers.

    ``extra`` carries the per-worker service knobs (``--pool-capacity``,
    ``--job-workers``, ...) exactly as the operator passed them to the
    supervisor's own command line.
    """

    def argv_for(worker_id: str, register_url: str) -> list[str]:
        argv = [sys.executable, "-m", "repro.cli", "--project", str(root)]
        if sync_flush:
            argv.append("--sync-flush")
        argv += [
            "serve",
            "--port",
            "0",
            "--quiet",
            "--fleet-worker",
            worker_id,
            "--fleet-register",
            register_url,
            "--fleet-heartbeat",
            str(heartbeat_interval),
            *extra,
        ]
        return argv

    return argv_for
