"""Start and stop ``repro serve`` subprocesses, and preload tenants.

Servers start with the CLI's default flags; only the addresses differ
(``--project`` names the tenant root, ``--port 0`` picks a free port).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BANNER = re.compile(r"serving FlorDB .* at http://([^:]+):(\d+)")


class Server:
    """A ``repro serve`` process; ``close`` stops it and every worker it spawned."""

    def __init__(self, src: Path, tenants: Path, log: Path, extra: tuple[str, ...] = ()):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.log = log.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--project", str(tenants), "serve", "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        self.children: list[int] = []
        deadline = time.monotonic() + 120
        while True:
            line = self.proc.stdout.readline().decode(errors="replace")
            match = BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if not line or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"server did not start; see {log}")
        # Keep draining stdout so the server can never block on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def note_children(self) -> None:
        """Remember worker processes (fleet mode) so they are reaped too."""
        try:
            text = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children").read_text()
            self.children = [int(p) for p in text.split()]
        except OSError:
            self.children = []

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server and its workers (VmHWM)."""
        total = 0.0
        for pid in [self.proc.pid, *self.children]:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for pid in self.children:
            _reap(pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def _reap(pid: int) -> None:
    """Wait for a worker the supervisor should have stopped; kill it if not."""
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        if not Path(f"/proc/{pid}").exists():
            return
        try:
            state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0]
        except OSError:
            return
        if state == "Z":
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def preload(tenants: Path, name: str, runs: int, steps: int, seed: int) -> int:
    """Record ``runs`` training runs of ``steps`` x 4 values into tenant
    ``name`` through the library API; returns the log rows written."""
    import random

    from repro import ProjectConfig, Session

    rng = random.Random(seed)
    rows = 0
    with Session(ProjectConfig(tenants / name, name), default_filename="train.py") as session:
        for _ in range(runs):
            lr = rng.uniform(0.001, 0.1)
            for step in session.loop("step", range(steps)):
                session.log("loss", rng.random())
                session.log("acc", rng.random())
                session.log("lr", lr)
                session.log("grad_norm", step * lr)
            session.commit()
            rows += steps * 4
    return rows
