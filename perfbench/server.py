"""Launching, probing and stopping a ``repro serve`` process."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Tuple

from streams import encode, probe_requests

ANNOUNCE = "serving JSONL+HTTP on "
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One server process with default flags, bound to a free port.

    ``traced`` runs it through ``traced_server.py`` (ledger installed)."""

    def __init__(self, root: Path, tmp_dir: Path, traced: bool = False):
        self.log_path = tmp_dir / f"server-{os.getpid()}-{time.time_ns()}.log"
        args = ["--host", "127.0.0.1", "--port", "0"]
        if traced:
            cmd = [sys.executable, str(root / "perfbench" / "traced_server.py"),
                   *args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._log)
        self.host, self.port = self._await_announce()

    def _await_announce(self) -> Tuple[str, int]:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            text = self.log_path.read_text()
            if ANNOUNCE in text:
                hostport = text.split(ANNOUNCE, 1)[1].split()[0]
                host, _, port = hostport.rpartition(":")
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text()}")

    async def probe(self) -> float:
        """Send the set-up probe; returns seconds from launch to the last
        probe's successful response."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            probes = probe_requests()
            for request in probes:
                writer.write(encode(request))
            await writer.drain()
            for _ in probes:
                line = await asyncio.wait_for(reader.readline(),
                                              START_TIMEOUT_S)
                if not json.loads(line).get("ok"):
                    raise RuntimeError(f"set-up probe failed: {line!r}")
            return time.perf_counter() - self.started
        finally:
            writer.close()
            await writer.wait_closed()

    @contextmanager
    def apart(self) -> Iterator[None]:
        """Keep the calling (load generator) process and the server's main
        thread on two different CPUs while the block runs.

        Left alone, the kernel's wake-affine placement often puts the two
        ends of a saturated request/response exchange on one CPU, where
        they share it for seconds to minutes at a time; on a 2-core host
        that halved ``serve_hot`` throughput in some runs and not in
        others.  The pool workers, forked at start-up, stay free to run on
        any CPU.  Only the closed loop uses it: pinned, the load generator
        cannot move off a CPU the host is slow to run, and the open loop's
        sends go out late."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            yield
            return
        os.sched_setaffinity(self.proc.pid, {cpus[1]})
        os.sched_setaffinity(0, {cpus[0]})
        try:
            yield
        finally:
            os.sched_setaffinity(0, cpus)

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of the server plus its workers."""
        return sum(_vm_hwm_kb(pid) for pid in _tree(self.proc.pid)) / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain), then kill if it does not exit; pool
        workers left behind by a killed server are killed too."""
        if self.proc.poll() is None:
            # A graceful exit closes and joins the pools; only a server
            # killed here leaves its workers behind.
            workers = _tree(self.proc.pid)[1:]
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                for pid in workers:
                    _kill_and_wait(pid)
        self._log.close()
        self.log_path.unlink(missing_ok=True)
        return self.proc.returncode


def _tree(pid: int) -> List[int]:
    pids = [pid]
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in children:
            pids.extend(_tree(int(child)))
    return pids


def _kill_and_wait(pid: int) -> None:
    """SIGKILL a process that is not our child and wait until it is gone
    (``/proc/<pid>`` disappears once its parent or init reaps it)."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.perf_counter() + STOP_TIMEOUT_S
    while Path(f"/proc/{pid}").exists() and time.perf_counter() < deadline:
        time.sleep(0.01)


def _vm_hwm_kb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return _vm_hwm_kb(os.getpid()) / 1024.0


async def launch(root: Path, tmp_dir: Path, traced: bool = False
                 ) -> Tuple[Server, float]:
    """Start a server and probe it; returns it with its set-up seconds."""
    server = Server(root, tmp_dir, traced=traced)
    try:
        return server, await server.probe()
    except BaseException:
        server.stop()
        raise

