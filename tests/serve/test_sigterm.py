"""``repro serve`` stops gracefully on a SIGTERM sent at readiness.

The "serving on" line is the daemon's readiness contract, so a
supervisor may signal it the moment the line is read.  The signal must
reach the graceful stop -- exit status 0, pool workers shut down --
rather than the shared-memory cleanup handler, which re-raises it and
leaves the workers running.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import uuid

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="finds surviving processes through /proc/<pid>/environ",
)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _marked(marker: bytes):
    """Pids of live processes whose environment carries ``marker``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if marker in handle.read().split(b"\0"):
                    pids.append(int(entry))
        except OSError:
            continue
    return pids


def _serve_and_terminate(token: str) -> int:
    """Launch a two-worker daemon, SIGTERM it at readiness, and return
    its exit status."""
    env = dict(os.environ, REPRO_TEST_SERVE_MARKER=token,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        lines = []
        for line in daemon.stdout:
            lines.append(line)
            if line.startswith("serving on"):
                daemon.send_signal(signal.SIGTERM)
                break
        assert lines and lines[-1].startswith("serving on"), "".join(lines)
        # No draining read: orphaned workers would hold the pipe open.
        return daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()


def test_sigterm_at_readiness_stops_daemon_and_workers():
    # The race is timing-dependent, so a few launches make a regression
    # show reliably.
    for _ in range(3):
        token = uuid.uuid4().hex
        marker = f"REPRO_TEST_SERVE_MARKER={token}".encode()
        try:
            assert _serve_and_terminate(token) == 0
            deadline = time.monotonic() + 10.0
            survivors = _marked(marker)
            while survivors and time.monotonic() < deadline:
                time.sleep(0.1)
                survivors = _marked(marker)
            assert survivors == []
        finally:
            for pid in _marked(marker):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
