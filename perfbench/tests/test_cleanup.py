"""No process started by the benchmark outlives it.

Each test starts a ``serve_http`` run in a session of its own, waits
until the run is midway (its first server is up), then interrupts or
kills it, and looks for any process left in that session.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py", "--workload=serve_http", "--seed=1"]


def _session_members(sid: int) -> List[int]:
    """Live processes whose session id is *sid* (see proc(5))."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, session.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _wait_gone(sid: int, timeout_s: float) -> List[int]:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        left = _session_members(sid)
        if not left:
            return []
        time.sleep(0.1)
    return _session_members(sid)


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM, signal.SIGKILL]
)
def test_interrupted_serve_http_run_leaves_no_process(signum):
    proc = subprocess.Popen(
        [sys.executable, *RUN, "--seconds=60", "--trace=0"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        server = None
        for line in proc.stderr:
            found = re.search(r"server pid (\d+)", line)
            if found:
                server = int(found.group(1))
                break
        assert server is not None, "the run never started a server"
        time.sleep(1.0)
        assert server in _session_members(proc.pid)
        os.kill(proc.pid, signum)
        status = proc.wait(timeout=60)
        if signum != signal.SIGKILL:
            assert status == 130
        # Killed outright, the run reaps nothing: the server notices its
        # parent is gone and drains by itself.
        assert _wait_gone(proc.pid, timeout_s=30) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"),
    )
    done = subprocess.run(
        [sys.executable, *RUN, "--seconds=1", "--trace=0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
