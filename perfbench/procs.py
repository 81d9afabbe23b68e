"""Child processes of a benchmark run: environment, start, reaping.

Every child is started through one :class:`Children` set and reaped
when the set closes -- on normal exit, on a failed check, and on
SIGINT/SIGTERM (``run.py`` turns both into exceptions, so the
``finally`` clauses run).  A child that does not exit when asked is
killed.  :func:`assert_no_children` is the run's last act.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How long a child gets to exit after it was asked to.
STOP_TIMEOUT_S = 10.0


def strip_repro_env(environ: Dict[str, str]) -> None:
    """Remove every ``REPRO_*`` knob, so runs measure the defaults."""
    for name in [name for name in environ if name.startswith("REPRO_")]:
        del environ[name]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    strip_repro_env(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class ChildFailed(RuntimeError):
    """A child process exited badly or sent no result."""


class Children:
    """The processes one run starts; closing reaps all of them."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def spawn(
        self, script: str, args: Sequence[str], stdin: Optional[int] = None
    ) -> subprocess.Popen:
        """Start ``python perfbench/<script> <args>``; stdout is piped."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=stdin,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        self._procs.append(proc)
        return proc

    def run_json(self, script: str, args: Sequence[str]) -> Dict[str, object]:
        """Run a child to completion; its last stdout line is JSON."""
        proc = self.spawn(script, args)
        try:
            out, _ = proc.communicate()
        finally:
            self.stop(proc)
        return last_json(proc, out)

    def stop(self, proc: subprocess.Popen) -> None:
        """Terminate *proc* unless it already exited; wait for it."""
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()

    def close(self) -> None:
        procs, self._procs = self._procs, []
        for proc in procs:
            self.stop(proc)


def last_json(proc: subprocess.Popen, out: str) -> Dict[str, object]:
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"child {proc.args[1:]} exited {proc.returncode}"
            f" with output {out[-400:]!r}"
        )
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ChildFailed(f"child {proc.args[1:]} sent {lines[-1]!r}")
    return result


def assert_no_children() -> None:
    """Raise if a process started by this one is still alive.

    ``waitpid(-1, WNOHANG)`` reaps leftover zombies, answers 0 while a
    live child remains, and raises ``ChildProcessError`` once there is
    no child at all.
    """
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            raise ChildFailed("a child process is still alive at exit")
