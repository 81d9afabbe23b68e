"""Runs ``python -m repro.serving`` for the benchmark, tied to its parent.

The parent holds the write end of this process's stdin.  When the
parent exits -- normally, on a signal, or killed outright -- the pipe
reaches end-of-file and the watcher thread asks the server to drain,
exactly as SIGTERM does; if the drain hangs, the process exits hard.
So a server started by the benchmark never outlives it.

The last stdout line is this process's peak resident set size.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import threading
import time

#: How long a drain may take after the parent went away.
HARD_EXIT_AFTER_S = 10.0


def _watch_parent() -> None:
    sys.stdin.buffer.read()
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(HARD_EXIT_AFTER_S)
    os._exit(3)


def main() -> int:
    threading.Thread(target=_watch_parent, daemon=True).start()
    from repro.serving.__main__ import main as serve

    status = serve(sys.argv[1:])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
