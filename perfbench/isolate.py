"""Run one operation in its own forked process group, under a deadline.

A hung worker pool (for example one blocked forever in a queue join) then
costs one failed operation instead of the whole benchmark: on timeout the
whole group - the operation, its pool workers and any CLI subprocess - is
killed and reaped.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import time
import traceback
from typing import Any, Callable


class OpFailed(Exception):
    """The operation raised, crashed or ran past its deadline."""


def _child(fn: Callable[[], Any], wfd: int) -> None:
    os.setpgid(0, 0)
    code = 0
    try:
        payload = pickle.dumps(("ok", fn()))
    except BaseException:  # noqa: B036 - reported to the parent, then _exit
        payload = pickle.dumps(("error", traceback.format_exc()))
        code = 1
    try:
        with os.fdopen(wfd, "wb") as w:
            w.write(payload)
    finally:
        os._exit(code)


def _end_group(pid: int) -> int:
    """Kill whatever is left of the child's group; return its wait status.

    The group outlives a child that exits with workers still running, so
    it is killed on every path, not only on timeout.
    """
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _, status = os.waitpid(pid, 0)
    # orphaned grandchildren are reaped by init; wait until the group is gone
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return status


def run_isolated(fn: Callable[[], Any], timeout: float) -> Any:
    """Return fn() computed in a forked child, or raise OpFailed."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(fn, wfd)
    os.close(wfd)
    try:
        os.setpgid(pid, pid)
    except (PermissionError, ProcessLookupError):
        pass  # the child already did it, or already exited
    chunks: list[bytes] = []
    deadline = time.monotonic() + timeout
    with os.fdopen(rfd, "rb", buffering=0) as r:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                _end_group(pid)
                raise OpFailed(f"timed out after {timeout:.0f} s")
            chunk = r.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    status = _end_group(pid)
    if not chunks:
        raise OpFailed(f"child died without a result (wait status {status})")
    kind, value = pickle.loads(b"".join(chunks))
    if kind != "ok":
        raise OpFailed(value)
    return value
