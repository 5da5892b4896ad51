"""Fork-based worker pool; the driver deals the batches.

Shared-memory parallelism in CPython means processes: the pool forks after
the graph (and ranking) are built, so every worker reads the same
copy-on-write pages instead of receiving a serialized graph. There is no
shared queue or counter. The driver holds the batches and sends the next
one to each worker that reports idle, on a task pipe only it writes; it
queues each node a worker donates as a batch of its own, publishes in 8
bytes of shared memory how many batches it holds, which decides whether a
worker donates (`engines._CUTOFF`), and stops every worker once all are
idle and no batch is left. Workers send their cliques, chunk by chunk as
sink.encode() payloads, on their own result pipes; a full pipe blocks its
worker, so memory stays bounded. Messages are length-prefixed pickles.
The driver waits with poll() and writes to a worker only while it waits
for a batch, so neither blocks on the other. A task that raises, or
a worker's death, seen as end-of-file on its result pipe, ends the run at
once with an error. The workers ignore SIGINT; on a KeyboardInterrupt or
any error the driver kills and reaps them. A worker whose driver is gone
sees its task pipe end.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from mmap import mmap
from typing import Any, Callable

from .sinks import CliqueSink


@dataclass(frozen=True)
class ParallelConfig:
    """The worker budget: how many processes search at once."""

    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


# The largest batch carries 1 / (workers * _BATCHES_PER_WORKER) of a task
# list: small enough for dynamic balancing at the tail, large enough that
# per-message cost stays negligible.
_BATCHES_PER_WORKER = 8

# Cliques per streamed message: large enough that the per-message cost
# (a pipe write, a wakeup of the driver) is negligible next to formatting
# the chunk, small enough that a worker holds little of a huge listing.
_CHUNK = 2048


def _batches(tasks: list[Any], workers: int) -> list[list[Any]]:
    """Cut tasks, in order, into the contiguous batches the driver deals.

    Sizes start at 1 and double after every `workers` messages, up to
    len(tasks) / (workers * _BATCHES_PER_WORKER). The head of the list,
    where par_mce puts its costliest tasks, is dealt out one task per
    message, so the heaviest tasks do not queue behind each other in one
    worker; the cheap tail travels in a few large messages.
    """
    cap = -(-len(tasks) // (workers * _BATCHES_PER_WORKER))
    out: list[list[Any]] = []
    i = 0
    size = 1
    while i < len(tasks):
        out.append(tasks[i : i + size])
        i += size
        if len(out) % workers == 0:
            size = min(2 * size, cap)
    return out


def chunker(sink: CliqueSink | None, deliver: Callable[[Any], None]) -> tuple[Callable, Callable]:
    """(emit, flush) that pass each chunk of at most _CHUNK cliques, full or
    flushed, to deliver as sink.encode(chunk): a pool worker's pipe, or
    sink.take at one thread. With no sink (None) the cliques are dropped."""
    chunk: list[tuple[int, ...]] = []

    def flush() -> None:
        nonlocal chunk
        if chunk and sink is not None:
            deliver(sink.encode(chunk))
        chunk = []

    def emit(clique: tuple[int, ...]) -> None:
        chunk.append(clique)
        if len(chunk) == _CHUNK:
            flush()

    return emit, flush


def _send(fd: int, *msg: Any) -> None:
    data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _recv(fd: int) -> tuple:  # EOFError if the writer is gone first
    buf, size = bytearray(), 8
    while len(buf) < size:
        if not (more := os.read(fd, size - len(buf))):
            raise EOFError
        buf += more
        if size == len(buf) == 8:
            size += int.from_bytes(buf, "little")
    return pickle.loads(memoryview(buf)[8:])


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, ValueError, OSError):
            stream.flush()


def _worker(
    fds: set[int], rfd: int, wfd: int, handler: Callable, sink: Any, shm: mmap, mark: int
) -> None:
    """A forked worker's life: batches in on rfd, (tag, body) out on wfd; never returns."""
    code = 1
    try:
        for fd in fds.difference((rfd, wfd)):  # the driver's ends, and earlier workers'
            os.close(fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        emit, flush = chunker(sink, partial(_send, wfd, "cliques"))
        spawn = partial(_send, wfd, "spawn")

        def hungry() -> bool:
            return int.from_bytes(shm, "little") < mark

        while (batch := _recv(rfd)[0]) is not None:  # EOFError: the driver is gone
            for task in batch:
                handler(task, emit, spawn, hungry)
            _send(wfd, "idle", None)
        flush()
        _send(wfd, "done", None)
        code = 0
    except Exception:
        _send(wfd, "failed", traceback.format_exc())  # raises if the driver is gone
    finally:
        _flush_stdio()
        os._exit(code)


def run_task_pool(
    tasks: list[Any],
    handler: Callable[..., None],
    config: ParallelConfig,
    sink: CliqueSink | None = None,
) -> None:
    """Run `handler(task, emit, spawn, hungry)` over tasks on forked workers.

    Each payload goes to sink.take(); with no sink (None, or False) the
    cliques are dropped. A task that raises or a worker that dies raises
    RuntimeError; on any error every worker is killed. All are reaped and
    every pipe is closed before this returns or raises.
    """
    deck = deque(_batches(tasks, config.threads))
    if not deck:
        return
    sink = None if sink is False else sink
    shm = mmap(-1, 8)  # anonymous and shared: len(deck), for hungry()
    fds: set[int] = set()  # every pipe end this thread holds
    workers: dict[int, tuple[int, int]] = {}  # result pipe -> (pid, task pipe), until reaped
    idle: list[int] = []  # the result pipes of workers waiting for a batch
    poller = select.poll()

    def deal() -> None:
        stop = not deck and len(idle) == config.threads
        while idle and (deck or stop):
            with suppress(BrokenPipeError):  # a dead worker: its result pipe ends
                _send(workers[idle.pop()][1], deck.popleft() if deck else None)
        shm[:] = len(deck).to_bytes(8, "little")

    try:
        deal()
        # SIGINT stays pending for this thread while forking; the workers ignore it
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            _flush_stdio()
            for _ in range(config.threads):
                fds.update(task_pipe := os.pipe())
                fds.update(result_pipe := os.pipe())
                if (pid := os.fork()) == 0:
                    _worker(fds, task_pipe[0], result_pipe[1], handler, sink, shm,
                            2 * config.threads)
                workers[result_pipe[0]] = (pid, task_pipe[1])
                for fd in (task_pipe[0], result_pipe[1]):
                    os.close(fd)
                    fds.remove(fd)
                poller.register(result_pipe[0], select.POLLIN)
                idle.append(result_pipe[0])
                deal()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        left = config.threads
        while left:
            for fd, _ in poller.poll():
                try:
                    tag, body = _recv(fd)
                except EOFError:
                    pid = workers.pop(fd)[0]
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    msg = f"worker pid {pid} exited with code {code} before the pool finished"
                    raise RuntimeError(msg) from None
                if tag == "cliques":
                    sink.take(body)  # type: ignore[union-attr]
                elif tag == "spawn":
                    deck.append([body])
                elif tag == "idle":
                    idle.append(fd)
                elif tag == "done":
                    poller.unregister(fd)
                    left -= 1
                else:
                    raise RuntimeError("worker task failed:\n" + body)
            deal()
    except BaseException:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, _ in workers.values():
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
        shm.close()
