"""Fork-based worker pool with a shared dynamic work queue.

Shared-memory parallelism in CPython means processes: the pool forks after
the graph (and ranking) are built, so every worker reads the same
copy-on-write pages instead of receiving a serialized graph.

Scheduling is dynamic: tasks live on one queue, any idle worker takes the
next message, and a worker searching a big subproblem can donate a node of
it back to the queue, as one new task, when the queue is running dry; the
nodes it keeps it searches itself. Every queue message is a batch: the
initial tasks go out as contiguous runs whose sizes depend only on the
task count and the worker count, so they keep their order, and each
donated task goes out alone. A shared counter holds the batches queued or
running, so the worker that finishes the last one knows the work is done
and tells every worker to stop.

Workers never share mutable algorithm state; results leave a worker one
way only. It gathers its cliques in chunks of at most _CHUNK (`chunker`,
as a one-thread run does), has the sink encode each chunk in the worker
(see CliqueSink.encode) and sends the payload on its own pipe while it
searches; the driver hands each payload to the sink's take() as it
arrives. A full pipe blocks its worker, so a run holds O(_CHUNK *
workers) cliques in flight, not the whole output. The driver waits in its
main thread on those pipes and on the workers' process sentinels, so the
first task that raises, a failed final flush, or a worker that dies, ends
the run at once with an error instead of a hang. The workers ignore
SIGINT; a KeyboardInterrupt in the driver terminates them.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from .sinks import CliqueSink


@dataclass(frozen=True)
class ParallelConfig:
    """Worker budget and the cutoff that gates donating search nodes.

    A search node below a task's root whose cand has at least `cutoff`
    vertices asks once, when it is visited, whether the shared queue is
    hungry; only then is it donated, whole, as one new task. A task's root
    is never donated, and a node inside a task with at most two candidates
    is decided in closed form without asking, whatever the cutoff. Every
    other node is searched in place. At one thread nothing is donated.
    """

    threads: int = 1
    cutoff: int = 16

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")


# The largest message carries 1 / (workers * _BATCHES_PER_WORKER) of a task
# list: small enough for dynamic balancing at the tail, large enough that
# per-message cost stays negligible.
_BATCHES_PER_WORKER = 8

# Cliques per streamed message: large enough that the per-message cost
# (a pipe write, a wakeup of the driver) is negligible next to formatting
# the chunk, small enough that a worker holds little of a huge listing.
_CHUNK = 2048


def _batches(tasks: list[Any], workers: int) -> list[list[Any]]:
    """Cut tasks, in order, into contiguous queue messages.

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


def _worker(
    conn: Any,
    work_q: Any,
    pending: Any,
    handler: Callable[..., None],
    sink: CliqueSink | None,
    workers: int,
) -> None:
    # The driver stops the workers on KeyboardInterrupt; a terminal's Ctrl-C
    # reaches the whole process group, so the workers themselves ignore it.
    # It was blocked across the fork, so none slipped in before this line.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    emit, flush = chunker(sink, lambda payload: conn.send(("cliques", payload)))
    hunger_mark = 2 * workers

    def spawn(task: Any) -> None:
        with pending.get_lock():
            pending.value += 1
        work_q.put([task])

    def hungry() -> bool:
        try:
            return work_q.qsize() < hunger_mark
        except NotImplementedError:
            return True

    while True:
        batch = work_q.get()
        try:
            if batch is None:
                flush()
                conn.send(("done", None))
                return
            for task in batch:
                handler(task, emit, spawn, hungry)
        except Exception:
            conn.send(("failed", traceback.format_exc()))
            return
        with pending.get_lock():
            pending.value -= 1
            if pending.value == 0:
                for _ in range(workers):
                    work_q.put(None)


def _collect(left: dict[Any, Any], sink: CliqueSink | None) -> None:
    """Read every worker's messages in `left` (pipe -> process) to its report.

    Each payload goes to sink.take() as it arrives, until every worker has
    reported done. A task traceback raises at once. A sentinel that fires
    while its pipe holds nothing means the worker died; a pipe is checked
    before its sentinel, so a worker that reported and then exited is not
    flagged.
    """
    while left:
        ready = wait([*left, *(p.sentinel for p in left.values())])
        for conn, p in list(left.items()):
            if conn in ready:
                tag, body = conn.recv()
                if tag == "cliques":
                    sink.take(body)  # type: ignore[union-attr]
                elif tag == "done":
                    del left[conn]
                else:
                    raise RuntimeError("worker task failed:\n" + body)
            elif p.sentinel in ready and not conn.poll():
                p.join()
                raise RuntimeError(
                    f"worker pid {p.pid} exited with code {p.exitcode} before the pool finished"
                )


def run_task_pool(
    tasks: list[Any],
    handler: Callable[..., None],
    config: ParallelConfig,
    sink: CliqueSink | None = None,
) -> None:
    """Run tasks on `config.threads` forked workers; deliver their results.

    `handler(task, emit, spawn, hungry)` may pass a follow-up task to
    spawn, which queues it as a batch of its own, and hungry() reports
    whether the shared queue wants more of them. A shared counter of
    queued or running batches tells the workers when to stop. Every worker
    sends sink.encode(chunk) for each chunk of at most _CHUNK cliques as it
    goes, and this thread passes each payload to sink.take(); with no sink
    (None, or False) the cliques are dropped. This thread waits on the
    pipes and the workers' sentinels, and the first task that raises, or a
    worker that dies, raises RuntimeError and terminates the rest; so does
    an error raised by the sink, such as a failed write.
    """
    batches = _batches(tasks, config.threads)
    if not batches:
        return
    if sink is False:
        sink = None
    ctx = mp.get_context("fork")
    work_q = ctx.Queue()
    pending = ctx.Value("i", len(batches))
    # The driver keeps every sending end open as well, so a pipe turns ready
    # only with a message, never with end-of-file.
    pipes = [ctx.Pipe(duplex=False) for _ in range(config.threads)]
    args = (work_q, pending, handler, sink, config.threads)
    workers = [ctx.Process(target=_worker, args=(send, *args), daemon=True) for _, send in pipes]
    try:
        # Fork every worker before the first put starts the queue's thread,
        # with SIGINT held back meanwhile (it stays pending for this thread).
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for p in workers:
                p.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        for batch in batches:
            work_q.put(batch)
        _collect({recv: p for (recv, _), p in zip(pipes, workers)}, sink)
    except BaseException:
        work_q.cancel_join_thread()
        for p in workers:
            if p.is_alive():
                p.terminate()
        raise
    finally:
        for p in workers:
            if p.pid is not None:
                p.join()
        for recv, send in pipes:
            recv.close()
            send.close()
        work_q.close()
