"""Fork-based worker pool with a shared dynamic work queue.

Shared-memory parallelism in CPython means processes: the pool forks after
the graph (and ranking) are built, so every worker reads the same
copy-on-write pages instead of receiving a serialized graph.

Scheduling is dynamic: tasks live on one queue, any idle worker takes the
next message, and a worker searching a big subproblem can donate a node of
it back to the queue, as independently-computed child subproblems, when
the queue is running dry; the nodes it keeps it searches itself. Every
queue message is a batch: a contiguous run of tasks whose size depends
only on the task count and the worker count, so the initial tasks keep
their order and a donated set of children leaves as a few messages rather
than one per child. A shared counter holds the batches queued or running,
so the worker that finishes the last one knows the work is done and tells
every worker to stop.

Workers never share mutable algorithm state; each keeps a local size
histogram (and cliques, when listing) and sends it on its own pipe when it
stops. The driver waits in its main thread on those pipes and on the
workers' process sentinels, so the first task that raises, or a worker
that dies, ends the run at once with an error instead of a hang. The
workers ignore SIGINT; a KeyboardInterrupt in the driver terminates them.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import traceback
from collections import Counter
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable


@dataclass(frozen=True)
class ParallelConfig:
    """Worker budget and the cutoff that gates donating search nodes.

    A search node whose cand has at least `cutoff` vertices asks once, when
    it is visited, whether the shared queue is hungry; only then is it
    unrolled into independent child tasks. Every other node is searched in
    place by the sequential kernel. At one thread nothing is donated.
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


def _worker(
    conn: Any,
    work_q: Any,
    pending: Any,
    handler: Callable[..., None],
    collect_cliques: bool,
    workers: int,
) -> None:
    # The driver stops the workers on KeyboardInterrupt; a terminal's Ctrl-C
    # reaches the whole process group, so the workers themselves ignore it.
    # It was blocked across the fork, so none slipped in before this line.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    hist: Counter[int] = Counter()
    cliques: list[tuple[int, ...]] | None = [] if collect_cliques else None
    hunger_mark = 2 * workers

    def emit(clique: tuple[int, ...]) -> None:
        hist[len(clique)] += 1
        if cliques is not None:
            cliques.append(clique)

    def spawn(tasks: list[Any]) -> None:
        batches = _batches(tasks, workers)
        with pending.get_lock():
            pending.value += len(batches)
        for batch in batches:
            work_q.put(batch)

    def hungry() -> bool:
        try:
            return work_q.qsize() < hunger_mark
        except NotImplementedError:
            return True

    while True:
        batch = work_q.get()
        if batch is None:
            conn.send((hist, cliques))
            return
        for task in batch:
            try:
                handler(task, emit, spawn, hungry)
            except Exception:
                conn.send(traceback.format_exc())
                return
        with pending.get_lock():
            pending.value -= 1
            if pending.value == 0:
                for _ in range(workers):
                    work_q.put(None)


def _collect(
    left: dict[Any, Any], hist: Counter[int], cliques: list[tuple[int, ...]] | None
) -> None:
    """Merge one report from each worker in `left` (pipe -> process).

    A task traceback raises at once. A sentinel that fires while its pipe
    holds no report means the worker died; a pipe is checked before its
    sentinel, so a worker that reported and then exited is not flagged.
    """
    while left:
        ready = wait([*left, *(p.sentinel for p in left.values())])
        for conn, p in list(left.items()):
            if conn in ready:
                msg = conn.recv()
                if isinstance(msg, str):
                    raise RuntimeError("worker task failed:\n" + msg)
                hist.update(msg[0])
                if cliques is not None:
                    cliques.extend(msg[1])
                del left[conn]
            elif p.sentinel in ready and not conn.poll():
                p.join()
                raise RuntimeError(
                    f"worker pid {p.pid} exited with code {p.exitcode} before the pool finished"
                )


def run_task_pool(
    tasks: list[Any],
    handler: Callable[..., None],
    config: ParallelConfig,
    collect_cliques: bool,
) -> tuple[Counter[int], list[tuple[int, ...]] | None]:
    """Run tasks on `config.threads` forked workers; merge their reports.

    `handler(task, emit, spawn, hungry)` may pass a list of follow-up tasks
    to spawn, and hungry() reports whether the shared queue wants more of
    them. A shared counter of queued or running batches tells the workers
    when to stop and send their (histogram, cliques) on their own pipes;
    this thread waits on the pipes and the workers' sentinels, and the
    first task that raises, or a worker that dies, raises RuntimeError and
    terminates the rest. Returns (histogram, cliques or None).
    """
    hist: Counter[int] = Counter()
    cliques: list[tuple[int, ...]] | None = [] if collect_cliques else None
    batches = _batches(tasks, config.threads)
    if not batches:
        return hist, cliques
    ctx = mp.get_context("fork")
    work_q = ctx.Queue()
    pending = ctx.Value("i", len(batches))
    # The driver keeps every sending end open as well, so a pipe turns ready
    # only with a message, never with end-of-file.
    pipes = [ctx.Pipe(duplex=False) for _ in range(config.threads)]
    args = (work_q, pending, handler, collect_cliques, config.threads)
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
        _collect({recv: p for (recv, _), p in zip(pipes, workers)}, hist, cliques)
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
    return hist, cliques
