"""Fork-based worker pool with a shared dynamic work queue.

Shared-memory parallelism in CPython means processes: the pool forks after
the graph (and ranking) are built, so every worker reads the same
copy-on-write pages instead of receiving a serialized graph.

Scheduling is dynamic: tasks live on one joinable queue, any idle worker
takes the next message, and a worker searching a big subproblem can donate
a node of it back to the queue, as independently-computed child
subproblems, when the queue is running dry; the nodes it keeps it searches
itself. Every queue message is a batch: a contiguous run of tasks whose
size depends only on the task count and the worker count, so the initial
tasks keep their order and a donated set of children leaves as a few
messages rather than one per child. Workers never share mutable algorithm
state; each keeps a local (count, histogram, cliques) accumulator that the
driver merges after the queue drains. The driver watches the workers while
it waits, so a worker that dies mid-task ends the run with an error
instead of a hang.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import traceback
from collections import Counter
from dataclasses import dataclass
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


class LocalAccumulator:
    """Per-worker emission buffer merged by the driver at the end."""

    __slots__ = ("count", "hist", "cliques")

    def __init__(self, collect_cliques: bool) -> None:
        self.count = 0
        self.hist: Counter[int] = Counter()
        self.cliques: list[tuple[int, ...]] | None = [] if collect_cliques else None

    def emit(self, clique: tuple[int, ...]) -> None:
        self.count += 1
        self.hist[len(clique)] += 1
        if self.cliques is not None:
            self.cliques.append(clique)

    def snapshot(self) -> tuple[int, dict[int, int], list[tuple[int, ...]] | None]:
        return self.count, dict(self.hist), self.cliques


# The largest message carries 1 / (workers * _BATCHES_PER_WORKER) of a task
# list: small enough for dynamic balancing at the tail, large enough that
# per-message cost stays negligible.
_BATCHES_PER_WORKER = 8
# How often the driver checks for dead workers while it waits.
_POLL_S = 0.05


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
    work_q: Any,
    result_q: Any,
    handler: Callable[..., None],
    collect_cliques: bool,
    workers: int,
) -> None:
    acc = LocalAccumulator(collect_cliques)
    errors: list[str] = []
    hunger_mark = 2 * workers

    def spawn(tasks: list[Any]) -> None:
        for batch in _batches(tasks, workers):
            work_q.put(batch)

    def hungry() -> bool:
        try:
            return work_q.qsize() < hunger_mark
        except NotImplementedError:
            return True

    while True:
        batch = work_q.get()
        if batch is None:
            result_q.put((acc.snapshot(), errors))
            work_q.task_done()
            return
        for task in batch:
            try:
                handler(task, acc.emit, spawn, hungry)
            except Exception:
                errors.append(traceback.format_exc())
        # Not in a `finally`: a batch cut short by the worker exiting stays
        # unfinished, so the driver reports the dead worker.
        work_q.task_done()


def _watch(fn: Callable[[], Any], workers: list[Any], exits_ok: bool) -> Any:
    """Return fn(), run on a helper thread while the driver watches workers.

    fn blocks until the workers have done their part, so a worker that
    exits first would block it forever; that raises instead. Exit code 0
    is expected only once the workers have been told to stop (exits_ok).
    """
    out: list[Any] = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    while True:
        t.join(_POLL_S)
        if not t.is_alive():
            break
        for p in workers:
            code = p.exitcode
            if code is not None and (code != 0 or not exits_ok):
                raise RuntimeError(
                    f"worker pid {p.pid} exited with code {code} before the pool finished"
                )
    if not out:
        raise RuntimeError("pool driver thread failed; its traceback is on stderr")
    return out[0]


def run_task_pool(
    tasks: list[Any],
    handler: Callable[..., None],
    config: ParallelConfig,
    collect_cliques: bool,
) -> tuple[int, Counter[int], list[tuple[int, ...]] | None]:
    """Run tasks on `config.threads` forked workers; merge their accumulators.

    `handler(task, emit, spawn, hungry)` may pass a list of follow-up tasks
    to spawn, and hungry() reports whether the shared queue wants more of
    them; the pool drains until every task and descendant is done. A task
    that raises, or a worker that dies, makes the pool raise RuntimeError.
    """
    ctx = mp.get_context("fork")
    work_q = ctx.JoinableQueue()
    result_q = ctx.SimpleQueue()
    args = (work_q, result_q, handler, collect_cliques, config.threads)
    workers = [
        ctx.Process(target=_worker, args=args, daemon=True)
        for _ in range(config.threads)
    ]
    try:
        for p in workers:
            p.start()
        for batch in _batches(tasks, config.threads):
            work_q.put(batch)
        _watch(work_q.join, workers, exits_ok=False)
        for _ in workers:
            work_q.put(None)
        reports = _watch(lambda: [result_q.get() for _ in workers], workers, exits_ok=True)
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
        work_q.close()

    count = 0
    hist: Counter[int] = Counter()
    cliques: list[tuple[int, ...]] | None = [] if collect_cliques else None
    failures: list[str] = []
    for (c, h, cl), errs in reports:
        count += c
        hist.update(h)
        if cliques is not None and cl is not None:
            cliques.extend(cl)
        failures.extend(errs)

    if failures:
        raise RuntimeError("worker task failed:\n" + "\n".join(failures))
    return count, hist, cliques
