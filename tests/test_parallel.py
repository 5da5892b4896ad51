"""The forked task pool: batched messages, spawned batches, failures and Ctrl-C.

Each test that could hang on a pool defect runs under a deadline, so a
regression fails instead of stalling the suite.
"""

import multiprocessing as mp
import os
import signal
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import parmce as P
from parmce.parallel import _BATCHES_PER_WORKER, ParallelConfig, _batches, run_task_pool

from util import canonical_run


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def emit_task(task, emit, spawn, hungry):
    emit((task,))


def spawn_leaves(task, emit, spawn, hungry):
    if task[0] == "root":
        spawn([("leaf", i) for i in range(task[1])])
    else:
        emit((task[1],))


def engines_agree_with_ttt(g, **kw):
    expected = canonical_run("ttt", g)
    for engine in ("parttt", "parmce"):
        assert canonical_run(engine, g, **kw) == expected, engine


class TestBatches:
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 37, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_contiguous_in_order_and_few(self, n, workers):
        tasks = list(range(n))
        batches = _batches(tasks, workers)
        assert [t for b in batches for t in b] == tasks
        assert all(batches)
        assert len(batches) <= workers * (_BATCHES_PER_WORKER + n.bit_length())
        # the costliest-first head goes out one task per message
        assert all(len(b) == 1 for b in batches[:workers])
        sizes = [len(b) for b in batches[:-1]]
        assert sizes == sorted(sizes)


class TestBatchedPool:
    def test_zero_tasks(self):
        with deadline(30):
            hist, cliques = run_task_pool([], emit_task, ParallelConfig(2), True)
        assert (hist, cliques) == (Counter(), [])
        assert mp.active_children() == []

    def test_more_workers_than_tasks(self):
        with deadline(30):
            hist, cliques = run_task_pool([0, 1], emit_task, ParallelConfig(3), True)
            assert (hist, sorted(cliques)) == (Counter({1: 2}), [(0,), (1,)])
            # 3 vertices: 3 par_mce tasks and 1 par_ttt root, on 4 workers
            engines_agree_with_ttt(P.gen_gnp(3, 0.7, 1), threads=4, cutoff=1)

    def test_task_count_not_a_multiple_of_the_batch_size(self):
        n = 37
        sizes = [len(b) for b in _batches(list(range(n)), 2)]
        assert sizes[-1] < max(sizes)
        with deadline(60):
            _, cliques = run_task_pool(list(range(n)), emit_task, ParallelConfig(2), True)
            assert sorted(cliques) == [(t,) for t in range(n)]
            engines_agree_with_ttt(P.gen_gnp(n, 0.3, 4), threads=2, cutoff=4)

    def test_spawned_batch_runs_every_task(self):
        with deadline(30):
            _, cliques = run_task_pool([("root", 50)], spawn_leaves, ParallelConfig(2), True)
        assert sorted(cliques) == [(i,) for i in range(50)]

    def test_nested_spawns_on_more_workers_than_cores(self):
        # Every spawn and every finished batch updates the shared batch
        # counter; a lost update would stop the pool early or hang it.
        def handler(task, emit, spawn, hungry):
            depth, i = task
            if depth < 4:
                spawn([(depth + 1, 8 * i + j) for j in range(8)])
            else:
                emit((i,))

        with deadline(60):
            _, cliques = run_task_pool([(0, 0)], handler, ParallelConfig(4), True)
        assert sorted(cliques) == [(i,) for i in range(8**4)]
        assert mp.active_children() == []


class TestPoolFailures:
    def test_task_raising_mid_batch_is_reported(self):
        tasks = list(range(100))
        batch = max(_batches(tasks, 2), key=len)
        bad = batch[len(batch) // 2]
        assert batch[0] != bad != batch[-1]

        def handler(task, emit, spawn, hungry):
            if task == bad:
                raise ValueError(f"task {bad} failed")
            emit((task,))

        with deadline(30):
            with pytest.raises(RuntimeError) as info:
                run_task_pool(tasks, handler, ParallelConfig(2), False)
        assert "Traceback" in str(info.value)
        assert f"ValueError: task {bad} failed" in str(info.value)
        assert mp.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self):
        def handler(task, emit, spawn, hungry):
            if task == 3:
                os._exit(7)

        with deadline(20):
            with pytest.raises(RuntimeError, match=r"worker pid \d+ exited with code 7"):
                run_task_pool(list(range(40)), handler, ParallelConfig(2), False)
        assert mp.active_children() == []

    def test_first_task_failure_ends_the_run_at_once(self):
        # 400 tasks of 0.05 s on 2 workers: about 10 s of work per worker
        def handler(task, emit, spawn, hungry):
            if task == 3:
                raise ValueError("task 3 failed")
            time.sleep(0.05)

        with deadline(4):
            with pytest.raises(RuntimeError) as info:
                run_task_pool(list(range(400)), handler, ParallelConfig(2), False)
        assert "Traceback" in str(info.value)
        assert "ValueError: task 3 failed" in str(info.value)
        assert mp.active_children() == []

    def test_sigint_stops_the_workers(self):
        def handler(task, emit, spawn, hungry):
            time.sleep(0.05)

        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        try:
            with deadline(5):
                timer.start()
                with pytest.raises(KeyboardInterrupt):
                    run_task_pool(list(range(400)), handler, ParallelConfig(2), False)
        finally:
            timer.cancel()
        assert mp.active_children() == []
