"""The forked task pool: batched messages, spawned tasks, streamed
listings and counts, failures, Ctrl-C and a killed driver.

Each test that could hang on a pool defect runs under a deadline, so a
regression fails instead of stalling the suite, and each test that starts
a pool checks that it leaves no process and no open fd behind.
"""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import parmce as P
import parmce.parallel as parallel
from parmce.parallel import _BATCHES_PER_WORKER, _CHUNK, ParallelConfig, _batches, run_task_pool

from util import CollectSink, canonical_run, no_leftovers, package_env


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
        for i in range(task[1]):
            spawn(("leaf", i))
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
        sink = CollectSink()
        with no_leftovers(), deadline(30):
            run_task_pool([], emit_task, ParallelConfig(2), sink)
        assert sink.cliques == []

    def test_more_workers_than_tasks(self):
        sink = CollectSink()
        with no_leftovers(), deadline(30):
            run_task_pool([0, 1], emit_task, ParallelConfig(3), sink)
            assert sorted(sink.cliques) == [(0,), (1,)]
            # 3 vertices: 3 par_mce tasks and 1 par_ttt root, on 4 workers
            engines_agree_with_ttt(P.gen_gnp(3, 0.7, 1), threads=4, cutoff=1)

    def test_task_count_not_a_multiple_of_the_batch_size(self):
        n = 37
        sizes = [len(b) for b in _batches(list(range(n)), 2)]
        assert sizes[-1] < max(sizes)
        sink = CollectSink()
        with no_leftovers(), deadline(60):
            run_task_pool(list(range(n)), emit_task, ParallelConfig(2), sink)
            assert sorted(sink.cliques) == [(t,) for t in range(n)]
            engines_agree_with_ttt(P.gen_gnp(n, 0.3, 4), threads=2, cutoff=4)

    def test_spawned_batch_runs_every_task(self):
        sink = CollectSink()
        with no_leftovers(), deadline(30):
            run_task_pool([("root", 50)], spawn_leaves, ParallelConfig(2), sink)
        assert sorted(sink.cliques) == [(i,) for i in range(50)]

    def test_nested_spawns_on_more_workers_than_cores(self):
        # Every spawn goes to the driver as its own batch while other
        # workers report idle; one lost or misdealt batch would stop the
        # pool early or hang it.
        def handler(task, emit, spawn, hungry):
            depth, i = task
            if depth < 4:
                for j in range(8):
                    spawn((depth + 1, 8 * i + j))
            else:
                emit((i,))

        sink = CollectSink()
        with no_leftovers(), deadline(60):
            run_task_pool([(0, 0)], handler, ParallelConfig(4), sink)
        assert sorted(sink.cliques) == [(i,) for i in range(8**4)]

    def test_counting_sink_gets_the_merged_histogram_once(self):
        sink = P.HistogramSink()
        with no_leftovers(), deadline(30):
            assert run_task_pool(list(range(37)), emit_task, ParallelConfig(2), sink) is None
        assert sink.histogram == Counter({1: 37})
        assert sink.count == 37
        with no_leftovers(), deadline(30):
            assert run_task_pool(list(range(5)), emit_task, ParallelConfig(2), False) is None


class PayloadLog(P.CliqueSink):
    """Records what each worker sends for a chunk, tagged with its pid."""

    def __init__(self):
        self.payloads = []

    def encode(self, cliques):
        return os.getpid(), list(cliques)

    def take(self, payload):
        self.payloads.append(payload)


class SizeLog(P.HistogramSink):
    """A counting sink that records what each worker sends, tagged with its pid."""

    def __init__(self):
        super().__init__()
        self.payloads = []

    def encode(self, cliques):
        return os.getpid(), super().encode(cliques)

    def take(self, payload):
        self.payloads.append(payload)
        super().take(payload[1])


class TestStreamedListing:
    @pytest.mark.parametrize("engine", ["parmce", "parttt"])
    def test_workers_send_bounded_chunks_while_they_search(self, engine):
        # Moon-Moser k=9: 3^9 cliques, 3^8 in each of three top-level tasks
        g = P.gen_moon_moser(9)
        sink = PayloadLog()
        cfg = ParallelConfig(threads=2)
        with no_leftovers(), deadline(60):
            if engine == "parmce":
                P.par_mce(g, P.degree_rank(g), sink, cfg)
            else:
                P.par_ttt(g, None, sink, cfg)
        # the largest message a worker sends holds at most one chunk
        assert max(len(cliques) for _, cliques in sink.payloads) <= _CHUNK
        per_worker = Counter(pid for pid, _ in sink.payloads)
        assert len(per_worker) == 2
        assert min(per_worker.values()) > 1
        union = [c for _, cliques in sink.payloads for c in cliques]
        assert len(union) == 3**9
        assert P.canonical_family(union) == canonical_run("ttt", g)

    def test_default_take_emits_every_clique_once(self):
        # a HistogramSink that only overrides emit keeps a histogram that
        # matches its cliques, whether or not it also sets the
        # needs_cliques attribute that older versions required (the
        # benchmark's collector still sets it)
        class Keeps(P.HistogramSink):
            def __init__(self):
                super().__init__()
                self.cliques = []

            def emit(self, clique):
                super().emit(clique)
                self.cliques.append(clique)

        class Flagged(Keeps):
            needs_cliques = True

        g = P.gen_moon_moser(8)
        expected = canonical_run("ttt", g)
        for cls in (Keeps, Flagged):
            sink = cls()
            with no_leftovers(), deadline(60):
                P.par_mce(g, P.degree_rank(g), sink, ParallelConfig(threads=2))
            assert (sink.count, dict(sink.histogram)) == (3**8, {8: 3**8}), cls
            assert P.canonical_family(sink.cliques) == expected
            assert len(set(sink.cliques)) == 3**8

    def test_a_sink_whose_length_is_zero_still_gets_every_clique(self):
        # a forked sink is empty, so a test of its truth in the worker fails
        class Sized(CollectSink):
            def __len__(self):
                return len(self.cliques)

        g = P.gen_gnp(60, 0.3, 1)
        expected = canonical_run("ttt", g)
        assert len(expected) == 442
        for threads in (1, 2):
            sink = Sized()
            with no_leftovers(), deadline(60):
                P.par_mce(g, P.degree_rank(g), sink, ParallelConfig(threads=threads))
            assert P.canonical_family(sink.cliques) == expected, threads

    def test_sink_error_in_the_driver_stops_the_workers(self):
        class Fails(CollectSink):
            def take(self, payload):
                raise OSError("disk full")

        def handler(task, emit, spawn, hungry):
            for i in range(_CHUNK):
                emit((task, i))
            time.sleep(0.05)

        with no_leftovers(), deadline(4):
            with pytest.raises(OSError, match="disk full"):
                run_task_pool(list(range(400)), handler, ParallelConfig(2), Fails())


class TestStreamedCounts:
    @pytest.mark.parametrize("engine", ["parmce", "parttt"])
    def test_workers_send_size_histograms_while_they_search(self, engine):
        # the count-mode twin of the streamed listing: the same chunks, each
        # sent as its size histogram rather than as the cliques
        g = P.gen_moon_moser(9)
        sink = SizeLog()
        cfg = ParallelConfig(threads=2)
        with no_leftovers(), deadline(60):
            if engine == "parmce":
                P.par_mce(g, P.degree_rank(g), sink, cfg)
            else:
                P.par_ttt(g, None, sink, cfg)
        for _, sizes in sink.payloads:
            assert isinstance(sizes, Counter)
            assert set(sizes) == {9}
            assert 0 < sum(sizes.values()) <= _CHUNK
        per_worker = Counter(pid for pid, _ in sink.payloads)
        assert len(per_worker) == 2
        assert min(per_worker.values()) > 1
        assert sink.count == 3**9


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

        with no_leftovers(), deadline(30):
            with pytest.raises(RuntimeError) as info:
                run_task_pool(tasks, handler, ParallelConfig(2), False)
        assert "Traceback" in str(info.value)
        assert f"ValueError: task {bad} failed" in str(info.value)

    def test_failing_final_flush_is_reported(self):
        # each worker's last, partial chunk is encoded after its last task
        class EncodeFails(CollectSink):
            def encode(self, cliques):
                raise ValueError("cannot encode")

        with no_leftovers(), deadline(30):
            with pytest.raises(RuntimeError) as info:
                run_task_pool([0, 1, 2], emit_task, ParallelConfig(2), EncodeFails())
        assert "ValueError: cannot encode" in str(info.value)

    def test_dead_worker_raises_instead_of_hanging(self):
        def handler(task, emit, spawn, hungry):
            if task == 3:
                os._exit(7)

        with no_leftovers(), deadline(20):
            with pytest.raises(RuntimeError, match=r"worker pid \d+ exited with code 7"):
                run_task_pool(list(range(40)), handler, ParallelConfig(2), False)

    def test_first_task_failure_ends_the_run_at_once(self):
        # 400 tasks of 0.05 s on 2 workers: about 10 s of work per worker
        def handler(task, emit, spawn, hungry):
            if task == 3:
                raise ValueError("task 3 failed")
            time.sleep(0.05)

        with no_leftovers(), deadline(4):
            with pytest.raises(RuntimeError) as info:
                run_task_pool(list(range(400)), handler, ParallelConfig(2), False)
        assert "Traceback" in str(info.value)
        assert "ValueError: task 3 failed" in str(info.value)

    def test_sigint_stops_the_workers(self):
        def handler(task, emit, spawn, hungry):
            time.sleep(0.05)

        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        try:
            with no_leftovers(), deadline(5):
                timer.start()
                with pytest.raises(KeyboardInterrupt):
                    run_task_pool(list(range(400)), handler, ParallelConfig(2), False)
        finally:
            timer.cancel()

    def test_a_failed_fork_stops_the_workers_already_started(self, monkeypatch):
        # the second fork fails: the first worker, asleep in its task, is
        # killed and reaped, and every pipe opened so far is closed
        real_fork = os.fork
        forks = []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "fork refused")
            return real_fork()

        def handler(task, emit, spawn, hungry):
            time.sleep(60)

        monkeypatch.setattr(parallel.os, "fork", fork)
        with no_leftovers(), deadline(10):
            with pytest.raises(OSError, match="fork refused"):
                run_task_pool(list(range(10)), handler, ParallelConfig(3), False)
        assert len(forks) == 2


ORPHAN_DRIVER = """
import os, sys, time
from parmce.parallel import ParallelConfig, run_task_pool

def handler(task, emit, spawn, hungry):
    if task == "short":
        with open(sys.argv[1] + ".part", "w") as f:
            f.write(str(os.getpid()))
        os.replace(sys.argv[1] + ".part", sys.argv[1])
    else:
        time.sleep(60)

run_task_pool(["long", "short"], handler, ParallelConfig(2), False)
"""


def running(pid):
    """True while pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


class TestKilledDriver:
    def test_an_idle_worker_exits_when_its_driver_is_killed(self, tmp_path):
        # one worker sleeps in the long task; the other finishes the short
        # one and waits for a batch that a SIGKILLed driver never sends
        pid_file = tmp_path / "short.pid"
        proc = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_DRIVER, str(pid_file)],
            env=package_env(), start_new_session=True,
        )
        try:
            give_up = time.monotonic() + 30
            while not pid_file.exists():
                assert proc.poll() is None, "the driver ended before the short task ran"
                assert time.monotonic() < give_up, "the short task never ran"
                time.sleep(0.01)
            worker = int(pid_file.read_text())
            assert running(worker)
            proc.kill()
            proc.wait(timeout=10)
            give_up = time.monotonic() + 5
            while running(worker):
                assert time.monotonic() < give_up, f"idle worker {worker} outlived its driver by 5 s"
                time.sleep(0.01)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)


def test_the_pool_does_not_import_multiprocessing():
    code = (
        "import sys, parmce.cli, parmce as P\n"
        "g = P.gen_gnp(40, 0.3, 1)\n"
        "sink = P.HistogramSink()\n"
        "P.par_mce(g, P.degree_rank(g), sink, P.ParallelConfig(threads=2))\n"
        "print(sink.count, sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    count, modules = out.stdout.split(" ", 1)
    assert int(count) == len(canonical_run("ttt", P.gen_gnp(40, 0.3, 1)))
    assert modules.strip() == "[]"
