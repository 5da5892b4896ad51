import io
import os
import signal
import subprocess
import sys
import time

import pytest

import parmce as P
from parmce.cli import (
    RunConfig,
    format_sweep_table,
    main,
    parse_generator_spec,
    run,
    run_on_graph,
    scaling_sweep,
)


class TestRunConfig:
    def test_order_only_with_parmce(self):
        with pytest.raises(ValueError):
            RunConfig(gen="complete:4", algo="ttt", order="degree")

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            RunConfig()
        with pytest.raises(ValueError):
            RunConfig(input="x.txt", gen="complete:4")

    def test_threads_positive(self):
        with pytest.raises(ValueError):
            RunConfig(gen="complete:4", threads=0)

    def test_cutoff_positive(self):
        with pytest.raises(ValueError, match="cutoff"):
            RunConfig(gen="complete:4", algo="ttt", cutoff=0)
        assert RunConfig(gen="complete:4", cutoff=1).cutoff == 1

    def test_bad_algo_and_mode(self):
        with pytest.raises(ValueError):
            RunConfig(gen="complete:4", algo="bk")
        with pytest.raises(ValueError):
            RunConfig(gen="complete:4", mode="plot")


class TestGeneratorSpec:
    def test_forms(self):
        assert parse_generator_spec("moonmoser:3").n == 9
        assert parse_generator_spec("complete:5").m == 10
        g = parse_generator_spec("gnp:20,0.5,7")
        assert g == P.gen_gnp(20, 0.5, 7)
        assert parse_generator_spec("gnp:20,0.5", default_seed=7) == g

    @pytest.mark.parametrize(
        "spec", ["", "mm:3", "moonmoser:", "moonmoser:x", "gnp:10", "complete:1,2"]
    )
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_generator_spec(spec)


class TestRun:
    def test_parmce_on_moon_moser_5(self):
        cfg = RunConfig(gen="moonmoser:5", algo="parmce", order="degree", threads=2)
        rep = run(cfg)
        assert rep.clique_count == 243
        assert rep.max_clique_size == 5
        assert rep.size_histogram == {5: 243}

    def test_ttt_on_k10(self):
        rep = run(RunConfig(gen="complete:10", algo="ttt", mode="histogram"))
        assert rep.clique_count == 1
        assert rep.size_histogram == {10: 1}

    def test_parttt_thread_budgets_agree(self):
        counts = {
            t: run(RunConfig(gen="gnp:500,0.03,5", algo="parttt", threads=t)).clique_count
            for t in (1, 8)
        }
        assert counts[1] == counts[8] > 0

    def test_timing_split_shape(self):
        for algo in ("ttt", "parttt", "parmce"):
            rep = run(RunConfig(gen="gnp:120,0.2,3", algo=algo, threads=2))
            assert rep.tt_seconds == pytest.approx(
                rep.rt_seconds + rep.et_seconds,
                rel=0.01,
                abs=0.010,
            )
            if algo == "parmce":
                assert rep.rt_seconds > 0.0
            else:
                assert rep.rt_seconds == 0.0

    def test_list_mode_writes_cliques(self, tmp_path):
        out = tmp_path / "cliques.txt"
        cfg = RunConfig(
            gen="gnp:40,0.3,11", algo="parmce", mode="list",
            canonical=True, output=str(out), threads=2,
        )
        rep = run(cfg)
        lines = out.read_text().splitlines()
        assert len(lines) == rep.clique_count
        assert lines == sorted(lines, key=lambda s: [int(x) for x in s.split()])

    def test_list_mode_canonical_invariant_across_algos(self, tmp_path):
        files = []
        for algo, threads in (("ttt", 1), ("parttt", 2), ("parmce", 2)):
            path = tmp_path / f"{algo}.txt"
            run(RunConfig(
                gen="gnp:50,0.25,2", algo=algo, mode="list", canonical=True,
                output=str(path), threads=threads,
            ))
            files.append(path.read_text())
        assert files[0] == files[1] == files[2]

    def test_original_labels(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("10 20\n20 30\n")
        out = tmp_path / "out.txt"
        run(RunConfig(
            input=str(src), algo="ttt", mode="list", canonical=True,
            output=str(out), original_labels=True,
        ))
        assert out.read_text() == "10 20\n20 30\n"

    def test_list_mode_requires_stream(self):
        g = P.gen_complete(3)
        with pytest.raises(ValueError):
            run_on_graph(g, RunConfig(gen="complete:3", mode="list"))


class TestScalingSweep:
    def test_rows_and_definition(self):
        cfg = RunConfig(gen="gnp:150,0.25,9", algo="parmce", order="degree")
        rows = scaling_sweep(cfg, [1, 2])
        assert [r.threads for r in rows] == [1, 2]
        assert rows[0].clique_count == rows[1].clique_count
        # speedup * et is the baseline et, identical across rows
        base0 = rows[0].speedup * rows[0].et_seconds
        base1 = rows[1].speedup * rows[1].et_seconds
        assert base0 == pytest.approx(base1, rel=1e-9)
        table = format_sweep_table(rows)
        assert "threads" in table and len(table.splitlines()) == 3

    def test_single_thread_row_is_ratio_of_two_runs(self):
        cfg = RunConfig(gen="gnp:150,0.25,9", algo="parttt")
        rows = scaling_sweep(cfg, [1])
        assert rows[0].speedup == pytest.approx(
            rows[0].speedup * rows[0].et_seconds / rows[0].et_seconds
        )
        assert rows[0].speedup > 0

    def test_sweep_rejects_sequential_algo(self):
        with pytest.raises(ValueError):
            scaling_sweep(RunConfig(gen="complete:5", algo="ttt"), [1])


class TestMainEntry:
    def test_run_count_mode(self, capsys):
        assert main(["run", "--gen", "moonmoser:3", "--algo", "parttt",
                     "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "clique_count=27" in out
        assert "tt_seconds=" in out

    def test_bare_flags_default_to_run(self, capsys):
        assert main(["--gen", "complete:6", "--algo", "ttt"]) == 0
        assert "clique_count=1" in capsys.readouterr().out

    def test_histogram_mode_prints_histogram(self, capsys):
        assert main(["run", "--gen", "moonmoser:2", "--algo", "parmce",
                     "--order", "triangle", "--mode", "histogram"]) == 0
        out = capsys.readouterr().out
        assert "hist[2]=9" in out

    def test_gen_subcommand_round_trips(self, tmp_path, capsys):
        path = tmp_path / "mm.txt"
        assert main(["gen", "--gen", "moonmoser:2", "--output", str(path)]) == 0
        g = P.read_edge_list(path)
        assert (g.n, g.m) == (6, 9)

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--gen", "complete:3"]) == 0
        assert capsys.readouterr().out == "0 1\n0 2\n1 2\n"

    def test_missing_file_is_error_exit(self, capsys):
        assert main(["run", "--input", "/nonexistent/g.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0 zzz\n")
        assert main(["run", "--input", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_invalid_flag_combination_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "ttt",
                  "--order", "degree"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--cutoff", "--threads"])
    def test_zero_cutoff_or_threads_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "ttt", flag, "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_missing_source_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "ttt"])
        assert exc.value.code == 2

    def test_report_json(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["run", "--gen", "complete:4", "--algo", "ttt",
                     "--report-json", str(path)]) == 0
        import json

        data = json.loads(path.read_text())
        assert data["clique_count"] == 1
        assert data["max_clique_size"] == 4

    def test_sweep_writes_table_and_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--gen", "gnp:100,0.2,4", "--algo", "parmce",
                     "--sweep", "1,2", "--output", "s.csv"]) == 0
        out = capsys.readouterr().out
        assert "threads" in out and "speedup" in out
        csv_lines = (tmp_path / "s.csv").read_text().splitlines()
        assert csv_lines[0] == "threads,et_seconds,speedup,clique_count"
        assert len(csv_lines) == 3

    def test_bad_sweep_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "parmce",
                  "--sweep", "1,0"])
        assert exc.value.code == 2

    def test_list_mode_to_stdout_reports_on_stderr(self, capsys):
        assert main(["run", "--gen", "complete:3", "--algo", "ttt",
                     "--mode", "list"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0 1 2\n"
        assert "clique_count=1" in captured.err

    def test_closed_output_pipe_is_a_clean_error(self):
        code, err = close_after_one_line(
            ["--gen", "moonmoser:9", "--algo", "parmce", "--threads", "2"], timeout=60
        )
        assert code == 1
        assert "error: [Errno 32] Broken pipe" in err
        assert "Traceback" not in err

    def test_closed_output_pipe_ends_the_enumeration_at_once(self):
        # ttt on G(1200, 0.2) takes tens of seconds; the first failed write
        # must end it, not the end of the enumeration
        code, err = close_after_one_line(
            ["--gen", "gnp:1200,0.2,42", "--algo", "ttt"], timeout=5
        )
        assert code == 1
        assert "error: [Errno 32] Broken pipe" in err
        assert "Traceback" not in err

    def test_sigint_to_the_process_group_is_one_line(self):
        # a terminal's Ctrl-C reaches the CLI and its pool workers alike
        proc = start_cli(
            ["--gen", "gnp:1200,0.2,42", "--algo", "parmce", "--threads", "2"],
            start_new_session=True,
        )
        try:
            time.sleep(0.5)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert err.splitlines() == ["error: interrupted"]
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no worker is left in the group


def start_cli(args, **popen_kw):
    """`python -m parmce.cli run ARGS` on the package under test."""
    src = os.path.dirname(os.path.dirname(P.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "parmce.cli", "run", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path), **popen_kw,
    )


def close_after_one_line(args, timeout):
    """List ARGS to a pipe whose reader closes after one line: (exit code, stderr)."""
    proc = start_cli([*args, "--mode", "list"])
    try:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        _, err = proc.communicate(timeout=timeout)
    finally:
        proc.kill()
    return proc.returncode, err
