import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time
from hashlib import sha256

import pytest

import parmce as P
import parmce.cli
from parmce.cli import (
    RunConfig,
    _config_from_args,
    build_parser,
    format_sweep_table,
    main,
    parse_generator_spec,
    run,
    run_on_graph,
    scaling_sweep,
)

from util import package_env


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

    def test_ttt_runs_on_one_thread(self):
        with pytest.raises(ValueError, match="--threads above 1 needs parttt or parmce"):
            RunConfig(gen="complete:4", algo="ttt", threads=2)
        assert RunConfig(gen="complete:4", algo="ttt", threads=1).threads == 1
        # a bad count is reported as such, whatever the algorithm
        with pytest.raises(ValueError, match="must be >= 1"):
            RunConfig(gen="complete:4", algo="ttt", threads=0)

    def test_bad_algo_and_mode(self):
        with pytest.raises(ValueError):
            RunConfig(gen="complete:4", algo="bk")
        with pytest.raises(ValueError):
            RunConfig(gen="complete:4", mode="plot")
        with pytest.raises(ValueError, match="unknown mode 'histogram'"):
            RunConfig(gen="complete:4", mode="histogram")  # every report has the histogram

    @pytest.mark.parametrize("flag", ["canonical", "original_labels"])
    @pytest.mark.parametrize("mode", ["count"])
    def test_list_only_flags_need_list_mode(self, flag, mode):
        with pytest.raises(ValueError, match="--mode list"):
            RunConfig(gen="complete:4", mode=mode, **{flag: True})
        assert getattr(RunConfig(gen="complete:4", mode="list", **{flag: True}), flag)

    @pytest.mark.parametrize("mode", ["list"])
    def test_sweep_needs_count_mode(self, mode):
        with pytest.raises(ValueError, match="--sweep"):
            RunConfig(gen="complete:4", mode=mode, sweep=[1, 2])
        assert RunConfig(gen="complete:4", sweep=[1, 2]).sweep == [1, 2]


class TestGeneratorSpec:
    def test_forms(self):
        assert parse_generator_spec("moonmoser:3").n == 9
        assert parse_generator_spec("complete:5").m == 10
        g = parse_generator_spec("gnp:20,0.5,7")
        assert g == P.gen_gnp(20, 0.5, 7)
        assert parse_generator_spec("gnp:20,0.5") == P.gen_gnp(20, 0.5, 0)

    @pytest.mark.parametrize(
        "spec",
        ["", "mm:3", "moonmoser:", "moonmoser:x", "gnp:10", "complete:1,2",
         "gnp:10,,0.5", "gnp:10,0.5,", "complete:,5"],
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
        rep = run(RunConfig(gen="complete:10", algo="ttt"))
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
            threads = 1 if algo == "ttt" else 2
            rep = run(RunConfig(gen="gnp:120,0.2,3", algo=algo, threads=threads))
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

    @pytest.mark.parametrize("original_labels", [False, True])
    def test_streamed_listing_matches_ttt_at_two_threads(self, tmp_path, original_labels):
        # Moon-Moser k=8 (6,561 cliques, several chunks per worker) with
        # labels that are not the dense ids, so workers format the labels
        g = P.gen_moon_moser(8)
        src = tmp_path / "g.txt"
        src.write_text("".join(f"{7 * u + 1000} {7 * v + 1000}\n" for u, v in g.edges()))
        listings = {}
        for algo, threads in (("ttt", 1), ("parttt", 2), ("parmce", 2)):
            out = tmp_path / f"{algo}.txt"
            rep = run(RunConfig(
                input=str(src), algo=algo, mode="list", output=str(out),
                threads=threads, original_labels=original_labels,
            ))
            assert rep.size_histogram == {8: 3**8}
            listings[algo] = sorted(out.read_text().splitlines())
        assert len(listings["ttt"]) == 3**8
        assert listings["parttt"] == listings["ttt"] == listings["parmce"]
        ids = {int(x) for line in listings["ttt"] for x in line.split()}
        assert ids == (set(range(1000, 1000 + 7 * 24, 7)) if original_labels else set(range(24)))

    def test_list_mode_requires_stream(self):
        g = P.gen_complete(3)
        with pytest.raises(ValueError):
            run_on_graph(g, RunConfig(gen="complete:3", mode="list"))


class TestScalingSweep:
    def test_rows_and_definition(self):
        cfg = RunConfig(gen="gnp:150,0.25,9", algo="parmce", order="degree", sweep=[1, 2])
        rows = scaling_sweep(cfg)
        assert [r.threads for r in rows] == [1, 2]
        assert rows[0].clique_count == rows[1].clique_count
        # speedup * et is the baseline et, identical across rows
        base0 = rows[0].speedup * rows[0].et_seconds
        base1 = rows[1].speedup * rows[1].et_seconds
        assert base0 == pytest.approx(base1, rel=1e-9)
        table = format_sweep_table(rows)
        assert "threads" in table and len(table.splitlines()) == 3

    def test_single_thread_row_is_ratio_of_two_runs(self, monkeypatch):
        ran = []

        def fixed_et(g, cfg):
            ran.append(cfg)
            et = 3.0 if cfg.algo == "ttt" else {1: 4.0, 2: 1.5}[cfg.threads]
            return P.EnumerationReport(clique_count=7, et_seconds=et)

        monkeypatch.setattr(parmce.cli, "run_on_graph", fixed_et)
        cfg = RunConfig(gen="complete:5", algo="parmce", order="triangle", sweep=[1, 2])
        rows = scaling_sweep(cfg)
        # speedup is the baseline's ET over the row's ET
        assert [(r.threads, r.et_seconds, r.speedup, r.clique_count) for r in rows] == [
            (1, 4.0, 0.75, 7), (2, 1.5, 2.0, 7),
        ]
        base, *row_cfgs = ran
        assert (base.algo, base.order, base.threads) == ("ttt", None, 1)
        assert [(c.algo, c.order, c.threads) for c in row_cfgs] == [
            ("parmce", "triangle", 1), ("parmce", "triangle", 2),
        ]

    def test_sweep_rejects_sequential_algo(self):
        with pytest.raises(ValueError):
            RunConfig(gen="complete:5", algo="ttt", sweep=[1])


class TestRunOptions:
    @staticmethod
    def parse(*argv):
        return _config_from_args(build_parser().parse_args(["run", *argv]))

    def test_options_and_fields_match(self):
        (sub,) = [a for a in build_parser()._actions if a.choices and "run" in a.choices]
        dests = {a.dest for a in sub.choices["run"]._actions if a.dest != "help"}
        assert dests - {"report_json"} == {f.name for f in dataclasses.fields(RunConfig)}

    def test_omitted_options_take_the_field_defaults(self):
        assert self.parse("--gen", "complete:4") == (RunConfig(gen="complete:4"), None)

    def test_each_option_sets_its_field(self):
        cfg, report_json = self.parse(
            "--gen", "moonmoser:3", "--algo", "parmce", "--order", "triangle",
            "--threads", "3", "--mode", "list", "--canonical",
            "--output", "o.txt", "--original-labels", "--report-json", "r.json",
        )
        assert cfg == RunConfig(
            gen="moonmoser:3", algo="parmce", order="triangle", threads=3,
            mode="list", canonical=True, output="o.txt", original_labels=True,
        )
        assert report_json == "r.json"
        cfg, _ = self.parse("--input", "g.txt", "--sweep", "1,2,4")
        assert (cfg.input, cfg.sweep) == ("g.txt", [1, 2, 4])


class TestMainEntry:
    def test_run_count_mode(self, capsys):
        assert main(["run", "--gen", "moonmoser:3", "--algo", "parttt",
                     "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "clique_count=27" in out
        assert "tt_seconds=" in out

    def test_bare_flags_are_a_usage_error(self, capsys):
        # a run is asked for one way: `parmce run ...`
        with pytest.raises(SystemExit) as exc:
            main(["--gen", "complete:4"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_histogram_mode_is_a_usage_error(self, capsys):
        # every report carries the histogram, so no mode asks for it
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--mode", "histogram"])
        assert exc.value.code == 2
        assert "invalid choice: 'histogram'" in capsys.readouterr().err

    def test_count_mode_prints_histogram(self, capsys):
        assert main(["run", "--gen", "moonmoser:2", "--algo", "parmce",
                     "--order", "triangle"]) == 0
        out = capsys.readouterr().out
        assert "hist[2]=9" in out

    def test_list_mode_kv_histogram_matches_the_json_report(self, tmp_path, capsys):
        # count mode: TestPinnedListings; here the listing on stdout moves the
        # kv report to stderr
        path = tmp_path / "rep.json"
        assert main(["run", "--gen", "gnp:40,0.15,2", "--algo", "parttt", "--threads", "2",
                     "--mode", "list", "--report-json", str(path)]) == 0
        kv = dict(ln.split("=", 1) for ln in capsys.readouterr().err.splitlines())
        hist = {k[len("hist["):-1]: int(v) for k, v in kv.items() if k.startswith("hist[")}
        assert len(hist) > 1
        rep = json.loads(path.read_text())
        assert rep["size_histogram"] == hist
        assert rep["clique_count"] == int(kv["clique_count"]) == sum(hist.values())

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

    @pytest.mark.parametrize("flag", ["--canonical", "--original-labels"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "count"]])
    def test_list_only_flag_outside_list_mode_is_usage_error(self, flag, mode, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "ttt", *mode, flag])
        assert exc.value.code == 2
        assert "apply only to --mode list" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--threads"])
    def test_zero_cutoff_or_threads_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "ttt", flag, "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_ttt_with_threads_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "gnp:30,0.3,1", "--algo", "ttt", "--threads", "4",
                  "--mode", "count"])
        assert exc.value.code == 2
        assert "ttt runs on one thread" in capsys.readouterr().err

    def test_config_error_prints_the_run_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:3", "--threads", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: parmce run ")
        assert "parmce run: error: threads must be >= 1" in err

    def test_cutoff_is_not_an_option(self, capsys):
        # the donation cutoff is the engines' constant, not a setting
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "parttt", "--cutoff", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff 3" in capsys.readouterr().err

    def test_missing_source_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "ttt"])
        assert exc.value.code == 2

    def test_report_json(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["run", "--gen", "complete:4", "--algo", "ttt",
                     "--report-json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["clique_count"] == 1
        assert data["max_clique_size"] == 4

    @pytest.mark.parametrize(
        "args",
        [["--gen", "moonmoser:3", "--report-json", "/nonexistent/x.json"],
         ["--gen", "moonmoser:3", "--algo", "parmce", "--sweep", "1,2",
          "--output", "/nonexistent/s.csv"]],
    )
    def test_bad_output_path_fails_before_any_engine_runs(self, args, capsys, monkeypatch):
        ran = []
        for name in ("par_ttt", "par_mce"):
            monkeypatch.setattr(parmce.cli, name, lambda *a, name=name: ran.append(name))
        assert main(["run", *args]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "/nonexistent/" in captured.err
        assert ran == []
        assert "clique_count" not in captured.out and "speedup" not in captured.out

    def test_sweep_writes_table_and_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--gen", "gnp:100,0.2,4", "--algo", "parmce",
                     "--sweep", "1,2", "--output", "s.csv"]) == 0
        out = capsys.readouterr().out
        assert "threads" in out and "speedup" in out
        csv_lines = (tmp_path / "s.csv").read_text().splitlines()
        assert csv_lines[0] == "threads,et_seconds,speedup,clique_count"
        assert len(csv_lines) == 3

    def test_sweep_without_output_only_prints_the_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--gen", "gnp:60,0.2,4", "--algo", "parmce",
                     "--sweep", "1,2"]) == 0
        assert "speedup" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra",
        # what a sweep would ignore: a listing, a thread count, a JSON report
        [["--mode", "list"], ["--threads", "3"], ["--report-json", "r.json"]],
    )
    def test_sweep_with_ignored_output_is_usage_error(
        self, extra, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "parmce",
                  "--sweep", "1,2", "--output", "x.csv", *extra])
        assert exc.value.code == 2
        assert "error: --sweep" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_of_sequential_algo_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "ttt", "--sweep", "1,2"])
        assert exc.value.code == 2
        assert "--sweep needs a parallel algorithm" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_sweep_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "parmce",
                  "--sweep", "1,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sweep", ["1,,2", "1,2,", ",", "0,1", "x"])
    def test_sweep_list_with_an_empty_or_bad_field_is_usage_error(
        self, sweep, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen", "complete:4", "--algo", "parmce",
                  "--sweep", sweep])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: bad sweep list {sweep!r}" in captured.err
        assert captured.out == ""

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

# sha256 of the raw listing on stdout, by (gen, lines, --algo and options); the
# order depends only on vertex ids (README, Tests: when a pin may change)
RAW_PINS = {
    ("gnp:200,0.3,3", 19595, "ttt"):
        "832a7021c7ab296ca5cefd21afba5107120b9c2717bc55263722b08a04e9bcbe",
    ("gnp:200,0.3,3", 19595, "parttt --threads 1"):
        "832a7021c7ab296ca5cefd21afba5107120b9c2717bc55263722b08a04e9bcbe",
    ("gnp:200,0.3,3", 19595, "parmce --order degeneracy --threads 1"):
        "b87771537bd285b23db6f780b88d73fa26bf5c83d169c5522255331179b9d87d",
    ("gnp:200,0.3,3", 19595, "parmce --order degree --threads 1"):
        "8701b41482c1441324ed15e0ad39c193339497a811361946371cd8d12a3e57cd",
    ("gnp:200,0.3,3", 19595, "parmce --order triangle --threads 1"):
        "6c30b5a2382d9d422ece6efe868c2e5d5a7c8261afc1b8356095f09bb7b54936",
    # most tasks of gnp:2000,0.005,5 have candidates that share no edge
    ("gnp:2000,0.005,5", 9605, "ttt"):
        "52a70fcf30523101af6674ab85bedd79c6f66ff07e34822e8458685f645e68ce",
    ("gnp:2000,0.005,5", 9605, "parttt --threads 1"):
        "52a70fcf30523101af6674ab85bedd79c6f66ff07e34822e8458685f645e68ce",
    ("gnp:2000,0.005,5", 9605, "parmce --order degeneracy --threads 1"):
        "b07a185eba3985439000f09d938ad810e24dcd418ac0222ab09324072127b23a",
    ("gnp:2000,0.005,5", 9605, "parmce --order degree --threads 1"):
        "cdc290565bb12eb759038700ec9cb230dcd7897160a70e3401ab577385a256ff",
    # every vertex of moonmoser:7 has the same degree, so the root's pivot is a tie
    ("moonmoser:7", 2187, "ttt"):
        "28d3b03fd9b0e65878e77968ba3051cae6638189d2821ce5f79355059e4fa50a",
    ("moonmoser:7", 2187, "parttt --threads 1"):
        "28d3b03fd9b0e65878e77968ba3051cae6638189d2821ce5f79355059e4fa50a",
}


class TestPinnedListings:
    @pytest.mark.parametrize("gen, lines, runs", [
        # (--algo and options, donation cutoff): 2 and 3 workers, the latter
        # odd; at cutoff 3 the kernel donates nodes too
        ("moonmoser:9", 19683, [("parmce --threads 2", None), ("parttt --threads 2", 3),
                                ("parmce --threads 3", None), ("parttt --threads 3", 3)]),
        # most tasks' candidates share no edge, and the core numbers differ
        ("gnp:2000,0.005,5", 9605, [("parmce --order degeneracy --threads 2", None),
                                    ("parttt --threads 2", 3)]),
    ])
    def test_streamed_listing_matches_the_canonical_ttt_listing(self, tmp_path, gen, lines, runs):
        cli(tmp_path, f"run --gen {gen} --algo ttt --mode list --canonical --output b.txt")
        want = sorted((tmp_path / "b.txt").read_text().splitlines())
        assert len(want) == lines
        for algo, cutoff in runs:
            cli(tmp_path, f"run --gen {gen} --algo {algo} --mode list --output a.txt", cutoff)
            assert sorted((tmp_path / "a.txt").read_text().splitlines()) == want, algo

    @pytest.mark.parametrize("gen, lines, algo", RAW_PINS)
    def test_raw_emission_order_is_pinned(self, tmp_path, gen, lines, algo):
        out = cli(tmp_path, f"run --gen {gen} --mode list --algo {algo}")
        assert out.count(b"\n") == lines
        assert sha256(out).hexdigest() == RAW_PINS[gen, lines, algo]

    def test_edge_list_and_every_engine_agree_on_a_generated_graph(self, tmp_path):
        # gnp:400,0.1,7 has no isolated vertex, so its edge list holds the whole graph
        cli(tmp_path, "gen --gen gnp:400,0.1,7 --output g.txt")
        # labels are numbered first-seen, so 6,523 lines are not in label order
        out = cli(tmp_path, "run --input g.txt --algo parmce --order degeneracy --threads 2"
                            " --mode list --canonical --original-labels")
        assert out.count(b"\n") == 8149
        assert sha256(out).hexdigest() == (
            "7471adee91cadab3df29d0819a5b1e7b659596ced55c6616841c2ab8e687f49b")
        ttt = counts(cli(tmp_path, "run --gen gnp:400,0.1,7 --algo ttt --mode count"))
        assert ttt[-1].startswith("hist[")
        assert counts(cli(tmp_path, "run --input g.txt --algo ttt --mode count")) == ttt
        for algo in ("parttt", "parmce"):
            run = f"run --gen gnp:400,0.1,7 --algo {algo} --threads 2 --mode count"
            assert counts(cli(tmp_path, run)) == ttt, algo

    def test_json_report_carries_the_kv_reports_count_and_histogram(self, tmp_path):
        out = cli(tmp_path, "run --gen gnp:400,0.1,7 --algo parmce --order degeneracy"
                            " --threads 2 --mode count --report-json r.json")
        kv = dict(line.split("=", 1) for line in out.decode().splitlines())
        hist = {k[len("hist["):-1]: int(v) for k, v in kv.items() if k.startswith("hist[")}
        assert hist, "the kv report has no hist lines"
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["clique_count"] == int(kv["clique_count"]) == sum(hist.values())
        assert rep["size_histogram"] == hist


def start_cli(args, **popen_kw):
    """`python -m parmce.cli run ARGS` on the package under test."""
    return subprocess.Popen(
        [sys.executable, "-m", "parmce.cli", "run", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=package_env(), **popen_kw,
    )


def close_after_one_line(args, timeout):
    """List ARGS to a pipe whose reader closes after one line: (exit code, stderr).

    The CLI runs in its own session, and no process of its group, such as
    a pool worker, may outlive it.
    """
    proc = start_cli([*args, "--mode", "list"], start_new_session=True)
    try:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        _, err = proc.communicate(timeout=timeout)
    finally:
        proc.kill()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no worker is left in the group
    return proc.returncode, err


# `python -m parmce.cli` with the engines' donation cutoff patched to argv[1] first
AT_CUTOFF = (
    "import sys, parmce.engines\n"
    "from unittest import mock\n"
    "mock.patch.object(parmce.engines, '_CUTOFF', int(sys.argv.pop(1))).start()\n"
    "from parmce.cli import main\n"
    "sys.exit(main())\n"
)


def cli(cwd, command, cutoff=None):
    """stdout of `python -m parmce.cli COMMAND` on the package under test, run
    in cwd; with a cutoff, at that donation cutoff (`AT_CUTOFF`)."""
    prog = ["-m", "parmce.cli"] if cutoff is None else ["-c", AT_CUTOFF, str(cutoff)]
    proc = subprocess.run([sys.executable, *prog, *command.split()], cwd=cwd,
                          env=package_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def counts(report):
    """The clique_count and hist[...] lines of a key=value report."""
    return [ln for ln in report.decode().splitlines() if ln.startswith(("clique_count=", "hist["))]
