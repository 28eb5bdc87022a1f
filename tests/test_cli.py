"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.problem import ConflictGraph
from repro.graphs.society import random_society
from repro.io.graphs import load_edge_list, save_edge_list, write_graph_json
from repro.io.schedules import load_periodic_schedule
from repro.io.societies import save_society
from repro.serve.cache import DEFAULT_CACHE_BYTES


@pytest.fixture
def graph_file(tmp_path, square_with_diagonal):
    path = tmp_path / "graph.edges"
    save_edge_list(square_with_diagonal, path)
    return str(path)


@pytest.fixture
def society_file(tmp_path):
    society = random_society(15, mean_children=2.2, marriage_fraction=0.8, seed=3)
    path = tmp_path / "society.json"
    save_society(society, path)
    return str(path)


def _assert_removed_flag(graph_file, capsys, command, flag):
    """``command ... flag 4`` exits 2 with argparse's one error line for an
    unrecognized flag, and ``command --help`` does not list the flag."""
    target = [graph_file] if command in ("schedule", "compare") else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, *target, flag, "4"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"repro-holiday: error: unrecognized arguments: {flag} 4"
    ]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert flag not in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected_by_choices(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", graph_file, "--algorithm", "nope"])

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in ("schedule", "compare", "experiment")
            for flag in ("--horizon", "--chunk")
        ]
        + [("satisfaction", "--horizon")],
    )
    def test_nonpositive_counts_are_parse_errors(
        self, graph_file, society_file, capsys, command, flag, value
    ):
        """Horizons and chunk widths below 1 exit 2 with one argparse
        error line, not a ValueError traceback."""
        target = {"schedule": [graph_file], "compare": [graph_file],
                  "satisfaction": [society_file], "experiment": []}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *target, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"repro-holiday {command}: error: argument {flag}: must be >= 1, got {value}"]


class TestGenerate:
    @pytest.mark.parametrize("kind", ["clique", "star", "gnp", "powerlaw"])
    def test_generate_graph_kinds(self, tmp_path, kind, capsys):
        out = tmp_path / f"{kind}.edges"
        code = main(["generate", kind, str(out), "--size", "12", "--seed", "2"])
        assert code == 0
        graph = load_edge_list(out)
        assert graph.num_nodes() >= 12
        assert "wrote" in capsys.readouterr().out

    def test_generate_society_with_json(self, tmp_path, capsys):
        out = tmp_path / "society.edges"
        society_out = tmp_path / "society.json"
        code = main(
            [
                "generate",
                "society",
                str(out),
                "--size",
                "18",
                "--society-out",
                str(society_out),
                "--seed",
                "4",
            ]
        )
        assert code == 0
        assert society_out.exists()
        assert load_edge_list(out).num_nodes() == 18

    def test_generate_json_output(self, tmp_path):
        out = tmp_path / "graph.json"
        assert main(["generate", "clique", str(out), "--size", "5"]) == 0
        from repro.io.graphs import read_graph_json

        assert read_graph_json(out).num_edges() == 10


class TestSchedule:
    def test_schedule_default_algorithm(self, graph_file, capsys):
        code = main(["schedule", graph_file, "--calendar-years", "6"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "hosting families" in captured
        assert "bound satisfied = True" in captured

    def test_schedule_exports(self, graph_file, tmp_path, capsys):
        csv_out = tmp_path / "calendar.csv"
        sched_out = tmp_path / "schedule.json"
        code = main(
            [
                "schedule",
                graph_file,
                "--algorithm",
                "color-periodic-omega",
                "--calendar-csv",
                str(csv_out),
                "--save-schedule",
                str(sched_out),
            ]
        )
        assert code == 0
        assert csv_out.exists()
        loaded = load_periodic_schedule(sched_out)
        assert loaded.is_periodic()

    def test_schedule_aperiodic_skips_schedule_export(self, graph_file, tmp_path, capsys):
        sched_out = tmp_path / "schedule.json"
        code = main(
            ["schedule", graph_file, "--algorithm", "phased-greedy", "--save-schedule", str(sched_out)]
        )
        assert code == 0
        assert not sched_out.exists()
        assert "not perfectly periodic" in capsys.readouterr().out

    def test_missing_graph_file(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["schedule", str(tmp_path / "nope.edges")])

    def test_schedule_backend_selection_is_observation_equivalent(self, graph_file, capsys):
        outputs = {}
        for backend in ("auto", "numpy", "sets"):
            code = main(["schedule", graph_file, "--backend", backend, "--calendar-years", "4"])
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["auto"] == outputs["numpy"] == outputs["sets"]

    def test_schedule_rejects_unknown_backend(self, graph_file):
        with pytest.raises(SystemExit):
            main(["schedule", graph_file, "--backend", "cuda"])

    def test_removed_engine_values_fail_loudly(self, graph_file, capsys):
        """--backend bitmask and --no-checkpoint fail at parse time: the
        backend names the unknown value and lists the valid choices, the
        flag is an unrecognized argument."""
        with pytest.raises(SystemExit):
            main(["schedule", graph_file, "--backend", "bitmask"])
        assert (
            "argument --backend: unknown trace backend 'bitmask'; "
            "expected one of ('auto', 'numpy', 'sets')"
        ) in capsys.readouterr().err
        for command in (["schedule", graph_file], ["compare", graph_file], ["experiment"]):
            with pytest.raises(SystemExit):
                main([*command, "--no-checkpoint"])
            assert (
                "repro-holiday: error: unrecognized arguments: --no-checkpoint"
            ) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["schedule", "compare", "experiment", "serve"])
    def test_stream_jobs_flag_is_removed(self, graph_file, capsys, command):
        """--stream-jobs is gone with the streamed-scan process pool: it exits
        2 with one unrecognized-argument error line, and --help omits it."""
        _assert_removed_flag(graph_file, capsys, command, "--stream-jobs")

    @pytest.mark.parametrize("command", ["schedule", "compare", "experiment", "serve"])
    def test_batch_flag_is_removed(self, graph_file, capsys, command):
        """--batch is gone with the experiment engine's batching planner: it
        exits 2 with one unrecognized-argument error line, and --help omits
        it."""
        _assert_removed_flag(graph_file, capsys, command, "--batch")

    def test_schedule_horizon_modes_are_observation_equivalent(self, graph_file, capsys):
        outputs = {}
        for mode_flags in (["--horizon-mode", "dense"], ["--horizon-mode", "stream", "--chunk", "13"]):
            code = main(["schedule", graph_file, "--horizon", "64", "--calendar-years", "4"] + mode_flags)
            assert code == 0
            outputs[mode_flags[1]] = capsys.readouterr().out
        assert outputs["dense"] == outputs["stream"]

    def test_schedule_rejects_stream_with_sets_backend(self, graph_file):
        with pytest.raises(SystemExit, match="no streaming mode"):
            main(["schedule", graph_file, "--backend", "sets", "--horizon-mode", "stream"])

    @pytest.mark.parametrize("command", ["schedule", "compare"])
    def test_jobs_alias_is_gone(self, graph_file, capsys, command):
        """The old schedule/compare --jobs alias is an argparse error: only
        'experiment --jobs' fans out, across cells."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, graph_file, "--horizon-mode", "stream", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestCompareBoundsSatisfaction:
    def test_compare_default_set(self, graph_file, capsys):
        code = main(["compare", graph_file, "--horizon", "48"])
        out = capsys.readouterr().out
        assert code == 0
        assert "most degree-local schedule" in out
        assert "degree-periodic" in out

    def test_compare_rejects_unknown_algorithm(self, graph_file):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["compare", graph_file, "--algorithms", "sequential", "bogus"])

    def test_compare_backend_selection_is_observation_equivalent(self, graph_file, capsys):
        outputs = {}
        for backend in ("auto", "sets"):
            code = main(["compare", graph_file, "--horizon", "48", "--backend", backend])
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["auto"] == outputs["sets"]

    def test_compare_streams(self, graph_file, capsys):
        code = main([
            "compare", graph_file, "--horizon", "64", "--horizon-mode", "stream",
            "--chunk", "16", "--algorithms", "degree-periodic", "sequential",
        ])
        assert code == 0
        assert "most degree-local schedule" in capsys.readouterr().out

    def test_bounds(self, graph_file, capsys):
        code = main(["bounds", graph_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "Thm3.1" in out and "Thm5.3" in out

    def test_satisfaction(self, society_file, capsys):
        code = main(["satisfaction", society_file, "--horizon", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max satisfaction (matching)" in out

    def test_json_graph_input(self, tmp_path, capsys):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "graph.json"
        write_graph_json(graph, path)
        assert main(["bounds", str(path)]) == 0


class TestExperiment:
    def test_flags_run_with_output(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "experiment",
                "--name", "cli-test",
                "--workloads", "small/path", "small/star",
                "--algorithms", "sequential", "degree-periodic",
                "--horizon", "48",
                "--output", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "experiment cli-test" in printed and "4 cells" in printed
        from repro.analysis.records import ResultSet

        results = ResultSet.from_jsonl(out)
        assert len(results) == 4
        assert {r.workload for r in results} == {"small/path", "small/star"}

    def test_glob_workloads_and_jobs(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "experiment",
                "--workloads", "small/cycl*",
                "--algorithms", "sequential",
                "--horizon", "32",
                "--jobs", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        from repro.analysis.records import ResultSet

        assert [r.workload for r in ResultSet.from_jsonl(out)] == ["small/cycle"]

    def test_resume_skips_completed(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        argv = [
            "experiment",
            "--workloads", "small/path",
            "--algorithms", "sequential", "degree-periodic",
            "--horizon", "48",
            "--output", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "0 executed, 0 cached, 2 resumed" in capsys.readouterr().out

    def test_spec_file_with_overrides(self, tmp_path, capsys):
        from repro.analysis.engine import ExperimentSpec

        spec_path = tmp_path / "spec.json"
        ExperimentSpec(
            name="from-file",
            workloads=("small/path",),
            algorithms=("sequential",),
            horizon=32,
        ).to_json(spec_path)
        code = main(
            ["experiment", "--spec", str(spec_path), "--algorithms", "degree-periodic"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "from-file" in printed and "degree-periodic" in printed

    def test_save_spec_round_trips(self, tmp_path, capsys):
        from repro.analysis.engine import ExperimentSpec

        saved = tmp_path / "saved.json"
        code = main(
            [
                "experiment",
                "--name", "saved-run",
                "--workloads", "small/path",
                "--algorithms", "sequential",
                "--horizon", "32",
                "--grid", "scale=1",
                "--save-spec", str(saved),
            ]
        )
        assert code == 0
        spec = ExperimentSpec.from_json(saved)
        assert spec.name == "saved-run" and spec.grid == {"scale": (1,)}

    def test_list_mode(self, capsys):
        assert main(["experiment", "--list"]) == 0
        printed = capsys.readouterr().out
        assert "registered workloads" in printed and "registered algorithms" in printed
        assert "small/path" in printed and "degree-periodic" in printed

    def test_list_mode_includes_bench_suite(self, capsys):
        """From a source checkout the E-suite listing is part of --list, so a
        new bench_e*.py stays discoverable (it must be registered in
        benchmarks.common.BENCH_SUITE)."""
        pytest.importorskip("benchmarks.common")
        assert main(["experiment", "--list"]) == 0
        printed = capsys.readouterr().out
        assert "benchmark suite" in printed and "bench_e14_streaming" in printed

    def test_list_bench_suite_is_self_describing(self, capsys):
        """Every E-suite row carries its horizon and horizon mode."""
        pytest.importorskip("benchmarks.common")
        assert main(["experiment", "--list"]) == 0
        printed = capsys.readouterr().out
        assert "horizon" in printed and "mode" in printed
        assert "10^8 (quick 2*10^6)" in printed and "dense+stream" in printed

    def test_experiment_stream_mode(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "experiment",
                "--workloads", "small/path",
                "--algorithms", "degree-periodic",
                "--horizon", "64",
                "--horizon-mode", "stream",
                "--chunk", "16",
                "--output", str(out),
            ]
        )
        assert code == 0
        from repro.analysis.records import ResultSet

        records = ResultSet.from_jsonl(out)
        assert [r.params["horizon_mode"] for r in records] == ["stream"]

    def test_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="--workloads"):
            main(["experiment", "--algorithms", "sequential"])
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["experiment", "--workloads", "small/path", "--algorithms", "bogus"])
        with pytest.raises(SystemExit, match="matches nothing"):
            main(["experiment", "--workloads", "zzz*", "--algorithms", "sequential"])
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["experiment", "--spec", str(tmp_path / "missing.json")])
        with pytest.raises(SystemExit, match="key=v1,v2"):
            main(["experiment", "--workloads", "small/path", "--grid", "oops"])
        with pytest.raises(SystemExit, match="--resume needs --output"):
            main(["experiment", "--workloads", "small/path", "--algorithms", "sequential", "--resume"])

    def test_engine_flags_layer_over_spec_config(self, tmp_path, capsys):
        """An engine flag overrides only its own field of a spec's config:
        --backend keeps the spec's streamed representation and chunk."""
        from repro.analysis.engine import ExperimentSpec
        from repro.core.config import EngineConfig

        spec_path = tmp_path / "spec.json"
        out = tmp_path / "results.jsonl"
        ExperimentSpec(
            name="layered",
            workloads=("small/path",),
            algorithms=("degree-periodic",),
            horizon=64,
            config=EngineConfig(horizon_mode="stream", chunk=16),
        ).to_json(spec_path)
        code = main([
            "experiment", "--spec", str(spec_path), "--backend", "numpy",
            "--output", str(out), "--save-spec", str(tmp_path / "resolved.json"),
        ])
        assert code == 0
        resolved = ExperimentSpec.from_json(tmp_path / "resolved.json")
        assert resolved.config == EngineConfig(
            backend="numpy", horizon_mode="stream", chunk=16
        )
        from repro.analysis.records import ResultSet

        records = ResultSet.from_jsonl(out)
        assert [r.params["horizon_mode"] for r in records] == ["stream"]
        assert [r.params["backend"] for r in records] == ["numpy"]

    def test_flat_spec_json_is_rejected(self, tmp_path):
        """A pre-consolidation spec file (flat backend/horizon_mode keys)
        fails to load with a clean error saying the knobs live under
        'config'."""
        import json as json_mod

        spec_path = tmp_path / "old-spec.json"
        spec_path.write_text(json_mod.dumps({
            "name": "old-format",
            "workloads": ["small/path"],
            "algorithms": ["sequential"],
            "horizon": 32,
            "backend": "numpy",
            "horizon_mode": "dense",
        }))
        with pytest.raises(SystemExit, match="cannot load spec") as exit_info:
            main(["experiment", "--spec", str(spec_path)])
        message = str(exit_info.value.code)
        assert "['backend', 'horizon_mode']" in message
        assert "live under 'config'" in message

    def test_spec_override_errors_are_clean(self, tmp_path):
        from repro.analysis.engine import ExperimentSpec

        spec_path = tmp_path / "spec.json"
        ExperimentSpec(
            name="t", workloads=("small/path",), algorithms=("sequential",), horizon=32
        ).to_json(spec_path)
        # empty --seeds reaches the spec as (), which must surface as a clean
        # CLI error, not a raw ValueError traceback
        with pytest.raises(SystemExit, match="at least one seed"):
            main(["experiment", "--spec", str(spec_path), "--seeds"])


class TestStoreFlags:
    """--store/--no-cache/--campaign on experiment, and the results command."""

    EXPERIMENT = [
        "experiment", "--workloads", "small/path",
        "--algorithms", "sequential", "degree-periodic", "--horizon", "48",
    ]

    def test_store_cold_then_warm(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        args = self.EXPERIMENT + ["--store", str(store)]
        assert main(args) == 0
        assert "2 executed, 0 cached" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out
        assert f"result store: {store}" in out

    def test_no_cache_forces_reexecution(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        assert main(self.EXPERIMENT + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(self.EXPERIMENT + ["--store", str(store), "--no-cache"]) == 0
        assert "2 executed, 0 cached" in capsys.readouterr().out

    def test_resume_accepts_store_without_output(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        assert main(self.EXPERIMENT + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(self.EXPERIMENT + ["--store", str(store), "--resume"]) == 0
        assert "2 resumed" in capsys.readouterr().out

    def test_store_flag_validation(self, tmp_path):
        with pytest.raises(SystemExit, match="--no-cache"):
            main(self.EXPERIMENT + ["--no-cache"])
        with pytest.raises(SystemExit, match="--campaign"):
            main(self.EXPERIMENT + ["--campaign", "x"])
        with pytest.raises(SystemExit, match="--resume"):
            main(self.EXPERIMENT + ["--resume"])

    def test_results_import_export_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        sink = tmp_path / "run.jsonl"
        assert main(self.EXPERIMENT + ["--output", str(sink), "--store", str(store)]) == 0
        capsys.readouterr()
        # import the sink into a second store, export, compare
        second = tmp_path / "s2.sqlite"
        exported = tmp_path / "export.jsonl"
        assert main(["results", "import", str(second), str(sink), "--campaign", "imp"]) == 0
        assert "2 new cells" in capsys.readouterr().out
        assert main(["results", "export", str(second), str(exported)]) == 0
        assert "exported 2 records" in capsys.readouterr().out
        assert exported.read_bytes() == sink.read_bytes()

    def test_results_export_filters(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        assert main(self.EXPERIMENT + ["--store", str(store), "--campaign", "pilot"]) == 0
        capsys.readouterr()
        out_path = tmp_path / "seq.jsonl"
        assert main([
            "results", "export", str(store), str(out_path),
            "--algorithm", "sequential",
        ]) == 0
        assert "exported 1 records" in capsys.readouterr().out
        assert out_path.read_text().count("\n") == 1

    def test_results_campaigns_listing(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        assert main(self.EXPERIMENT + ["--store", str(store), "--campaign", "pilot"]) == 0
        capsys.readouterr()
        assert main(["results", "campaigns", str(store)]) == 0
        out = capsys.readouterr().out
        assert "pilot" in out and "2" in out

    def test_results_import_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["results", "import", str(tmp_path / "s.sqlite"), str(tmp_path / "no.jsonl")])


class TestServe:
    """The `serve` subcommand: flag plumbing into the service + server.

    The serve loop itself is exercised by tests/serve/; here we assert the
    CLI builds exactly the stack it advertises (config, cache budget, store,
    horizon limit) via service_from_args, and answers over a real socket.
    """

    def _build(self, tmp_path, *extra):
        from repro.cli import service_from_args

        args = build_parser().parse_args(["serve", "--port", "0", *extra])
        return service_from_args(args)

    def test_flags_reach_the_service(self, tmp_path):
        service, server = self._build(
            tmp_path,
            "--cache-bytes", "12345",
            "--max-horizon", "777",
            "--backend", "numpy",
            "--store", str(tmp_path / "s.sqlite"),
        )
        try:
            assert service.cache.max_bytes == 12345
            assert service.max_horizon == 777
            assert service.config.backend == "numpy"
            assert service.store is not None
            assert (tmp_path / "s.sqlite").exists()
        finally:
            server.server_close()
            service.store.close()

    def test_defaults(self, tmp_path):
        service, server = self._build(tmp_path)
        try:
            assert service.cache.max_bytes == DEFAULT_CACHE_BYTES
            assert service.max_horizon == 10_000_000
            assert service.store is None
        finally:
            server.server_close()

    def test_served_answer_over_a_socket(self, tmp_path):
        import json
        import threading
        import urllib.request

        service, server = self._build(tmp_path)
        # a short shutdown poll keeps teardown from waiting out the 0.5 s default
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/report",
                data=json.dumps(
                    {"workload": "small/path", "algorithm": "degree-periodic", "horizon": 32}
                ).encode(),
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                body = json.loads(resp.read())
            assert resp.status == 200 and body["ok"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_bad_cache_bytes_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cache-bytes"):
            self._build(tmp_path, "--cache-bytes", "-1")

    def test_bad_max_horizon_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="max-horizon"):
            self._build(tmp_path, "--max-horizon", "0")

    def test_bad_backend_rejected_up_front(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "gpu"])
