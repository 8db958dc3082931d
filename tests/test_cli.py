import pytest

from repro.cli import main
from repro.core.settings import GrayScottSettings


@pytest.fixture
def settings_file(tmp_path):
    path = tmp_path / "settings.json"
    GrayScottSettings(
        L=12, steps=6, plotgap=3, noise=0.05, output=str(tmp_path / "cli.bp")
    ).save(path)
    return path


class TestCliRun:
    def test_run_workflow(self, settings_file, capsys):
        assert main(["run", str(settings_file)]) == 0
        out = capsys.readouterr().out
        assert "workflow report" in out

    def test_run_missing_settings(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "grayscott:" in capsys.readouterr().err

    def test_run_negative_seed_exits_1(self, tmp_path, capsys):
        path = tmp_path / "seed.json"
        path.write_text('{"L": 8, "steps": 2, "seed": -1}')
        assert main(["run", str(path)]) == 1
        assert "seed must be an integer" in capsys.readouterr().err

    def test_run_nan_physics_exits_1(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"L": 8, "steps": 2, "noise": NaN}')
        assert main(["run", str(path)]) == 1
        assert "noise must be finite" in capsys.readouterr().err


class TestCliAnalyze:
    def test_analyze_dataset(self, settings_file, tmp_path, capsys):
        main(["run", str(settings_file)])
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "cli.bp")]) == 0
        out = capsys.readouterr().out
        assert "V centre slice" in out
        assert "pattern:" in out

    def test_analyze_missing(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.bp")]) == 1


class TestCliBpls:
    def test_bpls(self, settings_file, tmp_path, capsys):
        main(["run", str(settings_file)])
        capsys.readouterr()
        assert main(["bpls", str(tmp_path / "cli.bp")]) == 0
        assert "Min/Max" in capsys.readouterr().out


class TestCliBench:
    @pytest.mark.parametrize("target", ["table1", "table2", "table3", "listing4"])
    def test_fast_bench_targets(self, target, capsys):
        assert main(["bench", target]) == 0
        assert capsys.readouterr().out.strip()

    def test_fig7_bench(self, capsys):
        assert main(["bench", "fig7"]) == 0
        assert "JIT" in capsys.readouterr().out

    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "table9"])


class TestCliLintExitCodes:
    """The lint exit-code contract: 0 clean, 1 errors, 2 usage/IO."""

    def test_clean_is_zero(self, settings_file):
        assert main(["lint", str(settings_file)]) == 0

    def test_error_diagnostics_are_one(self, settings_file, monkeypatch):
        import repro.lint.runner as runner
        from repro.lint.diagnostics import KRN_BOUNDS, LintReport

        def seeded(settings, *, rules=None, passes=None):
            report = LintReport()
            report.add(KRN_BOUNDS, "kernel:k", "seeded")
            return report

        monkeypatch.setattr(runner, "lint_workflow", seeded)
        assert main(["lint", str(settings_file)]) == 1

    def test_usage_and_io_are_two(self, settings_file, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.json")]) == 2
        assert main(["lint", str(settings_file), "--rules", "NOPE"]) == 2
        assert main(["lint", str(settings_file), "--passes", "bogus"]) == 2
        assert main(
            ["lint", str(settings_file), "--out", "/nonexistent/d/x"]
        ) == 2
        capsys.readouterr()


class TestCliIr:
    def test_dump_renders_module(self, settings_file, capsys):
        assert main(["ir", "dump", str(settings_file)]) == 0
        out = capsys.readouterr().out
        assert "stencil.func @_kernel_gray_scott(" in out
        assert "stencil.func @_kernel_laplacian_1var(" in out

    def test_dump_json_and_kernel_filter(self, settings_file, capsys):
        import json

        assert main([
            "ir", "dump", str(settings_file),
            "--kernel", "_kernel_laplacian_1var", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [f["name"] for f in doc["funcs"]] == ["_kernel_laplacian_1var"]

    def test_dump_unknown_kernel_is_usage_error(self, settings_file, capsys):
        assert main([
            "ir", "dump", str(settings_file), "--kernel", "nope"
        ]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_verify_clean_module(self, settings_file, capsys):
        assert main(["ir", "verify", str(settings_file)]) == 0
        out = capsys.readouterr().out
        assert "ir verify: gray_scott_step" in out

    def test_verify_without_settings_uses_defaults(self, capsys):
        assert main(["ir", "verify"]) == 0
        capsys.readouterr()

    def test_optimize_reports_counterfactual(self, settings_file, capsys):
        assert main([
            "ir", "optimize", str(settings_file), "--shape", "64x64x64",
        ]) == 0
        out = capsys.readouterr().out
        assert "counterfactual for module gray_scott_step at 64x64x64" in out
        assert "speedup" in out

    def test_optimize_json(self, settings_file, capsys):
        import json

        assert main([
            "ir", "optimize", str(settings_file),
            "--shape", "64", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bytes_saved"] > 0
        assert doc["op_counts_before"]["load"] == 21

    def test_optimize_exact_sim(self, settings_file, capsys):
        assert main([
            "ir", "optimize", str(settings_file),
            "--shape", "24", "--exact", "--capacity-bytes", str(64 * 1024),
        ]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_optimize_bad_shape_is_usage_error(self, settings_file, capsys):
        assert main([
            "ir", "optimize", str(settings_file), "--shape", "2x2",
        ]) == 2
        assert "grayscott:" in capsys.readouterr().err

    def test_optimize_bad_pass_is_usage_error(self, settings_file, capsys):
        assert main([
            "ir", "optimize", str(settings_file), "--passes", "warp",
        ]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_out_writes_file(self, settings_file, tmp_path, capsys):
        target = tmp_path / "module.mlir"
        assert main([
            "ir", "dump", str(settings_file), "--out", str(target)
        ]) == 0
        assert "IR dump written" in capsys.readouterr().out
        assert "stencil.func" in target.read_text()


class TestCliTrace:
    def test_trace_with_gpu_backend(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        GrayScottSettings(
            L=12, steps=4, plotgap=2, noise=0.0, backend="julia",
            output=str(tmp_path / "t.bp"),
        ).save(path)
        csv_path = tmp_path / "results.csv"
        assert main(["run", str(path), "--trace", str(csv_path)]) == 0
        assert csv_path.read_text().startswith('"Index"')
        assert "_kernel_gray_scott" in csv_path.read_text()

    def test_trace_rejected_on_cpu(self, settings_file, tmp_path, capsys):
        assert main(["run", str(settings_file), "--trace", str(tmp_path / "x.csv")]) == 2
        assert "GPU backend" in capsys.readouterr().err


class TestCliObservability:
    def _gpu_settings(self, tmp_path, **kwargs):
        path = tmp_path / "s.json"
        GrayScottSettings(
            L=12, steps=4, plotgap=2, noise=0.0, backend="julia",
            output=str(tmp_path / "o.bp"), **kwargs,
        ).save(path)
        return path

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        from repro.observe import trace
        from repro.observe.export import load_chrome_trace

        path = self._gpu_settings(tmp_path, ranks=2)
        t_json = tmp_path / "t.json"
        m_json = tmp_path / "m.json"
        assert main([
            "run", str(path),
            "--trace-out", str(t_json), "--metrics-out", str(m_json),
        ]) == 0
        assert trace.active() is None  # session torn down
        out = capsys.readouterr().out
        assert "chrome trace written" in out
        assert "metrics written" in out
        obj = load_chrome_trace(t_json)  # validates the schema
        cats = {
            str(e["cat"]).split(",")[0]
            for e in obj["traceEvents"]
            if e["ph"] in ("X", "i")
        }
        assert cats == {"core", "gpu", "mpi", "adios"}
        metrics = json.loads(m_json.read_text())
        names = {c["name"] for c in metrics["counters"]}
        assert {"core.steps", "gpu.kernel.launches", "adios.steps"} <= names

    def test_ranks_flag_overrides_settings(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        m_json = tmp_path / "m.json"
        assert main([
            "run", str(path), "--ranks", "2", "--metrics-out", str(m_json),
        ]) == 0
        import json

        metrics = json.loads(m_json.read_text())
        ranks = {
            c["labels"]["rank"]
            for c in metrics["counters"]
            if c["name"] == "core.steps"
        }
        assert ranks == {"0", "1"}

    def test_timings_flag(self, settings_file, capsys):
        assert main(["run", str(settings_file), "--timings"]) == 0
        out = capsys.readouterr().out
        assert "wall-time sections" in out
        assert "compute" in out

    def test_trace_subcommand(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        t_json = tmp_path / "t.json"
        main(["run", str(path), "--trace-out", str(t_json)])
        capsys.readouterr()
        assert main(["trace", str(t_json), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "lanes" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["trace", str(bad)]) == 1
        assert "grayscott:" in capsys.readouterr().err


class TestCliCampaign:
    def test_campaign_sweep(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        GrayScottSettings(L=12, steps=4, plotgap=2, noise=0.0).save(base)
        assert main([
            "campaign", str(base),
            "--regimes", "paper,alpha",
            "--workdir", str(tmp_path),
            "--provenance", str(tmp_path / "prov.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign: 2 runs" in out
        assert (tmp_path / "paper.bp").exists()
        assert (tmp_path / "alpha.bp").exists()
        assert (tmp_path / "prov.json").exists()

    def test_unknown_regime(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        GrayScottSettings(L=12, steps=2).save(base)
        assert main(["campaign", str(base), "--regimes", "omega"]) == 2
        assert "unknown regime" in capsys.readouterr().err


class TestCliCompare:
    def _make(self, tmp_path, name, seed=42):
        path = tmp_path / f"{name}.json"
        GrayScottSettings(
            L=12, steps=4, plotgap=2, noise=0.01, seed=seed,
            output=str(tmp_path / f"{name}.bp"),
        ).save(path)
        main(["run", str(path)])
        return tmp_path / f"{name}.bp"

    def test_identical_datasets(self, tmp_path, capsys):
        a = self._make(tmp_path, "a")
        b = self._make(tmp_path, "b")
        capsys.readouterr()
        assert main(["compare", str(a), str(b), "--strict"]) == 0
        assert "bitwise identical" in capsys.readouterr().out

    def test_strict_fails_on_difference(self, tmp_path, capsys):
        a = self._make(tmp_path, "c", seed=1)
        b = self._make(tmp_path, "d", seed=2)
        capsys.readouterr()
        assert main(["compare", str(a), str(b), "--strict"]) == 1


class TestCliVirtual:
    def _gpu_settings(self, tmp_path):
        path = tmp_path / "v.json"
        GrayScottSettings(
            L=64, steps=4, plotgap=2, backend="julia",
        ).save(path)
        return path

    def test_virtual_run(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main(["run", str(path), "--virtual-ranks", "16"]) == 0
        out = capsys.readouterr().out
        assert "virtual SPMD run: 16 ranks" in out
        assert "serial" in out

    def test_virtual_run_overlap(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main(
            ["run", str(path), "--virtual-ranks", "16", "--overlap"]
        ) == 0
        assert "overlapped" in capsys.readouterr().out

    def test_overlap_requires_virtual_ranks(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main(["run", str(path), "--overlap"]) == 2
        assert "--virtual-ranks" in capsys.readouterr().err

    def test_virtual_trace_export(self, tmp_path, capsys):
        import json

        from repro.observe.export import validate_chrome_trace

        path = self._gpu_settings(tmp_path)
        t_json = tmp_path / "virt.json"
        assert main([
            "run", str(path), "--virtual-ranks", "8", "--overlap",
            "--trace-out", str(t_json),
        ]) == 0
        validate_chrome_trace(json.loads(t_json.read_text()))

    def test_virtual_rejects_cpu_backend(self, tmp_path, capsys):
        path = tmp_path / "cpu.json"
        GrayScottSettings(L=12, steps=2, backend="cpu").save(path)
        assert main(["run", str(path), "--virtual-ranks", "4"]) == 1
        assert "backend" in capsys.readouterr().err.lower()

    def test_nic_contention_flag(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main([
            "run", str(path), "--virtual-ranks", "8", "--overlap",
            "--nic-contention",
        ]) == 0
        assert "virtual SPMD run: 8 ranks" in capsys.readouterr().out

    def test_nic_contention_requires_virtual_ranks(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main(["run", str(path), "--nic-contention"]) == 2
        assert "--virtual-ranks" in capsys.readouterr().err

    def test_nic_contention_stdout_jobs_invariant(self, tmp_path, capsys):
        # NIC contention always runs serially: --jobs changes nothing
        path = self._gpu_settings(tmp_path)
        outs = []
        for jobs in ("1", "2"):
            assert main([
                "run", str(path), "--virtual-ranks", "8", "--nic-contention",
                "--jobs", jobs,
            ]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "virtual SPMD run: 8 ranks" in outs[0]


class TestCliStreaming:
    def _gpu_settings(self, tmp_path):
        path = tmp_path / "v.json"
        GrayScottSettings(
            L=64, steps=4, plotgap=2, backend="julia",
        ).save(path)
        return path

    def test_trace_out_directory_streams_shards(self, tmp_path, capsys):
        from repro.observe.stream import load_manifest

        path = self._gpu_settings(tmp_path)
        traces = tmp_path / "traces"
        assert main([
            "run", str(path), "--virtual-ranks", "16", "--overlap",
            "--trace-out", str(traces) + "/",
        ]) == 0
        out = capsys.readouterr().out
        assert "streamed" in out and "merge-shards" in out
        manifest = load_manifest(traces)
        assert manifest["spans"] > 0

    def test_trace_out_jsonl_streams_single_file(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        target = tmp_path / "t.jsonl"
        assert main([
            "run", str(path), "--virtual-ranks", "8",
            "--trace-out", str(target),
        ]) == 0
        assert "streamed" in capsys.readouterr().out
        assert target.read_text().count("\n") > 0

    def test_unwritable_trace_out_fails_early(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main([
            "run", str(path), "--virtual-ranks", "8",
            "--trace-out", "/nonexistent/x/trace.json",
        ]) == 2
        assert "grayscott:" in capsys.readouterr().err

    def test_merge_shards_byte_identical(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        traces = tmp_path / "traces"
        mono = tmp_path / "mono.json"
        main(["run", str(path), "--virtual-ranks", "16", "--overlap",
              "--trace-out", str(traces) + "/"])
        main(["run", str(path), "--virtual-ranks", "16", "--overlap",
              "--trace-out", str(mono)])
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert main([
            "observe", "merge-shards", str(traces), "-o", str(merged),
        ]) == 0
        assert mono.read_bytes() == merged.read_bytes()

    def test_observe_tail_and_summary(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        traces = tmp_path / "traces"
        main(["run", str(path), "--virtual-ranks", "8",
              "--trace-out", str(traces) + "/"])
        capsys.readouterr()
        assert main(["observe", "tail", str(traces), "-n", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        assert main(["observe", "summary", str(traces)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out

    def test_observe_rejects_missing_source(self, tmp_path, capsys):
        assert main(["observe", "tail", str(tmp_path / "nope")]) == 1
        assert "grayscott:" in capsys.readouterr().err

    def test_sim_profile_writes_folded(self, tmp_path, capsys):
        from repro.sched.profiler import load_folded

        path = self._gpu_settings(tmp_path)
        folded = tmp_path / "prof.folded"
        assert main([
            "run", str(path), "--virtual-ranks", "8",
            "--sim-profile", str(folded),
            "--sim-profile-interval", "0.01",
        ]) == 0
        assert "sim profile" in capsys.readouterr().out
        assert load_folded(folded)
        assert main(["observe", "flamegraph", str(folded)]) == 0
        assert "process-samples" in capsys.readouterr().out

    def test_sim_profile_requires_virtual_ranks(self, tmp_path, capsys):
        path = self._gpu_settings(tmp_path)
        assert main([
            "run", str(path), "--sim-profile", str(tmp_path / "p.folded"),
        ]) == 2
        assert "--virtual-ranks" in capsys.readouterr().err


class TestCliCampaignExitCodes:
    """Campaign exit codes: 0 all ok, 1 member failure, 2 bad invocation."""

    def _base(self, tmp_path):
        path = tmp_path / "base.json"
        GrayScottSettings(L=12, steps=4, plotgap=2, noise=0.0).save(path)
        return path

    def test_success_is_zero(self, tmp_path, capsys):
        assert main([
            "campaign", str(self._base(tmp_path)),
            "--regimes", "paper", "--workdir", str(tmp_path / "w"),
        ]) == 0
        capsys.readouterr()

    def test_parallel_jobs_success_is_zero(self, tmp_path, capsys):
        assert main([
            "campaign", str(self._base(tmp_path)),
            "--regimes", "paper,alpha", "--jobs", "2",
            "--workdir", str(tmp_path / "w"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign: 2 runs" in out
        assert (tmp_path / "w" / "paper.bp").exists()
        assert (tmp_path / "w" / "alpha.bp").exists()

    def test_missing_settings_is_two(self, tmp_path, capsys):
        assert main([
            "campaign", str(tmp_path / "nope.json"), "--regimes", "paper",
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_regime_is_two(self, tmp_path, capsys):
        assert main([
            "campaign", str(self._base(tmp_path)), "--regimes", "omega",
        ]) == 2
        assert "unknown regime" in capsys.readouterr().err

    def test_member_failure_is_one(self, tmp_path, capsys, monkeypatch):
        import repro.core.campaign as campaign_mod

        real = campaign_mod._run_member

        def sabotaged(task):
            if task[0] == "alpha":
                return "alpha", False, "RuntimeError: solver exploded"
            return real(task)

        monkeypatch.setattr(campaign_mod, "_run_member", sabotaged)
        assert main([
            "campaign", str(self._base(tmp_path)),
            "--regimes", "paper,alpha", "--workdir", str(tmp_path / "w"),
        ]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestCliServe:
    """The serve subcommand: smoke self-check, load replay, usage errors."""

    def test_needs_smoke_or_load(self, settings_file, capsys):
        assert main(["serve", str(settings_file)]) == 2
        assert "--smoke or --load" in capsys.readouterr().err

    def test_missing_settings_is_two(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.json"), "--smoke"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_virtual_mode_needs_gpu_backend(self, settings_file, capsys):
        assert main([
            "serve", str(settings_file), "--smoke", "--mode", "virtual",
        ]) == 2
        assert "GPU backend" in capsys.readouterr().err

    def test_smoke_passes(self, settings_file, tmp_path, capsys):
        assert main([
            "serve", str(settings_file), "--smoke",
            "--backend", "inline", "--workdir", str(tmp_path / "jobs"),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 6
        assert "[FAIL]" not in out
        assert "all checks passed" in out

    def test_smoke_thread_backend(self, settings_file, tmp_path, capsys):
        assert main([
            "serve", str(settings_file), "--smoke", "--workers", "2",
            "--workdir", str(tmp_path / "jobs"),
        ]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_load_replay(self, settings_file, tmp_path, capsys):
        assert main([
            "serve", str(settings_file), "--load", "4", "--requests", "3",
            "--backend", "inline", "--workdir", str(tmp_path / "jobs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "service cache:" in out
        assert "requests" in out


class TestCliJitCache:
    """run --jit-cache / serve --warm-cache / the jit-cache subcommand."""

    @pytest.fixture
    def gpu_settings_file(self, tmp_path):
        path = tmp_path / "gpu.json"
        GrayScottSettings(
            L=12, steps=6, plotgap=3, noise=0.05,
            output=str(tmp_path / "gpu.bp"), backend="julia",
        ).save(path)
        return path

    def test_cold_run_populates_warm_run_preloads(
        self, gpu_settings_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert main([
            "run", str(gpu_settings_file), "--jit-cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "jit cache: 0 plan(s) preloaded" in out
        assert len(list(cache.glob("*.trace"))) == 1

        assert main([
            "run", str(gpu_settings_file), "--jit-cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "jit cache: 1 plan(s) preloaded" in out

    def test_bad_cache_path_is_usage_error(self, settings_file, tmp_path,
                                           capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main([
            "run", str(settings_file), "--jit-cache", str(blocker),
        ]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_stats_reports_per_kernel_plans(self, gpu_settings_file,
                                            tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["run", str(gpu_settings_file), "--jit-cache", str(cache)])
        capsys.readouterr()
        assert main(["jit-cache", "stats", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "repro.gpu.jitcache/1" in out
        assert "plans: _kernel_gray_scott" in out

    def test_clear_removes_entries(self, gpu_settings_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["run", str(gpu_settings_file), "--jit-cache", str(cache)])
        capsys.readouterr()
        assert main(["jit-cache", "clear", str(cache)]) == 0
        assert "1 entry(ies) removed" in capsys.readouterr().out
        assert list(cache.glob("*.trace")) == []

    def test_stats_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["jit-cache", "stats", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_clear_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["jit-cache", "clear", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_smoke_with_warm_cache(self, settings_file, tmp_path,
                                         capsys):
        cache = tmp_path / "cache"
        assert main([
            "serve", str(settings_file), "--smoke", "--backend", "inline",
            "--workdir", str(tmp_path / "jobs"), "--warm-cache", str(cache),
        ]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_serve_bad_warm_cache_is_usage_error(self, settings_file,
                                                 tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main([
            "serve", str(settings_file), "--smoke",
            "--warm-cache", str(blocker),
        ]) == 2
        assert "not a directory" in capsys.readouterr().err
