"""Harness tests: config loading, session counters, speedups, reports, CLI."""

import json

import numpy as np
import pytest

from sdlab.bench import (
    ConfigError,
    Metrics,
    Report,
    RunConfig,
    compute_speedup,
    decode_prompt,
    load_config,
    make_prompts,
    read_report,
    run_bench,
    run_session,
    run_sweep_nk,
    write_report,
    build_models,
    environment_stamp,
)
from sdlab.cli import main


class TestConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "vanilla"}))
        cfg = load_config(str(path))
        assert cfg.method == "vanilla"
        assert cfg.gamma == 5 and cfg.n_experts == 2 and cfg.active_k == 2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "bogus": 1, "nope": 2}))
        with pytest.raises(ConfigError, match="unknown config keys: bogus, nope"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.json")

    def test_k3_with_chain_accepted_with_warning(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "active_k": 3, "n_experts": 4}))
        cfg = load_config(str(path))
        warnings = cfg.validate()
        assert warnings and "irrelevant" in warnings[0]

    def test_moe_requires_k2(self):
        with pytest.raises(ConfigError, match="requires K >= 2"):
            RunConfig(method="moe_tree", active_k=1, n_experts=2).validate()

    def test_jakiro_requires_gamma2(self):
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig(method="jakiro_full", gamma=1).validate()


class TestSession:
    def test_vanilla_tau_is_one(self):
        cfg = RunConfig(method="vanilla", max_new=10, n_prompts=2, seed=0)
        m = run_session(cfg)
        assert m.tau == 1.0
        assert m.target_forwards == 20 and m.tokens_emitted == 20

    def test_vanilla_matches_direct_decode(self):
        cfg = RunConfig(method="vanilla", max_new=8, n_prompts=2, seed=4)
        target, _ = build_models(cfg)
        m = run_session(cfg)
        for row in m.per_prompt:
            assert row["tokens"] == target.autoregressive_decode(row["prompt"], 8)

    def test_tau_accounting_identity(self):
        for method in ("chain", "static_tree", "moe_tree", "jakiro_full"):
            cfg = RunConfig(method=method, gamma=3, max_new=10, n_prompts=2, seed=1)
            m = run_session(cfg)
            assert m.tau == m.tokens_emitted / m.target_forwards
            assert 1.0 <= m.tau <= cfg.gamma + 1

    def test_draft_pass_economics_per_round(self):
        gamma = 4
        base = dict(gamma=gamma, max_new=12, n_prompts=1, seed=2)
        target, draft = build_models(RunConfig(method="jakiro_full", **base))
        prompts = make_prompts(RunConfig(method="jakiro_full", **base))
        rng = np.random.default_rng(0)
        full = decode_prompt(target, draft, RunConfig(method="jakiro_full", **base),
                             prompts[0], rng)
        assert all(p == gamma - 1 for p in full["draft_passes_per_round"])
        plain = decode_prompt(target, draft, RunConfig(method="moe_tree", **base),
                              prompts[0], np.random.default_rng(0))
        assert all(p == gamma for p in plain["draft_passes_per_round"])

    def test_greedy_streams_identical_across_methods(self):
        outs = {}
        for method in ("vanilla", "chain", "static_tree", "moe_tree", "jakiro_full"):
            cfg = RunConfig(method=method, gamma=3, max_new=12, n_prompts=3, seed=5)
            m = run_session(cfg)
            outs[method] = [tuple(r["tokens"]) for r in m.per_prompt]
        for method, streams in outs.items():
            assert streams == outs["vanilla"], method

    def test_deterministic_metrics(self):
        cfg = RunConfig(method="jakiro_full", gamma=3, max_new=8, n_prompts=2, seed=9,
                        temperature=1.0)
        a = run_session(cfg)
        b = run_session(cfg)
        assert a.tau == b.tau
        assert [r["tokens"] for r in a.per_prompt] == [r["tokens"] for r in b.per_prompt]


class TestSpeedup:
    def _metrics(self, tf, fingerprint="x"):
        return Metrics(method="m", tau=1.0, target_forwards=tf, draft_forwards=0,
                       tokens_emitted=tf, wall_ms=10.0, prompt_fingerprint=fingerprint)

    def test_identity(self):
        m = self._metrics(10)
        assert compute_speedup(m, m) == (1.0, 1.0)

    def test_forward_ratio_definitional(self):
        base = self._metrics(20)
        cand = self._metrics(10)
        fr, _ = compute_speedup(base, cand)
        assert fr == 2.0

    def test_mismatched_prompt_sets(self):
        with pytest.raises(ConfigError, match="mismatched prompt sets"):
            compute_speedup(self._metrics(10, "a"), self._metrics(10, "b"))

    def test_prompt_files_of_equal_size_mismatch(self, tmp_path):
        metrics = []
        for name, prompts in (("a", [[1, 2, 3], [4, 5, 6]]), ("b", [[1, 2, 3], [4, 5, 7]])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(prompts))
            metrics.append(run_session(RunConfig(prompt_file=str(path), max_new=2)))
        with pytest.raises(ConfigError, match="mismatched prompt sets"):
            compute_speedup(*metrics)

    def test_chain_vs_vanilla_recorded(self):
        cfg = RunConfig(method="chain", gamma=3, max_new=10, n_prompts=2, seed=0)
        rep = run_bench(cfg, methods=["vanilla", "chain"])
        assert "chain" in rep.speedups
        assert rep.speedups["vanilla"]["forward_ratio"] == 1.0


class TestReport:
    def test_round_trip(self, tmp_path):
        rep = Report(config={"method": "vanilla"}, metrics={"vanilla": {"tau": 1.0}},
                     speedups={}, environment=environment_stamp())
        path = str(tmp_path / "r.json")
        write_report(rep, path)
        assert read_report(path) == rep.to_dict()

    def test_empty_metrics_rejected(self, tmp_path):
        rep = Report(config={}, metrics={}, speedups={}, environment={})
        with pytest.raises(ValueError, match="no metrics"):
            write_report(rep, str(tmp_path / "r.json"))

    def test_determinism_modulo_wall(self, tmp_path):
        cfg = RunConfig(method="chain", gamma=3, max_new=8, n_prompts=2, seed=1)
        reps = []
        for name in ("a", "b"):
            rep = run_bench(cfg, methods=["vanilla", "chain"])
            path = str(tmp_path / f"{name}.json")
            write_report(rep, path)
            reps.append(read_report(path))

        def strip(d):
            if isinstance(d, dict):
                return {k: strip(v) for k, v in d.items()
                        if k not in ("wall_ms", "wall_ratio")}
            if isinstance(d, list):
                return [strip(x) for x in d]
            return d

        assert strip(reps[0]) == strip(reps[1])


class TestSweep:
    def test_grid_shape(self):
        cfg = RunConfig(method="moe_tree", gamma=3, max_new=6, n_prompts=1, seed=0,
                        n_experts=5, active_k=2)
        rows = run_sweep_nk(cfg)
        assert sorted(rows) == ["N=2,K=2", "N=3,K=2", "N=4,K=2", "N=5,K=2"]
        for row in rows.values():
            assert row["tau"] >= 1.0


class TestCli:
    def test_decode_ok(self, tmp_path, capsys):
        cfg = {"method": "chain", "gamma": 3, "max_new": 6, "n_prompts": 1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        rc = main(["decode", "--config", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau"] >= 1.0

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "warp"}))
        assert main(["decode", "--config", str(path)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"methods": "chain"}))
        assert main(["decode", "--config", str(path)]) == 2

    def test_bad_checkpoint_exit_2(self, tmp_path):
        ckpt = tmp_path / "junk.bin"
        ckpt.write_bytes(b"not a checkpoint")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "draft_checkpoint": str(ckpt),
                                    "max_new": 4, "n_prompts": 1}))
        assert main(["decode", "--config", str(path)]) == 2

    def test_bench_and_report(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"method": "chain", "gamma": 3, "max_new": 6,
                                    "n_prompts": 1}))
        rp = tmp_path / "report.json"
        rc = main(["bench", "--config", str(cfgp), "--methods", "vanilla,chain",
                   "--report", str(rp)])
        assert rc == 0
        rep = read_report(str(rp))
        assert set(rep["metrics"]) == {"vanilla", "chain"}

    def test_gradcheck_ok(self, capsys):
        rc = main(["gradcheck", "--coords", "8", "--sequences", "4", "--seq-len", "8"])
        assert rc == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_gen_corpus_and_train(self, tmp_path, capsys):
        corpus = tmp_path / "c.bin"
        rc = main(["gen-corpus", "--out", str(corpus), "--sequences", "8",
                   "--seq-len", "6"])
        assert rc == 0
        ckpt = tmp_path / "d.bin"
        rc = main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                   "--steps", "5", "--batch-size", "4"])
        assert rc == 0
        assert ckpt.exists()
