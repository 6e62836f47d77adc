"""Harness tests: config loading, session counters, speedups, reports, CLI."""

import copy
import json
import struct

import numpy as np
import pytest

import sdlab.bench
import sdlab.cli
from sdlab.bench import (
    ConfigError,
    Metrics,
    Report,
    RunConfig,
    compute_speedup,
    decode_prompt,
    load_config,
    make_prompts,
    run_bench,
    run_session,
    run_sweep_nk,
    write_report,
    build_models,
    environment_stamp,
)
from sdlab.cli import main
from sdlab.draft import save_draft
from sdlab.target import save_target
from sdlab.train import generate_distillation_corpus, save_corpus

from test_verify import expected_passes, tree_columns, walk_oracle


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="method: unknown method 'beam'"):
            RunConfig(method="beam").validate()
        # decode_prompt takes an unvalidated config
        cfg = RunConfig(method="beam")
        target, draft = build_models(cfg)
        with pytest.raises(ConfigError, match="method: unknown method 'beam'"):
            decode_prompt(target, draft, cfg, [1, 2, 3], np.random.default_rng(0))

    def test_jakiro_requires_gamma2(self):
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig(method="jakiro_full", gamma=1).validate()

    @pytest.mark.parametrize("raw,msg", [
        ({"gamma": "5"}, "gamma: expected int, got '5'"),
        ({"gamma": 2.5}, "gamma: expected int, got 2.5"),
        ({"beam": True}, "beam: expected int, got True"),
        ({"temperature": "0.6"}, "temperature: expected float or int, got '0.6'"),
        ({"method": 3}, "method: expected str, got 3"),
        ({"prompt_file": 7}, "prompt_file: expected str or null, got 7"),
    ])
    def test_wrong_value_types_rejected_by_key(self, tmp_path, raw, msg):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", **raw}))
        with pytest.raises(ConfigError, match=msg):
            load_config(str(path))

    def test_int_temperature_and_null_path_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "temperature": 1, "prompt_file": None}))
        cfg = load_config(str(path))
        assert cfg.temperature == 1 and cfg.prompt_file is None

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "-0.5"])
    def test_non_finite_or_negative_temperature_rejected(self, tmp_path, value):
        # Python's json reads NaN and Infinity as floats
        path = tmp_path / "c.json"
        path.write_text('{"method": "chain", "temperature": %s}' % value)
        with pytest.raises(ConfigError, match="temperature: must be finite and >= 0"):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["top_k", "beam"])
    def test_empty_trees_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key}: must be >= 1"):
            RunConfig(method="jakiro_full", **{key: 0}).validate()


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

    @pytest.mark.parametrize("method", ["vanilla", "jakiro_full"])
    def test_a_temperature_that_overflows_the_logits_raises(self, method):
        # before, vanilla emitted token 0 at every step and jakiro_full died
        # mid-round with "non-finite q"
        cfg = RunConfig(method=method, temperature=1e-310, max_new=6, n_prompts=1, seed=0)
        with pytest.raises(ValueError, match="temperature 1e-310 overflows"):
            run_session(cfg)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_second_pass_rounds_and_target_rows_count_the_verify_passes(self, monkeypatch,
                                                                         temperature):
        # the node-by-node walk over one pass of the whole tree, with the
        # likely path at T=0 and the split rule above it, tells each round's
        # passes and their rows; at gamma 2 and beam 2 leaves sit at both
        # depths
        rounds = []
        verify = sdlab.bench.verify_tree

        def replayed(tree, target, cache, temp, rng):
            logits = target.forward_tree_kv(cache, *tree_columns(tree))[0]
            path, _ = walk_oracle(tree, logits, temp, copy.deepcopy(rng))
            rounds.append(expected_passes(tree, path, temp))
            return verify(tree, target, cache, temp, rng)

        monkeypatch.setattr(sdlab.bench, "verify_tree", replayed)
        base = dict(temperature=temperature, gamma=2, beam=2, max_new=24, n_prompts=8, seed=3)
        m = run_session(RunConfig(method="vanilla", **base))
        assert m.second_pass_rounds == 0 and m.target_rows_per_round == 1.0
        for method in ("chain", "static_tree", "moe_tree", "jakiro_full"):
            rounds.clear()
            m = run_session(RunConfig(method=method, **base))
            want = sum(len(passes) == 2 for passes in rounds)
            assert m.second_pass_rounds == want == sum(r["second_pass_rounds"]
                                                       for r in m.per_prompt), method
            rows = sum(len(rows) for passes in rounds for rows in passes)
            assert rows == sum(r["target_rows"] for r in m.per_prompt), method
            assert m.target_rows_per_round == rows / len(rounds)
            assert m.target_forwards == len(rounds)
            # a chain verifies in one pass; a branching tree's walk
            # reaches a row its first pass left out in some round
            assert want == 0 if method == "chain" else want > 0, method


class TestSpeedup:
    def _metrics(self, tf, fingerprint="x"):
        return Metrics(method="m", tau=1.0, target_forwards=tf, draft_forwards=0,
                       second_pass_rounds=0, target_rows_per_round=1.0, tokens_emitted=tf,
                       wall_ms=10.0, prompt_fingerprint=fingerprint)

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

    def test_environment_names_the_blas_thread_count(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert environment_stamp()["openblas_num_threads"] == "3"
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert environment_stamp()["openblas_num_threads"] is None

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

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_temperature_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "c.json"
        path.write_text('{"method": "chain", "temperature": %s, "max_new": 4, "n_prompts": 1}'
                        % value)
        assert main(["decode", "--config", str(path)]) == 2
        assert "temperature: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decode", "gen-corpus"])
    def test_a_temperature_that_overflows_the_logits_exit_2(self, tmp_path, capsys, command):
        # both ended in a ValueError traceback and exit 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "vanilla", "temperature": 1e-310, "max_new": 4,
                                    "n_prompts": 1}))
        argv = {"decode": ["decode", "--config", str(path)],
                "gen-corpus": ["gen-corpus", "--temperature", "1e-310", "--sequences", "2",
                               "--seq-len", "4", "--out", str(tmp_path / "corpus.bin")]}[command]
        assert main(argv) == 2
        assert "config error: temperature 1e-310 overflows" in capsys.readouterr().err

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

    @pytest.mark.parametrize("which", ["target", "draft"])
    def test_non_finite_checkpoint_exit_2(self, tmp_path, capsys, which):
        target, draft = build_models(RunConfig())
        if which == "target":
            target.layers[1].wqkv[2 * target.dim + 3, 4] = np.nan  # wv[3, 4]
            save_target(target, str(tmp_path / "ckpt.bin"))
        else:
            draft.params["w2"][1, 0, 5] = np.nan
            save_draft(draft, str(tmp_path / "ckpt.bin"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", f"{which}_checkpoint": str(tmp_path / "ckpt.bin"),
                                    "max_new": 4, "n_prompts": 1}))
        assert main(["decode", "--config", str(path)]) == 2
        assert f"{which}_checkpoint: non-finite parameter value" in capsys.readouterr().err

    @pytest.mark.parametrize("which,fields,msg", [
        ("target", (1, 64, 32, 2, 0), "n_heads must be >= 1"),
        ("target", (1, 2**20, 2**16, 2, 2), "checkpoint length mismatch"),
        ("target", (1, 64, 32, 2**31, 2), "checkpoint length mismatch"),
        ("draft", (1, 64, 32, 2, 0, 0, 64, 1), "n_experts must be >= 1"),
        ("draft", (1, 64, 32, 2, 2, 2, 2**30, 1), "checkpoint length mismatch"),
        ("draft", (1, 64, 32, 0, 2, 2, 64, 1), "n_heads must be >= 1"),
        ("draft", (1, 64, 32, 2, 2, 2, 64, 0), "unsupported layer norm word 0, expected 1"),
    ])
    def test_bad_checkpoint_header_exit_2(self, tmp_path, capsys, which, fields, msg):
        # a header alone: its sizes are rejected before any array is allocated
        magic = b"SDFM" if which == "target" else b"SDFD"
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(magic + struct.pack(f"<{len(fields)}I", *fields) + b"\0" * 64)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", f"{which}_checkpoint": str(ckpt),
                                    "max_new": 4, "n_prompts": 1}))
        assert main(["decode", "--config", str(path)]) == 2
        assert f"{which}_checkpoint: {msg}" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["target", "draft"])
    def test_truncated_checkpoint_header_exit_2(self, tmp_path, capsys, which):
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes((b"SDFM" if which == "target" else b"SDFD") + b"\1\0\0")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", f"{which}_checkpoint": str(ckpt),
                                    "max_new": 4, "n_prompts": 1}))
        assert main(["decode", "--config", str(path)]) == 2
        assert "header truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [{"gamma": "5"}, {"method": "jakiro_full", "beam": 0},
                                     {"method": "static_tree", "top_k": 0}, {"n_layers": 0},
                                     {"expert_hidden": 0}, {"n_heads": 3}, {"n_prompts": 0},
                                     {"seed": -1}, {"draft_seed": -2}])
    def test_config_edge_inputs_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "max_new": 4, "n_prompts": 1, **raw}))
        assert main(["decode", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "{}", "[5]", "[[1, 2.5, 3]]", "[[1, true, 3]]",
                                      "[[1, 64]]", "not json", None])
    def test_bad_prompt_file_exit_2(self, tmp_path, capsys, text):
        # None: a path with no file
        prompts = tmp_path / "p.json"
        if text is not None:
            prompts.write_text(text)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "prompt_file": str(prompts)}))
        assert main(["decode", "--config", str(path)]) == 2
        assert "config error: prompt_file: " in capsys.readouterr().err

    def test_bench_moe_with_one_active_expert_exit_2(self, tmp_path, capsys):
        cfg = RunConfig(method="chain", active_k=1, gamma=3, max_new=4, n_prompts=1)
        with pytest.raises(ConfigError, match="active_k: method moe_tree requires K >= 2"):
            run_bench(cfg, methods=["vanilla", "moe_tree"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "chain", "active_k": 1, "max_new": 4,
                                    "n_prompts": 1}))
        assert main(["bench", "--config", str(path), "--methods", "vanilla,jakiro_full"]) == 2
        assert "active_k: method jakiro_full" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv,msg", [
        (["gen-corpus", "--sequences", "-1"], "--sequences: must be >= 1, got -1"),
        (["gen-corpus", "--sequences", "0"], "--sequences: must be >= 1, got 0"),
        (["gen-corpus", "--seq-len", "0"], "--seq-len: must be >= 2, got 0"),
        (["gen-corpus", "--temperature=-1"], "--temperature: must be finite and >= 0"),
        (["gen-corpus", "--temperature", "nan"], "--temperature: must be finite and >= 0"),
        (["train", "--steps", "0"], "--steps: must be >= 1, got 0"),
        (["train", "--seq-len", "1"], "--seq-len: must be >= 2, got 1"),
        (["train", "--batch-size", "0"], "--batch-size: must be >= 1, got 0"),
        (["train", "--lr", "nan"], "--lr: must be finite and > 0, got nan"),
        (["train", "--lr", "inf"], "--lr: must be finite and > 0, got inf"),
        (["train", "--sequences", "0"], "--sequences: must be >= 1, got 0"),
        (["train", "--log-every", "-1"], "--log-every: must be >= 0, got -1"),
        (["gradcheck", "--coords", "0"], "--coords: must be >= 2, got 0"),
        (["gradcheck", "--h", "nan"], "--h: must be in [1e-6, 1e-4], got nan"),
        (["gradcheck", "--seq-len", "1"], "--seq-len: must be >= 2, got 1"),
        (["gradcheck", "--sequences", "0"], "--sequences: must be >= 1, got 0"),
    ])
    def test_bad_numeric_flag_exit_2(self, tmp_path, capsys, argv, msg):
        out = tmp_path / "out.bin"
        extra = [] if argv[0] == "gradcheck" else ["--out", str(out)]
        assert main([*argv, *extra]) == 2
        assert f"config error: {msg}" in capsys.readouterr().err
        assert not out.exists()

    def test_gradcheck_ok(self, capsys):
        rc = main(["gradcheck", "--coords", "8", "--sequences", "4", "--seq-len", "8"])
        assert rc == 0
        assert "max relative gradient error" in capsys.readouterr().out

    @pytest.mark.parametrize("content,msg", [
        (b"junk!", "bad magic: not a corpus file"),
        (b"SDFC\x01", "corpus header truncated"),
        (None, "No such file or directory"),
        ("one-token", "at least 2 tokens"),
    ], ids=["junk", "truncated", "missing", "one-token"])
    def test_bad_corpus_exit_2(self, tmp_path, capsys, content, msg):
        corpus = tmp_path / "c.bin"
        if content == "one-token":
            target, _ = build_models(RunConfig())
            save_corpus(generate_distillation_corpus(target, 2, 1), str(corpus))
        elif content is not None:
            corpus.write_bytes(content)
        out = tmp_path / "d.bin"
        assert main(["train", "--corpus", str(corpus), "--out", str(out), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert "config error: --corpus: " in err and msg in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_a_one_expert_draft_trains_and_passes_the_audit(self, tmp_path, capsys, command):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n_experts": 1, "active_k": 1}))
        out = tmp_path / "d.bin"
        flags = (["--out", str(out), "--steps", "3", "--sequences", "4", "--seq-len", "6"]
                 if command == "train" else ["--sequences", "3", "--coords", "32"])
        assert main([command, "--config", str(path), *flags]) == 0
        printed = capsys.readouterr().out
        if command == "train":
            assert printed.startswith("trained 3 steps") and out.exists()
        else:
            assert printed.startswith("max relative gradient error over 32 coordinates")

    @pytest.mark.parametrize("argv", [
        ["gen-corpus", "--out"], ["train", "--out"], ["decode", "--report"],
        ["bench", "--report"], ["sweep-nk", "--report"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing", "directory", "unwritable"])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, monkeypatch, argv, where):
        # rejected before any model is built, not after the work is done
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("build_models", "run_session", "run_bench", "run_sweep_nk"):
            monkeypatch.setattr(sdlab.cli, name, no_work)
        path, msg = {"missing": (tmp_path / "nowhere" / "f.bin", "no such directory"),
                     "directory": (tmp_path, "is a directory"),
                     "unwritable": (tmp_path / "f.bin", "directory not writable")}[where]
        if where == "unwritable":  # a check root's permissions would pass
            monkeypatch.setattr(sdlab.cli.os, "access", lambda *args: False)
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {argv[1]}: {msg}" in err and "Traceback" not in err
        assert not (tmp_path / "nowhere").exists() and not (tmp_path / "f.bin").exists()

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
