"""Trainer tests: corpus generation, the combined objective,
optimizer determinism and the finite-difference gradient audit."""

import struct

import numpy as np
import pytest

import sdlab.train
from sdlab.draft import DraftConfig, DraftSession, init_draft, load_draft, save_draft
from sdlab.kernels import softmax
from sdlab.target import TargetConfig, init_target
from sdlab.train import (
    ADAM_BETA1,
    GRAD_CLIP,
    W_CLS_CONST,
    W_CLS_MOE,
    TrainBatch,
    TrainConfig,
    AdamState,
    finite_diff_check,
    generate_distillation_corpus,
    jakiro_loss,
    load_corpus,
    loss_and_grads,
    save_corpus,
    train_draft,
    train_step,
    _forward,
)


@pytest.fixture(scope="module")
def target():
    return init_target(TargetConfig(), seed=0)


@pytest.fixture(scope="module")
def corpus(target):
    return generate_distillation_corpus(target, 12, 10, temperature=1.0, seed=42)


def fresh_draft(target, seed=1):
    return init_draft(DraftConfig(), target, seed=seed)


class TestCorpus:
    def test_seed_repeat_identical(self, target):
        a = generate_distillation_corpus(target, 4, 6, seed=7)
        b = generate_distillation_corpus(target, 4, 6, seed=7)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.probs, b.probs)

    def test_empty(self, target):
        c = generate_distillation_corpus(target, 0, 6, seed=0)
        assert c.n_sequences == 0

    def test_probs_are_softmax_of_logits(self, target, corpus):
        # recorded p at each position equals softmax(head . feature)
        for b in range(3):
            for i in range(corpus.tokens.shape[1]):
                logits = target.head @ corpus.features[b, i]
                assert np.array_equal(corpus.probs[b, i], softmax(logits))

    def test_file_round_trip(self, target, corpus, tmp_path):
        path = str(tmp_path / "corpus.bin")
        save_corpus(corpus, path)
        loaded = load_corpus(path, target)
        assert np.array_equal(loaded.tokens, corpus.tokens)
        assert np.array_equal(loaded.features, corpus.features)
        # probs come back through the head as decoding computes them: the generated bits
        assert np.array_equal(loaded.probs, corpus.probs)

    def test_vocab_mismatch(self, corpus, tmp_path):
        other = init_target(TargetConfig(vocab=32, dim=16), seed=0)
        path = str(tmp_path / "c2.bin")
        save_corpus(corpus, path)
        with pytest.raises(ValueError, match="does not match"):
            load_corpus(path, other)

    def test_bad_files(self, target, corpus, tmp_path):
        path = tmp_path / "c3.bin"
        save_corpus(corpus, str(path))
        blob = path.read_bytes()
        cases = [
            (blob[:12], "corpus header truncated"),
            (blob[:-8], "corpus length mismatch"),
            # the first token of the first sequence set to the vocab size
            (blob[:20] + struct.pack("<I", target.vocab) + blob[24:], "out of vocab range"),
            (blob[:-8] + struct.pack("<d", float("nan")), "non-finite feature"),
        ]
        for data, msg in cases:
            path.write_bytes(data)
            with pytest.raises(ValueError, match=msg):
                load_corpus(str(path), target)
        save_corpus(generate_distillation_corpus(target, 2, 1, seed=0), str(path))
        with pytest.raises(ValueError, match="at least 2 tokens, got 2 of 1 tokens"):
            load_corpus(str(path), target)


class TestLoss:
    def test_decomposition_identity(self, target, corpus):
        draft = fresh_draft(target)
        total, br = jakiro_loss(draft, corpus.take(np.arange(6)))
        assert (W_CLS_MOE, W_CLS_CONST) == (0.1, 0.05)
        recombined = (
            br["reg_moe"] + 0.1 * br["cls_moe"] + br["reg_const"] + 0.05 * br["cls_const"]
        )
        assert abs(total - recombined) < 1e-12
        assert abs(br["total"] - recombined) < 1e-12

    def test_weight_linearity(self, target, corpus, monkeypatch):
        draft = fresh_draft(target)
        batch = corpus.take(np.arange(4))
        monkeypatch.setattr(sdlab.train, "W_CLS_MOE", 0.1)
        t1, br1 = jakiro_loss(draft, batch)
        monkeypatch.setattr(sdlab.train, "W_CLS_MOE", 0.2)
        t2, br2 = jakiro_loss(draft, batch)
        assert abs(br1["cls_moe"] - br2["cls_moe"]) < 1e-15
        assert abs((t2 - t1) - 0.1 * br1["cls_moe"]) < 1e-12

    def test_perfect_prediction_limit(self, target):
        # length-2 sequences decouple inputs from targets: overwrite the targets
        # with the draft's own outputs; regression terms vanish and each
        # classification term equals the entropy of its own prediction
        draft = fresh_draft(target)
        corpus = generate_distillation_corpus(target, 3, 2, seed=5)
        _, _, st = _forward(draft, corpus)
        batch = TrainBatch(
            tokens=corpus.tokens.copy(),
            features=corpus.features.copy(),
            probs=corpus.probs.copy(),
        )
        # one step per sequence: row b of the stash is sequence b's
        batch.features[:, 1] = st["mix"]
        batch.probs[:, 1] = st["qm"]
        total, br = jakiro_loss(draft, batch)
        assert br["reg_moe"] < 1e-15
        assert br["reg_const"] == 0.0 and br["cls_const"] == 0.0  # no step at length 2
        entropy = float(np.mean([-np.sum(q * np.log(q)) for q in st["qm"]]))
        assert abs(br["cls_moe"] - entropy) < 1e-9

    def test_short_sequences(self, target):
        draft = fresh_draft(target)
        two = generate_distillation_corpus(target, 2, 2, seed=1)
        _, br = jakiro_loss(draft, two)
        assert br["reg_const"] == 0.0 and br["cls_const"] == 0.0
        one = generate_distillation_corpus(target, 2, 1, seed=1)
        with pytest.raises(ValueError, match="shorter than 2"):
            jakiro_loss(draft, one)

    def test_batched_forward_matches_sequential_draft(self):
        # the teacher-forced pass is the decode row kernel: every feature and
        # distribution the loss reads is, bit for bit, what begin_round on the
        # sequence's prefix and the decode heads give (dim 30 is no multiple of 4)
        for dim, n_experts, active_k in ((32, 2, 2), (32, 3, 2), (32, 3, 1), (32, 1, 1),
                                         (30, 3, 2)):
            target = init_target(TargetConfig(dim=dim), seed=0)
            draft = init_draft(DraftConfig(dim=dim, n_experts=n_experts, active_k=active_k),
                               target, seed=1)
            batch = generate_distillation_corpus(target, 3, 7, seed=4)
            _, _, st = _forward(draft, batch)
            S = batch.tokens.shape[1] - 1
            assert ("fc" in st) == (active_k >= 2)
            for b in range(3):
                for s in range(S):
                    out = DraftSession(draft).begin_round(batch.tokens[b, 1 : s + 2].tolist(),
                                                          batch.features[b, : s + 1])
                    row = b * S + s
                    assert draft.mixture_feature(out).tobytes() == st["mix"][row].tobytes()
                    assert softmax(draft.mixture_logits(out)).tobytes() == st["qm"][row].tobytes()
                    if active_k >= 2 and s < S - 1:  # the contrast rows skip each last step
                        row = b * (S - 1) + s
                        assert draft.contrast_feature(out).tobytes() == st["fc"][row].tobytes()
                        assert (softmax(draft.contrast_logits(out)).tobytes()
                                == st["qc"][row].tobytes())

    def test_a_one_active_expert_loss_reads_the_decode_mixture(self, target, corpus):
        # at K=1 the mixture is the gated feature decoding reads, not a mix of
        # the two best experts, and there is no contrast head to train
        draft = init_draft(DraftConfig(n_experts=3, active_k=1), target, seed=2)
        batch = corpus.take(np.arange(2))
        _, br, st = _forward(draft, batch)
        S = batch.tokens.shape[1] - 1
        ce = 0.0
        for b in range(2):
            sess = DraftSession(draft)
            for s in range(S):
                out = sess.begin_round([int(batch.tokens[b, s + 1])], [batch.features[b, s]])
                q = softmax(draft.mixture_logits(out))
                assert q.tobytes() == st["qm"][b * S + s].tobytes()
                ce -= float(np.sum(batch.probs[b, s + 1] * np.log(q)))
        assert abs(br["cls_moe"] - ce / (2 * S)) < 1e-12
        assert br["reg_const"] == br["cls_const"] == 0.0


class TestTrainStep:
    def test_zero_lr_leaves_params(self, target, corpus):
        draft = fresh_draft(target)
        before = {k: np.array(v, copy=True) for k, v in draft.params.items()}
        opt = AdamState.init(draft)
        train_step(draft, corpus.take(np.arange(4)), opt, TrainConfig(lr=0.0))
        for k in before:
            assert np.array_equal(np.asarray(draft.params[k]), before[k]), k

    def test_identical_seeds_identical_trajectories(self, target, corpus, tmp_path):
        cfg = TrainConfig(lr=1e-3, batch_size=4, seed=3)
        d1 = fresh_draft(target)
        d2 = fresh_draft(target)
        train_draft(d1, corpus, cfg, steps=20)
        train_draft(d2, corpus, cfg, steps=20)
        p1 = str(tmp_path / "d1.bin")
        p2 = str(tmp_path / "d2.bin")
        save_draft(d1, p1)
        save_draft(d2, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_loss_descends(self, target):
        corpus = generate_distillation_corpus(target, 64, 12, seed=11)
        draft = fresh_draft(target)
        cfg = TrainConfig(lr=2e-3, batch_size=16, seed=0)
        hist = train_draft(draft, corpus, cfg, steps=200)
        assert np.mean(hist[-20:]) < hist[0]

    def test_non_finite_loss_keeps_params(self, target, corpus):
        draft = fresh_draft(target)
        before = {k: np.array(v, copy=True) for k, v in draft.params.items()}
        bad = corpus.take(np.arange(2))
        bad = TrainBatch(bad.tokens.copy(), bad.features.copy(), bad.probs.copy())
        bad.features[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            train_step(draft, bad, AdamState.init(draft), TrainConfig())
        for k in before:
            assert np.array_equal(np.asarray(draft.params[k]), before[k]), k

    def test_grad_clip_bounds_update_norm(self, target, corpus):
        # a fresh optimizer's first moment is (1 - beta1) times the clipped
        # gradient, whose global norm is min(norm, GRAD_CLIP)
        draft = fresh_draft(target)
        cfg = TrainConfig(lr=1e-3)
        batch = corpus.take(np.arange(4))
        _, _, grads = loss_and_grads(draft, batch)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm > GRAD_CLIP  # the clip is active
        opt = AdamState.init(draft)
        train_step(draft, batch, opt, cfg)
        m_norm = np.sqrt(sum(float(np.sum(m * m)) for m in opt.m.values())) / (1.0 - ADAM_BETA1)
        assert abs(m_norm - GRAD_CLIP) < 1e-12


def test_a_one_expert_draft_trains_and_passes_the_gradient_audit(target, corpus, tmp_path):
    draft = init_draft(DraftConfig(n_experts=1, active_k=1), target, seed=1)
    assert finite_diff_check(draft, corpus.take(np.arange(4)), n_coords=64, seed=1) < 1e-3
    before = {k: np.array(v, copy=True) for k, v in draft.params.items()}
    hist = train_draft(draft, corpus, TrainConfig(lr=2e-3, batch_size=4), steps=20)
    assert np.all(np.isfinite(hist)) and np.mean(hist[-5:]) < hist[0]
    # one expert's router score is 1 whatever the router, and beta and alpha
    # feed only the contrast head, which a one-expert draft lacks
    assert [k for k in before if np.array_equal(before[k], draft.params[k])] == [
        "router", "beta", "alpha"]
    assert finite_diff_check(draft, corpus.take(np.arange(4)), n_coords=64, seed=2) < 1e-3
    save_draft(draft, str(tmp_path / "d.bin"))
    assert load_draft(str(tmp_path / "d.bin"), target).config.n_experts == 1


class TestFiniteDiff:
    def test_quadratic_regime_is_machine_exact(self, target, corpus, monkeypatch):
        # with the classification weights off and beta, alpha the only sampled
        # coordinates, the loss is locally quadratic: central differences are
        # exact up to rounding
        draft = fresh_draft(target)
        monkeypatch.setattr(sdlab.train, "W_CLS_MOE", 0.0)
        monkeypatch.setattr(sdlab.train, "W_CLS_CONST", 0.0)
        err = finite_diff_check(draft, corpus.take(np.arange(4)), n_coords=2, h=1e-5, seed=0)
        assert err < 1e-7

    def test_full_objective_audit(self, target, corpus):
        draft = fresh_draft(target)
        err = finite_diff_check(draft, corpus.take(np.arange(6)), n_coords=64, h=1e-5, seed=1)
        assert err < 1e-3

    def test_h_bounds(self, target, corpus):
        draft = fresh_draft(target)
        with pytest.raises(ValueError, match="h must lie"):
            finite_diff_check(draft, corpus.take(np.arange(2)), h=1e-2)

    def test_audit_after_training(self, target):
        # gradients stay correct away from initialization
        corpus = generate_distillation_corpus(target, 16, 8, seed=2)
        draft = fresh_draft(target)
        train_draft(draft, corpus, TrainConfig(lr=2e-3, batch_size=8, seed=1), steps=50)
        err = finite_diff_check(draft, corpus.take(np.arange(4)), n_coords=32, h=1e-5, seed=2)
        assert err < 1e-3
