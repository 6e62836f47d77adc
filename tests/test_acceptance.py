"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with its measured quantity.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from sdlab.bench import RunConfig, decode_prompt, build_models, make_prompts, run_session
from sdlab.draft import DraftConfig, init_draft, save_draft
from sdlab.target import TargetConfig, init_target, tree_groups
from sdlab.train import TrainConfig, finite_diff_check, generate_distillation_corpus, jakiro_loss, train_draft
from sdlab.verify import residual_dist

from test_draft import assert_routed, route, routing_probe
from test_row_kernel import random_tree
from test_tree import ancestor_walk, context_columns
from test_verify import enumerate_round


@contextmanager
def criterion(num, summary):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {summary}")
        raise
    print(f"PASS criterion {num}: {summary}")


@pytest.fixture(scope="module")
def target64():
    return init_target(TargetConfig(vocab=64, dim=32, n_layers=2, n_heads=2), seed=0)


@pytest.fixture(scope="module")
def small_pair():
    target = init_target(TargetConfig(vocab=8, dim=16, n_layers=2, n_heads=2), seed=0)
    draft = init_draft(
        DraftConfig(vocab=8, dim=16, n_heads=2, n_experts=2, active_k=2, expert_hidden=32),
        target,
        seed=1,
    )
    return target, draft


@pytest.fixture(scope="module")
def trained_checkpoint(target64, tmp_path_factory):
    """512-sequence corpus, 2000 training steps; shared by criteria 1 and 8."""
    t0 = time.time()
    corpus = generate_distillation_corpus(target64, 512, 24, temperature=1.0, seed=42)
    draft = init_draft(DraftConfig(vocab=64, dim=32), target64, seed=1)
    train_draft(draft, corpus, TrainConfig(lr=2e-3, batch_size=16, seed=0), steps=2000)
    path = str(tmp_path_factory.mktemp("ckpt") / "draft_trained.bin")
    save_draft(draft, path)
    return path, time.time() - t0


def test_criterion_1_greedy_losslessness_end_to_end(trained_checkpoint):
    # a trained draft, so that most rounds accept several nodes deep
    ckpt, _ = trained_checkpoint
    t0 = time.time()
    base = dict(temperature=0.0, gamma=4, top_k=2, beam=8, max_new=16,
                n_prompts=200, prompt_len=6, seed=0, draft_checkpoint=ckpt)
    vanilla = run_session(RunConfig(method="vanilla", **base))
    jakiro = run_session(RunConfig(method="jakiro_full", **base))
    elapsed = time.time() - t0
    with criterion(1, f"200-prompt greedy streams bit-identical, jakiro tau={jakiro.tau:.2f} "
                      f"(elapsed {elapsed:.1f}s)"):
        v = [tuple(r["tokens"]) for r in vanilla.per_prompt]
        j = [tuple(r["tokens"]) for r in jakiro.per_prompt]
        assert len(v) == 200
        assert v == j  # tolerance: exact
        assert jakiro.tau >= 2.0
        assert elapsed < 60.0


def test_criterion_2_single_step_sampling_losslessness():
    rng = np.random.default_rng(1)
    worst = 0.0
    with criterion(2, "accept+residual reproduces p over 1000 (p, q) pairs, vocab 8"):
        for _ in range(1000):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            a = np.minimum(1.0, p / q)
            out = q * a
            rejected = float(np.sum(q * (1.0 - a)))
            if rejected > 0:
                out = out + rejected * residual_dist(p, q)
            worst = max(worst, float(np.max(np.abs(out - p))))
        assert worst < 1e-12


@pytest.mark.parametrize("kind", ["static", "moe"])
def test_criterion_3_tree_sampling_losslessness(small_pair, kind):
    target, draft = small_pair
    ctx = [3, 1, 4]
    t0 = time.time()
    with criterion(3, f"depth-2 {kind} tree enumeration equals exact 2-step distribution"):
        dist, p0, p1 = enumerate_round(target, draft, ctx, kind)
        joint = np.zeros((8, 8))
        for key, pr in dist.items():
            if len(key) == 2:
                joint[key] += pr
            else:
                sub, sp0, _ = enumerate_round(target, draft, ctx + [key[0]], kind)
                sm = np.zeros(8)
                for k2, pr2 in sub.items():
                    sm[k2[0]] += pr2
                assert np.max(np.abs(sm - sp0)) < 1e-10
                joint[key[0]] += pr * sm
        exact = p0[:, None] * np.stack([p1[t] for t in range(8)])
        assert np.max(np.abs(joint - exact)) < 1e-10
        assert time.time() - t0 < 60.0


def test_criterion_4_tree_layout_correctness():
    rng = np.random.default_rng(4)
    with criterion(4, "1000 random trees up to 64 nodes: verify layout matches the ancestor walk"):
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            c = int(rng.integers(0, 8))
            parents, depth = random_tree(rng, n, p_child=0.7)
            cols = context_columns(tree_groups(c, parents, depth), n)
            for i in range(n):
                # tolerance: exact
                assert cols[i] == list(range(c)) + [c + j for j in ancestor_walk(parents, i)]


def test_criterion_5_moe_routing(target64):
    rng = np.random.default_rng(5)
    with criterion(5, "K=2 routing picks 2 distinct best experts (ties to the lower index) "
                      "whose branch scores equal their router scores; left >= right, N in 2..5"):
        for n_experts in (2, 3, 4, 5):
            probe = routing_probe(target64, np.zeros((n_experts, target64.dim)))
            for _ in range(250):
                probe.params["router"] = rng.normal(size=(n_experts, target64.dim))
                assert_routed(route(probe, rng.normal(size=target64.dim)))


def test_criterion_6_gradient_audit(target64):
    draft = init_draft(DraftConfig(vocab=64, dim=32), target64, seed=1)
    batch = generate_distillation_corpus(target64, 8, 10, temperature=1.0, seed=6)
    err = finite_diff_check(draft, batch, n_coords=64, h=1e-5, seed=0)
    with criterion(6, f"max relative gradient error {err:.2e} < 1e-3 over 64 coordinates"):
        assert err < 1e-3


def test_criterion_7_draft_forward_economics():
    gamma = 5
    base = dict(gamma=gamma, max_new=26, n_prompts=4, seed=7, temperature=0.0)
    cfg_full = RunConfig(method="jakiro_full", **base)
    target, draft = build_models(cfg_full)
    prompts = make_prompts(cfg_full)
    with criterion(7, f"jakiro_full spends gamma-1={gamma-1} draft passes per round, "
                      f"moe_tree spends gamma={gamma}, 100+ rounds"):
        rounds_full = []
        rounds_plain = []
        for i, prompt in enumerate(prompts):
            r = decode_prompt(target, draft, cfg_full, prompt, np.random.default_rng(i))
            rounds_full += r["draft_passes_per_round"]
            r = decode_prompt(target, draft, RunConfig(method="moe_tree", **base),
                              prompt, np.random.default_rng(i))
            rounds_plain += r["draft_passes_per_round"]
        assert len(rounds_full) >= 100 and len(rounds_plain) >= 100
        assert all(p == gamma - 1 for p in rounds_full)
        assert all(p == gamma for p in rounds_plain)


def test_criterion_8_distillation_efficacy(trained_checkpoint):
    ckpt, train_seconds = trained_checkpoint
    t0 = time.time()
    base = dict(temperature=0.0, gamma=5, top_k=2, beam=16, max_new=32,
                n_prompts=20, prompt_len=8, seed=11, draft_checkpoint=ckpt)
    chain = run_session(RunConfig(method="chain", **base))
    moe = run_session(RunConfig(method="moe_tree", **base))
    elapsed = train_seconds + (time.time() - t0)
    with criterion(8, f"trained chain tau={chain.tau:.3f} >= 1.5; moe_tree tau={moe.tau:.3f} "
                      f">= chain-0.05 (elapsed {elapsed:.0f}s)"):
        assert chain.tau >= 1.5
        assert moe.tau >= chain.tau - 0.05
        assert elapsed < 600.0


def test_criterion_9_loss_decomposition(target64):
    draft = init_draft(DraftConfig(vocab=64, dim=32), target64, seed=1)
    batch = generate_distillation_corpus(target64, 6, 9, temperature=1.0, seed=9)
    total, br = jakiro_loss(draft, batch)
    recombined = br["reg_moe"] + 0.1 * br["cls_moe"] + br["reg_const"] + 0.05 * br["cls_const"]
    with criterion(9, f"total {total:.6f} equals weighted term sum to 1e-12"):
        assert abs(total - recombined) < 1e-12
