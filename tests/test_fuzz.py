"""Hypothesis fuzz of speculative decoding over valid run configs.

Every drawn config passes ``RunConfig.validate``.  Each example decodes one
prompt and checks what every method owes at every temperature: ``max_new``
in-vocab tokens, tau in [1, gamma+1], and gamma draft passes per round
(gamma - 1 for jakiro_full, whose parallel contrast level needs no pass of
its own).  At T=0 the stream must equal vanilla greedy decoding.  Each
draft gets 100 distillation steps first: an untrained one accepts almost
nothing at T=0, so greedy equality would only be checked at depth 0.  The
examples are derandomized, so the suite stays deterministic.
"""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.bench import RunConfig, build_models, decode_prompt
from sdlab.train import TrainConfig, generate_distillation_corpus, train_draft

METHODS = ("chain", "static_tree", "moe_tree", "jakiro_full")


@cache
def models(n_experts: int, active_k: int):
    target, draft = build_models(RunConfig(n_experts=n_experts, active_k=active_k))
    corpus = generate_distillation_corpus(target, 32, 12)
    train_draft(draft, corpus, TrainConfig(lr=3e-3, batch_size=8), steps=100)
    return target, draft


@st.composite
def cases(draw):
    method = draw(st.sampled_from(METHODS))
    n_experts = draw(st.integers(2, 4))
    cfg = RunConfig(
        method=method,
        n_experts=n_experts,
        # one active expert is a valid draft for the methods without branch heads
        active_k=draw(st.integers(1 if method in ("chain", "static_tree") else 2, n_experts)),
        gamma=draw(st.integers(2 if method == "jakiro_full" else 1, 5)),
        top_k=draw(st.integers(1, 3)),
        beam=draw(st.integers(1, 16)),
        temperature=draw(st.sampled_from((0.0, 0.6, 1.0))),
        max_new=draw(st.integers(1, 10)),
    )
    prompt = draw(st.lists(st.integers(0, cfg.vocab - 1), min_size=2, max_size=8))
    return cfg, prompt, draw(st.integers(0, 2**32))


@given(cases())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_decoding_keeps_its_invariants(case):
    cfg, prompt, seed = case
    cfg.validate()
    target, draft = models(cfg.n_experts, cfg.active_k)
    r = decode_prompt(target, draft, cfg, prompt, np.random.Generator(np.random.PCG64(seed)))
    tokens = r["tokens"]
    assert len(tokens) == cfg.max_new
    assert all(0 <= t < target.vocab for t in tokens)
    assert 1 <= len(tokens) / r["target_forwards"] <= cfg.gamma + 1
    passes = cfg.gamma - 1 if cfg.method == "jakiro_full" else cfg.gamma
    assert r["draft_passes_per_round"] == [passes] * r["rounds"]
    if cfg.temperature == 0.0:
        assert tokens == target.autoregressive_decode(prompt, cfg.max_new)
