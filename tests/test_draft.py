"""Draft model tests: routing, decoupled branches, contrastive heads."""

import numpy as np
import pytest

from sdlab.bench import RunConfig, decode_prompt, make_prompts
from sdlab.draft import DraftConfig, DraftSession, init_draft, load_draft, save_draft
from sdlab.kernels import layer_norm, silu, softmax
from sdlab.target import TargetConfig, init_target, load_target, save_target
from sdlab.train import AdamState, TrainConfig, generate_distillation_corpus, train_step


@pytest.fixture(scope="module")
def target():
    return init_target(TargetConfig(), seed=0)


@pytest.fixture(scope="module")
def draft(target):
    return init_draft(DraftConfig(), target, seed=1)


def routing_probe(target, centroids, active_k=2):
    """A draft whose step routes its previous feature u by the production
    router with weights centroids: the reduction passes u through and the
    attention output is zeroed, so the router sees the normed
    w = layer_norm(u, ln2_g, ln2_b) and its scores are softmax(centroids @ w)."""
    n, d = centroids.shape
    probe = init_draft(DraftConfig(dim=d, n_experts=n, active_k=active_k), target, seed=n)
    probe.params["reduction"] = np.concatenate((np.zeros((d, d)), np.eye(d)), axis=1)
    probe.params["wo"] = np.zeros((d, d))
    probe.params["router"] = centroids
    return probe


def route(probe, u):
    """The routing of u: one single-token round of a fresh session."""
    return DraftSession(probe).begin_round([0], [u])


def assert_routed(out, active_k=2):
    """active_k distinct experts, best first with ties to the lower index,
    branch scores equal to the router scores of the two best, left >= right."""
    s, top = out.scores, out.top
    assert abs(float(s.sum()) - 1.0) < 1e-9
    assert top.shape == (active_k,) and len(set(top.tolist())) == active_k
    for a, b in zip(top[:-1], top[1:]):
        assert s[a] > s[b] or (s[a] == s[b] and a < b)
    last = top[-1]
    for j in set(range(s.size)) - set(top.tolist()):
        assert s[j] < s[last] or (s[j] == s[last] and j > last)
    assert np.array_equal(out.branch_scores, s[top[:2]])
    assert out.branch_scores[0] >= out.branch_scores[-1]


class TestRouting:
    def test_dense_two_experts(self, target):
        rng = np.random.default_rng(0)
        u = rng.normal(size=target.dim)
        out = route(routing_probe(target, rng.normal(size=(2, target.dim))), u)
        assert_routed(out)
        assert sorted(out.top.tolist()) == [0, 1]
        assert abs(out.branch_scores.sum() - 1.0) < 1e-12

    def test_constructed_scores(self, target):
        # centroids solved so the softmax scores equal a chosen vector
        want = np.array([0.4, 0.3, 0.2, 0.1])
        u = np.linspace(-1.0, 2.0, target.dim)
        # the router sees u normed; a fresh draft's ln2 gain is 1 and bias 0
        w = layer_norm(u, np.ones(target.dim), np.zeros(target.dim))
        out = route(routing_probe(target, np.outer(np.log(want), w) / float(w @ w)), u)
        assert_routed(out)
        assert np.max(np.abs(out.scores - want)) < 1e-12
        assert list(out.top) == [0, 1]
        assert np.allclose(out.branch_scores, [0.4, 0.3], atol=1e-12)

    def test_tie_break_lower_index(self, target):
        # identical centroids -> uniform scores
        out = route(routing_probe(target, np.zeros((3, target.dim))), np.ones(target.dim))
        assert_routed(out)
        assert np.allclose(out.scores, 1 / 3)
        assert list(out.top) == [0, 1]

    def test_gate_sparsity_random(self, target):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 5):
            probe = routing_probe(target, rng.normal(size=(n, target.dim)))
            for _ in range(100):
                probe.params["router"] = rng.normal(size=(n, target.dim))
                assert_routed(route(probe, rng.normal(size=target.dim)))

    def test_k_of_n(self, target):
        rng = np.random.default_rng(2)
        for n, k in ((3, 3), (4, 3), (5, 1)):
            probe = routing_probe(target, rng.normal(size=(n, target.dim)), active_k=k)
            for _ in range(20):
                assert_routed(route(probe, rng.normal(size=target.dim)), k)


class TestDraftForward:
    def test_degenerate_single_expert(self, target):
        d = init_draft(DraftConfig(n_experts=1, active_k=1), target, seed=2)
        out = DraftSession(d).begin_round([3], [np.zeros(d.dim)])
        left, right = d.branch_logits(out)
        assert np.array_equal(left, right)
        assert np.array_equal(out.feature_top1, out.feature_top2)
        assert float(out.scores[0]) == 1.0

    def test_composition_oracle(self, draft, target):
        # hand-assemble the step from the raw parameters and compare
        p = draft.params
        cfg = draft.config
        prev = np.linspace(-1, 1, cfg.dim)
        token = 17
        out = DraftSession(draft).begin_round([token], [prev])

        from sdlab.kernels import attn_row, sinusoid_position
        e = target.emb[token] + sinusoid_position(1, cfg.dim)
        x = p["reduction"] @ np.concatenate((e, prev))
        a_in = layer_norm(x, p["ln1_g"], p["ln1_b"])
        q, k, v = (w @ a_in for w in np.split(p["wqkv"], 3))
        dh = cfg.dim // cfg.n_heads
        att = np.empty(cfg.dim)
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            att[sl] = attn_row(q[sl], k[None, sl], v[None, sl], 1)
        u = x + p["wo"] @ att
        v_in = layer_norm(u, p["ln2_g"], p["ln2_b"])
        s = softmax(p["router"] @ v_in)
        order = np.argsort(-s, kind="stable")
        i1, i2 = int(order[0]), int(order[1])
        e_out = {j: p["w2"][j] @ silu(p["w1"][j] @ v_in) for j in (i1, i2)}
        f_moe = u + sum(s[j] * e_out[j] for j in sorted((i1, i2)))
        assert np.max(np.abs(out.feature_moe - f_moe)) < 1e-12
        assert np.max(np.abs(out.feature_top1 - (e_out[i1] + u))) < 1e-12
        left, right = draft.branch_logits(out)
        assert np.max(np.abs(left - target.head @ (s[i1] * (e_out[i1] + u)))) < 1e-12
        assert np.max(np.abs(right - target.head @ (s[i2] * (e_out[i2] + u)))) < 1e-12

    def test_determinism(self, draft):
        prev = np.ones(draft.dim) * 0.3
        a = DraftSession(draft).begin_round([9], [prev])
        b = DraftSession(draft).begin_round([9], [prev])
        assert np.array_equal(a.feature_moe, b.feature_moe)
        assert np.array_equal(draft.branch_logits(a), draft.branch_logits(b))

    def test_branch_order_invariant(self, draft):
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = DraftSession(draft).begin_round([int(rng.integers(0, 64))],
                                                   [rng.normal(size=draft.dim)])
            assert_routed(out)

    def test_topk_equals_dense_when_k_is_n(self, target):
        d = init_draft(DraftConfig(n_experts=3, active_k=3), target, seed=4)
        out = DraftSession(d).begin_round([5], [np.zeros(d.dim)])
        p = d.params
        # recompute the dense mixture from scratch
        from sdlab.kernels import attn_row, sinusoid_position
        e = target.emb[5] + sinusoid_position(1, d.dim)
        x = p["reduction"] @ np.concatenate((e, np.zeros(d.dim)))
        a_in = layer_norm(x, p["ln1_g"], p["ln1_b"])
        q, k, v = (w @ a_in for w in np.split(p["wqkv"], 3))
        dh = d.dim // d.config.n_heads
        att = np.empty(d.dim)
        for h in range(d.config.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            att[sl] = attn_row(q[sl], k[None, sl], v[None, sl], 1)
        u = x + p["wo"] @ att
        v_in = layer_norm(u, p["ln2_g"], p["ln2_b"])
        s = softmax(p["router"] @ v_in)
        dense = u + sum(
            s[j] * (p["w2"][j] @ silu(p["w1"][j] @ v_in)) for j in range(3)
        )
        assert np.max(np.abs(out.feature_moe - dense)) < 1e-12

    def test_dimension_error(self, draft):
        with pytest.raises(ValueError, match="dimension mismatch"):
            DraftSession(draft).begin_round([1], [np.zeros(3)])
        with pytest.raises(ValueError, match="dimension mismatch"):  # ragged rows
            DraftSession(draft).begin_round([1, 2], [np.zeros(draft.dim), np.zeros(3)])


class TestContrastiveHeads:
    def test_contrast_disabled(self, target):
        d = init_draft(DraftConfig(), target, seed=1)
        d.params["alpha"] = np.array(0.0)
        out = DraftSession(d).begin_round([2], [np.zeros(d.dim)])
        logits_const = d.contrast_logits(out)
        assert np.max(np.abs(logits_const - d.head @ out.feature_top1)) < 1e-12

    def test_reads_beta_and_alpha_from_the_params(self, target):
        d = init_draft(DraftConfig(), target, seed=1)
        d.params["beta"], d.params["alpha"] = np.array(1.25), np.array(-0.5)
        out = DraftSession(d).begin_round([2], [np.zeros(d.dim)])
        want = d.head @ (1.25 * out.feature_top1 + 0.5 * out.feature_top2)
        assert np.array_equal(d.contrast_logits(out), want)

    def test_cancellation_with_identical_experts(self, target):
        d = init_draft(DraftConfig(n_experts=2, active_k=2), target, seed=5)
        d.params["w1"][1] = d.params["w1"][0]
        d.params["w2"][1] = d.params["w2"][0]
        out = DraftSession(d).begin_round([8], [np.zeros(d.dim)])
        assert np.array_equal(out.feature_top1, out.feature_top2)
        d.params["beta"], d.params["alpha"] = np.array(0.7), np.array(0.7)
        logits_const = d.contrast_logits(out)
        assert np.max(np.abs(logits_const)) < 1e-12  # bias-free head maps zero to zero

    def test_head_linearity(self, draft):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, draft.dim))
        beta, alpha = 1.3, 0.4
        lhs = draft.head @ (beta * a - alpha * b)
        rhs = beta * (draft.head @ a) - alpha * (draft.head @ b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_requires_two_experts(self, target):
        d = init_draft(DraftConfig(n_experts=1, active_k=1), target, seed=7)
        out = DraftSession(d).begin_round([1], [np.zeros(d.dim)])
        with pytest.raises(ValueError, match="two active experts"):
            d.contrast_logits(out)


def parallel_final_step(draft, step, depth, gamma, temperature=1.0):
    """Distributions for the last two tree depths out of one draft pass: the
    mixture head covers depth gamma-1 and the contrast head depth gamma."""
    if depth != gamma - 1:
        raise ValueError(f"parallel final step invoked at depth {depth}, expected {gamma - 1}")
    return (softmax(draft.mixture_logits(step), temperature),
            softmax(draft.contrast_logits(step), temperature))


class TestParallelFinalStep:
    def test_smallest_gamma(self, draft):
        out = DraftSession(draft).begin_round([4], [np.zeros(draft.dim)])
        pm, pc = parallel_final_step(draft, out, depth=1, gamma=2)
        for dist in (pm, pc):
            assert abs(dist.sum() - 1.0) < 1e-9
            assert np.all(dist >= 0)

    def test_wrong_depth_errors(self, draft):
        out = DraftSession(draft).begin_round([4], [np.zeros(draft.dim)])
        with pytest.raises(ValueError, match="parallel final step"):
            parallel_final_step(draft, out, depth=2, gamma=2)


class TestCheckpoint:
    def test_round_trip(self, draft, target, tmp_path):
        path = str(tmp_path / "draft.bin")
        save_draft(draft, path)
        loaded = load_draft(path, target)
        for name, arr in draft.params.items():
            assert np.array_equal(np.asarray(loaded.params[name]), np.asarray(arr)), name
        assert loaded.config == draft.config

    def test_round_trip_other_sizes(self, target, tmp_path):
        draft = init_draft(DraftConfig(n_experts=3, active_k=2, expert_hidden=20, n_heads=4),
                           target, seed=5)
        path = str(tmp_path / "draft.bin")
        save_draft(draft, path)
        loaded = load_draft(path, target)
        assert loaded.config == draft.config
        for name, arr in draft.params.items():
            assert np.array_equal(np.asarray(loaded.params[name]), np.asarray(arr)), name

    @pytest.mark.parametrize("field", ["vocab", "dim", "n_heads", "n_experts", "expert_hidden"])
    def test_non_positive_sizes_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            DraftConfig(**{field: 0})

    def test_trailing_scalars(self, draft, target, tmp_path):
        draft2 = init_draft(DraftConfig(), target, seed=9)
        draft2.params["beta"] = np.array(2.5)
        draft2.params["alpha"] = np.array(-0.75)
        path = str(tmp_path / "d2.bin")
        save_draft(draft2, path)
        loaded = load_draft(path, target)
        assert float(loaded.params["beta"]) == 2.5
        assert float(loaded.params["alpha"]) == -0.75

    def test_bad_magic(self, target, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"YYYY" + b"\0" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_draft(str(path), target)


def stream(target, draft):
    """What a decode reads of both models: sampled chain and jakiro_full
    streams over two prompts, and the bytes of one draft step's features
    and heads."""
    out = []
    for method in ("chain", "jakiro_full"):
        cfg = RunConfig(method=method, temperature=1.0, gamma=3, max_new=10, n_prompts=2, seed=4)
        for i, prompt in enumerate(make_prompts(cfg)):
            out.append(decode_prompt(target, draft, cfg, prompt, np.random.default_rng(i))["tokens"])
    step = DraftSession(draft).begin_round([5], [np.linspace(-1, 1, draft.dim)])
    for a in (step.feature_moe, step.feature_top1, step.feature_top2, draft.branch_logits(step),
              draft.mixture_logits(step), draft.contrast_logits(step)):
        out.append(a.tobytes())
    return out


class TestFreshWeights:
    """The row kernels read the parameters themselves: after any change, the
    next decode equals one with a freshly loaded copy of the same parameters."""

    @pytest.mark.parametrize("change", ["replace", "in_place", "train_step"])
    def test_draft_param_change_reaches_the_next_session(self, target, tmp_path, change):
        draft = init_draft(DraftConfig(n_experts=3, active_k=2), target, seed=3)
        before = stream(target, draft)
        p, d = draft.params, draft.dim
        if change == "replace":
            p["wqkv"] = np.concatenate((p["wqkv"][:d], p["wqkv"][d : 2 * d] * 1.5, p["wqkv"][2 * d :]))
        elif change == "in_place":
            p["w1"][1, 2, 3] += 0.7
            p["wqkv"][0, 1] -= 0.4
        else:
            batch = generate_distillation_corpus(target, 8, 10, seed=1)
            train_step(draft, batch, AdamState.init(draft), TrainConfig(lr=1e-2))
        after = stream(target, draft)
        save_draft(draft, str(tmp_path / "d.bin"))
        assert after == stream(target, load_draft(str(tmp_path / "d.bin"), target))
        assert after != before

    def test_target_wv_edit_in_place(self, tmp_path):
        target = init_target(TargetConfig(), seed=0)
        draft = init_draft(DraftConfig(), target, seed=1)
        before = stream(target, draft)
        target.layers[1].wqkv[2 * target.dim + 3, 4] += 0.5  # wv[3, 4]
        after = stream(target, draft)
        save_target(target, str(tmp_path / "t.bin"))
        fresh = load_target(str(tmp_path / "t.bin"))
        # the draft shares the target's embedding and head, which the edit leaves alone
        assert after == stream(fresh, draft)
        assert after != before
