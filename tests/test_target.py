"""Target model tests: cached decoding, tree forwarding, losslessness plumbing."""

import struct

import numpy as np
import pytest

from sdlab.kernels import inverse_cdf_sample, softmax
from sdlab.target import KvCache, TargetConfig, init_target, load_target, save_target

# first pinned run of the deterministic model (seed 0, empty cache, token 0)
SNAPSHOT_LOGITS_8 = [
    -0.8295175430967993, -0.319033717783469, 0.5204421765228197,
    -0.6883221848763128, -1.117976313147798, 0.14025482061447292,
    -1.9479814728795213, -0.04558120226509471,
]
SNAPSHOT_FEATURE_4 = [
    0.6837003598089362, 0.9729398415394225, -0.760769176661899, 1.465657172264549,
]


def forward_tree(model, cache, tokens, parents, positions):
    """The logits of a tentative tree forward, without its features."""
    return model.forward_tree_kv(cache, tokens, parents, positions)[0]


def clone_cache(cache):
    """A separate KvCache holding the same committed rows."""
    c = KvCache(cache.n_layers, cache.dim)
    for l in range(cache.n_layers):
        c.scratch(l, 0, cache._k[l][: cache.length], cache._v[l][: cache.length])
    c.commit_rows(range(cache.length))
    return c


def cache_bytes(cache):
    """The length and every committed key and value row, as bytes."""
    parts = [struct.pack("<q", cache.length)]
    for l in range(cache.n_layers):
        parts += [cache._k[l][: cache.length].tobytes(), cache._v[l][: cache.length].tobytes()]
    return b"".join(parts)


@pytest.fixture(scope="module")
def model():
    return init_target(TargetConfig(), seed=0)


class TestForwardCached:
    def test_regression_snapshot(self, model):
        cache = model.new_cache()
        out = model.forward_cached(cache, 0)
        assert np.allclose(out.logits[:8], SNAPSHOT_LOGITS_8, atol=0, rtol=0)
        assert np.allclose(out.feature[:4], SNAPSHOT_FEATURE_4, atol=0, rtol=0)

    def test_determinism(self, model):
        a = model.forward_cached(model.new_cache(), 3)
        b = model.forward_cached(model.new_cache(), 3)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.feature, b.feature)

    def test_feature_head_consistency(self, model):
        cache = model.new_cache()
        for t in (5, 9, 2):
            out = model.forward_cached(cache, t)
            assert np.max(np.abs(model.head @ out.feature - out.logits)) < 1e-9

    def test_token_range_error(self, model):
        with pytest.raises(ValueError, match="out of vocab range"):
            model.forward_cached(model.new_cache(), model.vocab)

    def test_cache_grows(self, model):
        cache = model.new_cache()
        for i, t in enumerate([1, 2, 3]):
            model.forward_cached(cache, t)
            assert cache.length == i + 1


class TestForwardTree:
    def test_chain_equals_sequential(self, model):
        prefix = [7, 1, 22]
        cache = model.new_cache()
        for t in prefix:
            model.forward_cached(cache, t)
        chain = [4, 9, 16]
        seq_cache = clone_cache(cache)
        seq_outs = [model.forward_cached(seq_cache, t) for t in chain]
        tree_logits = forward_tree(model, cache, chain, [-1, 0, 1], [0, 1, 2])
        for a, b in zip(seq_outs, tree_logits):
            assert np.max(np.abs(a.logits - b)) < 1e-9
            # this implementation routes both paths through one step kernel: exact
            assert np.array_equal(a.logits, b)

    def test_sibling_branches_match_chain_replay(self, model):
        prefix = [11, 3]
        cache = model.new_cache()
        for t in prefix:
            model.forward_cached(cache, t)
        # two branches sharing a parent: parent 5, children 8 and 40
        logits = forward_tree(model, cache, [5, 8, 40], [-1, 0, 0], [0, 1, 1])
        for branch_token, branch_logits in ((8, logits[1]), (40, logits[2])):
            replay = clone_cache(cache)
            o5 = model.forward_cached(replay, 5)
            ob = model.forward_cached(replay, branch_token)
            assert np.max(np.abs(ob.logits - branch_logits)) < 1e-9
            assert np.max(np.abs(o5.logits - logits[0])) < 1e-9

    def test_empty_tokens(self, model):
        cache = model.new_cache()
        model.forward_cached(cache, 1)
        assert forward_tree(model, cache, [], [], []).shape == (0, model.vocab)

    def test_cache_not_mutated(self, model):
        cache = model.new_cache()
        for t in [2, 4, 6]:
            model.forward_cached(cache, t)
        before = cache_bytes(cache)
        forward_tree(model, cache, [1, 2], [-1, 0], [0, 1])
        assert cache_bytes(cache) == before

    def test_layout_errors(self, model):
        cache = model.new_cache()
        model.forward_cached(cache, 1)
        with pytest.raises(ValueError, match="differ in length"):
            forward_tree(model, cache, [1, 2], [-1], [0, 1])
        with pytest.raises(ValueError, match="parent must be an earlier row"):
            forward_tree(model, cache, [1, 2], [1, -1], [1, 0])  # row 0 under row 1


class TestDecode:
    def test_greedy_determinism(self, model):
        a = model.autoregressive_decode([1, 2, 3], 10)
        b = model.autoregressive_decode([1, 2, 3], 10)
        assert a == b
        c = model.autoregressive_decode([1, 2, 3], 10, temperature=0.0, rng_seed=999)
        assert a == c  # greedy is rng-independent

    @pytest.mark.parametrize("temperature", [0.0, 0.6])
    def test_no_step_after_the_last_token(self, model, monkeypatch, temperature):
        # reference: one step after every emitted token, the last one included
        rng = np.random.Generator(np.random.PCG64(5))
        cache = model.new_cache()
        logits = model.prefill(cache, [1, 2, 3])[0][-1]
        expected = []
        for _ in range(12):
            if temperature == 0.0:
                expected.append(int(np.argmax(logits)))
            else:
                expected.append(inverse_cdf_sample(softmax(logits, temperature), rng.random()))
            logits = model.forward_cached(cache, expected[-1]).logits
        steps = []
        step = model.forward_cached
        monkeypatch.setattr(model, "forward_cached", lambda c, t: steps.append(t) or step(c, t))
        tokens = model.autoregressive_decode([1, 2, 3], 12, temperature, rng_seed=5)
        assert tokens == expected
        assert steps == expected[:-1]

    def test_max_new_zero(self, model):
        assert model.autoregressive_decode([1], 0) == []

    def test_prompt_required(self, model):
        with pytest.raises(ValueError, match="non-empty"):
            model.autoregressive_decode([], 5)

    def test_nan_temperature_is_rejected_before_the_prefill(self, model, monkeypatch):
        caches, prefills = [], []
        new_cache, prefill = model.new_cache, model.prefill
        monkeypatch.setattr(model, "new_cache", lambda: caches.append(new_cache()) or caches[-1])
        monkeypatch.setattr(model, "prefill", lambda c, t: prefills.append(t) or prefill(c, t))
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            model.autoregressive_decode([1, 2, 3], 4, temperature=float("nan"))
        assert prefills == [] and all(c.length == 0 for c in caches)

    def test_a_temperature_that_overflows_the_logits_raises(self, model):
        # before, T=1e-310 gave NaN probabilities and emitted token 0 every step
        with pytest.raises(ValueError, match="temperature 1e-310 overflows"):
            model.autoregressive_decode([1, 2, 3], 4, temperature=1e-310)

    def test_sampled_first_token_frequencies(self):
        # 10k draws of the first continuation vs the exact softmax, chi-square
        scipy_stats = pytest.importorskip("scipy.stats")
        small = init_target(TargetConfig(vocab=8, dim=16, n_layers=2, n_heads=2), seed=0)
        cache = small.new_cache()
        out = None
        for t in [1, 2, 3]:
            out = small.forward_cached(cache, t)
        expected = softmax(out.logits, 1.0)
        n = 10_000
        counts = np.zeros(8)
        for i in range(n):
            tok = small.autoregressive_decode([1, 2, 3], 1, temperature=1.0, rng_seed=i)[0]
            counts[tok] += 1
        stat = float(np.sum((counts - n * expected) ** 2 / (n * expected)))
        pvalue = 1.0 - scipy_stats.chi2.cdf(stat, df=7)
        assert pvalue > 0.001


class TestCheckpoint:
    def test_round_trip(self, model, tmp_path):
        path = str(tmp_path / "target.bin")
        save_target(model, path)
        loaded = load_target(path)
        assert np.array_equal(loaded.emb, model.emb)
        assert np.array_equal(loaded.head, model.head)
        assert loaded.autoregressive_decode([5, 6], 6) == model.autoregressive_decode([5, 6], 6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(ValueError, match="bad magic"):
            load_target(str(path))

    def test_round_trip_other_sizes(self, tmp_path):
        model = init_target(TargetConfig(vocab=11, dim=12, n_layers=3, n_heads=3), seed=4)
        path = str(tmp_path / "target.bin")
        save_target(model, path)
        loaded = load_target(path)
        assert loaded.config == model.config
        assert loaded.autoregressive_decode([5, 6], 6) == model.autoregressive_decode([5, 6], 6)

    @pytest.mark.parametrize("field", ["vocab", "dim", "n_layers", "n_heads"])
    def test_non_positive_sizes_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            TargetConfig(**{field: 0})

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"SDFM" + b"\1\0")
        with pytest.raises(ValueError, match="header truncated"):
            load_target(str(path))

    def test_truncated(self, model, tmp_path):
        path = tmp_path / "trunc.bin"
        save_target(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="length mismatch"):
            load_target(str(path))
