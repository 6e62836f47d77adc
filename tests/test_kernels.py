"""Unit and property tests for the numeric primitives."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdlab.kernels as kernels
from sdlab.kernels import LOG_CLAMP, attn_row, inverse_cdf_rows, inverse_cdf_sample, layer_norm, softmax


# Masked attention, smooth L1 and cross entropy as the library defined them
# before the models and the trainer computed them inline; kept here so their
# definitions stay pinned by the tests below.

def masked_attention(q, k, v, mask) -> np.ndarray:
    """Row-wise masked attention: row i attends only to positions j with mask[i][j].

    mask must allow the diagonal; a row with no allowed positions is an error.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    n = q.shape[0]
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be matrices")
    if not (k.shape[0] == n and v.shape[0] == n and m.shape == (n, n)):
        raise ValueError("dimension mismatch between q, k, v and mask")
    if q.shape[1] != k.shape[1]:
        raise ValueError("q and k width mismatch")
    if not np.all(np.diagonal(m)):
        raise ValueError("mask must allow self-attention on the diagonal")
    out = np.empty((n, v.shape[1]), dtype=np.float64)
    for i in range(n):
        idx = np.flatnonzero(m[i])
        if idx.size == 0:
            raise ValueError(f"row {i} has no allowed positions")
        out[i] = attn_row(q[i], k[idx], v[idx], idx.size)
    return out


def smooth_l1(pred, target, beta: float = 1.0) -> float:
    """Mean-reduced smooth L1: quadratic inside |diff| < beta, linear outside."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError("length mismatch")
    if not beta > 0.0:
        raise ValueError("beta must be > 0")
    d = np.abs(p - t)
    per = np.where(d < beta, 0.5 * d * d / beta, d - 0.5 * beta)
    return float(np.mean(per))


def cross_entropy(p_target, q_pred) -> float:
    """Cross entropy -sum(p * log q) with q clamped below at LOG_CLAMP."""
    p = np.asarray(p_target, dtype=np.float64)
    q = np.asarray(q_pred, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    return float(-np.sum(p * np.log(np.maximum(q, LOG_CLAMP))))

# independent high-precision values (Decimal, 60 digits) frozen before the build
SOFTMAX_123 = [
    0.09003057317038045799802210148449179786793086491146,
    0.24472847105479765247295961834076279719930007483797,
    0.66524095577482188952901828017474540493276906025056,
]
LN2 = 0.69314718055994530941723212145817656807550013436026
LN4 = 1.38629436111989061883446424291635313615100026872051


finite_vecs = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=16
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=0, rtol=1e-15)

    def test_saturation(self):
        p = softmax([1000.0, 0.0, 0.0])
        assert abs(p[0] - 1.0) < 1e-9
        assert p[1] < 1e-9 and p[2] < 1e-9

    def test_high_precision_oracle(self):
        p = softmax([1.0, 2.0, 3.0])
        assert np.max(np.abs(p - np.array(SOFTMAX_123))) < 1e-15

    def test_temperature_preserves_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=8)
            for t in (0.1, 0.5, 1.0, 3.0, 100.0):
                assert np.argmax(softmax(x, t)) == np.argmax(x)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            softmax([])
        with pytest.raises(ValueError, match="non-finite logit"):
            softmax([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite logit"):
            softmax([1.0, np.inf])
        with pytest.raises(ValueError):
            softmax([1.0], temperature=0.0)

    @given(finite_vecs, st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, xs, t):
        p = softmax(xs, t)
        assert abs(float(np.sum(p)) - 1.0) < 1e-9
        assert np.all(p >= 0)

    @given(finite_vecs)
    @settings(max_examples=200, deadline=None)
    def test_argmax_preserved(self, xs):
        # sub-ulp logit gaps vanish under exp: require exact ties (lowest index
        # wins on both sides) or a representable gap
        x = np.asarray(xs)
        top = int(np.argmax(x))
        others = np.delete(x, top)
        assume(others.size == 0 or np.all((x[top] - others > 1e-9) | (others == x[top])))
        assert np.argmax(softmax(xs)) == top

    def test_monotone_in_logits(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=6)
        p = softmax(x)
        for i in range(6):
            y = x.copy()
            y[i] += 0.5
            assert softmax(y)[i] > p[i]

    def test_matches_reference(self):
        # the wrapper-free reductions and the skipped division by 1.0 leave every bit
        def ref(logits, temperature=1.0):
            z = np.asarray(logits, dtype=np.float64)
            if not np.all(np.isfinite(z)):
                raise ValueError("non-finite logit")
            z = z / temperature
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        rng = np.random.default_rng(10)
        for shape in [(1,), (7,), (64,), (16, 2, 13), (61, 64)]:
            x = rng.normal(size=shape) * rng.uniform(0.1, 30.0)
            for t in (1.0, 0.6):
                assert np.array_equal(softmax(x, t), ref(x, t))
                assert np.array_equal(softmax(list(x.ravel()), t), ref(x.ravel(), t))


def brute_force_attention(q, k, v, mask):
    n = q.shape[0]
    out = np.zeros_like(v, dtype=np.float64)
    scale = 1.0 / np.sqrt(k.shape[1])
    for i in range(n):
        idx = [j for j in range(n) if mask[i][j]]
        scores = np.array([float(q[i] @ k[j]) * scale for j in idx])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        for wj, j in zip(w, idx):
            out[i] += wj * v[j]
    return out


class TestMaskedAttention:
    def test_identity_mask_returns_values(self):
        rng = np.random.default_rng(2)
        q, k, v = rng.normal(size=(3, 4, 5)), rng.normal(size=(4, 5)), rng.normal(size=(4, 3))
        q = rng.normal(size=(4, 5))
        out = masked_attention(q, k, v, np.eye(4, dtype=bool))
        assert np.allclose(out, v, atol=1e-12)

    def test_uniform_weights_with_equal_keys(self):
        n = 5
        q = np.ones((n, 3))
        k = np.ones((n, 3))  # all keys equal -> uniform weights over allowed set
        v = np.arange(n * 2, dtype=float).reshape(n, 2)
        mask = np.tril(np.ones((n, n), dtype=bool))
        out = masked_attention(q, k, v, mask)
        for i in range(n):
            assert np.allclose(out[i], v[: i + 1].mean(axis=0), atol=1e-12)

    def test_random_case_matches_brute_force(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(4, 6))
        v = rng.normal(size=(4, 3))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        mask[2, 0] = False
        out = masked_attention(q, k, v, mask)
        assert np.max(np.abs(out - brute_force_attention(q, k, v, mask))) < 1e-12

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(5, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 2))
        mask = np.tril(np.ones((5, 5), dtype=bool))
        out = masked_attention(q, k, v, mask)
        for i in range(5):
            lo = v[: i + 1].min(axis=0) - 1e-12
            hi = v[: i + 1].max(axis=0) + 1e-12
            assert np.all(out[i] >= lo) and np.all(out[i] <= hi)

    def test_prefix_consistency(self):
        # row i under a causal mask equals full attention over the prefix alone
        rng = np.random.default_rng(5)
        n = 6
        q = rng.normal(size=(n, 4))
        k = rng.normal(size=(n, 4))
        v = rng.normal(size=(n, 3))
        full = masked_attention(q, k, v, np.tril(np.ones((n, n), dtype=bool)))
        for i in range(1, n):
            m = i + 1
            sub = masked_attention(q[:m], k[:m], v[:m], np.tril(np.ones((m, m), dtype=bool)))
            assert np.allclose(full[i], sub[i], atol=1e-12)

    def test_errors(self):
        q = np.zeros((3, 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            masked_attention(q, np.zeros((4, 2)), np.zeros((3, 2)), np.eye(3, dtype=bool))
        bad = np.eye(3, dtype=bool)
        bad[1, 1] = False
        with pytest.raises(ValueError, match="diagonal"):
            masked_attention(q, np.zeros((3, 2)), np.zeros((3, 2)), bad)


class TestSmoothL1:
    def test_identity_is_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert smooth_l1(x, x) == 0.0

    def test_quadratic_boundary(self):
        assert abs(smooth_l1([1.0], [0.0], beta=1.0) - 0.5) < 1e-15

    def test_linear_region_oracle(self):
        # piecewise definition evaluated by hand: |3| - 0.5*1 = 2.5
        assert abs(smooth_l1([3.0], [0.0], beta=1.0) - 2.5) < 1e-15

    def test_mean_reduction(self):
        val = smooth_l1([3.0, 0.0], [0.0, 0.0], beta=1.0)
        assert abs(val - 2.5 / 2) < 1e-15

    def test_errors_and_nonnegativity(self):
        with pytest.raises(ValueError, match="length mismatch"):
            smooth_l1([1.0, 2.0], [1.0])
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.normal(size=(2, 7))
            assert smooth_l1(a, b) >= 0.0


class TestCrossEntropy:
    def test_matching_one_hot(self):
        p = np.array([0.0, 1.0, 0.0])
        assert cross_entropy(p, p) <= 1e-9

    def test_uniform_entropy(self):
        u = np.full(4, 0.25)
        assert abs(cross_entropy(u, u) - LN4) < 1e-12

    def test_direct_evaluation_oracle(self):
        assert abs(cross_entropy([0.7, 0.3], [0.5, 0.5]) - LN2) < 1e-12

    def test_minimized_at_match(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert cross_entropy(p, q) >= cross_entropy(p, p) - 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cross_entropy([1.0], [0.5, 0.5])

    def test_clamp_avoids_inf(self):
        val = cross_entropy([1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(val)


def test_layer_norm_basics():
    rng = np.random.default_rng(8)
    x = rng.normal(size=10)
    y = layer_norm(x, np.ones(10), np.zeros(10))
    assert abs(y.mean()) < 1e-9
    assert abs(y.std() - 1.0) < 1e-3


def test_layer_norm_matches_mean_reference():
    def ref(x, g, b, eps=1e-6):
        mu = np.mean(x, axis=-1, keepdims=True)
        var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + eps) + b

    rng = np.random.default_rng(9)
    for shape in [(32,), (1, 32), (7, 32), (300, 32), (5, 3), (4, 64), (20_000, 32)]:
        x = rng.normal(size=shape) * rng.uniform(0.01, 100.0)
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        assert np.array_equal(layer_norm(x, g, b), ref(x, g, b))


def random_rows(rng, n, widths):
    """n random rows of the given widths at scales 1e-2 to 1e2, each with an
    offset of up to ten times its scale, grouped by width."""
    rows = {}
    for w in widths:
        scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(n, 1))
        rows[w] = (rng.normal(size=(n, w)) + 10.0 * rng.uniform(-1.0, 1.0, size=(n, 1))) * scale
    return rows


def test_layer_norm_one_row_branch_matches_row_formula():
    # a one-row input takes the Python-float branch; it must give the
    # row-wise formula's bits, alone and as a row of a multi-row call
    def ref(x, g, b, eps=1e-6):
        mu = np.mean(x, axis=-1, keepdims=True)
        var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + eps) + b

    rng = np.random.default_rng(16)
    for w, rows in random_rows(rng, 5000, (32, 5)).items():
        g, b = rng.normal(size=w), rng.normal(size=w)
        batch = layer_norm(rows, g, b)
        for i, x in enumerate(rows):
            got = layer_norm(x, g, b)
            assert got.shape == (w,) and np.array_equal(got, ref(x, g, b))
            got = layer_norm(x[None], g, b)
            assert got.shape == (1, w) and np.array_equal(got, ref(x[None], g, b))
            assert np.array_equal(got[0], batch[i])


def test_softmax_one_row_branch_matches_row_formula():
    def ref(z, t):
        z = z / t
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    rng = np.random.default_rng(17)
    for w, rows in random_rows(rng, 5000, (64, 2)).items():
        batch = {t: softmax(rows, t) for t in (1.0, 0.6)}
        for i, z in enumerate(rows):
            t = (1.0, 0.6)[i % 2]
            got = softmax(z, t)
            assert got.shape == (w,) and np.array_equal(got, ref(z, t))
            got = softmax(z[None], t)
            assert got.shape == (1, w) and np.array_equal(got, ref(z[None], t))
            assert np.array_equal(got[0], batch[t][i])
    # a (1, 1, V) input is one row too
    z = rng.normal(size=(1, 1, 64))
    assert np.array_equal(softmax(z), ref(z, 1.0))


@pytest.mark.parametrize("shape", [(9,), (1, 9), (3, 9)])
def test_softmax_checks_every_logit_in_order(shape):
    rng = np.random.default_rng(18)
    for bad in (np.nan, np.inf, -np.inf):
        for pos in range(int(np.prod(shape))):
            z = rng.normal(size=shape)
            z.flat[pos] = bad
            with pytest.raises(ValueError, match="non-finite logit"):
                softmax(z)
            with pytest.raises(ValueError, match="non-finite logit"):  # before the temperature
                softmax(z, 0.0)
    with pytest.raises(ValueError, match="temperature must be > 0"):
        softmax(rng.normal(size=shape), -1.0)
    # logits whose max is 0 keep a finite row, a -0.0 min too
    assert np.array_equal(softmax(np.array([-0.0, -0.0])), [0.5, 0.5])


@pytest.mark.parametrize("shape", [(2,), (3, 9)])
def test_softmax_raises_when_the_temperature_overflows_the_logits(shape):
    # 1 / 1e-310 overflows a float: the scaled logits would reach +-inf and
    # exp would give NaN, so the row max is checked after the division
    z = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    if len(shape) == 1:
        assert np.array_equal(z, [1.0, 2.0])
    for logits in (z, -z):  # a row max of +inf, and one of -inf
        with pytest.raises(ValueError, match="temperature 1e-310 overflows"):
            softmax(logits, 1e-310)
    # the error order: a non-finite logit, then temperature > 0, then overflow
    bad = z.copy()
    bad.flat[-1] = np.nan
    with pytest.raises(ValueError, match="non-finite logit"):
        softmax(bad, 1e-310)
    with pytest.raises(ValueError, match="temperature must be > 0"):
        softmax(z, -1e-310)
    # a finite row max keeps its row well defined: the rest underflow to 0
    y = np.zeros(shape)
    y[..., 1:] = -1.0
    want = np.zeros(shape)
    want[..., 0] = 1.0
    assert np.array_equal(softmax(y, 1e-310), want)


@pytest.mark.parametrize("shape", [(0, 8), (5, 8), (4, 2, 16), "strided"])
def test_multi_row_kernels_write_only_their_own_output(shape):
    # the multi-row layer_norm and softmax reuse their temporaries in place:
    # their inputs stay as they were and their outputs are fresh arrays
    rng = np.random.default_rng(23)
    x = rng.normal(size=(8, 5)).T if shape == "strided" else rng.normal(size=shape) * 3.0
    g, b = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
    before = [a.copy() for a in (x, g, b)]
    y = layer_norm(x, g, b)
    assert y.shape == x.shape
    for a, was in zip((x, g, b), before):
        assert np.array_equal(a, was) and not np.shares_memory(y, a)
    if x.size == 0:
        with pytest.raises(ValueError, match="empty input"):
            softmax(x)
        return
    for t in (1.0, 0.6):
        p = softmax(x, t)
        assert p.shape == x.shape
        assert np.array_equal(x, before[0]) and not np.shares_memory(p, x)
        # and the bits of the out-of-place formula
        z = x / t
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        assert np.array_equal(p, e / np.sum(e, axis=-1, keepdims=True))


def test_attention_past_the_initial_column_table_matches_the_grown_table(monkeypatch):
    # a mask of per-row lengths reads its column numbers from a table that
    # doubles when a context runs past its end, like the ones operand
    monkeypatch.setattr(kernels, "_ONES", np.ones((256, 2)))
    monkeypatch.setattr(kernels, "_COLUMNS", np.arange(256))
    rng = np.random.default_rng(24)
    w = 300  # a multiple of PAD past 256
    q = rng.normal(size=(3, 2, 8))
    keys, values = rng.normal(size=(2, 1, 2, w, 8))
    n = np.array([[w], [257], [5]])
    first = attn_row(q, keys, values, n)
    assert kernels._COLUMNS.shape[0] >= w and kernels._ONES.shape[0] >= w
    assert np.array_equal(attn_row(q, keys, values, n), first)
    for i in range(3):  # each row as it is alone, with an int length
        assert np.array_equal(attn_row(q[i], keys[0], values[0], int(n[i, 0])), first[i])


def ref_inverse_cdf_sample(probs, u):
    """The left-to-right scan that inverse_cdf_sample replaced."""
    c = 0.0
    last = probs.shape[0] - 1
    for i in range(probs.shape[0]):
        c += float(probs[i])
        if u < c:
            return i
    return last


class TestInverseCdf:
    def check(self, probs, us):
        want = [[ref_inverse_cdf_sample(p, u) for u in row] for p, row in zip(probs, us)]
        got = [[inverse_cdf_sample(p, u) for u in row] for p, row in zip(probs, us)]
        assert got == want
        assert inverse_cdf_rows(np.asarray(probs), np.asarray(us)).tolist() == want

    def test_zero_entries(self):
        p = np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0])
        self.check([p], [[0.0, 0.25, 0.2499999, 0.5, 0.75, 0.7500001, 0.9999]])
        self.check([np.array([0.0, 0.0, 1.0])], [[0.0, 0.5]])

    def test_u_zero(self):
        self.check([np.array([0.5, 0.5])], [[0.0]])
        self.check([np.array([1.0])], [[0.0]])
        self.check([np.array([0.0, 0.0, 0.3, 0.7])], [[0.0]])

    def test_u_at_a_total_one_step_below_one(self):
        u = np.nextafter(1.0, 0.0)
        p = np.full(10, 0.1)
        assert np.cumsum(p)[-1] == u  # the running sum ends one rounding step below 1
        self.check([p], [[u]])
        assert inverse_cdf_sample(p, u) == 9
        p0 = np.append(p, 0.0)  # the clamp lands on a zero-probability last entry
        self.check([p0], [[u]])
        assert inverse_cdf_sample(p0, u) == 10

    def test_random_rows(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.full(12, 0.3), size=10_000)
        probs[rng.random(probs.shape) < 0.2] = 0.0  # exact zeros, rows no longer sum to 1
        self.check(probs, rng.random((10_000, 3)))


@pytest.mark.parametrize("dh", [16, 5])
def test_one_query_row_branch_is_its_row_of_the_multi_row_path(monkeypatch, dh):
    # (queries, dh) with an int n, one row of every head, takes the one-row
    # branch: the same row as the middle one of a multi-row call with a
    # per-row n, and as the int-n path, below, at and just past a PAD
    # boundary and past the 256 columns the ones operand starts with
    monkeypatch.setattr(kernels, "_ONES", np.ones((256, 2)))
    monkeypatch.setattr(kernels, "_COLUMNS", np.arange(256))
    rng = np.random.default_rng(26)
    heads = 3
    for n in (1, 3, 4, 5, 7, 8, 9, 255, 256, 257, 300):
        w = kernels.padded(n)
        qs = rng.normal(size=(3, heads, dh))
        keys, values = rng.normal(size=(2, 3, heads, w, dh))
        got = attn_row(qs[1], keys[1], values[1], n)
        assert got.shape == (heads, dh)
        many = attn_row(qs, keys, values, np.array([[w], [n], [max(1, n - 5)]]))
        assert np.array_equal(got, many[1]), n
        assert np.array_equal(got, attn_row(qs[1:2], keys[1:2], values[1:2], n)[0]), n
    assert kernels._ONES.shape[0] >= 300


def test_one_query_row_branch_checks_every_head():
    # each head's max is checked: a NaN or +inf score, or a head whose
    # every score is -inf, raises in the branch as in the multi-row path
    rng = np.random.default_rng(27)
    q = rng.normal(size=(2, 4))
    q[:, 0] = 1.0
    for head, col, bad in ((0, 2, np.nan), (1, 0, np.inf), (1, 3, np.nan)):
        keys, values = rng.normal(size=(2, 2, 8, 4))
        keys[head, col, 0] = bad
        for n in (6, np.array([6, 6])):
            with pytest.raises(ValueError, match="^non-finite attention score$"):
                attn_row(q, keys, values, n)
    keys, values = rng.normal(size=(2, 2, 8, 4))
    keys[1] = -np.inf
    qq = np.abs(q)
    with pytest.raises(ValueError, match="^non-finite attention score$"):
        attn_row(qq, keys, values, 6)
    with pytest.raises(ValueError, match="^non-finite attention score$"):
        attn_row(qq[None], keys[None], values[None], np.array([[6]]))


@pytest.mark.parametrize("shape", [(32,), (1, 32), (1, 1, 7), (3, 32)])
def test_layer_norm_and_silu_leave_their_input(shape):
    # the one-row layer_norm and silu write each op over a temporary of
    # their own: the input is unchanged and the bits are the formula's
    rng = np.random.default_rng(28)
    x = rng.normal(size=shape) * 4.0
    g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    before = x.copy()
    y = layer_norm(x, g, b)
    mu = np.mean(x, axis=-1, keepdims=True)
    d = x - mu
    want = g * d / np.sqrt(np.mean(d * d, axis=-1, keepdims=True) + kernels.LN_EPS) + b
    assert y.shape == shape and np.array_equal(y, want)
    s = kernels.silu(x)
    assert s.shape == shape and np.array_equal(s, x / (1.0 + np.exp(-x)))
    assert np.array_equal(x, before)
    assert not np.shares_memory(y, x) and not np.shares_memory(s, x)
