"""Lossless verification of draft trees against the target model.

One target forward pass scores the pending token plus every tree node.  The
greedy walk accepts children that match the target argmax exactly, so the
emitted stream equals vanilla greedy decoding bit for bit.  The sampling walk
implements recursive residual speculative sampling: siblings are tried in
tree order, each rejection updates the working distribution to
norm(max(0, p - q_child)), and full rejection resamples from the final
residual.  Uniform draws are consumed in documented order (children in tree
order, then the residual or bonus draw) so runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import check_prob_vec, inverse_cdf_sample, softmax
from .target import KvCache, TargetModel, TreeKv
from .tree import DraftTree, build_mask


@dataclass
class VerifyOutcome:
    accepted: list[int]
    final_token: int
    accepted_count: int
    # plumbing for the decode session: which tentative rows to commit and the
    # target features of (pending token, accepted nodes), in commit order
    commit_indices: list[int] = field(default_factory=list)
    tree_kv: TreeKv | None = None
    committed_features: list[np.ndarray] = field(default_factory=list)


def accept_token(p: np.ndarray, q: np.ndarray, token: int, u: float) -> bool:
    """Speculative acceptance test: accept iff u < min(1, p(token)/q(token))."""
    check_prob_vec(p, "p")
    check_prob_vec(q, "q")
    qt = float(q[token])
    if qt <= 0.0:
        raise ValueError("token not proposed by draft")
    ratio = min(1.0, float(p[token]) / qt)
    return u < ratio


def residual_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized positive part of (p - q); empty residual is an error."""
    r = np.maximum(0.0, p - q)
    s = float(np.sum(r))
    if s <= 0.0:
        raise ValueError("empty residual")
    return r / s


def resample_residual(p: np.ndarray, q: np.ndarray, u: float) -> int:
    """Replacement token drawn from norm(max(0, p - q)) by inverse CDF."""
    return inverse_cdf_sample(residual_dist(p, q), u)


def _forward_with_root(tree: DraftTree, target: TargetModel, cache: KvCache):
    """One batched target forward over [pending root token] + tree nodes."""
    if tree.root_context_len != cache.length:
        raise ValueError("tree root context length does not match the cache")
    n = len(tree.nodes)
    c = cache.length
    node_mask = build_mask(tree) if n else np.zeros((0, 0), dtype=bool)
    mask = np.zeros((1 + n, c + 1 + n), dtype=bool)
    mask[:, :c] = True
    mask[:, c] = True  # every node descends from the pending token
    mask[1:, c + 1 :] = node_mask
    tokens = [tree.root_token] + [nd.token for nd in tree.nodes]
    positions = [0] + [nd.depth for nd in tree.nodes]
    outs, kv = target.forward_tree_kv(cache, tokens, mask, positions)
    return outs, kv


def verify_tree_greedy(tree: DraftTree, target: TargetModel, cache: KvCache) -> VerifyOutcome:
    """Strict top-1 verification; the cache is left untouched."""
    outs, kv = _forward_with_root(tree, target, cache)
    accepted: list[int] = []
    commit = [0]
    features = [outs[0].feature]
    cur = -1
    while True:
        out = outs[0] if cur == -1 else outs[1 + cur]
        t_star = int(np.argmax(out.logits))
        nxt = None
        for ch in tree.children(cur):
            if tree.nodes[ch].token == t_star:
                nxt = ch
                break
        if nxt is None:
            final = t_star
            break
        accepted.append(t_star)
        commit.append(1 + nxt)
        features.append(outs[1 + nxt].feature)
        cur = nxt
    return VerifyOutcome(
        accepted=accepted,
        final_token=final,
        accepted_count=len(accepted),
        commit_indices=commit,
        tree_kv=kv,
        committed_features=features,
    )


def verify_tree_sampling(tree: DraftTree, target: TargetModel, cache: KvCache,
                         temperature: float, rng) -> VerifyOutcome:
    """Speculative sampling over the tree; preserves the target distribution.

    Tree node distributions must have been generated at the same temperature.
    """
    if not temperature > 0.0:
        raise ValueError("temperature must be > 0 for sampling verification")
    outs, kv = _forward_with_root(tree, target, cache)
    accepted: list[int] = []
    commit = [0]
    features = [outs[0].feature]
    cur = -1
    while True:
        out = outs[0] if cur == -1 else outs[1 + cur]
        p = softmax(out.logits, temperature)
        kids = tree.children(cur)
        if not kids:
            final = inverse_cdf_sample(p, rng.random())  # bonus from the target itself
            break
        p_res = p
        nxt = None
        for ch in kids:
            nd = tree.nodes[ch]
            if accept_token(p_res, nd.q_dist, nd.token, rng.random()):
                nxt = ch
                break
            p_res = residual_dist(p_res, nd.q_dist)
        if nxt is None:
            final = inverse_cdf_sample(p_res, rng.random())
            break
        accepted.append(tree.nodes[nxt].token)
        commit.append(1 + nxt)
        features.append(outs[1 + nxt].feature)
        cur = nxt
    return VerifyOutcome(
        accepted=accepted,
        final_token=final,
        accepted_count=len(accepted),
        commit_indices=commit,
        tree_kv=kv,
        committed_features=features,
    )


def verify_tree(tree: DraftTree, target: TargetModel, cache: KvCache,
                temperature: float, rng) -> VerifyOutcome:
    """Temperature 0 routes to the greedy walk, otherwise sampling."""
    if temperature == 0.0:
        return verify_tree_greedy(tree, target, cache)
    return verify_tree_sampling(tree, target, cache, temperature, rng)
