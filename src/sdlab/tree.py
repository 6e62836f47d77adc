"""Candidate-token tree construction: chains, static top-k trees and
MoE-decoupled trees, plus the tree attention mask and verification layout.

All growers share the round protocol: the first draft pass commits the newly
accepted backlog plus the pending token and proposes depth-1 candidates; each
further tree level costs exactly one draft pass.  With the parallel final
step, depth gamma candidates come from the contrast head of the depth gamma-1
pass, saving one pass per round.

Greedy growth is fully deterministic (dedup and beam pruning allowed).
Sampling growth draws every candidate independently from its emitting
distribution and never discards a grown node, which is what the lossless
verification algebra requires; the beam then only limits which nodes are
expanded further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .draft import ContrastParams, DraftSession, DraftStepOutput
from .kernels import inverse_cdf_sample, softmax

BRANCH_LEFT = "left"
BRANCH_RIGHT = "right"
BRANCH_NONE = "none"


@dataclass
class DraftNode:
    token: int
    parent: int          # index into DraftTree.nodes, or -1 for the root
    depth: int           # root children have depth 1
    q_prob: float        # draft probability of this token given its path
    cum_score: float     # log-domain path score
    branch_tag: str = BRANCH_NONE
    q_dist: np.ndarray = field(default=None, repr=False)


@dataclass
class DraftTree:
    """Topologically ordered candidate tree rooted at the pending token."""

    nodes: list[DraftNode]
    root_token: int
    root_context_len: int = 0
    _kids: dict[int, list[int]] | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, idx: int) -> list[int]:
        """Child node indices of idx (-1 for the root) in ascending order,
        the order the sampling walk draws them in."""
        if self._kids is None:
            self._kids = {}
            for i, n in enumerate(self.nodes):
                self._kids.setdefault(n.parent, []).append(i)
        return self._kids.get(idx, [])


def build_mask(tree: DraftTree) -> np.ndarray:
    """Boolean ancestor-or-self mask over the tree nodes."""
    n = len(tree.nodes)
    mask = np.zeros((n, n), dtype=bool)
    for i, node in enumerate(tree.nodes):
        p = node.parent
        if p >= i:
            raise ValueError("malformed tree: forward parent reference")
        if p == -1:
            if node.depth != 1:
                raise ValueError("malformed tree: root child with depth != 1")
        else:
            if tree.nodes[p].depth != node.depth - 1:
                raise ValueError("malformed tree: parent depth mismatch")
            mask[i] = mask[p]
        mask[i, i] = True
    return mask


def flatten_for_verification(tree: DraftTree):
    """Tokens in node order, depths as position offsets, and the node mask
    extended over the cached prefix (prefix columns all true)."""
    n = len(tree.nodes)
    tokens = [node.token for node in tree.nodes]
    positions = [node.depth for node in tree.nodes]
    node_mask = build_mask(tree)
    c = tree.root_context_len
    mask = np.concatenate((np.ones((n, c), dtype=bool), node_mask), axis=1)
    return tokens, mask, positions


def dump_tree(tree: DraftTree) -> str:
    """Stable textual dump for golden-file comparisons."""
    lines = []
    for i, n in enumerate(tree.nodes):
        lines.append(
            f"{i} {n.parent} {n.depth} {n.token} {n.branch_tag} {n.q_prob:.12g} {n.cum_score:.12g}"
        )
    return "\n".join(lines)


def _pick(dist: np.ndarray, mode: str, rng) -> int:
    if mode == "greedy":
        return int(np.argmax(dist))
    if rng is None:
        raise ValueError("sampling growth needs an rng")
    return inverse_cdf_sample(dist, rng.random())


def _top_tokens(dist: np.ndarray, k: int) -> list[int]:
    order = np.argsort(-dist, kind="stable")
    return [int(t) for t in order[:k]]


@dataclass
class _Cand:
    parent: int
    token: int
    depth: int
    q_prob: float
    cum: float
    tag: str
    q_dist: np.ndarray
    src: DraftStepOutput


def _propose(dist, parent_idx, parent_cum, depth, tag, branch_logscore, top_k, mode, rng, src):
    """Candidates for one (parent, emitting distribution) pair."""
    if mode == "greedy":
        toks = _top_tokens(dist, top_k)
    else:
        toks = [_pick(dist, mode, rng) for _ in range(top_k)]
    out = []
    for t in toks:
        q = float(dist[t])
        cum = parent_cum + branch_logscore + np.log(max(q, 1e-300))
        out.append(_Cand(parent_idx, t, depth, q, cum, tag, dist, src))
    return out


def _dedup_siblings(cands: list[_Cand]) -> list[_Cand]:
    """Keep the higher-cum_score copy of a token proposed by both branches of
    one parent (greedy growth only; ties keep the earlier, left-first, copy)."""
    best: dict[tuple[int, int], _Cand] = {}
    order: list[tuple[int, int]] = []
    for c in cands:
        key = (c.parent, c.token)
        if key not in best:
            best[key] = c
            order.append(key)
        elif c.cum > best[key].cum:
            best[key] = c
    return [best[k] for k in order]


def _grow(session: DraftSession, prev_feature, start_token, gamma, *, kind: str,
          top_k: int = 1, beam: int = 60, parallel: bool = False, mode: str = "greedy",
          temperature: float = 1.0, rng=None, cparams: ContrastParams | None = None,
          backlog_tokens=(), backlog_features=(), context_len: int = 0,
          weight_by_expert_score: bool = True) -> DraftTree:
    model = session.model
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if parallel and gamma < 2:
        raise ValueError("parallel final step needs gamma >= 2")
    if (parallel or kind == "moe") and model.config.active_k < 2:
        raise ValueError("K < 2: need two active experts")
    cp = cparams if cparams is not None else model.contrast_params()

    out0 = session.begin_round(
        [*backlog_tokens, start_token], [*backlog_features, prev_feature]
    )
    nodes: list[DraftNode] = []
    # frontier entries: (node index, its step output, tree row ids along its path)
    frontier: list[tuple[int, DraftStepOutput, list[int]]] = [(-1, out0, [])]
    last_step_depth = gamma - 1 if parallel else gamma

    for depth in range(1, last_step_depth + 1):
        cands: list[_Cand] = []
        for pidx, pout, _rows in frontier:
            pcum = 0.0 if pidx == -1 else nodes[pidx].cum_score
            if kind == "moe":
                s = pout.scores.scores
                i1 = int(pout.scores.top_indices[0])
                i2 = int(pout.scores.top_indices[1])
                s1, s2 = float(s[i1]), float(s[i2])
                dl = softmax(pout.logits_left, temperature)
                dr = softmax(pout.logits_right, temperature)
                w1 = np.log(s1) if weight_by_expert_score else 0.0
                w2 = np.log(s2) if weight_by_expert_score else 0.0
                pc = _propose(dl, pidx, pcum, depth, BRANCH_LEFT, w1, top_k, mode, rng, pout)
                pc += _propose(dr, pidx, pcum, depth, BRANCH_RIGHT, w2, top_k, mode, rng, pout)
                if mode == "greedy":
                    pc = _dedup_siblings(pc)
            else:
                dist = softmax(model.mixture_logits(pout, cp), temperature)
                pc = _propose(dist, pidx, pcum, depth, BRANCH_NONE, 0.0, top_k, mode, rng, pout)
            cands.extend(pc)

        if mode == "greedy" and len(cands) > beam:
            ranked = sorted(range(len(cands)), key=lambda i: (-cands[i].cum, i))
            keep = sorted(ranked[:beam])
            cands = [cands[i] for i in keep]

        layer_idx: list[int] = []
        for c in cands:
            nodes.append(DraftNode(c.token, c.parent, c.depth, c.q_prob, c.cum, c.tag, c.q_dist))
            layer_idx.append(len(nodes) - 1)

        if depth == last_step_depth:
            if parallel:
                # depth gamma candidates from the contrast head of this pass
                final: list[_Cand] = []
                for j, c in zip(layer_idx, cands):
                    _, logits_const = model.contrastive_heads(c.src, cp)
                    distc = softmax(logits_const, temperature)
                    final += _propose(distc, j, nodes[j].cum_score, gamma,
                                      BRANCH_NONE, 0.0, top_k, mode, rng, c.src)
                if mode == "greedy":
                    final = _dedup_siblings(final)
                    if len(final) > beam:
                        ranked = sorted(range(len(final)), key=lambda i: (-final[i].cum, i))
                        final = [final[i] for i in sorted(ranked[:beam])]
                for c in final:
                    nodes.append(DraftNode(c.token, c.parent, gamma, c.q_prob, c.cum, c.tag, c.q_dist))
            break

        # expand this layer (beam-best nodes) in one draft pass
        exp = layer_idx
        if len(exp) > beam:
            ranked = sorted(exp, key=lambda i: (-nodes[i].cum_score, i))
            exp = sorted(ranked[:beam])
        by_node = {pidx: (out, rows) for pidx, out, rows in frontier}
        items = []
        for i in exp:
            pout, parent_rows = by_node[nodes[i].parent]
            items.append((nodes[i].token, pout.feature_moe, parent_rows, nodes[i].depth))
        results = session.tree_level(items)
        frontier = []
        for i, (stepout, row) in zip(exp, results):
            frontier.append((i, stepout, by_node[nodes[i].parent][1] + [row]))

    return DraftTree(nodes=nodes, root_token=start_token, root_context_len=context_len)


def grow_chain(session, prev_feature, start_token, gamma, **kw) -> DraftTree:
    """Linear draft of gamma tokens; greedy by default."""
    kw.setdefault("top_k", 1)
    return _grow(session, prev_feature, start_token, gamma, kind="chain", **kw)


def grow_static_tree(session, prev_feature, start_token, gamma, top_k, **kw) -> DraftTree:
    """Static top-k tree from the mixture distribution at every node."""
    return _grow(session, prev_feature, start_token, gamma, kind="static", top_k=top_k, **kw)


def grow_moe_tree(session, prev_feature, start_token, gamma, top_k, **kw) -> DraftTree:
    """Decoupled tree: each node's children come from the two expert branches,
    higher-scoring branch on the left, cum_score weighted by the branch score."""
    return _grow(session, prev_feature, start_token, gamma, kind="moe", top_k=top_k, **kw)
