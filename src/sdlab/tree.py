"""Candidate-token tree construction: static top-k trees and MoE-decoupled
trees.  A chain draft is the static tree of width one, ``top_k=1``.

A tree is columns in level order: one ``NODE`` record per node (token,
parent, depth, cum_score and branch tag) and one row of ``q_dist`` per node,
the draft distribution the node's token was drawn from.  Every node's parent
comes before it and depths never decrease, so verification builds every
node's attention context from the parent column, one depth at a time.

All growers share the round protocol: a round's input is what the last
verify committed, the tokens not yet in the draft's cache with the pending
token last, and the target features fed to them, one (tokens, dim) array.
The first draft pass commits them and proposes depth-1 candidates; each
further tree level costs exactly one draft pass.  With the parallel final
step, depth gamma candidates come from the contrast head of the depth gamma-1
pass, saving one pass per round.

Trees grow one level at a time.  A level's emitting distributions are one
(rows, branches, vocab) array over the rows of the draft pass that proposes
it: the left and the right expert branch of each row for moe trees, the
branch mixture otherwise, and the contrast head for the parallel final
level.  Candidates are ordered by parent row, then branch (left before
right), then draw, and score cum_score = (parent cum_score + log branch
score) + log q.  A tree's records and q_dist rows are allocated once, for
the most nodes its shape allows, and each level writes its own slice of
them.  The draft pass of a level takes the ancestor rows of each of its
rows as one array, which grows by a column per level.  A level's arrays
are gathered with ``take``, numpy's cheapest row gather, and only when the
level cut a candidate: otherwise node i is candidate i, as at every
sampled level and every chain level, and its columns are written as they
stand.  A greedy top-1 level of one distribution, a chain's, is one
argmax, one record and one q_dist row, with the bits of that row in a
wider level.  While every level has added one node, the frontier is one
row whose ancestors are every row of the round, so its pass is a causal
one-row level: its token, feature and ancestors are slices, with nothing
gathered or concatenated.

A grower's temperature picks the mode: 0 grows greedily and scores the
tree with the plain (T=1) softmax, and T > 0 samples from the softmax at T,
the convention verification and the run config use.

Greedy growth is fully deterministic: each distribution's top_k tokens
(ties to the lower token; all V of them when top_k exceeds the vocab), one
copy of a token both branches of a parent propose, then the beam best by
cum_score (ties to the earlier candidate).  Of such twins, the right draw
takes the left one's place if its cum_score is strictly higher, and is
dropped otherwise.
Sampling growth draws top_k tokens from each distribution by inverse CDF and
takes all of a level's uniforms in one call, in candidate order, which is
the order drawing one candidate at a time consumes the stream in.  It never
discards a grown node, which is what the lossless verification algebra
requires; the beam only limits which nodes are expanded, at every level
and the parallel final level included.  The expanded nodes are the beam
best by cum_score (ties to the earlier node), chosen from scores known
before any of their children is drawn, and each one's children are
independent draws from its distribution, so the walk stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .draft import DraftSession
from .kernels import inverse_cdf_rows, softmax

BRANCH_LEFT = "left"
BRANCH_RIGHT = "right"
BRANCH_NONE = "none"
BRANCH_TAGS = np.array([BRANCH_LEFT, BRANCH_RIGHT])
NO_BRANCH = np.array([BRANCH_NONE])

# the rows a one-candidate level's node comes from
_FIRST_ROW = np.zeros(1, dtype=np.intp)
_FIRST_ROW.flags.writeable = False
# parent is a node index, or -1 for the root; root children have depth 1
NODE = np.dtype([("token", np.intp), ("parent", np.intp), ("depth", np.intp),
                 ("cum_score", np.float64), ("tag", "U5")])


@dataclass(eq=False)
class DraftTree:
    """Level-ordered candidate tree rooted at the pending token: ``nodes``
    holds one NODE record per node, ``q_dist`` the (nodes, vocab) draft
    distributions their tokens were drawn from."""

    nodes: np.ndarray
    q_dist: np.ndarray
    root_token: int
    root_context_len: int = 0

    def __len__(self) -> int:
        return len(self.nodes)


def _top_k(rows: np.ndarray, k: int) -> np.ndarray:
    """The first k entries of each row's stable descending argsort: the k
    most probable tokens, ties to the lower index.  One argmax per entry,
    each after the entries taken so far are pushed below every probability;
    a full stable argsort of a 16-parent moe level costs about four times
    as much."""
    k = min(k, rows.shape[1])
    top = np.empty((rows.shape[0], k), dtype=np.intp)
    if k > 1:
        rows = rows.copy()
    for j in range(k):
        top[:, j] = rows.argmax(axis=1)
        if j + 1 < k:
            rows[np.arange(rows.shape[0]), top[:, j]] = -1.0
    return top


def _add_level(nodes: np.ndarray, q_dist: np.ndarray, n: int, depth: int, dist: np.ndarray,
               parents: np.ndarray, pcum: np.ndarray, tags: np.ndarray, top_k: int, greedy: bool,
               beam: int, rng, logw: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Write one level's candidates, at depth, to the records and q_dist
    rows of a tree's buffers from row n on.

    dist is (rows, branches, vocab): the emitting distributions of each
    parent row, tagged tags[branch]; parents[r] and pcum[r] are row r's
    parent node and its cum_score, logw (rows, branches) the log branch
    scores added to it.  Returns the dist row and the cum_score of every
    node added, in node order.
    """
    m, nb, V = dist.shape
    if greedy and top_k == 1 and m * nb == 1 and logw is None:
        # one candidate, a chain's level: the ops below on its one row, with
        # one argmax, one record and one q_dist row
        row = dist[0, 0]
        tok = int(row.argmax())
        cum = pcum[0] + np.log(max(row[tok], 1e-300))
        nodes[n] = tok, parents[0], depth, cum, tags[0]
        q_dist[n] = row
        return _FIRST_ROW, np.array([cum])
    flat = dist.reshape(m * nb, V)
    if greedy:
        # one argmax per row gives a top-1 level's tokens, ties to the lower
        tok = flat.argmax(axis=1)[:, None] if top_k == 1 else _top_k(flat, top_k)
    else:
        tok = inverse_cdf_rows(flat, rng.random((m * nb, top_k)))
    k = tok.shape[1]  # greedy draws at most V distinct tokens
    q = flat.take(tok + np.arange(0, m * nb * V, V)[:, None])
    base = pcum if logw is None else pcum[:, None] + logw
    cum = (base.reshape(-1, 1) + np.log(np.maximum(q, 1e-300))).ravel()
    # sel: the candidates kept, in node order; None keeps every one
    sel = _dedupe(tok, cum, k) if greedy and nb == 2 else None
    if greedy and (cum.size if sel is None else sel.size) > beam:
        kept = cum if sel is None else cum.take(sel)
        best = (-kept).argsort(kind="stable")[:beam]
        best.sort()
        sel = best if sel is None else sel.take(best)
    if sel is None:  # node i is candidate i
        src = np.arange(m * nb) if k == 1 else np.arange(m * nb).repeat(k)
        tok = tok.ravel()
    else:
        src, tok, cum = sel // k, tok.take(sel), cum.take(sel)
    # src is the (row, branch) each node was drawn from
    rows = src if nb == 1 else src // nb
    rec = nodes[n : n + src.size]
    rec["token"], rec["parent"], rec["depth"] = tok, parents.take(rows), depth
    rec["cum_score"], rec["tag"] = cum, tags if nb == 1 else tags.take(src % nb)
    q_dist[n : n + src.size] = flat if sel is None and k == 1 else flat.take(src, 0)
    return rows, cum


def _dedupe(tok: np.ndarray, cum: np.ndarray, k: int) -> np.ndarray | None:
    """The candidates a greedy two-branch level keeps after dropping the
    repeated tokens of each row (see the module docstring), as indices into
    the flat (rows, 2, k) candidates in node order, or None when no right
    draw repeats a left draw of its row.  tok is (2 * rows, k), each row's
    left branch first, and cum the flat cum_scores.  A branch's k draws are
    distinct, so a right draw has at most one twin."""
    t, c = tok.tolist(), cum.tolist()
    sel, b = [], 0
    for left, right in zip(t[0::2], t[1::2]):
        row = list(range(b, b + k))
        for j, x in enumerate(right, b + k):
            if x not in left:
                row.append(j)
            elif c[j] > c[b + left.index(x)]:
                row[left.index(x)] = j
        sel += row
        b += 2 * k
    return np.array(sel) if len(sel) < len(c) else None


def _grow(session: DraftSession, tokens, features, gamma, *, moe: bool, top_k: int,
          beam: int = 60, parallel: bool = False, temperature: float = 0.0, rng=None,
          context_len: int = 0) -> DraftTree:
    """Grow one round's tree, rooted at tokens[-1]: tokens are the committed
    tokens not yet in the session's cache, the pending one last, and
    features the target features fed to them, one row per token."""
    model = session.model
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if top_k < 1 or beam < 1:
        raise ValueError("top_k and beam must be >= 1")
    if parallel and gamma < 2:
        raise ValueError("parallel final step needs gamma >= 2")
    if (parallel or moe) and model.config.active_k < 2:
        raise ValueError("K < 2: need two active experts")
    if not temperature >= 0.0:  # NaN included
        raise ValueError("temperature must be >= 0")
    greedy = temperature == 0.0
    if not greedy and rng is None:
        raise ValueError("sampling growth needs an rng")
    if greedy:
        temperature = 1.0  # greedy trees are scored with the plain softmax
    V, dim = model.vocab, model.dim
    # the most nodes the tree can get: a level adds top_k draws per branch
    # of each row it expands, at most beam of them when greedy, and expands
    # at most beam of its nodes
    cap, expanded = 0, 1
    for _ in range(gamma):
        added = (2 if moe else 1) * top_k * expanded
        if greedy:
            added = min(added, beam)
        cap += added
        expanded = min(added, beam)
    nodes, q_dist = np.empty(cap, NODE), np.empty((cap, V))

    # the frontier: the step outputs of the rows of one draft pass (the
    # round's opening row, then a tree level), each row's node, its
    # cum_score and the tentative rows of its ancestors, root first
    out = session.begin_round(tokens, features)
    parents, pcum = np.array([-1]), np.zeros(1)
    # node numbers, and a chain row's ancestors: every earlier row of the round
    node_ids = np.arange(cap)
    chain = node_ids[None, :gamma]
    n = 0
    last_step_depth = gamma - 1 if parallel else gamma

    for depth in range(1, last_step_depth + 1):
        if moe:
            dist = softmax(model.branch_logits(out), temperature).reshape(-1, 2, V)
            rows, cum = _add_level(nodes, q_dist, n, depth, dist, parents, pcum, BRANCH_TAGS,
                                   top_k, greedy, beam, rng, np.log(out.branch_scores).reshape(-1, 2))
        else:
            dist = softmax(model.mixture_logits(out), temperature).reshape(-1, 1, V)
            rows, cum = _add_level(nodes, q_dist, n, depth, dist, parents, pcum, NO_BRANCH,
                                   top_k, greedy, beam, rng)

        # the beam-best nodes of this level are expanded, chosen before any
        # child is drawn: by the next draft pass, or on the parallel final
        # level by the contrast head of this pass
        if n == depth - 1:
            # every earlier level added one node, and each is a row of the
            # round: the frontier row's path is every row so far
            anc = chain[:, : depth - 1]
            if len(rows) == 1 and depth < last_step_depth:
                # a chain level: one causal row, with nothing to gather
                out, _ = session.tree_level(nodes["token"][n : n + 1],
                                            out.feature_moe.reshape(1, dim), anc)
                parents, pcum = node_ids[n : n + 1], cum
                n += 1
                continue
        toks = nodes["token"][n : n + len(rows)]
        parents = node_ids[n : n + len(rows)]
        n += len(rows)
        if len(rows) > beam:
            keep = (-cum).argsort(kind="stable")[:beam]
            keep.sort()
            rows, cum, toks, parents = rows[keep], cum[keep], toks[keep], parents[keep]
        if depth == last_step_depth:
            if parallel:
                distc = softmax(model.contrast_logits(out), temperature).reshape(-1, V)
                rows, _ = _add_level(nodes, q_dist, n, depth + 1, distc[rows][:, None], parents,
                                     cum, NO_BRANCH, top_k, greedy, beam, rng)
                n += len(rows)
            break
        anc = anc.take(rows, 0)
        out, ids = session.tree_level(toks, out.feature_moe.reshape(-1, dim).take(rows, 0), anc)
        pcum = cum
        anc = np.concatenate((anc, ids[:, None]), axis=1)

    return DraftTree(nodes[:n], q_dist[:n], root_token=tokens[-1], root_context_len=context_len)


def grow_static_tree(session, tokens, features, gamma, top_k, **kw) -> DraftTree:
    """Static top-k tree from the mixture distribution at every node; at
    top_k 1 it is a chain of gamma tokens."""
    return _grow(session, tokens, features, gamma, moe=False, top_k=top_k, **kw)


def grow_moe_tree(session, tokens, features, gamma, top_k, **kw) -> DraftTree:
    """Decoupled tree: each node's children come from the two expert branches,
    higher-scoring branch on the left, cum_score weighted by the branch score."""
    return _grow(session, tokens, features, gamma, moe=True, top_k=top_k, **kw)
