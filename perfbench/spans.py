"""Outside-in tracing for the decode benchmark.

The tracer wraps sdlab's public functions where the library looks them up
(instance attributes of the target and draft session, module attributes of
``sdlab.bench``, ``sdlab.train`` and the kernel names imported by the model
modules), so the library itself is not edited.  Layer boundaries become
spans; the numeric kernels are too small and too frequent for spans and get
per-prompt call counters and busy time instead.  Kernel time therefore stays
inside the self time of the span that called it.

Everything is kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import types
from contextlib import contextmanager
from time import perf_counter_ns

import sdlab.bench
import sdlab.draft
import sdlab.target
import sdlab.train
import sdlab.tree
import sdlab.verify

KERNELS = ("attn_row", "layer_norm", "softmax", "silu", "inverse_cdf_sample", "check_prob_vec")
# modules whose own global lookups reach the kernels during decoding
KERNEL_CALLERS = (sdlab.target, sdlab.draft, sdlab.tree, sdlab.verify)
GROWERS = ("grow_chain", "grow_static_tree", "grow_moe_tree")
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "prompt", "phase", "attrs")
NAME, START, END, PARENT, PROMPT, PHASE, ATTRS = range(len(SPAN_FIELDS))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _tree_kv_attrs(model):
    """Rows and computed FLOPs of one ``forward_tree_kv`` call.

    Per row and layer: q, k, v and o projections (8 d^2), the 4x MLP
    (16 d^2) and attention scores plus mix (4 d ctx), where ctx is the
    cached prefix plus the row's ancestors and itself; then the LM head
    (2 V d).  Norms and the softmax are left out.
    """
    cfg = model.config
    d, n_layers, vocab = cfg.dim, cfg.n_layers, cfg.vocab

    def attrs(args, kwargs, _out):
        cache = _arg(args, kwargs, 0, "cache")
        positions = _arg(args, kwargs, 3, "positions")
        rows = len(positions)
        ctx = rows * (cache.length + 1) + sum(int(p) for p in positions)
        flops = n_layers * (24 * d * d * rows + 4 * d * ctx) + 2 * vocab * d * rows
        return {"rows": rows, "flops": flops}

    return attrs


class Tracer:
    """Spans and kernel counters for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.kernels: dict[tuple[int, str], dict[str, list[int]]] = {}
        self.prompt = -1
        self.phase = ""
        self._stack: list[int] = []
        self._kcur = self._fresh_counters()
        self._undo: list = []

    @staticmethod
    def _fresh_counters() -> dict[str, list[int]]:
        return {k: [0, 0] for k in KERNELS}

    def begin_op(self, prompt: int, phase: str) -> None:
        """Attribute the following spans and kernel calls to one prompt decode."""
        self.prompt = prompt
        self.phase = phase
        self._kcur = self.kernels.setdefault((prompt, phase), self._fresh_counters())

    def span(self, name, fn, attrs=None):
        def wrapped(*args, **kwargs):
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.prompt, self.phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, out)
            return out

        return wrapped

    def kernel(self, name, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            c = self._kcur[name]
            c[0] += 1
            c[1] += perf_counter_ns() - t0
            return out

        return wrapped

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, types.ModuleType):
            old = getattr(owner, attr)
            self._undo.append(lambda: setattr(owner, attr, old))
        else:
            self._undo.append(lambda: owner.__dict__.pop(attr, None))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self, target=None):
        """Wrap the decode boundaries of ``target`` for the duration of the
        block; with no target, wrap only the training step."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            self._patch(sdlab.train, "train_step",
                        self.span("train.train_step", sdlab.train.train_step))
            if target is not None:
                self._install_decode(target)
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    def _install_decode(self, target) -> None:
        span = self.span
        bench = sdlab.bench
        self._patch(bench, "decode_prompt", span(
            "bench.decode_prompt", bench.decode_prompt,
            lambda a, k, out: {"tokens": len(out["tokens"]),
                               "target_forwards": out["target_forwards"]}))
        for g in GROWERS:
            if hasattr(bench, g):
                self._patch(bench, g, span("tree." + g, getattr(bench, g),
                                           lambda a, k, out: {"nodes": len(out.nodes)}))
        self._patch(bench, "verify_tree", span(
            "verify.verify_tree", bench.verify_tree,
            lambda a, k, out: {"accepted": len(out.accepted)}))

        session_cls = bench.DraftSession

        def make_session(model):
            s = session_cls(model)
            s.prefill = span("draft.prefill", s.prefill)
            s.begin_round = span("draft.begin_round", s.begin_round)
            s.tree_level = span("draft.tree_level", s.tree_level,
                                lambda a, k, out: {"rows": len(_arg(a, k, 0, "items"))})
            return s

        self._patch(bench, "DraftSession", make_session)

        self._patch(target, "forward_cached", span("target.forward_cached", target.forward_cached))
        self._patch(target, "forward_tree_kv", span(
            "target.forward_tree_kv", target.forward_tree_kv, _tree_kv_attrs(target)))
        new_cache = target.new_cache

        def traced_cache():
            cache = new_cache()
            cache.commit_rows = span("target.commit_rows", cache.commit_rows)
            return cache

        self._patch(target, "new_cache", traced_cache)

        for mod in KERNEL_CALLERS:
            for k in KERNELS:
                if hasattr(mod, k):
                    self._patch(mod, k, self.kernel(k, getattr(mod, k)))

    def write(self, path, meta: dict) -> None:
        doc = {**meta, "span_fields": list(SPAN_FIELDS), "spans": self.spans,
               "kernel_fields": ["calls", "ns"],
               "kernels": [{"prompt": p, "phase": ph, "counters": c}
                           for (p, ph), c in self.kernels.items()]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
