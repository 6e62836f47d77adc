"""The tracer observes sdlab without changing it: streams and counters are
bit-identical with the wrappers on and off, and every wrapper comes off.

    python3 -m pytest perfbench
"""

from dataclasses import replace

import numpy as np
import pytest

import run  # sets the BLAS thread pins and puts src/ on the path
import sdlab.bench
import sdlab.train
from sdlab.bench import RunConfig, build_models
from spans import GROWERS, KERNEL_CALLERS, KERNELS, Tracer, self_times


def _bindings(target):
    mods = [sdlab.bench, sdlab.train, *KERNEL_CALLERS]
    names = ["decode_prompt", "verify_tree", "DraftSession", "train_step", *GROWERS, *KERNELS]
    return ({(m.__name__, n): getattr(m, n) for m in mods for n in names if hasattr(m, n)},
            dict(vars(target)))


@pytest.fixture(scope="module")
def models():
    return build_models(RunConfig())  # untrained draft: fast, and the checks still hold


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_streams_identical_with_tracing_on_and_off(models, workload):
    target, draft = models
    cfg = replace(run.workload_config(workload, seed=3), max_new=10)
    vcfg = replace(cfg, method="vanilla")
    stream = run.PromptStream(cfg)
    before = _bindings(target)
    tracer = Tracer()
    for i in range(3):
        prompt, ss = stream[i]
        off, _ = run.decode(cfg, target, draft, prompt, ss)
        voff, _ = run.decode(vcfg, target, draft, prompt, ss)
        with tracer.installed(target):
            tracer.begin_op(i, "method")
            on, _ = run.decode(cfg, target, draft, prompt, ss)
            tracer.begin_op(i, "vanilla")
            von, _ = run.decode(vcfg, target, draft, prompt, ss)
        assert run._same_decode(on, off)
        assert run._same_decode(von, voff)
        assert run.check_op(cfg, on, von["tokens"]) == []
    assert _bindings(target) == before
    # the wrapped kernels also return the very same floats
    prompt, _ = stream[0]
    off_cache, on_cache = target.new_cache(), target.new_cache()
    off_logits = [target.forward_cached(off_cache, t).logits for t in prompt]
    with tracer.installed(target):
        on_logits = [target.forward_cached(on_cache, t).logits for t in prompt]
    assert all(np.array_equal(a, b) for a, b in zip(on_logits, off_logits))
    names = {s[0] for s in tracer.spans}
    assert {"bench.decode_prompt", "target.forward_cached", "target.forward_tree_kv",
            "target.commit_rows", "draft.prefill", "draft.begin_round", "draft.tree_level",
            "verify.verify_tree"} <= names
    assert any(n.startswith("tree.grow") for n in names)
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert sum(c["attn_row"][0] for c in tracer.kernels.values()) > 0


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0, 100, -1, 0, "", None],
             ["b", 10, 50, 0, 0, "", None],
             ["c", 20, 30, 1, 0, "", None],
             ["d", 60, 70, 0, 0, "", None]]
    assert self_times(spans) == [50, 30, 10, 10]


def test_tail_keeps_ten_samples_beyond():
    p, v = run.tail([float(x) for x in range(1, 86)])
    assert p == 88 and v == 75.0 and sum(x > v for x in range(1, 86)) == 10
