"""The decode path calls numpy's reductions, sorts and stacks directly, as
ufuncs and ndarray methods, never through numpy's Python-level wrappers.

A wrapper such as ``np.all``, ``ndarray.sum``, ``np.argsort`` or
``np.stack`` runs Python code inside numpy (``fromnumeric.py``,
``_methods.py``, ``shape_base.py``) on top of the ufunc it ends in, and at
the bench's sizes a decode round pays numpy's per-call cost, not its
arithmetic.  This guard profiles whole decodes of every method at T=0
and T=1 and names any sdlab line that enters one of those files.  Error
paths may keep the wrappers: no decode here raises.
"""

import os
import sys

import numpy as np
import pytest

import sdlab
import sdlab.draft
import sdlab.target
import sdlab.tree
import sdlab.verify
from sdlab.bench import RunConfig, build_models, decode_prompt, make_prompts
from sdlab.target import check_tree

WRAPPERS = {"fromnumeric.py", "_methods.py", "shape_base.py"}
SDLAB = os.path.dirname(sdlab.__file__)


def wrapper_calls(fn) -> list[str]:
    """Run fn under sys.setprofile; the sdlab call sites that entered a
    numpy wrapper file, as 'file:line -> function (wrapper file)'."""
    sites = []

    def profile(frame, event, arg):
        if event == "call" and os.path.basename(frame.f_code.co_filename) in WRAPPERS:
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(SDLAB):
                sites.append(f"{os.path.basename(caller.f_code.co_filename)}:{caller.f_lineno}"
                             f" -> {frame.f_code.co_name}"
                             f" ({os.path.basename(frame.f_code.co_filename)})")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return sites


def test_the_profile_names_a_wrapper_call_site():
    # the control: check_tree finds the first bad row for its message with
    # np.argmax, a wrapper, as an error path may
    def bad_tree():
        with pytest.raises(ValueError, match="tree row 1"):
            check_tree(np.array([-1, 5]), np.array([0, 1]))

    sites = wrapper_calls(bad_tree)
    assert any(s.startswith("target.py:") and s.endswith("-> argmax (fromnumeric.py)")
               for s in sites), sites


@pytest.fixture(scope="module")
def models():
    target, draft = build_models(RunConfig())
    # one warm-up decode fills the position table and the attention memos
    cfg = RunConfig(method="jakiro_full", max_new=16, n_prompts=1, seed=0)
    decode_prompt(target, draft, cfg, make_prompts(cfg)[0], np.random.default_rng(0))
    return target, draft


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("method", ["vanilla", "chain", "static_tree", "moe_tree",
                                    "jakiro_full"])
def test_a_decode_enters_no_numpy_wrapper(models, method, temperature):
    target, draft = models
    cfg = RunConfig(method=method, temperature=temperature, max_new=24, n_prompts=1, seed=3)
    prompt = make_prompts(cfg)[0]
    out = {}
    sites = wrapper_calls(lambda: out.update(
        decode_prompt(target, draft, cfg, prompt, np.random.default_rng(1))))
    assert len(out["tokens"]) == 24
    assert sites == [], "\n".join(sorted(set(sites)))


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_a_decode_that_leaves_an_expert_out_enters_no_numpy_wrapper(temperature):
    # with K < N the draft masks the experts a row did not choose
    cfg = RunConfig(method="moe_tree", temperature=temperature, n_experts=3, active_k=2,
                    max_new=16, n_prompts=1, seed=3)
    target, draft = build_models(cfg)
    prompt = make_prompts(cfg)[0]
    decode_prompt(target, draft, cfg, prompt, np.random.default_rng(0))
    sites = wrapper_calls(lambda: decode_prompt(target, draft, cfg, prompt,
                                                np.random.default_rng(1)))
    assert sites == [], "\n".join(sorted(set(sites)))


# Calls of the kernels perfbench's tracer counts, through the names the
# model modules import them under, during one small decode: the counts of
# the decode path before the one-row branches, which live inside the
# kernels so that these counts, and the tracer's per-token figures, stay.
KERNEL_CALLS = {
    ("chain", 0.0): {"attn_row": 86, "layer_norm": 186, "softmax": 120, "silu": 86},
    ("chain", 1.0): {"attn_row": 44, "layer_norm": 96, "softmax": 75, "silu": 44},
    ("vanilla", 0.0): {"attn_row": 24, "layer_norm": 60, "softmax": 0, "silu": 24},
    ("vanilla", 1.0): {"attn_row": 24, "layer_norm": 60, "softmax": 12, "silu": 24},
}


@pytest.mark.parametrize("method,temperature", list(KERNEL_CALLS))
def test_kernel_calls_through_the_module_names(monkeypatch, method, temperature):
    counts = dict.fromkeys(KERNEL_CALLS[method, temperature], 0)
    for mod in (sdlab.target, sdlab.draft, sdlab.tree, sdlab.verify):
        for name in counts:
            if hasattr(mod, name):
                def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
    cfg = RunConfig(method=method, temperature=temperature, max_new=12, n_prompts=1, seed=5)
    target, draft = build_models(cfg)
    out = decode_prompt(target, draft, cfg, make_prompts(cfg)[0], np.random.default_rng(2))
    assert len(out["tokens"]) == 12
    assert counts == KERNEL_CALLS[method, temperature]
