"""The malloc pin in ``sdlab.kernels``: wide sampled tree verifies reuse the
heap they freed instead of faulting trimmed pages back in."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import sdlab

# 10 warm jakiro_full decodes at T=1; prints the minor faults they took
DECODES = """
import resource
import numpy as np
from sdlab.bench import RunConfig, build_models, decode_prompt, make_prompts

cfg = RunConfig(method="jakiro_full", temperature=1.0, max_new=32, n_prompts=12)
target, draft = build_models(cfg)
rng = np.random.Generator(np.random.PCG64(0))
prompts = make_prompts(cfg)
for prompt in prompts[:2]:
    decode_prompt(target, draft, cfg, prompt, rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for prompt in prompts[2:]:
    decode_prompt(target, draft, cfg, prompt, rng)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the pin calls glibc's mallopt")
def test_sampled_tree_decodes_take_few_minor_faults():
    # unpinned, glibc trims the freed gather blocks and MLP temporaries after
    # each verify: about 65,000 faults over these decodes, against about 10.
    # glibc's thresholds move with a process's malloc history, which earlier
    # tests would set, so the decodes run in a fresh interpreter.
    src = str(Path(sdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", DECODES], env=env, capture_output=True, text=True,
                         check=True)
    assert int(run.stdout) < 1000
