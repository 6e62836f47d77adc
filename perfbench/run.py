#!/usr/bin/env python3
"""Decode benchmark for sdlab: wall-clock ms per emitted token.

Run from the repository root:

    python3 perfbench/run.py --workload greedy_tree --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

A single-process, single-threaded, closed-loop client: it decodes prompts
generated from ``--seed`` one after another, each first with the workload's
speculative method and then with ``vanilla``, for ``--seconds`` seconds and
at least the first REFERENCE_PROMPTS prompts.  Every decode is checked, and
decode times are scaled by a host-speed probe run between prompts (see
calibrate.py).  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it wraps the library's layer boundaries (see spans.py),
decodes each prompt traced and untraced, and prints the per-layer metrics.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric table.
"""

import os

# Pinned before numpy is imported: the reference box has 2 cores and
# threaded BLAS makes the small matmuls here slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    import sdlab.bench
    from sdlab.bench import RunConfig, make_prompts
except ImportError as e:
    print(f"perfbench: cannot import sdlab from {ROOT / 'src'}: {e}", file=sys.stderr)
    sys.exit(2)
if Path(sdlab.bench.__file__).resolve().parent != ROOT / "src" / "sdlab":
    print(f"perfbench: sdlab was imported from {sdlab.bench.__file__}, not from {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

from calibrate import REFERENCE_MS, Probe
from models import bench_models, source_digest, timed_setups
from spans import (ATTRS, END, GROWERS, KERNELS, NAME, PHASE, PROMPT, START,
                   Tracer, layer_of, self_times)

OUT_DIR = ROOT / ".perfbench_out"

# Shared by every workload: 8-token random prompts, 32 new tokens, the
# ROADMAP tree shape, and the trained draft.
COMMON = {"gamma": 5, "top_k": 2, "beam": 16, "max_new": 32, "prompt_len": 8}
WORKLOADS = {
    # The paper's method on the ROADMAP config: ~65-node greedy trees, target
    # verify ~64% of decode time, so batched tree forwards show in full.
    "greedy_tree": {"method": "jakiro_full", "temperature": 0.0},
    # Width-1 trees (6 verify rows): batching has nothing to gain, so the
    # prediction for it is "no change"; a per-call cost added to the m=1
    # path shows here first.
    "greedy_chain": {"method": "chain", "temperature": 0.0},
    # Sampled growth without dedup or beam pruning (~276-node trees) and the
    # residual walk: where node-budget pruning shows.
    "sample_tree": {"method": "jakiro_full", "temperature": 1.0},
}
# Every run decodes at least these first prompts of its seed's stream; the
# exact per-layer counts are taken over them, so they repeat for a seed.
# With seed 11 they are the ROADMAP's 20-prompt bench set.
REFERENCE_PROMPTS = 20
# prompt_ms_tail is the highest percentile with at least this many prompts beyond it
MIN_BEYOND = 10


class PromptStream:
    """Prompt i and its sampling seed, as ``run_session`` would give them for
    any n_prompts > i; grown by doubling, so the stream never runs out."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.prompts: list = []
        self.seeds: list = []

    def __getitem__(self, i: int):
        if i >= len(self.prompts):
            n = max(64, 2 * (i + 1))
            self.prompts = make_prompts(replace(self.cfg, n_prompts=n))
            self.seeds = np.random.SeedSequence([self.cfg.seed, 1]).spawn(n)
        return self.prompts[i], self.seeds[i]


def decode(cfg, target, draft, prompt, seed_seq):
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    t0 = time.perf_counter()
    r = sdlab.bench.decode_prompt(target, draft, cfg, prompt, rng)
    return r, (time.perf_counter() - t0) * 1e3


def check_op(cfg, r, vanilla_tokens) -> list[str]:
    """Why one speculative decode is wrong; empty when it is right."""
    toks = r["tokens"]
    problems = []
    if len(toks) != cfg.max_new:
        problems.append(f"{len(toks)} tokens, expected {cfg.max_new}")
    if any(not 0 <= t < cfg.vocab for t in toks):
        problems.append("token out of vocab")
    tau = len(toks) / r["target_forwards"]
    if not 1 <= tau <= cfg.gamma + 1:
        problems.append(f"tau {tau} outside [1, {cfg.gamma + 1}]")
    want = cfg.gamma - 1 if cfg.method == "jakiro_full" else cfg.gamma
    if any(p != want for p in r["draft_passes_per_round"]):
        problems.append(f"draft passes per round {sorted(set(r['draft_passes_per_round']))}, "
                        f"expected {want}")
    if cfg.temperature == 0.0 and list(toks) != list(vanilla_tokens):
        problems.append("stream differs from vanilla greedy")
    return problems


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"prompt {i}: {'; '.join(problems)}")


def tail(samples: list[float]) -> tuple[int, float]:
    """(p, value): the highest integer percentile with at least MIN_BEYOND
    samples above its nearest-rank value; the maximum when n is too small."""
    xs = sorted(samples)
    n = len(xs)
    if n <= MIN_BEYOND:
        return 100, xs[-1]
    p = 100 * (n - MIN_BEYOND) // n
    return p, xs[math.ceil(p * n / 100) - 1]


def run_plain(cfg, vcfg, target, draft, seconds, probe):
    """End-to-end run: untraced decodes of the method and vanilla.

    A host-speed probe runs between consecutive prompts, and each prompt's
    times are scaled by REFERENCE_MS over the mean of the probes on either
    side (see calibrate.py); the raw sums are reported alongside.
    """
    stream = PromptStream(cfg)
    decode(cfg, target, draft, *stream[0])  # warm-up, not counted
    decode(vcfg, target, draft, *stream[0])
    ops = Ops()
    ms, vms, probes = [], [], []
    raw = defaultdict(float)
    before = probe.run()
    t_end = time.perf_counter() + seconds
    i = 0
    while i < REFERENCE_PROMPTS or time.perf_counter() < t_end:
        prompt, ss = stream[i]
        try:
            r, t = decode(cfg, target, draft, prompt, ss)
            vr, vt = decode(vcfg, target, draft, prompt, ss)
        except Exception as e:  # an operation that raises is a failed operation
            ops.record(i, [repr(e)])
        else:
            ops.record(i, check_op(cfg, r, vr["tokens"]))
            after = probe.run()
            scale = REFERENCE_MS / ((before + after) / 2)
            before = after
            probes.append(after)
            ms.append(t * scale)
            vms.append(vt * scale)
            raw["ms"] += t
            raw["vanilla_ms"] += vt
            raw["tokens"] += len(r["tokens"])
            raw["vanilla_tokens"] += len(vr["tokens"])
            raw["target_forwards"] += r["target_forwards"]
        i += 1
    p, tail_ms = tail(ms)
    metrics = {
        "ms_per_token": (sum(ms) / raw["tokens"], "ms"),
        "prompt_ms_p50": (statistics.median(ms), "ms"),
        "prompt_ms_tail": (tail_ms, "ms"),
        "vanilla_ms_per_token": (sum(vms) / raw["vanilla_tokens"], "ms"),
    }
    return ops, metrics, {
        "prompts": len(ms), "tail_percentile": p, "tokens": int(raw["tokens"]),
        "tau": raw["tokens"] / raw["target_forwards"],
        "raw_ms_per_token": raw["ms"] / raw["tokens"],
        "raw_vanilla_ms_per_token": raw["vanilla_ms"] / raw["vanilla_tokens"],
        "probe_ms_mean": statistics.fmean(probes)}


def _same_decode(a: dict, b: dict) -> bool:
    """Equal streams and counters; only the wall time may differ."""
    return {k: v for k, v in a.items() if k != "wall_ms"} == {k: v for k, v in b.items() if k != "wall_ms"}


def run_traced(cfg, vcfg, target, draft, seconds, tracer, probe):
    """Traced run: each prompt decoded traced, then untraced for the overhead
    figure and the check that tracing changes no emitted token."""
    stream = PromptStream(cfg)
    decode(cfg, target, draft, *stream[0])  # warm-up, not counted
    decode(vcfg, target, draft, *stream[0])
    ops = Ops()
    timing = defaultdict(float)
    probes = [probe.run()]
    t_end = time.perf_counter() + seconds
    i = 0
    while i < REFERENCE_PROMPTS or time.perf_counter() < t_end:
        prompt, ss = stream[i]
        try:
            with tracer.installed(target):
                tracer.begin_op(i, "method")
                rt, t_traced = decode(cfg, target, draft, prompt, ss)
                tracer.begin_op(i, "vanilla")
                vrt, _ = decode(vcfg, target, draft, prompt, ss)
            r, t = decode(cfg, target, draft, prompt, ss)
            vr, vt = decode(vcfg, target, draft, prompt, ss)
        except Exception as e:  # an operation that raises is a failed operation
            ops.record(i, [repr(e)])
        else:
            problems = check_op(cfg, r, vr["tokens"])
            if not (_same_decode(rt, r) and _same_decode(vrt, vr)):
                problems.append("tracing changed the decode")
            ops.record(i, problems)
            timing["traced_ms"] += t_traced
            timing["ms"] += t
            timing["vanilla_ms"] += vt
            timing["tokens"] += len(r["tokens"])
            timing["vanilla_tokens"] += len(vr["tokens"])
        probes.append(probe.run())
        i += 1
    return ops, dict(timing), {"prompts": i, "probe_ms_mean": statistics.fmean(probes)}


def layer_metrics(tracer, timing, setup, train_info, scale) -> dict:
    """Per-layer metrics from the spans of the method decodes; times are
    multiplied by ``scale``, the run's host-speed factor."""
    spans = tracer.spans
    selft = self_times(spans)
    by_name = defaultdict(list)
    for idx, s in enumerate(spans):
        by_name[(s[PHASE], s[NAME])].append(idx)

    def method(name):
        return by_name[("method", name)]

    def ref(idxs):
        return [i for i in idxs if spans[i][PROMPT] < REFERENCE_PROMPTS]

    def total_ns(idxs, table=None):
        if table is None:
            return sum(spans[i][END] - spans[i][START] for i in idxs)
        return sum(table[i] for i in idxs)

    def per(num, den):
        return num / den if den else 0.0

    def attr(idxs, key):
        return sum(spans[i][ATTRS][key] for i in idxs)

    decodes = method("bench.decode_prompt")
    verifies = method("verify.verify_tree")
    tree_kv = method("target.forward_tree_kv")
    steps = by_name[("method", "target.forward_cached")] + by_name[("vanilla", "target.forward_cached")]
    commits = method("target.commit_rows")
    opens = method("draft.begin_round")
    levels = method("draft.tree_level")
    prefills = method("draft.prefill")
    grows = [i for g in GROWERS for i in method("tree." + g)]
    rounds = len(verifies)
    ref_rounds = len(ref(verifies))
    ref_tokens = attr(ref(decodes), "tokens")
    ref_forwards = attr(ref(decodes), "target_forwards")
    ref_vanilla_forwards = attr(ref(by_name[("vanilla", "bench.decode_prompt")]), "target_forwards")

    m = {
        "target.verify_ms_per_round": (per(total_ns(tree_kv), len(tree_kv)) / 1e6, "ms"),
        "target.rows_per_verify": (per(attr(ref(tree_kv), "rows"), len(ref(tree_kv))), "count"),
        "target.verify_us_per_row": (per(total_ns(tree_kv), attr(tree_kv, "rows")) / 1e3, "us"),
        "target.verify_gflops": (per(attr(tree_kv, "flops"), total_ns(tree_kv)), "GFLOP/s"),
        "target.step_us": (per(total_ns(steps), len(steps)) / 1e3, "us"),
        "target.commit_us_per_round": (per(total_ns(commits), rounds) / 1e3, "us"),
        "draft.open_ms": (per(total_ns(opens), len(opens)) / 1e6, "ms"),
        "draft.level_ms": (per(total_ns(levels), len(levels)) / 1e6, "ms"),
        "draft.rows_per_level": (per(attr(ref(levels), "rows"), len(ref(levels))), "count"),
        "draft.level_us_per_row": (per(total_ns(levels), attr(levels, "rows")) / 1e3, "us"),
        "draft.passes_per_round": (per(len(ref(opens)) + len(ref(levels)), ref_rounds), "count"),
        "draft.prefill_ms": (per(total_ns(prefills), len(prefills)) / 1e6, "ms"),
        "tree.grow_self_ms_per_round": (per(total_ns(grows, selft), len(grows)) / 1e6, "ms"),
        "tree.nodes_per_round": (per(attr(ref(grows), "nodes"), len(ref(grows))), "count"),
        "verify.walk_self_us_per_round": (per(total_ns(verifies, selft), rounds) / 1e3, "us"),
        "verify.tau": (per(ref_tokens, ref_forwards), "tok/round"),
        "verify.accepted_per_node": (per(attr(ref(verifies), "accepted"), attr(ref(grows), "nodes")),
                                     "ratio"),
    }

    ref_calls = defaultdict(int)
    calls = defaultdict(int)
    ns = defaultdict(int)
    for (prompt, phase), counters in tracer.kernels.items():
        if phase != "method":
            continue
        for k, (c, t) in counters.items():
            calls[k] += c
            ns[k] += t
            if prompt < REFERENCE_PROMPTS:
                ref_calls[k] += c
    for k in KERNELS:
        m[f"kernels.{k}.calls_per_token"] = (per(ref_calls[k], ref_tokens), "1/tok")
        m[f"kernels.{k}.us_per_call"] = (per(ns[k], calls[k]) / 1e3, "us")
    m["bench.decode_self_ms_per_round"] = (per(total_ns(decodes, selft), rounds) / 1e6, "ms")
    for k, (v, unit) in m.items():
        if unit in ("ms", "us"):
            m[k] = (v * scale, unit)
    m["target.verify_gflops"] = (m["target.verify_gflops"][0] / scale, "GFLOP/s")

    m["train.corpus_s"] = (setup["corpus_s"], "s")
    m["train.step_ms"] = (setup["step_ms"], "ms")
    m["train.final_loss"] = (train_info["final_loss"], "loss")
    m["bench.speedup_vs_vanilla"] = (per(per(timing["vanilla_ms"], timing["vanilla_tokens"]),
                                         per(timing["ms"], timing["tokens"])), "x")
    m["bench.forward_ratio"] = (per(ref_vanilla_forwards, ref_forwards), "x")
    m["trace.overhead_pct"] = ((per(timing["traced_ms"], timing["ms"]) - 1.0) * 100.0, "%")

    # self-time shares of the method decodes; kernels are counters, not
    # spans, so their time stays with the layer that called them
    by_layer = defaultdict(int)
    for idx, s in enumerate(spans):
        if s[PHASE] == "method":
            by_layer[layer_of(s[NAME])] += selft[idx]
    whole = total_ns(decodes)
    for layer in ("bench", "tree", "draft", "target", "verify"):
        m[f"{layer}.self_pct"] = (per(by_layer[layer], whole) * 100.0, "%")
    return m


def git_commit():
    """HEAD's commit when the tree is a git checkout, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamps() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def workload_config(name: str, seed: int) -> RunConfig:
    cfg = RunConfig(**WORKLOADS[name], **COMMON, seed=seed, n_prompts=REFERENCE_PROMPTS)
    cfg.validate()
    return cfg


def run_workload(name, args, target, draft, setup, train_info, probe):
    cfg = workload_config(name, args.seed)
    vcfg = replace(cfg, method="vanilla")
    if args.trace:
        tracer = Tracer()
        ops, timing, info = run_traced(cfg, vcfg, target, draft, args.seconds, tracer, probe)
        metrics = layer_metrics(tracer, timing, setup, train_info,
                                REFERENCE_MS / info["probe_ms_mean"])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}.json", {"workload": name, "seed": args.seed})
    else:
        ops, metrics, info = run_plain(cfg, vcfg, target, draft, args.seconds, probe)
        metrics["setup_s"] = (setup["setup_s"], "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        info["note"] = (f"prompt_ms_tail is p{info['tail_percentile']} of n={info['prompts']} "
                        f"prompts; setup_s is the median of {setup['repeats']} set-ups at "
                        f"{setup['size']:g} of the ROADMAP config; decode times are scaled "
                        f"to a {REFERENCE_MS} ms host-speed probe")
    return ops, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    probe = Probe()
    probe.run()  # warm-up
    setup_tracer = Tracer()
    setup_tracer.begin_op(-1, "setup")
    with setup_tracer.installed() if args.trace else nullcontext():
        setup = timed_setups()
    step_ns = [s[END] - s[START] for s in setup_tracer.spans if s[NAME] == "train.train_step"]
    setup["step_ms"] = statistics.median(step_ns) / 1e6 if step_ns else 0.0
    target, draft, train_info = bench_models()
    env = stamps()
    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"stamps {json.dumps(env, sort_keys=True)}")
    if not train_info["cached"]:
        print(f"trained the bench draft in {train_info['setup_s']:.1f} s "
              f"(final loss {train_info['final_loss']:.6f})")

    results = {}
    for name in names:
        ops, metrics, info = run_workload(name, args, target, draft, setup, train_info, probe)
        results[name] = (ops, metrics)
        print(f"[{name}] {json.dumps(WORKLOADS[name])} ops attempted={ops.attempted} "
              f"succeeded={ops.attempted - ops.failed} failed={ops.failed}")
        print(f"[{name}] info {json.dumps(info, sort_keys=True)}")
        for reason in ops.reasons:
            print(f"[{name}] FAILED {reason}", file=sys.stderr)
        for k, (v, unit) in metrics.items():
            print(f"[{name}] {k:36s} {v:14.6f} {unit}")
        report = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "stamps": env, "info": info,
                  "attempted": ops.attempted, "failed": ops.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    attempted = sum(o.attempted for o, _ in results.values())
    failed = sum(o.failed for o, _ in results.values())
    if len(names) == 1:
        flat = results[names[0]][1]
    else:
        flat = {f"{n}.{k}": vu for n, (_, ms) in results.items() for k, vu in ms.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in flat.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
