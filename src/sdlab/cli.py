"""Command line harness.

Subcommands: gen-corpus, train, decode, bench, sweep-nk, gradcheck.
Exit codes: 0 success, 2 config error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .bench import (
    METHODS,
    ConfigError,
    InvariantError,
    Report,
    RunConfig,
    build_models,
    environment_stamp,
    load_config,
    run_bench,
    run_session,
    run_sweep_nk,
    write_report,
)
from .draft import save_draft
from .kernels import TemperatureOverflow
from .train import (
    TrainConfig,
    finite_diff_check,
    generate_distillation_corpus,
    load_corpus,
    save_corpus,
    train_draft,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _at_least(low):
    return f">= {low}", lambda v: v >= low


# the numeric flags of each subcommand that does work before it can fail;
# training reads next-token targets, so every sequence needs 2 tokens
FLAG_RULES = {
    "gen-corpus": {"--sequences": _at_least(1), "--seq-len": _at_least(2),
                   "--temperature": ("finite and >= 0", lambda v: 0 <= v < math.inf)},
    "train": {"--sequences": _at_least(1), "--seq-len": _at_least(2), "--steps": _at_least(1),
              "--lr": ("finite and > 0", lambda v: 0 < v < math.inf),
              "--batch-size": _at_least(1), "--log-every": _at_least(0)},
    # beta and alpha are always audited, so fewer than 2 coordinates is a miscount
    "gradcheck": {"--coords": _at_least(2), "--h": ("in [1e-6, 1e-4]", lambda v: 1e-6 <= v <= 1e-4),
                  "--sequences": _at_least(1), "--seq-len": _at_least(2)},
}


def _check_flags(args) -> None:
    """Reject an out-of-range or NaN numeric flag, or an output path the
    command could not write when its work is done, before any work."""
    for flag, (what, ok) in FLAG_RULES.get(args.command, {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if not ok(value):
            raise ConfigError(f"{flag}: must be {what}, got {value!r}")
    for name in ("out", "report"):
        path = getattr(args, name, None)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"--{name}: no such directory: {folder!r}")
        if os.path.isdir(path):
            raise ConfigError(f"--{name}: is a directory: {path!r}")
        if not os.access(folder, os.W_OK):
            raise ConfigError(f"--{name}: directory not writable: {folder!r}")


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "method", None):
        cfg.method = args.method
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    for warning in cfg.validate():
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def cmd_gen_corpus(args) -> int:
    cfg = _config_from_args(args)
    target, _ = build_models(cfg)
    corpus = generate_distillation_corpus(
        target, args.sequences, args.seq_len, temperature=args.temperature, seed=cfg.seed
    )
    save_corpus(corpus, args.out)
    print(f"wrote {corpus.n_sequences} sequences of length {args.seq_len} to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    target, draft = build_models(cfg)
    if args.corpus:
        try:
            corpus = load_corpus(args.corpus, target)
        except (OSError, ValueError) as e:
            raise ConfigError(f"--corpus: {e}")
    else:
        corpus = generate_distillation_corpus(target, args.sequences, args.seq_len, seed=cfg.seed)
    tc = TrainConfig(lr=args.lr, batch_size=args.batch_size, seed=cfg.seed)
    history = train_draft(draft, corpus, tc, steps=args.steps, log_every=args.log_every)
    save_draft(draft, args.out)
    print(f"trained {args.steps} steps; loss {history[0]:.6f} -> {history[-1]:.6f}; saved {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    cfg = _config_from_args(args)
    metrics = run_session(cfg)
    payload = metrics.to_dict()
    if not args.verbose:
        payload.pop("per_prompt", None)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.report:
        report = Report(config=asdict(cfg), metrics={cfg.method: metrics.to_dict()},
                        speedups={}, environment=environment_stamp())
        write_report(report, args.report)
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    methods = args.methods.split(",") if args.methods else METHODS
    report = run_bench(cfg, methods)
    summary = {
        m: {"tau": round(met["tau"], 4), "target_forwards": met["target_forwards"],
            "draft_forwards": met["draft_forwards"]}
        for m, met in report.metrics.items()
    }
    print(json.dumps({"summary": summary, "speedups": report.speedups}, indent=2, sort_keys=True))
    if args.report:
        write_report(report, args.report)
    return EXIT_OK


def cmd_sweep_nk(args) -> int:
    cfg = _config_from_args(args)
    rows = run_sweep_nk(cfg)
    print(json.dumps(rows, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _config_from_args(args)
    target, draft = build_models(cfg)
    batch = generate_distillation_corpus(target, args.sequences, args.seq_len, seed=cfg.seed)
    err = finite_diff_check(draft, batch, n_coords=args.coords, h=args.h, seed=cfg.seed)
    print(f"max relative gradient error over {args.coords} coordinates: {err:.3e}")
    if err >= 1e-3:
        print("gradient audit FAILED (threshold 1e-3)", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdlab",
                                 description="speculative decoding laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, method_flag=True):
        p.add_argument("--config", type=str, default=None, help="JSON run config")
        p.add_argument("--seed", type=int, default=None)
        if method_flag:
            p.add_argument("--method", type=str, default=None)

    p = sub.add_parser("gen-corpus", help="sample a distillation corpus from the target")
    common(p, method_flag=False)
    p.add_argument("--out", required=True)
    p.add_argument("--sequences", type=int, default=512)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=24)
    p.add_argument("--temperature", type=float, default=1.0)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="distill the draft model from the target")
    common(p, method_flag=False)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", type=str, default=None)
    p.add_argument("--sequences", type=int, default=512)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=24)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=16)
    p.add_argument("--log-every", dest="log_every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="decode prompts with one method")
    common(p)
    p.add_argument("--report", type=str, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="compare methods on one prompt set")
    common(p)
    p.add_argument("--methods", type=str, default=None, help="comma-separated method list")
    p.add_argument("--report", type=str, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep-nk", help="tau across the (N, K) expert grid")
    common(p)
    p.add_argument("--report", type=str, default=None)
    p.set_defaults(func=cmd_sweep_nk)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the training gradients")
    common(p, method_flag=False)
    p.add_argument("--coords", type=int, default=64)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--sequences", type=int, default=8)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=12)
    p.set_defaults(func=cmd_gradcheck)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ConfigError, TemperatureOverflow) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
