"""Command-line interface for the back-end pipeline and the experiments.

Each subcommand wraps one pipeline stage so experiment rows can be
reproduced step by step: synth -> train-idv/train-lda/train-plda ->
transform -> score -> snorm -> eval, or run everything with
``experiment``.  Exits nonzero with a diagnostic naming the failing
stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from . import harness
from .dataset import (
    Domain,
    GeneratorConfig,
    generator_config_from_dict,
    load_ivectors,
    load_trials,
    save_ivectors,
    synth_domain,
)
from .gplda import (
    length_normalize,
    load_plda,
    read_scores,
    save_loglik_trace,
    save_plda,
    score_trials,
    train_gplda,
    write_scores,
)
from .idv import IdvVariant, apply_idv, estimate_idv, load_idv, save_idv
from .lda import apply_lda, load_lda, save_lda, train_lda
from .metrics import DcfParams, evaluate, write_metric_report
from .scorenorm import snorm


def _generator_from_args(args: argparse.Namespace) -> GeneratorConfig:
    flags = dict(seed="seed", dim="dim", speakers="n_speakers", sessions="sessions_per_speaker")
    overrides = {f: getattr(args, a) for a, f in flags.items() if getattr(args, a) is not None}
    if not args.config:
        fields = dict(dim=50, n_speakers=20, sessions_per_speaker=5) | overrides
        return GeneratorConfig(**fields, eigenvoice_dim=min(10, fields["dim"]))
    try:
        blob = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if isinstance(blob, dict):  # the flags replace the file's fields before any check
            blob = blob | overrides
        return generator_config_from_dict(blob)
    except ValueError as e:
        raise ValueError(f"{args.config}: {e}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _generator_from_args(args)
    in_ds, out_ds = (synth_domain(cfg, d) for d in Domain)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "ivec" if args.format == "binary" else "csv"
    save_ivectors(in_ds, out_dir / f"in_domain.{ext}", args.format)
    save_ivectors(out_ds, out_dir / f"out_domain.{ext}", args.format)
    print(f"wrote {len(in_ds)} in-domain and {len(out_ds)} out-domain i-vectors to {out_dir}")
    return 0


def _cmd_train_idv(args: argparse.Namespace) -> int:
    out_ds = load_ivectors(args.out_domain, args.format)
    in_ds = load_ivectors(args.in_domain, args.format)
    t = estimate_idv(IdvVariant(args.variant), out_ds, in_ds, args.ridge)
    save_idv(t, args.output)
    print(f"wrote {args.variant} IDV transform (dim {t.dim}, ridge {t.ridge:g}) to {args.output}")
    return 0


def _cmd_train_lda(args: argparse.Namespace) -> int:
    ds = load_ivectors(args.data, args.format)
    t = train_lda(ds, args.dim, args.ridge)
    save_lda(t, args.output)
    print(f"wrote LDA transform ({t.input_dim} -> {t.output_dim}) to {args.output}")
    return 0


def _cmd_train_plda(args: argparse.Namespace) -> int:
    ds = load_ivectors(args.data, args.format)
    m = train_gplda(ds, q=args.q, iters=args.iters, seed=args.seed)
    save_plda(m, args.output)
    trace_path = Path(args.output).with_suffix(Path(args.output).suffix + ".loglik.csv")
    save_loglik_trace(m, trace_path)
    print(
        f"wrote PLDA model (K={m.dim}, Q={m.n_eigenvoices}) to {args.output}; "
        f"log-likelihood trace in {trace_path}"
    )
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    ds = load_ivectors(args.data, args.format)
    if args.idv:
        ds = apply_idv(load_idv(args.idv), ds)
    if args.lda:
        ds = apply_lda(load_lda(args.lda), ds)
    if args.length_norm:
        ds = length_normalize(ds)
    save_ivectors(ds, args.output, args.format)
    print(f"wrote {len(ds)} transformed i-vectors (dim {ds.dim}) to {args.output}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    m = load_plda(args.model)
    enrol = load_ivectors(args.enrol, args.format)
    test = load_ivectors(args.test, args.format)
    trials = load_trials(args.trials)
    scores = score_trials(m, enrol, test, trials)
    write_scores(scores, args.output)
    print(f"scored {len(scores)} trials to {args.output}")
    return 0


def _cmd_snorm(args: argparse.Namespace) -> int:
    m = load_plda(args.model)
    scores = read_scores(args.scores)
    enrol = load_ivectors(args.enrol, args.format)
    test = load_ivectors(args.test, args.format)
    normalized = snorm(m, scores, enrol, test, load_ivectors(args.cohort, args.format))
    write_scores(normalized, args.output)
    print(f"normalized {len(normalized)} trials to {args.output}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    params = DcfParams(c_miss=args.c_miss, c_fa=args.c_fa, p_target=args.p_target)
    scores = read_scores(args.scores)
    row = evaluate(scores, condition=args.condition, system=args.system, params=params,
                   which=args.which)
    print(
        f"eer={row.eer:.6g} min_dcf={row.min_dcf:.6g} "
        f"min_dcf_normalized={row.min_dcf_normalized:.6g} "
        f"n_target={row.n_target} n_nontarget={row.n_nontarget}"
    )
    if args.report:
        write_metric_report([row], args.report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = harness.load_config(args.config) if args.config else harness.default_experiment_config()
    overrides = {}
    if args.out_dir:
        overrides["output_dir"] = args.out_dir
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.durations is not None:
        overrides["durations"] = args.durations
    if args.snorm:
        overrides["snorm"] = args.snorm
    if overrides:
        cfg = replace(cfg, **overrides)
    results = harness.run_experiment(cfg, args.kind)
    for kind, res in results.items():
        for path in res.files:
            print(f"{kind}: wrote {path}")
    snapshot = Path(cfg.output_dir) / "experiment_config.json"
    harness.save_config(cfg, snapshot)
    print(f"config snapshot: {snapshot}")
    return 0


def _comma_list(parse: Callable[[str], object], expected: str) -> Callable[[str], tuple]:
    """An argparse ``type=`` for comma-separated tokens; a bad or empty token
    is a usage error naming it."""

    def parse_list(text: str) -> tuple:
        values = []
        for tok in text.split(","):
            try:
                values.append(parse(tok))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid entry {tok!r}, expected {expected}"
                ) from None
        return tuple(values)

    return parse_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svbackend",
        description="Speaker-verification back-end pipeline and synthetic experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["binary", "csv"], default="binary",
                       help="i-vector file format")

    p = sub.add_parser("synth", help="generate synthetic in/out-domain i-vectors")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--seed", type=int, help="override generator seed")
    p.add_argument("--dim", type=int)
    p.add_argument("--speakers", type=int)
    p.add_argument("--sessions", type=int)
    p.add_argument("--out-dir", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train-idv", help="estimate an IDV compensation transform")
    p.add_argument("--out-domain", required=True)
    p.add_argument("--in-domain", required=True)
    p.add_argument("--variant", choices=[v.value for v in IdvVariant],
                   default=IdvVariant.MODIFIED.value)
    p.add_argument("--ridge", type=float, default=1e-6, help="relative diagonal ridge")
    p.add_argument("--output", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_train_idv)

    p = sub.add_parser("train-lda", help="train the LDA projection")
    p.add_argument("--data", required=True, help="labeled training i-vectors")
    p.add_argument("--dim", type=int, default=150, help="retained directions")
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--output", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_train_lda)

    p = sub.add_parser("train-plda", help="train the Gaussian PLDA model by EM")
    p.add_argument("--data", required=True, help="labeled, compensated training i-vectors")
    p.add_argument("--q", type=int, default=120, help="number of eigenvoices")
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_train_plda)

    p = sub.add_parser("transform", help="apply IDV / LDA / length normalization")
    p.add_argument("--data", required=True)
    p.add_argument("--idv", help="IDV transform file")
    p.add_argument("--lda", help="LDA transform file")
    p.add_argument("--length-norm", action="store_true")
    p.add_argument("--output", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("score", help="score a trial list with a PLDA model")
    p.add_argument("--model", required=True)
    p.add_argument("--enrol", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--output", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("snorm", help="S-normalize scores against a cohort")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--enrol", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--cohort", required=True, help="compensated cohort i-vectors")
    p.add_argument("--cohort-label", help=argparse.SUPPRESS)  # kept for old scripts; no effect
    p.add_argument("--output", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_snorm)

    p = sub.add_parser("eval", help="EER / minDCF of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--which", choices=["raw", "normalized"], default="raw")
    p.add_argument("--c-miss", type=float, default=DcfParams.c_miss)
    p.add_argument("--c-fa", type=float, default=DcfParams.c_fa)
    p.add_argument("--p-target", type=float, default=DcfParams.p_target)
    p.add_argument("--condition", default="-")
    p.add_argument("--system", default="-")
    p.add_argument("--report", help="also write a metric report CSV here (overwrites the file)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("experiment", help="run a full synthetic study")
    p.add_argument("--config", help="experiment config JSON (default: calibrated desk-scale)")
    p.add_argument("--kind", choices=list(harness.EXPERIMENT_KINDS) + ["all"], default="all")
    p.add_argument("--out-dir", help="override the config's output directory")
    p.add_argument("--seeds", type=_comma_list(int, "an integer"),
                   help="comma-separated run seeds override")
    p.add_argument("--durations", type=_comma_list(harness.parse_duration, "a number or 'full'"),
                   help="comma-separated durations override ('full' allowed)")
    p.add_argument("--snorm", choices=list(harness.SNORM_CHOICES))
    p.set_defaults(fn=_cmd_experiment)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except Exception as e:  # surface the failing stage, keep exit codes honest
        print(f"svbackend {args.command}: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
