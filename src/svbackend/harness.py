"""Experiment orchestration: config, pipeline assembly, and report CSVs.

The full-scale corpora behind the domain-mismatch findings are
proprietary, so experiments run on the synthetic generator with two
domains whose offset and duration-noise knobs are calibrated (see
``default_experiment_config``) to make the out-domain system degrade
materially at full length and the gap close as utterances shrink.

An experiment is a pure function of its config: generator seeds for the
evaluation and cohort draws are derived from each run seed by the fixed
offsets below, so every emitted CSV row can be reproduced by composing
the individual CLI subcommands by hand.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (
    Dataset,
    GeneratorConfig,
    TrialList,
    apply_duration_noise,
    generator_config_from_dict,
    reject_unknown_keys,
    synth_dataset,
)
from .gplda import PldaModel, ScoreSet, length_normalize, score_trials, train_gplda
from .idv import IdvTransform, apply_idv, estimate_modified_idv, estimate_original_idv
from .lda import LdaTransform, apply_lda, train_lda
from .metrics import DcfParams, MetricReportRow, evaluate, write_metric_report
from .scorenorm import Cohort, matched_length_cohort, snorm

# Seed-derivation offsets relative to each run seed.  Fixed so that the
# individual pipeline stages can be replayed from the CLI.
EVAL_SEED_OFFSET = 101
NIST_COHORT_SEED_OFFSET = 211
SWB_COHORT_SEED_OFFSET = 307
DURATION_NOISE_SEED_OFFSET = 401  # + duration grid index
COHORT_NOISE_SEED_OFFSET = 601  # + duration grid index
IDV_SUBSET_SEED_OFFSET = 701

IDV_CHOICES = ("off", "original", "modified")
SNORM_CHOICES = ("off", "swb-style", "nist-style", "matched-length")

SYSTEM_OUT = "out-domain"
SYSTEM_IN = "in-domain"
SYSTEM_IDV = "idv"
SYSTEM_MODIFIED_IDV = "modified-idv"

PLOT_COLUMNS = ["duration", "system", "metric", "value", "gain_pct"]

#: EER percentages reported for the original full-scale NIST SRE 2008
#: short2-short3 evaluation of these three systems (without / with
#: S-normalization).  Reference only; not reproducible at desk scale.
FULL_SCALE_IDV_REFERENCE = (
    (SYSTEM_OUT, 4.86, 3.85),
    (SYSTEM_IDV, 4.37, 3.55),
    (SYSTEM_MODIFIED_IDV, 3.79, 3.29),
)

#: Full-scale EER percentages for the modified-IDV system with
#: full-length vs matched-length score-normalization data.
FULL_SCALE_MATCHED_SNORM_REFERENCE = (
    ("10", 17.63, 17.64),
    ("20", 12.36, 12.36),
    ("30", 9.47, 9.47),
    ("40", 7.41, 7.09),
    ("50", 6.09, 5.85),
)

#: Full-scale headline numbers: in-domain training gains more than 28%
#: EER/DCF over out-domain at full length; modified IDV recovers 26%
#: (SWB cohort) / 14% (NIST cohort) of the out-domain gap.
FULL_SCALE_HEADLINE_GAINS_PCT = {
    "in_domain_over_out_domain_full_length_min": 28.0,
    "modified_idv_over_out_domain_swb_snorm": 26.0,
    "modified_idv_over_out_domain_nist_snorm": 14.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one synthetic study; serializable to JSON."""

    generator: GeneratorConfig
    idv: str = "modified"
    lda_dim: int = 150
    snorm: str = "off"
    plda_q: int = 120
    plda_iters: int = 20
    durations: tuple[float | None, ...] = (None, 50.0, 40.0, 30.0, 20.0, 10.0)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "results"
    eval_speakers: int = 100
    eval_sessions: int = 5
    cohort_speakers: int = 150
    cohort_sessions: int = 10
    swb_cohort_size: int = 1500
    idv_out_count: int | None = None
    idv_in_count: int | None = None
    idv_ridge: float = 1e-6
    lda_ridge: float = 1e-6
    idv_on_eval: bool = True
    lda_on_compensated: bool = True
    length_norm_before_lda: bool = False
    dcf: DcfParams = DcfParams()

    def __post_init__(self) -> None:
        if self.idv not in IDV_CHOICES:
            raise ValueError(f"idv must be one of {IDV_CHOICES}")
        if self.snorm not in SNORM_CHOICES:
            raise ValueError(f"snorm must be one of {SNORM_CHOICES}")
        if not self.durations:
            raise ValueError("need at least one evaluation duration")
        for d in self.durations:
            if d is not None and not d > 0:
                raise ValueError("durations must be positive (None means full length)")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.eval_sessions < 2:
            raise ValueError("eval_sessions must be at least 2 (one enrol, one test)")
        if self.lda_dim < 1 or self.plda_q < 1:
            raise ValueError("lda_dim and plda_q must be positive")
        object.__setattr__(self, "durations", tuple(self.durations))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


def duration_label(d: float | None) -> str:
    return "full" if d is None else f"{d:g}"


# ---------------------------------------------------------------------------
# config (de)serialization


def config_to_dict(cfg: ExperimentConfig) -> dict:
    gen = cfg.generator
    return {
        "generator": {
            "dim": gen.dim,
            "n_speakers": gen.n_speakers,
            "sessions_per_speaker": gen.sessions_per_speaker,
            "eigenvoice_dim": gen.eigenvoice_dim,
            "speaker_scale": gen.speaker_scale,
            "channel_scale": gen.channel_scale,
            "out_channel_scale": gen.out_channel_scale,
            "domain_offset": np.asarray(gen.domain_offset).tolist(),
            "duration_ref_sec": gen.duration_ref_sec,
            "duration_noise_scale": gen.duration_noise_scale,
            "duration_noise_exponent": gen.duration_noise_exponent,
            "seed": gen.seed,
            "subspace_seed": gen.subspace_seed,
        },
        "idv": cfg.idv,
        "lda_dim": cfg.lda_dim,
        "snorm": cfg.snorm,
        "plda_q": cfg.plda_q,
        "plda_iters": cfg.plda_iters,
        "durations": [duration_label(d) for d in cfg.durations],
        "seeds": list(cfg.seeds),
        "output_dir": cfg.output_dir,
        "eval_speakers": cfg.eval_speakers,
        "eval_sessions": cfg.eval_sessions,
        "cohort_speakers": cfg.cohort_speakers,
        "cohort_sessions": cfg.cohort_sessions,
        "swb_cohort_size": cfg.swb_cohort_size,
        "idv_out_count": cfg.idv_out_count,
        "idv_in_count": cfg.idv_in_count,
        "idv_ridge": cfg.idv_ridge,
        "lda_ridge": cfg.lda_ridge,
        "idv_on_eval": cfg.idv_on_eval,
        "lda_on_compensated": cfg.lda_on_compensated,
        "length_norm_before_lda": cfg.length_norm_before_lda,
        "dcf": {"c_miss": cfg.dcf.c_miss, "c_fa": cfg.dcf.c_fa, "p_target": cfg.dcf.p_target},
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of ``config_to_dict``; unknown keys raise ``ValueError`` naming them."""
    reject_unknown_keys(d, ExperimentConfig, "experiment config")
    d = dict(d)
    gen = generator_config_from_dict(d.pop("generator", {}))
    durations = tuple(
        None if x in (None, "full") else float(x) for x in d.pop("durations", ["full"])
    )
    dcf_d = d.pop("dcf", None)
    if dcf_d:
        reject_unknown_keys(dcf_d, DcfParams, "dcf")
    dcf = DcfParams(**dcf_d) if dcf_d else DcfParams()
    seeds = tuple(d.pop("seeds", [0]))
    return ExperimentConfig(generator=gen, durations=durations, seeds=seeds, dcf=dcf, **d)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# data assembly


@dataclass(frozen=True)
class RunData:
    """All datasets of one experiment repetition (one run seed)."""

    train_in: Dataset
    train_out: Dataset
    eval_in: Dataset
    nist_cohort: Dataset
    swb_cohort: Dataset
    enrol_pos: tuple[int, ...]
    test_pos: tuple[int, ...]
    trials: TrialList


def build_trials(eval_ds: Dataset) -> tuple[tuple[int, ...], tuple[int, ...], TrialList]:
    """First session of each speaker enrols; all remaining sessions are tested
    against every enrolment (full cross trial list, enrolment-major)."""
    labeled = np.flatnonzero(eval_ds.speaker_code >= 0)
    pos = labeled[np.argsort(eval_ds.speaker_code[labeled], kind="stable")]
    code = eval_ds.speaker_code[pos]
    first = np.ones(pos.size, dtype=bool)  # a speaker's first row in dataset order
    first[1:] = code[1:] != code[:-1]
    enrol_pos, test_pos = pos[first], pos[~first]
    n_e, n_t = len(enrol_pos), len(test_pos)
    ids = eval_ds.ids
    trials = TrialList(
        [ids[e] for e in enrol_pos.tolist()],
        [ids[t] for t in test_pos.tolist()],
        np.repeat(np.arange(n_e), n_t),
        np.tile(np.arange(n_t), n_e),
        (code[first][:, None] == code[~first][None, :]).ravel(),
    )
    return tuple(enrol_pos.tolist()), tuple(test_pos.tolist()), trials


def make_run_data(cfg: ExperimentConfig, seed: int) -> RunData:
    """Draw training, evaluation, and cohort datasets for one run seed.

    All draws share the run's ground-truth subspace; evaluation and
    cohort speakers are fresh."""
    base = replace(cfg.generator, seed=seed, subspace_seed=seed)
    train_in, train_out = synth_dataset(base)
    eval_in, _ = synth_dataset(
        replace(
            base,
            seed=seed + EVAL_SEED_OFFSET,
            n_speakers=cfg.eval_speakers,
            sessions_per_speaker=cfg.eval_sessions,
        )
    )
    nist_cohort, _ = synth_dataset(
        replace(
            base,
            seed=seed + NIST_COHORT_SEED_OFFSET,
            n_speakers=cfg.cohort_speakers,
            sessions_per_speaker=cfg.cohort_sessions,
        )
    )
    swb_speakers = math.ceil(cfg.swb_cohort_size / cfg.cohort_sessions)
    _, swb_all = synth_dataset(
        replace(
            base,
            seed=seed + SWB_COHORT_SEED_OFFSET,
            n_speakers=swb_speakers,
            sessions_per_speaker=cfg.cohort_sessions,
        )
    )
    swb_cohort = swb_all.subset(range(cfg.swb_cohort_size))
    enrol_pos, test_pos, trials = build_trials(eval_in)
    return RunData(
        train_in, train_out, eval_in, nist_cohort, swb_cohort, enrol_pos, test_pos, trials
    )


def subsample(ds: Dataset, count: int | None, seed: int) -> Dataset:
    """Deterministic random subset without replacement (None keeps all)."""
    if count is None or count >= len(ds):
        return ds
    rng = np.random.default_rng(seed)
    pos = np.sort(rng.choice(len(ds), size=count, replace=False))
    return ds.subset(pos.tolist())


# ---------------------------------------------------------------------------
# pipeline assembly


@dataclass(frozen=True)
class Backend:
    """A trained compensation chain plus its PLDA scoring model."""

    idv: IdvTransform | None
    lda: LdaTransform
    plda: PldaModel
    length_norm_first: bool = False

    def project(self, ds: Dataset, with_idv: bool = True) -> Dataset:
        if self.idv is not None and with_idv:
            ds = apply_idv(self.idv, ds)
        if self.length_norm_first:
            return apply_lda(self.lda, length_normalize(ds))
        return length_normalize(apply_lda(self.lda, ds))


def train_backend(
    cfg: ExperimentConfig,
    train: Dataset,
    idv_transform: IdvTransform | None,
    seed: int,
) -> Backend:
    """Train LDA and PLDA behind an (optional) IDV compensation.

    The configured LDA dimension and eigenvoice count are clamped to
    what the training data can support, with a warning."""
    compensated = apply_idv(idv_transform, train) if idv_transform is not None else train
    stats_ds = compensated if cfg.lda_on_compensated else train
    if cfg.length_norm_before_lda:
        stats_ds = length_normalize(stats_ds)
    k = min(cfg.lda_dim, train.dim, len(train.speakers) - 1)
    if k < cfg.lda_dim:
        warnings.warn(
            f"LDA dimension clamped from {cfg.lda_dim} to {k} (rank limit)", stacklevel=2
        )
    lda_t = train_lda(stats_ds, k, cfg.lda_ridge)
    if cfg.length_norm_before_lda:
        plda_train = apply_lda(lda_t, length_normalize(compensated))
    else:
        plda_train = length_normalize(apply_lda(lda_t, compensated))
    q = min(cfg.plda_q, k)
    if q < cfg.plda_q:
        warnings.warn(f"eigenvoice count clamped from {cfg.plda_q} to {q}", stacklevel=2)
    plda = train_gplda(plda_train, q=q, iters=cfg.plda_iters, seed=seed)
    return Backend(idv_transform, lda_t, plda, cfg.length_norm_before_lda)


def estimate_idv_for_run(
    cfg: ExperimentConfig, data: RunData, seed: int, variant: str
) -> IdvTransform:
    """IDV estimation uses (a subset of) out-domain training data against
    the in-domain normalization cohort, both speaker-unlabeled."""
    out_ds = subsample(data.train_out, cfg.idv_out_count, seed + IDV_SUBSET_SEED_OFFSET)
    in_ds = subsample(data.nist_cohort, cfg.idv_in_count, seed + IDV_SUBSET_SEED_OFFSET + 1)
    if variant == "original":
        return estimate_original_idv(out_ds, in_ds, cfg.idv_ridge)
    if variant == "modified":
        return estimate_modified_idv(out_ds, in_ds, cfg.idv_ridge)
    raise ValueError(f"unknown IDV variant '{variant}'")


def evaluate_backend(
    cfg: ExperimentConfig,
    backend: Backend,
    data: RunData,
    duration: float | None,
    grid_index: int,
    seed: int,
    snorm_style: str,
    matched_base: str = "nist-style",
) -> tuple[ScoreSet, str]:
    """Score the evaluation trials at one duration; returns the score set
    and which score column ("raw" or "normalized") carries the result.

    ``matched_base`` selects which cohort the matched-length style
    truncates."""
    noise = cfg.generator.noise_model
    eval_ds = data.eval_in
    if duration is not None:
        eval_ds = apply_duration_noise(
            eval_ds, duration, noise, seed + DURATION_NOISE_SEED_OFFSET + grid_index
        )
    proj = backend.project(eval_ds, with_idv=cfg.idv_on_eval)
    enrol = proj.subset(data.enrol_pos)
    test = proj.subset(data.test_pos)
    scores = score_trials(backend.plda, enrol, test, data.trials)
    if snorm_style == "off":
        return scores, "raw"
    base_style = matched_base if snorm_style == "matched-length" else snorm_style
    if base_style == "swb-style":
        raw_cohort = Cohort(data.swb_cohort, "swb-style")
    else:
        raw_cohort = Cohort(data.nist_cohort, "nist-style")
    if snorm_style == "matched-length" and duration is not None:
        raw_cohort = matched_length_cohort(
            raw_cohort, duration, noise, seed + COHORT_NOISE_SEED_OFFSET + grid_index
        )
    cohort = Cohort(
        backend.project(raw_cohort.vectors, with_idv=cfg.idv_on_eval), raw_cohort.label
    )
    return snorm(backend.plda, scores, enrol, test, cohort), "normalized"


# ---------------------------------------------------------------------------
# experiment runs


@dataclass(frozen=True)
class PlotRow:
    duration: str
    system: str
    metric: str
    value: float
    gain_pct: float | None


def write_plot_rows(rows: Sequence[PlotRow], path: str | Path) -> None:
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(PLOT_COLUMNS)
        for r in rows:
            w.writerow(
                [
                    r.duration,
                    r.system,
                    r.metric,
                    repr(r.value),
                    "" if r.gain_pct is None else repr(r.gain_pct),
                ]
            )


@dataclass(frozen=True)
class ExperimentResult:
    report_rows: tuple[MetricReportRow, ...]
    plot_rows: tuple[PlotRow, ...]
    files: tuple[Path, ...]

    def mean_value(self, duration: str, system: str, metric: str) -> float:
        for r in self.plot_rows:
            if (r.duration, r.system, r.metric) == (duration, system, metric):
                return r.value
        raise KeyError((duration, system, metric))


def _mean_rows(
    report_rows: Sequence[MetricReportRow],
    durations: Sequence[str],
    systems: Sequence[str],
    baseline: str | None,
) -> list[PlotRow]:
    """Per-(duration, system) seed means, with relative gain vs a baseline."""

    def mean_of(duration: str, system: str, metric: str) -> float:
        vals = [
            getattr(r, metric)
            for r in report_rows
            if r.system == system and f"dur={duration}" in r.condition.split("/")
        ]
        if not vals:
            raise ValueError(f"no rows for {system} at duration {duration}")
        return float(np.mean(vals))

    rows: list[PlotRow] = []
    for duration in durations:
        for metric in ("eer", "min_dcf"):
            base_val = mean_of(duration, baseline, metric) if baseline else None
            for system in systems:
                val = mean_of(duration, system, metric)
                gain = None
                if baseline and system != baseline and base_val:
                    gain = 100.0 * (base_val - val) / base_val
                rows.append(PlotRow(duration, system, metric, val, gain))
    return rows


def run_in_vs_out_domain(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Train PLDA on in-domain vs out-domain data and sweep the duration grid.

    With ``cfg.idv`` set, the out-domain system additionally gets that
    IDV compensation variant (the in-domain system never needs one).
    Emits one report row per (seed, duration, system) and a seed-mean
    plot table with the in-domain relative gain per duration."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_rows: list[MetricReportRow] = []
    for seed in cfg.seeds:
        data = make_run_data(cfg, seed)
        out_idv = (
            None if cfg.idv == "off" else estimate_idv_for_run(cfg, data, seed, cfg.idv)
        )
        backends = {
            SYSTEM_OUT: train_backend(cfg, data.train_out, out_idv, seed),
            SYSTEM_IN: train_backend(cfg, data.train_in, None, seed),
        }
        for gi, duration in enumerate(cfg.durations):
            for system, backend in backends.items():
                scores, which = evaluate_backend(cfg, backend, data, duration, gi, seed, cfg.snorm)
                report_rows.append(
                    evaluate(
                        scores,
                        condition=f"seed={seed}/dur={duration_label(duration)}",
                        system=system,
                        params=cfg.dcf,
                        which=which,
                    )
                )
    labels = [duration_label(d) for d in cfg.durations]
    plot_rows = _mean_rows(report_rows, labels, [SYSTEM_OUT, SYSTEM_IN], baseline=SYSTEM_OUT)
    report_path = out / "in_vs_out_report.csv"
    plot_path = out / "in_vs_out_plot.csv"
    write_metric_report(report_rows, report_path)
    write_plot_rows(plot_rows, plot_path)
    return ExperimentResult(tuple(report_rows), tuple(plot_rows), (report_path, plot_path))


def run_idv_comparison(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Compare uncompensated, IDV, and modified-IDV out-domain systems,
    with and without S-normalization, over the duration grid."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with_style = cfg.snorm if cfg.snorm != "off" else "nist-style"
    report_rows: list[MetricReportRow] = []
    for seed in cfg.seeds:
        data = make_run_data(cfg, seed)
        backends = {
            SYSTEM_OUT: train_backend(cfg, data.train_out, None, seed),
            SYSTEM_IDV: train_backend(
                cfg, data.train_out, estimate_idv_for_run(cfg, data, seed, "original"), seed
            ),
            SYSTEM_MODIFIED_IDV: train_backend(
                cfg, data.train_out, estimate_idv_for_run(cfg, data, seed, "modified"), seed
            ),
        }
        for gi, duration in enumerate(cfg.durations):
            for style in ("off", with_style):
                for system, backend in backends.items():
                    scores, which = evaluate_backend(cfg, backend, data, duration, gi, seed, style)
                    report_rows.append(
                        evaluate(
                            scores,
                            condition=f"seed={seed}/dur={duration_label(duration)}/snorm={style}",
                            system=f"{system}|snorm={style}",
                            params=cfg.dcf,
                            which=which,
                        )
                    )
    labels = [duration_label(d) for d in cfg.durations]
    plot_rows: list[PlotRow] = []
    for style in ("off", with_style):
        systems = [f"{s}|snorm={style}" for s in (SYSTEM_OUT, SYSTEM_IDV, SYSTEM_MODIFIED_IDV)]
        plot_rows.extend(_mean_rows(report_rows, labels, systems, baseline=systems[0]))
    report_path = out / "idv_comparison_report.csv"
    plot_path = out / "idv_comparison_plot.csv"
    ref_path = out / "idv_comparison_reference_full_scale.csv"
    write_metric_report(report_rows, report_path)
    write_plot_rows(plot_rows, plot_path)
    _write_simple_csv(
        ref_path,
        ["system", "eer_pct_without_snorm", "eer_pct_with_snorm"],
        FULL_SCALE_IDV_REFERENCE,
    )
    return ExperimentResult(tuple(report_rows), tuple(plot_rows), (report_path, plot_path, ref_path))


def run_matched_length_snorm(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Modified-IDV system scored with full-length vs matched-length
    normalization cohorts at each truncated duration."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base_style = cfg.snorm if cfg.snorm in ("swb-style", "nist-style") else "nist-style"
    durations = [d for d in cfg.durations if d is not None]
    if not durations:
        raise ValueError("matched-length study needs at least one finite duration")
    report_rows: list[MetricReportRow] = []
    for seed in cfg.seeds:
        data = make_run_data(cfg, seed)
        backend = train_backend(
            cfg, data.train_out, estimate_idv_for_run(cfg, data, seed, "modified"), seed
        )
        for gi, duration in enumerate(durations):
            for cohort_kind, style in (("full-length", base_style), ("matched", "matched-length")):
                scores, which = evaluate_backend(
                    cfg, backend, data, duration, gi, seed, style, matched_base=base_style
                )
                report_rows.append(
                    evaluate(
                        scores,
                        condition=f"seed={seed}/dur={duration_label(duration)}/cohort={cohort_kind}",
                        system=f"{SYSTEM_MODIFIED_IDV}|cohort={cohort_kind}",
                        params=cfg.dcf,
                        which=which,
                    )
                )
    labels = [duration_label(d) for d in durations]
    systems = [f"{SYSTEM_MODIFIED_IDV}|cohort={k}" for k in ("full-length", "matched")]
    plot_rows = _mean_rows(report_rows, labels, systems, baseline=systems[0])
    report_path = out / "matched_snorm_report.csv"
    plot_path = out / "matched_snorm_plot.csv"
    ref_path = out / "matched_snorm_reference_full_scale.csv"
    write_metric_report(report_rows, report_path)
    write_plot_rows(plot_rows, plot_path)
    _write_simple_csv(
        ref_path,
        ["duration_sec", "eer_pct_full_length_cohort", "eer_pct_matched_cohort"],
        FULL_SCALE_MATCHED_SNORM_REFERENCE,
    )
    return ExperimentResult(tuple(report_rows), tuple(plot_rows), (report_path, plot_path, ref_path))


def _write_simple_csv(path: Path, columns: list[str], rows: Sequence[tuple]) -> None:
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow(list(row))


EXPERIMENT_KINDS = ("in-vs-out", "idv-comparison", "matched-snorm")


def run_experiment(
    cfg: ExperimentConfig, kind: str, out_dir: str | Path | None = None
) -> dict[str, ExperimentResult]:
    """Dispatch one experiment kind, or 'all'."""
    runs = {
        "in-vs-out": run_in_vs_out_domain,
        "idv-comparison": run_idv_comparison,
        "matched-snorm": run_matched_length_snorm,
    }
    if kind == "all":
        return {k: fn(cfg, out_dir) for k, fn in runs.items()}
    if kind not in runs:
        raise ValueError(f"unknown experiment kind '{kind}' (choose from {EXPERIMENT_KINDS + ('all',)})")
    return {kind: runs[kind](cfg, out_dir)}


# ---------------------------------------------------------------------------
# calibrated desk-scale defaults


def _default_domain_offset(dim: int, norm: float) -> np.ndarray:
    rng = np.random.default_rng(0xD07)
    v = rng.standard_normal(dim)
    return norm * v / np.linalg.norm(v)


def default_experiment_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults calibrated for visible domain-mismatch trends.

    Dimension 50 with a 10-dimensional speaker subspace keeps a full
    sweep in minutes.  The out-domain population is shifted by a norm-12
    offset and carries heavier session noise (1.0 vs 0.65), so training
    on it costs roughly half the in-domain EER at full length; the
    duration-noise scale 0.75 washes that gap out by the 10-second
    condition.  Override any ExperimentConfig field by keyword."""
    gen = GeneratorConfig(
        dim=50,
        n_speakers=200,
        sessions_per_speaker=5,
        eigenvoice_dim=10,
        speaker_scale=1.0,
        channel_scale=0.65,
        out_channel_scale=1.0,
        domain_offset=_default_domain_offset(50, 12.0),
        duration_ref_sec=120.0,
        duration_noise_scale=0.75,
        duration_noise_exponent=0.5,
        seed=0,
    )
    base = dict(
        generator=gen,
        idv="off",
        lda_dim=20,
        snorm="off",
        plda_q=10,
        plda_iters=15,
        durations=(None, 50.0, 40.0, 30.0, 20.0, 10.0),
        seeds=(0, 1, 2, 3, 4),
        eval_speakers=100,
        eval_sessions=5,
        cohort_speakers=150,
        cohort_sessions=10,
        swb_cohort_size=1500,
        idv_out_count=None,
        idv_in_count=None,
    )
    gen_overrides = overrides.pop("generator", None)
    if gen_overrides is not None:
        base["generator"] = gen_overrides
    base.update(overrides)
    return ExperimentConfig(**base)
