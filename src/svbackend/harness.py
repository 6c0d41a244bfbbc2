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
from collections import defaultdict
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path
from typing import Collection, Mapping

import numpy as np

from .dataset import (
    Dataset,
    Domain,
    GeneratorConfig,
    TrialList,
    apply_duration_noise,
    check_fields,
    check_member,
    check_number,
    generator_config_from_dict,
    own_fields,
    read_only,
    reject_unknown_keys,
    synth_domain,
    write_csv,
)
from .gplda import PldaModel, length_normalize, score_trials, train_gplda
from .idv import IdvTransform, IdvVariant, estimate_idv
from .lda import lda_from_scatter, scatter_matrices
from .metrics import DcfParams, MetricReportRow, evaluate, write_metric_report
from .scorenorm import snorm

# Seed-derivation offsets relative to each run seed.  Fixed so that the
# individual pipeline stages can be replayed from the CLI.
EVAL_SEED_OFFSET = 101
NIST_COHORT_SEED_OFFSET = 211
SWB_COHORT_SEED_OFFSET = 307
DURATION_NOISE_SEED_OFFSET = 401  # + duration grid index
COHORT_NOISE_SEED_OFFSET = 601  # + duration grid index

IDV_CHOICES = ("off", *(v.value for v in IdvVariant))
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

#: Smallest accepted value of each numeric ``ExperimentConfig`` field.
_MINIMA = dict(
    lda_dim=1, plda_q=1, plda_iters=1, eval_speakers=2, eval_sessions=2, cohort_speakers=1,
    cohort_sessions=1, swb_cohort_size=1,
)

#: Keys of older configs and the one value each may still hold.  Pipeline
#: switches: IDV always applies to evaluation and cohort vectors, LDA is
#: trained on the compensated vectors, and length normalization follows LDA.
#: Fixed settings: IDV reads the whole out-domain training set and in-domain
#: cohort, both ridges are the estimators' defaults, and minDCF takes the
#: ``DcfParams`` defaults (the NIST SRE 2008 costs).
RETIRED_KEYS = {
    "idv_on_eval": True,
    "lda_on_compensated": True,
    "length_norm_before_lda": False,
    "idv_out_count": None,
    "idv_in_count": None,
    "idv_ridge": 1e-6,
    "lda_ridge": 1e-6,
    "dcf": asdict(DcfParams()),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one synthetic study; serializable to JSON.

    Every field is type- and range-checked here; a bad one raises
    ``ValueError`` naming it."""

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

    def __post_init__(self) -> None:
        for name, cls in (("generator", GeneratorConfig), ("output_dir", str)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        if self.idv not in IDV_CHOICES:
            raise ValueError(f"idv must be one of {IDV_CHOICES}")
        if self.snorm not in SNORM_CHOICES:
            raise ValueError(f"snorm must be one of {SNORM_CHOICES}")
        check_fields(self, _MINIMA)
        for name in ("durations", "seeds"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not self.durations:
            raise ValueError("need at least one evaluation duration")
        for d in self.durations:
            if d is not None:  # None means full length
                check_number("durations", d, (0.0, math.inf))
                self.generator.noise_sigma(d)  # raises if the noise level overflows
        if not self.seeds:
            raise ValueError("need at least one seed")
        for s in self.seeds:
            check_number("seeds", s, 0, integer=True)
        object.__setattr__(self, "durations", tuple(self.durations))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for name, keys in (("durations", [*map(duration_label, self.durations)]),
                           ("seeds", self.seeds)):
            repeated = [k for i, k in enumerate(keys) if k in keys[:i]]
            if repeated:  # each would add report rows and count twice in the plot means
                raise ValueError(f"{name}: {repeated[0]!r} is repeated")


def duration_label(d: float | None) -> str:
    return "full" if d is None else f"{d:g}"


# ---------------------------------------------------------------------------
# config (de)serialization


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["durations"] = [duration_label(x) for x in cfg.durations]
    return d


def parse_duration(x: object) -> float | None:
    if x is None or x == "full":
        return None
    if not isinstance(x, bool):  # float(True) would read as a 1-s duration
        try:
            return float(x)  # config_to_dict writes durations as text
        except (TypeError, ValueError):
            pass
    raise ValueError(f"durations: invalid entry {x!r}")


def config_from_dict(d: Mapping) -> ExperimentConfig:
    """Inverse of ``config_to_dict``.

    Unknown keys, a retired key (``RETIRED_KEYS``) holding anything but
    its fixed value (of its type: ``1`` is not ``true``), and malformed
    values raise ``ValueError`` naming the key."""
    if not isinstance(d, Mapping):
        raise ValueError("experiment config must be a JSON object")
    d = dict(d)
    for key, fixed in RETIRED_KEYS.items():
        value = d.pop(key, fixed)
        if type(value) is not type(fixed) or value != fixed:
            raise ValueError(f"retired key {key}: only {fixed!r} is supported, got {value!r}")
    reject_unknown_keys(d, ExperimentConfig, "experiment config")
    gen = generator_config_from_dict(d.pop("generator", {}))
    durations = d.pop("durations", ["full"])
    if isinstance(durations, (list, tuple)):
        durations = [parse_duration(x) for x in durations]
    return ExperimentConfig(
        generator=gen, durations=durations, seeds=d.pop("seeds", [0]), **d
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """The config in JSON file ``path``; a bad one raises ``ValueError`` naming it."""
    try:
        return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# data assembly


@dataclass(frozen=True)
class RunData:
    """All datasets of one experiment repetition (one run seed).  ``train``
    holds the training set of each domain drawn, and of no other.
    ``trials`` is the full cross of ``build_trials(eval_in)``, whose ids any
    projection of the evaluation set scores directly, as both enrol and
    test set."""

    train: Mapping[Domain, Dataset]
    eval_in: Dataset
    nist_cohort: Dataset
    swb_cohort: Dataset
    trials: TrialList


def build_trials(eval_ds: Dataset) -> tuple[np.ndarray, np.ndarray, TrialList]:
    """First session of each speaker enrols; all remaining sessions are tested
    against every enrolment (full cross trial list, enrolment-major).  Returns
    their rows in ``eval_ds`` as read-only intp arrays, then the trials."""
    labeled = np.flatnonzero(eval_ds.speaker_code >= 0)
    pos = labeled[np.argsort(eval_ds.speaker_code[labeled], kind="stable")]
    code = eval_ds.speaker_code[pos]
    first = np.ones(pos.size, dtype=bool)  # a speaker's first row in dataset order
    first[1:] = code[1:] != code[:-1]
    enrol_pos, test_pos = read_only(pos[first]), read_only(pos[~first])
    n_e, n_t = len(enrol_pos), len(test_pos)
    ids = eval_ds.ids
    # no column is a view of a writable array, which ``owned`` would copy (np.tile's is)
    trials = TrialList(
        [ids[e] for e in enrol_pos.tolist()],
        [ids[t] for t in test_pos.tolist()],
        read_only(np.repeat(np.arange(n_e), n_t)),
        read_only(np.arange(n_e * n_t) % n_t),
        read_only(code[first][:, None] == code[~first][None, :]).ravel(),
    )
    return enrol_pos, test_pos, trials


def make_run_data(
    cfg: ExperimentConfig, seed: int, train_domains: Collection[Domain] = tuple(Domain)
) -> RunData:
    """Draw training, evaluation, and cohort datasets for one run seed.

    Only the training sets of ``train_domains`` (default: both) are drawn,
    in ``Domain`` order; an entry that is not a ``Domain`` fails naming
    ``domain``.  The evaluation set and the NIST cohort are drawn in-domain,
    the SWB cohort out-domain.  All draws share the run's ground-truth
    subspace; evaluation and cohort speakers are fresh."""
    for domain in train_domains:
        check_member("domain", domain, Domain)
    base = replace(cfg.generator, seed=seed, subspace_seed=seed)

    def draw(offset: int, speakers: int, sessions: int, domain: Domain) -> Dataset:
        return synth_domain(
            replace(base, seed=seed + offset, n_speakers=speakers, sessions_per_speaker=sessions),
            domain,
        )

    train = {d: synth_domain(base, d) for d in Domain if d in train_domains}
    eval_in = draw(EVAL_SEED_OFFSET, cfg.eval_speakers, cfg.eval_sessions, Domain.IN_DOMAIN)
    nist_cohort = draw(
        NIST_COHORT_SEED_OFFSET, cfg.cohort_speakers, cfg.cohort_sessions, Domain.IN_DOMAIN
    )
    swb_speakers = math.ceil(cfg.swb_cohort_size / cfg.cohort_sessions)
    swb_all = draw(SWB_COHORT_SEED_OFFSET, swb_speakers, cfg.cohort_sessions, Domain.OUT_DOMAIN)
    swb_cohort = swb_all.subset(range(cfg.swb_cohort_size))
    return RunData(train, eval_in, nist_cohort, swb_cohort, build_trials(eval_in)[2])


# ---------------------------------------------------------------------------
# pipeline assembly


@dataclass(frozen=True)
class Backend:
    """A trained compensation chain's PLDA scoring model and one (D, K)
    linear map, ``projection``: the IDV decorrelator (when trained) times
    the LDA matrix, which follows ``owned``."""

    plda: PldaModel
    projection: np.ndarray

    def __post_init__(self) -> None:
        own_fields(self, "projection")


def train_backend(
    cfg: ExperimentConfig,
    train: Dataset,
    scatter: tuple[np.ndarray, np.ndarray],
    idv_transform: IdvTransform | None,
    seed: int,
) -> Backend:
    """Train LDA and PLDA on the (optionally IDV-compensated) training data.

    ``scatter`` is ``scatter_matrices(train)``.  With IDV, LDA is solved
    from the compensated data's scatter ``D.T @ S @ D`` (``D`` the
    decorrelator), so no compensated copy of ``train`` is made.  The
    configured LDA dimension and eigenvoice count are clamped to what the
    training data can support, with a warning."""
    k = min(cfg.lda_dim, train.dim, len(train.speakers) - 1)
    if k < cfg.lda_dim:
        warnings.warn(
            f"LDA dimension clamped from {cfg.lda_dim} to {k} (rank limit)", stacklevel=2
        )
    d = None if idv_transform is None else idv_transform.decorrelator
    if d is not None:
        scatter = [d.T @ s @ d for s in scatter]
    a = lda_from_scatter(*scatter, k).a_matrix
    projection = a if d is None else read_only(d @ a)
    q = min(cfg.plda_q, k)
    if q < cfg.plda_q:
        warnings.warn(f"eigenvoice count clamped from {cfg.plda_q} to {q}", stacklevel=2)
    plda = train_gplda(length_normalize(train, projection), q=q, iters=cfg.plda_iters, seed=seed)
    return Backend(plda, projection)


# ---------------------------------------------------------------------------
# studies


@dataclass(frozen=True)
class Study:
    """One paper experiment under one config, writing ``<stem>_report.csv``,
    ``<stem>_plot.csv`` and, given ``reference`` (columns, rows),
    ``<stem>_reference_full_scale.csv``.

    Each system is (name, training domain, IDV variant) and each scoring
    variant (label suffix, S-norm cohort style or "off", matched), where a
    matched cohort is noised to each duration.  Every system is scored
    under every variant at every duration (finite ones only if
    ``finite_only``); the suffix extends the condition ("/…") and system
    ("|…") labels.  A plot group compares the systems of one variant, or
    in a study of one system its variants, against its first member."""

    stem: str
    systems: tuple[tuple[str, Domain, str], ...]
    variants: tuple[tuple[str, str, bool], ...]
    finite_only: bool = False
    reference: tuple[tuple[str, ...], tuple[tuple, ...]] | None = None


EXPERIMENT_KINDS = ("in-vs-out", "idv-comparison", "matched-snorm")


def studies(cfg: ExperimentConfig) -> dict[str, Study]:
    """The study of each kind in ``EXPERIMENT_KINDS`` under ``cfg``.

    ``cfg.idv`` compensates in-vs-out's out-domain system.  ``cfg.snorm``
    normalizes in-vs-out (unless "off") and is the normalized variant of the
    other studies, which read "off" as NIST-style; "matched-length" is a
    NIST-style cohort noised to each duration."""
    matched = cfg.snorm == "matched-length"
    cohort = "nist-style" if cfg.snorm in ("off", "matched-length") else cfg.snorm
    out, modified = Domain.OUT_DOMAIN, (SYSTEM_MODIFIED_IDV, Domain.OUT_DOMAIN, "modified")
    return {
        "in-vs-out": Study(
            "in_vs_out",
            ((SYSTEM_OUT, out, cfg.idv), (SYSTEM_IN, Domain.IN_DOMAIN, "off")),
            (("", "off" if cfg.snorm == "off" else cohort, matched),),
        ),
        "idv-comparison": Study(
            "idv_comparison",
            ((SYSTEM_OUT, out, "off"), (SYSTEM_IDV, out, "original"), modified),
            (("snorm=off", "off", False),
             ("snorm=" + ("matched-length" if matched else cohort), cohort, matched)),
            reference=(("system", "eer_pct_without_snorm", "eer_pct_with_snorm"),
                       FULL_SCALE_IDV_REFERENCE),
        ),
        "matched-snorm": Study(
            "matched_snorm",
            (modified,),
            (("cohort=full-length", cohort, False), ("cohort=matched", cohort, True)),
            finite_only=True,
            reference=(("duration_sec", "eer_pct_full_length_cohort", "eer_pct_matched_cohort"),
                       FULL_SCALE_MATCHED_SNORM_REFERENCE),
        ),
    }


@dataclass(frozen=True)
class PlotRow:
    duration: str
    system: str
    metric: str
    value: float
    gain_pct: float | None


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


def run_experiment(
    cfg: ExperimentConfig, kind: str, out_dir: str | Path | None = None
) -> dict[str, ExperimentResult]:
    """Run one study kind, or every study for 'all', in one pass per seed.

    Every study's durations are checked before any work.  Per seed, the
    datasets are drawn: only the training sets of the domains the studies'
    systems train on (IDV also reads the out-domain one), and one domain
    per evaluation and cohort draw.  Each training set's scatter is
    computed once, and each distinct (training domain, IDV variant)
    backend trained once for all studies (modified IDV last, its estimate
    reusing the original one's out-domain scatter).  Each distinct (duration grid
    index, duration) noises the evaluation set once, and each backend used
    there projects and scores it once for every study, system and variant
    using it.  Each backend projects each unmatched cohort once; each
    matched cohort is noised once per (cohort style, duration, noise seed)
    and projected once per backend there.  Each study writes its report
    (seed -> duration -> variant -> system), its seed-mean plot table (with
    each member's gain over its group's first) and its reference table."""
    if kind != "all" and kind not in EXPERIMENT_KINDS:
        choices = EXPERIMENT_KINDS + ("all",)
        raise ValueError(f"unknown experiment kind '{kind}' (choose from {choices})")
    chosen = {k: s for k, s in studies(cfg).items() if kind in ("all", k)}
    # uses: (grid index, duration) -> backend key -> each (kind, system name) using it
    grids, uses = {}, defaultdict(lambda: defaultdict(list))
    for k, study in chosen.items():
        grids[k] = [d for d in cfg.durations if d is not None or not study.finite_only]
        if not grids[k]:
            raise ValueError(f"{study.stem} study needs at least one finite duration")
        for gi, duration in enumerate(grids[k]):
            for name, domain, idv in study.systems:
                uses[gi, duration][domain, idv].append((k, name))
    # modified IDV last, so that its estimate reuses the original one's scatter
    keys = sorted(dict.fromkeys(key for by_key in uses.values() for key in by_key),
                  key=lambda key: key[1] == "modified")
    # IDV is estimated on the out-domain training set, whichever set its backend trains on
    train_domains = {d for d, _ in keys} | {Domain.OUT_DOMAIN for _, idv in keys if idv != "off"}
    rows = {k: defaultdict(list) for k in chosen}
    for seed in cfg.seeds:
        data = make_run_data(cfg, seed, train_domains)
        backends, scatters, noised, cohorts = {}, {}, {}, {}
        # IDV reads the out-domain training set against the in-domain cohort, both
        # unlabeled; the original transform is held until the modified one reuses it
        original = None
        for domain, idv in keys:
            t = None
            if idv != "off":
                t = estimate_idv(
                    IdvVariant(idv), data.train[Domain.OUT_DOMAIN], data.nist_cohort,
                    original=original,
                )
                original = t if t.variant is IdvVariant.ORIGINAL else None
            train = data.train[domain]
            if domain not in scatters:
                scatters[domain] = scatter_matrices(train)
            backends[domain, idv] = train_backend(cfg, train, scatters[domain], t, seed)
        for (gi, duration), by_key in uses.items():
            dur = duration_label(duration)
            eval_ds = data.eval_in
            if duration is not None:
                eval_ds = apply_duration_noise(
                    eval_ds, duration, cfg.generator, seed + DURATION_NOISE_SEED_OFFSET + gi
                )
            for key, users in by_key.items():
                backend = backends[key]
                proj = length_normalize(eval_ds, backend.projection)
                raw = score_trials(backend.plda, proj, proj, data.trials)
                for k, name in users:
                    for sfx, style, matched in chosen[k].variants:
                        scores, which = raw, "raw"
                        if style != "off":
                            co = data.swb_cohort if style == "swb-style" else data.nist_cohort
                            # (duration, noise seed) of a matched cohort, never the grid
                            # index alone: studies index the same duration differently
                            noising = None
                            if matched and duration is not None:
                                noising = duration, seed + COHORT_NOISE_SEED_OFFSET + gi
                                if (style, noising) not in noised:
                                    noised[style, noising] = apply_duration_noise(
                                        co, duration, cfg.generator, noising[1]
                                    )
                                co = noised[style, noising]
                            use = key, style, noising
                            if use not in cohorts:
                                cohorts[use] = length_normalize(co, backend.projection)
                            scores = snorm(backend.plda, raw, proj, proj, cohorts[use])
                            which = "normalized"
                        label = name + (sfx and f"|{sfx}")
                        condition = f"seed={seed}/dur={dur}" + (sfx and f"/{sfx}")
                        row = evaluate(scores, condition, label, which=which)
                        rows[k][dur, label].append(row)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    for k, study in chosen.items():
        by_key = rows[k]
        durs = [duration_label(d) for d in grids[k]]
        names = [[s[0] + (sfx and f"|{sfx}") for s in study.systems] for sfx, *_ in study.variants]
        report = [
            by_key[d, n][i] for i in range(len(cfg.seeds)) for d in durs for ns in names for n in ns
        ]
        plot: list[PlotRow] = []
        for group in zip(*names) if len(study.systems) == 1 else names:
            for dur in durs:
                for metric in ("eer", "min_dcf"):
                    means = [
                        float(np.mean([getattr(r, metric) for r in by_key[dur, n]]))
                        for n in group
                    ]
                    base = means[0]
                    for i, (name, val) in enumerate(zip(group, means)):
                        gain = 100.0 * (base - val) / base if i and base else None
                        plot.append(PlotRow(dur, name, metric, val, gain))
        files = [out / f"{study.stem}_report.csv", out / f"{study.stem}_plot.csv"]
        write_metric_report(report, files[0])
        write_csv(files[1], PLOT_COLUMNS, map(astuple, plot))
        if study.reference is not None:
            files.append(out / f"{study.stem}_reference_full_scale.csv")
            write_csv(files[-1], *study.reference)
        results[k] = ExperimentResult(tuple(report), tuple(plot), tuple(files))
    return results


# ---------------------------------------------------------------------------
# calibrated desk-scale defaults


def _default_domain_offset(dim: int, norm: float) -> np.ndarray:
    rng = np.random.default_rng(0xD07)
    v = rng.standard_normal(dim)
    return norm * v / np.linalg.norm(v)


def default_experiment_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults calibrated for visible domain-mismatch trends.

    Dimension 50 with a 10-dimensional speaker subspace keeps a full
    sweep of every study within seconds.  The out-domain population is shifted by a norm-12
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
    base = dict(generator=gen, idv="off", lda_dim=20, plda_q=10, plda_iters=15)
    return ExperimentConfig(**base | overrides)
