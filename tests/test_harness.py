import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import svbackend
from svbackend import harness
from svbackend.cli import build_parser, cli
from svbackend.dataset import (
    Domain,
    GeneratorConfig,
    TrialList,
    apply_duration_noise,
    check_number,
    load_ivectors,
    save_ivectors,
    save_trials,
    synth_domain,
)
from svbackend.gplda import PldaModel, ScoreSet, length_normalize, read_scores, save_plda
from svbackend.gplda import train_gplda, write_scores
from svbackend.harness import (
    EVAL_SEED_OFFSET,
    RETIRED_KEYS,
    SNORM_CHOICES,
    SYSTEM_IN,
    SYSTEM_OUT,
    ExperimentConfig,
    build_trials,
    config_from_dict,
    config_to_dict,
    default_experiment_config,
    duration_label,
    load_config,
    make_run_data,
    run_experiment,
    save_config,
    train_backend,
)
from svbackend.idv import IdvTransform, IdvVariant, apply_idv, estimate_idv
from svbackend.lda import apply_lda, lda_from_scatter, scatter_matrices, train_lda
from svbackend.metrics import REPORT_COLUMNS, DcfParams

from conftest import make_dataset, make_scoreset, make_trials
from test_hygiene import RETIRED_TRACED


def tiny_config(**overrides):
    gen = GeneratorConfig(
        dim=12,
        n_speakers=25,
        sessions_per_speaker=3,
        eigenvoice_dim=4,
        speaker_scale=1.0,
        channel_scale=0.6,
        out_channel_scale=0.9,
        domain_offset=np.concatenate([np.full(6, 1.2), np.full(6, -1.2)]),
        duration_ref_sec=120.0,
        duration_noise_scale=0.5,
        seed=0,
    )
    base = dict(
        generator=gen,
        lda_dim=8,
        plda_q=4,
        plda_iters=4,
        durations=(None, 15.0),
        seeds=(0,),
        eval_speakers=15,
        eval_sessions=3,
        cohort_speakers=12,
        cohort_sessions=3,
        swb_cohort_size=30,
        snorm="off",
    )
    base.update(overrides)
    return default_experiment_config(**base)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(snorm="nist-style", idv="original")
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_duration_full_encoding(self):
        d = config_to_dict(tiny_config())
        assert d["durations"][0] == "full"
        assert config_from_dict(d).durations[0] is None

    def test_validation(self):
        with pytest.raises(ValueError, match="snorm"):
            tiny_config(snorm="bogus")
        with pytest.raises(ValueError, match="duration"):
            tiny_config(durations=(0.0,))
        with pytest.raises(ValueError, match="seed"):
            tiny_config(seeds=())

    def test_overflowing_duration_noise_rejected(self):
        """A duration whose noise level overflows fails when the config is
        built, naming the duration and the exponent, before any work."""
        gen = replace(tiny_config().generator, duration_noise_exponent=50.0)
        with pytest.raises(ValueError, match="^duration noise overflows at duration 1e-10 s "
                                             "with exponent 50$"):
            tiny_config(generator=gen, durations=(None, 1e-10))
        assert tiny_config(generator=gen, durations=(None, 1.0)).durations == (None, 1.0)

    def test_noise_off_accepts_every_positive_duration(self):
        """With the noise off no level can overflow, however short the duration."""
        off = replace(tiny_config().generator, duration_noise_scale=0.0)
        assert tiny_config(generator=off, durations=(None, 5e-324)).durations == (None, 5e-324)

    @pytest.mark.parametrize(
        "field, values, repeated",
        [
            ("durations", ["full", 50.0, 50], "'50'"),
            ("durations", [None, "full"], "'full'"),
            ("seeds", [0, 1, 0], "0"),
        ],
    )
    def test_repeated_duration_or_seed_named(self, field, values, repeated):
        """A repeat would write its report rows twice and count twice in the plot means."""
        d = config_to_dict(tiny_config()) | {field: values}
        with pytest.raises(ValueError, match=f"^{field}: {repeated} is repeated$"):
            config_from_dict(d)

    def test_unknown_keys_named(self):
        with pytest.raises(ValueError, match="unknown experiment config key.*bogus"):
            config_from_dict({"bogus": 1})
        d = config_to_dict(tiny_config())
        d["generator"]["dimm"] = 4
        with pytest.raises(ValueError, match="unknown generator key.*dimm"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "blob, field",
        [
            ({"lda_dim": "20"}, "lda_dim"),
            ({"durations": 5}, "durations"),
            ({"durations": ["full", "x"]}, "durations"),
            ({"durations": [True]}, "durations"),
            ({"seeds": 3}, "seeds"),
            ({"seeds": [1.5]}, "seeds"),
            ({"generator": []}, "generator"),
            ({"generator": {"dim": "5"}}, "dim"),
            ({"generator": {"dim": 2, "eigenvoice_dim": 1, "domain_offset": [True, False]}},
             "domain_offset"),
            ({"generator": {"dim": 2, "eigenvoice_dim": 1, "domain_offset": [1.5, True]}},
             "domain_offset"),
            ({"generator": {"dim": 2, "eigenvoice_dim": 1, "domain_offset": ["1.5", "2"]}},
             "domain_offset"),
            ({"dcf": {"c_miss": "x"}}, "c_miss"),
            ({"cohort_sessions": 0}, "cohort_sessions"),
            ({"plda_iters": 0}, "plda_iters"),
            ({"swb_cohort_size": 0}, "swb_cohort_size"),
            ({"eval_speakers": 1}, "eval_speakers"),
            ({"idv_ridge": -1}, "idv_ridge"),
            ({"idv_out_count": 0}, "idv_out_count"),
            ({"idv_on_eval": False}, "idv_on_eval"),
            ({"lda_on_compensated": 1}, "lda_on_compensated"),
            ({"length_norm_before_lda": True}, "length_norm_before_lda"),
            ({"idv_out_count": 40}, "^retired key idv_out_count"),
            ({"idv_in_count": 0}, "^retired key idv_in_count"),
            ({"idv_ridge": 0.0}, "^retired key idv_ridge"),
            ({"lda_ridge": 1e-3}, "^retired key lda_ridge"),
            ({"lda_ridge": True}, "^retired key lda_ridge"),
            ({"dcf": {"c_miss": "x"}}, "^retired key dcf"),
            ({"dcf": {"c_miss": 10.0, "c_fa": 1.0, "p_target": 0.02}}, "^retired key dcf"),
            ({"dcf": {"c_miss": 10.0, "c_fa": 1.0}}, "^retired key dcf"),
            ({"dcf": [10.0, 1.0, 0.01]}, "^retired key dcf"),
        ],
    )
    def test_malformed_config_names_field(self, blob, field):
        with pytest.raises(ValueError, match=field):
            config_from_dict(blob)

    def test_retired_keys_at_fixed_value_are_dropped(self):
        """Every retired key as older snapshots wrote it (JSON text) is dropped."""
        d = config_to_dict(tiny_config())
        assert not set(RETIRED_KEYS) & set(d)
        old = d | json.loads(
            '{"dcf": {"c_fa": 1.0, "c_miss": 10.0, "p_target": 0.01}, "idv_in_count": null,'
            ' "idv_on_eval": true, "idv_out_count": null, "idv_ridge": 1e-06,'
            ' "lda_on_compensated": true, "lda_ridge": 1e-06, "length_norm_before_lda": false}'
        )
        assert set(old) - set(d) == set(RETIRED_KEYS)
        assert config_from_dict(old) == config_from_dict(d) == tiny_config()

    def test_dict_keys_are_the_fields(self):
        d = config_to_dict(tiny_config())
        assert set(d) == {f.name for f in fields(ExperimentConfig)}
        assert set(d["generator"]) == {f.name for f in fields(GeneratorConfig)}

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"seeds": [0],}', "Expecting property name"),
            (b'{"bogus": 1}', "unknown experiment config key(s): bogus"),
            (b'{"output_dir": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            (b"[]", "experiment config must be a JSON object"),
            (b'{"durations": ["full", "0"]}', "durations must be a finite number > 0, got 0.0"),
            (b'{"generator": {"duration_ref_sec": -1}}',
             "duration_ref_sec must be a finite number > 0, got -1"),
        ],
        ids=["bad-json", "unknown-key", "bad-utf8", "json-list", "duration", "duration-ref"],
    )
    def test_load_config_errors_name_the_file(self, tmp_path, content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: {message}")

    def test_duration_label(self):
        assert duration_label(None) == "full"
        assert duration_label(10.0) == "10"
        assert duration_label(2.5) == "2.5"


class TestRunData:
    def test_structure_and_determinism(self):
        cfg = tiny_config()
        data = make_run_data(cfg, 0)
        assert len(data.eval_in.speakers) == cfg.eval_speakers
        assert len(data.nist_cohort) == cfg.cohort_speakers * cfg.cohort_sessions
        assert len(data.swb_cohort) == cfg.swb_cohort_size
        # one enrol per speaker, the rest tested against all enrolments
        n_test = cfg.eval_speakers * (cfg.eval_sessions - 1)
        assert len(data.trials) == cfg.eval_speakers * n_test
        n_targets = int(data.trials.is_target.sum())
        assert n_targets == n_test
        again = make_run_data(cfg, 0)
        assert again.eval_in == data.eval_in

    @pytest.mark.parametrize(
        "domains", [(), (Domain.OUT_DOMAIN,), (Domain.IN_DOMAIN,), tuple(Domain),
                    (Domain.OUT_DOMAIN, Domain.IN_DOMAIN)],
    )
    def test_train_holds_exactly_the_domains_drawn(self, domains):
        cfg = tiny_config()
        data = make_run_data(cfg, 2, domains)
        assert list(data.train) == [d for d in Domain if d in domains]  # in Domain order
        base = replace(cfg.generator, seed=2, subspace_seed=2)
        assert all(ds == synth_domain(base, d) for d, ds in data.train.items())

    @pytest.mark.parametrize("entry", [None, "out", 1])
    def test_a_train_domain_that_is_not_a_domain_fails_naming_it(self, entry):
        message = f"^domain must be a member of Domain, got {entry!r}$"
        with pytest.raises(ValueError, match=message):
            make_run_data(tiny_config(), 0, (Domain.OUT_DOMAIN, entry))

    def test_build_trials_matches_object_loop(self):
        cfg = tiny_config()
        data = make_run_data(cfg, 0)
        enrol_pos, test_pos, trials = build_trials(data.eval_in)
        assert isinstance(trials, TrialList)
        assert len(enrol_pos) == cfg.eval_speakers
        assert len(test_pos) == cfg.eval_speakers * (cfg.eval_sessions - 1)
        for pos in (enrol_pos, test_pos):
            assert pos.dtype == np.intp and not pos.flags.writeable
        ids, speakers = data.eval_in.ids, data.eval_in.row_speakers()
        expected = make_trials(
            (ids[e], ids[t], speakers[e] == speakers[t]) for e in enrol_pos for t in test_pos
        )
        assert trials == expected

    def test_eval_draw_follows_documented_seed_scheme(self):
        cfg = tiny_config()
        data = make_run_data(cfg, 3)
        # same subspace seed ties the populations together
        train_cfg = replace(cfg.generator, seed=3, subspace_seed=3)
        eval_cfg = replace(train_cfg, seed=3 + EVAL_SEED_OFFSET,
                           n_speakers=cfg.eval_speakers, sessions_per_speaker=cfg.eval_sessions)
        expected_eval = synth_domain(eval_cfg, Domain.IN_DOMAIN)
        assert data.eval_in == expected_eval

    def test_backend_clamps_lda_dim_with_warning(self):
        cfg = tiny_config(lda_dim=500, plda_q=200)
        data = make_run_data(cfg, 0)
        train = data.train[Domain.OUT_DOMAIN]
        with pytest.warns(UserWarning, match="clamped"):
            backend = train_backend(cfg, train, scatter_matrices(train), None, 0)
        k = backend.projection.shape[1]
        assert k == min(cfg.generator.dim, len(train.speakers) - 1)
        assert backend.plda.n_eigenvoices == k

    def test_backend_projection_is_the_composed_chain(self):
        """One product by ``projection`` equals the CLI's sequential route (IDV,
        then LDA trained on the compensated set, then length normalization):
        bit for bit without IDV, within rounding with it."""
        cfg = tiny_config()
        data = make_run_data(cfg, 0)
        train, k = data.train[Domain.OUT_DOMAIN], cfg.lda_dim
        scatter = scatter_matrices(train)
        idv_t = estimate_idv(IdvVariant.MODIFIED, train, data.nist_cohort)
        plain = train_backend(cfg, train, scatter, None, 0)
        compensated = train_backend(cfg, train, scatter, idv_t, 0)
        lda_plain = train_lda(train, k)
        lda_compensated = train_lda(apply_idv(idv_t, train), k)
        for ds in (data.eval_in, data.nist_cohort):
            chain = length_normalize(apply_lda(lda_plain, ds)).matrix()
            assert np.array_equal(length_normalize(ds, plain.projection).matrix(), chain)
            chain = length_normalize(apply_lda(lda_compensated, apply_idv(idv_t, ds))).matrix()
            got = length_normalize(ds, compensated.projection).matrix()
            assert np.linalg.norm(got - chain) <= 1e-9 * np.linalg.norm(chain)


class TestExperiments:
    def test_in_vs_out_writes_reports_and_is_deterministic(self, tmp_path):
        cfg = tiny_config()
        res1 = run_experiment(cfg, "in-vs-out", tmp_path / "a")["in-vs-out"]
        res2 = run_experiment(cfg, "in-vs-out", tmp_path / "b")["in-vs-out"]
        for f1, f2 in zip(res1.files, res2.files):
            assert f1.read_bytes() == f2.read_bytes()
        with open(res1.files[0]) as f:
            header = f.readline().strip().split(",")
        assert header == REPORT_COLUMNS
        # one row per (seed, duration, system)
        rows = Path(res1.files[0]).read_text().splitlines()[1:]
        assert len(rows) == len(cfg.seeds) * len(cfg.durations) * 2

    def test_zero_offset_gives_similar_domains(self, tmp_path):
        gen = replace(tiny_config().generator, domain_offset=np.zeros(12),
                      out_channel_scale=None, duration_noise_scale=0.0)
        cfg = tiny_config(generator=gen, seeds=(0, 1, 2), durations=(None,),
                          eval_speakers=20)
        res = run_experiment(cfg, "in-vs-out", tmp_path)["in-vs-out"]
        out_v = res.mean_value("full", SYSTEM_OUT, "eer")
        in_v = res.mean_value("full", SYSTEM_IN, "eer")
        # identical populations: no exploitable mismatch (both small, close)
        assert abs(out_v - in_v) <= 0.05

    def test_idv_comparison_emits_reference_and_systems(self, tmp_path):
        cfg = tiny_config(durations=(None,), snorm="nist-style")
        res = run_experiment(cfg, "idv-comparison", tmp_path)["idv-comparison"]
        ref = Path(res.files[2]).read_text().splitlines()
        assert ref[0] == "system,eer_pct_without_snorm,eer_pct_with_snorm"
        assert ref[1] == "out-domain,4.86,3.85"
        assert ref[2] == "idv,4.37,3.55"
        assert ref[3] == "modified-idv,3.79,3.29"
        systems = {r.system for r in res.report_rows}
        assert systems == {
            f"{s}|snorm={n}"
            for s in ("out-domain", "idv", "modified-idv")
            for n in ("off", "nist-style")
        }

    def test_matched_snorm_identical_when_sigma0_zero(self, tmp_path):
        gen = replace(tiny_config().generator, duration_noise_scale=0.0)
        cfg = tiny_config(generator=gen, durations=(None, 20.0, 10.0))
        res = run_experiment(cfg, "matched-snorm", tmp_path)["matched-snorm"]
        for d in ("20", "10"):
            full = res.mean_value(d, "modified-idv|cohort=full-length", "eer")
            matched = res.mean_value(d, "modified-idv|cohort=matched", "eer")
            assert full == matched
        ref = Path(res.files[2]).read_text().splitlines()
        assert ref[0] == "duration_sec,eer_pct_full_length_cohort,eer_pct_matched_cohort"
        assert ref[1] == "10,17.63,17.64"
        assert ref[-1] == "50,6.09,5.85"

    def test_run_experiment_dispatch(self, tmp_path):
        cfg = tiny_config(durations=(None, 10.0))
        results = run_experiment(cfg, "all", tmp_path)
        assert set(results) == {"in-vs-out", "idv-comparison", "matched-snorm"}
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment(cfg, "bogus", tmp_path)

    def test_all_draws_trains_and_scores_each_thing_once(self, tmp_path, monkeypatch):
        """Per seed: one draw, one scatter per training set, one training per
        distinct (domain, IDV variant) of the studies' systems, one noising of
        the evaluation set per (duration grid index, duration) and one scoring
        per backend there, one projection per unmatched cohort and backend."""
        calls = _count_calls(monkeypatch, "make_run_data", "scatter_matrices", "train_backend",
                             "score_trials", "length_normalize", "apply_duration_noise")
        cfg = tiny_config(seeds=(0, 1))  # idv "off", snorm "off", durations full and 15
        run_experiment(cfg, "all", tmp_path)
        # backends: out-domain, in-domain, idv and modified-idv (shared by two studies);
        # noisings: grid index 1 (in-vs-out, idv-comparison) and matched-snorm's index 0,
        # plus matched-snorm's matched cohort;
        # scorings: in-vs-out and idv-comparison share out-domain, so 4 backends x 2
        # durations, plus matched-snorm 1 x 1 (finite durations only);
        # projections: 4 trainings, 9 scorings, the NIST cohort once per idv-comparison
        # backend, and the matched cohort once
        assert calls == {
            "make_run_data": 2, "scatter_matrices": 2 * 2, "train_backend": 2 * 4,
            "score_trials": 2 * 9, "length_normalize": 2 * (4 + 9 + 3 + 1),
            "apply_duration_noise": 2 * 3,
        }

    @pytest.mark.parametrize("kind, idv", [("idv-comparison", "off"), ("all", "modified")])
    def test_idv_takes_the_out_domain_scatter_once_per_seed(
        self, tmp_path, monkeypatch, kind, idv
    ):
        """The modified estimate reuses the original transform's scatter: per
        seed one out-domain scatter and one mirrored one, through the
        harness's own ``estimate_idv`` global, also where in-vs-out's
        modified-IDV system comes first."""
        scatters = []
        mismatch_scatter = svbackend.idv._mismatch_scatter
        monkeypatch.setattr(
            svbackend.idv, "_mismatch_scatter",
            lambda *a: scatters.append(1) or mismatch_scatter(*a),
        )
        variants = []
        estimate = harness.estimate_idv
        monkeypatch.setattr(
            harness, "estimate_idv", lambda v, *a, **k: variants.append(v) or estimate(v, *a, **k)
        )
        run_experiment(tiny_config(seeds=(0, 1), idv=idv), kind, tmp_path)
        assert len(scatters) == 2 * 2
        assert variants == [IdvVariant.ORIGINAL, IdvVariant.MODIFIED] * 2

    def test_all_noises_each_matched_cohort_once(self, tmp_path, monkeypatch):
        """A matched cohort is noised once per (style, duration, noise seed) and
        projected once per backend there, whichever studies and systems use it."""
        calls = _count_calls(monkeypatch, "apply_duration_noise", "length_normalize")
        cfg = tiny_config(seeds=(0, 1), snorm="matched-length")  # durations full and 15
        run_experiment(cfg, "all", tmp_path)
        # noisings: the evaluation set and the NIST cohort at 15 s, each once at
        # grid index 1 (in-vs-out, idv-comparison) and once at matched-snorm's index 0;
        # projections: 4 trainings, 9 scorings, the full-length cohort once per
        # backend, the cohort noised at index 1 once per backend and at index 0 once
        assert calls == {
            "apply_duration_noise": 2 * (2 + 2), "length_normalize": 2 * (4 + 9 + 4 + 4 + 1),
        }

    @pytest.mark.parametrize("idv", ["off", "modified"])
    @pytest.mark.parametrize("snorm", SNORM_CHOICES)
    def test_all_writes_the_bytes_of_each_study_run_alone(self, tmp_path, snorm, idv):
        """Sharing work across studies leaves every study's CSVs as it alone
        writes them; matched-snorm's noise seeds differ from the others' at the
        same duration, since each study keeps its own duration grid index."""
        cfg = tiny_config(seeds=(0, 1), durations=(None, 15.0, 10.0), snorm=snorm, idv=idv)
        run_experiment(cfg, "all", tmp_path / "all")
        for kind in harness.EXPERIMENT_KINDS:
            for path in run_experiment(cfg, kind, tmp_path / kind)[kind].files:
                assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes(), path.name

    def test_all_checks_every_study_before_any_work(self, tmp_path):
        with pytest.raises(ValueError, match="matched_snorm study needs at least one finite"):
            run_experiment(tiny_config(durations=(None,)), "all", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_in_vs_out_honours_idv_flag(self, tmp_path):
        cfg = tiny_config(seeds=(0, 1), durations=(None,))
        plain = run_experiment(cfg, "in-vs-out", tmp_path / "plain")["in-vs-out"]
        compensated = run_experiment(
            replace(cfg, idv="modified"), "in-vs-out", tmp_path / "comp"
        )["in-vs-out"]
        out_plain = plain.mean_value("full", SYSTEM_OUT, "eer")
        out_comp = compensated.mean_value("full", SYSTEM_OUT, "eer")
        assert out_comp != out_plain
        # the in-domain system never gets compensation
        assert compensated.mean_value("full", SYSTEM_IN, "eer") == plain.mean_value(
            "full", SYSTEM_IN, "eer"
        )


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls the harness makes to each of its module globals ``names``."""
    calls = {name: 0 for name in names}

    def counted(name):
        original = getattr(harness, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(harness, name, counted(name))
    return calls


def _expected_study_rows(kind: str, snorm: str) -> tuple[list[str], list[list[tuple[str, str]]]]:
    """Duration labels and plot groups of (system, condition suffix) pairs of
    one study on ``tiny_config`` (durations full and 15), spelled out by hand."""
    if kind == "in-vs-out":
        return ["full", "15"], [[("out-domain", ""), ("in-domain", "")]]
    if kind == "idv-comparison":
        style = "nist-style" if snorm == "off" else snorm
        return ["full", "15"], [
            [(f"{s}|snorm={st}", f"/snorm={st}") for s in ("out-domain", "idv", "modified-idv")]
            for st in ("off", style)
        ]
    cohorts = ("full-length", "matched")
    return ["15"], [[(f"modified-idv|cohort={c}", f"/cohort={c}") for c in cohorts]]


@pytest.mark.parametrize("kind", ["in-vs-out", "idv-comparison", "matched-snorm"])
@pytest.mark.parametrize("idv", ["off", "modified"])
@pytest.mark.parametrize("snorm", SNORM_CHOICES)
def test_study_rows_across_config_matrix(tmp_path, kind, idv, snorm):
    cfg = tiny_config(snorm=snorm, idv=idv, seeds=(0, 1))
    res = run_experiment(cfg, kind, tmp_path)[kind]
    durs, groups = _expected_study_rows(kind, snorm)
    # report: seed -> duration -> variant -> system; variants group the
    # idv-comparison systems, the matched-snorm groups hold its variants
    per_variant = groups if kind != "matched-snorm" else [[p] for p in groups[0]]
    expected = [
        (f"seed={seed}/dur={d}{sfx}", system)
        for seed in cfg.seeds
        for d in durs
        for variant in per_variant
        for system, sfx in variant
    ]
    assert [(r.condition, r.system) for r in res.report_rows] == expected
    assert len(res.files[0].read_text().splitlines()) == 1 + len(expected)
    plot_keys = [(d, s, m) for g in groups for d in durs for m in ("eer", "min_dcf") for s, _ in g]
    assert [(r.duration, r.system, r.metric) for r in res.plot_rows] == plot_keys
    assert len(res.files[1].read_text().splitlines()) == 1 + len(plot_keys)
    rows = {(r.condition, r.system): r for r in res.report_rows}
    plot = {(r.duration, r.system, r.metric): r for r in res.plot_rows}
    for g in groups:
        for d in durs:
            for m in ("eer", "min_dcf"):
                means = [
                    np.mean([getattr(rows[f"seed={k}/dur={d}{sfx}", s], m) for k in cfg.seeds])
                    for s, sfx in g
                ]
                for (s, _), mean in zip(g, means):
                    plotted = plot[d, s, m]
                    assert plotted.value == pytest.approx(mean, rel=1e-12, abs=0)
                    if s == g[0][0]:
                        assert plotted.gain_pct is None
                    elif means[0]:
                        gain = 100.0 * (means[0] - mean) / means[0]
                        assert plotted.gain_pct == pytest.approx(gain, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_idv_rescales_the_plain_lda_directions(seed):
    """On the defaults, IDV changes only the lengths of the projection's
    columns: LDA's subspace is invariant under the full-rank decorrelator, and
    each direction is renormalized to unit length before the decorrelator is
    composed in.  So every IDV column is parallel to the plain backend's, and
    the per-direction rescaling, which length normalization then sees, spreads
    by more than 2x."""
    cfg = default_experiment_config()
    data = make_run_data(cfg, seed, (Domain.OUT_DOMAIN,))
    train = data.train[Domain.OUT_DOMAIN]
    scatter = scatter_matrices(train)
    plain = train_backend(cfg, train, scatter, None, seed).projection
    original = estimate_idv(IdvVariant.ORIGINAL, train, data.nist_cohort)
    modified = estimate_idv(IdvVariant.MODIFIED, train, data.nist_cohort, original=original)
    for t in (original, modified):
        projection = train_backend(cfg, train, scatter, t, seed).projection
        norms = np.linalg.norm(projection, axis=0)
        cos = np.sum(projection * plain, axis=0) / (norms * np.linalg.norm(plain, axis=0))
        assert np.abs(cos).min() >= 1 - 1e-6
        assert norms.max() > 2 * norms.min()


def test_default_study_csvs_match_the_benchmark_reference(tmp_path):
    """Seed 0 of the calibrated default studies reproduces, byte for byte,
    the CSVs whose hashes the benchmark's desk-studies reference holds."""
    root = Path(__file__).resolve().parent.parent
    reference = json.loads((root / "perfbench" / "reference" / "desk-studies.json").read_text())
    run_experiment(default_experiment_config(seeds=(0,)), "all", tmp_path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("*.csv"))
    }
    assert len(digests) == 8
    assert digests == reference["seeds"]["0"]["files"]


def test_study_csvs_identical_at_one_and_two_blas_threads(tmp_path):
    # sizes above OpenBLAS's single-thread cut-off, so two threads really split the products
    gen = replace(default_experiment_config().generator, n_speakers=150)
    cfg = default_experiment_config(
        generator=gen, seeds=(0,), durations=(None, 20.0), snorm="nist-style", idv="modified",
        eval_speakers=40, eval_sessions=3, cohort_speakers=60, cohort_sessions=5,
        swb_cohort_size=200, plda_iters=5,
    )
    save_config(cfg, tmp_path / "config.json")
    src = str(Path(svbackend.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "svbackend", "experiment", "--config",
             str(tmp_path / "config.json"), "--kind", "in-vs-out", "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert len(outputs["1"]) == 2
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("kind", [*harness.EXPERIMENT_KINDS, "all"])
def test_each_run_draws_only_the_domains_it_uses(tmp_path, monkeypatch, kind):
    """Per seed, the in-domain training set is drawn only where a study
    trains an in-domain system, before the out-domain one, and each
    evaluation and cohort draw is of the one domain it keeps."""
    drawn = {}  # (run seed, seed offset) -> (domain, rows) of each draw
    original = harness.synth_domain

    def recorded(gen, domain):
        ds = original(gen, domain)
        key = gen.subspace_seed, gen.seed - gen.subspace_seed
        drawn.setdefault(key, []).append((domain, len(ds)))
        return ds

    monkeypatch.setattr(harness, "synth_domain", recorded)
    cfg = tiny_config(seeds=(0, 1), idv="modified", snorm="swb-style")
    run_experiment(cfg, kind, tmp_path)
    train = cfg.generator.n_speakers * cfg.generator.sessions_per_speaker
    in_, out = Domain.IN_DOMAIN, Domain.OUT_DOMAIN
    per_seed = {
        0: [(in_, train)] * (kind in ("in-vs-out", "all")) + [(out, train)],
        EVAL_SEED_OFFSET: [(in_, cfg.eval_speakers * cfg.eval_sessions)],
        harness.NIST_COHORT_SEED_OFFSET: [(in_, cfg.cohort_speakers * cfg.cohort_sessions)],
        harness.SWB_COHORT_SEED_OFFSET: [(out, cfg.swb_cohort_size)],  # 10 speakers x 3 sessions
    }
    assert drawn == {(seed, k): draws for seed in cfg.seeds for k, draws in per_seed.items()}


def _perfbench_tracer(monkeypatch):
    """A ``Tracer`` from the benchmark's ``perfbench/tracer.py``, loaded read-only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # its dataclasses look it up
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_perfbench_tracer_runs_a_study_past_its_retired_names(tmp_path, monkeypatch, capsys):
    """The benchmark's traced mode runs idv-comparison to the end: each
    retired name is skipped with a note, and its layers read 0."""
    tracer = _perfbench_tracer(monkeypatch)
    tracer.install()
    cfg = tiny_config(seeds=(0, 1), snorm="swb-style")
    try:
        res = run_experiment(cfg, "idv-comparison", tmp_path)["idv-comparison"]
    finally:
        tracer.uninstall()
    assert all(path.exists() for path in res.files)
    notes = capsys.readouterr().err.splitlines()
    assert sorted(notes) == sorted(f"tracer: svbackend.{n} not found" for n in RETIRED_TRACED)
    m = tracer.layer_metrics()
    retired = ("dataset.synth_s", "dataset.synth_vectors", "idv.estimate_s",
               "idv.estimate_vectors")
    assert [m.get(k, 0) for k in retired] == [0, 0, 0, 0]
    assert m["gplda.train_s"] > 0


def test_perfbench_tracer_reaches_every_harness_layer(tmp_path, monkeypatch, capsys):
    """The benchmark's tracer wraps functions where svbackend modules bind
    them, so the harness must call each through its module globals.  One
    traced "all" run reaches every layer and counts the work it shares."""
    tracer = _perfbench_tracer(monkeypatch)
    tracer.install()
    try:
        run_experiment(tiny_config(snorm="nist-style", idv="modified"), "all", tmp_path)
    finally:
        tracer.uninstall()
    missing = [line for line in capsys.readouterr().err.splitlines() if "not found" in line]
    assert set(missing) <= {f"tracer: svbackend.{name} not found" for name in RETIRED_TRACED}
    m = tracer.layer_metrics()
    layers = ("dataset.duration_noise", "lda.train",
              "gplda.length_norm", "gplda.train", "gplda.score", "scorenorm.snorm",
              "scorenorm.cohort_matrix", "metrics.evaluate")
    assert [layer for layer in layers if not m.get(f"{layer}_s", 0) > 0] == []
    # the harness projects through each backend's composed matrix: applying IDV
    # and LDA files one after the other is left to the command line
    assert [m.get(f"{layer}_s", 0) for layer in ("idv.apply", "lda.apply")] == [0, 0]
    counts = {k: m.get(k, 0) for k in (
        "scorenorm.cohort_scores", "scorenorm.snorm_trials", "metrics.trials_evaluated",
        "harness.conditions", "lda.apply_vectors", "gplda.length_norm_vectors",
        "idv.apply_vectors", "dataset.duration_noise_vectors", "gplda.trials_scored",
    )}
    # the out-domain system of in-vs-out and idv-comparison is noised, projected and
    # scored once per duration, and each unmatched cohort projected once per backend
    assert counts == {
        "scorenorm.cohort_scores": 19440, "scorenorm.snorm_trials": 5400,
        "metrics.trials_evaluated": 8100, "harness.conditions": 18,
        "lda.apply_vectors": 0, "gplda.length_norm_vectors": 885, "idv.apply_vectors": 0,
        "dataset.duration_noise_vectors": 126, "gplda.trials_scored": 4050,
    }


class TestCli:
    def test_synth_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            rc = cli([
                "synth", "--dim", "6", "--speakers", "4", "--sessions", "2",
                "--seed", "3", "--out-dir", str(tmp_path / sub),
            ])
            assert rc == 0
        a = (tmp_path / "a" / "in_domain.ivec").read_bytes()
        b = (tmp_path / "b" / "in_domain.ivec").read_bytes()
        assert a == b

    def test_synth_writes_one_file_per_domain_draw(self, tmp_path):
        assert cli(["synth", "--dim", "6", "--speakers", "4", "--seed", "3",
                    "--out-dir", str(tmp_path)]) == 0
        cfg = GeneratorConfig(dim=6, n_speakers=4, sessions_per_speaker=5, eigenvoice_dim=6,
                              seed=3)
        for domain in Domain:
            loaded = load_ivectors(tmp_path / f"{domain.value}_domain.ivec")
            assert loaded == synth_domain(cfg, domain)

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--dim", "0", "--speakers", "0", "--sessions", "0"], "dim"),
            (["--speakers", "0"], "n_speakers"),
            (["--sessions", "0"], "sessions_per_speaker"),
        ],
    )
    def test_synth_zero_size_names_field(self, tmp_path, capsys, flags, field):
        rc = cli(["synth", *flags, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"svbackend synth: error: {field} must be an integer >= 1, got 0")
        assert not (tmp_path / "out").exists()

    def test_eval_hand_case_prints_quarter(self, tmp_path, capsys):
        scores = make_scoreset([2.0, 3.0], [1.0, 2.5])
        path = tmp_path / "scores.csv"
        write_scores(scores, path)
        rc = cli(["eval", "--scores", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eer=0.25" in out

    def test_eval_checks_cost_flags_before_reading_scores(self, tmp_path, capsys):
        rc = cli(["eval", "--scores", str(tmp_path / "missing.csv"), "--p-target", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "svbackend eval: error: p_target must be a finite number > 0 and < 1, got 2.0\n")

    def test_eval_report_is_overwritten(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        write_scores(make_scoreset([2.0, 3.0], [1.0, 2.5]), scores)
        report = tmp_path / "report.csv"
        for system in ("first", "second"):
            argv = ["eval", "--scores", str(scores), "--system", system, "--report", str(report)]
            assert cli(argv) == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1].startswith("-,second,0.25,")

    def test_missing_input_names_stage(self, tmp_path, capsys):
        rc = cli([
            "score", "--model", str(tmp_path / "nope.plda"),
            "--enrol", "x", "--test", "y", "--trials", "z",
            "--output", str(tmp_path / "s.csv"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert "score" in err and "error" in err

    def test_synth_config_takes_flags_before_its_checks(self, tmp_path, capsys):
        """``--dim`` resizes a config without ``domain_offset`` as if the file
        said that dim; an explicit offset of the old length still fails."""
        blob = {"dim": 50, "n_speakers": 3, "sessions_per_speaker": 2, "eigenvoice_dim": 4}
        (tmp_path / "gen50.json").write_text(json.dumps(blob))
        (tmp_path / "gen60.json").write_text(json.dumps(blob | {"dim": 60, "seed": 9}))
        for name, flags in (("gen50", ["--dim", "60", "--seed", "9"]), ("gen60", [])):
            assert cli(["synth", "--config", str(tmp_path / f"{name}.json"), *flags,
                        "--out-dir", str(tmp_path / name)]) == 0
        for dom in ("in_domain", "out_domain"):
            ours = (tmp_path / "gen50" / f"{dom}.ivec").read_bytes()
            assert ours == (tmp_path / "gen60" / f"{dom}.ivec").read_bytes()
        assert load_ivectors(tmp_path / "gen50" / "in_domain.ivec").dim == 60
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(blob | {"domain_offset": [0.0] * 50}))
        capsys.readouterr()
        rc = cli(["synth", "--config", str(path), "--dim", "60", "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"svbackend synth: error: {path}: invalid config: domain_offset must have length 60"
        )
        assert not (tmp_path / "o").exists()

    def test_synth_config_unknown_key_named(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"dimm": 6, "n_speakers": 4}))
        rc = cli(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc != 0
        err = capsys.readouterr().err
        assert f"{path}: unknown generator key(s): dimm" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 6,}', "Expecting property name enclosed in double quotes"),
            ("[6, 4]", "generator must be a JSON object, got [6, 4]"),
            ('{"dim": 2, "eigenvoice_dim": 1, "domain_offset": ["1.5", "2"]}',
             "domain_offset must be a finite number, got '1.5'\n"),
            ('{"dim": 2, "eigenvoice_dim": 1, "domain_offset": "12"}',
             "invalid config: domain_offset must be a list of numbers\n"),
        ],
    )
    def test_synth_config_malformed_file_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "gen.json"
        path.write_text(text)
        rc = cli(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"svbackend synth: error: {path}: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, token",
        [
            ("--seeds", "a", "'a'"),
            ("--seeds", "0,,1", "''"),
            ("--seeds", "", "''"),
            ("--durations", "5,abc", "'abc'"),
            ("--durations", "", "''"),
        ],
    )
    def test_experiment_list_flags_name_flag_and_token(self, tmp_path, capsys, flag, value, token):
        rc = cli(["experiment", "--kind", "in-vs-out", flag, value,
                  "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: invalid entry {token}" in err
        assert not (tmp_path / "out").exists()

    def test_durations_flag_parses_as_the_config_does(self, tmp_path, capsys):
        assert cli(["experiment", "--durations", "x", "--out-dir", str(tmp_path)]) == 2
        assert "invalid entry 'x', expected a number or 'full'" in capsys.readouterr().err
        args = build_parser().parse_args(["experiment", "--durations", "full,10,2.5"])
        assert args.durations == (None, 10.0, 2.5)

    def test_score_snorm_eval_build_no_per_trial_objects(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        k = 4
        r = 0.3 * rng.standard_normal((k, k))
        lam = np.linalg.inv(r @ r.T + 0.4 * np.eye(k))
        save_plda(PldaModel(np.zeros(k), rng.standard_normal((k, 2)), (lam + lam.T) / 2),
                  tmp_path / "m.plda")
        enrol = make_dataset(rng.standard_normal((4, k)), prefix="e")
        test = make_dataset(rng.standard_normal((6, k)), prefix="t")
        for name, ds in (("enrol", enrol), ("test", test),
                         ("cohort", make_dataset(rng.standard_normal((9, k)), prefix="c"))):
            save_ivectors(ds, tmp_path / f"{name}.ivec")
        trials = TrialList(
            enrol.ids, test.ids,
            np.repeat(np.arange(4), 6), np.tile(np.arange(6), 4), np.arange(24) % 5 == 0,
        )
        save_trials(trials, tmp_path / "trials.txt")
        w = str(tmp_path)
        assert cli(["score", "--model", f"{w}/m.plda", "--enrol", f"{w}/enrol.ivec",
                    "--test", f"{w}/test.ivec", "--trials", f"{w}/trials.txt",
                    "--output", f"{w}/scores.csv"]) == 0
        assert cli(["snorm", "--model", f"{w}/m.plda", "--scores", f"{w}/scores.csv",
                    "--enrol", f"{w}/enrol.ivec", "--test", f"{w}/test.ivec",
                    "--cohort", f"{w}/cohort.ivec", "--output", f"{w}/snormed.csv"]) == 0
        assert cli(["eval", "--scores", f"{w}/snormed.csv", "--which", "normalized"]) == 0
        assert "n_target=5 n_nontarget=19" in capsys.readouterr().out
        # --cohort-label is still accepted, hidden from --help, and changes no byte
        assert cli(["snorm", "--model", f"{w}/m.plda", "--scores", f"{w}/scores.csv",
                    "--enrol", f"{w}/enrol.ivec", "--test", f"{w}/test.ivec",
                    "--cohort", f"{w}/cohort.ivec", "--cohort-label", "swb@10s",
                    "--output", f"{w}/labeled.csv"]) == 0
        assert (tmp_path / "labeled.csv").read_bytes() == (tmp_path / "snormed.csv").read_bytes()
        assert cli(["snorm", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--cohort " in help_text and "--cohort-label" not in help_text
        normalized = read_scores(tmp_path / "snormed.csv")
        assert normalized.trial_list == trials and normalized.has_normalized

    def test_score_diff_script(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "score_diff", Path(__file__).resolve().parent.parent / "scripts" / "score_diff.py"
        )
        score_diff = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(score_diff)
        a = make_scoreset([2.0, 3.0], [1.0])
        write_scores(a, tmp_path / "a.csv")
        write_scores(ScoreSet(a.trial_list, a.raw, [0.5, 1.0, -1.0]), tmp_path / "b.csv")
        write_scores(ScoreSet(a.trial_list, a.raw, [0.75, 1.0, -1.0]), tmp_path / "c.csv")
        write_scores(make_scoreset([2.0, 3.0], [1.0, 0.0]), tmp_path / "d.csv")
        files = [str(tmp_path / f"{n}.csv") for n in "abcd"]
        assert score_diff.main([files[1], files[2]]) == 0
        assert "rows=3 max|d_raw|=0.0 max|d_norm|=0.25" in capsys.readouterr().out
        assert score_diff.main([files[0], files[0]]) == 0
        assert "max|d_norm|=-" in capsys.readouterr().out
        assert score_diff.main([files[0], files[1]]) == 1
        assert score_diff.main([files[0], files[3]]) == 1
        assert "row count differs: 3 vs 4" in capsys.readouterr().out
        write_scores(make_scoreset([2.0], [3.0, 1.0]), tmp_path / "e.csv")
        assert score_diff.main([files[0], str(tmp_path / "e.csv")]) == 1
        assert "row 2 differs" in capsys.readouterr().out
        assert score_diff.main([files[0], str(tmp_path / "missing.csv")]) == 2

    def test_linecov_script(self, tmp_path):
        """The tracer reports the one statement a stub package's tests never
        run, and counts a multi-line statement and a ``try`` body as run."""
        package = tmp_path / "src" / "stubpkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            'def f(x):\n'
            '    """Doc."""\n'
            '    try:\n'
            '        y = int(\n'
            '            x\n'
            '        )\n'
            '    except TypeError:\n'
            '        y = 0\n'
            '    if y < 0:\n'
            '        raise ValueError("negative")\n'
            '    return y\n'
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_stub.py").write_text(
            "from stubpkg import f\n\n\ndef test_f():\n    assert f(1) == 1 and f(None) == 0\n"
        )
        script = Path(__file__).resolve().parent.parent / "scripts" / "linecov.py"
        done = subprocess.run(
            [sys.executable, str(script), "--package", str(package), "-q", "-p",
             "no:cacheprovider", str(tmp_path / "tests")],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        report = done.stdout.splitlines()[-2:]
        assert report == [
            f"stubpkg{os.sep}__init__.py: 4 of 5 statements ran",
            f'  stubpkg{os.sep}__init__.py:10: raise ValueError("negative")',
        ]

    def test_bench_pairs_script(self, tmp_path, capsys):
        bench_pairs = _bench_pairs()
        log = tmp_path / "log.txt"
        stub = (
            "import json, sys\n"
            "with open({log!r}, 'a', encoding='utf-8') as f:\n"
            "    f.write({name!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
            "print('workload stub')\n"
            "print(json.dumps({{'correct': {correct}, 'attempted': 4, 'failed': 0, 'metrics': {{\n"
            "    'wall_s': {{'value': {wall}, 'unit': 's'}},\n"
            "    'trials_per_s': {{'value': {tps}, 'unit': '1/s'}},\n"
            "    'setup_s': {{'value': {setup}, 'unit': 's'}},\n"
            "    'peak_rss_mb': {{'value': 100.0, 'unit': 'MB'}}}}}}))\n"
        )
        checkouts = {}
        # setup_s of "noisy" is 1.0, 1.5, 0.5 on seeds 7, 8, 9: IQR 50% of its median
        for name, wall, correct, setup in (
            ("parent", 2.0, True, "0.5"), ("change", 1.5, True, "0.5"),
            ("broken", 1.0, False, "0.5"), ("noisy", 2.0, True, "0.5 * (1 + int(sys.argv[4]) % 3)"),
            ("fast", 2.0, True, "0.25"),
        ):
            (tmp_path / name / "perfbench").mkdir(parents=True)
            (tmp_path / name / "perfbench" / "run.py").write_text(stub.format(
                log=str(log), name=name, correct=correct, wall=wall, tps=300.0 / wall, setup=setup,
            ), encoding="utf-8")
            checkouts[name] = str(tmp_path / name)
        flags = ["--workload", "paper-train", "--pairs", "3", "--seed", "7", "--seconds", "1"]
        assert bench_pairs.main([checkouts["parent"], checkouts["change"], *flags]) == 0
        out = capsys.readouterr().out
        assert "pair 0 seed 7 (parent first): wall_s 2 -> 1.5 (-25.0%)" in out
        assert "pair 1 seed 8 (change first)" in out
        assert ("wall_s (lower is better): parent median 2 [2, 2] IQR 0; change median 1.5 "
                "[1.5, 1.5] (-25.0%); change better in 3/3 pairs") in out
        assert "trials_per_s (higher is better)" in out and "(+33.3%)" in out
        assert "setup_s (lower is better)" in out and "change better in 0/3 pairs" in out
        assert "change better in 3/3 pairs; within the 25% bound; gain shown" in out
        assert "peak_rss_mb (lower is better)" in out
        assert "pairs; within the 5% bound; no gain shown" in out
        assert log.read_text(encoding="utf-8").splitlines() == [
            f"{name} --workload paper-train --seed {seed} --seconds 1.0"
            for name, seed in (("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                               ("parent", 9), ("change", 9))
        ]
        for parent, change, setup_verdict in (
            ("parent", "noisy", "worse than the 25% bound; no gain shown"),
            ("noisy", "parent",
             "unresolved: parent IQR 50.0% of its median exceeds the 25% bound; no gain shown"),
            ("noisy", "fast", "within the 25% bound; gain shown"),
        ):
            assert bench_pairs.main([checkouts[parent], checkouts[change], *flags]) == 0
            summary = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("setup_s ")]
            assert len(summary) == 1 and summary[0].endswith(f"pairs; {setup_verdict}")
        assert bench_pairs.main([checkouts["parent"], checkouts["broken"], *flags[:3],
                                 "1", *flags[4:]]) == 1
        assert "  change run of seed 7: correct=False failed=0" in capsys.readouterr().out
        assert bench_pairs.main([checkouts["parent"], str(tmp_path / "missing"), *flags]) == 2
        assert "missing: No such file or directory" in capsys.readouterr().err

    def test_bench_pairs_gain_rule(self):
        """Better in at least 9/10 of the pairs, ties counting for neither side,
        and a median ahead by more than the parent's IQR."""
        gain = _bench_pairs().gain
        parent = [10.0 + i for i in range(10)]  # median 14.5, IQR 4.5
        assert gain(parent, [x - 5.0 for x in parent], "lower") == "gain shown"
        assert gain(parent, [x - 4.5 for x in parent], "lower") == "no gain shown"  # = IQR
        assert gain([-x for x in parent], [5.0 - x for x in parent], "higher") == "gain shown"
        tied = [x - 5.0 for x in parent[:9]] + [parent[9]]  # 9/10 pairs, one tie
        assert gain(parent, tied, "lower") == "gain shown"
        lost = [x - 5.0 for x in parent[:8]] + parent[8:]  # 8/10 pairs
        assert gain(parent, lost, "lower") == "no gain shown"
        assert gain(parent, [x - 5.0 for x in parent], "higher") == "no gain shown"

    def test_unknown_subcommand_nonzero(self, capsys):
        assert cli(["frobnicate"]) != 0

    def test_experiment_subcommand(self, tmp_path, capsys):
        cfg = tiny_config(durations=(None,))
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        rc = cli([
            "experiment", "--config", str(cfg_path), "--kind", "in-vs-out",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "in_vs_out_report.csv").exists()

    def test_experiment_snapshots_effective_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(durations=(None,)), cfg_path)
        out = tmp_path / "out"
        rc = cli(["experiment", "--config", str(cfg_path), "--kind", "in-vs-out",
                  "--out-dir", str(out), "--seeds", "1"])
        assert rc == 0
        expected = replace(tiny_config(durations=(None,)), seeds=(1,), output_dir=str(out))
        assert load_config(out / "experiment_config.json") == expected
        assert f"config snapshot: {out / 'experiment_config.json'}" in capsys.readouterr().out

    def test_experiment_durations_and_snorm_overrides_reach_the_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(durations=(None,)), cfg_path)
        out = tmp_path / "out"
        rc = cli(["experiment", "--config", str(cfg_path), "--kind", "in-vs-out",
                  "--out-dir", str(out), "--durations", "full,20", "--snorm", "nist-style"])
        assert rc == 0
        expected = tiny_config(durations=(None, 20.0), snorm="nist-style", output_dir=str(out))
        assert load_config(out / "experiment_config.json") == expected
        report = (out / "in_vs_out_report.csv").read_bytes()
        with open(out / "in_vs_out_report.csv", newline="", encoding="utf-8") as f:
            conditions = {row["condition"] for row in csv.DictReader(f)}
        assert conditions == {"seed=0/dur=full", "seed=0/dur=20"}
        # the S-norm override changes every score: the rows are those of a
        # nist-style run, not of the config file's raw scoring
        for snorm, same in (("nist-style", True), ("off", False)):
            run_experiment(replace(expected, snorm=snorm), "in-vs-out", tmp_path / snorm)
            assert ((tmp_path / snorm / "in_vs_out_report.csv").read_bytes() == report) is same

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "0,0", "seeds: 0 is repeated"),
        ("--durations", "full,20,20.0", "durations: '20' is repeated"),
    ])
    def test_experiment_repeated_entry_named(self, tmp_path, capsys, flag, value, message):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(), cfg_path)
        out = tmp_path / "out"
        rc = cli(["experiment", "--config", str(cfg_path), "--kind", "in-vs-out",
                  "--out-dir", str(out), flag, value])
        assert rc == 1
        assert f"svbackend experiment: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_config_errors_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lda_dim": "20"}))
        assert cli(["experiment", "--config", str(path), "--out-dir", str(tmp_path)]) != 0
        assert f"{path}: lda_dim must be an integer" in capsys.readouterr().err


class TestManualComposition:
    def test_report_row_reproducible_via_subcommands(self, tmp_path, capsys):
        """An experiment CSV row must be re-derivable from the CLI stages."""
        cfg = tiny_config()
        res = run_experiment(cfg, "in-vs-out", tmp_path / "exp")["in-vs-out"]
        target_row = next(
            r
            for r in res.report_rows
            if r.system == SYSTEM_OUT and r.condition == "seed=0/dur=full"
        )

        seed = 0
        work = tmp_path / "manual"
        work.mkdir()
        train_gen = replace(cfg.generator, seed=seed, subspace_seed=seed)
        eval_gen = replace(
            train_gen,
            seed=seed + EVAL_SEED_OFFSET,
            n_speakers=cfg.eval_speakers,
            sessions_per_speaker=cfg.eval_sessions,
        )
        for name, gen in (("train", train_gen), ("eval", eval_gen)):
            blob = {
                "dim": gen.dim, "n_speakers": gen.n_speakers,
                "sessions_per_speaker": gen.sessions_per_speaker,
                "eigenvoice_dim": gen.eigenvoice_dim,
                "speaker_scale": gen.speaker_scale,
                "channel_scale": gen.channel_scale,
                "out_channel_scale": gen.out_channel_scale,
                "domain_offset": np.asarray(gen.domain_offset).tolist(),
                "duration_ref_sec": gen.duration_ref_sec,
                "duration_noise_scale": gen.duration_noise_scale,
                "seed": gen.seed, "subspace_seed": gen.subspace_seed,
            }
            (work / f"{name}.json").write_text(json.dumps(blob))
            assert cli(["synth", "--config", str(work / f"{name}.json"),
                        "--out-dir", str(work / name)]) == 0

        k = min(cfg.lda_dim, cfg.generator.dim, cfg.generator.n_speakers - 1)
        assert cli(["train-lda", "--data", str(work / "train" / "out_domain.ivec"),
                    "--dim", str(k), "--output", str(work / "lda.bin")]) == 0
        assert cli(["transform", "--data", str(work / "train" / "out_domain.ivec"),
                    "--lda", str(work / "lda.bin"), "--length-norm",
                    "--output", str(work / "train_proj.ivec")]) == 0
        assert cli(["train-plda", "--data", str(work / "train_proj.ivec"),
                    "--q", str(min(cfg.plda_q, k)), "--iters", str(cfg.plda_iters),
                    "--seed", str(seed), "--output", str(work / "m.plda")]) == 0
        assert cli(["transform", "--data", str(work / "eval" / "in_domain.ivec"),
                    "--lda", str(work / "lda.bin"), "--length-norm",
                    "--output", str(work / "eval_proj.ivec")]) == 0

        eval_proj = load_ivectors(work / "eval_proj.ivec")
        enrol_pos, test_pos, trials = build_trials(eval_proj)
        save_ivectors(eval_proj.subset(enrol_pos), work / "enrol.ivec")
        save_ivectors(eval_proj.subset(test_pos), work / "test.ivec")
        save_trials(trials, work / "trials.txt")

        assert cli(["score", "--model", str(work / "m.plda"),
                    "--enrol", str(work / "enrol.ivec"), "--test", str(work / "test.ivec"),
                    "--trials", str(work / "trials.txt"),
                    "--output", str(work / "scores.csv")]) == 0
        assert cli(["eval", "--scores", str(work / "scores.csv"),
                    "--report", str(work / "report.csv")]) == 0
        capsys.readouterr()

        with open(work / "report.csv") as f:
            row = list(csv.DictReader(f))[0]
        assert float(row["eer"]) == target_row.eer
        assert float(row["min_dcf"]) == target_row.min_dcf


#: sha256 of the files the ``test_cli_chain_files_match_pinned_hashes`` chain writes.
CLI_CHAIN_SHA256 = {
    "scores.csv": "9b8c3996f246ac0ffba3da4a700412bed29cb58b5f37d0afd5db33b3c03226b4",
    "snormed.csv": "11b177e92a2231e3a982f4944a8fd3a61e051d32bc8bec83d97846b398e079d5",
    "eval.csv": "ebb3a4a17ad0709488763fd34dbe42494e8ed0361c6e3e57776cc8fe30d4b094",
}


#: Run in a fresh interpreter: imports the package, then runs CLI steps
#: (argv lists, as JSON in argv[1]) and prints, as JSON, the scipy modules
#: loaded after each stage.
STARTUP_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

loaded = []
import svbackend
loaded.append(scipy_modules())
from svbackend.cli import cli
loaded.append(scipy_modules())
for argv in json.loads(sys.argv[1]):
    assert cli(argv) == 0, argv
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path, capsys):
    """In a fresh interpreter, importing the package and the CLI and running
    every subcommand (synth, train-idv, train-lda, transform, train-plda,
    score, snorm, eval and experiment) loads no scipy module, and the three
    trainers write the models the test process writes."""
    w = tmp_path
    synth = ["synth", "--dim", "8", "--speakers", "12", "--sessions", "3", "--seed", "5"]
    assert cli([*synth, "--out-dir", f"{w}/train"]) == 0
    out_domain, in_domain = f"{w}/train/out_domain.ivec", f"{w}/train/in_domain.ivec"
    train_idv = ["train-idv", "--out-domain", out_domain, "--in-domain", in_domain, "--output"]
    train_lda = ["train-lda", "--data", out_domain, "--dim", "4", "--output"]
    assert cli([*train_idv, f"{w}/idv.bin"]) == 0
    assert cli([*train_lda, f"{w}/lda.bin"]) == 0
    write_scores(make_scoreset([2.0, 3.0], [1.0, 2.5]), w / "scores.csv")
    transform = ["transform", "--data", out_domain, "--idv", f"{w}/idv.bin", "--lda",
                 f"{w}/lda.bin", "--length-norm", "--output"]
    plda = ["train-plda", "--q", "2", "--iters", "3", "--output"]
    assert cli([*transform, f"{w}/here.ivec"]) == 0
    assert cli([*plda, f"{w}/here.plda", "--data", f"{w}/here.ivec"]) == 0
    proj = load_ivectors(w / "here.ivec")
    enrol_pos, test_pos, trials = build_trials(proj)
    save_ivectors(proj.subset(enrol_pos), w / "enrol.ivec")
    save_ivectors(proj.subset(test_pos), w / "test.ivec")
    save_trials(trials, w / "trials.txt")
    save_config(tiny_config(idv="modified", snorm="swb-style", durations=(15.0,)), w / "cfg.json")
    sides = ["--model", f"{w}/here.plda", "--enrol", f"{w}/enrol.ivec", "--test", f"{w}/test.ivec"]
    steps = [
        [*synth, "--out-dir", f"{w}/fresh"],
        [*train_idv, f"{w}/fresh_idv.bin"],
        [*train_lda, f"{w}/fresh_lda.bin"],
        [*transform, f"{w}/proj.ivec"],
        [*plda, f"{w}/fresh.plda", "--data", f"{w}/proj.ivec"],
        ["eval", "--scores", f"{w}/scores.csv"],
        ["score", *sides, "--trials", f"{w}/trials.txt", "--output", f"{w}/raw.csv"],
        ["snorm", *sides, "--scores", f"{w}/raw.csv", "--cohort", f"{w}/here.ivec",
         "--output", f"{w}/snormed.csv"],
        ["experiment", "--config", f"{w}/cfg.json", "--kind", "all", "--out-dir", f"{w}/study"],
    ]
    src = str(Path(svbackend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(steps)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # import svbackend, import svbackend.cli, then each step
    assert loaded == [[]] * (2 + len(steps))
    capsys.readouterr()
    assert read_scores(w / "snormed.csv").has_normalized
    assert len(list((w / "study").glob("*.csv"))) == 8
    for here, fresh in (("idv.bin", "fresh_idv.bin"), ("lda.bin", "fresh_lda.bin"),
                        ("here.plda", "fresh.plda")):
        assert (w / fresh).read_bytes() == (w / here).read_bytes()


def test_cli_chain_files_match_pinned_hashes(tmp_path, capsys):
    """synth -> train-idv/lda/plda -> transform -> score -> snorm -> eval through
    the CLI writes score, S-normed and report CSVs with pinned bytes.  The
    20k-trial score files span two read and write blocks."""
    w = tmp_path
    offset = np.linspace(-1.5, 1.5, 20).tolist()
    (w / "gen.json").write_text(json.dumps(dict(
        dim=20, n_speakers=40, sessions_per_speaker=4, eigenvoice_dim=6, channel_scale=0.7,
        domain_offset=offset, seed=3, subspace_seed=11,
    )))
    gen = str(w / "gen.json")
    steps = [
        ["synth", "--config", gen, "--out-dir", f"{w}/train"],
        ["synth", "--config", gen, "--seed", "104", "--speakers", "100", "--sessions", "3",
         "--out-dir", f"{w}/eval"],
        ["synth", "--config", gen, "--seed", "214", "--speakers", "30",
         "--out-dir", f"{w}/cohort"],
        ["train-idv", "--out-domain", f"{w}/train/out_domain.ivec",
         "--in-domain", f"{w}/cohort/in_domain.ivec", "--output", f"{w}/idv.bin"],
        ["transform", "--data", f"{w}/train/out_domain.ivec", "--idv", f"{w}/idv.bin",
         "--output", f"{w}/train_comp.ivec"],
        ["train-lda", "--data", f"{w}/train_comp.ivec", "--dim", "12", "--output", f"{w}/lda.bin"],
        ["transform", "--data", f"{w}/train_comp.ivec", "--lda", f"{w}/lda.bin", "--length-norm",
         "--output", f"{w}/train_proj.ivec"],
        ["train-plda", "--data", f"{w}/train_proj.ivec", "--q", "6", "--iters", "5",
         "--output", f"{w}/m.plda"],
    ]
    proj = ["--idv", f"{w}/idv.bin", "--lda", f"{w}/lda.bin", "--length-norm"]
    for name, src in (("eval", "eval/in_domain"), ("cohort", "cohort/in_domain")):
        steps.append(["transform", "--data", f"{w}/{src}.ivec", *proj,
                      "--output", f"{w}/{name}_proj.ivec"])
    for argv in steps:
        assert cli(argv) == 0, argv
    eval_proj = load_ivectors(w / "eval_proj.ivec")
    enrol_pos, test_pos, trials = build_trials(eval_proj)
    save_ivectors(eval_proj.subset(enrol_pos), w / "enrol.ivec")
    save_ivectors(eval_proj.subset(test_pos), w / "test.ivec")
    save_trials(trials, w / "trials.txt")
    assert len(trials) == 20000
    sides = ["--enrol", f"{w}/enrol.ivec", "--test", f"{w}/test.ivec"]
    for argv in (
        ["score", "--model", f"{w}/m.plda", *sides, "--trials", f"{w}/trials.txt",
         "--output", f"{w}/scores.csv"],
        ["snorm", "--model", f"{w}/m.plda", "--scores", f"{w}/scores.csv", *sides,
         "--cohort", f"{w}/cohort_proj.ivec", "--output", f"{w}/snormed.csv"],
        ["eval", "--scores", f"{w}/snormed.csv", "--which", "normalized",
         "--condition", "snorm", "--system", "cli", "--report", f"{w}/eval.csv"],
    ):
        assert cli(argv) == 0, argv
    capsys.readouterr()
    digests = {name: hashlib.sha256((w / name).read_bytes()).hexdigest()
               for name in CLI_CHAIN_SHA256}
    assert digests == CLI_CHAIN_SHA256


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: default_experiment_config(generator={}), ValueError,
         "generator must be a GeneratorConfig, got {}"),
        (lambda: default_experiment_config(output_dir=5), ValueError,
         "output_dir must be a str, got 5"),
        (lambda: default_experiment_config(idv="bogus"), ValueError,
         "idv must be one of ('off', 'original', 'modified')"),
        (lambda: default_experiment_config(durations=()), ValueError,
         "need at least one evaluation duration"),
        (lambda: harness.ExperimentResult((), (), ()).mean_value("full", "x", "eer"), KeyError,
         "('full', 'x', 'eer')"),
    ],
    ids=["generator", "output_dir", "idv", "durations", "mean-value-key"],
)
def test_error_paths_name_the_field(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message  # a KeyError's text is its key's repr


def _bench_pairs():
    """``scripts/bench_pairs.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def _labeled():
    """Six 3-dimensional i-vectors of three speakers."""
    values = np.random.default_rng(0).standard_normal((6, 3))
    return make_dataset(values, ["a", "a", "b", "b", "c", "c"])


#: A duration law under which the shortest positive float is a valid duration.
_SHORT_REF = GeneratorConfig(dim=3, eigenvoice_dim=1, duration_ref_sec=1e-300,
                             duration_noise_scale=1.0)

#: Entry point and argument -> (call with the argument set to x, its bound as
#: ``check_number`` takes it, integer).
NUMERIC_ARGUMENTS = {
    "train_gplda-q": (lambda x: train_gplda(_labeled(), q=x, iters=1), 1, True),
    "train_gplda-iters": (lambda x: train_gplda(_labeled(), q=1, iters=x), 0, True),
    "train_gplda-seed": (lambda x: train_gplda(_labeled(), q=1, iters=1, seed=x), 0, True),
    "lda_from_scatter-k": (lambda x: lda_from_scatter(2 * np.eye(3), np.eye(3), x), 1, True),
    "lda_from_scatter-ridge": (
        lambda x: lda_from_scatter(2 * np.eye(3), np.eye(3), 1, x), 0.0, False),
    "train_lda-k": (lambda x: train_lda(_labeled(), x), 1, True),
    "train_lda-ridge": (lambda x: train_lda(_labeled(), 1, x), 0.0, False),
    "estimate_idv-ridge": (
        lambda x: estimate_idv(IdvVariant.MODIFIED, _labeled(), _labeled(), x), 0.0, False),
    "IdvTransform-ridge": (
        lambda x: IdvTransform(IdvVariant.ORIGINAL, np.eye(2), np.eye(2), x), 0.0, False),
    "apply_duration_noise-seed": (
        lambda x: apply_duration_noise(
            _labeled(), 10.0, GeneratorConfig(dim=3, eigenvoice_dim=1, duration_noise_scale=1.0), x
        ), 0, True),
    **{
        f"GeneratorConfig-{name}": (
            lambda x, name=name: GeneratorConfig(dim=2, eigenvoice_dim=1, **{name: x}), 0.0, False)
        for name in ("speaker_scale", "channel_scale", "out_channel_scale")
    },
    "ExperimentConfig-durations": (
        lambda x: ExperimentConfig(_SHORT_REF, durations=(None, x)), (0, math.inf), False),
    "GeneratorConfig-duration_ref_sec": (
        lambda x: GeneratorConfig(dim=2, eigenvoice_dim=1, duration_ref_sec=x), (0, math.inf),
        False),
    "noise_sigma-duration_sec": (lambda x: _SHORT_REF.noise_sigma(x), (0, math.inf), False),
    "apply_duration_noise-duration_sec": (
        lambda x: apply_duration_noise(_labeled(), x, _SHORT_REF, 0), (0, math.inf), False),
    "DcfParams-c_miss": (lambda x: DcfParams(c_miss=x), (0, math.inf), False),
    "DcfParams-c_fa": (lambda x: DcfParams(c_fa=x), (0, math.inf), False),
    "DcfParams-p_target": (lambda x: DcfParams(p_target=x), (0, 1), False),
}


def _bad_numbers(bound, integer):
    """NaN, +-inf, a bool, a numeric string and values outside ``bound``, plus a
    float where an integer is due.  An open end is itself outside."""
    if isinstance(bound, tuple):
        low, high = bound
        beyond = [float(high), high + 0.5] if high < math.inf else []
        return [math.nan, math.inf, -math.inf, True, "5", low, low - 1, *beyond, 10**400]
    bad = [math.nan, math.inf, -math.inf, True, "1", bound - 1, 10**400, -(10**400)]
    return bad + [float(bound + 1)] if integer else bad


@pytest.mark.parametrize(
    "entry, value",
    [(entry, x) for entry, (_, bound, integer) in NUMERIC_ARGUMENTS.items()
     for x in _bad_numbers(bound, integer)],
)
def test_numeric_arguments_fail_naming_the_argument(entry, value):
    call, bound, integer = NUMERIC_ARGUMENTS[entry]
    name = entry.split("-")[1]
    what = "an integer" if integer else "a finite number"
    if isinstance(bound, tuple):  # values just inside each open end are accepted
        low, high = bound
        text = f"> {low:g}" + (f" and < {high:g}" if high < math.inf else "")
        inside = [math.nextafter(low, high)]
        inside += [math.nextafter(high, low)] if high < math.inf else []
    else:  # the minimum itself is accepted
        text, inside = f">= {bound:g}", [bound]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call(value)
        for x in inside:
            call(x)
    assert str(err.value) == f"{name} must be {what} {text}, got {value!r}"


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: check_number("seed", x, 0, integer=True), "seed"),
        (lambda x: config_from_dict(json.loads(f'{{"seeds": [{x}]}}')), "seeds"),
        (lambda x: GeneratorConfig(dim=2, eigenvoice_dim=1, domain_offset=[x, 0]),
         "domain_offset"),
    ],
    ids=["check_number", "config-seeds", "domain_offset"],
)
def test_an_int_beyond_the_float_range_fails_naming_the_argument(call, name):
    """``math.isfinite`` raises ``OverflowError`` for such an int; it is
    reported as any other number that is not finite."""
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(10**400)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train-idv", "--ridge", "nan", "--out-domain", "{d}", "--in-domain", "{d}",
          "--output", "{o}"], "ridge must be a finite number >= 0, got nan"),
        (["train-lda", "--ridge", "inf", "--dim", "1", "--data", "{d}", "--output", "{o}"],
         "ridge must be a finite number >= 0, got inf"),
        (["train-plda", "--seed", "-1", "--q", "1", "--data", "{d}", "--output", "{o}"],
         "seed must be an integer >= 0, got -1"),
        (["eval", "--c-miss", "0", "--scores", "{d}", "--report", "{o}"],
         "c_miss must be a finite number > 0, got 0.0"),
        (["eval", "--p-target", "1", "--scores", "{d}", "--report", "{o}"],
         "p_target must be a finite number > 0 and < 1, got 1.0"),
    ],
    ids=["train-idv", "train-lda", "train-plda", "eval-c-miss", "eval-p-target"],
)
def test_cli_numeric_flags_fail_naming_the_argument(tmp_path, argv, message):
    """The error is the only line on stderr: no numpy warning comes before it."""
    save_ivectors(_labeled(), tmp_path / "d.ivec")
    argv = [a.format(d=tmp_path / "d.ivec", o=tmp_path / "o") for a in argv]
    src = str(Path(svbackend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "svbackend", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == f"svbackend {argv[0]}: error: {message}\n"
    assert not (tmp_path / "o").exists()
