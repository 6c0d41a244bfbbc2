"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The trend criteria (6, 7, 10 and 11) run the calibrated desk-scale study used
throughout the docs: dimension 50, 200 training speakers per domain,
five seeds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from svbackend.dataset import Dataset, Domain, GeneratorConfig, synth_domain
from svbackend.gplda import (
    PldaModel,
    ScoreSet,
    load_plda,
    pair_llr,
    save_plda,
    score_trials,
    train_gplda,
)
from svbackend.harness import (
    SYSTEM_IDV,
    SYSTEM_IN,
    SYSTEM_MODIFIED_IDV,
    SYSTEM_OUT,
    default_experiment_config,
    duration_label,
    make_run_data,
    run_experiment,
    train_backend,
)
from svbackend.idv import IdvVariant, estimate_idv, load_idv, save_idv
from svbackend.lda import load_lda, save_lda, scatter_matrices, train_lda
from svbackend.metrics import DcfParams, evaluate
from svbackend.scorenorm import cohort_score_matrix, snorm, snorm_from_cohort_scores

from conftest import make_dataset, make_scoreset, make_trials
from oracles import eer_brute, min_dcf_brute, modified_idv_scatter, plda_pair_llr


def test_criterion_1_metric_oracle_equivalence():
    """evaluate's EER and minDCF match the exhaustive-threshold oracle on 200 small sets."""
    rng = np.random.default_rng(101)
    params = DcfParams()
    start = time.monotonic()
    for case in range(200):
        n_tar = int(rng.integers(1, 7))
        n_non = int(rng.integers(1, 13 - n_tar))
        if rng.random() < 0.5:
            # half-integer grid to exercise ties
            tar = (rng.integers(-4, 5, n_tar) / 2.0).tolist()
            non = (rng.integers(-4, 5, n_non) / 2.0).tolist()
        else:
            tar = rng.standard_normal(n_tar).tolist()
            non = rng.standard_normal(n_non).tolist()
        ss = make_scoreset(tar, non)
        t, n = np.array(tar), np.array(non)
        row = evaluate(ss, params=params)
        assert row.eer == pytest.approx(eer_brute(t, n), abs=1e-12)
        assert row.min_dcf == pytest.approx(
            min_dcf_brute(t, n, params.c_miss, params.c_fa, params.p_target), abs=1e-12
        )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: 200 score sets match the brute-force oracle ({elapsed:.2f}s)")


def test_criterion_2_plda_scoring_oracle():
    """pair_llr matches the joint-Gaussian log-density oracle, 1e-8."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(100):
        k = int(rng.integers(2, 5))
        q = int(rng.integers(1, 3))
        mean = rng.standard_normal(k)
        u1 = 0.8 * rng.standard_normal((k, q))
        r = 0.4 * rng.standard_normal((k, k))
        sigma_w = r @ r.T + 0.3 * np.eye(k)
        lam = np.linalg.inv(sigma_w)
        m = PldaModel(mean, u1, (lam + lam.T) / 2)
        a = mean + rng.standard_normal(k)
        b = mean + rng.standard_normal(k)
        got = pair_llr(m, a[None], b[None])[0, 0]
        ref = plda_pair_llr(m.mean, m.sigma_between, m.sigma_within, a, b)
        worst = max(worst, abs(got - ref))
        assert got == pytest.approx(ref, abs=1e-8)
    print(f"\nACCEPTANCE 2 PASS: 100 random models match the Gaussian oracle (worst {worst:.2e})")


def test_criterion_3_em_monotonicity():
    """Marginal log-likelihood non-decreasing over 20 iterations, 50 datasets."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for case in range(50):
        cfg = GeneratorConfig(
            dim=int(rng.integers(3, 7)),
            n_speakers=int(rng.integers(5, 16)),
            sessions_per_speaker=int(rng.integers(2, 6)),
            eigenvoice_dim=2,
            speaker_scale=float(rng.uniform(0.5, 1.5)),
            channel_scale=float(rng.uniform(0.4, 1.2)),
            seed=int(rng.integers(0, 2**31)),
        )
        ds = synth_domain(cfg, Domain.IN_DOMAIN)
        q = int(rng.integers(1, cfg.dim))
        m = train_gplda(ds, q=q, iters=20, seed=int(rng.integers(0, 2**31)))
        diffs = np.diff(np.array(m.loglik_trace))
        worst = min(worst, float(diffs.min()))
        assert np.all(diffs >= -1e-8)
    print(f"\nACCEPTANCE 3 PASS: EM log-likelihood monotone on 50 datasets (worst step {worst:.2e})")


def test_criterion_4_idv_whitening_and_oracle():
    """Ridge-free whitening hits identity; estimator matches two-loop oracle."""
    rng = np.random.default_rng(404)
    worst_white = 0.0
    for case in range(50):
        dim = 6
        out = make_dataset(rng.standard_normal((120, dim)) + rng.standard_normal(dim), prefix="o")
        inn = make_dataset(rng.standard_normal((110, dim)), prefix="i")
        t = estimate_idv(IdvVariant.MODIFIED, out, inn, ridge=0.0)
        assert t.ridge == 0.0
        white = t.decorrelator.T @ t.s_idv @ t.decorrelator
        err = np.linalg.norm(white - np.eye(dim))
        worst_white = max(worst_white, err)
        assert err <= 1e-8
        ref = modified_idv_scatter(out.matrix(), inn.matrix())
        assert np.linalg.norm(t.s_idv - ref) <= 1e-12 * np.linalg.norm(ref)
    print(f"\nACCEPTANCE 4 PASS: 50 whitenings at identity (worst {worst_white:.2e}), oracle match 1e-12")


def test_criterion_5_lda_residual_and_analytic_case():
    """Generalized-eigen residual small; 2-D case finds the separating axis."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for case in range(20):
        dim = 6
        values, speakers = [], []
        for s in range(8):
            center = 1.5 * rng.standard_normal(dim)
            for _ in range(10):
                values.append(center + rng.standard_normal(dim))
                speakers.append(f"s{s}")
        ds = make_dataset(np.array(values), speakers=speakers)
        # plentiful sessions keep S_w positive definite, so the residual can
        # be checked ridge-free (the default ridge adds a known lambda*ridge
        # bias on top of solver error)
        t = train_lda(ds, k=4, ridge=0.0)
        s_b, s_w = scatter_matrices(ds)
        scale = np.linalg.norm(s_b)
        for j in range(t.output_dim):
            v = t.a_matrix[:, j]
            resid = np.linalg.norm(s_b @ v - t.eigenvalues[j] * (s_w @ v)) / scale
            worst = max(worst, resid)
            assert resid <= 1e-6
    values = np.array([[-1.0, -0.4], [-1.0, 0.4], [1.0, -0.4], [1.0, 0.4]])
    ds = make_dataset(values, speakers=["a", "a", "b", "b"])
    t = train_lda(ds, k=1)
    cos = abs(t.a_matrix[:, 0] @ np.array([1.0, 0.0]))
    assert cos >= 1.0 - 1e-8
    print(f"\nACCEPTANCE 5 PASS: LDA residuals <= 1e-6 (worst {worst:.2e}); analytic axis |cos|={cos:.12f}")


def test_criterion_6_trend_in_vs_out_over_duration(tmp_path):
    """In-domain gain positive at full length, decaying to <= 5% at 10s.

    One adjacent inversion of the gain decay is tolerated when the
    absolute EER gap grows by at most one EER point (0.01) at that step.
    """
    cfg = default_experiment_config()
    assert cfg.generator.dim == 50 and cfg.generator.n_speakers == 200
    assert len(cfg.seeds) == 5
    start = time.monotonic()
    res = run_experiment(cfg, "in-vs-out", tmp_path)["in-vs-out"]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0

    labels = [duration_label(d) for d in cfg.durations]
    gains, gaps = [], []
    for lbl in labels:
        out_v = res.mean_value(lbl, SYSTEM_OUT, "eer")
        in_v = res.mean_value(lbl, SYSTEM_IN, "eer")
        gains.append(100.0 * (out_v - in_v) / out_v)
        gaps.append(out_v - in_v)
    assert gains[0] > 0.0
    inversions = [
        i for i in range(len(gains) - 1) if gains[i + 1] > gains[i] + 1e-9
    ]
    assert len(inversions) <= 1
    for i in inversions:
        assert gaps[i + 1] - gaps[i] <= 0.01
    assert gains[-1] <= 5.0
    series = " ".join(f"{l}:{g:+.2f}%" for l, g in zip(labels, gains))
    print(f"\nACCEPTANCE 6 PASS: gain series {series} ({elapsed:.0f}s)")


def test_criterion_7_trend_idv_ordering(tmp_path):
    """EER ordering modified <= original <= none, each by >= 2% relative."""
    cfg = replace(default_experiment_config(), durations=(None,), snorm="nist-style")
    assert len(cfg.seeds) >= 5
    res = run_experiment(cfg, "idv-comparison", tmp_path)["idv-comparison"]
    vals = {
        s: res.mean_value("full", f"{s}|snorm=off", "eer")
        for s in (SYSTEM_OUT, SYSTEM_IDV, SYSTEM_MODIFIED_IDV)
    }
    assert vals[SYSTEM_IDV] <= 0.98 * vals[SYSTEM_OUT]
    assert vals[SYSTEM_MODIFIED_IDV] <= 0.98 * vals[SYSTEM_IDV]
    rel_oi = 100 * (vals[SYSTEM_OUT] - vals[SYSTEM_IDV]) / vals[SYSTEM_OUT]
    rel_im = 100 * (vals[SYSTEM_IDV] - vals[SYSTEM_MODIFIED_IDV]) / vals[SYSTEM_IDV]
    print(
        f"\nACCEPTANCE 7 PASS: EER none={vals[SYSTEM_OUT]:.4f} "
        f"idv={vals[SYSTEM_IDV]:.4f} (-{rel_oi:.1f}%) "
        f"modified={vals[SYSTEM_MODIFIED_IDV]:.4f} (-{rel_im:.1f}% vs idv)"
    )


def test_criterion_8_snorm_affine_invariance():
    """Positive-affine remap of raw+cohort scores leaves S-norm unchanged."""
    rng = np.random.default_rng(808)
    k = 6
    u1 = 0.8 * rng.standard_normal((k, 3))
    r = 0.3 * rng.standard_normal((k, k))
    sw = r @ r.T + 0.4 * np.eye(k)
    lam = np.linalg.inv(sw)
    m = PldaModel(rng.standard_normal(k), u1, (lam + lam.T) / 2)
    enrol = make_dataset(rng.standard_normal((8, k)), prefix="e")
    test = make_dataset(rng.standard_normal((9, k)), prefix="t")
    trials = make_trials(
        (e, t, (i + j) % 5 == 0) for i, e in enumerate(enrol.ids) for j, t in enumerate(test.ids)
    )
    raw = score_trials(m, enrol, test, trials)
    cohort = make_dataset(rng.standard_normal((30, k)), prefix="c")
    # enrol and test rows are in id-table order
    e_table = cohort_score_matrix(m, enrol, cohort)
    t_table = cohort_score_matrix(m, test, cohort)
    base = snorm_from_cohort_scores(raw, e_table, t_table)

    a, b = 2.5, -1.75
    remapped_raw = ScoreSet(raw.trial_list, a * raw.raw + b)
    remapped = snorm_from_cohort_scores(remapped_raw, a * e_table + b, a * t_table + b)
    np.testing.assert_allclose(
        remapped.values("normalized"), base.values("normalized"), atol=1e-10
    )
    # identical ranking means bit-identical detection metrics
    assert np.array_equal(
        np.argsort(base.values("normalized"), kind="stable"),
        np.argsort(remapped.values("normalized"), kind="stable"),
    )
    b_row, r_row = (evaluate(s, which="normalized") for s in (base, remapped))
    assert b_row.eer == r_row.eer
    assert (b_row.min_dcf, b_row.min_dcf_normalized) == (r_row.min_dcf, r_row.min_dcf_normalized)
    print("\nACCEPTANCE 8 PASS: S-norm affine-invariant; normalized metrics bit-identical")


def test_criterion_9_determinism_and_round_trips(tmp_path):
    """Reruns are byte-identical; binary persistence is exact."""
    gen = GeneratorConfig(
        dim=12, n_speakers=25, sessions_per_speaker=3, eigenvoice_dim=4,
        speaker_scale=1.0, channel_scale=0.6, out_channel_scale=0.9,
        domain_offset=np.concatenate([np.full(6, 1.2), np.full(6, -1.2)]),
        duration_noise_scale=0.5, seed=0,
    )
    cfg = default_experiment_config(
        generator=gen, lda_dim=8, plda_q=4, plda_iters=4, durations=(None, 15.0),
        seeds=(0,), eval_speakers=15, eval_sessions=3, cohort_speakers=12,
        cohort_sessions=3, swb_cohort_size=30, snorm="nist-style",
    )
    first = run_experiment(cfg, "all", tmp_path / "a")
    second = run_experiment(cfg, "all", tmp_path / "b")
    n_files = 0
    for kind in first:
        for f1, f2 in zip(first[kind].files, second[kind].files):
            assert f1.read_bytes() == f2.read_bytes()
            n_files += 1

    data = make_run_data(cfg, 0)
    train = data.train[Domain.OUT_DOMAIN]
    idv_t = estimate_idv(IdvVariant.MODIFIED, train, data.nist_cohort)
    backend = train_backend(cfg, train, scatter_matrices(train), idv_t, 0)
    save_idv(idv_t, tmp_path / "t.idv")
    loaded_idv = load_idv(tmp_path / "t.idv")
    assert np.array_equal(loaded_idv.s_idv, idv_t.s_idv)
    assert np.array_equal(loaded_idv.decorrelator, idv_t.decorrelator)
    assert loaded_idv.ridge == idv_t.ridge and loaded_idv.variant == idv_t.variant
    lda_t = train_lda(train, cfg.lda_dim)
    save_lda(lda_t, tmp_path / "t.lda")
    loaded_lda = load_lda(tmp_path / "t.lda")
    assert np.array_equal(loaded_lda.a_matrix, lda_t.a_matrix)
    assert np.array_equal(loaded_lda.eigenvalues, lda_t.eigenvalues)
    save_plda(backend.plda, tmp_path / "t.plda")
    loaded_plda = load_plda(tmp_path / "t.plda")
    assert np.array_equal(loaded_plda.mean, backend.plda.mean)
    assert np.array_equal(loaded_plda.u1, backend.plda.u1)
    assert np.array_equal(loaded_plda.lambda_prec, backend.plda.lambda_prec)
    print(f"\nACCEPTANCE 9 PASS: {n_files} CSVs byte-identical on rerun; persistence exact")


def _idv_gain(res, duration: str, variant: str) -> tuple[float, float]:
    """Relative EER gain (%) of ``idv`` over ``out-domain`` under ``variant``,
    and the absolute EER gap."""
    out_v, idv_v = (
        res.mean_value(duration, f"{s}|{variant}", "eer") for s in (SYSTEM_OUT, SYSTEM_IDV)
    )
    return 100.0 * (out_v - idv_v) / out_v, out_v - idv_v


def test_criterion_10_trend_idv_gain_over_duration(tmp_path):
    """IDV gain over out-domain (no S-norm) positive at full length, decaying
    to <= 5% at 10s, with criterion 6's allowance of one adjacent inversion."""
    cfg = default_experiment_config()
    res = run_experiment(cfg, "idv-comparison", tmp_path)["idv-comparison"]
    labels = [duration_label(d) for d in cfg.durations]
    gains, gaps = zip(*(_idv_gain(res, lbl, "snorm=off") for lbl in labels))
    assert gains[0] > 0.0
    inversions = [i for i in range(len(gains) - 1) if gains[i + 1] > gains[i] + 1e-9]
    assert len(inversions) <= 1
    for i in inversions:
        assert gaps[i + 1] - gaps[i] <= 0.01
    assert gains[-1] <= 5.0
    series = " ".join(f"{l}:{g:+.2f}%" for l, g in zip(labels, gains))
    print(f"\nACCEPTANCE 10 PASS: IDV gain series {series}")


def test_criterion_11_idv_gain_swb_snorm_exceeds_nist(tmp_path):
    """At full length the IDV gain with swb-style S-norm exceeds the gain
    with nist-style S-norm."""
    gains = {}
    for style in ("swb-style", "nist-style"):
        cfg = replace(default_experiment_config(), durations=(None,), snorm=style)
        res = run_experiment(cfg, "idv-comparison", tmp_path / style)["idv-comparison"]
        gains[style] = _idv_gain(res, "full", f"snorm={style}")[0]
    assert gains["swb-style"] > gains["nist-style"]
    print(
        f"\nACCEPTANCE 11 PASS: IDV gain at full length swb-style {gains['swb-style']:.1f}%"
        f" > nist-style {gains['nist-style']:.1f}%"
    )
