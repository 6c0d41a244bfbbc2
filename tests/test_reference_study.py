"""The studies end to end against ``oracles.reference_study``.

The golden tests pin the bytes of one config; this one rebuilds every
report row of every study from the per-stage oracles (seed offsets,
cohort choice, matched noising and duration-grid indices included) and
holds the library's scores and metrics to them.
"""

import numpy as np
import pytest

from svbackend import harness
from svbackend.dataset import GeneratorConfig
from svbackend.harness import default_experiment_config, run_experiment

from oracles import joint_llr_grid, plda_pair_llr, reference_study

#: Largest accepted deviation of a library score from the reference, relative
#: to the largest score magnitude of its report row.
SCORE_TOLERANCE = 1e-9


def reference_config(snorm: str, idv: str):
    gen = GeneratorConfig(
        dim=6, n_speakers=8, sessions_per_speaker=3, eigenvoice_dim=3, channel_scale=0.6,
        out_channel_scale=0.9, domain_offset=[1.0, -1.0, 0.5, -0.5, 0.8, -0.8],
        duration_noise_scale=0.5, seed=0,
    )
    return default_experiment_config(
        generator=gen, snorm=snorm, idv=idv, lda_dim=4, plda_q=3, plda_iters=4,
        durations=(None, 20.0, 10.0), seeds=(0, 1), eval_speakers=4, eval_sessions=3,
        cohort_speakers=3, cohort_sessions=2, swb_cohort_size=5,
    )


def test_joint_llr_grid_is_the_per_pair_oracle(rng):
    k = 3
    mean = rng.standard_normal(k)
    u1 = rng.standard_normal((k, 2))
    r = rng.standard_normal((k, k))
    sb, sw = u1 @ u1.T, r @ r.T + 0.5 * np.eye(k)
    us, vs = rng.standard_normal((3, k)), rng.standard_normal((4, k))
    grid = joint_llr_grid(mean, sb, sw, us, vs)
    for i, j in np.ndindex(grid.shape):
        assert grid[i, j] == pytest.approx(plda_pair_llr(mean, sb, sw, us[i], vs[j]), abs=1e-10)


@pytest.mark.parametrize("snorm, idv", [("swb-style", "original"), ("matched-length", "modified")])
def test_every_report_row_matches_the_reference_study(tmp_path, monkeypatch, snorm, idv):
    """Both cohort styles, matched S-norm, two finite durations, two seeds:
    every row's scores agree within ``SCORE_TOLERANCE`` and its EER and
    minDCF equal the brute-force ones (to 1e-12, as in criterion 1), and no
    target and nontarget score of a row lie within that tolerance, so the
    equality does not hang on a tie the tolerance could flip."""
    cfg = reference_config(snorm, idv)
    scored = {}

    def spy(scores, condition, system, which):
        tl = scores.trial_list
        pairs = zip(np.asarray(tl.enrol_ids)[tl.enrol_code], np.asarray(tl.test_ids)[tl.test_code])
        values = scores.values(which).tolist()
        scored[condition, system] = {
            (e, t): (s, bool(y)) for (e, t), s, y in zip(pairs, values, tl.is_target.tolist())
        }
        return evaluate(scores, condition, system, which=which)

    evaluate = harness.evaluate
    monkeypatch.setattr(harness, "evaluate", spy)
    results = run_experiment(cfg, "all", tmp_path)
    reference = reference_study(cfg, "all")
    assert list(results) == list(reference)
    for kind, result in results.items():
        got = [(r.condition, r.system) for r in result.report_rows]
        assert got == [row[:2] for row in reference[kind]]
        for r, (condition, system, ref_scores, eer, dcf, dcf_norm, n_tar, n_non) in zip(
            result.report_rows, reference[kind]
        ):
            lib = scored[condition, system]
            assert lib.keys() == ref_scores.keys()
            ref = np.array([ref_scores[p][0] for p in lib])
            labels = np.array([ref_scores[p][1] for p in lib])
            assert [lib[p][1] for p in lib] == labels.tolist()
            tol = SCORE_TOLERANCE * np.abs(ref).max()
            assert np.abs(np.array([lib[p][0] for p in lib]) - ref).max() <= tol
            gap = np.abs(ref[labels][:, None] - ref[~labels][None, :]).min()
            assert gap > 2 * tol, (condition, system)
            assert r.eer == pytest.approx(eer, abs=1e-12)
            assert r.min_dcf == pytest.approx(dcf, abs=1e-12)
            assert r.min_dcf_normalized == pytest.approx(dcf_norm, abs=1e-12)
            assert (r.n_target, r.n_nontarget) == (n_tar, n_non)
