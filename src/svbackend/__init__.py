"""Speaker-verification i-vector back-end with domain-mismatch compensation.

Pipeline order: IDV whitening -> LDA projection -> length normalization
-> Gaussian PLDA scoring -> optional S-normalization -> EER/minDCF.
"""

from .dataset import (
    Dataset,
    Domain,
    GeneratorConfig,
    TrialList,
    apply_duration_noise,
    ground_truth_subspace,
    load_ivectors,
    load_trials,
    save_ivectors,
    save_trials,
    synth_domain,
)
from .gplda import (
    PldaModel,
    ScoreSet,
    length_normalize,
    load_plda,
    marginal_loglik,
    pair_llr,
    read_scores,
    save_plda,
    score_trials,
    train_gplda,
    write_scores,
)
from .idv import (
    IdvTransform,
    IdvVariant,
    apply_idv,
    estimate_idv,
    load_idv,
    save_idv,
)
from .lda import (
    LdaTransform,
    apply_lda,
    lda_from_scatter,
    load_lda,
    save_lda,
    scatter_matrices,
    train_lda,
)
from .metrics import DcfParams, evaluate
from .scorenorm import snorm, snorm_from_cohort_scores

__all__ = [
    "Dataset",
    "DcfParams",
    "Domain",
    "GeneratorConfig",
    "IdvTransform",
    "IdvVariant",
    "LdaTransform",
    "PldaModel",
    "ScoreSet",
    "TrialList",
    "apply_duration_noise",
    "apply_idv",
    "apply_lda",
    "estimate_idv",
    "evaluate",
    "ground_truth_subspace",
    "lda_from_scatter",
    "length_normalize",
    "load_idv",
    "load_ivectors",
    "load_lda",
    "load_plda",
    "load_trials",
    "marginal_loglik",
    "pair_llr",
    "read_scores",
    "save_idv",
    "save_ivectors",
    "save_lda",
    "save_plda",
    "save_trials",
    "scatter_matrices",
    "score_trials",
    "snorm",
    "snorm_from_cohort_scores",
    "synth_domain",
    "train_gplda",
    "train_lda",
    "write_scores",
]
