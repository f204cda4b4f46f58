"""Information-theoretic data subset selection for generalized linear models.

Weight-space log-det/trace scores (EIG, IG, EPIG, JEPIG, PIG, JPIG) under a
Gaussian posterior approximation, similarity-matrix duals, batch selection
(greedy log-det, BAIT, BADGE, top-k), and prediction-space Monte-Carlo
oracles to validate them against.
"""

from .errors import (
    BatchTooLarge,
    ConfigError,
    DegenerateConstantInput,
    DidNotConverge,
    DimensionMismatch,
    EmptyEvalSet,
    EmptySampleSet,
    InfoselectError,
    LabelOutOfRange,
    LengthMismatch,
    MalformedHeader,
    MissingLabels,
    NonFiniteInput,
    NonFiniteMatrix,
    NonNumericCell,
    NotPositiveDefinite,
    NumericalError,
    PoolExhausted,
    SingularGram,
    TooFewSamples,
    TooManyConfigurations,
    TooManySubsets,
    UnsupportedHead,
)
from .linalg import PsdMatrix, as_psd, chol_logdet, jitter_to_pd, kron, solve_psd
from .glm import (
    Dataset,
    FitInfo,
    GlmModel,
    Head,
    fisher_batch,
    fisher_information,
    logits,
    map_fit,
    nll,
    observed_information,
    predictive,
    score_jacobian,
    score_jacobians,
)
from .posterior import (
    GaussianPosterior,
    build_posterior,
    entropy_approx,
    sample_weights,
)
from .scores import (
    ScorePair,
    Scorer,
    conditional_entropy_proxy,
    egl_pool_scores,
    egl_score,
    eig_pool_scores,
    eig_score,
    epig_pool_scores,
    epig_score,
    grand_pool_scores,
    grand_score,
    ig_score,
    jepig_pool_scores,
    jepig_score,
    jpig_score,
    pig_score,
)
from .similarity import (
    JacobianDataMatrix,
    build_data_matrix,
    cross,
    eig_uninformative,
    eig_uninformative_limit,
    eig_via_similarity,
    eig_via_similarity_pool,
    epig_via_similarity,
    gram,
    gram_weighted,
    logdet_cmi,
    logdet_mi,
    one_sample_fisher,
)
from .selection import (
    SelectionResult,
    badge_kmeanspp,
    bait_forward_backward,
    exhaustive_best,
    greedy_logdet,
    random_batch,
    top_k,
)
from .prediction import (
    PosteriorSamples,
    bald_mc,
    draw_posterior_samples,
    epig_mc,
    joint_eig_exact,
    mc_pool_scores,
    predictive_probs,
    spearman,
)
from .dataio import format_float, gen_synthetic, load_csv, save_csv
from .harness import (
    DEFAULT_METHODS,
    SCORE_ORIENTATIONS,
    SELECT_METHODS,
    ExperimentConfig,
    ScoreTable,
    Splits,
    build_score_table,
    cmd_correlate,
    cmd_score,
    cmd_select,
    cmd_simulate,
    cmd_train,
    compute_scores,
    correlation_matrix,
    default_methods,
    load_config,
    load_model,
    make_splits,
    save_model,
    select_batch,
)

__version__ = "0.1.0"
