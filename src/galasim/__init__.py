"""galasim: a desk-scale simulator for group-wise federated domain adaptation.

The library has six layers:

* ``nn`` -- dense network engine (flat parameter vectors, manual backprop,
  SGD with momentum, gradient checking);
* ``domains`` -- synthetic shifted-domain generators, raster transforms,
  mixup, and the binary dataset file format;
* ``weighting`` -- class-wise soft centroids and all source-relevance
  weighting schemes (linear baseline, temperature softmax, group renorm);
* ``discrepancy`` -- classifier-disagreement losses on unlabeled target data;
* ``federation`` -- the round-based protocol orchestrator plus baselines,
  communication and runtime accounting, and the cross-domain matrix tool;
* ``experiment`` / ``cli`` -- config-driven experiment runner and metrics CSV
  emission.
"""

from .errors import (
    ConfigError,
    DataError,
    GalaError,
    IntegrityError,
    NumericError,
    ParseError,
    UnsupportedVersionError,
    WorkerError,
)
from .nn import (
    Classifier,
    FeatureExtractor,
    OptimizerState,
    ParamVec,
    cross_entropy_grad,
    finite_difference_grad,
    grad_check,
    head_grad,
    lr_schedule,
    sgd_step,
    softmax,
    weighted_mean,
)
from .domains import (
    DomainDataset,
    TransformSpec,
    apply_background_overlay,
    apply_channel_stack,
    apply_label_noise,
    apply_mean_shift,
    apply_rotate,
    apply_scale_recenter,
    apply_transform_chain,
    gen_gaussian_domain,
    gen_glyph_domain,
    load_dataset,
    mixup,
    save_dataset,
)
from .weighting import (
    CentroidSet,
    compute_centroids,
    group_normalize,
    mdmgb_baseline,
    mdmgb_plus,
    similarity_score,
    uniform_weights,
)
from .discrepancy import (
    GroupClassifier,
    GroupPartition,
    all_pairs_loss,
    away_from_kinks,
    enumerate_partitions,
    idd_loss,
    igd_loss,
    random_partition,
)
from .federation import (
    ProtocolConfig,
    RoundRecord,
    RunResult,
    account_communication,
    run_gala,
    run_protocol,
    similarity_matrix,
)
from .experiment import (
    ExperimentSpec,
    emit_metrics,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"
