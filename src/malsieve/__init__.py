"""malsieve: selective-ensemble Android malware detection.

Static APK features (permissions, intent actions, API references) feed a
pool of bootstrap-trained classifiers; a genetic algorithm picks the
sub-ensemble whose majority vote balances accuracy against prediction
diversity, which keeps the detector stable when training labels are
noisy.
"""

__version__ = "0.1.0"

from .archive import ApkArchive, open_apk, parse_archive
from .axml import ManifestFeatures, parse_manifest
from .dex import parse_dex
from .ensemble import (
    EnsemblePool,
    WeightVector,
    majority_vote_matrix,
    precompute_predictions,
    train_pool,
    vote,
)
from .evaluation import (
    MetricsReport,
    NoiseSpec,
    SplitSpec,
    compute_metrics,
    inject_label_noise,
    split,
)
from .experiment import ExperimentConfig, parse_config, repeated_experiment
from .ga import GAConfig, diversity, fitness, run_ga
from .learners import LearnerSpec, TrainedLearner, predict_labels, train
from .records import FeatureRecord, extract_features
from .vectorize import (
    Dataset,
    FeatureVector,
    Vocabulary,
    build_vocabulary,
    vectorize,
)
