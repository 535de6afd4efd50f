"""Action spotting and replay grounding over per-second soccer embeddings.

The package covers the temporal-detection half of a two-stage pipeline:
it consumes pre-extracted per-second feature sequences, trains
transformer (and NetVLAD-pooling) heads on them, post-processes the raw
detections and scores everything with tolerance-based average precision.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    EventAnnotation,
    FeatureSequence,
    GameHalf,
    ReplayAnnotation,
    combine_features,
    parse_game_time,
    parse_labels,
)
from .checkpoint import Model, load_model, save_model  # noqa: F401
from .evaluation import (  # noqa: F401
    EvalReport,
    ReplayStats,
    average_map,
    replay_ap_report,
    replay_stats,
)
from .grounding import (  # noqa: F401
    GroundingPrediction,
    ReplayQuery,
    filter_predictions,
    fuse_with_spotting,
    infer_grounding,
    merge_nms,
    sample_grounding_pairs,
    train_grounding,
)
from .nn import (  # noqa: F401
    AdamState,
    EncoderConfig,
    adam_step,
    encoder_backward,
    encoder_forward_batch,
    grad_check,
    positional_encoding,
)
from .npyio import parse_npy, write_npy  # noqa: F401
from .spotting import (  # noqa: F401
    NetVLADConfig,
    SpotCandidates,
    SpotPrediction,
    TrainSpec,
    make_chunks,
    mixup,
    nms_1d,
    spot_game,
    train_spotting,
)
from .synth import SynthConfig, synth_dataset  # noqa: F401
from .vocab import DEFAULT_VOCAB, load_vocab, save_vocab  # noqa: F401
