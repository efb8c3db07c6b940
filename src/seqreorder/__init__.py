"""Self-supervised subsequence reordering for protein encoders.

Shuffle a protein into fixed-count subsequence blocks, encode the
shuffled blocks, normalize block-to-slot scores into a doubly
stochastic matrix, and train the encoder to recover the shuffle. The
pretrained encoder then feeds a compound-protein interaction head that
is evaluated under four seen/unseen scenario splits.
"""

from .augment import (
    NoiseSpec,
    PretrainExample,
    RAcutConfig,
    ShuffleMatrix,
    SubsequenceSet,
    make_pretrain_example,
    racut,
    sample_shuffle,
    shuffle_apply,
)
from .config import RunConfig
from .corpus import (
    CompoundRecord,
    InteractionRecord,
    PretrainDataset,
    ProteinRecord,
    ResidueVocabulary,
    encode_protein,
    encode_smiles,
    parse_dataset,
    standard_vocabulary,
)
from .cpi import (
    CpiConfig,
    CpiModel,
    FinetuneConfig,
    cpi_loss,
    finetune_run,
    init_cpi,
    predict_pairs,
)
from .encoder import EncoderConfig, EncoderState, predict_q, protein_embedding
from .errors import (
    AugmentationError,
    CheckpointError,
    MetricError,
    NumericError,
    ParseError,
    SeqReorderError,
    ValidationError,
)
from .evaluation import (
    ScenarioSplit,
    auprc,
    auroc,
    emit_report,
    pr_curve,
    roc_curve,
    split_scenarios,
)
from .perm import (
    SinkhornConfig,
    permutation_accuracy,
    reorder_loss,
    round_to_permutation,
    sinkhorn,
)
from .pretrain import (
    Checkpoint,
    PretrainConfig,
    load_checkpoint,
    pretrain_run,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationError",
    "Checkpoint",
    "CheckpointError",
    "CompoundRecord",
    "CpiConfig",
    "CpiModel",
    "EncoderConfig",
    "EncoderState",
    "FinetuneConfig",
    "InteractionRecord",
    "MetricError",
    "NoiseSpec",
    "NumericError",
    "ParseError",
    "PretrainConfig",
    "PretrainDataset",
    "PretrainExample",
    "ProteinRecord",
    "RAcutConfig",
    "ResidueVocabulary",
    "RunConfig",
    "ScenarioSplit",
    "SeqReorderError",
    "ShuffleMatrix",
    "SinkhornConfig",
    "SubsequenceSet",
    "ValidationError",
    "auprc",
    "auroc",
    "cpi_loss",
    "emit_report",
    "encode_protein",
    "encode_smiles",
    "finetune_run",
    "init_cpi",
    "make_pretrain_example",
    "parse_dataset",
    "permutation_accuracy",
    "pr_curve",
    "predict_pairs",
    "predict_q",
    "pretrain_run",
    "protein_embedding",
    "racut",
    "reorder_loss",
    "roc_curve",
    "round_to_permutation",
    "sample_shuffle",
    "save_checkpoint",
    "load_checkpoint",
    "shuffle_apply",
    "sinkhorn",
    "split_scenarios",
    "standard_vocabulary",
    "__version__",
]
