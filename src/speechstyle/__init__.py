"""Speaking-style classification from articulation, pitch, and stress contours."""

from .audio import AudioClip, SUPPORTED_RATES, read_wav, strip_silence, write_wav
from .classify import (
    ClassificationResult,
    GroupScore,
    classify_manifest,
    classify_speaker,
    classify_utterance,
    score_against_group,
)
from .corpus import (
    ManifestEntry,
    SynthConfig,
    entry_group,
    generate_synthetic_corpus,
    load_manifest,
    render_clean_prompt,
    write_manifest,
)
from .evaluate import (
    AgreementReport,
    LabelVector,
    SystemEvaluation,
    agreement,
    evaluate_system,
    split_corpus,
)
from .features import (
    FeatureBundle,
    FrameConfig,
    estimate_pitch,
    extract_features,
    stress_contour,
)
from .metric import AlignmentPath, NormKind, Triplet, compute_triplet, dtw_align, scalarize
from .reference import (
    CellAverage,
    ReferenceSet,
    build_corpus_index,
    build_reference_set,
    compute_cell_average,
    ingest_manifest,
    load_reference_set,
    save_reference_set,
    select_ideals,
)

__version__ = "0.1.0"
