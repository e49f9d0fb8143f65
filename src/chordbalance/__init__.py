"""Class-imbalance mitigation toolkit for automatic chord recognition.

Pieces: a chord label model with a closed evaluation vocabulary,
duration-weighted metrics that surface rare-class behaviour, focal loss,
balanced pseudolabel excerpt selection, label-preserving augmentation, a
synthetic chroma corpus generator, a small deterministic classifier and
a self-training experiment driver tying it all together.
"""

from .annotations import (
    Interval,
    LabFormatError,
    TimedLabelSequence,
    merge_intervals,
    read_lab,
    read_lab_file,
    write_lab,
    write_lab_file,
)
from .augment import AugmentSpec, add_noise, derive_seed, pitch_shift
from .chords import (
    CHORD_CLASSES,
    ChordLabel,
    ChordParseError,
    NO_CHORD,
    UNKNOWN,
    label_to_string,
    map_to_class,
    parse_chord_label,
    transpose,
)
from .focal import sequence_loss
from .metrics import MetricsReport, TrackPair, compute_report, type_distribution
from .pipeline import ExperimentConfig, IterationReport, compare_runs, run_experiment
from .selection import (
    ExcerptDataset,
    SelectionConfig,
    SelectionReport,
    distribution_of_selection,
    select_balanced_subset,
)
from .student import (
    ClassifierModel,
    FeatureTrack,
    PredictedSegments,
    TrainParams,
    predict_segments,
    train,
)
from .synth import CorpusSpec, generate_corpus, load_corpus, save_corpus

__version__ = "0.1.0"
