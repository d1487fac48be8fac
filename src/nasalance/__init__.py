"""Two-channel nasometry analysis.

From nasal/oral recordings and forced-alignment TextGrids to per-token
nasalance scores and the system/environment contrast statistics, with a
synthetic-signal oracle for end-to-end validation.
"""

from .audio_io import ChannelMap, StereoRecording, load_pair, load_stereo, write_wav
from .calibration import (
    CalibrationProfile,
    apply_calibration,
    estimate_gain_offset,
    load_profile,
    save_profile,
)
from .core import NasalanceTrack, nasalance_frame, nasalance_track, value_at
from .errors import (
    AudioFormatError,
    CalibrationError,
    DesignError,
    InputFormatError,
    NasalanceError,
    NumericError,
    RankDeficiencyError,
    SynthSpecError,
    TextGridParseError,
    TokenSchemaError,
    UndefinedFrameError,
    UnmeasurableError,
    WordlistError,
)
from .intensity import (
    BandpassSpec,
    FrameConfig,
    IntensityTrack,
    bandpass,
    intensity_track,
)
from .pipeline import extract_token_records, load_wordlist, read_token_csv
from .stats import (
    ContrastRow,
    EmmRow,
    EmmTable,
    FitResult,
    TokenRecord,
    bonferroni,
    build_design,
    deviation_code,
    difference_of_differences_table,
    emmeans,
    fit_nasalance_model,
    ols_fit,
    pairwise_env_contrasts,
    student_t_p,
)
from .synth import (
    GroundTruth,
    HarmonicCarrier,
    SineCarrier,
    SynthSpec,
    expected_nasalance,
    load_synth_spec,
    synthesize,
)
from .textgrid import (
    DEFAULT_VOWEL_LABELS,
    Interval,
    IntervalTier,
    TokenSelection,
    parse_textgrid,
    read_textgrid,
    select_vowel_tokens,
    serialize_textgrid,
)

__version__ = "0.1.0"
