"""Estimate and correct inter-channel gain imbalance.

A calibration take plays the same stimulus into both microphones; any
median dB difference between the channels is a gain offset, which inflates
or deflates every nasalance value. The correction is applied to the nasal
channel by convention; nasalance depends only on the difference, so the
direction is arbitrary but must be consistent for profiles to be
interchangeable.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import StereoRecording
from .errors import CalibrationError, InputFormatError
from .intensity import (
    DB_CLAMP_FLOOR,
    BandpassSpec,
    FrameConfig,
    IntensityTrack,
    bandpass,
    intensity_track,
)
from .output import _commit

MIN_CALIBRATION_FRAMES = 10


@dataclass(frozen=True)
class CalibrationProfile:
    """Flat gain offset: nasal minus oral channel response to one stimulus,
    measured over the full band or after a band-pass."""

    gain_offset_db: float
    created_from: str = ""
    stimulus_window: tuple[float, float] = (0.0, 0.0)
    bandpass: BandpassSpec | None = None

    def __post_init__(self):
        if not np.isfinite(self.gain_offset_db):
            raise ValueError("gain_offset_db must be finite")
        object.__setattr__(self, "stimulus_window", tuple(self.stimulus_window))


def estimate_gain_offset(
    rec: StereoRecording,
    cfg: FrameConfig | None = None,
    window: tuple[float, float] | None = None,
    bandpass_spec: BandpassSpec | None = None,
) -> CalibrationProfile:
    """Median per-frame dB difference (nasal - oral) over a same-stimulus take.

    The median is robust to transient frames at stimulus onset/offset.
    With bandpass_spec, the whole take is band-passed before the window is
    cut from it, so the window's edges are not the filter's edges.
    Raises CalibrationError with fewer than 10 valid frames.
    """
    cfg = cfg or FrameConfig()
    if bandpass_spec is not None:
        rec = bandpass(rec, bandpass_spec)
    if window is not None:
        t0, t1 = window
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise CalibrationError(f"stimulus window [{t0}, {t1}] is not finite")
        sr = rec.sample_rate
        i0, i1 = max(0, int(round(t0 * sr))), min(rec.n_samples, int(round(t1 * sr)))
        if i1 - i0 < 1:
            raise CalibrationError(f"stimulus window [{t0}, {t1}] selects no samples")
        rec = rec.crop(i0, i1)  # reads only the window's samples
    else:
        window = (0.0, rec.duration_s)
    it = intensity_track(rec, cfg)
    valid = np.maximum(it.nasal_db, it.oral_db) > cfg.silence_floor_db
    n_valid = int(valid.sum())
    if n_valid < MIN_CALIBRATION_FRAMES:
        raise CalibrationError(
            f"insufficient calibration signal: {n_valid} valid frames, "
            f"need {MIN_CALIBRATION_FRAMES}"
        )
    offset = float(np.median(it.nasal_db[valid] - it.oral_db[valid]))
    return CalibrationProfile(
        gain_offset_db=offset,
        created_from=rec.source_id,
        stimulus_window=(float(window[0]), float(window[1])),
        bandpass=bandpass_spec,
    )


def apply_calibration(it: IntensityTrack, profile: CalibrationProfile) -> IntensityTrack:
    """Reduce every nasal frame by the profile's offset, clamped at
    DB_CLAMP_FLOOR; oral and times untouched."""
    nasal = np.maximum(it.nasal_db - profile.gain_offset_db, DB_CLAMP_FLOOR)
    nasal.flags.writeable = False  # kept without a copy
    return replace(it, nasal_db=nasal)


def save_profile(profile: CalibrationProfile, path) -> None:
    """Persist a profile as a small JSON document; a band-passed profile
    also records its band as "bandpass": [low_hz, high_hz, order]. Like
    every output, it is written to a temporary sibling and moved into place
    once whole (output._commit)."""
    doc = {
        "gain_offset_db": profile.gain_offset_db,
        "created_from": profile.created_from,
        "stimulus_window": list(profile.stimulus_window),
    }
    if profile.bandpass is not None:
        band = profile.bandpass
        doc["bandpass"] = [band.low_hz, band.high_hz, band.order]
    _commit([(path, [json.dumps(doc, indent=2) + "\n"])])


def load_profile(path) -> CalibrationProfile:
    """Load a profile written by save_profile; one without a band is full band."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))
        window = doc.get("stimulus_window", [0.0, 0.0])
        band = doc.get("bandpass")
        if band is not None:
            low_hz, high_hz, order = band
            band = BandpassSpec(float(low_hz), float(high_hz), operator.index(order))
        return CalibrationProfile(
            gain_offset_db=float(doc["gain_offset_db"]),
            created_from=str(doc.get("created_from", "")),
            stimulus_window=(float(window[0]), float(window[1])),
            bandpass=band,
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputFormatError(f"{path.name}: bad calibration profile: {exc}") from exc
