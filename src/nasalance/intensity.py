"""Short-time intensity (dB full scale) for both channels of a recording.

Frames are tiled from t=0 with a fixed hop; the reference for dB is a
full-scale RMS of 1.0 (dBFS). Any common reference cancels in the nasalance
ratio downstream, so no absolute SPL calibration is pretended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import StereoRecording

# Silence clamp keeps arithmetic finite; amplitudes at/below this are
# treated as exactly zero when converted back to linear scale.
DB_CLAMP_FLOOR = -300.0

_WINDOWS = ("rectangular", "hann")


@dataclass(frozen=True)
class FrameConfig:
    """Framing parameters for short-time analysis."""

    frame_length_ms: float = 32.0
    step_ms: float = 8.0
    window: str = "hann"
    silence_floor_db: float = -60.0

    def __post_init__(self):
        if not (math.isfinite(self.frame_length_ms) and math.isfinite(self.step_ms)):
            raise ValueError(
                f"frame_length_ms and step_ms must be finite, got "
                f"step {self.step_ms}, frame {self.frame_length_ms}"
            )
        if math.isnan(self.silence_floor_db):
            raise ValueError("silence_floor_db must not be NaN")
        if not 0 < self.step_ms <= self.frame_length_ms:
            raise ValueError(
                f"need 0 < step_ms <= frame_length_ms, got "
                f"step {self.step_ms}, frame {self.frame_length_ms}"
            )
        if self.window not in _WINDOWS:
            raise ValueError(f"unknown window {self.window!r}")

    def frame_samples(self, sample_rate: float) -> int:
        n = int(round(self.frame_length_ms * sample_rate / 1000.0))
        if n < 2:
            raise ValueError(
                f"frame of {self.frame_length_ms} ms is under 2 samples "
                f"at {sample_rate:g} Hz"
            )
        return n


@dataclass(frozen=True)
class BandpassSpec:
    """Optional Butterworth band-pass applied before intensity extraction.

    order counts filter poles and must be even.
    """

    low_hz: float
    high_hz: float
    order: int = 4

    def __post_init__(self):
        if not 0 < self.low_hz < self.high_hz:
            raise ValueError(
                f"need 0 < low_hz < high_hz, got {self.low_hz}..{self.high_hz}"
            )
        if self.order < 2 or self.order % 2:
            raise ValueError(f"order must be a positive even integer, got {self.order}")


@dataclass(frozen=True)
class IntensityTrack:
    """Per-frame dB intensity for both channels on a shared time axis."""

    times: np.ndarray
    nasal_db: np.ndarray
    oral_db: np.ndarray
    config: FrameConfig

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        nasal = np.asarray(self.nasal_db, dtype=np.float64)
        oral = np.asarray(self.oral_db, dtype=np.float64)
        if not len(times) == len(nasal) == len(oral):
            raise ValueError("times, nasal_db, oral_db must have equal length")
        step_s = self.config.step_ms / 1000.0
        if len(times) > 1 and np.max(np.abs(np.diff(times) - step_s)) > 1e-9:
            raise ValueError("frame centers are not uniformly spaced at step_ms")
        for name, db in (("nasal_db", nasal), ("oral_db", oral)):
            if len(db) and (np.max(db) > 3.02 or np.min(db) < DB_CLAMP_FLOOR):
                raise ValueError(f"{name} outside [{DB_CLAMP_FLOOR}, 3.02] dBFS")
        for arr in (times, nasal, oral):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nasal_db", nasal)
        object.__setattr__(self, "oral_db", oral)

    def __len__(self) -> int:
        return len(self.times)


def window_weights(window, n: int) -> np.ndarray:
    """Weight vector for a window name."""
    if window == "rectangular":
        return np.ones(n)
    if window == "hann":
        w = np.hanning(n)
        if w.sum() <= 0:
            raise ValueError(f"hann window degenerate at {n} samples")
        return w
    raise ValueError(f"unknown window {window!r}")


def frame_intensity_db(frame, window="rectangular") -> float:
    """dB full scale of one frame: 20*log10 of the window-weighted RMS.

    Silence clamps to DB_CLAMP_FLOOR instead of -inf.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size == 0:
        raise ValueError("empty frame")
    w = window_weights(window, len(frame))
    rms = np.sqrt((w * frame * frame).sum() / w.sum())
    if rms <= 0:
        return DB_CLAMP_FLOOR
    return max(20.0 * np.log10(rms), DB_CLAMP_FLOOR)


def _frames_db(x: np.ndarray, starts: np.ndarray, frame_len: int, w: np.ndarray):
    frames = sliding_window_view(x, frame_len)
    sw = w.sum()
    n = len(starts)
    out = np.empty(n)
    # Each block holds the squared frame rows contiguously, so x is never
    # written and the full frame matrix never exists. Keep 4096 rows: the
    # BLAS product's summation order depends on the block's shape, and other
    # sizes move the last bits of some dB values (and so the CSV bytes).
    # One buffer serves every block: a fresh 4096-row block (50 MB at 48 kHz)
    # is above the allocator's mmap threshold, so each would be a new mapping
    # faulted in page by page. Rows are gathered and squared 64 at a time, so
    # the gather's temporary (0.75 MB) is still in cache when it is squared.
    segs = np.empty((min(4096, n), frame_len))
    for i in range(0, n, 4096):
        block = segs[: min(4096, n - i)]
        for j in range(0, len(block), 64):
            np.square(frames[starts[i + j : i + j + 64]], out=block[j : j + 64])
        rms = np.sqrt(block @ w / sw)
        with np.errstate(divide="ignore"):
            out[i : i + len(block)] = 20.0 * np.log10(rms)
    return np.maximum(out, DB_CLAMP_FLOOR)


def intensity_track(rec: StereoRecording, cfg: FrameConfig | None = None) -> IntensityTrack:
    """Frame both channels identically and return their dB tracks.

    Frames are tiled from t=0 with hop step_ms; the last partial frame is
    dropped. Frame centers sit at k*step + frame_length/2; start sample
    indices are rounded to the nearest sample when the hop is fractional.
    """
    cfg = cfg or FrameConfig()
    sr = rec.sample_rate
    frame_len = cfg.frame_samples(sr)
    step_samples = cfg.step_ms * sr / 1000.0
    if step_samples < 1:
        # a shorter hop only repeats frames, and a tiny one would ask numpy
        # for a huge array of frame starts
        raise ValueError(
            f"step_ms of {cfg.step_ms} ms is under 1 sample at {sr:g} Hz"
        )
    n = rec.n_samples
    if n < frame_len:
        raise ValueError(
            f"recording of {n} samples is shorter than one {frame_len}-sample frame"
        )
    n_nominal = int(np.floor((n - frame_len) / step_samples)) + 1
    starts = np.rint(np.arange(n_nominal + 1) * step_samples).astype(np.int64)
    starts = starts[starts + frame_len <= n]
    times = np.arange(len(starts)) * (cfg.step_ms / 1000.0) + frame_len / (2.0 * sr)
    w = window_weights(cfg.window, frame_len)
    return IntensityTrack(
        times=times,
        nasal_db=_frames_db(rec.nasal, starts, frame_len, w),
        oral_db=_frames_db(rec.oral, starts, frame_len, w),
        config=cfg,
    )


def bandpass(rec: StereoRecording, spec: BandpassSpec) -> StereoRecording:
    """Zero-phase Butterworth band-pass applied identically to both channels.

    Forward-backward filtering keeps frame timing aligned with annotations.
    If ringing overshoots full scale, both channels are rescaled by the same
    factor, which leaves nasalance untouched.
    """
    # imported here: scipy.signal is slow to import and only band-passed
    # runs need it
    from scipy.signal import butter, sosfiltfilt

    nyquist = rec.sample_rate / 2.0
    if spec.high_hz >= nyquist:
        raise ValueError(
            f"high_hz {spec.high_hz:g} must be below the Nyquist rate {nyquist:g}"
        )
    sos = butter(
        spec.order // 2,
        [spec.low_hz, spec.high_hz],
        btype="bandpass",
        fs=rec.sample_rate,
        output="sos",
    )
    nasal = sosfiltfilt(sos, rec.nasal)
    oral = sosfiltfilt(sos, rec.oral)
    peak = max(np.max(np.abs(nasal)), np.max(np.abs(oral)))
    if peak > 1.0:
        nasal = nasal / peak
        oral = oral / peak
    nasal.flags.writeable = oral.flags.writeable = False  # kept without a copy
    return StereoRecording(
        nasal=nasal, oral=oral, sample_rate=rec.sample_rate, source_id=rec.source_id
    )


def intensity_to_csv(track: IntensityTrack) -> str:
    """CSV dump with columns t_s,nasal_db,oral_db at 6 decimal places."""
    lines = ["t_s,nasal_db,oral_db"]
    for t, n_db, o_db in zip(track.times, track.nasal_db, track.oral_db):
        lines.append(f"{t:.6f},{n_db:.6f},{o_db:.6f}")
    return "\n".join(lines) + "\n"


def shift_nasal_db(track: IntensityTrack, delta_db: float) -> IntensityTrack:
    """Return a copy with every nasal frame shifted by delta_db."""
    shifted = track.nasal_db + delta_db
    return replace(track, nasal_db=np.maximum(shifted, DB_CLAMP_FLOOR))
