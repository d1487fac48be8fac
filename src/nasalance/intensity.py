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

from .audio_io import StereoRecording, _peak

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


def _frames_db(x: np.ndarray, starts: np.ndarray, frame_len: int, w: np.ndarray,
               scale: float = 1.0):
    """dB full scale of the frames of x that start at `starts`.

    A frame's dB depends only on its own samples: each frame is reduced by
    its own dot product with w (one ddot), never by a matrix product whose
    summation order moves with the frame's row in a block. So framing any
    subset of `starts` gives, bitwise, the same rows as framing all of them.

    x holds stored samples whose values are x / scale, and scale is a power
    of two. Each sample is squared as stored and the window-weighted sum is
    scaled by scale**-2: scaling by a power of two commutes with rounding in
    the normal range, so the dB values are bitwise those of squaring x /
    scale. (Squares of 16- and 24-bit integers are exact in float64.)
    """
    frames = sliding_window_view(x, frame_len)
    n = len(starts)
    power = np.empty(n)
    # Frames are gathered and squared 64 rows at a time into one reused
    # buffer (0.75 MB at 48 kHz), so x is never written, the frame matrix
    # never exists, and each batch is still in cache when it is reduced.
    rows = np.empty((min(64, n), frame_len))
    for i in range(0, n, 64):
        batch = rows[: min(64, n - i)]
        np.square(frames[starts[i : i + 64]], out=batch, dtype=np.float64)
        power[i : i + len(batch)] = np.vecdot(batch, w)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.sqrt(power * scale**-2 / w.sum()))
    return np.maximum(db, DB_CLAMP_FLOOR)


def intensity_track(rec: StereoRecording, cfg: FrameConfig | None = None,
                    at=None) -> IntensityTrack:
    """Frame both channels identically and return their dB tracks.

    Frames are tiled from t=0 with hop step_ms; the last partial frame is
    dropped. Frame centers sit at k*step + frame_length/2; start sample
    indices are rounded to the nearest sample when the hop is fractional.

    With `at` (times in seconds), only the frames that `value_at` can read
    at those times are framed: for each time, the last frame centred at or
    before it and the first centred at or after it, clipped to the track.
    Every other frame holds DB_CLAMP_FLOOR on both channels, which
    `nasalance_track` marks invalid; no lookup at an `at` time reaches it.
    The framed frames are bitwise those of framing every frame.
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
    if at is None:
        framed = slice(None)
    else:
        at = np.asarray(at, dtype=np.float64)
        framed = np.unique(np.concatenate([
            np.searchsorted(times, at, side="right") - 1,
            np.searchsorted(times, at, side="left"),
        ]).clip(0, len(times) - 1))
    w = window_weights(cfg.window, frame_len)
    nasal_db, oral_db = np.full((2, len(times)), DB_CLAMP_FLOOR)
    nasal_db[framed] = _frames_db(rec.nasal_stored, starts[framed], frame_len, w, rec.scale)
    oral_db[framed] = _frames_db(rec.oral_stored, starts[framed], frame_len, w, rec.scale)
    return IntensityTrack(times=times, nasal_db=nasal_db, oral_db=oral_db, config=cfg)


# The band-pass kernel ends where its slowest pole has decayed by this factor
_KERNEL_TOL = 1e-13
# Overlap-save blocks are at least this many samples and 8 kernel half-widths
# long; a recording that fits in less is filtered as one smaller block
_FFT_BLOCK = 2**16
# Longest kernel half-width (22 s at 48 kHz, a lower edge near 0.3 Hz): the
# blocks, and so the memory, grow with it
_MAX_HALF_WIDTH = 2**20


def _squared_magnitude(spec: BandpassSpec, sample_rate: float, n_fft: int) -> np.ndarray:
    """|H|^2 of the bilinear-transform Butterworth band-pass on an rfft grid."""
    # the 2*fs factor of W = 2 fs tan(w/2) cancels in q
    w_low, w_high = (math.tan(math.pi * f / sample_rate)
                     for f in (spec.low_hz, spec.high_hz))
    w = np.tan(np.pi * np.arange(n_fft // 2 + 1) / n_fft)
    with np.errstate(divide="ignore", over="ignore"):
        q = (w * w - w_low * w_high) / ((w_high - w_low) * w)
        return 1.0 / (1.0 + q**spec.order)


def _zero_phase_taps(spec: BandpassSpec, sample_rate: float) -> np.ndarray:
    """Taps h[0..R] of the even zero-phase kernel whose spectrum is |H|^2.

    The kernel is a sum of pole powers r**|n|. R is the number of samples
    over which the slowest pole decays by _KERNEL_TOL, so the dropped tail
    is about that fraction of the peak h[0] or less, and the grid the taps
    are sampled from is 4R or more long, so they do not alias.
    """
    n_half = spec.order // 2
    # analog Butterworth poles, mapped to the band-pass and then bilinearly
    # to z, with frequencies prewarped as 2*tan(pi f / fs) (so fs = 1)
    p = np.exp(1j * np.pi * (2 * np.arange(1, n_half + 1) + n_half - 1) / (2 * n_half))
    w_low, w_high = (2.0 * math.tan(math.pi * f / sample_rate)
                     for f in (spec.low_hz, spec.high_hz))
    b = p * (w_high - w_low) / 2.0
    root = np.sqrt(b * b - w_low * w_high)
    s = np.concatenate([b + root, b - root])
    radius = float(np.max(np.abs((2.0 + s) / (2.0 - s))))
    if radius >= 1.0 or math.log(_KERNEL_TOL) / math.log(radius) > _MAX_HALF_WIDTH:
        raise ValueError(
            f"band-pass {spec.low_hz:g}:{spec.high_hz:g} Hz rings for more than "
            f"{_MAX_HALF_WIDTH} samples at {sample_rate:g} Hz; move its edges "
            f"away from 0 Hz and the Nyquist rate"
        )
    half = math.ceil(math.log(_KERNEL_TOL) / math.log(radius))
    fine = 1 << (4 * half).bit_length()
    return np.fft.irfft(_squared_magnitude(spec, sample_rate, fine), fine)[: half + 1]


def _zero_phase(x: np.ndarray, kernel_fft: np.ndarray, half: int, n_fft: int) -> np.ndarray:
    """Overlap-save convolution of the odd-extended x with a symmetric kernel.

    kernel_fft is the real rfft of the 2*half+1 kernel taps, wrapped around
    index 0 of an n_fft buffer.
    """
    n = len(x)
    k = np.arange(1, half + 1)
    # odd extension about each end sample, held at its last value once the
    # recording is shorter than the extension
    head = 2.0 * x[0] - x[np.minimum(k, n - 1)][::-1]
    tail = 2.0 * x[-1] - x[np.maximum(n - 1 - k, 0)]
    pieces = ((head, 0), (x, half), (tail, half + n))
    out = np.empty(n)
    buf = np.empty(n_fft)
    hop = n_fft - 2 * half
    for s in range(0, n, hop):
        # buf holds samples s .. s + n_fft of head + x + tail, then zeros
        for piece, start in pieces:
            a, b = max(s, start), min(s + n_fft, start + len(piece))
            if a < b:
                buf[a - s : b - s] = piece[a - start : b - start]
        buf[max(0, 2 * half + n - s) :] = 0.0
        y = np.fft.irfft(np.fft.rfft(buf) * kernel_fft, n_fft)
        m = min(hop, n - s)
        out[s : s + m] = y[half : half + m]
    return out


def bandpass(rec: StereoRecording, spec: BandpassSpec) -> StereoRecording:
    """Zero-phase Butterworth band-pass applied identically to both channels.

    Each channel is multiplied in the frequency domain by the squared
    magnitude of the bilinear-transform Butterworth band-pass,
    |H|^2 = 1 / (1 + q**order) with q = (W^2 - Wl*Wh) / ((Wh - Wl) * W) and
    W = 2 fs tan(w/2): the steady-state response of forward-backward
    filtering, so frame timing stays aligned with annotations. The kernel is
    truncated to the R samples each side over which its slowest pole decays
    by 1e-13 (R is about 0.11 s for 60:4000 Hz), and the channel is
    convolved with it in power-of-two FFT blocks (overlap-save), so memory
    stays O(block) beyond the output.

    Edges: each channel is odd-extended by R samples about its end samples
    (held constant past the far end of a recording shorter than R). More than
    R samples from either end, the result matches scipy's sosfiltfilt
    within about 1e-13; nearer the ends the two edge treatments differ, and
    neither is ground truth (Gustafsson 1996).

    If ringing overshoots full scale, both channels are rescaled by the same
    factor, which leaves nasalance untouched.
    """
    sr = rec.sample_rate
    nyquist = sr / 2.0
    if spec.high_hz >= nyquist:
        raise ValueError(
            f"high_hz {spec.high_hz:g} must be below the Nyquist rate {nyquist:g}"
        )
    taps = _zero_phase_taps(spec, sr)
    half = len(taps) - 1
    n_fft = min(
        max(_FFT_BLOCK, 1 << (8 * half).bit_length()),
        1 << (rec.n_samples + 2 * half - 1).bit_length(),
    )
    wrapped = np.zeros(n_fft)
    wrapped[: half + 1] = taps
    wrapped[n_fft - half :] = taps[:0:-1]
    kernel_fft = np.fft.rfft(wrapped).real  # the kernel is even, so this is real
    # imported here: only band-passed runs need threads. NumPy's FFTs release
    # the GIL, so the two channels run side by side, each decoded to float64
    # in its own thread
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as pool:
        nasal, oral = pool.map(
            lambda role: _zero_phase(getattr(rec, role), kernel_fft, half, n_fft),
            ("nasal", "oral"),
        )
    peak = max(_peak(nasal), _peak(oral))
    if peak > 1.0:
        nasal /= peak
        oral /= peak
    nasal.flags.writeable = oral.flags.writeable = False  # kept without a copy
    return StereoRecording(
        nasal=nasal, oral=oral, sample_rate=sr, source_id=rec.source_id
    )


def intensity_to_csv(track: IntensityTrack) -> str:
    """CSV dump with columns t_s,nasal_db,oral_db at 6 decimal places."""
    rows = map("%.6f,%.6f,%.6f".__mod__, zip(
        track.times.tolist(), track.nasal_db.tolist(), track.oral_db.tolist()))
    return "\n".join(["t_s,nasal_db,oral_db", *rows]) + "\n"


def shift_nasal_db(track: IntensityTrack, delta_db: float) -> IntensityTrack:
    """Return a copy with every nasal frame shifted by delta_db."""
    shifted = track.nasal_db + delta_db
    return replace(track, nasal_db=np.maximum(shifted, DB_CLAMP_FLOOR))
