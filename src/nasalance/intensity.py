"""Short-time intensity (dB full scale) for both channels of a recording.

Frames are tiled from t=0 with a fixed hop; the reference for dB is a
full-scale RMS of 1.0 (dBFS). Any common reference cancels in the nasalance
ratio downstream, so no absolute SPL calibration is pretended.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import StereoRecording, _owned
from .output import _array_rows, _csv_blocks

# Silence clamp keeps arithmetic finite; amplitudes at/below this are
# treated as exactly zero when converted back to linear scale.
DB_CLAMP_FLOOR = -300.0

# Frames are read and squared a span at a time: at most this many sorted
# frames, each overlapping the one before (25728 samples, 201 kB of float64
# squares, at 48 kHz and 32/8 ms)
_SPAN_FRAMES = 64
# intensity_track makes the starts of this many frames at a time and frames
# them into their slice of its output, so no per-frame work array is longer
_BLOCK_FRAMES = 64 * _SPAN_FRAMES

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
    """Per-frame dB intensity for both channels on a shared time axis.

    Values are finite and at or above DB_CLAMP_FLOOR. There is no ceiling:
    band-pass ringing and calibration shifts can carry frames past 0 dB.

    `index` holds each frame's index on the framing grid (frame k of a
    recording is centred at k * step_ms + frame_length_ms / 2) when the
    track holds only some of its frames, strictly increasing; None means
    every frame, so frame i has index i. Each centre must sit step_ms times
    the index gap after the one before it, within 1e-9 s.
    """

    times: np.ndarray
    nasal_db: np.ndarray
    oral_db: np.ndarray
    config: FrameConfig
    index: np.ndarray | None = None

    def __post_init__(self):
        # a writeable input is copied, so the caller's arrays stay writeable
        # and later writes to them do not reach the track
        times, nasal, oral = (_owned(x, np.float64)
                              for x in (self.times, self.nasal_db, self.oral_db))
        if not len(times) == len(nasal) == len(oral):
            raise ValueError("times, nasal_db, oral_db must have equal length")
        index = self.index
        if index is not None:
            index = _owned(index, np.int64)
            if len(index) != len(times):
                raise ValueError("index must have one grid index per frame")
            if len(index) and (index[0] < 0 or np.any(np.diff(index) <= 0)):
                raise ValueError("index must be non-negative and strictly increasing")
            object.__setattr__(self, "index", index)
        step_s = self.config.step_ms / 1000.0
        # a block at a time, so no check array is as long as the track
        for a in range(0, len(times) - 1, _BLOCK_FRAMES):
            b = a + _BLOCK_FRAMES + 1
            grid = step_s if index is None else np.diff(index[a:b]) * step_s
            if np.max(np.abs(np.diff(times[a:b]) - grid)) > 1e-9:
                raise ValueError("frame centers are not uniformly spaced at step_ms")
        for name, db in (("nasal_db", nasal), ("oral_db", oral)):
            # NaN fails the first comparison
            if len(db) and not (np.min(db) >= DB_CLAMP_FLOOR and np.max(db) < math.inf):
                raise ValueError(f"{name} must be finite and at least {DB_CLAMP_FLOOR} dB")
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


def _frames_db(read, starts: np.ndarray, frame_len: int, w: np.ndarray, scale: float,
               out: np.ndarray) -> None:
    """Write the dB full scale of the frames that start at `starts` into
    `out`, one row per channel and one column per start.

    read(a, b) returns the stored samples [a, b) of each channel, a sequence
    of 1-D arrays whose values are stored / scale, and scale is a power of
    two. `starts` are sorted, as the framing grid gives them.

    The starts are cut into spans of at most _SPAN_FRAMES frames, and a span
    ends where the next frame does not overlap it, so a sparse set of frames
    reads only the samples around each. Each span is read once and each of
    its samples squared once, into one reused float64 buffer; every frame is
    then reduced by its own dot product with w (one ddot), over a strided
    view of the squares when the span's frames are evenly spaced and over
    rows gathered from them otherwise. So a frame's dB depends only on its
    own samples, never on the span it falls in: framing any subset of
    `starts` gives, bitwise, the same values as framing all of them. The
    powers go straight into `out`, which is then turned into dB in place.

    The weighted sum of stored squares is scaled by scale**-2: scaling by a
    power of two commutes with rounding in the normal range, so the dB
    values are bitwise those of squaring stored / scale. (Squares of 16- and
    24-bit integers are exact in float64.)
    """
    gaps = np.diff(starts)
    squares = np.empty(0)
    first = 0
    for end in np.append(np.flatnonzero(gaps >= frame_len) + 1, len(starts)).tolist():
        for i in range(first, end, _SPAN_FRAMES):
            j = min(i + _SPAN_FRAMES, end)
            a, b = int(starts[i]), int(starts[j - 1]) + frame_len
            if b - a > len(squares):
                squares = np.empty(b - a)
                windows = sliding_window_view(squares, frame_len)
            hop = int(gaps[i]) if j - i > 1 else 1
            even = hop > 0 and bool((gaps[i : j - 1] == hop).all())
            for c, x in enumerate(read(a, b)):
                np.square(x, out=squares[: b - a], dtype=np.float64)
                # evenly spaced frames are a strided view of the squares
                frames = windows[::hop][: j - i] if even else windows[starts[i:j] - a]
                np.vecdot(frames, w, out=out[c, i:j])
        first = end
    wsum = w.sum()
    for db in out:
        np.multiply(db, scale**-2, out=db)
        np.divide(db, wsum, out=db)
        np.sqrt(db, out=db)
        with np.errstate(divide="ignore"):
            np.log10(db, out=db)
        np.multiply(20.0, db, out=db)
        np.maximum(db, DB_CLAMP_FLOOR, out=db)


def _frame_count(n: int, frame_len: int, step_samples: float) -> int:
    """Frames that fit in n samples: starts rint(k * step_samples) are
    non-decreasing in k, so they are those of k up to the last whose frame
    ends by sample n."""
    k = int(np.floor((n - frame_len) / step_samples)) + 1
    while int(np.rint(k * step_samples)) + frame_len > n:
        k -= 1
    return k + 1


def _frames_around(at: np.ndarray, count: int, step_s: float,
                   centre_s: float) -> np.ndarray:
    """Sorted grid indices of the frames around each time in `at`: the last
    centred at or before it and the first centred at or after it, clipped to
    the count frames centred at k * step_s + centre_s.

    These are the frames searchsorted would find on the track's times
    (NaN sorts after every time), found without building them: an index
    from division, then moved to where the same float centres say.
    """
    t = np.where(np.isnan(at), np.inf, at)
    k = np.clip(np.floor((t - centre_s) / step_s), -1, count - 1).astype(np.int64)
    while True:  # k becomes the last frame centred at or before t, or -1
        up = (k < count - 1) & ((k + 1) * step_s + centre_s <= t)
        down = (k >= 0) & (k * step_s + centre_s > t)
        if not (up.any() or down.any()):
            break
        k += up
        k -= down
    after = k + ((k < 0) | (k * step_s + centre_s < t))  # first at or after t
    return np.unique(np.concatenate([k, after]).clip(0, count - 1))


def intensity_track(rec: StereoRecording, cfg: FrameConfig | None = None,
                    at=None) -> IntensityTrack:
    """Frame both channels identically and return their dB tracks.

    Frames are tiled from t=0 with hop step_ms; the last partial frame is
    dropped. Frame centers sit at k*step + frame_length/2; start sample
    indices are rounded to the nearest sample when the hop is fractional.
    A loaded WAV's samples are read from its file span by span as they are
    framed (see _frames_db), and the frames are made a block at a time into
    the track, so memory grows with the number of frames, not with the file.

    With `at` (times in seconds), the track holds only the frames that
    `value_at` can read at those times, with their grid indices: for each
    time, the last frame centred at or before it and the first centred at
    or after it, clipped to the recording's frames. Their times and dB are
    bitwise those of framing every frame, and `value_at` at an `at` time
    gives what it gives on the whole track.
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
        where = f"{rec.source_id}: " if rec.source_id else ""
        raise ValueError(
            f"{where}recording of {n} samples is shorter than one "
            f"{frame_len}-sample frame"
        )
    count = _frame_count(n, frame_len, step_samples)
    step_s, centre_s = cfg.step_ms / 1000.0, frame_len / (2.0 * sr)
    if at is None:
        index = None
        times = np.arange(count) * step_s + centre_s
    else:
        index = _frames_around(np.asarray(at, dtype=np.float64), count, step_s, centre_s)
        times = index * step_s + centre_s
    w = window_weights(cfg.window, frame_len)
    db = np.empty((2, len(times)))
    with rec.stored() as read:
        for a in range(0, len(times), _BLOCK_FRAMES):
            b = min(a + _BLOCK_FRAMES, len(times))
            k = np.arange(a, b) if index is None else index[a:b]
            starts = np.rint(k * step_samples).astype(np.int64)
            _frames_db(read, starts, frame_len, w, rec.scale, db[:, a:b])
    for x in (times, db, index):
        if x is not None:
            x.flags.writeable = False  # kept without a copy
    return IntensityTrack(times=times, nasal_db=db[0], oral_db=db[1], config=cfg,
                          index=index)


# The band-pass kernel ends where its slowest pole has decayed by this factor
_KERNEL_TOL = 1e-13
# Overlap-save blocks are at least this many samples and 8 kernel half-widths
# long; a recording that fits in less is filtered as one smaller block
_FFT_BLOCK = 2**16
# Longest kernel half-width (22 s at 48 kHz, a lower edge near 0.3 Hz): blocks grow with it
_MAX_HALF_WIDTH = 2**20


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
    # |H|^2 on the fine grid; the 2*fs factor of W = 2 fs tan(w/2) cancels in q
    w_low, w_high = w_low / 2.0, w_high / 2.0
    w = np.tan(np.pi * np.arange(fine // 2 + 1) / fine)
    with np.errstate(divide="ignore", over="ignore"):
        q = (w * w - w_low * w_high) / ((w_high - w_low) * w)
        return np.fft.irfft(1.0 / (1.0 + q**spec.order), fine)[: half + 1]


class _Bandpassed:
    """Both channels of a recording, band-passed block by block as read (see
    bandpass); a reader reads and filters only the roles it is given."""

    def __init__(self, rec: StereoRecording, spec: BandpassSpec):
        taps = _zero_phase_taps(spec, rec.sample_rate)
        half, n = len(taps) - 1, rec.n_samples
        self.rec, self.half = rec, half
        self.n_fft = n_fft = min(max(_FFT_BLOCK, 1 << (8 * half).bit_length()),
                                 1 << (n + 2 * half - 1).bit_length())
        self.hop = n_fft - 2 * half
        # the even kernel wrapped around index 0, so its spectrum is real
        self.kernel_fft = np.fft.rfft(np.concatenate(
            [taps, np.zeros(self.hop - 1), taps[:0:-1]])).real.copy()

    @contextmanager
    def reader(self, roles=(0, 1)):
        # imported here: only band-passed runs need a thread
        from concurrent.futures import ThreadPoolExecutor

        half, n, n_fft, hop = self.half, self.rec.n_samples, self.n_fft, self.hop
        # block j is filtered in place in slot j % 2 of a ring, a row per role
        ring, k = np.empty((2, len(roles), n_fft)), np.arange(1, half + 1)
        spectra = np.empty((len(roles), n_fft // 2 + 1), complex)
        held = [(-1, ()), (-1, ())]  # (block index, output views) of each slot

        def filtered(row, spectrum, x, s):  # one channel's block at s
            # row holds samples s .. s + n_fft of the recording extended by
            # R = half samples each side, then zeros: sample i is at i + o
            o = half - s
            a = max(o, 0)  # x is the stored input from sample max(s - half, 0)
            np.divide(x, self.rec.scale, out=row[a : a + len(x)], dtype=np.float64)
            # odd extension about each end sample, held at its last value once
            # the recording is shorter than the extension
            if s == 0:
                row[:half] = (2.0 * row[o] - row[o + np.minimum(k, n - 1)])[::-1]
            if o + n < n_fft:
                tail = 2.0 * row[o + n - 1] - row[o + np.maximum(n - 1 - k, 0)]
                row[o + n : o + n + half] = tail[: n_fft - o - n]
            row[max(0, o + n + half) :] = 0.0
            np.multiply(np.fft.rfft(row, out=spectrum), self.kernel_fft, out=spectrum)
            np.fft.irfft(spectrum, n_fft, out=row)
            y = row[half : half + min(hop, n - s)]
            y.flags.writeable = False
            return y

        def block(j):  # output samples [j*hop, (j+1)*hop) of each of roles
            if held[j % 2][0] != j:
                held[j % 2] = (-1, ())  # until its rows are whole again
                s, rows = j * hop, ring[j % 2]
                *rest, last = read_input(max(s - half, 0), min(s - half + n_fft, n))
                # NumPy's FFTs release the GIL: every role but the last runs in the worker
                rest = [pool.submit(filtered, *job, s) for job in zip(rows, spectra, rest)]
                last = filtered(rows[-1], spectra[-1], last, s)
                held[j % 2] = (j, (*(f.result() for f in rest), last))
            return held[j % 2][1]

        def read(a, b):  # views of one block, or its blocks' pieces copied out
            first = min(a, n - 1) // hop
            last = max(first, (b - 1) // hop)
            if first == last:
                return tuple(y[a - first * hop : b - first * hop] for y in block(first))
            out = np.empty((len(roles), b - a))
            for j in range(first, last + 1):  # copied before block j + 2 takes its slot
                lo, hi = max(a, j * hop), min(b, (j + 1) * hop)
                for row, y in zip(out, block(j)):
                    row[lo - a : hi - a] = y[lo - j * hop : hi - j * hop]
            out.flags.writeable = False
            return tuple(out)

        with self.rec.stored(roles) as read_input, ThreadPoolExecutor(1) as pool:
            yield read


def bandpass(rec: StereoRecording, spec: BandpassSpec) -> StereoRecording:
    """Zero-phase Butterworth band-pass applied identically to both channels.

    Each channel is multiplied in the frequency domain by the squared
    magnitude of the bilinear-transform Butterworth band-pass,
    |H|^2 = 1 / (1 + q**order) with q = (W^2 - Wl*Wh) / ((Wh - Wl) * W) and
    W = 2 fs tan(w/2): the steady-state response of forward-backward
    filtering, so frame timing stays aligned with annotations. The kernel is
    cut to the R samples each side over which its slowest pole decays by
    1e-13 (about 0.11 s for 60:4000 Hz), and applied by overlap-save on a
    fixed grid of power-of-two FFT blocks. Nothing is filtered here: the
    result filters a block of the channels a read asks for (both in two
    threads) when the read needs it, in place in buffers each reader
    allocates once (two blocks per channel, block j in slot j % 2), so
    framing a few spans filters only the blocks that hold them, decoding one
    channel filters only that one, and memory is O(block), not O(output). A
    read within one block returns views that hold until the next read.

    Edges: each channel is odd-extended by R samples about its end samples
    (held constant past the far end of a recording shorter than R). Further
    in, the result matches scipy's sosfiltfilt within about 1e-13; near the
    ends the edge treatments differ, and neither is ground truth (Gustafsson 1996).

    Filtered values are kept as they are: ringing may carry them past full
    scale, and a frame's dB past 0. Nasalance, a ratio of the channels, does
    not depend on their common level.
    """
    if spec.high_hz >= rec.sample_rate / 2.0:
        raise ValueError(f"high_hz {spec.high_hz:g} must be below the Nyquist rate "
                         f"{rec.sample_rate / 2.0:g}")
    return StereoRecording._over(_Bandpassed(rec, spec), 0, rec.n_samples,
                                 rec.sample_rate, rec.source_id, 1.0)


def intensity_to_csv(track: IntensityTrack):
    """CSV text with columns t_s,nasal_db,oral_db at 6 decimal places, in
    blocks as they are iterated (see output._csv_blocks)."""
    lines = map("%.6f,%.6f,%.6f\n".__mod__,
                _array_rows(track.times, track.nasal_db, track.oral_db))
    return _csv_blocks(("t_s", "nasal_db", "oral_db"), lines)
