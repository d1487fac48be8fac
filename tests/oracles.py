"""Whole-array reference implementations that the library's streamed,
span-by-span code is checked against."""

from __future__ import annotations

import numpy as np

from nasalance.audio_io import _peak
from nasalance.intensity import DB_CLAMP_FLOOR, _FFT_BLOCK, _zero_phase_taps, window_weights


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


def zero_phase(x: np.ndarray, kernel_fft: np.ndarray, half: int, n_fft: int) -> np.ndarray:
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


def held_bandpass(rec, spec) -> tuple[np.ndarray, np.ndarray]:
    """(nasal, oral) of intensity.bandpass, each channel decoded and filtered
    whole, then both divided by their common peak when it exceeds 1."""
    taps = _zero_phase_taps(spec, rec.sample_rate)
    half = len(taps) - 1
    n_fft = min(
        max(_FFT_BLOCK, 1 << (8 * half).bit_length()),
        1 << (rec.n_samples + 2 * half - 1).bit_length(),
    )
    wrapped = np.zeros(n_fft)
    wrapped[: half + 1] = taps
    wrapped[n_fft - half :] = taps[:0:-1]
    kernel_fft = np.fft.rfft(wrapped).real
    nasal, oral = (zero_phase(x, kernel_fft, half, n_fft) for x in (rec.nasal, rec.oral))
    peak = max(_peak(nasal), _peak(oral))
    if peak > 1.0:
        nasal /= peak
        oral /= peak
    return nasal, oral
