"""Whole-array reference implementations that the library's streamed,
span-by-span code is checked against."""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np

from nasalance.audio_io import (
    _CODECS,
    _SAMPLE_FORMATS,
    StereoRecording,
    _Held,
    _owned,
    _peak,
    _wav_data,
)
from nasalance.intensity import DB_CLAMP_FLOOR, _FFT_BLOCK, _zero_phase_taps, window_weights
from nasalance.synth import HarmonicCarrier, SineCarrier, _breakpoints


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


def held_recording(nasal, oral, sample_rate) -> StereoRecording:
    """A recording holding nasal and oral as float64, unchecked: values past
    full scale read as they are, as a band-passed recording's do."""
    held = _Held(*(_owned(x, np.float64) for x in (nasal, oral)))
    return StereoRecording._over(held, 0, len(nasal), sample_rate, "", 1.0)


def held_bandpass(rec, spec) -> tuple[np.ndarray, np.ndarray]:
    """(nasal, oral) of intensity.bandpass, each channel decoded and filtered
    whole."""
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
    return tuple(zero_phase(x, kernel_fft, half, n_fft) for x in (rec.nasal, rec.oral))


def read_wav(path, n_channels: int) -> tuple[list[np.ndarray], float]:
    """Decode a WAV file of n_channels channels whole, in one read.

    Returns (per-channel samples as C-contiguous float64 on [-1, 1], sample
    rate). The header is checked as load_stereo and load_pair check it, so
    any other channel count is refused before the data chunk is read.
    """
    data = _wav_data(path, n_channels)
    with data.reader() as read:
        stored = read(0, data.n_frames)
    decoded = np.divide(stored.T, data.scale, dtype=np.float64, order="C")
    return list(decoded), data.sample_rate


def carrier_samples(carrier: SineCarrier | HarmonicCarrier, t: np.ndarray,
                    sample_rate: float) -> np.ndarray:
    """The carrier at times t, scaled to unit RMS over t."""
    if isinstance(carrier, SineCarrier):
        raw = np.sin(2.0 * np.pi * carrier.f_hz * t)
    else:
        raw = np.zeros_like(t)
        for k in range(1, carrier.n_partials + 1):
            f = k * carrier.f0_hz
            if f >= sample_rate / 2.0:
                break
            raw += np.sin(2.0 * np.pi * f * t) / k
    rms = np.sqrt(np.mean(raw * raw))
    return raw / rms


def held_synthesize(spec) -> tuple[np.ndarray, np.ndarray]:
    """(nasal, oral) of synth.synthesize, each rendered whole: the carrier,
    both envelopes and each noise stream over every sample at once."""
    n = int(round(spec.duration_s * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    c = carrier_samples(spec.carrier, t, spec.sample_rate)
    a_n = np.interp(t, *_breakpoints(spec.nasal_env))
    a_o = np.interp(t, *_breakpoints(spec.oral_env))
    nasal = (a_n + spec.bleed * a_o) * c
    oral = (a_o + spec.bleed * a_n) * c
    if spec.noise_rms > 0:
        rng = np.random.default_rng(spec.seed)
        nasal = nasal + spec.noise_rms * rng.standard_normal(n)
        oral = oral + spec.noise_rms * rng.standard_normal(n)
    return nasal, oral


def held_wav_bytes(channels, sample_rate, sample_format="float32") -> bytes:
    """The bytes audio_io.write_wav writes, built whole: every channel
    interleaved into one float64 array, converted and packed at once."""
    fmt_code, bits = _SAMPLE_FORMATS[sample_format]
    dtype = np.dtype(_CODECS[fmt_code, bits][0])
    channels = [np.asarray(ch, dtype=np.float64) for ch in channels]
    n_channels = len(channels)
    block_align = n_channels * bits // 8
    interleaved = np.empty(len(channels[0]) * n_channels)
    for i, ch in enumerate(channels):
        interleaved[i::n_channels] = ch
    if not math.isfinite(_peak(interleaved)):
        raise ValueError("samples must be finite")
    if fmt_code == 1:  # integer PCM: round onto the 2**(bits-1) grid and clip
        full = 2.0 ** (bits - 1)
        interleaved *= full
        np.clip(np.rint(interleaved, out=interleaved), -full, full - 1, out=interleaved)
    with np.errstate(over="ignore"):
        stored = interleaved.astype(dtype)
    if fmt_code == 3 and _peak(stored) > 1.0:
        raise ValueError(f"float32 samples exceed full scale (peak {_peak(stored):g})")
    # 24-bit samples are stored in an int32; keep each one's low three bytes
    samples = stored.view(np.uint8).reshape(-1, dtype.itemsize)
    payload = samples[:, : bits // 8].tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVEfmt "
    header += struct.pack("<IHHIIHH", 16, fmt_code, n_channels, int(sample_rate),
                          int(sample_rate) * block_align, block_align, bits)
    return header + b"data" + struct.pack("<I", len(payload)) + payload


def held_nasalance_track(it) -> tuple[np.ndarray, np.ndarray]:
    """(nasalance_pct, valid) of core.nasalance_track, in whole-array steps,
    each a new array."""
    nasal, oral = it.nasal_db, it.oral_db
    floor = it.config.silence_floor_db
    valid = (np.maximum(nasal, oral) > floor) & (
        (nasal > DB_CLAMP_FLOOR) | (oral > DB_CLAMP_FLOOR)
    )
    diff = nasal - oral
    r = np.power(10.0, -np.abs(diff) / 20.0)
    larger = 100.0 - 100.0 * (r / (r + 1.0))
    smaller = 100.0 - larger
    pct = np.where(diff <= 0, smaller, larger)
    pct = np.where(nasal <= DB_CLAMP_FLOOR, 0.0, pct)
    pct = np.where(oral <= DB_CLAMP_FLOOR, 100.0, pct)
    return np.where(valid, pct, np.nan), valid


def nasalance_csv_text(nt) -> str:
    """The whole text core.nasalance_to_csv writes, formed in one pass."""
    rows = ["%.6f,%.6f,1" % (t, v) if ok else "%.6f,,0" % t
            for t, v, ok in zip(nt.times.tolist(), nt.nasalance_pct.tolist(),
                                nt.valid.tolist())]
    return "\n".join(["t_s,nasalance_pct,valid", *rows]) + "\n"


def intensity_csv_text(track) -> str:
    """The whole text intensity.intensity_to_csv writes, formed in one pass."""
    rows = map("%.6f,%.6f,%.6f".__mod__, zip(
        track.times.tolist(), track.nasal_db.tolist(), track.oral_db.tolist()))
    return "\n".join(["t_s,nasal_db,oral_db", *rows]) + "\n"


def truth_csv_text(gt) -> str:
    """The whole text synth.truth_to_csv writes, formed in one pass."""
    rows = map("%.6f,%.6f".__mod__, zip(gt.times.tolist(),
                                        gt.expected_nasalance_pct.tolist()))
    return "\n".join(["t_s,expected_nasalance_pct", *rows]) + "\n"


def quoted_csv_text(header, rows) -> str:
    """RFC 4180 text of the header and rows, from one csv.writer: the
    token, reject, EMM and contrast CSVs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
