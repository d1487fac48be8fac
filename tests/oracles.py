"""Reference implementations that the library's code is checked against:
whole-array forms of its streamed, span-by-span code, and per-row forms of
its contrast rows."""

from __future__ import annotations

import csv
import io
import math
import struct
from itertools import combinations

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
from nasalance.stats import _ZERO_ESTIMATE_TOL, _estimate, _rows, student_t_p
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


def carrier_samples(carrier: SineCarrier | HarmonicCarrier, n: int,
                    sample_rate: float) -> np.ndarray:
    """The carrier at samples 0 to n, scaled to unit RMS over them, built whole
    in synth's op order: sample i's angle is its 2**16-sample block's start
    angle (f0 = p/q, reduced to one cycle in integers) plus the table's angle
    at i mod 2**16, and sin(kx) = 2cos(x)sin((k-1)x) - sin((k-2)x) for every
    partial below the Nyquist rate."""
    if isinstance(carrier, SineCarrier):
        f0, count = carrier.f_hz, 1
    else:
        f0, count = carrier.f0_hz, carrier.n_partials
    i = np.arange(n)
    phi = 2 * math.pi * (np.fmod(np.arange(min(n, 2**16)) * f0, sample_rate) / sample_rate)
    cos_phi, sin_phi = np.cos(phi)[i % 2**16], np.sin(phi)[i % 2**16]
    p, q = float(f0).as_integer_ratio()
    cycle = round(sample_rate) * q
    theta = [2 * math.pi * (a * p % cycle / cycle) for a in range(0, n, 2**16)]
    sin_a = np.array([math.sin(x) for x in theta])[i // 2**16]
    cos_a = np.array([math.cos(x) for x in theta])[i // 2**16]
    s = sin_a * cos_phi + cos_a * sin_phi  # sin(x)
    two_cos = 2 * cos_a * cos_phi - 2 * sin_a * sin_phi
    raw, prev = s.copy(), np.zeros(n)
    for k in range(2, count + 1):
        if k * f0 >= sample_rate / 2.0:
            break
        s, prev = two_cos * s - prev, s
        raw += s / k
    rms = np.sqrt(np.mean(raw * raw))
    return raw / rms


def held_noise(seed, channel, n) -> np.ndarray:
    """The seed contract's n unit normal draws of one channel (0 nasal,
    1 oral): block k of every 2**16 samples from its own stream,
    Generator(PCG64(SeedSequence(seed, spawn_key=(channel, k))))."""
    return np.concatenate([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(channel, k))))
        .standard_normal(min(2**16, n - a))
        for k, a in enumerate(range(0, n, 2**16))
    ])


def held_synthesize(spec) -> tuple[np.ndarray, np.ndarray]:
    """(nasal, oral) of synth.synthesize, each rendered whole: the carrier,
    both envelopes and each channel's noise over every sample at once."""
    n = int(round(spec.duration_s * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    c = carrier_samples(spec.carrier, n, spec.sample_rate)
    a_n = np.interp(t, *_breakpoints(spec.nasal_env))
    a_o = np.interp(t, *_breakpoints(spec.oral_env))
    nasal = (a_n + spec.bleed * a_o) * c
    oral = (a_o + spec.bleed * a_n) * c
    if spec.noise_rms > 0:
        nasal = nasal + spec.noise_rms * held_noise(spec.seed, 0, n)
        oral = oral + spec.noise_rms * held_noise(spec.seed, 1, n)
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


def frames_around_stepping(at: np.ndarray, count: int, step_s: float,
                           centre_s: float) -> np.ndarray:
    """intensity._frames_around with its index from division moved a step
    at a time, for as many steps as the float centres ask, not one."""
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


def pairwise_contrast_rows(fit, system, family_size=None) -> list[tuple]:
    """The rows of stats.pairwise_env_contrasts, as tuples of ContrastRow's
    fields, each vector built alone as x_i - x_j from two stats._rows rows."""
    vectors = []
    for env_i, env_j in combinations(fit.codings["environment"][0], 2):
        x_i, x_j = _rows(fit.codings, (system, system), (env_i, env_j))
        vectors.append((f"{system}: {env_i} - {env_j}", x_i - x_j))
    return _contrast_rows(fit, vectors, family_size)


def difference_of_differences_rows(fit, family_size=None) -> list[tuple]:
    """The rows of stats.difference_of_differences_table, as tuples of
    ContrastRow's fields, each vector built alone as a_i - a_j - b_i + b_j
    from four stats._rows rows."""
    sys_a, sys_b = fit.codings["system"][0]
    vectors = []
    for env_i, env_j in combinations(fit.codings["environment"][0], 2):
        a_i, a_j, b_i, b_j = _rows(fit.codings, (sys_a, sys_a, sys_b, sys_b),
                                   (env_i, env_j, env_i, env_j))
        vectors.append((f"({env_i} - {env_j}): {sys_a} - {sys_b}", a_i - a_j - b_i + b_j))
    return _contrast_rows(fit, vectors, family_size)


def _contrast_rows(fit, vectors, family_size) -> list[tuple]:
    """(description, estimate, se, t, df, p, p_adjusted) of each (description,
    vector): t is estimate / se, a zero SE gives t = 0 and p = 1 for an
    estimate within _ZERO_ESTIMATE_TOL of zero and an infinite t with p = 0
    otherwise, and p_adjusted = min(1, p * family_size), the family being the
    rows given unless family_size is."""
    m = len(vectors) if family_size is None else family_size
    rows = []
    for description, d in vectors:
        estimate, se = _estimate(fit, d)
        if se > 0:
            t = estimate / se
            p = student_t_p(t, fit.residual_df)
        elif abs(estimate) <= _ZERO_ESTIMATE_TOL:
            se, t, p = 0.0, 0.0, 1.0
        else:
            se, t, p = 0.0, math.copysign(math.inf, estimate), 0.0
        rows.append((description, estimate, se, t, fit.residual_df, p, min(1.0, p * m)))
    return rows
