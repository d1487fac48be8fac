"""Short-time intensity: framing, windows, clamps, band-pass."""

import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import butter, sosfiltfilt

from conftest import tone_recording
from oracles import frame_intensity_db, held_bandpass, held_recording, read_wav
from nasalance import audio_io
from nasalance.audio_io import (
    StereoRecording,
    _wav_data,
    load_pair,
    load_stereo,
    write_wav,
)
from nasalance.intensity import (
    _BLOCK_FRAMES,
    _FFT_BLOCK,
    _SPAN_FRAMES,
    DB_CLAMP_FLOOR,
    BandpassSpec,
    FrameConfig,
    IntensityTrack,
    _frames_db,
    _zero_phase_taps,
    bandpass,
    intensity_to_csv,
    intensity_track,
    window_weights,
)


def test_unit_sine_is_minus_3dB():
    # integer number of periods so the discrete RMS is exactly 1/sqrt(2)
    n = 4800
    t = np.arange(n) / 48000.0
    frame = np.sin(2 * np.pi * 100.0 * t)
    expected = 20.0 * math.log10(1.0 / math.sqrt(2.0))
    assert frame_intensity_db(frame, "rectangular") == pytest.approx(expected, abs=1e-9)


def test_all_zero_frame_clamps():
    assert frame_intensity_db(np.zeros(100), "rectangular") == DB_CLAMP_FLOOR
    assert frame_intensity_db(np.zeros(100), "hann") == DB_CLAMP_FLOOR


def test_dc_half_scale():
    frame = np.full(256, 0.5)
    expected = 20.0 * math.log10(0.5)
    assert frame_intensity_db(frame, "rectangular") == pytest.approx(expected, abs=1e-12)


def test_window_normalization_constant_signal():
    frame = np.full(513, 0.37)
    rect = frame_intensity_db(frame, "rectangular")
    hann = frame_intensity_db(frame, "hann")
    assert rect == pytest.approx(hann, abs=1e-9)


def test_empty_frame_rejected():
    with pytest.raises(ValueError):
        frame_intensity_db(np.array([]))


def enumerate_frame_count(n, frame_len, step):
    count, start = 0, 0
    while start + frame_len <= n:
        count += 1
        start = int(round(count * step))
    return count


@pytest.mark.parametrize("sample_rate", [48000, 44100])  # 44.1 kHz: 352.8-sample hop
@pytest.mark.parametrize("window", ["hann", "rectangular"])
@pytest.mark.parametrize("stride", [1, 2])
def test_framing_kernel_matches_per_frame_oracle(sample_rate, window, stride):
    rng = np.random.default_rng(29)
    # over 4096 frames, so many 64-row batches
    raw = rng.uniform(-0.9, 0.9, (2, stride * int(35.0 * sample_rate)))
    raw[:, : stride * 4000] = 0.0  # silent lead-in exercises the clamp
    nasal, oral = raw[0, ::stride], raw[1, ::stride]
    before = (nasal.copy(), oral.copy())
    cfg = FrameConfig(window=window)
    track = intensity_track(StereoRecording(nasal, oral, sample_rate), cfg)
    assert len(track) > 4096

    frame_len = cfg.frame_samples(sample_rate)
    step = cfg.step_ms * sample_rate / 1000.0
    for k in range(len(track)):
        start = int(np.rint(k * step))
        for x, db in ((nasal, track.nasal_db[k]), (oral, track.oral_db[k])):
            oracle = frame_intensity_db(x[start : start + frame_len], window)
            assert abs(db - oracle) <= 1e-12, (k, db, oracle)
    np.testing.assert_array_equal(nasal, before[0])
    np.testing.assert_array_equal(oral, before[1])


@pytest.mark.parametrize("sample_rate", [48000, 44100])
@pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 4096, 4097])
def test_framing_kernel_buffer_edges(sample_rate, n_frames):
    # frame counts at and around the kernel's 64-row batch, and many batches
    cfg = FrameConfig()
    frame_len = cfg.frame_samples(sample_rate)
    step = cfg.step_ms * sample_rate / 1000.0
    n = int(np.rint((n_frames - 1) * step)) + frame_len
    rng = np.random.default_rng(n_frames)
    nasal, oral = rng.uniform(-0.9, 0.9, (2, n))
    before = (nasal.copy(), oral.copy())
    track = intensity_track(StereoRecording(nasal, oral, sample_rate), cfg)
    assert len(track) == n_frames

    for k in range(n_frames):
        start = int(np.rint(k * step))
        for x, db in ((nasal, track.nasal_db[k]), (oral, track.oral_db[k])):
            oracle = frame_intensity_db(x[start : start + frame_len], cfg.window)
            assert abs(db - oracle) <= 1e-12, (k, db, oracle)
    np.testing.assert_array_equal(nasal, before[0])
    np.testing.assert_array_equal(oral, before[1])


@pytest.mark.parametrize("n_channels", [1, 2, 3])
@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
def test_stored_sample_framing_matches_decoded_floats(tmp_path, fmt, n_channels):
    # framing a WAV's own samples with its scale gives, bit for bit, the dB
    # of framing the decoded float64 channels (pcm32 squares are inexact)
    rng = np.random.default_rng(n_channels)
    path = tmp_path / "x.wav"
    # 4-ms frames keep the test short; the 64-frame span boundaries are the
    # same for every frame length
    cfg = FrameConfig(frame_length_ms=4.0, step_ms=1.0)
    for sample_rate in (48000, 44100):  # 44.1 kHz: a fractional hop
        frame_len = cfg.frame_samples(sample_rate)
        starts = np.rint(np.arange(8193) * (cfg.step_ms * sample_rate / 1000.0))
        starts = starts.astype(np.int64)
        x = rng.uniform(-1.0, 1.0, (n_channels, starts[-1] + frame_len))
        x[:, :3000] = 0.0  # silence clamps
        x[:, 3000:3100] = 1.0  # full scale (pcm clips to its largest code)
        x[:, 3100:3200] = -1.0
        write_wav(path, list(x), sample_rate, fmt)
        data = _wav_data(path, n_channels)
        decoded, _ = read_wav(path, n_channels)

        def read_decoded(a, b):
            return [ch[a:b] for ch in decoded]

        with data.reader() as read:
            def read_file(a, b):  # the file's stored samples, one row per channel
                return read(a, b).T

            assert read(0, 1).dtype != np.float64 and not read(0, 1).flags.writeable
            for window in ("hann", "rectangular"):
                w = window_weights(window, frame_len)
                for n_frames in (1, 64, 4097, 8193):  # many 64-frame spans
                    got, want = np.empty((2, n_channels, n_frames))
                    _frames_db(read_file, starts[:n_frames], frame_len, w, data.scale, got)
                    _frames_db(read_decoded, starts[:n_frames], frame_len, w, 1.0, want)
                    np.testing.assert_array_equal(got, want)
                for db in want:
                    assert db[0] == DB_CLAMP_FLOOR and db[-1] > -10.0


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
@pytest.mark.parametrize("sample_rate, frame_ms, n_frames", [
    (48000, 32.0, 3000),  # 1536-sample frames
    (44100, 32.0, 3000),  # 1411-sample frames on a 352.8-sample hop
    (48000, 250.0, 600),  # 12000-sample frames, where OpenBLAS may thread ddot
])
def test_frame_db_depends_only_on_its_samples(tmp_path, fmt, sample_rate, frame_ms,
                                              n_frames):
    # any subset of the frames, in grid order, gives bitwise the same dB as
    # the same rows of framing them all: a frame's value must not depend on
    # where it sits in a span, nor on whether its span is reduced over a
    # strided view or over gathered rows (a blocked matrix product moves the
    # last bit of about 1 row in 1000)
    cfg = FrameConfig(frame_length_ms=frame_ms)
    frame_len = cfg.frame_samples(sample_rate)
    step = cfg.step_ms * sample_rate / 1000.0
    starts = np.rint(np.arange(n_frames) * step).astype(np.int64)
    rng = np.random.default_rng(n_frames)
    path = tmp_path / "x.wav"
    write_wav(path, [rng.uniform(-0.9, 0.9, starts[-1] + frame_len)], sample_rate, fmt)
    data = _wav_data(path, 1)
    w = window_weights(cfg.window, frame_len)
    with data.reader() as read:
        def read_file(a, b):
            return read(a, b).T

        full = np.empty((1, n_frames))
        _frames_db(read_file, starts, frame_len, w, data.scale, full)
        for size in (1, 7, n_frames // 3, n_frames - 1):
            for _ in range(2):
                picked = np.sort(rng.permutation(n_frames)[:size])
                got = np.empty((1, size))
                _frames_db(read_file, starts[picked], frame_len, w, data.scale, got)
                np.testing.assert_array_equal(got, full[:, picked])


def test_sparse_track_frames_the_frames_around_each_time():
    # the sparse track holds, for each time, the last frame centred at or
    # before it and the first at or after it, clipped to the recording's
    # frames: the frames searchsorted finds on the whole track's times (NaN
    # sorts last), with their grid indices and, bitwise, their times and dB
    rng = np.random.default_rng(4)
    for sample_rate in (48000, 44100):  # 44.1 kHz: a fractional hop
        x = rng.uniform(-0.5, 0.5, (2, sample_rate))
        x[:, : sample_rate // 10] = 0.0  # silence clamps
        rec = StereoRecording(x[0], x[1], sample_rate)
        full = intensity_track(rec)
        times, last = full.times, len(full) - 1
        cases = [
            ([0.0], [0]),  # before the first centre
            ([times[10]], [10]),  # on a centre
            ([(times[20] + times[21]) / 2], [20, 21]),  # halfway
            ([times[-1] + 0.001], [last]),  # past the last
            ([times[10], times[10], times[30]], [10, 30]),  # repeated
            ([math.nan], [last]),
            ([-math.inf, math.inf], [0, last]),
            ([], []),
        ]
        on_grid = times[rng.integers(0, len(times), 200)]
        anywhere = np.concatenate([
            rng.uniform(-0.05, 1.05, 400), on_grid,
            np.nextafter(on_grid, -math.inf), np.nextafter(on_grid, math.inf)])
        framed = np.unique(np.concatenate([
            np.searchsorted(times, anywhere, side="right") - 1,
            np.searchsorted(times, anywhere, side="left")]).clip(0, last))
        cases.append((anywhere, framed))
        for at, framed in cases:
            sparse = intensity_track(rec, at=at)
            np.testing.assert_array_equal(sparse.index, framed)
            assert sparse.times.tobytes() == times[framed].tobytes()
            assert sparse.nasal_db.tobytes() == full.nasal_db[framed].tobytes()
            assert sparse.oral_db.tobytes() == full.oral_db[framed].tobytes()
        assert full.index is None


def test_sparse_track_centres_sit_on_the_grid_of_their_index():
    # the spacing check is today's for a whole track and as strict for a
    # sparse one: each gap is step_ms times the index gap, within 1e-9 s
    cfg = FrameConfig()
    times = 0.016 + 0.008 * np.array([0.0, 1.0, 5.0, 9.0])
    db = np.full(4, -20.0)
    track = IntensityTrack(times, db, db, cfg, index=[0, 1, 5, 9])
    assert track.index.dtype == np.int64 and not track.index.flags.writeable
    for index in ([0, 1, 5, 8], [0, 1, 4, 8]):
        with pytest.raises(ValueError, match="not uniformly spaced"):
            IntensityTrack(times, db, db, cfg, index=index)
    with pytest.raises(ValueError, match="not uniformly spaced"):
        IntensityTrack(times + [0, 0, 2e-9, 2e-9], db, db, cfg, index=[0, 1, 5, 9])
    for index, message in (([0, 1, 5], "one grid index per frame"),
                           ([-1, 0, 4, 8], "non-negative and strictly increasing"),
                           ([0, 1, 1, 9], "non-negative and strictly increasing")):
        with pytest.raises(ValueError, match=message):
            IntensityTrack(times, db, db, cfg, index=index)


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
@pytest.mark.parametrize("sample_rate", [48000, 44100])  # 44.1 kHz: gathered rows
def test_loaded_wav_frames_like_its_decoded_floats(tmp_path, fmt, sample_rate):
    # a recording read from its file span by span gives bitwise the dB of a
    # held recording of its decoded floats: full tracks, `at=` subsets,
    # stimulus-window crops and a zero-padded pair of mono files
    rng = np.random.default_rng(sample_rate)
    x = rng.uniform(-0.9, 0.9, (2, 3 * sample_rate))
    x[:, : sample_rate // 2] = 0.0  # silence clamps
    write_wav(tmp_path / "s.wav", list(x), sample_rate, fmt)
    write_wav(tmp_path / "n.wav", [x[0]], sample_rate, fmt)
    write_wav(tmp_path / "o.wav", [x[1, : -sample_rate // 3]], sample_rate, fmt)
    at = rng.uniform(-0.1, 3.1, 60)
    crop = (sample_rate // 3, 2 * sample_rate + 7)
    for rec in (load_stereo(tmp_path / "s.wav"),
                load_pair(tmp_path / "n.wav", tmp_path / "o.wav")):
        held = StereoRecording(rec.nasal, rec.oral, sample_rate)
        for got_rec, want_rec in ((rec, held), (rec.crop(*crop), held.crop(*crop))):
            for kwargs in ({}, {"at": at}, {"at": at[:3]}):
                got = intensity_track(got_rec, **kwargs)
                want = intensity_track(want_rec, **kwargs)
                np.testing.assert_array_equal(got.nasal_db, want.nasal_db)
                np.testing.assert_array_equal(got.oral_db, want.oral_db)


def test_intensity_track_leaves_caller_arrays_writeable():
    times = 0.016 + 0.008 * np.arange(3)
    nasal, oral = np.array([-10.0, -20.0, -30.0]), np.array([-1.0, -2.0, -3.0])
    track = IntensityTrack(times, nasal, oral, FrameConfig())
    assert times.flags.writeable and nasal.flags.writeable and oral.flags.writeable
    times[0], nasal[0], oral[0] = 9.0, 0.0, 0.0  # later writes do not reach it
    assert track.times[0] == 0.016 and track.nasal_db[0] == -10.0
    assert track.oral_db[0] == -1.0
    assert not track.nasal_db.flags.writeable
    times[0] = 0.016
    for arr in (times, nasal, oral):
        arr.flags.writeable = False
    kept = IntensityTrack(times, nasal, oral, FrameConfig())  # read-only: no copy
    assert kept.times is times and kept.nasal_db is nasal and kept.oral_db is oral
    made = intensity_track(tone_recording())
    assert replace(made, config=made.config).nasal_db is made.nasal_db


def test_intensity_track_holds_finite_db_above_the_floor():
    # no ceiling: band-pass ringing and calibration shifts pass 0 dB
    times = 0.016 + 0.008 * np.arange(2)
    loud = IntensityTrack(times, [3.9, DB_CLAMP_FLOOR], [250.0, -3.0], FrameConfig())
    assert loud.oral_db[0] == 250.0
    for bad in (np.nan, np.inf, -np.inf, DB_CLAMP_FLOOR - 1e-9):
        with pytest.raises(ValueError, match="nasal_db must be finite and at least"):
            IntensityTrack(times, [bad, -3.0], [-3.0, -3.0], FrameConfig())
        with pytest.raises(ValueError, match="oral_db must be finite and at least"):
            IntensityTrack(times, [-3.0, -3.0], [-3.0, bad], FrameConfig())


def _traced_load_and_track(path, cfg):
    tracemalloc.start()
    try:
        track = intensity_track(load_stereo(path), cfg)
        return track, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_and_track_allocate_spans_and_per_frame_arrays(tmp_path):
    # a loaded pcm16 take is read from its file span by span: nothing of the
    # file is held, and nothing beyond the reused span buffers (the stored
    # samples and their float64 squares) grows with the samples; the rest is
    # a few per-frame arrays (frame indices and starts, times, dB) and a
    # fixed 128 kB for the window, the file object and NumPy's casting buffers
    sample_rate = 48000
    cfg = FrameConfig()
    frame_len = cfg.frame_samples(sample_rate)
    span = 63 * 384 + frame_len  # samples in a span of 64 frames
    span_bytes = span * (8 + 2 * 2) + 128 * 1024
    rng = np.random.default_rng(8)
    peaks, frames = [], []
    for seconds in (6, 60):
        path = tmp_path / f"take{seconds}.wav"
        write_wav(path, list(rng.uniform(-0.5, 0.5, (2, seconds * sample_rate))),
                  sample_rate, "pcm16")
        track, peak = _traced_load_and_track(path, cfg)
        per_frame_bytes = 16 * 8 * len(track)  # 0.96 MB at 7497 frames
        assert peak < span_bytes + per_frame_bytes, (seconds, peak)
        peaks.append(peak)
        frames.append(len(track))
    assert frames[1] > 4096
    # ten times the samples add only the per-frame arrays of the extra frames
    assert peaks[1] - peaks[0] <= 16 * 8 * (frames[1] - frames[0]), peaks


@pytest.mark.parametrize("sample_rate", [8000, 11025])  # 11.025 kHz: gathered rows
def test_whole_track_holds_its_output_and_one_span(sample_rate):
    # framing every frame of a held take allocates the track (times and two
    # dB rows) and, beyond it, only one span's buffers (its float64 squares,
    # and rows gathered from them when the hop is fractional) and one block
    # of per-frame work arrays: nothing else grows with the take (1-ms hop,
    # so 30 s is 30k frames)
    cfg = FrameConfig(step_ms=1.0)
    frame_len = cfg.frame_samples(sample_rate)
    span = math.ceil((_SPAN_FRAMES - 1) * sample_rate / 1000.0) + frame_len
    span_bytes = 8 * (span + _SPAN_FRAMES * frame_len)
    block_bytes = 16 * 8 * _BLOCK_FRAMES
    rng = np.random.default_rng(sample_rate)
    extra = []
    for seconds in (30, 120):
        x = rng.uniform(-0.5, 0.5, (2, seconds * sample_rate))
        x.flags.writeable = False  # held without a copy
        rec = StereoRecording(x[0], x[1], sample_rate)
        tracemalloc.start()
        try:
            track = intensity_track(rec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - 24 * len(track))
        assert extra[-1] < span_bytes + block_bytes, (seconds, extra)
    assert abs(extra[1] - extra[0]) < 64 * 1024, extra


def test_frame_count_one_second_48k():
    rec = tone_recording(duration_s=1.0, sample_rate=48000)
    track = intensity_track(rec, FrameConfig())
    oracle = enumerate_frame_count(48000, 1536, 384.0)
    assert oracle == 122  # floor((48000-1536)/384)+1, frozen from the enumeration
    assert len(track) == oracle
    assert track.times[0] == pytest.approx(0.016, abs=1e-12)


def test_single_frame_recording():
    rec = tone_recording(duration_s=0.032, sample_rate=48000)
    track = intensity_track(rec, FrameConfig())
    assert len(track) == 1


def test_too_short_recording():
    rec = tone_recording(duration_s=0.010, sample_rate=48000)
    with pytest.raises(ValueError, match="shorter than one"):
        intensity_track(rec, FrameConfig())


def test_too_short_recording_is_named():
    rec = StereoRecording(np.zeros(100), np.zeros(100), 48000, source_id="take.wav")
    with pytest.raises(ValueError, match="^take.wav: recording of 100 samples is "
                                         "shorter than one 1536-sample frame$"):
        intensity_track(rec, FrameConfig())


def test_hop_under_one_sample_rejected():
    # 0.01 ms is 0.48 samples at 48 kHz; a shorter hop only repeats frames
    rec = tone_recording(duration_s=0.1, sample_rate=48000)
    with pytest.raises(ValueError, match="step_ms of 0.01 ms is under 1 sample"):
        intensity_track(rec, FrameConfig(step_ms=0.01))
    # a hop of exactly one sample is kept: 0.125 ms at 8 kHz
    rec = tone_recording(duration_s=0.1, sample_rate=8000)
    track = intensity_track(rec, FrameConfig(step_ms=0.125))
    assert len(track) == 800 - 256 + 1


def test_silent_recording_clamps_both_channels():
    rec = StereoRecording(np.zeros(48000), np.zeros(48000), 48000)
    track = intensity_track(rec, FrameConfig())
    assert np.all(track.nasal_db == DB_CLAMP_FLOOR)
    assert np.all(track.oral_db == DB_CLAMP_FLOOR)


def test_fractional_hop_keeps_ideal_time_base():
    # 8 ms at 44100 Hz is 352.8 samples; times must still advance 8 ms
    rec = tone_recording(duration_s=1.0, sample_rate=44100)
    track = intensity_track(rec, FrameConfig())
    diffs = np.diff(track.times)
    assert np.max(np.abs(diffs - 0.008)) < 1e-9
    frame_len = FrameConfig().frame_samples(44100)
    assert track.times[0] == pytest.approx(frame_len / (2 * 44100.0), abs=1e-12)


def test_gain_shift_moves_one_channel_only():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.4, 0.4, 48000)
    y = rng.uniform(-0.4, 0.4, 48000)
    base = intensity_track(StereoRecording(x, y, 48000), FrameConfig())
    g = 0.37
    gained = intensity_track(StereoRecording(g * x, y, 48000), FrameConfig())
    shift = 20.0 * math.log10(g)
    assert np.max(np.abs((gained.nasal_db - base.nasal_db) - shift)) < 1e-9
    np.testing.assert_array_equal(gained.oral_db, base.oral_db)


def test_frame_config_validation():
    with pytest.raises(ValueError, match="step_ms"):
        FrameConfig(frame_length_ms=10, step_ms=20)
    with pytest.raises(ValueError, match="step_ms"):
        FrameConfig(step_ms=0)
    with pytest.raises(ValueError, match="window"):
        FrameConfig(window="hamming")
    for bad in ({"frame_length_ms": math.inf}, {"step_ms": math.nan},
                {"frame_length_ms": -math.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            FrameConfig(**bad)
    with pytest.raises(ValueError, match="NaN"):
        FrameConfig(silence_floor_db=math.nan)
    assert FrameConfig(silence_floor_db=-math.inf).silence_floor_db == -math.inf
    with pytest.raises(ValueError, match="under 2 samples"):
        FrameConfig(frame_length_ms=0.01, step_ms=0.01).frame_samples(8000)


def measured_rms(x):
    return float(np.sqrt(np.mean(x * x)))


def test_bandpass_passband_and_stopband():
    sr = 48000.0
    t = np.arange(int(sr)) / sr
    spec = BandpassSpec(low_hz=300.0, high_hz=750.0, order=4)

    inband = 0.5 * np.sin(2 * np.pi * 500.0 * t)
    rec = StereoRecording(inband, inband, sr)
    out = bandpass(rec, spec)
    # steady-state region, away from filter edge transients
    sl = slice(int(0.1 * sr), int(0.9 * sr))
    drop_db = 20 * math.log10(measured_rms(out.nasal[sl]) / measured_rms(inband[sl]))
    assert abs(drop_db) < 1.0

    low = 0.5 * np.sin(2 * np.pi * 50.0 * t)
    out = bandpass(StereoRecording(low, low, sr), spec)
    atten_db = 20 * math.log10(measured_rms(low[sl]) / measured_rms(out.nasal[sl]))
    assert atten_db >= 24.0


def test_bandpass_applied_identically():
    rng = np.random.default_rng(5)
    for n in (48000, 3 * _FFT_BLOCK):  # one FFT block and several
        x = rng.uniform(-0.5, 0.5, n)
        rec = StereoRecording(x, x.copy(), 48000)
        out = bandpass(rec, BandpassSpec(300, 3000))
        np.testing.assert_array_equal(out.nasal, out.oral)
        assert not out.nasal.flags.writeable and not out.oral.flags.writeable


def half_width(spec, sr):
    """R: the band-pass kernel's taps on each side of its centre."""
    return len(_zero_phase_taps(spec, sr)) - 1


def _sosfiltfilt(x, spec, sr):
    sos = butter(spec.order // 2, [spec.low_hz, spec.high_hz], btype="bandpass",
                 fs=sr, output="sos")
    return sosfiltfilt(sos, x)


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("sr, low, high", [(8000.0, 100.0, 3000.0),
                                           (44100.0, 60.0, 4000.0),
                                           (48000.0, 60.0, 4000.0)])
def test_bandpass_interior_matches_sosfiltfilt(sr, low, high, order):
    spec = BandpassSpec(low, high, order)
    half = half_width(spec, sr)
    n_fft = max(_FFT_BLOCK, 1 << (8 * half).bit_length())
    rng = np.random.default_rng(order)
    # under one FFT block, exactly one (the extended signal fills it), several
    for n in (4 * half, n_fft - 2 * half, 3 * n_fft + 17):
        x = rng.uniform(-0.3, 0.3, n)
        out = bandpass(StereoRecording(x, -x, sr), spec)
        interior = slice(half + 1, n - half - 1)  # more than R from either end
        want = _sosfiltfilt(x, spec, sr)[interior]
        np.testing.assert_allclose(out.nasal[interior], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.oral[interior], -want, rtol=0, atol=1e-12)


def test_bandpass_half_width_follows_the_filter():
    # about 0.11 s for 60:4000 Hz; a lower edge rings longer, a higher rate
    # spans more samples for the same time
    r = half_width(BandpassSpec(60.0, 4000.0), 48000.0)
    assert 0.09 < r / 48000.0 < 0.13
    assert half_width(BandpassSpec(30.0, 4000.0), 48000.0) > r
    assert half_width(BandpassSpec(60.0, 4000.0, order=6), 48000.0) > r
    assert half_width(BandpassSpec(60.0, 3000.0), 8000.0) < r
    rec = tone_recording(duration_s=0.2)
    for spec in (BandpassSpec(0.01, 4000.0), BandpassSpec(60.0, 24000.0 - 1e-9)):
        with pytest.raises(ValueError, match="rings for more than"):
            bandpass(rec, spec)


def test_bandpass_recording_shorter_than_half_width():
    sr = 48000.0
    spec = BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sr)
    n = half // 3
    rng = np.random.default_rng(9)
    x = rng.uniform(-0.3, 0.3, n)
    out = bandpass(StereoRecording(x, x[::-1].copy(), sr), spec)
    assert out.n_samples == n and np.all(np.isfinite(out.nasal))
    # the documented edge treatment, by direct convolution: odd extension
    # about each end sample, held at its last value past the far end
    k = np.arange(1, half + 1)
    head = 2 * x[0] - x[np.minimum(k, n - 1)][::-1]
    tail = 2 * x[-1] - x[np.maximum(n - 1 - k, 0)]
    taps = _zero_phase_taps(spec, sr)
    kernel = np.concatenate([taps[:0:-1], taps])
    want = np.convolve(np.concatenate([head, x, tail]), kernel, mode="valid")
    np.testing.assert_allclose(out.nasal, want, rtol=0, atol=1e-12)


def test_bandpass_overshoot_keeps_filtered_values():
    # a full-scale square wave rings past 1.0, and the ringing is kept
    sr = 8000.0
    square = np.where(np.arange(8000) % 80 < 40, 1.0, -1.0)
    rec = StereoRecording(square, 0.5 * square, sr)
    spec = BandpassSpec(100.0, 3000.0)
    out = bandpass(rec, spec)
    raw = _sosfiltfilt(square, spec, sr)
    assert np.max(np.abs(out.nasal)) > 1.0
    half = half_width(spec, sr)
    interior = slice(half + 1, 8000 - half - 1)
    np.testing.assert_allclose(out.nasal[interior], raw[interior], rtol=0, atol=1e-12)
    nasal, oral = held_bandpass(rec, spec)
    np.testing.assert_array_equal(out.nasal, nasal)
    np.testing.assert_array_equal(out.oral, oral)
    np.testing.assert_array_equal(out.oral, 0.5 * out.nasal)


def _bandpassed_and_held(nasal, oral, sr, spec):
    rec = StereoRecording(nasal, oral, sr)
    return bandpass(rec, spec), held_bandpass(rec, spec)


@pytest.mark.parametrize("sr", [48000.0, 44100.0])
@pytest.mark.parametrize("length", ["under R", "one block", "3 blocks + 17"])
def test_streamed_bandpass_equals_held_oracle(sr, length):
    # decoding the streamed recording, and reading it span by span, give the
    # whole-array overlap-save's samples bit for bit
    spec = BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sr)
    n_fft = max(_FFT_BLOCK, 1 << (8 * half).bit_length())
    n = {"under R": half // 3, "one block": n_fft - 2 * half,
         "3 blocks + 17": 3 * n_fft + 17}[length]
    x = np.random.default_rng(n).uniform(-0.4, 0.4, (2, n))
    out, (nasal, oral) = _bandpassed_and_held(x[0], x[1], sr, spec)
    np.testing.assert_array_equal(out.nasal, nasal)
    np.testing.assert_array_equal(out.oral, oral)
    assert not out.nasal.flags.writeable and not out.oral.flags.writeable
    frame_len = FrameConfig().frame_samples(sr)
    if n >= frame_len:
        want = intensity_track(StereoRecording(nasal, oral, sr))
        got = intensity_track(out)
        np.testing.assert_array_equal(got.nasal_db, want.nasal_db)
        np.testing.assert_array_equal(got.oral_db, want.oral_db)


def test_streamed_bandpass_reads_in_any_order():
    sr, spec = 48000.0, BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sr)
    hop = max(_FFT_BLOCK, 1 << (8 * half).bit_length()) - 2 * half
    n = 4 * hop + 1000
    x = np.random.default_rng(3).uniform(-0.4, 0.4, (2, n))
    out, held = _bandpassed_and_held(x[0], x[1], sr, spec)
    spans = [(hop - 100, hop + 100), (2 * hop - 1, 2 * hop + 1), (0, 1), (n - 1, n),
             (hop // 2, 3 * hop + 7), (0, n), (hop, hop), (n, n), (2 * hop, 3 * hop)]
    starts = range(0, n - 25728, 25728)
    # 64-frame spans from the end back, then straddling and long spans
    spans = [(a, a + 25728) for a in reversed(starts)] + spans + spans[::-1]
    with out.stored() as read:
        for a, b in spans:
            for got, want in zip(read(a, b), held):
                np.testing.assert_array_equal(got, want[a:b])
    with out.stored((1,)) as read:  # one role
        (got,) = read(hop - 5, hop + 5)
        np.testing.assert_array_equal(got, held[1][hop - 5 : hop + 5])


def _ring_setup(seed):
    # a 48 kHz take of 4 blocks and a bit, band-passed, and its oracle
    sr, spec = 48000.0, BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sr)
    hop = max(_FFT_BLOCK, 1 << (8 * half).bit_length()) - 2 * half
    n = 4 * hop + 1000
    x = np.random.default_rng(seed).uniform(-0.4, 0.4, (2, n))
    out, held = _bandpassed_and_held(x[0], x[1], sr, spec)
    return out, held, hop, n


@pytest.mark.parametrize("roles", [(0,), (1,), (0, 1), (1, 0)])
def test_bandpass_ring_rereads_evicted_blocks_and_spans_of_many(roles):
    # the reader keeps two filtered blocks, block j in slot j % 2: coming back
    # to a block that j + 2 evicted filters it again, and a span over three
    # or more blocks is copied out piece by piece; every read is the
    # oracle's, bitwise, and read-only
    out, held, hop, n = _ring_setup(21)
    mid = hop // 2
    spans = [(mid, mid + 9), (2 * hop + mid, 2 * hop + mid + 9), (mid, mid + 9),
             (hop + 1, hop + 5), (3 * hop + mid, 3 * hop + 99), (hop + 1, hop + 5),
             (mid, 3 * hop + mid), (hop - 3, 4 * hop + 3), (0, n), (mid, mid + 9),
             (4 * hop, n), (0, n), (2 * hop - 1, 2 * hop + 1), (n, n), (0, 0)]
    with out.stored(roles) as read:
        for a, b in spans:
            got = read(a, b)
            assert len(got) == len(roles)
            for role, y in zip(roles, got):
                assert not y.flags.writeable, (a, b)
                np.testing.assert_array_equal(y, held[role][a:b])


def test_bandpass_reader_refilters_a_block_whose_slot_failed(monkeypatch):
    # a filter that raises halfway leaves its slot holding no block, so the
    # block it was evicting is filtered again when it is read next
    out, held, hop, n = _ring_setup(25)
    irfft = np.fft.irfft
    with out.stored((0,)) as read:
        read(5, 10)  # block 0, in slot 0
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            read(2 * hop + 5, 2 * hop + 10)  # block 2, into slot 0
        monkeypatch.setattr(np.fft, "irfft", irfft)
        (got,) = read(5, 10)
        np.testing.assert_array_equal(got, held[0][5:10])


def test_bandpass_twice_equals_the_oracle_twice():
    # the outer filter reads the inner one's ring, whose views hold only
    # until its next read
    out, held, hop, n = _ring_setup(22)
    spec = BandpassSpec(60.0, 4000.0)
    want = held_bandpass(held_recording(*held, out.sample_rate), spec)
    twice = bandpass(out, spec)
    np.testing.assert_array_equal(twice.nasal, want[0])
    np.testing.assert_array_equal(twice.oral, want[1])
    with twice.stored() as read:
        for a, b in ((hop - 50, hop + 50), (0, n), (3 * hop, 3 * hop + 10)):
            for got, w in zip(read(a, b), want):
                np.testing.assert_array_equal(got, w[a:b])


def test_two_readers_of_one_bandpassed_recording_keep_their_own_blocks():
    # each reader has its own ring: reads through one do not overwrite the
    # views the other returned
    out, held, hop, n = _ring_setup(23)
    with out.stored() as first, out.stored((1,)) as second:
        for j in range(3):  # blocks 0 to 4
            a = j * hop + 17
            kept = first(a, a + 100)
            for k in (j + 1, j + 2, j):
                (y,) = second(k * hop + 5, k * hop + 50)
                np.testing.assert_array_equal(y, held[1][k * hop + 5 : k * hop + 50])
            for got, want in zip(kept, held):
                np.testing.assert_array_equal(got, want[a : a + 100])


def test_bandpassed_framing_allocates_a_fixed_workspace(tmp_path):
    # after a warm-up call (lazy imports, FFT plans), sparse framing of a
    # band-passed pcm16 take allocates the reader's ring of two blocks per
    # role, one spectrum per role, the real kernel spectrum and the file's
    # read buffer, all fixed by n_fft, and the per-frame arrays; no array
    # per block
    sample_rate, spec = 48000, BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sample_rate)
    n_fft = max(_FFT_BLOCK, 1 << (8 * half).bit_length())
    path = tmp_path / "take.wav"
    seconds = 20
    x = np.random.default_rng(24).uniform(-0.5, 0.5, (2, seconds * sample_rate))
    write_wav(path, list(x), sample_rate, "pcm16")
    at = np.arange(0.125, seconds, 0.25)  # a vowel midpoint every 250 ms
    intensity_track(bandpass(load_stereo(path), spec), at=at)
    tracemalloc.start()
    try:
        track = intensity_track(bandpass(load_stereo(path), spec), at=at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ring = 2 * 2 * n_fft * 8
    spectra = 2 * (n_fft // 2 + 1) * 16
    kernel = (n_fft // 2 + 1) * 8
    inputs = n_fft * 2 * 2  # one stereo pcm16 block of the file
    per_frame = 16 * 8 * len(track)
    assert peak <= ring + spectra + kernel + inputs + per_frame + 2**20, peak


def test_decoding_one_role_filters_only_that_role(monkeypatch):
    # each block of a role costs one inverse FFT: decoding one channel runs
    # one per block, reading both roles two, and each role is the oracle's
    sr, spec = 48000.0, BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sr)
    hop = max(_FFT_BLOCK, 1 << (8 * half).bit_length()) - 2 * half
    n = 3 * hop + 1000  # 4 blocks
    x = np.random.default_rng(14).uniform(-0.4, 0.4, (2, n))
    out, held = _bandpassed_and_held(x[0], x[1], sr, spec)
    calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
    np.testing.assert_array_equal(out.nasal, held[0])
    assert len(calls) == 4
    np.testing.assert_array_equal(out.oral, held[1])
    assert len(calls) == 8
    with out.stored() as read:
        for got, want in zip(read(0, n), held):
            np.testing.assert_array_equal(got, want)
    assert len(calls) == 16


def test_crop_of_bandpassed_recording():
    # band-passing first and cropping after keeps the whole take's edges:
    # the crop's samples, and its frames, are those of the whole
    sr, spec = 44100.0, BandpassSpec(60.0, 4000.0)
    n = 3 * _FFT_BLOCK
    x = np.random.default_rng(4).uniform(-0.4, 0.4, (2, n))
    out, (nasal, oral) = _bandpassed_and_held(x[0], x[1], sr, spec)
    i0, i1 = _FFT_BLOCK + 123, 2 * _FFT_BLOCK + 4567
    crop = out.crop(i0, i1)
    np.testing.assert_array_equal(crop.nasal, nasal[i0:i1])
    np.testing.assert_array_equal(crop.oral, oral[i0:i1])
    want = intensity_track(StereoRecording(nasal[i0:i1], oral[i0:i1], sr))
    got = intensity_track(crop)
    np.testing.assert_array_equal(got.nasal_db, want.nasal_db)
    np.testing.assert_array_equal(got.oral_db, want.oral_db)


def test_bandpass_of_mixed_format_pair(tmp_path):
    # a pcm16 nasal file and a float32 oral file decode to float64 per read
    sr, spec = 44100, BandpassSpec(60.0, 4000.0)
    x = np.random.default_rng(6).uniform(-0.4, 0.4, (2, 2 * _FFT_BLOCK + 99))
    write_wav(tmp_path / "n.wav", [x[0]], sr, "pcm16")
    write_wav(tmp_path / "o.wav", [x[1]], sr, "float32")
    rec = load_pair(tmp_path / "n.wav", tmp_path / "o.wav")
    out = bandpass(rec, spec)
    nasal, oral = held_bandpass(rec, spec)
    np.testing.assert_array_equal(out.nasal, nasal)
    np.testing.assert_array_equal(out.oral, oral)
    want = intensity_track(StereoRecording(nasal, oral, sr))
    got = intensity_track(out)
    np.testing.assert_array_equal(got.nasal_db, want.nasal_db)
    np.testing.assert_array_equal(got.oral_db, want.oral_db)


def test_overshooting_bandpass_frames_unscaled_samples():
    # framing, sparse or whole, gives bit for bit the dB of the filtered
    # samples as they are, past full scale
    sr = 8000.0
    square = np.where(np.arange(3 * _FFT_BLOCK) % 80 < 40, 1.0, -1.0)
    out, (nasal, oral) = _bandpassed_and_held(square, 0.5 * square, sr,
                                              BandpassSpec(100.0, 3000.0))
    assert np.max(np.abs(nasal)) > 1.0
    held = held_recording(nasal, oral, sr)
    at = [0.5, 10.0, 20.0]
    for kwargs in ({}, {"at": at}):
        got = intensity_track(bandpass(StereoRecording(square, 0.5 * square, sr),
                                       BandpassSpec(100.0, 3000.0)), **kwargs)
        want = intensity_track(held, **kwargs)
        np.testing.assert_array_equal(got.nasal_db, want.nasal_db)
        np.testing.assert_array_equal(got.oral_db, want.oral_db)
    np.testing.assert_array_equal(out.nasal, nasal)
    # band-passing again reads the samples past full scale
    twice = bandpass(out, BandpassSpec(100.0, 3000.0))
    for got, want in zip((twice.nasal, twice.oral),
                         held_bandpass(held, BandpassSpec(100.0, 3000.0))):
        np.testing.assert_array_equal(got, want)


def test_bandpassed_recording_shared_between_threads():
    # threads that frame one band-passed recording at once all see the same
    # filtered samples
    import sys
    from concurrent.futures import ThreadPoolExecutor

    sr = 8000.0
    square = np.where(np.arange(2 * _FFT_BLOCK) % 80 < 40, 1.0, -1.0)
    spec = BandpassSpec(100.0, 3000.0)
    want = intensity_track(held_recording(*held_bandpass(
        StereoRecording(square, -square, sr), spec), sr))
    out = bandpass(StereoRecording(square, -square, sr), spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            tracks = [f.result(timeout=60)
                      for f in [pool.submit(intensity_track, out) for _ in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    for got in tracks:
        np.testing.assert_array_equal(got.nasal_db, want.nasal_db)
        np.testing.assert_array_equal(got.oral_db, want.oral_db)


def test_sparse_framing_of_bandpassed_take_filters_only_its_block(tmp_path, monkeypatch):
    # framing the frames around one time filters only the block that holds
    # them, so only that block's source samples are read from the file
    sr, spec = 48000, BandpassSpec(60.0, 4000.0)
    half = half_width(spec, sr)
    hop = max(_FFT_BLOCK, 1 << (8 * half).bit_length()) - 2 * half
    x = np.random.default_rng(13).uniform(-0.4, 0.4, (2, 6 * hop))
    write_wav(tmp_path / "take.wav", list(x), sr, "pcm16")
    rec = load_stereo(tmp_path / "take.wav")
    want = intensity_track(bandpass(rec, spec))

    reads = []
    file_reader = audio_io._WavData.reader

    @contextmanager
    def logged_reader(data):
        with file_reader(data) as read:
            def logged(a, b):
                reads.append((a, b))
                return read(a, b)

            yield logged

    monkeypatch.setattr(audio_io._WavData, "reader", logged_reader)
    got = intensity_track(bandpass(rec, spec), at=[3.5 * hop / sr])  # mid block 3
    assert reads and min(a for a, _ in reads) >= 3 * hop - half
    assert max(b for _, b in reads) <= 4 * hop + half
    assert len(got) == 2
    np.testing.assert_array_equal(got.nasal_db, want.nasal_db[got.index])
    np.testing.assert_array_equal(got.oral_db, want.oral_db[got.index])


def test_bandpass_memory_does_not_grow_with_the_take(tmp_path):
    # filtered blocks are made as framing reads them and only two are kept,
    # so a take four times as long adds only its per-frame arrays
    sample_rate = 48000
    rng = np.random.default_rng(12)
    peaks = []
    for seconds in (20, 80):
        path = tmp_path / f"take{seconds}.wav"
        write_wav(path, list(rng.uniform(-0.5, 0.5, (2, seconds * sample_rate))),
                  sample_rate, "pcm16")
        at = np.arange(0.125, seconds, 0.25)  # a vowel midpoint every 250 ms
        spec = BandpassSpec(60.0, 4000.0)
        intensity_track(bandpass(load_stereo(path), spec), at=at)  # lazy imports, FFT plans
        tracemalloc.start()
        try:
            intensity_track(bandpass(load_stereo(path), spec), at=at)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks


def test_bandpass_spec_validation():
    with pytest.raises(ValueError, match="low_hz < high_hz"):
        BandpassSpec(low_hz=800, high_hz=300)
    with pytest.raises(ValueError, match="even"):
        BandpassSpec(low_hz=300, high_hz=800, order=3)
    rec = tone_recording(duration_s=0.2)
    with pytest.raises(ValueError, match="Nyquist"):
        bandpass(rec, BandpassSpec(low_hz=300, high_hz=30000))


def test_intensity_csv_format():
    rec = tone_recording(duration_s=0.1)
    track = intensity_track(rec, FrameConfig())
    text = "".join(intensity_to_csv(track))
    lines = text.strip().split("\n")
    assert lines[0] == "t_s,nasal_db,oral_db"
    assert lines[1].startswith("0.016000,")
    assert len(lines) == len(track) + 1


def test_db_never_positive_for_legal_signals():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 48000)
    track = intensity_track(StereoRecording(x, -x, 48000), FrameConfig())
    assert np.max(track.nasal_db) <= 0.0
    assert np.min(track.nasal_db) >= DB_CLAMP_FLOOR