"""Gain-offset estimation and correction."""

import json
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import tone_recording
from nasalance import audio_io
from nasalance.audio_io import StereoRecording, load_stereo, write_wav
from nasalance.calibration import (
    CalibrationProfile,
    apply_calibration,
    estimate_gain_offset,
    load_profile,
    save_profile,
)
from nasalance.core import nasalance_track
from nasalance.errors import CalibrationError, InputFormatError
from nasalance.intensity import BandpassSpec, FrameConfig, bandpass, intensity_track


def test_identical_channels_zero_offset():
    rec = tone_recording(nasal_amp=0.4, oral_amp=0.4)
    profile = estimate_gain_offset(rec)
    assert profile.gain_offset_db == pytest.approx(0.0, abs=1e-12)
    assert profile.created_from == "tone"


def test_half_scale_oral_gives_plus_6dB():
    rec = tone_recording(nasal_amp=0.5, oral_amp=0.25)
    profile = estimate_gain_offset(rec)
    assert profile.gain_offset_db == pytest.approx(20 * math.log10(2.0), abs=1e-9)


def test_near_silent_take_rejected():
    rec = StereoRecording(np.zeros(48000), np.zeros(48000), 48000)
    with pytest.raises(CalibrationError, match="insufficient"):
        estimate_gain_offset(rec)


def test_too_short_window_rejected():
    rec = tone_recording(duration_s=1.0)
    with pytest.raises(CalibrationError, match="selects no samples"):
        estimate_gain_offset(rec, window=(0.5, 0.5))


def test_stimulus_window_restricts_frames():
    # stimulus only in the second half; full-take estimate would see silence
    n = 48000
    t = np.arange(n) / 48000.0
    burst = np.where(t >= 0.5, np.sin(2 * np.pi * 440 * t), 0.0)
    rec = StereoRecording(0.4 * burst, 0.2 * burst, 48000)
    profile = estimate_gain_offset(rec, window=(0.5, 1.0))
    assert profile.gain_offset_db == pytest.approx(20 * math.log10(2.0), abs=1e-6)
    assert profile.stimulus_window == (0.5, 1.0)


def test_stimulus_window_slices_stored_samples(tmp_path, monkeypatch):
    n = 48000
    t = np.arange(n) / 48000.0
    burst = np.where(t >= 0.5, np.sin(2 * np.pi * 440 * t), 0.0)
    write_wav(tmp_path / "cal.wav", [0.4 * burst, 0.2 * burst], 48000, "pcm16")
    rec = load_stereo(tmp_path / "cal.wav")
    decoded = StereoRecording(rec.nasal, rec.oral, 48000, source_id=rec.source_id)
    want = estimate_gain_offset(decoded, window=(0.5, 1.0))

    def no_decode(*args):
        raise AssertionError("the stimulus window decoded the recording")

    reads = []
    file_reader = audio_io._WavData.reader

    @contextmanager
    def logged_reader(data):
        with file_reader(data) as read:
            def logged(a, b):
                reads.append((a, b))
                return read(a, b)

            yield logged

    monkeypatch.setattr(StereoRecording, "_decoded", no_decode)
    monkeypatch.setattr(audio_io._WavData, "reader", logged_reader)
    got = estimate_gain_offset(rec, window=(0.5, 1.0))
    assert got == want
    # the window's stored samples are read from the file, and nothing else
    assert reads and min(a for a, _ in reads) >= 24000
    assert max(b for _, b in reads) <= 48000


def test_estimate_invariant_to_common_gain():
    rec = tone_recording(nasal_amp=0.5, oral_amp=0.3)
    scaled = StereoRecording(rec.nasal * 0.5, rec.oral * 0.5, rec.sample_rate)
    a = estimate_gain_offset(rec).gain_offset_db
    b = estimate_gain_offset(scaled).gain_offset_db
    assert a == pytest.approx(b, abs=1e-9)


def test_apply_zero_offset_is_identity():
    it = intensity_track(tone_recording(), FrameConfig())
    out = apply_calibration(it, CalibrationProfile(gain_offset_db=0.0))
    np.testing.assert_array_equal(out.nasal_db, it.nasal_db)
    np.testing.assert_array_equal(out.oral_db, it.oral_db)
    np.testing.assert_array_equal(out.times, it.times)


@pytest.mark.parametrize("offset,expected", [(6.0206, 1 / 3), (-6.0206, 2 / 3)])
def test_apply_offset_on_equal_track(offset, expected):
    # oracle: amplitudes after correction are 10^(-offset/20) vs 1
    a = 10 ** (-offset / 20.0)
    oracle = 100.0 * a / (a + 1.0)
    assert oracle == pytest.approx(100 * expected, abs=0.01)
    it = intensity_track(tone_recording(nasal_amp=0.3, oral_amp=0.3))
    nt = nasalance_track(apply_calibration(it, CalibrationProfile(offset)))
    assert np.all(np.abs(nt.nasalance_pct[nt.valid] - oracle) < 1e-9)


def test_compensation_loop_recovers_uncalibrated_track():
    n = 48000
    t = np.arange(n) / 48000.0
    carrier = np.sin(2 * np.pi * 220 * t)
    nasal_env = 0.15 + 0.1 * np.sin(2 * np.pi * 1.5 * t) ** 2
    oral_env = 0.35 + 0.05 * np.cos(2 * np.pi * 0.8 * t) ** 2
    clean = StereoRecording(nasal_env * carrier, oral_env * carrier, 48000)
    truth = nasalance_track(intensity_track(clean))

    g = 10 ** (2.0 / 20.0)  # +2 dB injected into the nasal channel
    gained = StereoRecording(np.clip(g * clean.nasal, -1, 1), clean.oral, 48000)
    inflated = nasalance_track(intensity_track(gained))
    ok = truth.valid & inflated.valid
    assert np.all(
        inflated.nasalance_pct[ok] > truth.nasalance_pct[ok]
    ), "gain injection must inflate nasalance"

    calib_take = StereoRecording(
        np.clip(g * 0.4 * carrier, -1, 1), 0.4 * carrier, 48000
    )
    profile = estimate_gain_offset(calib_take)
    assert profile.gain_offset_db == pytest.approx(2.0, abs=0.05)
    corrected = nasalance_track(
        apply_calibration(intensity_track(gained), profile)
    )
    err = np.abs(corrected.nasalance_pct[ok] - truth.nasalance_pct[ok])
    assert np.max(err) < 0.5


def test_calibration_lifts_loud_frames_past_full_scale(tmp_path):
    # a -7 dB offset lifts a loud nasal channel about 3.9 dB past full scale:
    # a calibrated track is no longer dB of samples, and has no ceiling
    tone = 0.99 * np.sin(2 * np.pi * 330 * np.arange(48000) / 48000.0)
    write_wav(tmp_path / "loud.wav", [tone, tone], 48000, "pcm16")
    it = intensity_track(load_stereo(tmp_path / "loud.wav"))
    out = apply_calibration(it, CalibrationProfile(gain_offset_db=-7.0))
    assert np.max(out.nasal_db) > 3.02
    np.testing.assert_array_equal(out.nasal_db, it.nasal_db + 7.0)
    np.testing.assert_array_equal(out.oral_db, it.oral_db)


def test_profile_json_round_trip(tmp_path):
    profile = CalibrationProfile(1.25, created_from="take3.wav",
                                 stimulus_window=(0.5, 2.0))
    path = tmp_path / "cal.json"
    save_profile(profile, path)
    loaded = load_profile(path)
    assert loaded == profile
    text = path.read_text()
    assert '"gain_offset_db"' in text and '"stimulus_window"' in text


def test_profile_with_byte_order_mark_loads(tmp_path):
    profile = CalibrationProfile(-2.5, created_from="cal.wav")
    path = tmp_path / "cal.json"
    save_profile(profile, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_profile(path) == profile


def test_profile_validation(tmp_path):
    with pytest.raises(ValueError, match="finite"):
        CalibrationProfile(float("nan"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFormatError, match="bad calibration profile"):
        load_profile(bad)
    bad.write_text('{"created_from": "x"}')
    with pytest.raises(InputFormatError):
        load_profile(bad)

def test_profile_band_round_trip(tmp_path):
    # a full-band profile writes no "bandpass" key, and one without the key
    # reads as full band; a band-passed profile records [low, high, order]
    path = tmp_path / "cal.json"
    plain = CalibrationProfile(1.25, created_from="cal.wav", stimulus_window=(0.5, 2.0))
    save_profile(plain, path)
    assert path.read_text() == (
        '{\n  "gain_offset_db": 1.25,\n  "created_from": "cal.wav",\n'
        '  "stimulus_window": [\n    0.5,\n    2.0\n  ]\n}\n'
    )
    assert load_profile(path) == plain and load_profile(path).bandpass is None
    banded = replace(plain, bandpass=BandpassSpec(60.0, 4000.0))
    save_profile(banded, path)
    assert json.loads(path.read_text())["bandpass"] == [60.0, 4000.0, 4]
    assert load_profile(path) == banded
    for bad in ([60, 4000], [4000, 60, 4], [60, 4000, 4.0], [60, 4000, 3], "60:4000", 7):
        path.write_text(json.dumps({"gain_offset_db": 0.0, "bandpass": bad}))
        with pytest.raises(InputFormatError, match="bad calibration profile"):
            load_profile(path)


def test_banded_calibration_crops_the_band_passed_take():
    # the whole take is band-passed and then cut to the window, so the
    # window's edges are not the filter's edges
    rng = np.random.default_rng(14)
    x = rng.uniform(-0.4, 0.4, 48000)
    rec = StereoRecording(x, 0.5 * x, 48000)
    spec = BandpassSpec(60.0, 4000.0)
    got = estimate_gain_offset(rec, window=(0.25, 0.75), bandpass_spec=spec)
    assert got.bandpass == spec and got.stimulus_window == (0.25, 0.75)
    it = intensity_track(bandpass(rec, spec).crop(12000, 36000))
    assert got.gain_offset_db == float(np.median(it.nasal_db - it.oral_db))
    assert estimate_gain_offset(rec, window=(0.25, 0.75)).bandpass is None
