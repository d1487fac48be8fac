"""Nasalance ratio: exactness, invariances, and track sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import tone_recording
from oracles import held_nasalance_track
from nasalance.audio_io import StereoRecording
from nasalance.core import (
    NasalanceTrack,
    nasalance_frame,
    nasalance_to_csv,
    nasalance_track,
    value_at,
)
from nasalance.errors import UndefinedFrameError, UnmeasurableError
from nasalance.intensity import DB_CLAMP_FLOOR, FrameConfig, IntensityTrack, intensity_track


def test_frame_trivial_values():
    assert nasalance_frame(0.0, 0.4) == 0.0
    assert nasalance_frame(0.25, 0.25) == 50.0
    assert nasalance_frame(3.0, 1.0) == 75.0


def test_frame_errors():
    with pytest.raises(UndefinedFrameError):
        nasalance_frame(0.0, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        nasalance_frame(-0.1, 0.5)


amplitudes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(a_n=amplitudes, a_o=amplitudes)
def test_frame_matches_direct_formula(a_n, a_o):
    if a_n + a_o <= 0:
        return
    direct = 100.0 * a_n / (a_n + a_o)
    got = nasalance_frame(a_n, a_o)
    assert 0.0 <= got <= 100.0
    assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(a_n=amplitudes, a_o=amplitudes)
def test_frame_swap_complement_is_exact(a_n, a_o):
    if a_n + a_o <= 0:
        return
    # the pair is complementary exactly when read from the smaller side
    lo = min(nasalance_frame(a_n, a_o), nasalance_frame(a_o, a_n))
    hi = max(nasalance_frame(a_n, a_o), nasalance_frame(a_o, a_n))
    assert hi == 100.0 - lo


@given(a_o=st.floats(min_value=1e-6, max_value=1e3),
       lo=st.floats(min_value=0.0, max_value=1e3),
       delta=st.floats(min_value=1e-9, max_value=1e3))
def test_frame_monotone_in_nasal_amplitude(a_o, lo, delta):
    # sub-ulp increments cannot move the result, so hypothesis checks
    # non-decreasing; strictness is asserted on a macroscopic grid below
    assert nasalance_frame(lo, a_o) <= nasalance_frame(lo + delta, a_o)


def test_frame_strictly_increasing_on_grid():
    values = [nasalance_frame(a_n, 1.0) for a_n in np.linspace(0.0, 10.0, 1000)]
    assert all(x < y for x, y in zip(values, values[1:]))


def make_track(nasal_db, oral_db, floor=-60.0):
    nasal_db = np.asarray(nasal_db, dtype=float)
    cfg = FrameConfig(silence_floor_db=floor)
    times = np.arange(len(nasal_db)) * 0.008 + 0.016
    return IntensityTrack(times=times, nasal_db=nasal_db, oral_db=oral_db, config=cfg)


def test_track_equal_levels_give_50():
    nt = nasalance_track(make_track([-10.0], [-10.0]))
    assert nt.valid[0]
    assert nt.nasalance_pct[0] == 50.0


def test_track_derived_example():
    # oracle: direct evaluation of the ratio from the dB values
    a_n = 10 ** (-6.0206 / 20)
    a_o = 10 ** (-20.0 / 20)
    expected = 100.0 * a_n / (a_n + a_o)
    nt = nasalance_track(make_track([-6.0206], [-20.0]))
    assert nt.nasalance_pct[0] == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(83.3333, abs=5e-4)


def test_track_silent_frames_invalid():
    nt = nasalance_track(make_track([DB_CLAMP_FLOOR], [DB_CLAMP_FLOOR]))
    assert not nt.valid[0]
    assert np.isnan(nt.nasalance_pct[0])


def test_track_below_silence_floor_invalid():
    nt = nasalance_track(make_track([-70.0], [-65.0], floor=-60.0))
    assert not nt.valid[0]


def test_track_one_silent_channel_is_exact():
    nt = nasalance_track(make_track([-13.0, DB_CLAMP_FLOOR],
                                    [DB_CLAMP_FLOOR, -13.0]))
    assert nt.nasalance_pct[0] == 100.0
    assert nt.nasalance_pct[1] == 0.0
    assert nt.valid.all()


def test_common_gain_invariance_on_recordings():
    rng = np.random.default_rng(42)
    n = 24000
    env = 0.05 + 0.2 * np.abs(np.sin(2 * np.pi * 3.0 * np.arange(n) / 48000))
    x = env * rng.uniform(-1, 1, n)
    y = env * rng.uniform(-1, 1, n)
    base = nasalance_track(intensity_track(StereoRecording(x, y, 48000)))
    for g in (0.5, 1.3, 2.0):
        scaled = nasalance_track(
            intensity_track(StereoRecording(g * x, g * y, 48000))
        )
        np.testing.assert_array_equal(scaled.valid, base.valid)
        diff = np.abs(scaled.nasalance_pct[base.valid] - base.nasalance_pct[base.valid])
        assert np.max(diff) < 1e-6


def test_channel_swap_complement_on_recordings():
    rng = np.random.default_rng(43)
    x = 0.3 * rng.uniform(-1, 1, 24000)
    y = 0.2 * rng.uniform(-1, 1, 24000)
    fwd = nasalance_track(intensity_track(StereoRecording(x, y, 48000)))
    rev = nasalance_track(intensity_track(StereoRecording(y, x, 48000)))
    np.testing.assert_array_equal(fwd.valid, rev.valid)
    np.testing.assert_array_equal(
        rev.nasalance_pct[fwd.valid], 100.0 - fwd.nasalance_pct[fwd.valid]
    )


def test_db_reference_invariance_is_bitwise():
    # dB values and shifts on a dyadic grid, so the test's own additions
    # are lossless and any change would come from the implementation
    rng = np.random.default_rng(44)
    nasal = -rng.integers(1300, 6000, size=300) / 64.0
    oral = -rng.integers(1300, 6000, size=300) / 64.0
    base = nasalance_track(make_track(nasal, oral, floor=-200.0))
    for shift in (-12.25, 3.0, 17.515625):
        shifted = nasalance_track(
            make_track(nasal + shift, oral + shift, floor=-200.0)
        )
        np.testing.assert_array_equal(shifted.nasalance_pct, base.nasalance_pct)


def test_value_at_exact_hit_and_interpolation():
    nt = nasalance_track(make_track([-20.0, -10.0], [-12.041199826559248, -10.0]))
    t0, t1 = nt.times
    assert value_at(nt, t0, "nearest") == nt.nasalance_pct[0]
    assert value_at(nt, t0, "linear") == nt.nasalance_pct[0]
    mid = (t0 + t1) / 2
    expected = (nt.nasalance_pct[0] + nt.nasalance_pct[1]) / 2
    assert value_at(nt, mid, "linear") == pytest.approx(expected, abs=1e-9)
    # tie at the exact midpoint goes to the earlier frame
    assert value_at(nt, mid, "nearest") == nt.nasalance_pct[0]


def test_value_at_errors():
    nt = nasalance_track(make_track([-10.0, DB_CLAMP_FLOOR], [-10.0, DB_CLAMP_FLOOR]))
    with pytest.raises(UnmeasurableError) as err:
        value_at(nt, -1.0)
    assert err.value.reason == "outside-track"
    with pytest.raises(UnmeasurableError) as err:
        value_at(nt, nt.times[1], "nearest")
    assert err.value.reason == "invalid-frame"
    with pytest.raises(UnmeasurableError):
        value_at(nt, (nt.times[0] + nt.times[1]) / 2, "linear")
    with pytest.raises(ValueError, match="method"):
        value_at(nt, nt.times[0], "cubic")


@pytest.mark.parametrize("method", ["nearest", "linear"])
def test_value_at_nan_time_is_outside_track(method):
    nt = nasalance_track(make_track([-10.0, -20.0], [-10.0, -20.0]))
    with pytest.raises(UnmeasurableError) as err:
        value_at(nt, float("nan"), method)
    assert err.value.reason == "outside-track"


def test_csv_dump_marks_invalid_rows():
    nt = nasalance_track(make_track([-10.0, DB_CLAMP_FLOOR], [-10.0, DB_CLAMP_FLOOR]))
    lines = "".join(nasalance_to_csv(nt)).strip().split("\n")
    assert lines[0] == "t_s,nasalance_pct,valid"
    assert lines[1] == "0.016000,50.000000,1"
    assert lines[2] == "0.024000,,0"


def test_full_pipeline_tone_recording():
    rec = tone_recording(nasal_amp=0.2, oral_amp=0.6)
    nt = nasalance_track(intensity_track(rec))
    assert np.all(np.abs(nt.nasalance_pct[nt.valid] - 25.0) < 1e-9)


def test_nasalance_track_leaves_caller_arrays_writeable():
    times = 0.016 + 0.008 * np.arange(3)
    pct, valid = np.array([10.0, np.nan, 90.0]), np.array([True, False, True])
    nt = NasalanceTrack(times, pct, valid)
    assert times.flags.writeable and pct.flags.writeable and valid.flags.writeable
    times[0], pct[0], valid[0] = 9.0, 50.0, False  # later writes do not reach it
    assert nt.times[0] == 0.016 and nt.nasalance_pct[0] == 10.0 and nt.valid[0]
    assert not nt.valid.flags.writeable
    for arr in (times, pct, valid):
        arr.flags.writeable = False
    kept = NasalanceTrack(times, pct, valid)  # read-only: no copy
    assert kept.times is times and kept.nasalance_pct is pct and kept.valid is valid
    it = intensity_track(tone_recording(), FrameConfig())
    assert nasalance_track(it).times is it.times


def test_in_place_track_is_the_whole_array_oracle():
    # the in-place steps give bitwise the whole-array ones, on frames of
    # every kind: either channel louder, equal, clamped or under the floor
    rng = np.random.default_rng(11)
    for n in (1, 7, 64, 1001, 40000):
        db = rng.uniform(-90.0, 10.0, (2, n))
        kind = rng.integers(0, 6, (2, n))
        db[kind == 0] = DB_CLAMP_FLOOR  # silent channel
        db[kind == 1] = rng.uniform(-299.0, -61.0, int((kind == 1).sum()))  # quiet
        db[1, kind[0] == 2] = db[0, kind[0] == 2]  # equal levels
        it = make_track(db[0], db[1])
        nt = nasalance_track(it)
        pct, valid = held_nasalance_track(it)
        assert nt.nasalance_pct.tobytes() == pct.tobytes()
        np.testing.assert_array_equal(nt.valid, valid)
        if n == 40000:
            assert 0 < valid.sum() < n and (pct == 0.0).any() and (pct == 100.0).any()


@pytest.mark.parametrize("sample_rate", [48000, 44100])
@pytest.mark.parametrize("method", ["nearest", "linear"])
def test_value_at_is_the_same_on_sparse_and_whole_tracks(sample_rate, method):
    # at the times a sparse track was framed for, value_at gives bitwise the
    # whole track's value, or the same reject reason: on nearest-frame ties,
    # on centres, at and past both edges, and next to silent frames
    rng = np.random.default_rng(sample_rate)
    x = rng.uniform(-0.5, 0.5, (2, sample_rate))
    x[:, sample_rate // 2 : sample_rate // 2 + 2000] = 0.0
    rec = StereoRecording(x[0], x[1], sample_rate)
    dense = nasalance_track(intensity_track(rec))
    times = dense.times
    ties = [m for k in range(len(times) - 1)
            if (m := (times[k] + times[k + 1]) / 2) - times[k] == times[k + 1] - m]
    at = [*ties[::7], *times[::9], times[0], times[-1], np.nextafter(times[0], 0),
          np.nextafter(times[-1], 2), -1.0, 2.0, np.nan,
          *rng.uniform(0.45, 0.6, 40)]
    assert len(ties) > 10

    def measured(nt, t):
        try:
            return value_at(nt, t, method)
        except UnmeasurableError as exc:
            return exc.reason

    for framed_at in (at, *([t] for t in at)):
        sparse = nasalance_track(intensity_track(rec, at=framed_at))
        for t in framed_at:
            got, want = measured(sparse, t), measured(dense, t)
            assert repr(got) == repr(want), (t, got, want)
    reasons = {measured(dense, t) for t in at}
    assert {"outside-track", "invalid-frame"} <= reasons
