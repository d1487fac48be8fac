"""Synthetic oracle: bleed model algebra, determinism, pipeline recovery."""

import hashlib
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nasalance.synth
from oracles import held_noise, held_synthesize
from nasalance.cli import main
from nasalance.core import nasalance_track
from nasalance.errors import SynthSpecError
from nasalance.intensity import FrameConfig, intensity_track
from nasalance.synth import (
    HarmonicCarrier,
    SineCarrier,
    SynthSpec,
    expected_nasalance,
    load_synth_spec,
    spec_from_dict,
    synthesize,
    GroundTruth,
    truth_to_csv,
)


def const_spec(a_n, a_o, bleed=0.0, noise=0.0, duration=0.5, carrier=None, seed=0):
    return SynthSpec(
        duration_s=duration,
        sample_rate=48000.0,
        carrier=carrier or SineCarrier(440.0),
        nasal_env=[(0.0, a_n)],
        oral_env=[(0.0, a_o)],
        bleed=bleed,
        noise_rms=noise,
        seed=seed,
    )


def test_fully_nasal_truth_is_100():
    pct = expected_nasalance(const_spec(1.0, 0.0), [0.0, 0.25, 0.49])
    np.testing.assert_array_equal(pct, [100.0, 100.0, 100.0])


def test_symmetric_envelopes_are_50_for_any_bleed():
    for bleed in (0.0, 0.3, 0.9):
        pct = expected_nasalance(const_spec(0.3, 0.3, bleed=bleed), [0.1])
        assert pct[0] == 50.0


def test_bleed_algebra():
    # (0.2 + 0.1*0.6) / ((0.2 + 0.06) + (0.6 + 0.02)) * 100
    expected = 100.0 * 0.26 / 0.88
    pct = expected_nasalance(const_spec(0.2, 0.6, bleed=0.1), [0.1])
    assert pct[0] == pytest.approx(expected, abs=1e-12)
    assert pct[0] == pytest.approx(29.545, abs=5e-4)


def test_bleed_never_crosses_50():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a_n, a_o = rng.uniform(0.01, 0.5, 2)
        if a_n == a_o:
            continue
        bleed = rng.uniform(0.0, 0.99)
        base = expected_nasalance(const_spec(a_n, a_o), [0.1])[0]
        bled = expected_nasalance(const_spec(a_n, a_o, bleed=bleed), [0.1])[0]
        assert np.sign(base - 50.0) == np.sign(bled - 50.0)


def test_truth_undefined_where_both_envelopes_zero():
    spec = SynthSpec(
        duration_s=1.0,
        sample_rate=48000.0,
        carrier=SineCarrier(440.0),
        nasal_env=[(0.0, 0.3), (0.39, 0.3), (0.4, 0.0), (0.6, 0.0), (0.61, 0.3)],
        oral_env=[(0.0, 0.3), (0.39, 0.3), (0.4, 0.0), (0.6, 0.0), (0.61, 0.3)],
    )
    pct = expected_nasalance(spec, [0.2, 0.5, 0.8])
    assert pct[0] == 50.0 and pct[2] == 50.0
    assert np.isnan(pct[1])
    rec, truth = synthesize(spec)
    assert not np.any((truth.times > 0.41) & (truth.times < 0.59))


def test_carrier_unit_rms():
    # a constant envelope of 0.25 with no bleed or noise leaves 0.25 x the carrier
    for carrier in (SineCarrier(440.0), HarmonicCarrier(120.0, 8),
                    HarmonicCarrier(9000.0, 10)):
        rec, _ = synthesize(const_spec(0.25, 0.25, carrier=carrier), truth_times=())
        c = rec.nasal / 0.25
        assert np.sqrt(np.mean(c * c)) == pytest.approx(1.0, abs=1e-12)


def test_synthesis_is_deterministic():
    spec = const_spec(0.2, 0.4, noise=0.01, seed=123)
    rec1, truth1 = synthesize(spec)
    rec2, truth2 = synthesize(spec)
    np.testing.assert_array_equal(rec1.nasal, rec2.nasal)
    np.testing.assert_array_equal(rec1.oral, rec2.oral)
    np.testing.assert_array_equal(
        truth1.expected_nasalance_pct, truth2.expected_nasalance_pct
    )
    other = synthesize(const_spec(0.2, 0.4, noise=0.01, seed=124))[0]
    assert not np.array_equal(other.nasal, rec1.nasal)


def test_synthesized_channels_are_stored_without_a_copy():
    rec, _ = synthesize(const_spec(0.2, 0.4, noise=0.01))
    with rec.stored() as read:
        nasal, oral = read(0, rec.n_samples)
    assert rec.nasal is rec.nasal and rec.oral is rec.oral  # the held arrays
    assert np.shares_memory(rec.nasal, nasal) and np.shares_memory(rec.oral, oral)
    assert rec.scale == 1.0 and rec.nasal.dtype == np.float64
    assert not rec.nasal.flags.writeable


def test_clipping_spec_rejected():
    with pytest.raises(SynthSpecError, match="clips"):
        synthesize(const_spec(0.9, 0.4))
    # envelopes that overflow: inf times the carrier's first sample, 0, is NaN
    with (pytest.raises(SynthSpecError, match="clips: peak amplitude nan"),
          pytest.warns(RuntimeWarning)):
        synthesize(const_spec(1e308, 1e308, bleed=0.9))


def test_spec_validation():
    with pytest.raises(SynthSpecError, match="strictly increasing"):
        SynthSpec(duration_s=1, sample_rate=48000, carrier=SineCarrier(440),
                  nasal_env=[(0.0, 0.1), (0.0, 0.2)], oral_env=[(0.0, 0.1)])
    with pytest.raises(SynthSpecError, match="non-negative"):
        SynthSpec(duration_s=1, sample_rate=48000, carrier=SineCarrier(440),
                  nasal_env=[(0.0, -0.1)], oral_env=[(0.0, 0.1)])
    with pytest.raises(SynthSpecError, match="bleed"):
        const_spec(0.1, 0.1, bleed=1.0)
    with pytest.raises(SynthSpecError, match="outside"):
        SynthSpec(duration_s=1, sample_rate=48000, carrier=SineCarrier(30000),
                  nasal_env=[(0.0, 0.1)], oral_env=[(0.0, 0.1)])


def test_spec_holds_at_most_one_float32_stereo_wav():
    # 36 header bytes + 8 bytes a frame must stay under 2**32
    def spec(n):
        return SynthSpec(duration_s=n, sample_rate=1.0, carrier=SineCarrier(0.25),
                         nasal_env=[(0.0, 0.1)], oral_env=[(0.0, 0.1)])

    assert 36 + 8 * 536870907 < 2**32 <= 36 + 8 * 536870908
    assert spec(536870907.0).duration_s == 536870907.0
    for n in (536870908.0, 0.4):
        with pytest.raises(SynthSpecError, match="holds 1 to 536870907$"):
            spec(n)


def test_spec_refuses_a_rate_no_wav_header_holds():
    # refused when the spec is built, with write_wav's message
    for rate in (48000.5, 2.0**32):
        with pytest.raises(SynthSpecError, match=r"^sample_rate must be a whole number "
                                                 r"of Hz in 1\.\.4294967295, got "):
            SynthSpec(duration_s=1e-4, sample_rate=rate, carrier=SineCarrier(440.0),
                      nasal_env=[(0.0, 0.1)], oral_env=[(0.0, 0.1)])


def test_pipeline_recovers_constant_truth():
    rec, _ = synthesize(const_spec(0.2, 0.6, duration=1.0))
    nt = nasalance_track(intensity_track(rec, FrameConfig()))
    assert nt.valid.all()
    assert np.max(np.abs(nt.nasalance_pct - 25.0)) < 0.1


def test_pipeline_tracks_linear_ramp():
    spec = SynthSpec(
        duration_s=1.2,
        sample_rate=48000.0,
        carrier=SineCarrier(440.0),
        nasal_env=[(0.0, 0.0), (1.0, 0.5)],
        oral_env=[(0.0, 0.5), (1.0, 0.0)],
    )
    rec, _ = synthesize(spec)
    nt = nasalance_track(intensity_track(rec, FrameConfig()))
    half_frame = 0.016
    inside = (nt.times > half_frame + 1e-9) & (nt.times < 1.0 - half_frame - 1e-9)
    expected = expected_nasalance(spec, nt.times[inside])
    got = nt.nasalance_pct[inside]
    assert np.all(nt.valid[inside])
    assert np.max(np.abs(got - expected)) < 2.0


def test_harmonic_pipeline_recovery():
    rec, _ = synthesize(
        const_spec(0.15, 0.45, carrier=HarmonicCarrier(130.0, 12), duration=0.8)
    )
    nt = nasalance_track(intensity_track(rec))
    assert np.max(np.abs(nt.nasalance_pct[nt.valid] - 25.0)) < 0.1


def test_spec_json_loading(tmp_path):
    doc = {
        "duration_s": 0.5,
        "sample_rate": 48000,
        "carrier": {"type": "sine", "f_hz": 440.0},
        "nasal_env": [[0.0, 0.2]],
        "oral_env": [[0.0, 0.6]],
        "bleed": 0.1,
        "noise_rms": 0.001,
        "seed": 7,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_synth_spec(path)
    assert spec == spec_from_dict(doc)
    assert spec.carrier == SineCarrier(440.0)
    assert spec.seed == 7

    path.write_text("{broken")
    with pytest.raises(SynthSpecError, match="not valid JSON"):
        load_synth_spec(path)
    path.write_text(json.dumps({**doc, "carrier": {"type": "square", "f_hz": 1}}))
    with pytest.raises(SynthSpecError, match="unknown carrier"):
        load_synth_spec(path)
    path.write_text(json.dumps({**doc, "nasal_env": []}))
    with pytest.raises(SynthSpecError, match="no breakpoints"):
        load_synth_spec(path)


def test_spec_with_byte_order_mark_loads(tmp_path):
    doc = {"duration_s": 0.5, "sample_rate": 48000,
           "carrier": {"type": "sine", "f_hz": 440.0},
           "nasal_env": [[0.0, 0.2]], "oral_env": [[0.0, 0.6]]}
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode())
    assert load_synth_spec(path) == spec_from_dict(doc)


def test_truth_csv_format():
    _, truth = synthesize(const_spec(0.2, 0.6, duration=0.01))
    lines = "".join(truth_to_csv(truth)).strip().split("\n")
    assert lines[0] == "t_s,expected_nasalance_pct"
    assert lines[1] == "0.000000,25.000000"

def test_truth_csv_bytes_match_formatted_rows():
    rng = np.random.default_rng(4)
    times = np.concatenate([[0.0, 5e-7, 1.5e-6, 599.9999995], rng.uniform(0, 600, 500)])
    pct = np.concatenate([[0.0, 100.0, 2.5e-7, 99.9999995], rng.uniform(0, 100, 500)])
    truth = GroundTruth(times=times, expected_nasalance_pct=pct)
    rows = [f"{t:.6f},{v:.6f}" for t, v in zip(truth.times, truth.expected_nasalance_pct)]
    assert "".join(truth_to_csv(truth)) == "\n".join(["t_s,expected_nasalance_pct", *rows]) + "\n"
    empty = GroundTruth(times=[], expected_nasalance_pct=[])
    assert "".join(truth_to_csv(empty)) == "t_s,expected_nasalance_pct\n"


def ramp_spec(n, sample_rate, carrier, noise=0.0, bleed=0.0, seed=3):
    d = n / sample_rate
    return SynthSpec(
        duration_s=d, sample_rate=sample_rate, carrier=carrier,
        nasal_env=[(0.0, 0.1), (d / 3, 0.3), (d, 0.05)],
        oral_env=[(-1.0, 0.2), (0.7 * d, 0.01), (d + 1.0, 0.2)],
        bleed=bleed, noise_rms=noise, seed=seed,
    )


_B = nasalance.synth._NOISE_BLOCK


def grid(n):
    """The [a, b) blocks of synthesize's grid over range(n), in order."""
    return [(a, min(a + _B, n)) for a in range(0, n, _B)]


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 3 * _B + 17])
@pytest.mark.parametrize("carrier", [
    SineCarrier(440.0),
    HarmonicCarrier(120.0, 2),
    HarmonicCarrier(3000.0, 20),  # partials 8 to 20 are past the Nyquist rate
], ids=["sine", "harmonic", "past_nyquist"])
def test_synthesize_equals_held_oracle(n, carrier):
    # every sample bitwise, whatever the block a sample falls in, with and
    # without noise (a stream per channel and block) and bleed, at 48 and 44.1 kHz
    for sample_rate, noise, bleed in ((48000.0, 0.0, 0.0), (48000.0, 1e-3, 0.1),
                                      (44100.0, 1e-3, 0.0), (44100.0, 0.0, 0.3)):
        spec = ramp_spec(n, sample_rate, carrier, noise, bleed)
        rec, _ = synthesize(spec, truth_times=())
        nasal, oral = held_synthesize(spec)
        assert rec.n_samples == n
        assert rec.nasal.tobytes() == nasal.tobytes()
        assert rec.oral.tobytes() == oral.tobytes()


def exact_carrier(f0, n_partials, sample_rate, samples):
    """The raw carrier at integer samples for integer f0 and sample_rate: the
    phase of partial k is (k*f0*i) mod sample_rate, in exact integers."""
    raw = np.zeros(len(samples))
    for k in range(1, n_partials + 1):
        if 2 * k * f0 >= sample_rate:
            break
        raw += np.sin(2 * np.pi * ((k * f0 * samples) % sample_rate) / sample_rate) / k
    return raw


@pytest.mark.parametrize("carrier, sample_rate, n, blocks", [
    # the take's short last block, then the two blocks either side of one edge
    (HarmonicCarrier(120.0, 2), 48000, 600 * 48000, [439, 219, 220]),
    (HarmonicCarrier(220.0, 20), 44100, 60 * 44100, [40, 19, 20]),
    (SineCarrier(440.0), 48000, 3600 * 48000, [2636, 1000, 1001]),
], ids=["10min_2_partials", "20_partials", "1h_sine"])
def test_raw_carrier_is_within_1e_12_of_the_exact_phase(carrier, sample_rate, n, blocks):
    into = nasalance.synth._carrier(carrier, sample_rate, _B)
    scratch = np.empty((4, _B))
    f0, count = ((carrier.f_hz, 1) if isinstance(carrier, SineCarrier)
                 else (carrier.f0_hz, carrier.n_partials))
    assert blocks[0] == len(grid(n)) - 1 and n % _B
    for k in blocks:
        a, b = grid(n)[k]
        raw = np.empty(b - a)
        into(raw, a, scratch)
        want = exact_carrier(int(f0), count, sample_rate, np.arange(a, b, dtype=np.int64))
        assert np.max(np.abs(raw - want)) < 1e-12, k


def test_synthesize_from_many_threads_with_short_switch_interval():
    # each call splits its blocks over two threads writing one pair of
    # channels; six calls at once in four threads, switching every 10 us
    spec = ramp_spec(3 * _B + 17, 48000.0, HarmonicCarrier(120.0, 2), noise=1e-3, bleed=0.1)
    want = held_synthesize(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            recs = [f.result(timeout=60)[0] for f in
                    [pool.submit(synthesize, spec, ()) for _ in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    for rec in recs:
        assert rec.nasal.tobytes() == want[0].tobytes()
        assert rec.oral.tobytes() == want[1].tobytes()


def test_samples_do_not_depend_on_the_thread_or_the_block_order(monkeypatch):
    spec = ramp_spec(3 * _B + 17, 48000.0, HarmonicCarrier(120.0, 2), noise=1e-3, bleed=0.1)
    two = synthesize(spec, truth_times=())[0]
    for order in (grid, lambda n: grid(n)[::-1]):  # one thread, in order or reversed
        monkeypatch.setattr(nasalance.synth, "_in_two_threads",
                            lambda work, n, order=order: work(order(n)))
        one = synthesize(spec, truth_times=())[0]
        assert one.nasal.tobytes() == two.nasal.tobytes()
        assert one.oral.tobytes() == two.oral.tobytes()


def noise_only_spec(n, seed=11):
    # zero envelopes leave each channel its noise alone: 0 * carrier + noise
    return SynthSpec(duration_s=n / 8000.0, sample_rate=8000.0, carrier=SineCarrier(440.0),
                     nasal_env=[(0.0, 0.0)], oral_env=[(0.0, 0.0)], noise_rms=0.01, seed=seed)


def test_two_durations_of_one_spec_share_every_whole_block_of_noise():
    short = synthesize(noise_only_spec(2 * _B + 100), truth_times=())[0]
    long = synthesize(noise_only_spec(4 * _B), truth_times=())[0]
    for channel, (x, y) in enumerate(((short.nasal, long.nasal), (short.oral, long.oral))):
        assert x[: 2 * _B].tobytes() == y[: 2 * _B].tobytes()
        # a short last block takes the first draws of its block's stream
        assert x[2 * _B :].tobytes() == y[2 * _B : 2 * _B + 100].tobytes()
        np.testing.assert_array_equal(x, 0.01 * held_noise(11, channel, 2 * _B + 100))
    # every (channel, block) stream is its own
    blocks = [ch[a:b] for ch in (long.nasal, long.oral) for a, b in grid(4 * _B)]
    assert len({block.tobytes() for block in blocks}) == 8


def test_noisy_synth_wav_bytes_are_pinned(tmp_path):
    # guards the seed contract on every NumPy: the WAV holds noise alone, so
    # its float32 bytes depend on the normal draws, not on a platform's sin
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "duration_s": 17.0, "sample_rate": 8000, "carrier": {"type": "sine", "f_hz": 440.0},
        "nasal_env": [[0.0, 0.0]], "oral_env": [[0.0, 0.0]], "noise_rms": 0.01, "seed": 2026,
    }))
    assert main(["synth", str(spec), "--out", str(tmp_path / "noise")]) == 0
    wav = (tmp_path / "noise.wav").read_bytes()
    assert len(wav) == 44 + 8 * 136000  # two whole blocks and a short one
    assert hashlib.sha256(wav).hexdigest() == (
        "ae3f0777f6106d8c57f0785215ba6dbf51149667aac93992fc1db58827eaa58d")


def test_one_sample_spec_is_silent():
    # the carrier starts at sin(0) = 0, so one sample has no RMS to scale by
    with pytest.raises(SynthSpecError, match="silent"):
        synthesize(ramp_spec(1, 48000.0, SineCarrier(440.0)))


def test_synthesize_holds_only_its_two_channels(monkeypatch):
    # beyond the two float64 channels, a take four times as long allocates
    # nothing more: every other array is a block (one whole-signal float64
    # temporary would add 5.5 MB from 5 s to 20 s). The render runs in this
    # thread, so the peak does not depend on how two threads' blocks overlap.
    monkeypatch.setattr(nasalance.synth, "_in_two_threads",
                        lambda work, n: work(grid(n)))
    extra = []
    for seconds in (5, 20):
        spec = ramp_spec(seconds * 48000, 48000.0, HarmonicCarrier(120.0, 2), noise=1e-4)
        synthesize(spec, truth_times=())  # lazy imports
        tracemalloc.start()
        try:
            rec, _ = synthesize(spec, truth_times=())
            extra.append(tracemalloc.get_traced_memory()[1] - 16 * rec.n_samples)
        finally:
            tracemalloc.stop()
    assert abs(extra[1] - extra[0]) < 3 * 2**20 and extra[1] < 8 * 2**20, extra


@pytest.mark.parametrize("field, value", [
    ("duration_s", float("inf")),
    ("duration_s", float("nan")),
    ("sample_rate", float("inf")),
    ("sample_rate", float("nan")),
    ("noise_rms", float("inf")),
    ("noise_rms", float("nan")),
])
def test_non_finite_spec_numbers_refused(field, value):
    fields = dict(duration_s=0.5, sample_rate=48000.0, carrier=SineCarrier(440.0),
                  nasal_env=[(0.0, 0.2)], oral_env=[(0.0, 0.2)], noise_rms=0.01)
    with pytest.raises(SynthSpecError, match=f"{field} must be finite"):
        SynthSpec(**{**fields, field: value})


@pytest.mark.parametrize("env", ["nasal_env", "oral_env"])
@pytest.mark.parametrize("breakpoint", [(float("nan"), 0.2), (0.1, float("nan")),
                                        (float("inf"), 0.2), (0.1, float("inf"))],
                         ids=["nan_time", "nan_amplitude", "inf_time", "inf_amplitude"])
def test_non_finite_breakpoints_refused(env, breakpoint):
    fields = dict(duration_s=0.5, sample_rate=48000.0, carrier=SineCarrier(440.0),
                  nasal_env=[(0.0, 0.2)], oral_env=[(0.0, 0.2)])
    with pytest.raises(SynthSpecError, match=f"{env} breakpoints must be finite"):
        SynthSpec(**{**fields, env: [(0.0, 0.2), breakpoint]})
