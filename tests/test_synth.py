"""Synthetic oracle: bleed model algebra, determinism, pipeline recovery."""

import json

import numpy as np
import pytest

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
    from nasalance.synth import _carrier_samples

    t = np.arange(24000) / 48000.0
    for carrier in (SineCarrier(440.0), HarmonicCarrier(120.0, 8),
                    HarmonicCarrier(9000.0, 10)):
        c = _carrier_samples(carrier, t, 48000.0)
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
    lines = truth_to_csv(truth).strip().split("\n")
    assert lines[0] == "t_s,expected_nasalance_pct"
    assert lines[1] == "0.000000,25.000000"