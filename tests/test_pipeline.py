"""Token extraction over synthetic recordings with known per-word nasalance."""

import tracemalloc

import numpy as np
import pytest

import nasalance.pipeline
from conftest import make_alignment_tiers, segment_envelopes
from nasalance.audio_io import StereoRecording
from nasalance.calibration import CalibrationProfile
from nasalance.errors import TokenSchemaError, WordlistError
from nasalance.intensity import BandpassSpec, intensity_track
from nasalance.pipeline import (
    RejectRecord,
    WordInfo,
    extract_token_records,
    load_wordlist,
    read_token_csv,
    rejects_to_csv,
    tokens_to_csv,
)
from nasalance.synth import SineCarrier, SynthSpec, synthesize
from nasalance.textgrid import Interval, IntervalTier

WORDLIST = {
    "bin": WordInfo(vowel="KIT", environment="nasal_coda"),
    "bed": WordInfo(vowel="DRESS", environment="oral"),
    "mum": WordInfo(vowel="STRUT", environment="nasal_both"),
}

# one word per 0.25 s segment; "zzz" is deliberately unmapped and the last
# segment is silent so its token is unmeasurable
WORDS = [("bin", "IH1"), ("bed", "EH1"), ("zzz", "AE1"), ("", "AH1"),
         ("mum", "AH1")]
TARGETS = [80.0, 30.0, 50.0, 50.0, None]  # None: silence


def build_fixture():
    amp = 0.5
    nasal_levels, oral_levels = [], []
    for target in TARGETS:
        if target is None:
            nasal_levels.append(0.0)
            oral_levels.append(0.0)
        else:
            nasal_levels.append(amp * target / 100.0)
            oral_levels.append(amp * (1.0 - target / 100.0))
    spec = SynthSpec(
        duration_s=0.25 * len(WORDS),
        sample_rate=48000.0,
        carrier=SineCarrier(440.0),
        nasal_env=segment_envelopes(nasal_levels),
        oral_env=segment_envelopes(oral_levels),
    )
    rec, _ = synthesize(spec)
    tiers = make_alignment_tiers(WORDS)
    return rec, tiers


def test_extract_token_records_and_rejects():
    rec, tiers = build_fixture()
    records, rejects = extract_token_records(
        rec, tiers, WORDLIST, speaker="sp1", system="nosey"
    )
    assert len(records) + len(rejects) == len(WORDS)

    by_word = {r.word: r for r in records}
    assert set(by_word) == {"bin", "bed"}
    assert by_word["bin"].nasalance_pct == pytest.approx(80.0, abs=0.1)
    assert by_word["bed"].nasalance_pct == pytest.approx(30.0, abs=0.1)
    assert by_word["bin"].vowel == "KIT"
    assert by_word["bin"].environment == "nasal_coda"
    assert by_word["bin"].t_mid_s == pytest.approx(0.125, abs=1e-9)
    assert by_word["bin"].speaker == "sp1"
    assert by_word["bin"].system == "nosey"

    # a token with no wordlist entry keeps its TextGrid vowel (stress
    # stripped) and no environment; a mapped one takes the wordlist's
    mids = [iv.midpoint for iv in tiers[0].intervals[1::3]]
    assert rejects == [
        RejectRecord("synth", "sp1", "nosey", "zzz", "AE", "", mids[2], "unmapped word"),
        RejectRecord("synth", "sp1", "nosey", "", "AH", "", mids[3], "empty word interval"),
        RejectRecord("synth", "sp1", "nosey", "mum", "STRUT", "nasal_both", mids[4],
                     "unmeasurable at midpoint"),
    ]


def test_midpoint_outside_track_rejected():
    rec, _ = build_fixture()
    # a vowel so early its midpoint precedes the first frame center
    phones = IntervalTier("phone", 0.0, 1.25, (
        Interval(0.0, 0.01, "IH1"),
        Interval(0.01, 1.25, "sil"),
    ))
    words = IntervalTier("word", 0.0, 1.25, (Interval(0.0, 1.25, "bin"),))
    records, rejects = extract_token_records(
        rec, [phones, words], WORDLIST, speaker="s", system="x"
    )
    assert not records
    assert rejects[0].reason == "midpoint outside track"


def test_bandpass_and_calibration_paths_run():
    from nasalance.calibration import CalibrationProfile
    from nasalance.intensity import BandpassSpec

    rec, tiers = build_fixture()
    records, _ = extract_token_records(
        rec, tiers, WORDLIST, speaker="s", system="x",
        bandpass_spec=BandpassSpec(100.0, 2000.0),
        calibration_profile=CalibrationProfile(0.0),
    )
    assert {r.word for r in records} == {"bin", "bed"}


def edge_case_fixture(sample_rate):
    """A 3-s take and tiers whose vowel midpoints sit where lookups are
    delicate: before the first frame centre, on a frame centre, on a
    nearest-frame tie, at the edge of and inside silence, in unmapped and
    empty words, and after the last frame centre."""
    n = 3 * sample_rate
    rng = np.random.default_rng(sample_rate)
    # a new level every 8 ms, so neighbouring frames differ
    env = np.repeat(rng.uniform(0.02, 0.5, (2, n // 384 + 1)), 384, axis=1)[:, :n]
    x = rng.uniform(-1.0, 1.0, (2, n)) * env
    x[:, int(1.5 * sample_rate) : 2 * sample_rate] = 0.0
    rec = StereoRecording(x[0], x[1], sample_rate, source_id="edges")
    times = intensity_track(rec).times.tolist()
    on_frame = next(k for k in range(30, 90)
                    if (times[k - 1] + times[k + 1]) / 2 == times[k])
    tie = next(k for k in range(100, 160)
               if (m := (times[k] + times[k + 1]) / 2) - times[k] == times[k + 1] - m)
    vowels = [
        (0.0, 0.01),  # midpoint before the first frame centre
        (times[on_frame - 1], times[on_frame + 1]),
        (times[tie], times[tie + 1]),
        (1.3, 1.3123), (1.41, 1.4371),
        (1.5, 1.527),  # nearer a valid frame than the silent one after it
        (1.7, 1.8),  # silent
        (2.3, 2.31), (2.5, 2.51), (2.7, 2.7457),  # unmapped, empty, mapped
        (2.99, 3.0),  # midpoint after the last frame centre
    ]
    phones, t = [], 0.0
    for t0, t1 in vowels:
        if t0 > t:
            phones.append(Interval(t, t0, "sil"))
        phones.append(Interval(t0, t1, "AE1"))
        t = t1
    words = [Interval(0.0, 2.2, "bin"), Interval(2.2, 2.4, "zzz"),
             Interval(2.4, 2.6, ""), Interval(2.6, 3.0, "bed")]
    tiers = [IntervalTier("phone", 0.0, 3.0, phones), IntervalTier("word", 0.0, 3.0, words)]
    mids = [iv.midpoint for iv in phones if iv.label == "AE1"]
    assert mids[0] < times[0] and mids[-1] > times[-1]
    assert mids[1] == times[on_frame]
    assert mids[2] - times[tie] == times[tie + 1] - mids[2]
    return rec, tiers


@pytest.mark.parametrize("sample_rate", [48000, 44100])
@pytest.mark.parametrize("method", ["nearest", "linear"])
@pytest.mark.parametrize("extra", [
    {},
    {"calibration_profile": CalibrationProfile(-2.5)},  # lifts the unframed floor
    {"bandpass_spec": BandpassSpec(100.0, 3000.0)},
])
def test_sparse_framing_matches_the_full_track(monkeypatch, sample_rate, method, extra):
    # analyze frames only the frames around each midpoint; its records and
    # rejects must be bitwise those of value_at over the fully framed track
    rec, tiers = edge_case_fixture(sample_rate)

    def run():
        return extract_token_records(rec, tiers, WORDLIST, speaker="s", system="x",
                                     method=method, **extra)

    sparse = run()
    monkeypatch.setattr(nasalance.pipeline, "intensity_track",
                        lambda rec, cfg, at: intensity_track(rec, cfg))
    full = run()
    for got, want in zip(sparse, full):
        assert [repr(r) for r in got] == [repr(r) for r in want]
    assert len(sparse[0]) >= 5
    assert {r.reason for r in sparse[1]} == {
        "midpoint outside track", "unmeasurable at midpoint", "unmapped word",
        "empty word interval"}


def test_token_records_memory_does_not_grow_with_the_take():
    # at a fixed token count, a take eight times as long allocates nothing
    # more: only the frames around each midpoint are framed and held
    sample_rate = 8000
    tiers = make_alignment_tiers([("bin", "IH1"), ("bed", "EH1")] * 40)  # 20 s
    rng = np.random.default_rng(6)
    peaks = []
    for seconds in (20, 160):
        x = rng.uniform(-0.5, 0.5, (2, seconds * sample_rate))
        x.flags.writeable = False  # held without a copy
        rec = StereoRecording(x[0], x[1], sample_rate, source_id="take")
        extract_token_records(rec, tiers, WORDLIST, speaker="s", system="x")
        tracemalloc.start()
        try:
            records, _ = extract_token_records(rec, tiers, WORDLIST, speaker="s",
                                               system="x")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(records) == 80
    # 20k frames more: one whole-track float64 array would be 140 kB
    assert abs(peaks[1] - peaks[0]) < 32 * 1024, peaks


def test_token_csv_round_trip():
    rec, tiers = build_fixture()
    records, _ = extract_token_records(rec, tiers, WORDLIST,
                                       speaker="sp", system="sys")
    text = tokens_to_csv(records)
    assert text.splitlines()[0] == (
        "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"
    )


def test_read_token_csv(tmp_path):
    rec, tiers = build_fixture()
    records, _ = extract_token_records(rec, tiers, WORDLIST,
                                       speaker="sp", system="sys")
    path = tmp_path / "tokens.csv"
    path.write_text(tokens_to_csv(records))
    loaded = read_token_csv(path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert back.word == orig.word
        assert back.nasalance_pct == pytest.approx(orig.nasalance_pct, abs=1e-6)
        assert back.t_mid_s == pytest.approx(orig.t_mid_s, abs=1e-6)


def test_read_token_csv_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(TokenSchemaError, match="expected header"):
        read_token_csv(path)
    header = "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"
    path.write_text(header + "\na,b,c,d,e,f,0.5\n")
    with pytest.raises(TokenSchemaError, match="expected 8 fields"):
        read_token_csv(path)
    path.write_text(header + "\na,b,c,d,e,f,0.5,150.0\n")
    with pytest.raises(TokenSchemaError, match="outside"):
        read_token_csv(path)
    path.write_text(header + "\na,b,c,d,e,f,zz,50.0\n")
    with pytest.raises(TokenSchemaError):
        read_token_csv(path)


def test_rejects_csv_has_reason_column():
    rec, tiers = build_fixture()
    _, rejects = extract_token_records(rec, tiers, WORDLIST,
                                       speaker="sp", system="sys")
    lines = "".join(rejects_to_csv(rejects)).splitlines()
    assert lines[0].endswith(",reason")
    assert len(lines) == len(rejects) + 1


def test_load_wordlist(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("word,vowel,environment\nbin,KIT,nasal\nBed,DRESS,oral\n")
    wl = load_wordlist(path)
    assert wl["bin"] == WordInfo("KIT", "nasal")
    assert wl["bed"] == WordInfo("DRESS", "oral")  # case-folded

    path.write_text("word,vowel\nbin,KIT\n")
    with pytest.raises(WordlistError, match="expected header"):
        load_wordlist(path)
    path.write_text("word,vowel,environment\nbin,KIT,nasal\nbin,KIT,oral\n")
    with pytest.raises(WordlistError, match="duplicate"):
        load_wordlist(path)
    path.write_text("word,vowel,environment\nbin,,nasal\n")
    with pytest.raises(WordlistError, match="empty field"):
        load_wordlist(path)

def test_wordlist_error_names_physical_line(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text('word,vowel,environment\n"bi\nn",KIT,nasal\nbed,DRESS\n')
    with pytest.raises(WordlistError, match=r"words\.csv:4: expected 3 fields"):
        load_wordlist(path)


@pytest.mark.parametrize("bad_row, message", [
    ("a,b,c,d,e,f,0.5", "expected 8 fields"),
    ("a,b,c,d,e,f,zz,50.0", "could not convert"),
])
def test_token_csv_error_names_physical_line(tmp_path, bad_row, message):
    header = "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"
    path = tmp_path / "tok.csv"
    path.write_text(f'{header}\na,b,c,"two\nlines",e,f,0.5,50.0\n{bad_row}\n')
    with pytest.raises(TokenSchemaError, match=rf"tok\.csv:4: {message}"):
        read_token_csv(path)
