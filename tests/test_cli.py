"""Command-line behavior: exit codes, outputs, determinism of small runs."""

import csv
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nasalance
from conftest import make_alignment_tiers, segment_envelopes
from oracles import read_wav
from nasalance.audio_io import write_wav
from nasalance.cli import main
from nasalance.synth import SineCarrier, SynthSpec, synthesize
from nasalance.textgrid import serialize_textgrid

WORDLIST_TEXT = (
    "word,vowel,environment\n"
    "bin,KIT,nasal\n"
    "bid,KIT,oral\n"
    "men,DRESS,nasal\n"
    "med,DRESS,oral\n"
)


def synth_spec_doc(targets, amp=0.5, seed=0):
    nasal = [amp * t / 100.0 for t in targets]
    oral = [amp * (1 - t / 100.0) for t in targets]
    return {
        "duration_s": 0.25 * len(targets),
        "sample_rate": 48000,
        "carrier": {"type": "sine", "f_hz": 440.0},
        "nasal_env": segment_envelopes(nasal),
        "oral_env": segment_envelopes(oral),
        "bleed": 0.0,
        "noise_rms": 0.0,
        "seed": seed,
    }


def write_session(tmp_path, targets, words, name):
    """Render one recording + TextGrid for a four-word session."""
    spec = SynthSpec(
        duration_s=0.25 * len(targets),
        sample_rate=48000.0,
        carrier=SineCarrier(440.0),
        nasal_env=segment_envelopes([0.5 * t / 100 for t in targets]),
        oral_env=segment_envelopes([0.5 * (1 - t / 100) for t in targets]),
    )
    rec, _ = synthesize(spec)
    wav = tmp_path / f"{name}.wav"
    write_wav(wav, [rec.nasal, rec.oral], 48000, "float32")
    tg = tmp_path / f"{name}.TextGrid"
    tg.write_text(serialize_textgrid(make_alignment_tiers(words)))
    return wav, tg


@pytest.fixture
def session(tmp_path):
    words = [("bin", "IH1"), ("bid", "IH1"), ("men", "EH1"), ("med", "EH1")]
    wav, tg = write_session(tmp_path, [70.0, 40.0, 65.0, 35.0], words, "take1")
    wordlist = tmp_path / "words.csv"
    wordlist.write_text(WORDLIST_TEXT)
    return wav, tg, wordlist


def test_analyze_writes_tokens_and_rejects(session, tmp_path, capsys):
    wav, tg, wordlist = session
    out = tmp_path / "tokens.csv"
    code = main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--speaker", "sp1", "--system", "nosey", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 4 tokens
    assert lines[1].split(",")[3] == "bin"
    assert (tmp_path / "tokens.rejects.csv").exists()
    assert "4 tokens written, 0 rejected" in capsys.readouterr().err


def test_analyze_empty_textgrid_warns(session, tmp_path, capsys):
    wav, _, wordlist = session
    tg = tmp_path / "novowels.TextGrid"
    tg.write_text(serialize_textgrid(make_alignment_tiers([("bin", "S")] * 4)))
    out = tmp_path / "tokens.csv"
    code = main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines() == [
        "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"
    ]
    assert "no vowel tokens" in capsys.readouterr().err


def test_analyze_unmapped_word_rejected(session, tmp_path):
    wav, tg, _ = session
    wordlist = tmp_path / "partial.csv"
    wordlist.write_text("word,vowel,environment\nbin,KIT,nasal\n")
    out = tmp_path / "tokens.csv"
    assert main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--out", str(out)]) == 0
    rejects = (tmp_path / "tokens.rejects.csv").read_text().splitlines()
    assert len(rejects) == 4  # header + bid, men, med
    assert all(line.endswith("unmapped word") for line in rejects[1:])


def test_analyze_bad_wav_exits_2(session, tmp_path):
    _, tg, wordlist = session
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not audio")
    assert main(["analyze", str(bad), str(tg), "--wordlist", str(wordlist),
                 "--out", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_non_finite_wav_exits_2(session, tmp_path, capsys, bad):
    _, tg, wordlist = session
    wav = tmp_path / "nonfinite.wav"
    write_wav(wav, [np.zeros(4800), np.zeros(4800)], 48000, "float32")
    data = bytearray(wav.read_bytes())  # write_wav refuses a non-finite sample
    data[44 + 100 * 8 : 44 + 100 * 8 + 4] = struct.pack("<f", bad)  # nasal sample 100
    wav.write_bytes(bytes(data))
    out = tmp_path / "t.csv"
    assert main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--out", str(out)]) == 2
    assert "non-finite float samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "analyze"])
def test_wav_truncated_after_load_exits_2(session, tmp_path, capsys, monkeypatch,
                                           command):
    # the file is cut between loading its header and framing its samples
    wav, tg, wordlist = session
    load = nasalance.cli.load_stereo

    def load_then_truncate(path, channel_map=None):
        rec = load(path, channel_map)
        with open(path, "r+b") as f:
            f.truncate(Path(path).stat().st_size // 2)
        return rec

    monkeypatch.setattr(nasalance.cli, "load_stereo", load_then_truncate)
    out = tmp_path / "out.csv"
    argv = {"track": ["track", str(wav)],
            "analyze": ["analyze", str(wav), str(tg), "--wordlist", str(wordlist)]}
    assert main(argv[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: take1.wav: data chunk ends" in err and "(byte offset " in err
    assert not out.exists() and not (tmp_path / "out.rejects.csv").exists()


def test_track_zero_bit_wav_exits_2(tmp_path, capsys):
    # fmt chunk declaring 0 bits per sample and a block align of 0
    wav = tmp_path / "zero.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", 40) + b"WAVEfmt "
                    + struct.pack("<IHHIIHH", 16, 1, 2, 48000, 0, 0, 0)
                    + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
    out = tmp_path / "z.csv"
    assert main(["track", str(wav), "--out", str(out)]) == 2
    assert "unsupported codec (format 1, 0-bit)" in capsys.readouterr().err
    assert not out.exists()


def test_track_extensible_wav(session, tmp_path, capsys):
    wav, _, _ = session
    plain = wav.read_bytes()  # float32 stereo, 44-byte header
    ext = struct.pack("<HHIIHHHHI", 0xFFFE, 2, 48000, 48000 * 8, 8, 32, 22, 32, 3)
    ext += bytes.fromhex("03000000000010008000" "00aa00389b71")  # IEEE float GUID
    body = b"WAVEfmt " + struct.pack("<I", len(ext)) + ext + plain[36:]
    extensible = tmp_path / "ext.wav"
    extensible.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert main(["track", str(wav), "--out", str(tmp_path / "plain.csv")]) == 0
    assert main(["track", str(extensible), "--out", str(tmp_path / "ext.csv")]) == 0
    assert (tmp_path / "ext.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    data = bytearray(extensible.read_bytes())
    data[38:40] = struct.pack("<H", 24)  # valid bits below the 32-bit container
    extensible.write_bytes(bytes(data))
    out = tmp_path / "bad.csv"
    assert main(["track", str(extensible), "--out", str(out)]) == 2
    assert "24 valid bits in 32-bit samples are unsupported (byte offset 38)" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_analyze_non_finite_textgrid_exits_2(session, tmp_path, capsys):
    wav, tg, wordlist = session
    text = tg.read_text()
    assert text.count("intervals: size = 12") == 1  # the phone tier
    bad = tmp_path / "huge.TextGrid"
    bad.write_text(text.replace("intervals: size = 12", "intervals: size = 1e999"))
    out = tmp_path / "t.csv"
    assert main(["analyze", str(wav), str(bad), "--wordlist", str(wordlist),
                 "--out", str(out)]) == 2
    assert "non-finite value '1e999'" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "t.rejects.csv").exists()


def test_track_hop_under_one_sample_exits_2(tmp_path, capsys):
    tone = 0.4 * np.sin(2 * np.pi * 330 * np.arange(4800) / 48000.0)
    wav = tmp_path / "tone.wav"
    write_wav(wav, [tone, tone], 48000, "float32")
    out = tmp_path / "track.csv"
    assert main(["track", str(wav), "--out", str(out), "--step-ms", "0.01"]) == 2
    assert "step_ms of 0.01 ms is under 1 sample" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_byte_order_mark_wordlist_reads_as_plain(session, tmp_path):
    # Excel's "CSV UTF-8" export starts with a UTF-8 byte-order mark
    wav, tg, wordlist = session
    bom_words = tmp_path / "words_bom.csv"
    bom_words.write_bytes(b"\xef\xbb\xbf" + wordlist.read_bytes())
    for words, name in ((wordlist, "plain"), (bom_words, "bom")):
        assert main(["analyze", str(wav), str(tg), "--wordlist", str(words),
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    for suffix in (".csv", ".rejects.csv"):
        assert ((tmp_path / f"bom{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes())
    assert len((tmp_path / "bom.csv").read_text().splitlines()) == 5


def test_cli_import_loads_no_scipy():
    # SciPy is imported by the calls that need it (band-pass, stats), not by
    # importing the command line; counted in a fresh interpreter
    src = Path(nasalance.__file__).resolve().parents[1]
    code = ("import sys, nasalance.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


_WITHOUT_SCIPY = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from nasalance.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def run_without_scipy(argvs):
    """Run CLI calls in a fresh interpreter where importing scipy fails."""
    src = Path(nasalance.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_study_runs_without_scipy(session, tmp_path):
    wav, tg, wordlist = session
    words = [("bin", "IH1"), ("bid", "IH1"), ("men", "EH1"), ("med", "EH1")]
    wav2, tg2 = write_session(tmp_path, [78.0, 48.0, 73.0, 43.0], words, "take2")
    profile = tmp_path / "cal.json"
    parts = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    analyze = [
        ["analyze", str(w), str(g), "--wordlist", str(wordlist), "--system", system,
         "--calibration", str(profile), "--bandpass", "60:4000", "--out", str(out)]
        for w, g, system, out in ((wav, tg, "icspeech", parts[0]),
                                  (wav2, tg2, "nosey", parts[1]))
    ]
    codes, loaded = run_without_scipy([["calibrate", str(wav), "--out", str(profile)],
                                       *analyze])
    assert codes == [0, 0, 0] and loaded == []
    merged = tmp_path / "all.csv"
    lines = [p.read_text().splitlines() for p in parts]
    merged.write_text("\n".join(lines[0] + lines[1][1:]) + "\n")
    results = tmp_path / "results.csv"
    codes, loaded = run_without_scipy([["stats", str(merged), "--out", str(results)]])
    assert codes == [0] and loaded == []
    assert len(results.read_text().splitlines()) == 4


def test_track_command(session, tmp_path):
    wav, _, _ = session
    out = tmp_path / "track.csv"
    assert main(["track", str(wav), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,nasalance_pct,valid"
    assert len(lines) > 50
    out2 = tmp_path / "intensity.csv"
    assert main(["track", str(wav), "--intensity", "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[0] == "t_s,nasal_db,oral_db"


def test_calibrate_command(tmp_path, capsys):
    t = np.arange(48000) / 48000.0
    tone = 0.4 * np.sin(2 * np.pi * 330 * t)
    write_wav(tmp_path / "equal.wav", [tone, tone], 48000, "float32")
    write_wav(tmp_path / "scaled.wav", [tone, 0.5 * tone], 48000, "float32")
    write_wav(tmp_path / "silent.wav", [np.zeros(48000), np.zeros(48000)],
              48000, "float32")

    out = tmp_path / "cal.json"
    assert main(["calibrate", str(tmp_path / "equal.wav"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["gain_offset_db"] == pytest.approx(0.0, abs=1e-9)

    assert main(["calibrate", str(tmp_path / "scaled.wav"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["gain_offset_db"] == pytest.approx(
        6.0206, abs=1e-3
    )

    assert main(["calibrate", str(tmp_path / "silent.wav"), "--out", str(out)]) == 2


def test_calibration_flag_in_analyze(session, tmp_path):
    wav, tg, wordlist = session
    profile = tmp_path / "cal.json"
    profile.write_text(json.dumps({
        "gain_offset_db": 0.0, "created_from": "x", "stimulus_window": [0, 1],
    }))
    out = tmp_path / "tokens.csv"
    assert main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--calibration", str(profile), "--out", str(out)]) == 0


def test_calibration_of_loud_take_exits_0(session, tmp_path):
    # a -7 dB profile lifts a loud pcm16 nasal channel past full scale in
    # track and analyze alike; both write their outputs
    _, tg, wordlist = session
    tone = 0.99 * np.sin(2 * np.pi * 330 * np.arange(48000) / 48000.0)
    wav = tmp_path / "loud.wav"
    write_wav(wav, [tone, tone], 48000, "pcm16")
    profile = tmp_path / "cal.json"
    profile.write_text(json.dumps({"gain_offset_db": -7.0}))
    out = tmp_path / "out.csv"
    assert main(["track", str(wav), "--calibration", str(profile), "--out", str(out)]) == 0
    assert main(["track", str(wav), "--calibration", str(profile), "--intensity",
                 "--out", str(out)]) == 0
    nasal_db = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert max(nasal_db) > 3.02
    assert main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--calibration", str(profile), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5  # header + 4 tokens


def test_calibrate_into_a_directory_exits_2(tmp_path, capsys):
    tone = 0.4 * np.sin(2 * np.pi * 330 * np.arange(48000) / 48000.0)
    wav = tmp_path / "tone.wav"
    write_wav(wav, [tone, tone], 48000, "float32")
    taken = tmp_path / "cal.json"
    taken.mkdir()
    assert main(["calibrate", str(wav), "--out", str(taken)]) == 2
    assert "cal.json" in capsys.readouterr().err
    assert taken.is_dir() and not any(taken.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json", "tone.wav"]


@pytest.mark.parametrize("command, flags, message", [
    ("track", ["--frame-ms", "inf"], "must be finite"),
    ("track", ["--silence-floor-db", "nan"], "must not be NaN"),
    ("calibrate", ["--stimulus-window", "0:inf"], "stimulus window [0.0, inf]"),
    ("calibrate", ["--stimulus-window", "nan:1"], "stimulus window [nan, 1.0]"),
], ids=["frame-ms-inf", "silence-floor-db-nan", "stimulus-window-inf",
        "stimulus-window-nan"])
def test_non_finite_numeric_flags_exit_2(tmp_path, capsys, command, flags, message):
    tone = 0.4 * np.sin(2 * np.pi * 330 * np.arange(48000) / 48000.0)
    wav = tmp_path / "tone.wav"
    write_wav(wav, [tone, tone], 48000, "float32")
    out = tmp_path / "out"
    assert main([command, str(wav), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_command(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth_spec_doc([25.0])))
    assert main(["synth", str(spec), "--out", str(tmp_path / "fix")]) == 0
    assert (tmp_path / "fix.wav").exists()
    truth = (tmp_path / "fix.truth.csv").read_text().splitlines()
    assert truth[0] == "t_s,expected_nasalance_pct"

    spec.write_text("{broken")
    assert main(["synth", str(spec), "--out", str(tmp_path / "fix2")]) == 2


def test_synth_writes_both_outputs_or_neither(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth_spec_doc([25.0])))
    work = tmp_path / "w"
    work.mkdir()
    (work / "fix.truth.csv").mkdir()  # the truth output cannot be written
    assert main(["synth", str(spec), "--out", str(work / "fix")]) == 2
    assert "fix.truth.csv" in capsys.readouterr().err
    assert sorted(p.name for p in work.iterdir()) == ["fix.truth.csv"]
    (work / "fix.wav").write_bytes(b"earlier run")
    assert main(["synth", str(spec), "--out", str(work / "fix")]) == 2
    assert (work / "fix.wav").read_bytes() == b"earlier run" and _leftovers(work) == []


@pytest.mark.parametrize("key, value", [
    ("duration_s", "Infinity"),
    ("sample_rate", "NaN"),
    ("noise_rms", "Infinity"),
    ("nasal_env", "[[0.0, 0.1], [NaN, 0.2]]"),
    ("oral_env", "[[0.0, NaN]]"),
], ids=["duration_inf", "rate_nan", "noise_inf", "nan_time", "nan_amplitude"])
def test_synth_non_finite_spec_exits_2(tmp_path, capsys, key, value):
    doc = json.dumps({**synth_spec_doc([25.0]), key: "@"}).replace('"@"', value)
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    assert main(["synth", str(spec), "--out", str(tmp_path / "fix")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_synth_fractional_rate_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**synth_spec_doc([25.0]), "sample_rate": 8000.7}))
    assert main(["synth", str(spec), "--out", str(tmp_path / "fix")]) == 2
    assert "sample_rate must be a whole number of Hz" in capsys.readouterr().err
    assert not (tmp_path / "fix.wav").exists()
    assert not (tmp_path / "fix.truth.csv").exists()


def test_stats_command(session, tmp_path, capsys):
    wav, tg, wordlist = session
    words2 = [("bin", "IH1"), ("bid", "IH1"), ("men", "EH1"), ("med", "EH1")]
    wav2, tg2 = write_session(tmp_path, [78.0, 48.0, 73.0, 43.0], words2, "take2")

    tok1, tok2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
          "--system", "icspeech", "--out", str(tok1)])
    main(["analyze", str(wav2), str(tg2), "--wordlist", str(wordlist),
          "--system", "nosey", "--out", str(tok2)])
    merged = tmp_path / "all.csv"
    lines1 = tok1.read_text().splitlines()
    lines2 = tok2.read_text().splitlines()
    merged.write_text("\n".join(lines1 + lines2[1:]) + "\n")

    results = tmp_path / "results.csv"
    emm_out = tmp_path / "emm.csv"
    code = main(["stats", str(merged), "--out", str(results),
                 "--emm-out", str(emm_out)])
    assert code == 0
    out_lines = results.read_text().splitlines()
    assert out_lines[0] == "contrast,estimate,se,t,df,p,p_adj"
    # 1 env pair per system + 1 difference-of-differences row
    assert len(out_lines) == 4
    assert emm_out.read_text().splitlines()[0] == "system,environment,emm,se"
    stdout = capsys.readouterr().out
    assert "coefficient,estimate,se" in stdout


TOKEN_HEADER = "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"


def write_token_rows(path, systems, environments, reps=2):
    """Token CSV with every system x environment cell filled reps times."""
    rows = [
        f"a,sp,{system},w,v1,{env},0.5,{40 + 3 * i + r}"
        for system in systems
        for i, env in enumerate(environments)
        for r in range(reps)
    ]
    path.write_text(TOKEN_HEADER + "\n" + "\n".join(rows) + "\n")


def test_stats_stdout_table_quotes_comma_labels(tmp_path, capsys):
    tokens = tmp_path / "tokens.csv"
    write_token_rows(tokens, ['"a,b"', "c"], ["e1", "e2"])
    assert main(["stats", str(tokens), "--out", str(tmp_path / "r.csv")]) == 0
    stdout = capsys.readouterr().out
    table = stdout.split("\n\n")[0].split("\n", 1)[1]  # past the '# n=' line
    rows = list(csv.reader(io.StringIO(table)))
    assert rows[0] == ["coefficient", "estimate", "se"]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:3]] == ["intercept", "system.a,b"]


def test_stats_byte_order_mark_token_csv_fits_same_model(tmp_path, capsys):
    tokens = tmp_path / "tokens.csv"
    write_token_rows(tokens, ["s1", "s2"], ["e1", "e2"])
    bom_tokens = tmp_path / "tokens_bom.csv"
    bom_tokens.write_bytes(b"\xef\xbb\xbf" + tokens.read_bytes())
    printed = []
    for path, name in ((tokens, "plain"), (bom_tokens, "bom")):
        assert main(["stats", str(path), "--out", str(tmp_path / f"{name}.csv"),
                     "--emm-out", str(tmp_path / f"{name}.emm.csv")]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    for suffix in (".csv", ".emm.csv"):
        assert ((tmp_path / f"bom{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes())


def test_stats_family_size_zero_exits_2(tmp_path, capsys):
    tokens = tmp_path / "tokens.csv"
    write_token_rows(tokens, ["s1", "s2", "s3"], ["e1", "e2"])
    out = tmp_path / "r.csv"
    assert main(["stats", str(tokens), "--out", str(out), "--family-size", "0"]) == 2
    assert "family size must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("emm_out", ["r.csv", "sub/../r.csv"], ids=["same", "via-parent"])
def test_stats_two_outputs_to_one_file_exit_2(tmp_path, capsys, emm_out):
    tokens = tmp_path / "tokens.csv"
    write_token_rows(tokens, ["s1", "s2"], ["e1", "e2"])
    (tmp_path / "sub").mkdir()
    assert main(["stats", str(tokens), "--out", str(tmp_path / "r.csv"),
                 "--emm-out", str(tmp_path / emm_out)]) == 2
    err = capsys.readouterr().err
    assert "r.csv" in err and "same file" in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "tokens.csv"]


def test_output_in_a_missing_directory_exits_2(tmp_path, capsys):
    tokens = tmp_path / "tokens.csv"
    write_token_rows(tokens, ["s1", "s2"], ["e1", "e2"])
    assert main(["stats", str(tokens), "--out", str(tmp_path / "nodir" / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "No such file or directory" in err
    assert f"{tmp_path / 'nodir' / 'r.csv'}'" in err and ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["tokens.csv"]


def test_stats_single_environment_exits_2(tmp_path):
    header = "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"
    rows = [
        f"a,sp,{sys_},w,v1,only_env,0.5,{40 + i}"
        for i, sys_ in enumerate(["s1", "s1", "s2", "s2"])
    ]
    path = tmp_path / "tokens.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert main(["stats", str(path), "--out", str(tmp_path / "r.csv")]) == 2


def test_stats_aliased_design_exits_3(tmp_path, capsys):
    # vowel perfectly confounded with environment
    header = "source_id,speaker,system,word,vowel,environment,t_mid_s,nasalance_pct"
    rows = []
    for sys_ in ("s1", "s2"):
        for env, vow in (("e1", "v1"), ("e2", "v2")):
            for r in range(2):
                rows.append(f"a,sp,{sys_},w,{vow},{env},0.5,{40 + r}")
    path = tmp_path / "tokens.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert main(["stats", str(path), "--out", str(tmp_path / "r.csv")]) == 3
    assert "rank deficient" in capsys.readouterr().err


def test_stats_bad_schema_exits_2(tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("nope\n")
    assert main(["stats", str(path), "--out", str(tmp_path / "r.csv")]) == 2


def test_missing_input_files_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["stats", str(missing), "--out", str(tmp_path / "r.csv")]) == 2
    assert main(["analyze", str(tmp_path / "no.wav"), str(tmp_path / "no.TextGrid"),
                 "--wordlist", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["track", "x.wav", "--out", "y.csv", "--bandpass", "oops"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_channel_map_flag(session, tmp_path):
    wav, tg, wordlist = session
    out_default = tmp_path / "d.csv"
    out_swapped = tmp_path / "s.csv"
    main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
          "--out", str(out_default)])
    main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
          "--channel-map", "nasal=right", "--out", str(out_swapped)])
    vals_d = [float(l.split(",")[-1]) for l in out_default.read_text().splitlines()[1:]]
    vals_s = [float(l.split(",")[-1]) for l in out_swapped.read_text().splitlines()[1:]]
    for d, s in zip(vals_d, vals_s):
        assert d + s == pytest.approx(100.0, abs=1e-9)


def test_pair_input_via_oral_flag(session, tmp_path):
    wav, tg, wordlist = session
    channels, sr = read_wav(wav, 2)
    write_wav(tmp_path / "nasal.wav", [channels[0]], sr, "float32")
    write_wav(tmp_path / "oral.wav", [channels[1]], sr, "float32")
    out_pair = tmp_path / "pair.csv"
    out_stereo = tmp_path / "stereo.csv"
    main(["analyze", str(tmp_path / "nasal.wav"), str(tg),
          "--oral", str(tmp_path / "oral.wav"),
          "--wordlist", str(wordlist), "--out", str(out_pair)])
    main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
          "--out", str(out_stereo)])
    pair_vals = [l.split(",")[-1] for l in out_pair.read_text().splitlines()[1:]]
    stereo_vals = [l.split(",")[-1] for l in out_stereo.read_text().splitlines()[1:]]
    assert pair_vals == stereo_vals

def test_calibrate_and_track_take_bandpass(session, tmp_path, capsys):
    wav, _, _ = session
    profile = tmp_path / "cal.json"
    assert main(["calibrate", str(wav), "--bandpass", "60:4000", "--out", str(profile)]) == 0
    assert json.loads(profile.read_text())["bandpass"] == [60.0, 4000.0, 4]
    assert main(["calibrate", str(wav), "--out", str(profile)]) == 0
    assert "bandpass" not in json.loads(profile.read_text())

    from nasalance.audio_io import load_stereo
    from nasalance.intensity import BandpassSpec, bandpass, intensity_to_csv, intensity_track

    out = tmp_path / "track.csv"
    assert main(["track", str(wav), "--intensity", "--bandpass", "60:4000",
                 "--out", str(out)]) == 0
    want = intensity_track(bandpass(load_stereo(wav), BandpassSpec(60.0, 4000.0)))
    assert out.read_text() == "".join(intensity_to_csv(want))


@pytest.mark.parametrize("calibrated, analyzed, warned", [
    (None, "60:4000", True),
    ("60:4000", "60:4000", False),
    ("60:4000", None, True),
    ("60:4000", "100:4000", True),
    (None, None, False),
])
def test_calibration_band_mismatch_warns(session, tmp_path, capsys, calibrated, analyzed,
                                         warned):
    wav, tg, wordlist = session
    profile = tmp_path / "cal.json"
    band = ["--bandpass", calibrated] if calibrated else []
    assert main(["calibrate", str(wav), *band, "--out", str(profile)]) == 0
    capsys.readouterr()
    band = ["--bandpass", analyzed] if analyzed else []
    out = tmp_path / "tokens.csv"
    assert main(["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
                 "--calibration", str(profile), *band, "--out", str(out)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == int(warned), warnings
    if warned:
        assert "cal.json" in warnings[0]


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_analyze_failing_rejects_output_writes_nothing(session, tmp_path, capsys):
    wav, tg, wordlist = session
    work = tmp_path / "w"
    work.mkdir()
    (work / "tok.rejects.csv").mkdir()  # the rejects output cannot be written
    argv = ["analyze", str(wav), str(tg), "--wordlist", str(wordlist),
            "--out", str(work / "tok.csv")]
    assert main(argv) == 2
    assert "tok.rejects.csv" in capsys.readouterr().err
    assert not (work / "tok.csv").exists() and _leftovers(work) == []
    (work / "tok.csv").write_text("earlier run\n")
    assert main(argv) == 2
    assert (work / "tok.csv").read_text() == "earlier run\n" and _leftovers(work) == []


def test_stats_failing_emm_output_writes_nothing(tmp_path, capsys):
    tokens = tmp_path / "tokens.csv"
    write_token_rows(tokens, ["a", "b"], ["e1", "e2"])
    results = tmp_path / "results.csv"
    (tmp_path / "emm.csv").mkdir()
    for emm in (tmp_path / "emm.csv", tmp_path / "missing" / "emm.csv"):
        assert main(["stats", str(tokens), "--out", str(results),
                     "--emm-out", str(emm)]) == 2
        assert not results.exists() and _leftovers(tmp_path) == []
    assert main(["stats", str(tokens), "--out", str(results)]) == 0
    assert results.exists() and _leftovers(tmp_path) == []


def test_bench_span_targets_resolve(monkeypatch):
    # bench/spans.py wraps each (module, attribute) at the name its caller
    # looks up; a renamed or moved name must fail here, not only in the bench
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.CLI_TARGETS
    for module, attr, _ in spans.CLI_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
