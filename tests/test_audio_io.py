"""WAV loading against hand-assembled byte fixtures."""

import math
import struct
import tracemalloc
import uuid
import warnings

import numpy as np
import pytest

from nasalance import audio_io
from nasalance.audio_io import (
    ChannelMap,
    StereoRecording,
    _wav_data,
    load_pair,
    load_stereo,
    write_wav,
)
from nasalance.errors import AudioFormatError
from oracles import held_wav_bytes, read_wav


def wav_bytes(fmt_code, n_channels, bits, payload, sr=48000):
    block_align = n_channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVEfmt "
    header += struct.pack(
        "<IHHIIHH", 16, fmt_code, n_channels, sr, sr * block_align, block_align, bits
    )
    return header + b"data" + struct.pack("<I", len(payload)) + payload


def extensible_bytes(n_channels, bits, payload, sub_format, valid_bits=None, cb_size=22,
                     sr=48000):
    """A WAVE_FORMAT_EXTENSIBLE file: 16-byte fmt body, cbSize, then the
    22-byte extension (valid bits, channel mask, sub-format GUID)."""
    block_align = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, n_channels, sr, sr * block_align, block_align,
                      bits)
    fmt += struct.pack("<HHI", cb_size, bits if valid_bits is None else valid_bits,
                       2**n_channels - 1)
    fmt += uuid.UUID(sub_format).bytes_le if cb_size >= 22 else b""
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def stored(rec):
    """The recording's (nasal, oral) stored samples, whole."""
    with rec.stored() as read:
        return read(0, rec.n_samples)


PCM_GUID = "00000001-0000-0010-8000-00aa00389b71"
FLOAT_GUID = "00000003-0000-0010-8000-00aa00389b71"


def test_load_stereo_16bit_normalization(tmp_path):
    frames = [(16384, -8192), (0, 32767), (-32768, 1)]
    payload = b"".join(struct.pack("<hh", l, r) for l, r in frames)
    path = tmp_path / "s.wav"
    path.write_bytes(wav_bytes(1, 2, 16, payload))
    rec = load_stereo(path)
    assert rec.sample_rate == 48000
    assert rec.nasal.flags.c_contiguous and rec.oral.flags.c_contiguous
    np.testing.assert_array_equal(rec.nasal, [16384 / 32768, 0.0, -1.0])
    np.testing.assert_array_equal(rec.oral, [-8192 / 32768, 32767 / 32768, 1 / 32768])
    assert rec.source_id == "s.wav"


def test_load_stereo_swapped_map(tmp_path):
    payload = struct.pack("<hh", 100, 200)
    path = tmp_path / "s.wav"
    path.write_bytes(wav_bytes(1, 2, 16, payload))
    direct = load_stereo(path, ChannelMap(nasal_source="left"))
    swapped = load_stereo(path, ChannelMap(nasal_source="right"))
    np.testing.assert_array_equal(direct.nasal, swapped.oral)
    np.testing.assert_array_equal(direct.oral, swapped.nasal)


def test_load_stereo_float32_identity(tmp_path):
    samples = np.array([1.0, -1.0, 0.25, 0.0], dtype="<f4")  # L R L R
    path = tmp_path / "f.wav"
    path.write_bytes(wav_bytes(3, 2, 32, samples.tobytes()))
    rec = load_stereo(path)
    np.testing.assert_array_equal(rec.nasal, [1.0, 0.25])
    np.testing.assert_array_equal(rec.oral, [-1.0, 0.0])


def test_load_stereo_24bit(tmp_path):
    def pack24(v):
        return struct.pack("<i", v)[:3]

    payload = pack24(2**22) + pack24(-(2**23)) + pack24(0) + pack24(2**23 - 1)
    path = tmp_path / "x.wav"
    path.write_bytes(wav_bytes(1, 2, 24, payload))
    rec = load_stereo(path)
    np.testing.assert_array_equal(rec.nasal, [0.5, 0.0])
    np.testing.assert_array_equal(rec.oral, [-1.0, (2**23 - 1) / 2**23])


def test_load_stereo_32bit_int(tmp_path):
    payload = struct.pack("<ii", 2**30, -(2**31))
    path = tmp_path / "x.wav"
    path.write_bytes(wav_bytes(1, 2, 32, payload))
    rec = load_stereo(path)
    assert rec.nasal[0] == 0.5
    assert rec.oral[0] == -1.0


def test_mono_rejected_by_load_stereo(tmp_path):
    path = tmp_path / "m.wav"
    path.write_bytes(wav_bytes(1, 1, 16, struct.pack("<h", 1)))
    with pytest.raises(AudioFormatError, match="channel count") as err:
        load_stereo(path)
    assert err.value.byte_offset == 22  # channel field inside the fmt chunk


def test_channel_count_checked_before_data_chunk(tmp_path):
    path = tmp_path / "m.wav"
    path.write_bytes(wav_bytes(1, 1, 16, struct.pack("<h", 1) * 10)[:-7])  # truncated
    with pytest.raises(AudioFormatError, match=r"channel count != 2 \(got 1\)") as err:
        load_stereo(path)
    assert err.value.byte_offset == 22
    with pytest.raises(AudioFormatError, match="truncated data"):
        read_wav(path, 1)


def test_unsupported_bit_depth_reports_offset(tmp_path):
    path = tmp_path / "b.wav"
    path.write_bytes(wav_bytes(1, 2, 8, b"\x00\x00"))
    with pytest.raises(AudioFormatError, match="unsupported codec") as err:
        load_stereo(path)
    assert err.value.byte_offset == 20  # fmt chunk body


def test_zero_bit_fmt_is_unsupported_codec(tmp_path):
    # 0 bits makes block align 0; the codec check must come before the
    # frame-size check divides by it
    path = tmp_path / "z.wav"
    path.write_bytes(wav_bytes(1, 1, 0, b"\x00" * 4))
    assert path.stat().st_size == 48
    with pytest.raises(AudioFormatError, match=r"unsupported codec \(format 1, 0-bit\)") as err:
        read_wav(path, 1)
    assert err.value.byte_offset == 20  # fmt chunk body


def test_truncated_data_chunk(tmp_path):
    good = wav_bytes(1, 2, 16, struct.pack("<hh", 1, 2) * 10)
    path = tmp_path / "t.wav"
    path.write_bytes(good[:-7])
    with pytest.raises(AudioFormatError, match="truncated data") as err:
        load_stereo(path)
    assert err.value.byte_offset == len(good) - 7


def test_not_riff(tmp_path):
    path = tmp_path / "n.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(AudioFormatError, match="RIFF") as err:
        load_stereo(path)
    assert err.value.byte_offset == 0


def test_float_out_of_range_rejected(tmp_path):
    samples = np.array([1.5, 0.0], dtype="<f4")
    path = tmp_path / "f.wav"
    path.write_bytes(wav_bytes(3, 2, 32, samples.tobytes()))
    with pytest.raises(AudioFormatError, match="full scale"):
        load_stereo(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_non_finite_rejected_at_data_body(tmp_path, bad):
    samples = np.array([0.5, 0.0, 0.25, bad], dtype="<f4")  # bad sample in the right channel
    path = tmp_path / "f.wav"
    path.write_bytes(wav_bytes(3, 2, 32, samples.tobytes()))
    with pytest.raises(AudioFormatError, match="non-finite float samples") as err:
        load_stereo(path)
    assert err.value.byte_offset == 44  # data chunk body


def test_load_pair_equal_lengths(tmp_path):
    for name, value in (("n.wav", 0.5), ("o.wav", -0.5)):
        write_wav(tmp_path / name, [np.full(48000, value)], 48000, "float32")
    rec = load_pair(tmp_path / "n.wav", tmp_path / "o.wav")
    assert rec.n_samples == 48000
    assert rec.nasal[0] == 0.5 and rec.oral[0] == -0.5
    assert rec.source_id == "n.wav+o.wav"


def test_load_pair_pads_shorter_channel(tmp_path):
    write_wav(tmp_path / "n.wav", [np.full(48000, 0.5)], 48000, "float32")
    write_wav(tmp_path / "o.wav", [np.full(47990, 0.25)], 48000, "float32")
    rec = load_pair(tmp_path / "n.wav", tmp_path / "o.wav")
    assert rec.n_samples == 48000
    np.testing.assert_array_equal(rec.oral[-10:], np.zeros(10))
    assert rec.oral[-11] == 0.25
    assert "pad_oral=10" in rec.source_id


def test_two_roles_of_one_file_read_it_once(tmp_path, monkeypatch):
    write_wav(tmp_path / "s.wav", [np.full(100, 0.5), np.full(100, -0.5)], 48000, "pcm16")
    rec = load_stereo(tmp_path / "s.wav")
    opened = []
    reader = audio_io._WavData.reader
    monkeypatch.setattr(audio_io._WavData, "reader",
                        lambda self: opened.append(self.path.name) or reader(self))
    nasal, oral = stored(rec)
    assert opened == ["s.wav"]
    np.testing.assert_array_equal(nasal, np.full(100, 2**14))
    np.testing.assert_array_equal(oral, np.full(100, -(2**14)))


def test_load_pair_rate_mismatch(tmp_path):
    write_wav(tmp_path / "n.wav", [np.zeros(100)], 48000, "pcm16")
    write_wav(tmp_path / "o.wav", [np.zeros(100)], 44100, "pcm16")
    with pytest.raises(AudioFormatError, match="sample-rate mismatch"):
        load_pair(tmp_path / "n.wav", tmp_path / "o.wav")


def test_load_pair_rejects_stereo_member(tmp_path):
    write_wav(tmp_path / "n.wav", [np.zeros(10), np.zeros(10)], 48000, "pcm16")
    write_wav(tmp_path / "o.wav", [np.zeros(10)], 48000, "pcm16")
    with pytest.raises(AudioFormatError, match="channel count"):
        load_pair(tmp_path / "n.wav", tmp_path / "o.wav")


def test_pcm16_normalization_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ints = rng.integers(-(2**15), 2**15, size=400)
    floats = ints / 2**15
    write_wav(tmp_path / "r.wav", [floats, floats[::-1]], 48000, "pcm16")
    channels, _ = read_wav(tmp_path / "r.wav", 2)
    np.testing.assert_array_equal(channels[0] * 2**15, ints)
    np.testing.assert_array_equal(channels[1] * 2**15, ints[::-1])


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
def test_write_read_all_formats(tmp_path, fmt):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.9, 0.9, 200)
    tol = {"pcm16": 2**-15, "pcm24": 2**-23, "pcm32": 2**-31, "float32": 2**-23}[fmt]
    for sent in ([x], [x, -x], [x, -x, x[::-1]]):
        write_wav(tmp_path / "w.wav", sent, 44100, fmt)
        channels, sr = read_wav(tmp_path / "w.wav", len(sent))
        assert sr == 44100
        assert len(channels) == len(sent)
        for got, want in zip(channels, sent):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            np.testing.assert_allclose(got, want, atol=tol)


def test_stereo_recording_validation():
    with pytest.raises(ValueError, match="lengths differ"):
        StereoRecording(nasal=np.zeros(3), oral=np.zeros(4), sample_rate=48000)
    with pytest.raises(ValueError, match="empty"):
        StereoRecording(nasal=np.zeros(0), oral=np.zeros(0), sample_rate=48000)
    with pytest.raises(ValueError, match="full scale"):
        StereoRecording(nasal=np.array([1.5]), oral=np.array([0.0]), sample_rate=48000)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nasal channel contains non-finite"):
            StereoRecording(nasal=np.array([0.5, bad]), oral=np.zeros(2), sample_rate=48000)
        with pytest.raises(ValueError, match="oral channel contains non-finite"):
            StereoRecording(nasal=np.zeros(2), oral=np.array([bad, 0.5]), sample_rate=48000)
    with pytest.raises(ValueError, match=r"oral channel exceeds full scale \(peak 1.5\)"):
        StereoRecording(nasal=np.zeros(2), oral=np.array([0.2, -1.5]), sample_rate=48000)
    for bad_rate in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
            StereoRecording(nasal=np.zeros(2), oral=np.zeros(2), sample_rate=bad_rate)


def test_channel_map_validation():
    with pytest.raises(ValueError, match="unknown"):
        ChannelMap(nasal_source="centre")


def test_recording_is_immutable(tmp_path):
    rec = StereoRecording(nasal=np.zeros(4), oral=np.zeros(4), sample_rate=48000)
    with pytest.raises(ValueError):
        rec.nasal[0] = 1.0


def test_recording_leaves_caller_array_writeable():
    x = np.zeros(4)
    rec = StereoRecording(x, x.copy(), 1.0)
    x[0] = 1.0  # the caller's array is not frozen
    assert rec.nasal[0] == 0.0  # and the recording does not see the write
    assert not rec.nasal.flags.writeable


def test_read_only_input_kept_without_copy():
    x = np.zeros(4)
    x.flags.writeable = False
    rec = StereoRecording(x, x, 1.0)
    assert rec.nasal is x and rec.oral is x


# ±1.0, values just inside full scale, half-LSB ties at each integer depth
# (rint rounds half to even) and -0.0, as a short stereo signal
_EXACT_LEFT = [1.0, -1.0, 1 - 2**-53, 1 - 2**-16, 0.5 * 2**-15, 1.5 * 2**-15,
               2.5 * 2**-15, -0.5 * 2**-15, -1.5 * 2**-15, -0.0]
_EXACT_RIGHT = [-0.0, 0.25, -(1 - 2**-53), 1 - 2**-24, 0.5 * 2**-23, 1.5 * 2**-23,
                -2.5 * 2**-23, 0.5 * 2**-31, 1.5 * 2**-31, -2.5 * 2**-31]


@pytest.mark.parametrize(
    "fmt, fmt_code, bits",
    [("pcm16", 1, 16), ("pcm24", 1, 24), ("pcm32", 1, 32), ("float32", 3, 32)],
)
def test_write_wav_exact_bytes(tmp_path, fmt, fmt_code, bits):
    def encode(x):
        if fmt_code == 3:
            return struct.pack("<f", x)
        full = 2 ** (bits - 1)
        v = min(max(round(x * full), -full), full - 1)  # round() is half-to-even
        return struct.pack("<i", v)[: bits // 8]

    frames = zip(_EXACT_LEFT, _EXACT_RIGHT)
    payload = b"".join(encode(l) + encode(r) for l, r in frames)
    write_wav(tmp_path / "x.wav", [_EXACT_LEFT, _EXACT_RIGHT], 44100, fmt)
    assert (tmp_path / "x.wav").read_bytes() == wav_bytes(fmt_code, 2, bits, payload, 44100)


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_write_wav_refuses_non_finite(tmp_path, fmt, bad):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="samples must be finite"):
        write_wav(path, [[0.5, 0.0], [0.25, bad]], 48000, fmt)
    assert not path.exists()


def test_write_wav_float32_full_scale(tmp_path):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match=r"float32 samples exceed full scale \(peak 1.5\)"):
        write_wav(path, [[1.5, 0.0]], 48000, "float32")
    with pytest.raises(ValueError, match=r"exceed full scale \(peak inf\)"):
        write_wav(path, [[0.0, -1e39]], 48000, "float32")  # beyond float32's range
    assert not path.exists()
    # just above 1.0 in float64 but 1.0 in float32, which read_wav accepts
    write_wav(path, [[1 + 2**-30, -1.0]], 48000, "float32")
    (got,), _ = read_wav(path, 1)
    assert got.tolist() == [1.0, -1.0]
    # integer formats keep clipping
    write_wav(path, [[1.5, -1.5]], 48000, "pcm16")
    (got,), _ = read_wav(path, 1)
    assert got.tolist() == [32767 / 32768, -1.0]


@pytest.mark.parametrize("fmt, bits", [("pcm16", 16), ("pcm24", 24), ("pcm32", 32)])
def test_write_wav_clips_huge_finite_samples_without_a_warning(tmp_path, fmt, bits):
    # 1e308 * 2**(bits-1) overflows to inf while scaling; it clips to full scale
    path = tmp_path / "x.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_wav(path, [np.array([1e308, -1e308, 0.5])], 8000, fmt)
    (got,), _ = read_wav(path, 1)
    full = 2.0 ** (bits - 1)
    assert got.tolist() == [(full - 1) / full, -1.0, 0.5]


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
def test_load_stereo_keeps_stored_samples(tmp_path, fmt):
    x = np.array([[0.5, -0.25, 1.0, -1.0], [0.0, 0.75, -0.5, 0.125]])
    write_wav(tmp_path / "s.wav", list(x), 48000, fmt)
    rec = load_stereo(tmp_path / "s.wav")
    dtype, scale = {"pcm16": (np.int16, 2**15), "pcm24": (np.int32, 2**31),
                    "pcm32": (np.int32, 2**31), "float32": (np.float32, 1.0)}[fmt]
    assert rec.scale == scale
    decoded, _ = read_wav(tmp_path / "s.wav", 2)
    # the samples stay in the file: each read gives [a, b) of both channels
    # in the stored dtype, read-only, and any span is the same slice of the
    # whole
    with rec.stored() as read:
        whole = [ch.copy() for ch in read(0, 4)]
        for ch, want in zip(whole, decoded):
            assert ch.dtype == dtype and ch.shape == (4,)
            np.testing.assert_array_equal(ch / scale, want)
        for a, b in ((0, 1), (1, 3), (3, 4), (2, 2)):
            for ch, want in zip(read(a, b), whole):
                assert ch.dtype == dtype and not ch.flags.writeable
                np.testing.assert_array_equal(ch, want[a:b])
    for got, want in ((rec.nasal, decoded[0]), (rec.oral, decoded[1])):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def test_load_pair_pads_in_the_stored_dtype(tmp_path):
    write_wav(tmp_path / "n.wav", [np.full(100, 0.5)], 48000, "pcm16")
    write_wav(tmp_path / "o.wav", [np.full(90, -0.25)], 48000, "pcm16")
    rec = load_pair(tmp_path / "n.wav", tmp_path / "o.wav")
    _, oral = stored(rec)
    assert oral.dtype == np.int16 and rec.scale == 2**15
    assert oral[-11:].tolist() == [-8192] + [0] * 10
    assert not oral.flags.writeable
    with rec.stored() as read:  # a read wholly past the end is all zeros
        assert read(95, 100)[1].tolist() == [0] * 5
    assert rec.source_id == "n.wav+o.wav#pad_oral=10"


def test_load_pair_of_mixed_formats_decodes_both(tmp_path):
    write_wav(tmp_path / "n.wav", [np.full(10, 0.5)], 48000, "pcm16")
    write_wav(tmp_path / "o.wav", [np.full(12, -0.25)], 48000, "float32")
    rec = load_pair(tmp_path / "n.wav", tmp_path / "o.wav")
    nasal, oral = stored(rec)
    assert nasal.dtype == oral.dtype == np.float64
    assert rec.scale == 1.0
    assert rec.nasal.tolist() == [0.5] * 10 + [0.0] * 2
    assert rec.oral.tolist() == [-0.25] * 12


def test_recording_scale_must_be_a_power_of_two():
    # a loaded WAV's scale is its codec's power of two; channels passed in
    # are held as float64 at scale 1, so int16 codes are past full scale
    for _, scale in audio_io._CODECS.values():
        assert math.frexp(scale)[0] == 0.5
    ints = np.array([100, -200], dtype=np.int16)
    with pytest.raises(ValueError, match=r"nasal channel exceeds full scale \(peak 200\)"):
        StereoRecording(ints, ints, 48000)
    floats = (ints / 2**15).astype(np.float32)
    rec = StereoRecording(floats, floats, 48000)
    assert rec.scale == 1.0 and rec.nasal.tolist() == [100 / 2**15, -200 / 2**15]
    with rec.stored() as read:
        assert [x.dtype for x in read(0, 2)] == [np.float64, np.float64]


def test_zero_sample_rate_is_located(tmp_path):
    path = tmp_path / "r.wav"
    path.write_bytes(wav_bytes(1, 2, 16, struct.pack("<hh", 1, 2), sr=0))
    with pytest.raises(AudioFormatError, match="r.wav: zero sample rate") as err:
        load_stereo(path)
    assert err.value.byte_offset == 24  # the fmt chunk's sample-rate field


@pytest.mark.parametrize("fmt, sub_format, bits", [
    ("pcm16", PCM_GUID, 16), ("pcm24", PCM_GUID, 24), ("pcm32", PCM_GUID, 32),
    ("float32", FLOAT_GUID, 32),
])
def test_extensible_reads_like_plain(tmp_path, fmt, sub_format, bits):
    rng = np.random.default_rng(bits)
    write_wav(tmp_path / "plain.wav", list(rng.uniform(-1, 1, (2, 50))), 44100, fmt)
    plain = (tmp_path / "plain.wav").read_bytes()
    path = tmp_path / "ext.wav"
    path.write_bytes(extensible_bytes(2, bits, plain[44:], sub_format, sr=44100))
    got, want = load_stereo(path), load_stereo(tmp_path / "plain.wav")
    assert got.sample_rate == 44100 and got.scale == want.scale
    np.testing.assert_array_equal(stored(got), stored(want))


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
def test_odd_chunk_before_data_and_list_after_it(tmp_path, fmt):
    # an odd-sized chunk is followed by its pad byte, which the chunk walk
    # must skip; a LIST chunk after the data chunk must not be read as
    # samples
    rng = np.random.default_rng(5)
    write_wav(tmp_path / "plain.wav", list(rng.uniform(-1, 1, (2, 37))), 48000, fmt)
    plain = (tmp_path / "plain.wav").read_bytes()
    odd = b"junk" + struct.pack("<I", 5) + b"\xff" * 5 + b"\x00"  # body + pad byte
    info = b"INFOISFT" + struct.pack("<I", 8) + b"nasal\x00\x00\x00"
    list_chunk = b"LIST" + struct.pack("<I", len(info)) + info
    body = plain[12:36] + odd + plain[36:] + list_chunk
    path = tmp_path / "chunky.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    got, want = load_stereo(path), load_stereo(tmp_path / "plain.wav")
    assert got.n_samples == want.n_samples == 37
    np.testing.assert_array_equal(stored(got), stored(want))
    np.testing.assert_array_equal(read_wav(path, 2)[0], read_wav(tmp_path / "plain.wav", 2)[0])


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
def test_file_truncated_after_load_is_located(tmp_path, fmt):
    path = tmp_path / "t.wav"
    write_wav(path, [np.full(1000, 0.5), np.full(1000, -0.5)], 48000, fmt)
    rec = load_stereo(path)
    size = path.stat().st_size
    with open(path, "r+b") as f:
        f.truncate(size - 100)
    with rec.stored() as read:
        read(0, 10)  # samples still in the file read as before
        with pytest.raises(AudioFormatError, match=r"t\.wav: data chunk ends 100 bytes "
                                                   r"early") as err:
            read(0, 1000)
    assert err.value.byte_offset == size - 100
    with pytest.raises(AudioFormatError, match="t.wav"):
        rec.nasal


@pytest.mark.parametrize("kwargs, message, offset", [
    ({"cb_size": 0}, "extension shorter than 22 bytes", 36),
    ({"cb_size": 21}, "extension shorter than 22 bytes", 36),
    ({"valid_bits": 20}, "20 valid bits in 24-bit samples", 38),
    ({"sub_format": "00000006-0000-0010-8000-00aa00389b71"},  # A-law
     "unsupported sub-format 00000006-0000-0010-8000-00aa00389b71", 44),
    ({"sub_format": "00000001-0000-0010-8000-00aa00389b72"},
     "unsupported sub-format 00000001-0000-0010-8000-00aa00389b72", 44),
])
def test_extensible_refusals_are_located(tmp_path, kwargs, message, offset):
    args = {"sub_format": PCM_GUID, **kwargs}
    path = tmp_path / "ext.wav"
    path.write_bytes(extensible_bytes(2, 24, b"\x00" * 12, **args))
    with pytest.raises(AudioFormatError, match=message) as err:
        load_stereo(path)
    assert err.value.byte_offset == offset


def riff(*chunks):
    """A RIFF WAVE file of the given (id, body) chunks, each sized to its body."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(b)) + b for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


STEREO_FMT = (b"fmt ", struct.pack("<HHIIHH", 1, 2, 48000, 192000, 4, 16))


WAV_REFUSALS = [
    (b"RIFF\x24\x00\x00\x00AVI " + bytes(32), "not a WAVE container", 8),
    (riff(STEREO_FMT) + b"data", "truncated chunk header", 36),
    (riff((b"fmt ", STEREO_FMT[1][:14]), (b"data", bytes(4))), "truncated fmt chunk", 20),
    (riff((b"LIST", bytes(4))), "no fmt chunk found", 24),
    (riff(STEREO_FMT), "no data chunk found", 36),
    (riff((b"data", bytes(4)), STEREO_FMT), "data chunk before fmt chunk", 20),
    (wav_bytes(1, 0, 16, b""), "zero channels", 22),
    (wav_bytes(1, 2, 16, bytes(6)), "data size 6 not a whole number of frames", 44),
    (wav_bytes(1, 2, 16, b""), "data chunk holds no samples", 44),
    # write_wav's refusals: nothing is written
    (([[0.0]], 48000, "pcm8"), "unknown sample format 'pcm8'", None),
    (([[0.0], [0.0, 0.0]], 48000), "all channels must have equal length", None),
    (([[], []], 48000), "channels hold no samples", None),
]


@pytest.mark.parametrize("given, message, offset", WAV_REFUSALS,
                         ids=[message for _, message, _ in WAV_REFUSALS])
def test_wav_refusals_name_the_file_and_offset(tmp_path, given, message, offset):
    path = tmp_path / "bad.wav"
    if offset is None:
        with pytest.raises(ValueError) as err:
            write_wav(path, *given)
        assert str(err.value) == message and not path.exists()
        return
    path.write_bytes(given)
    with pytest.raises(AudioFormatError) as err:
        load_stereo(path)
    assert str(err.value) == f"bad.wav: {message} (byte offset {offset})"
    assert err.value.byte_offset == offset


def test_pair_with_an_empty_member_is_refused(tmp_path):
    # it used to be padded with zeros: a track of silent frames
    write_wav(tmp_path / "oral.wav", [[0.0, 0.5]], 48000, "pcm16")
    (tmp_path / "nasal.wav").write_bytes(wav_bytes(1, 1, 16, b""))
    with pytest.raises(AudioFormatError) as err:
        load_pair(tmp_path / "nasal.wav", tmp_path / "oral.wav")
    assert str(err.value) == "nasal.wav: data chunk holds no samples (byte offset 44)"


@pytest.mark.parametrize("rate", [8000.7, 0, -1, 2**32, math.nan, math.inf])
def test_write_wav_refuses_a_rate_the_header_cannot_hold(tmp_path, rate):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="sample_rate must be a whole number of Hz"):
        write_wav(path, [[0.0, 0.5]], rate, "pcm16")
    assert not path.exists()


def test_write_wav_rate_and_channel_limits(tmp_path):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="no channels"):
        write_wav(path, [], 48000)
    with pytest.raises(ValueError, match="32768 channels of 16-bit samples do not fit"):
        write_wav(path, [[0.0]] * 2**15, 1, "pcm16")  # a 65536-byte frame
    with pytest.raises(ValueError, match="byte rate 4294967296 .* does not fit"):
        write_wav(path, [[0.0], [0.0]], 2**29, "float32")  # 8-byte frames
    assert not path.exists()
    write_wav(path, [[0.0, 0.5]], 8000.0, "pcm16")  # a whole float is a whole rate
    assert read_wav(path, 1)[1] == 8000.0


def test_write_wav_refuses_data_the_header_cannot_hold(tmp_path):
    path = tmp_path / "x.wav"
    frames = np.broadcast_to(0.0, 2**29)  # 4 GiB as stereo float32, held in 8 bytes
    with pytest.raises(ValueError, match="4294967296 bytes of samples do not fit"):
        write_wav(path, [frames, frames], 48000, "float32")
    assert list(tmp_path.iterdir()) == []


_FORMATS = ["pcm16", "pcm24", "pcm32", "float32"]
_B = audio_io._BLOCK_FRAMES


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("n_channels", [1, 2])
def test_write_wav_equals_held_oracle(tmp_path, fmt, n_channels):
    # lengths inside, at and just past one block, and over three blocks
    rng = np.random.default_rng(8)
    limit = 0.99 if fmt == "float32" else 1.2  # integer formats clip
    for n in (1, _B - 1, _B, _B + 1, 2 * _B + 3):
        x = rng.uniform(-limit, limit, (n_channels, n))
        x[:, 1::5] = (np.floor(x[:, 1::5] * 2**15) + 0.5) / 2**15  # pcm16 ties
        x[:, ::11] = -0.0
        write_wav(tmp_path / "x.wav", list(x), 44100, fmt)
        assert (tmp_path / "x.wav").read_bytes() == held_wav_bytes(list(x), 44100, fmt)


@pytest.mark.parametrize("fmt, bad, message", [
    ("pcm16", np.nan, "samples must be finite"),
    ("pcm24", np.inf, "samples must be finite"),
    ("float32", -np.inf, "samples must be finite"),
    ("float32", 1.5, r"exceed full scale \(peak 1.5\)"),
])
def test_failed_write_wav_leaves_the_earlier_file(tmp_path, fmt, bad, message):
    # the bad sample is in the third block, after two blocks were written
    path = tmp_path / "x.wav"
    write_wav(path, [[0.25]], 48000, fmt)
    earlier = path.read_bytes()
    x = np.zeros(2 * _B + 5)
    x[2 * _B + 1] = bad
    with pytest.raises(ValueError, match=message):
        write_wav(path, [x, x], 48000, fmt)
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]
    (tmp_path / "d.wav").mkdir()
    with pytest.raises(IsADirectoryError):
        write_wav(tmp_path / "d.wav", [x[:10]], 48000, fmt)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.wav", "x.wav"]


@pytest.mark.parametrize("fmt", _FORMATS)
def test_write_wav_memory_does_not_grow_with_the_take(tmp_path, fmt):
    # samples are converted through reused one-block buffers; a take four
    # times as long allocates nothing more (whole-take interleaved, stored
    # and packed copies would add about 20 MB from 5 s to 20 s)
    rng = np.random.default_rng(9)
    peaks = []
    for seconds in (5, 20):
        x = list(rng.uniform(-0.9, 0.9, (2, seconds * 48000)))
        write_wav(tmp_path / "w.wav", x, 48000, fmt)  # lazy imports
        tracemalloc.start()
        try:
            write_wav(tmp_path / "w.wav", x, 48000, fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**18 and peaks[1] < 3 * 2**20, peaks
