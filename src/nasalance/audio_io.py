"""Load and validate two-channel WAV recordings with nasal/oral channel roles.

Supports RIFF/WAVE with PCM 16/24/32-bit integer or 32-bit float samples,
as plain fmt chunks or as WAVE_FORMAT_EXTENSIBLE. No resampling is performed
anywhere: mismatched rates are an error so the intensity frame timing
downstream stays exact. A loaded file's samples stay in the file: loading
checks the header, and samples are read span by span when they are needed.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AudioFormatError

_STEREO_SOURCES = ("left", "right")


@dataclass(frozen=True)
class ChannelMap:
    """Which physical channel feeds which microphone role."""

    nasal_source: str = "left"
    oral_source: str = "right"

    def __post_init__(self):
        for name in (self.nasal_source, self.oral_source):
            if name not in _STEREO_SOURCES:
                raise ValueError(f"unknown channel source {name!r}")
        if self.nasal_source == self.oral_source:
            raise ValueError("nasal and oral cannot come from the same channel")


@dataclass(frozen=True, init=False)
class StereoRecording:
    """Paired nasal/oral channels at a common sample rate.

    Each channel keeps the dtype it is stored in, with one `scale` for both:
    a sample's value on [-1, 1] is stored / scale, and `scale` must be a
    power of two, so decoding is exact. A loaded WAV holds no samples: it
    reads its int16, int32 (24- and 32-bit) or float32 samples from the file
    whenever they are asked for. Channels passed in are held in memory, as
    float64 unless already in one of those dtypes.

    `stored()` is the one way to the stored samples; `nasal` and `oral`
    decode them to read-only, C-contiguous float64 (for float64 held at
    scale 1, the held array itself). Held arrays are read-only. A read-only
    input that is already in a stored dtype is kept without a copy; a
    writeable one is copied, so the caller's array stays writeable and later
    writes to it do not reach the recording. Instances are immutable and
    safe to share between threads.
    """

    sample_rate: float
    source_id: str
    scale: float
    n_samples: int
    _channels: object = field(repr=False)  # _Held or _FileChannels
    _start: int = field(repr=False)  # of the recording in _channels

    def __init__(self, nasal, oral, sample_rate, source_id="", scale=1.0):
        nasal, oral = (_owned(x) for x in (nasal, oral))
        if nasal.ndim != 1 or oral.ndim != 1:
            raise ValueError("channels must be one-dimensional")
        if len(nasal) != len(oral):
            raise ValueError(
                f"channel lengths differ: nasal {len(nasal)}, oral {len(oral)}"
            )
        if len(nasal) < 1:
            raise ValueError("recording is empty")
        if not 0 < sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {sample_rate}")
        if not (0 < scale < math.inf and math.frexp(scale)[0] == 0.5):
            raise ValueError(f"scale must be a positive power of two, got {scale}")
        for name, ch in (("nasal", nasal), ("oral", oral)):
            if ch.dtype.kind == "i" and -np.iinfo(ch.dtype).min <= scale:
                continue  # every value of the dtype is within full scale
            peak = _peak(ch) / scale
            if not math.isfinite(peak):
                raise ValueError(f"{name} channel contains non-finite samples")
            if peak > 1.0:
                raise ValueError(f"{name} channel exceeds full scale (peak {peak:g})")
        self._set(_Held(nasal, oral), 0, len(nasal), sample_rate, source_id, scale)

    def _set(self, channels, start, n_samples, sample_rate, source_id, scale):
        for name, value in (("_channels", channels), ("_start", start),
                            ("n_samples", n_samples), ("sample_rate", sample_rate),
                            ("source_id", source_id), ("scale", float(scale))):
            object.__setattr__(self, name, value)

    @classmethod
    def _over(cls, channels, start, n_samples, sample_rate, source_id, scale):
        """A recording of samples [start, start + n_samples) of checked channels."""
        if n_samples < 1:
            raise ValueError("recording is empty")
        rec = cls.__new__(cls)
        rec._set(channels, start, n_samples, sample_rate, source_id, scale)
        return rec

    @contextmanager
    def stored(self):
        """Yield read(a, b): the (nasal, oral) stored samples of [a, b).

        For held channels these are slices; for a loaded WAV they are read
        from the file into buffers that the next read reuses, so each pair
        holds only until then. A read of a file that no longer holds the
        samples raises AudioFormatError. 0 <= a <= b <= n_samples.
        """
        start = self._start
        with self._channels.reader() as read:
            yield read if not start else lambda a, b: read(start + a, start + b)

    def crop(self, i0: int, i1: int) -> StereoRecording:
        """Samples [i0, i1) as a recording; nothing is read or copied."""
        if not 0 <= i0 <= i1 <= self.n_samples:
            raise ValueError(f"samples [{i0}, {i1}) are not within the recording's "
                             f"{self.n_samples}")
        return StereoRecording._over(self._channels, self._start + i0, i1 - i0,
                                     self.sample_rate, self.source_id, self.scale)

    def _decoded(self, role: int) -> np.ndarray:
        held = self._channels
        if isinstance(held, _Held) and self.scale == 1.0:
            x = (held.nasal, held.oral)[role]
            if x.dtype == np.float64:
                if self._start == 0 and self.n_samples == len(x):
                    return x
                return x[self._start : self._start + self.n_samples]
        out = np.empty(self.n_samples)
        with self.stored() as read:
            for a, b in _blocks(self.n_samples):
                np.divide(read(a, b)[role], self.scale, out=out[a:b], dtype=np.float64)
        out.flags.writeable = False
        return out

    @property
    def nasal(self) -> np.ndarray:
        return self._decoded(0)

    @property
    def oral(self) -> np.ndarray:
        return self._decoded(1)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


# (format tag, bits) -> (stored sample dtype, divisor onto [-1, 1]). 24-bit
# samples are widened into the top three bytes of an int32, so they share the
# 32-bit divisor. Every divisor is a power of two, so the division is exact.
_CODECS = {
    (1, 16): ("<i2", 2.0**15),
    (1, 24): ("<i4", 2.0**31),
    (1, 32): ("<i4", 2.0**31),
    (3, 32): ("<f4", 1.0),
}

# write_wav's sample_format names -> _CODECS keys
_SAMPLE_FORMATS = {"pcm16": (1, 16), "pcm24": (1, 24), "pcm32": (1, 32), "float32": (3, 32)}

# the file dtypes a recording keeps undecoded; any other input becomes float64
_CODEC_DTYPES = {np.dtype(dtype) for dtype, _ in _CODECS.values()}

# WAVE_FORMAT_EXTENSIBLE: the fmt chunk carries a 22-byte extension whose
# sub-format GUID starts with the plain format tag; KSDATAFORMAT_SUBTYPE_PCM
# and _IEEE_FLOAT share the GUID's other 12 bytes
_EXTENSIBLE = 0xFFFE
_SUBTYPE_TAIL = bytes.fromhex("000010008000" "00aa00389b71")

# Whole channels are decoded, and float files checked, this many frames at a
# time (256 kB of stereo pcm16)
_BLOCK_FRAMES = 2**16


def _owned(x, dtype=None) -> np.ndarray:
    """x as a read-only array: C-contiguous in `dtype` when one is given;
    otherwise x keeps a stored dtype (_CODECS) and anything else becomes
    C-contiguous float64. A writeable input is copied, so the caller keeps
    its own array writeable and separate; a read-only one is kept without a
    copy."""
    arr = np.asarray(x)
    if dtype is not None or arr.dtype not in _CODEC_DTYPES:
        arr = np.ascontiguousarray(arr, dtype=dtype or np.float64)
    if arr is x and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _blocks(n: int):
    """[a, b) ranges of at most _BLOCK_FRAMES that tile range(n)."""
    for a in range(0, n, _BLOCK_FRAMES):
        yield a, min(a + _BLOCK_FRAMES, n)


def _peak(ch: np.ndarray) -> float:
    """Largest |sample|; NaN or infinite when any sample is non-finite.

    One min and one max pass, with no |x| temporary: NaN propagates through
    both, and an infinite sample makes one of them infinite.
    """
    if not ch.size:
        return 0.0
    return max(-float(ch.min()), float(ch.max()))


class _Held:
    """Nasal and oral channels held in memory, read as slices."""

    def __init__(self, nasal: np.ndarray, oral: np.ndarray):
        self.nasal, self.oral = nasal, oral

    @contextmanager
    def reader(self):
        nasal, oral = self.nasal, self.oral
        yield lambda a, b: (nasal[a:b], oral[a:b])


@dataclass(frozen=True)
class _WavData:
    """The checked data chunk of a WAV file; its samples stay in the file."""

    path: Path
    offset: int  # of the data chunk's body
    n_frames: int
    n_channels: int
    bits: int
    dtype: np.dtype  # stored; see _CODECS
    scale: float
    sample_rate: float

    @contextmanager
    def reader(self):
        """Yield read(a, b): the stored samples of frames [a, b) as a
        read-only (b - a, n_channels) array, zero past the last frame.

        Each read seeks and `readinto`s one reused buffer, grown to the
        largest read so far, so the array holds only until the next read.
        24-bit samples are widened per read into a second reused int32
        buffer, each into its top three bytes.
        A short read (the file has changed since it was checked) raises
        AudioFormatError at the byte offset where the samples ran out.
        """
        width = self.n_channels * self.bits // 8
        lead = int(self.bits == 24)  # a spare byte before packed 24-bit samples
        raw = np.empty(0, np.uint8)
        wide = np.empty(0, self.dtype)
        with open(self.path, "rb") as f:
            def read(a, b):
                nonlocal raw, wide
                size = (b - a) * width
                if lead + size > len(raw):
                    raw = np.empty(lead + size, np.uint8)
                    wide = np.empty(lead * size // 3, self.dtype)
                have = max(0, min(b, self.n_frames) - a) * width
                pos = self.offset + a * width
                f.seek(pos)
                got = f.readinto(raw[lead : lead + have])
                if got != have:
                    raise AudioFormatError(
                        f"{self.path.name}: data chunk ends {have - got} bytes early "
                        f"(the file changed after it was loaded)",
                        byte_offset=pos + got,
                    )
                raw[lead + have : lead + size] = 0
                if lead:
                    # the int32 at each sample's byte before holds that byte
                    # and the sample's three; clearing the low byte leaves the
                    # sample in the top three
                    n = size // 3
                    packed = np.ndarray((n,), self.dtype, raw, 0, (3,))
                    samples = np.bitwise_and(packed, -256, out=wide[:n])
                else:
                    samples = raw[:size].view(self.dtype)
                samples = samples.reshape(b - a, self.n_channels)
                samples.flags.writeable = False
                return samples

            yield read


class _FileChannels:
    """Nasal and oral channels read from WAV files when asked for.

    Each role is a (data chunk, channel) pair. Two files whose stored
    formats differ are decoded to float64 as they are read.
    """

    def __init__(self, nasal: tuple[_WavData, int], oral: tuple[_WavData, int]):
        self.nasal, self.oral = nasal, oral
        self.decode = (nasal[0].dtype, nasal[0].scale) != (oral[0].dtype, oral[0].scale)

    @contextmanager
    def reader(self):
        (nasal, n_col), (oral, o_col) = self.nasal, self.oral
        if nasal is oral:  # both roles are channels of one file: read it once
            with nasal.reader() as read:
                def read_both(a, b):
                    block = read(a, b)
                    return block[:, n_col], block[:, o_col]

                yield read_both
            return
        with nasal.reader() as read_nasal, oral.reader() as read_oral:
            if not self.decode:
                yield lambda a, b: (read_nasal(a, b)[:, n_col], read_oral(a, b)[:, o_col])
                return
            yield lambda a, b: (
                np.divide(read_nasal(a, b)[:, n_col], nasal.scale, dtype=np.float64),
                np.divide(read_oral(a, b)[:, o_col], oral.scale, dtype=np.float64),
            )


def _extensible_format(fmt: bytes, fmt_offset: int, fmt_size: int, bits: int,
                       name: str) -> int:
    """The plain format tag named by a WAVE_FORMAT_EXTENSIBLE fmt chunk.

    `fmt` holds the first 40 bytes of the fmt body, or all of them when the
    file ends sooner. The extension after the 16-byte fmt body holds cbSize,
    the valid bits per sample, the channel mask and the 16-byte sub-format
    GUID.
    """
    ext = fmt_offset + 16
    if fmt_size < 40 or len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
        raise AudioFormatError(
            f"{name}: WAVE_FORMAT_EXTENSIBLE extension shorter than 22 bytes",
            byte_offset=ext,
        )
    (valid_bits,) = struct.unpack_from("<H", fmt, 18)
    if valid_bits != bits:
        raise AudioFormatError(
            f"{name}: {valid_bits} valid bits in {bits}-bit samples are unsupported",
            byte_offset=ext + 2,
        )
    guid = fmt[24:40]
    tag = int.from_bytes(guid[:4], "little")
    if guid[4:] != _SUBTYPE_TAIL or tag not in (1, 3):
        import uuid  # only to name the GUID in the message

        raise AudioFormatError(
            f"{name}: unsupported sub-format {uuid.UUID(bytes_le=guid)}",
            byte_offset=ext + 8,
        )
    return tag


def _wav_data(path, n_channels: int) -> _WavData:
    """Check a WAV file of n_channels channels and locate its samples.

    The RIFF chunks are walked by seeking from header to header; only the
    chunk headers and the fmt body are read, and the samples stay in the
    file, except that float samples are read once, block by block, to check
    that they are finite and within full scale (integer PCM is within full
    scale by construction). Any other channel count is refused before the
    data chunk is checked or read.
    """
    path = Path(path)
    name = path.name
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12:
            raise AudioFormatError(f"{name}: too short to be a RIFF file", byte_offset=0)
        if head[0:4] != b"RIFF":
            raise AudioFormatError(f"{name}: missing RIFF magic", byte_offset=0)
        if head[8:12] != b"WAVE":
            raise AudioFormatError(f"{name}: not a WAVE container", byte_offset=8)
        fmt = None
        pos = 12
        while pos < file_size:
            if pos + 8 > file_size:
                raise AudioFormatError(f"{name}: truncated chunk header", byte_offset=pos)
            f.seek(pos)
            chunk_id, size = struct.unpack("<4sI", f.read(8))
            body = pos + 8
            pos = body + size + (size & 1)  # chunks are word-aligned
            if chunk_id == b"fmt ":
                fmt = f.read(min(size, 40))
                if len(fmt) < 16 or size < 16:
                    raise AudioFormatError(f"{name}: truncated fmt chunk", byte_offset=body)
                fmt_offset, fmt_size = body, size
            elif chunk_id == b"data":
                break
        else:
            if fmt is None:
                raise AudioFormatError(f"{name}: no fmt chunk found", byte_offset=file_size)
            raise AudioFormatError(f"{name}: no data chunk found", byte_offset=file_size)
    if fmt is None:
        raise AudioFormatError(f"{name}: data chunk before fmt chunk", byte_offset=body)
    audio_format, got_channels, sample_rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt)
    if got_channels < 1:
        raise AudioFormatError(f"{name}: zero channels", byte_offset=fmt_offset + 2)
    if got_channels != n_channels:
        raise AudioFormatError(
            f"{name}: channel count != {n_channels} (got {got_channels})",
            byte_offset=fmt_offset + 2,  # the fmt chunk's channel field
        )
    if sample_rate == 0:
        raise AudioFormatError(f"{name}: zero sample rate", byte_offset=fmt_offset + 4)
    if body + size > file_size:
        raise AudioFormatError(
            f"{name}: truncated data chunk "
            f"(declared {size} bytes, {file_size - body} available)",
            byte_offset=file_size,
        )
    if audio_format == _EXTENSIBLE:
        audio_format = _extensible_format(fmt, fmt_offset, fmt_size, bits, name)
    # before the frame-size check: a 0-bit fmt makes block_align 0
    codec = _CODECS.get((audio_format, bits))
    if codec is None:
        raise AudioFormatError(
            f"{name}: unsupported codec (format {audio_format}, {bits}-bit)",
            byte_offset=fmt_offset,
        )
    if block_align != n_channels * bits // 8 or size % block_align:
        raise AudioFormatError(
            f"{name}: data size {size} not a whole number of frames", byte_offset=body
        )
    dtype, scale = codec
    data = _WavData(path, body, size // block_align, n_channels, bits, np.dtype(dtype),
                    scale, float(sample_rate))
    if audio_format == 3:
        with data.reader() as read:
            peak = _peak(np.array([_peak(read(a, b)) for a, b in _blocks(data.n_frames)]))
        if not math.isfinite(peak):
            raise AudioFormatError(f"{name}: non-finite float samples", byte_offset=body)
        if peak > 1.0:
            raise AudioFormatError(f"{name}: float samples exceed full scale",
                                   byte_offset=body)
    return data


def read_wav(path, n_channels: int) -> tuple[list[np.ndarray], float]:
    """Read a WAV file of n_channels channels.

    Returns (per-channel samples as C-contiguous float64 on [-1, 1], sample
    rate). Any other channel count is refused before the data chunk is
    checked or decoded.
    """
    data = _wav_data(path, n_channels)
    out = np.empty((n_channels, data.n_frames))
    with data.reader() as read:
        for a, b in _blocks(data.n_frames):
            np.divide(read(a, b).T, data.scale, out=out[:, a:b], dtype=np.float64)
    return list(out), data.sample_rate


def load_stereo(path, channel_map: ChannelMap | None = None) -> StereoRecording:
    """Load one stereo WAV file, assigning channels per the map.

    The file's header is checked now; its samples are read, in their stored
    dtype, as they are framed or decoded.
    """
    channel_map = channel_map or ChannelMap()
    path = Path(path)
    data = _wav_data(path, 2)
    column = {"left": 0, "right": 1}
    channels = _FileChannels((data, column[channel_map.nasal_source]),
                             (data, column[channel_map.oral_source]))
    return StereoRecording._over(channels, 0, data.n_frames, data.sample_rate,
                                 path.name, data.scale)


def load_pair(nasal_path, oral_path) -> StereoRecording:
    """Load nasal and oral channels recorded to separate mono files.

    The shorter channel reads as zeros past its end (it is never truncated)
    so annotation time axes that reference the longer file stay valid; the
    padding is recorded in source_id. Files in different sample formats are
    both decoded to float64 as they are read.
    """
    nasal_path, oral_path = Path(nasal_path), Path(oral_path)
    nasal, oral = (_wav_data(path, 1) for path in (nasal_path, oral_path))
    if nasal.sample_rate != oral.sample_rate:
        raise AudioFormatError(
            f"sample-rate mismatch: {nasal_path.name} is {nasal.sample_rate:g} Hz, "
            f"{oral_path.name} is {oral.sample_rate:g} Hz"
        )
    channels = _FileChannels((nasal, 0), (oral, 0))
    source_id = f"{nasal_path.name}+{oral_path.name}"
    pad = oral.n_frames - nasal.n_frames
    if pad:
        source_id += f"#pad_nasal={pad}" if pad > 0 else f"#pad_oral={-pad}"
    return StereoRecording._over(
        channels, 0, max(nasal.n_frames, oral.n_frames), nasal.sample_rate, source_id,
        1.0 if channels.decode else nasal.scale,
    )


def write_wav(path, channels, sample_rate, sample_format="float32"):
    """Write a WAV file from per-channel float arrays in [-1, 1].

    sample_format is one of pcm16, pcm24, pcm32, float32. Non-finite samples
    are refused in every format, and float32 samples beyond full scale
    (which read_wav would refuse); integer formats clip out-of-range values.
    sample_rate must be a whole number of Hz that the header can hold.
    Nothing is written when a check fails.
    """
    key = _SAMPLE_FORMATS.get(sample_format)
    if key is None:
        raise ValueError(f"unknown sample format {sample_format!r}")
    fmt_code, bits = key
    dtype = np.dtype(_CODECS[key][0])
    channels = [np.asarray(ch, dtype=np.float64) for ch in channels]
    if not channels:
        raise ValueError("no channels to write")
    n_channels = len(channels)
    block_align = n_channels * bits // 8
    if block_align >= 2**16:
        raise ValueError(f"{n_channels} channels of {bits}-bit samples do not fit "
                         f"the WAV header")
    if not (1 <= sample_rate < 2**32 and sample_rate == int(sample_rate)):
        raise ValueError(
            f"sample_rate must be a whole number of Hz in 1..{2**32 - 1}, "
            f"got {sample_rate!r}"
        )
    byte_rate = int(sample_rate) * block_align
    if byte_rate >= 2**32:
        raise ValueError(
            f"byte rate {byte_rate} ({sample_rate:g} Hz x {block_align}-byte frames) "
            f"does not fit the WAV header"
        )
    n = len(channels[0])
    if any(len(ch) != n for ch in channels):
        raise ValueError("all channels must have equal length")
    interleaved = np.empty(n * n_channels)
    for i, ch in enumerate(channels):
        interleaved[i::n_channels] = ch
    if not math.isfinite(_peak(interleaved)):
        raise ValueError("samples must be finite")
    if fmt_code == 1:  # integer PCM: round onto the 2**(bits-1) grid and clip
        full = 2.0 ** (bits - 1)
        interleaved *= full
        np.clip(np.rint(interleaved, out=interleaved), -full, full - 1, out=interleaved)
    with np.errstate(over="ignore"):  # a float32 overflow is refused just below
        stored = interleaved.astype(dtype)
    if fmt_code == 3:
        peak = _peak(stored)
        if peak > 1.0:
            raise ValueError(f"float32 samples exceed full scale (peak {peak:g})")
    # 24-bit samples are stored in an int32; keep each one's low three bytes
    samples = stored.view(np.uint8).reshape(-1, dtype.itemsize)
    payload = samples[:, : bits // 8].tobytes()

    header = b"RIFF"
    header += struct.pack("<I", 4 + 8 + 16 + 8 + len(payload))
    header += b"WAVEfmt "
    header += struct.pack(
        "<IHHIIHH", 16, fmt_code, n_channels, int(sample_rate), byte_rate,
        block_align, bits,
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
