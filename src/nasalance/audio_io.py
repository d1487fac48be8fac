"""Load and validate two-channel WAV recordings with nasal/oral channel roles.

Supports RIFF/WAVE with PCM 16/24/32-bit integer or 32-bit float samples,
as plain fmt chunks or as WAVE_FORMAT_EXTENSIBLE. No resampling is performed
anywhere: mismatched rates are an error so the intensity frame timing
downstream stays exact. A loaded file's samples stay in the file: loading
checks the header, and samples are read span by span when they are needed.
`write_wav`, like every output of the command line, is written through
`output._commit`: block by block to a temporary sibling, moved into place
once it is whole.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AudioFormatError
from .output import _commit

_STEREO_SOURCES = ("left", "right")


@dataclass(frozen=True)
class ChannelMap:
    """Which physical channel feeds the nasal microphone; the other feeds the oral."""

    nasal_source: str = "left"

    def __post_init__(self):
        if self.nasal_source not in _STEREO_SOURCES:
            raise ValueError(f"unknown channel source {self.nasal_source!r}")


@dataclass(frozen=True, init=False)
class StereoRecording:
    """Paired nasal/oral channels at a common sample rate.

    Channels passed in are held in memory as float64. A loaded WAV holds no
    samples: it reads each channel's int16, int32 (24- and 32-bit) or float32
    samples from its file whenever they are asked for (a mono pair may mix
    them), and a sample's value is stored / _full_scale(dtype), so decoding
    is exact. Loaded and constructed recordings are checked to lie on
    [-1, 1]; a band-passed one (intensity.bandpass) is not, and its ringing
    may read past full scale.

    `stored()` is the one way to the stored samples; `nasal` and `oral`
    decode them to read-only, C-contiguous float64 (for held channels, the
    held array itself, or a slice of it). Held arrays are read-only. A
    read-only, C-contiguous float64 input is kept without a copy; a
    writeable one is copied, so the caller's array stays writeable and later
    writes to it do not reach the recording.
    Instances are immutable and safe to share between threads.
    """

    sample_rate: float
    source_id: str
    n_samples: int
    _channels: object = field(repr=False)  # _Held, _FileChannels or intensity._Bandpassed
    _start: int = field(repr=False)  # of the recording in _channels

    def __init__(self, nasal, oral, sample_rate, source_id=""):
        nasal, oral = (_owned(x, np.float64) for x in (nasal, oral))
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
        for name, ch in (("nasal", nasal), ("oral", oral)):
            peak = _peak(ch)
            if not math.isfinite(peak):
                raise ValueError(f"{name} channel contains non-finite samples")
            if peak > 1.0:
                raise ValueError(f"{name} channel exceeds full scale (peak {peak:g})")
        self._set(_Held(nasal, oral), 0, len(nasal), sample_rate, source_id)

    def _set(self, channels, start, n_samples, sample_rate, source_id):
        for name, value in (("_channels", channels), ("_start", start),
                            ("n_samples", n_samples), ("sample_rate", sample_rate),
                            ("source_id", source_id)):
            object.__setattr__(self, name, value)

    @classmethod
    def _over(cls, channels, start, n_samples, sample_rate, source_id):
        """A recording of samples [start, start + n_samples) of checked channels."""
        if n_samples < 1:
            raise ValueError("recording is empty")
        rec = cls.__new__(cls)
        rec._set(channels, start, n_samples, sample_rate, source_id)
        return rec

    @contextmanager
    def stored(self):
        """Yield read(a, b): the (nasal, oral) stored samples of [a, b).

        For held channels (_Held) these are slices; a loaded WAV's
        (_FileChannels) are read, and a band-passed one's
        (intensity._Bandpassed) filtered, into buffers that the next read
        reuses, so each pair holds only until then. A read of a file that no
        longer holds the samples raises AudioFormatError.
        0 <= a <= b <= n_samples.
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
                                     self.sample_rate, self.source_id)

    def _decoded(self, role: int) -> np.ndarray:
        channels = self._channels
        if isinstance(channels, _Held):  # float64, so full scale is 1
            x = (channels.nasal, channels.oral)[role]
            if self.n_samples == len(x):
                return x
            return x[self._start : self._start + self.n_samples]
        out = np.empty(self.n_samples)
        with self.stored() as read:  # both channels, keeping the one asked for
            for a, b in _blocks(self.n_samples):
                x = read(a, b)[role]
                np.divide(x, _full_scale(x.dtype), out=out[a:b], dtype=np.float64)
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


# (format tag, bits) -> stored sample dtype. 24-bit samples are widened into
# the top three bytes of an int32.
_CODECS = {(1, 16): "<i2", (1, 24): "<i4", (1, 32): "<i4", (3, 32): "<f4"}

# write_wav's sample_format names -> _CODECS keys
_SAMPLE_FORMATS = {"pcm16": (1, 16), "pcm24": (1, 24), "pcm32": (1, 32), "float32": (3, 32)}

# WAVE_FORMAT_EXTENSIBLE: the fmt chunk carries a 22-byte extension whose
# sub-format GUID starts with the plain format tag; KSDATAFORMAT_SUBTYPE_PCM
# and _IEEE_FLOAT share the GUID's other 12 bytes
_EXTENSIBLE = 0xFFFE
_SUBTYPE_TAIL = bytes.fromhex("000010008000" "00aa00389b71")

# Whole channels are decoded, and float files checked, this many frames at a
# time (256 kB of stereo pcm16)
_BLOCK_FRAMES = 2**16


def _full_scale(dtype: np.dtype) -> float:
    """The power of two that maps samples stored in `dtype` onto [-1, 1]:
    2**(bits - 1) for integers (a 24-bit sample sits in the top three bytes
    of an int32, so it shares the 32-bit divisor) and 1 for floats."""
    return 2.0 ** (8 * dtype.itemsize - 1) if dtype.kind == "i" else 1.0


def _owned(x, dtype) -> np.ndarray:
    """x as a read-only, C-contiguous array of `dtype`. A writeable input is
    copied, so the caller keeps its own array writeable and separate; a
    read-only one already in that form is kept without a copy. A writeable
    view, as of an ndarray subclass such as np.memmap, is the caller's
    memory too."""
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.flags.writeable and (arr is x or not arr.flags.owndata):
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
        yield lambda a, b: (self.nasal[a:b], self.oral[a:b])


@dataclass(frozen=True)
class _WavData:
    """The checked data chunk of a WAV file; its samples stay in the file."""

    path: Path
    offset: int  # of the data chunk's body
    n_frames: int
    n_channels: int
    bits: int
    dtype: np.dtype  # stored; see _CODECS
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

    Each role is a (data chunk, channel) pair, read in its file's stored
    dtype; a stereo file feeds both and is read once per read.
    """

    def __init__(self, nasal: tuple[_WavData, int], oral: tuple[_WavData, int]):
        self.files = tuple(dict.fromkeys((nasal[0], oral[0])))
        self.picks = tuple((self.files.index(data), col) for data, col in (nasal, oral))

    @contextmanager
    def reader(self):
        with ExitStack() as stack:
            reads = [stack.enter_context(data.reader()) for data in self.files]

            def read(a, b):
                frames = [read_data(a, b) for read_data in reads]
                return tuple(frames[i][:, col] for i, col in self.picks)

            yield read


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
    dtype = _CODECS.get((audio_format, bits))
    if dtype is None:
        raise AudioFormatError(
            f"{name}: unsupported codec (format {audio_format}, {bits}-bit)",
            byte_offset=fmt_offset,
        )
    if block_align != n_channels * bits // 8 or size % block_align:
        raise AudioFormatError(
            f"{name}: data size {size} not a whole number of frames", byte_offset=body
        )
    if size == 0:
        raise AudioFormatError(f"{name}: data chunk holds no samples", byte_offset=body)
    data = _WavData(path, body, size // block_align, n_channels, bits, np.dtype(dtype),
                    float(sample_rate))
    if audio_format == 3:
        with data.reader() as read:
            peak = _peak(np.array([_peak(read(a, b)) for a, b in _blocks(data.n_frames)]))
        if not math.isfinite(peak):
            raise AudioFormatError(f"{name}: non-finite float samples", byte_offset=body)
        if peak > 1.0:
            raise AudioFormatError(f"{name}: float samples exceed full scale",
                                   byte_offset=body)
    return data


def load_stereo(path, channel_map: ChannelMap | None = None) -> StereoRecording:
    """Load one stereo WAV file, assigning channels per the map.

    The file's header is checked now; its samples are read, in their stored
    dtype, as they are framed or decoded.
    """
    channel_map = channel_map or ChannelMap()
    path = Path(path)
    data = _wav_data(path, 2)
    nasal = _STEREO_SOURCES.index(channel_map.nasal_source)
    channels = _FileChannels((data, nasal), (data, 1 - nasal))
    return StereoRecording._over(channels, 0, data.n_frames, data.sample_rate, path.name)


def load_pair(nasal_path, oral_path) -> StereoRecording:
    """Load nasal and oral channels recorded to separate mono files.

    The shorter channel reads as zeros past its end (it is never truncated)
    so annotation time axes that reference the longer file stay valid; the
    padding is recorded in source_id. Each channel is read in its own
    file's stored dtype, so the two files may differ in sample format.
    """
    nasal_path, oral_path = Path(nasal_path), Path(oral_path)
    nasal, oral = (_wav_data(path, 1) for path in (nasal_path, oral_path))
    if nasal.sample_rate != oral.sample_rate:
        raise AudioFormatError(
            f"sample-rate mismatch: {nasal_path.name} is {nasal.sample_rate:g} Hz, "
            f"{oral_path.name} is {oral.sample_rate:g} Hz"
        )
    source_id = f"{nasal_path.name}+{oral_path.name}"
    pad = oral.n_frames - nasal.n_frames
    if pad:
        source_id += f"#pad_nasal={pad}" if pad > 0 else f"#pad_oral={-pad}"
    return StereoRecording._over(_FileChannels((nasal, 0), (oral, 0)), 0,
                                 max(nasal.n_frames, oral.n_frames), nasal.sample_rate,
                                 source_id)


def _check_rate(sample_rate, error=ValueError) -> None:
    """Raise `error` unless a WAV header can hold sample_rate."""
    if not (1 <= sample_rate < 2**32 and sample_rate == int(sample_rate)):
        raise error(f"sample_rate must be a whole number of Hz in 1..{2**32 - 1}, "
                    f"got {sample_rate!r}")


def _wav_blocks(channels, sample_rate, sample_format):
    """Check what write_wav is given and return the WAV file's bytes, as
    blocks made while they are iterated (see write_wav); a block's buffer is
    reused for the next one."""
    key = _SAMPLE_FORMATS.get(sample_format)
    if key is None:
        raise ValueError(f"unknown sample format {sample_format!r}")
    fmt_code, bits = key
    dtype = np.dtype(_CODECS[key])
    channels = [np.asarray(ch, dtype=np.float64) for ch in channels]
    if not channels:
        raise ValueError("no channels to write")
    n_channels = len(channels)
    block_align = n_channels * bits // 8
    if block_align >= 2**16:
        raise ValueError(f"{n_channels} channels of {bits}-bit samples do not fit "
                         f"the WAV header")
    _check_rate(sample_rate)
    byte_rate = int(sample_rate) * block_align
    if byte_rate >= 2**32:
        raise ValueError(
            f"byte rate {byte_rate} ({sample_rate:g} Hz x {block_align}-byte frames) "
            f"does not fit the WAV header"
        )
    n = len(channels[0])
    if any(len(ch) != n for ch in channels):
        raise ValueError("all channels must have equal length")
    if n == 0:
        raise ValueError("channels hold no samples")  # loading refuses such a file
    size = n * block_align
    if 36 + size >= 2**32:
        raise ValueError(f"{size} bytes of samples do not fit the WAV header")
    header = b"RIFF" + struct.pack("<I", 36 + size) + b"WAVEfmt "
    header += struct.pack("<IHHIIHH", 16, fmt_code, n_channels, int(sample_rate),
                          byte_rate, block_align, bits)
    header += b"data" + struct.pack("<I", size)

    def blocks():
        yield header
        frames = np.empty((min(n, _BLOCK_FRAMES), n_channels))
        stored = np.empty(frames.shape, dtype)
        # 24-bit samples are stored in an int32; each one's low three bytes are kept
        packed = np.empty(frames.shape + (3,), np.uint8) if bits == 24 else None
        full = 2.0 ** (bits - 1)  # integer PCM's full scale
        for a, b in _blocks(n):
            block, out = frames[: b - a], stored[: b - a]
            for i, ch in enumerate(channels):  # checked unscaled, scaled as interleaved
                if not math.isfinite(_peak(ch[a:b])):
                    raise ValueError("samples must be finite")
                if fmt_code == 1:  # a huge finite sample scales to inf, clipped below
                    with np.errstate(over="ignore"):
                        np.multiply(ch[a:b], full, out=block[:, i])
                else:
                    block[:, i] = ch[a:b]
            if fmt_code == 1:  # integer PCM: round onto the 2**(bits-1) grid and clip
                np.clip(np.rint(block, out=block), -full, full - 1, out=block)
            with np.errstate(over="ignore"):  # a float32 overflow is refused just below
                np.copyto(out, block, casting="unsafe")
            if fmt_code == 3:
                peak = _peak(out)
                if peak > 1.0:
                    raise ValueError(f"float32 samples exceed full scale (peak {peak:g})")
            if packed is not None:
                packed[: b - a] = out.view(np.uint8).reshape(b - a, n_channels, 4)[..., :3]
                out = packed[: b - a]
            yield out

    return blocks()


def write_wav(path, channels, sample_rate, sample_format="float32"):
    """Write a WAV file from per-channel float arrays in [-1, 1].

    sample_format is one of pcm16, pcm24, pcm32, float32. Non-finite samples
    are refused in every format, and float32 samples beyond full scale
    (which loading would refuse); integer formats clip out-of-range values.
    sample_rate must be a whole number of Hz that the header can hold.

    The samples are interleaved, converted and written _BLOCK_FRAMES frames
    at a time through reused buffers, so beyond float64 copies of channels
    given in another type, memory does not grow with the take. They go to a
    temporary sibling that replaces `path` once every block is written and
    is removed on any failure: nothing is written when a check fails, and a
    failed write leaves no truncated file.
    """
    _commit([(path, _wav_blocks(channels, sample_rate, sample_format))])
