"""Load and validate two-channel WAV recordings with nasal/oral channel roles.

Supports RIFF/WAVE with PCM 16/24/32-bit integer or 32-bit float samples,
as plain fmt chunks or as WAVE_FORMAT_EXTENSIBLE. No resampling is performed
anywhere: mismatched rates are an error so the intensity frame timing
downstream stays exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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

    Each channel is kept in the dtype it is stored in, with one `scale` for
    both: a sample's value on [-1, 1] is stored / scale. A loaded WAV keeps
    its int16, int32 (24- and 32-bit) or float32 samples, usually as a
    strided column of the file's buffer; any other input is stored as
    float64. `scale` must be a power of two, so decoding is exact.

    `nasal` and `oral` decode on demand to read-only, C-contiguous float64;
    for float64 storage at scale 1 they return the stored array itself.
    Stored arrays are read-only. A read-only input that is already in a
    stored dtype is kept without a copy; a writeable one is copied, so the
    caller's array stays writeable and later writes to it do not reach the
    recording. Instances are immutable and safe to share between threads.
    """

    nasal_stored: np.ndarray
    oral_stored: np.ndarray
    sample_rate: float
    source_id: str
    scale: float

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
        for name, value in (("nasal_stored", nasal), ("oral_stored", oral),
                            ("sample_rate", sample_rate), ("source_id", source_id),
                            ("scale", float(scale))):
            object.__setattr__(self, name, value)

    @property
    def nasal(self) -> np.ndarray:
        return _decoded(self.nasal_stored, self.scale)

    @property
    def oral(self) -> np.ndarray:
        return _decoded(self.oral_stored, self.scale)

    @property
    def n_samples(self) -> int:
        return len(self.nasal_stored)

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


def _owned(x) -> np.ndarray:
    """x, read-only, in its stored dtype (C-contiguous when float64); a
    writeable input is copied, so the caller keeps its own array writeable
    and separate."""
    arr = np.asarray(x)
    if arr.dtype not in _CODEC_DTYPES:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr is x and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _decoded(x: np.ndarray, scale: float) -> np.ndarray:
    """Stored samples as read-only, C-contiguous float64 on [-1, 1]."""
    if x.dtype == np.float64 and scale == 1.0:
        return x
    out = np.divide(x, scale, dtype=np.float64)
    out.flags.writeable = False
    return out


def _read_chunks(data: bytes, path: str):
    """Yield (chunk_id, body_offset, body_size) for every RIFF chunk."""
    if len(data) < 12:
        raise AudioFormatError(f"{path}: too short to be a RIFF file", byte_offset=0)
    if data[0:4] != b"RIFF":
        raise AudioFormatError(f"{path}: missing RIFF magic", byte_offset=0)
    if data[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a WAVE container", byte_offset=8)
    pos = 12
    while pos < len(data):
        if pos + 8 > len(data):
            raise AudioFormatError(
                f"{path}: truncated chunk header", byte_offset=pos
            )
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        yield chunk_id, body, size
        pos = body + size + (size & 1)  # chunks are word-aligned


def _extensible_format(data: bytes, fmt_offset: int, fmt_size: int, bits: int, name: str) -> int:
    """The plain format tag named by a WAVE_FORMAT_EXTENSIBLE fmt chunk.

    The extension after the 16-byte fmt body holds cbSize, the valid bits
    per sample, the channel mask and the 16-byte sub-format GUID.
    """
    ext = fmt_offset + 16
    if fmt_size < 40 or ext + 24 > len(data) or struct.unpack_from("<H", data, ext)[0] < 22:
        raise AudioFormatError(
            f"{name}: WAVE_FORMAT_EXTENSIBLE extension shorter than 22 bytes",
            byte_offset=ext,
        )
    (valid_bits,) = struct.unpack_from("<H", data, ext + 2)
    if valid_bits != bits:
        raise AudioFormatError(
            f"{name}: {valid_bits} valid bits in {bits}-bit samples are unsupported",
            byte_offset=ext + 2,
        )
    guid = data[ext + 8 : ext + 24]
    tag = int.from_bytes(guid[:4], "little")
    if guid[4:] != _SUBTYPE_TAIL or tag not in (1, 3):
        import uuid  # only to name the GUID in the message

        raise AudioFormatError(
            f"{name}: unsupported sub-format {uuid.UUID(bytes_le=guid)}",
            byte_offset=ext + 8,
        )
    return tag


def _stored_frames(data: bytes, body: int, size: int, n_channels: int, bits: int,
                   dtype: str) -> np.ndarray:
    """The data chunk body as a read-only (frames, channels) array.

    Samples stay in `data`, except 24-bit ones, which are widened once into
    the top three bytes of a new int32 array.
    """
    if bits == 24:
        packed = np.frombuffer(data, np.uint8, size, body).reshape(-1, 3)
        widened = np.zeros((len(packed), 4), dtype=np.uint8)
        widened[:, 1:] = packed
        samples = widened.view(dtype)
        samples.flags.writeable = False
    else:
        samples = np.frombuffer(data, dtype, size // np.dtype(dtype).itemsize, body)
    return samples.reshape(-1, n_channels)


def _peak(ch: np.ndarray) -> float:
    """Largest |sample|; NaN or infinite when any sample is non-finite.

    One min and one max pass, with no |x| temporary: NaN propagates through
    both, and an infinite sample makes one of them infinite.
    """
    if not ch.size:
        return 0.0
    return max(-float(ch.min()), float(ch.max()))


def _read_samples(path, n_channels: int) -> tuple[np.ndarray, float, float]:
    """Read and check a WAV file of n_channels channels, without decoding it.

    Returns (frames, scale, sample rate): frames is a read-only
    (n, n_channels) array in the stored dtype (see _CODECS), and a sample's
    value on [-1, 1] is frames / scale. Any other channel count is refused
    before the data chunk is checked or read.
    """
    path = Path(path)
    data = path.read_bytes()
    fmt = None
    fmt_offset = fmt_size = None
    for chunk_id, body, size in _read_chunks(data, path.name):
        if chunk_id == b"fmt ":
            if body + 16 > len(data) or size < 16:
                raise AudioFormatError(
                    f"{path.name}: truncated fmt chunk", byte_offset=body
                )
            fmt = struct.unpack_from("<HHIIHH", data, body)
            fmt_offset, fmt_size = body, size
        elif chunk_id == b"data":
            if fmt is None:
                raise AudioFormatError(
                    f"{path.name}: data chunk before fmt chunk", byte_offset=body
                )
            audio_format, got_channels, sample_rate, _, block_align, bits = fmt
            if got_channels < 1:
                raise AudioFormatError(
                    f"{path.name}: zero channels", byte_offset=fmt_offset + 2
                )
            if got_channels != n_channels:
                raise AudioFormatError(
                    f"{path.name}: channel count != {n_channels} (got {got_channels})",
                    byte_offset=fmt_offset + 2,  # the fmt chunk's channel field
                )
            if sample_rate == 0:
                raise AudioFormatError(
                    f"{path.name}: zero sample rate", byte_offset=fmt_offset + 4
                )
            if body + size > len(data):
                raise AudioFormatError(
                    f"{path.name}: truncated data chunk "
                    f"(declared {size} bytes, {len(data) - body} available)",
                    byte_offset=len(data),
                )
            if audio_format == _EXTENSIBLE:
                audio_format = _extensible_format(data, fmt_offset, fmt_size, bits,
                                                  path.name)
            # before the frame-size check: a 0-bit fmt makes block_align 0
            codec = _CODECS.get((audio_format, bits))
            if codec is None:
                raise AudioFormatError(
                    f"{path.name}: unsupported codec (format {audio_format}, {bits}-bit)",
                    byte_offset=fmt_offset,
                )
            if block_align != n_channels * bits // 8 or size % block_align:
                raise AudioFormatError(
                    f"{path.name}: data size {size} not a whole number of frames",
                    byte_offset=body,
                )
            dtype, scale = codec
            frames = _stored_frames(data, body, size, n_channels, bits, dtype)
            # integer PCM lands in [-1, 1) by construction; only floats can fail
            if audio_format == 3:
                peak = _peak(frames)
                if not math.isfinite(peak):
                    raise AudioFormatError(
                        f"{path.name}: non-finite float samples", byte_offset=body
                    )
                if peak > 1.0:
                    raise AudioFormatError(
                        f"{path.name}: float samples exceed full scale",
                        byte_offset=body,
                    )
            return frames, scale, float(sample_rate)
    if fmt is None:
        raise AudioFormatError(f"{path.name}: no fmt chunk found", byte_offset=len(data))
    raise AudioFormatError(f"{path.name}: no data chunk found", byte_offset=len(data))


def read_wav(path, n_channels: int) -> tuple[list[np.ndarray], float]:
    """Read a WAV file of n_channels channels.

    Returns (per-channel samples as C-contiguous float64 on [-1, 1], sample
    rate). Any other channel count is refused before the data chunk is
    checked or decoded.
    """
    frames, scale, sample_rate = _read_samples(path, n_channels)
    return [np.divide(frames[:, c], scale, dtype=np.float64)
            for c in range(n_channels)], sample_rate


def load_stereo(path, channel_map: ChannelMap | None = None) -> StereoRecording:
    """Load one stereo WAV file, assigning channels per the map.

    The recording keeps the file's samples undecoded: each channel is a
    read-only column of the file's buffer.
    """
    channel_map = channel_map or ChannelMap()
    path = Path(path)
    frames, scale, sample_rate = _read_samples(path, 2)
    by_source = {"left": frames[:, 0], "right": frames[:, 1]}
    return StereoRecording(
        nasal=by_source[channel_map.nasal_source],
        oral=by_source[channel_map.oral_source],
        sample_rate=sample_rate,
        source_id=path.name,
        scale=scale,
    )


def load_pair(nasal_path, oral_path) -> StereoRecording:
    """Load nasal and oral channels recorded to separate mono files.

    The shorter channel is zero-padded at the end (never truncated) so
    annotation time axes that reference the longer file stay valid; the
    padding is recorded in source_id. Files in different sample formats are
    both decoded to float64.
    """
    nasal_path, oral_path = Path(nasal_path), Path(oral_path)
    (nasal, nasal_scale, nasal_rate), (oral, oral_scale, oral_rate) = (
        _read_samples(path, 1) for path in (nasal_path, oral_path)
    )
    if nasal_rate != oral_rate:
        raise AudioFormatError(
            f"sample-rate mismatch: {nasal_path.name} is {nasal_rate:g} Hz, "
            f"{oral_path.name} is {oral_rate:g} Hz"
        )
    nasal, oral = nasal[:, 0], oral[:, 0]
    scale = nasal_scale
    if (nasal.dtype, nasal_scale) != (oral.dtype, oral_scale):
        nasal, oral = _decoded(nasal, nasal_scale), _decoded(oral, oral_scale)
        scale = 1.0
    source_id = f"{nasal_path.name}+{oral_path.name}"
    if len(nasal) != len(oral):
        pad = abs(len(nasal) - len(oral))
        if len(nasal) < len(oral):
            nasal = np.concatenate([nasal, np.zeros(pad, nasal.dtype)])
            source_id += f"#pad_nasal={pad}"
        else:
            oral = np.concatenate([oral, np.zeros(pad, oral.dtype)])
            source_id += f"#pad_oral={pad}"
        nasal.flags.writeable = oral.flags.writeable = False  # kept without a copy
    return StereoRecording(
        nasal=nasal, oral=oral, sample_rate=nasal_rate, source_id=source_id, scale=scale
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
