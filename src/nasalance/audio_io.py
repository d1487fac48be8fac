"""Load and validate two-channel WAV recordings with nasal/oral channel roles.

Supports RIFF/WAVE with PCM 16/24/32-bit integer or 32-bit float samples.
No resampling is performed anywhere: mismatched rates are an error so the
intensity frame timing downstream stays exact.
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


@dataclass(frozen=True)
class StereoRecording:
    """Paired nasal/oral sample sequences at a common sample rate.

    Samples are C-contiguous float64, normalized to [-1, 1], and read-only.
    A read-only input that is already one is kept without a copy; a writeable
    one is copied, so the caller's array stays writeable and later writes to
    it do not reach the recording. Instances are immutable and safe to share
    between threads.
    """

    nasal: np.ndarray
    oral: np.ndarray
    sample_rate: float
    source_id: str = ""

    def __post_init__(self):
        nasal, oral = (_owned(x) for x in (self.nasal, self.oral))
        if nasal.ndim != 1 or oral.ndim != 1:
            raise ValueError("channels must be one-dimensional")
        if len(nasal) != len(oral):
            raise ValueError(
                f"channel lengths differ: nasal {len(nasal)}, oral {len(oral)}"
            )
        if len(nasal) < 1:
            raise ValueError("recording is empty")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        for name, ch in (("nasal", nasal), ("oral", oral)):
            peak = _peak(ch)
            if not math.isfinite(peak):
                raise ValueError(f"{name} channel contains non-finite samples")
            if peak > 1.0:
                raise ValueError(f"{name} channel exceeds full scale (peak {peak:g})")
        nasal.flags.writeable = False
        oral.flags.writeable = False
        object.__setattr__(self, "nasal", nasal)
        object.__setattr__(self, "oral", oral)

    @property
    def n_samples(self) -> int:
        return len(self.nasal)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


def _owned(x) -> np.ndarray:
    """x as a C-contiguous float64 array; a writeable input is copied, so the
    caller keeps its own array writeable and separate."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr is x and arr.flags.writeable:
        arr = arr.copy()
    return arr


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


def _decode_channels(data: bytes, body: int, size: int, n_channels: int, bits: int, codec):
    """Decode the interleaved data chunk body to one float64 array per channel.

    The samples are read in place from `data`; each channel is written once,
    C-contiguous, by the division that normalizes it.
    """
    dtype, scale = codec
    if bits == 24:
        packed = np.frombuffer(data, np.uint8, size, body).reshape(-1, 3)
        widened = np.zeros((len(packed), 4), dtype=np.uint8)
        widened[:, 1:] = packed
        samples = widened.view(dtype)
    else:
        samples = np.frombuffer(data, dtype, size // np.dtype(dtype).itemsize, body)
    frames = samples.reshape(-1, n_channels)
    return [np.divide(frames[:, c], scale, dtype=np.float64) for c in range(n_channels)]


def _peak(ch: np.ndarray) -> float:
    """Largest |sample|; NaN or infinite when any sample is non-finite.

    One min and one max pass, with no |x| temporary: NaN propagates through
    both, and an infinite sample makes one of them infinite.
    """
    if not len(ch):
        return 0.0
    return max(-float(ch.min()), float(ch.max()))


def read_wav(path, n_channels: int) -> tuple[list[np.ndarray], float]:
    """Read a WAV file of n_channels channels.

    Returns (per-channel normalized samples, sample rate). Any other channel
    count is refused before the data chunk is checked or decoded.
    """
    path = Path(path)
    data = path.read_bytes()
    fmt = None
    fmt_offset = None
    for chunk_id, body, size in _read_chunks(data, path.name):
        if chunk_id == b"fmt ":
            if body + 16 > len(data) or size < 16:
                raise AudioFormatError(
                    f"{path.name}: truncated fmt chunk", byte_offset=body
                )
            fmt = struct.unpack_from("<HHIIHH", data, body)
            fmt_offset = body
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
            if body + size > len(data):
                raise AudioFormatError(
                    f"{path.name}: truncated data chunk "
                    f"(declared {size} bytes, {len(data) - body} available)",
                    byte_offset=len(data),
                )
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
            channels = _decode_channels(data, body, size, n_channels, bits, codec)
            # integer PCM lands in [-1, 1) by construction; only floats can fail
            if audio_format == 3:
                for ch in channels:
                    peak = _peak(ch)
                    if not math.isfinite(peak):
                        raise AudioFormatError(
                            f"{path.name}: non-finite float samples", byte_offset=body
                        )
                    if peak > 1.0:
                        raise AudioFormatError(
                            f"{path.name}: float samples exceed full scale",
                            byte_offset=body,
                        )
            return channels, float(sample_rate)
    if fmt is None:
        raise AudioFormatError(f"{path.name}: no fmt chunk found", byte_offset=len(data))
    raise AudioFormatError(f"{path.name}: no data chunk found", byte_offset=len(data))


def load_stereo(path, channel_map: ChannelMap | None = None) -> StereoRecording:
    """Load one stereo WAV file, assigning channels per the map."""
    channel_map = channel_map or ChannelMap()
    path = Path(path)
    channels, sample_rate = read_wav(path, 2)
    for ch in channels:
        ch.flags.writeable = False  # fresh arrays: StereoRecording keeps them
    by_source = {"left": channels[0], "right": channels[1]}
    return StereoRecording(
        nasal=by_source[channel_map.nasal_source],
        oral=by_source[channel_map.oral_source],
        sample_rate=sample_rate,
        source_id=path.name,
    )


def load_pair(nasal_path, oral_path) -> StereoRecording:
    """Load nasal and oral channels recorded to separate mono files.

    The shorter channel is zero-padded at the end (never truncated) so
    annotation time axes that reference the longer file stay valid; the
    padding is recorded in source_id.
    """
    nasal_path, oral_path = Path(nasal_path), Path(oral_path)
    loaded = {}
    for role, path in (("nasal", nasal_path), ("oral", oral_path)):
        channels, rate = read_wav(path, 1)
        loaded[role] = (channels[0], rate)
    nasal, nasal_rate = loaded["nasal"]
    oral, oral_rate = loaded["oral"]
    if nasal_rate != oral_rate:
        raise AudioFormatError(
            f"sample-rate mismatch: {nasal_path.name} is {nasal_rate:g} Hz, "
            f"{oral_path.name} is {oral_rate:g} Hz"
        )
    source_id = f"{nasal_path.name}+{oral_path.name}"
    if len(nasal) != len(oral):
        pad = abs(len(nasal) - len(oral))
        if len(nasal) < len(oral):
            nasal = np.concatenate([nasal, np.zeros(pad)])
            source_id += f"#pad_nasal={pad}"
        else:
            oral = np.concatenate([oral, np.zeros(pad)])
            source_id += f"#pad_oral={pad}"
    nasal.flags.writeable = oral.flags.writeable = False  # kept without a copy
    return StereoRecording(
        nasal=nasal, oral=oral, sample_rate=nasal_rate, source_id=source_id
    )


def write_wav(path, channels, sample_rate, sample_format="float32"):
    """Write a WAV file from per-channel float arrays in [-1, 1].

    sample_format is one of pcm16, pcm24, pcm32, float32. Non-finite samples
    are refused in every format, and float32 samples beyond full scale
    (which read_wav would refuse); integer formats clip out-of-range values.
    """
    key = _SAMPLE_FORMATS.get(sample_format)
    if key is None:
        raise ValueError(f"unknown sample format {sample_format!r}")
    fmt_code, bits = key
    dtype = np.dtype(_CODECS[key][0])
    channels = [np.asarray(ch, dtype=np.float64) for ch in channels]
    n = len(channels[0])
    if any(len(ch) != n for ch in channels):
        raise ValueError("all channels must have equal length")
    interleaved = np.empty(n * len(channels))
    for i, ch in enumerate(channels):
        interleaved[i :: len(channels)] = ch
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

    n_channels = len(channels)
    block_align = n_channels * bits // 8
    byte_rate = int(sample_rate) * block_align
    header = b"RIFF"
    header += struct.pack("<I", 4 + 8 + 16 + 8 + len(payload))
    header += b"WAVEfmt "
    header += struct.pack(
        "<IHHIIHH", 16, fmt_code, n_channels, int(sample_rate), byte_rate,
        block_align, bits,
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
