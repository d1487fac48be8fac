"""Per-frame nasalance from an intensity track, and sampling at arbitrary times.

Nasalance is the nasal share of total acoustic amplitude as a percentage:
100 * a_n / (a_n + a_o). Values are computed from the inter-channel dB
difference with the smaller channel in the numerator, which makes two
properties hold bitwise rather than approximately: swapping the channels
maps N to 100 - N, and adding the same constant to both dB tracks (an
intensity reference change) does not move N at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import _owned
from .errors import UndefinedFrameError, UnmeasurableError
from .intensity import DB_CLAMP_FLOOR, IntensityTrack
from .output import _array_rows, _csv_blocks


@dataclass(frozen=True)
class NasalanceTrack:
    """Per-frame nasalance percentage with validity flags.

    Invalid frames (both channels at/below the silence floor) carry NaN and
    must never be averaged in.
    """

    times: np.ndarray
    nasalance_pct: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        # a writeable input is copied, so the caller's arrays stay writeable
        # and later writes to them do not reach the track
        times = _owned(self.times, np.float64)
        pct = _owned(self.nasalance_pct, np.float64)
        valid = _owned(self.valid, bool)
        if not len(times) == len(pct) == len(valid):
            raise ValueError("times, nasalance_pct, valid must have equal length")
        ok = pct[valid]
        if len(ok) and (np.min(ok) < 0.0 or np.max(ok) > 100.0):
            raise ValueError("valid nasalance values outside [0, 100]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nasalance_pct", pct)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return len(self.times)


def nasalance_frame(a_n: float, a_o: float) -> float:
    """Nasalance percentage from linear nasal/oral amplitudes.

    Raises UndefinedFrameError when both amplitudes are zero; callers turn
    that into an invalid frame.
    """
    if a_n < 0 or a_o < 0:
        raise ValueError(f"amplitudes must be non-negative, got ({a_n}, {a_o})")
    total = a_n + a_o
    if total <= 0:
        raise UndefinedFrameError("both channel amplitudes are zero")
    # smaller channel in the numerator so a swap yields exactly 100 - N
    if a_n <= a_o:
        return 100.0 * (a_n / total)
    return 100.0 - 100.0 * (a_o / total)


def nasalance_track(it: IntensityTrack) -> NasalanceTrack:
    """Apply the nasalance ratio of linear RMS amplitudes to every frame of
    an intensity track.

    A frame is valid iff at least one channel is above the configured
    silence floor.
    """
    nasal, oral = it.nasal_db, it.oral_db
    floor = it.config.silence_floor_db
    # two float arrays, pct and r, are all the work space: each step writes
    # in place, with the same operations in the same order as whole-array
    # steps, so every value is bitwise theirs
    pct = np.maximum(nasal, oral)
    valid = pct > floor
    valid &= (nasal > DB_CLAMP_FLOOR) | (oral > DB_CLAMP_FLOOR)
    diff = np.subtract(nasal, oral, out=pct)
    nasal_larger = diff > 0
    r = np.abs(diff)
    np.negative(r, out=r)
    np.divide(r, 20.0, out=r)  # 20 dB per decade of amplitude
    np.power(10.0, r, out=r)
    np.divide(r, np.add(r, 1.0, out=pct), out=r)
    np.multiply(100.0, r, out=r)
    larger = np.subtract(100.0, r, out=r)
    # 100 - larger is exact (Sterbenz), so complementary frames pair up
    # bitwise under a channel swap; costs at most 7e-15 pp
    np.subtract(100.0, larger, out=pct)
    np.copyto(pct, larger, where=nasal_larger)
    # a channel clamped to the floor is exactly silent, not 1e-15
    np.copyto(pct, 0.0, where=nasal <= DB_CLAMP_FLOOR)
    np.copyto(pct, 100.0, where=oral <= DB_CLAMP_FLOOR)
    np.copyto(pct, np.nan, where=~valid)
    pct.flags.writeable = valid.flags.writeable = False  # kept without a copy
    return NasalanceTrack(times=it.times, nasalance_pct=pct, valid=valid)


def _nearest_index(times: np.ndarray, t: float) -> int:
    right = int(np.searchsorted(times, t))
    if right == 0:
        return 0
    if right == len(times):
        return len(times) - 1
    left = right - 1
    # ties break toward the earlier frame
    if t - times[left] <= times[right] - t:
        return left
    return right


def value_at(nt: NasalanceTrack, t: float, method: str = "nearest") -> float:
    """Nasalance at time t by nearest-frame lookup or linear interpolation.

    Raises UnmeasurableError when t falls outside the track (a NaN t does
    too) or when the frame(s) needed are invalid.
    """
    times = nt.times
    if len(times) == 0 or not times[0] <= t <= times[-1]:  # NaN fails too
        raise UnmeasurableError(t, reason="outside-track")
    if method == "nearest":
        i = _nearest_index(times, t)
        if not nt.valid[i]:
            raise UnmeasurableError(t, reason="invalid-frame")
        return float(nt.nasalance_pct[i])
    if method == "linear":
        right = int(np.searchsorted(times, t))
        if right < len(times) and times[right] == t:
            if not nt.valid[right]:
                raise UnmeasurableError(t, reason="invalid-frame")
            return float(nt.nasalance_pct[right])
        left = right - 1
        if not (nt.valid[left] and nt.valid[right]):
            raise UnmeasurableError(t, reason="invalid-frame")
        t0, t1 = times[left], times[right]
        v0, v1 = nt.nasalance_pct[left], nt.nasalance_pct[right]
        return float(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    raise ValueError(f"unknown method {method!r}")


def nasalance_to_csv(nt: NasalanceTrack):
    """CSV text with columns t_s,nasalance_pct,valid, in blocks as they are
    iterated (see output._csv_blocks); invalid rows leave the value field
    empty."""
    lines = ("%.6f,%.6f,1\n" % (t, v) if ok else "%.6f,,0\n" % t
             for t, v, ok in _array_rows(nt.times, nt.nasalance_pct, nt.valid))
    return _csv_blocks(("t_s", "nasalance_pct", "valid"), lines)
