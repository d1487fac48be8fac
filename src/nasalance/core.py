"""Per-frame nasalance from an intensity track, and sampling at arbitrary times.

Nasalance is the nasal share of total acoustic amplitude as a percentage:
100 * a_n / (a_n + a_o). Values are computed from the inter-channel dB
difference with the smaller channel in the numerator, which makes two
properties hold bitwise rather than approximately: swapping the channels
maps N to 100 - N, and adding the same constant to both dB tracks (an
intensity reference change) does not move N at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import _owned
from .errors import UndefinedFrameError, UnmeasurableError
from .intensity import DB_CLAMP_FLOOR, IntensityTrack
from .output import _array_rows, _csv_blocks


@dataclass(frozen=True)
class NasalanceTrack:
    """Per-frame nasalance percentage, NaN where a frame is invalid.

    Invalid frames (both channels at/below the silence floor) carry NaN and
    must never be averaged in; every other value is in [0, 100].
    """

    times: np.ndarray
    nasalance_pct: np.ndarray

    def __post_init__(self):
        # a writeable input is copied, so the caller's arrays stay writeable
        # and later writes to them do not reach the track
        times = _owned(self.times, np.float64)
        pct = _owned(self.nasalance_pct, np.float64)
        if len(times) != len(pct):
            raise ValueError("times and nasalance_pct must have equal length")
        # fmin and fmax skip NaN: an all-NaN track reduces to NaN and passes
        if len(pct) and (np.fmin.reduce(pct) < 0.0 or np.fmax.reduce(pct) > 100.0):
            raise ValueError("valid nasalance values outside [0, 100]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nasalance_pct", pct)

    @property
    def valid(self) -> np.ndarray:
        """The frames that hold a value: those not NaN."""
        return ~np.isnan(self.nasalance_pct)

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
    silence floor and the clamp floor (IntensityTrack.valid_frames); every
    other frame is NaN.
    """
    nasal, oral = it.nasal_db, it.oral_db
    # two float arrays, pct and r, are all the work space: each step writes
    # in place, with the same operations in the same order as whole-array
    # steps, so every value is bitwise theirs
    pct = np.subtract(nasal, oral)
    nasal_larger = pct > 0
    r = np.abs(pct)
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
    np.copyto(pct, np.nan, where=~it.valid_frames())
    pct.flags.writeable = False  # kept without a copy
    return NasalanceTrack(times=it.times, nasalance_pct=pct)


def value_at(nt: NasalanceTrack, t: float, method: str = "nearest") -> float:
    """Nasalance at time t by nearest-frame lookup or linear interpolation.

    A frame centred exactly at t is the only one either method reads;
    otherwise nearest takes the closer of the two frames around t (the
    earlier on a tie) and linear interpolates between them. Raises
    UnmeasurableError when t falls outside the track (a NaN t does too) or
    a frame read is invalid (NaN).
    """
    times = nt.times
    if len(times) == 0 or not times[0] <= t <= times[-1]:  # NaN fails too
        raise UnmeasurableError(t, reason="outside-track")
    right = int(np.searchsorted(times, t))  # t is in the track: a frame is at or after it
    left = right if times[right] == t else right - 1
    t0, t1 = times[left], times[right]
    if method == "nearest":
        left = right = left if t - t0 <= t1 - t else right
    elif method != "linear":
        raise ValueError(f"unknown method {method!r}")
    v0, v1 = nt.nasalance_pct[left], nt.nasalance_pct[right]
    if math.isnan(v0) or math.isnan(v1):
        raise UnmeasurableError(t, reason="invalid-frame")
    return float(v1 if left == right else v0 + (v1 - v0) * (t - t0) / (t1 - t0))


def nasalance_to_csv(nt: NasalanceTrack):
    """CSV text with columns t_s,nasalance_pct,valid, in blocks as they are
    iterated (see output._csv_blocks); invalid (NaN) rows leave the value
    field empty."""
    lines = ("%.6f,,0\n" % t if math.isnan(v) else "%.6f,%.6f,1\n" % (t, v)
             for t, v in _array_rows(nt.times, nt.nasalance_pct))
    return _csv_blocks(("t_s", "nasalance_pct", "valid"), lines)
