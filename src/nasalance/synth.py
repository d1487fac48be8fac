"""Synthetic two-channel recordings with analytically known nasalance.

Both channels share one carrier scaled by piecewise-linear envelopes, with
optional coherent cross-bleed and per-channel white noise. Coherent bleed
(same carrier in both channels) is the worst case for separation and keeps
the ground truth exact:

    emitted nasal = (a_n + b*a_o) * c(t)
    emitted oral  = (a_o + b*a_n) * c(t)
    truth = 100 * (a_n + b*a_o) / ((a_n + b*a_o) + (a_o + b*a_n))

Everything is deterministic given the spec (the noise seed is part of it).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import StereoRecording, _check_rate, _Held, _peak
from .errors import SynthSpecError, named, reason
from .output import _array_rows, _csv_blocks

# the most frames of a float32 stereo WAV: write_wav refuses a 4-GiB data chunk
_MAX_FRAMES = (2**32 - 37) // 8
# synthesize's block grid, a seed contract: a noise stream per (channel, block)
_NOISE_BLOCK = 2**16


@dataclass(frozen=True)
class SineCarrier:
    f_hz: float


@dataclass(frozen=True)
class HarmonicCarrier:
    f0_hz: float
    n_partials: int


@dataclass(frozen=True)
class GroundTruth:
    """Expected nasalance percentages at chosen times."""

    times: np.ndarray
    expected_nasalance_pct: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        pct = np.asarray(self.expected_nasalance_pct, dtype=np.float64)
        if len(times) != len(pct):
            raise ValueError("times and values must have equal length")
        if len(pct) and (np.min(pct) < 0.0 or np.max(pct) > 100.0):
            raise ValueError("expected nasalance outside [0, 100]")
        times.flags.writeable = False
        pct.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "expected_nasalance_pct", pct)


def _check_integer(name, value, least):
    """Refuse a value that is not an integer (operator.index: 2.9 is not
    truncated to 2) or is below `least`."""
    try:
        operator.index(value)
    except TypeError:
        raise SynthSpecError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise SynthSpecError(f"{name} must be >= {least}, got {value}")


def _validate_envelope(env, name):
    env = tuple((float(t), float(a)) for t, a in env)
    if not env:
        raise SynthSpecError(f"{name} has no breakpoints")
    if not all(math.isfinite(t) and math.isfinite(a) for t, a in env):
        raise SynthSpecError(f"{name} breakpoints must be finite")
    times = [t for t, _ in env]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise SynthSpecError(f"{name} breakpoints must be strictly increasing")
    if any(a < 0 for _, a in env):
        raise SynthSpecError(f"{name} amplitudes must be non-negative")
    return env


@dataclass(frozen=True)
class SynthSpec:
    duration_s: float
    sample_rate: float
    carrier: SineCarrier | HarmonicCarrier
    nasal_env: tuple
    oral_env: tuple
    bleed: float = 0.0
    noise_rms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("duration_s", "sample_rate", "noise_rms"):
            if not math.isfinite(getattr(self, name)):
                raise SynthSpecError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration_s <= 0:
            raise SynthSpecError(f"duration_s must be > 0, got {self.duration_s}")
        if self.sample_rate <= 0:
            raise SynthSpecError(f"sample_rate must be > 0, got {self.sample_rate}")
        n = self.duration_s * self.sample_rate
        if not (math.isfinite(n) and 1 <= round(n) <= _MAX_FRAMES):
            raise SynthSpecError(f"duration_s {self.duration_s:g} at sample_rate "
                                 f"{self.sample_rate:g} gives {n:.6g} samples; a float32 "
                                 f"stereo WAV holds 1 to {_MAX_FRAMES}")
        _check_rate(self.sample_rate, SynthSpecError)  # before any sample is made
        nyquist = self.sample_rate / 2.0
        if isinstance(self.carrier, SineCarrier):
            if not 0 < self.carrier.f_hz < nyquist:
                raise SynthSpecError(f"carrier frequency {self.carrier.f_hz} Hz "
                                     f"outside (0, {nyquist:g})")
        elif isinstance(self.carrier, HarmonicCarrier):
            if not 0 < self.carrier.f0_hz < nyquist:
                raise SynthSpecError(f"carrier f0 {self.carrier.f0_hz} Hz "
                                     f"outside (0, {nyquist:g})")
            _check_integer("n_partials", self.carrier.n_partials, 1)
        else:
            raise SynthSpecError(f"unknown carrier {self.carrier!r}")
        if not 0 <= self.bleed < 1:
            raise SynthSpecError(f"bleed must be in [0, 1), got {self.bleed}")
        if self.noise_rms < 0:
            raise SynthSpecError(f"noise_rms must be >= 0, got {self.noise_rms}")
        _check_integer("seed", self.seed, 0)
        object.__setattr__(self, "nasal_env",
                           _validate_envelope(self.nasal_env, "nasal_env"))
        object.__setattr__(self, "oral_env",
                           _validate_envelope(self.oral_env, "oral_env"))


def _breakpoints(env) -> tuple[np.ndarray, np.ndarray]:
    """An envelope's breakpoint times and amplitudes, for np.interp."""
    return np.array([t for t, _ in env]), np.array([a for _, a in env])


def _carrier_into(raw, carrier, t, sample_rate, scratch) -> None:
    """Write the carrier at times t, before it is scaled to unit RMS, into raw.

    Partials at or above the Nyquist rate are left out. `scratch` is a
    buffer of t's length.
    """
    if isinstance(carrier, SineCarrier):
        np.sin(np.multiply(2.0 * np.pi * carrier.f_hz, t, out=raw), out=raw)
        return
    raw[:] = 0.0
    for k in range(1, carrier.n_partials + 1):
        f = k * carrier.f0_hz
        if f >= sample_rate / 2.0:
            break
        part = np.sin(np.multiply(2.0 * np.pi * f, t, out=scratch), out=scratch)
        raw += np.divide(part, k, out=part)


def expected_nasalance(spec: SynthSpec, times) -> np.ndarray:
    """Analytic nasalance of the bleed model at given times; NaN where both
    emitted envelopes are zero."""
    times = np.asarray(times, dtype=np.float64)
    a_n = np.interp(times, *_breakpoints(spec.nasal_env))
    a_o = np.interp(times, *_breakpoints(spec.oral_env))
    mix_n = a_n + spec.bleed * a_o
    mix_o = a_o + spec.bleed * a_n
    total = mix_n + mix_o
    with np.errstate(invalid="ignore", divide="ignore"):
        pct = np.where(total > 0, 100.0 * mix_n / total, np.nan)
    return pct


def ground_truth(spec: SynthSpec, times) -> GroundTruth:
    """GroundTruth at the given times, dropping times where it is undefined."""
    times = np.asarray(times, dtype=np.float64)
    pct = expected_nasalance(spec, times)
    keep = np.isfinite(pct)
    return GroundTruth(times=times[keep], expected_nasalance_pct=pct[keep])


def _in_two_threads(work, n: int) -> None:
    """Run work(blocks) in a worker thread and this one, both taking the grid's
    blocks from one queue; NumPy releases the GIL, so the two run side by side."""
    blocks = [(a, min(a + _NOISE_BLOCK, n)) for a in range(0, n, _NOISE_BLOCK)]
    if len(blocks) < 2:
        work(blocks)
        return
    left = [None, None, *reversed(blocks)]  # list.pop is atomic; None ends a share
    # imported here: a child process that never synthesizes keeps it unloaded
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        first = pool.submit(work, iter(left.pop, None))
        try:
            work(iter(left.pop, None))
        finally:
            first.result()


def synthesize(spec: SynthSpec, truth_times=None) -> tuple[StereoRecording, GroundTruth]:
    """Render the spec to a recording plus its ground truth.

    truth_times defaults to a millisecond grid. The two channels are the only
    whole-signal arrays. Two threads render blocks into them: the raw carrier
    into oral and its square into nasal, whose mean gives its RMS, then the
    envelopes, unit-RMS carrier, noise and peak. Channel c's noise (0 nasal,
    1 oral) in block k is drawn from SeedSequence(seed, spawn_key=(c, k)).
    """
    n = int(round(spec.duration_s * spec.sample_rate))  # 1 to _MAX_FRAMES
    sr, bleed = spec.sample_rate, spec.bleed
    nasal, oral = np.empty(n), np.empty(n)

    def carrier(blocks):  # the raw carrier into oral, its square into nasal
        scratch = np.empty(min(n, _NOISE_BLOCK))
        for a, b in blocks:
            _carrier_into(oral[a:b], spec.carrier, np.arange(a, b) / sr, sr,
                          scratch[: b - a])
            np.multiply(oral[a:b], oral[a:b], out=nasal[a:b])

    _in_two_threads(carrier, n)
    # the mean of the whole square, as NumPy's pairwise sum gives it
    rms = np.sqrt(np.mean(nasal))
    if rms <= 0:
        raise SynthSpecError("carrier is silent")
    nasal_bp, oral_bp = _breakpoints(spec.nasal_env), _breakpoints(spec.oral_env)
    peaks = []

    def render(blocks):
        z = np.empty(min(n, _NOISE_BLOCK))
        for a, b in blocks:
            t = np.arange(a, b) / sr
            c = oral[a:b] / rms  # unit RMS over the whole take
            a_n, a_o = np.interp(t, *nasal_bp), np.interp(t, *oral_bp)
            amps = a_n + bleed * a_o, a_o + bleed * a_n
            for channel, (x, amp) in enumerate(zip((nasal, oral), amps)):
                np.multiply(amp, c, out=x[a:b])
                if spec.noise_rms > 0:
                    key = np.random.SeedSequence(spec.seed, spawn_key=(channel, a // _NOISE_BLOCK))
                    rng = np.random.Generator(np.random.PCG64(key))
                    noise = rng.standard_normal(out=z[: b - a])
                    x[a:b] += np.multiply(spec.noise_rms, noise, out=noise)
                peaks.append(_peak(x[a:b]))

    _in_two_threads(render, n)
    peak = np.max(peaks)  # NaN if any block's is
    if not peak <= 1.0:  # NaN and inf come only from amplitudes that overflow
        raise SynthSpecError(f"spec clips: peak amplitude {peak:.4f} > 1")
    nasal.flags.writeable = oral.flags.writeable = False  # kept without a copy
    rec = StereoRecording._over(_Held(nasal, oral), 0, n, sr, "synth", 1.0)
    if truth_times is None:
        truth_times = np.arange(0.0, spec.duration_s, 0.001)
    return rec, ground_truth(spec, truth_times)


def truth_to_csv(gt: GroundTruth):
    """CSV text with columns t_s,expected_nasalance_pct at 6 decimal places,
    in blocks as they are iterated (see output._csv_blocks)."""
    lines = map("%.6f,%.6f\n".__mod__, _array_rows(gt.times, gt.expected_nasalance_pct))
    return _csv_blocks(("t_s", "expected_nasalance_pct"), lines)


def _carrier_from_dict(doc):
    if not isinstance(doc, dict):
        raise SynthSpecError("carrier must be a JSON object")
    kind = doc.get("type")
    if kind == "sine":
        return SineCarrier(f_hz=float(doc["f_hz"]))
    if kind == "harmonic":
        return HarmonicCarrier(f0_hz=float(doc["f0_hz"]), n_partials=doc["n_partials"])
    raise SynthSpecError(f"unknown carrier type {kind!r}")


def spec_from_dict(doc: dict) -> SynthSpec:
    """Build a SynthSpec from a parsed JSON document."""
    try:
        return SynthSpec(
            duration_s=float(doc["duration_s"]),
            sample_rate=float(doc["sample_rate"]),
            carrier=_carrier_from_dict(doc["carrier"]),
            nasal_env=[(float(t), float(a)) for t, a in doc["nasal_env"]],
            oral_env=[(float(t), float(a)) for t, a in doc["oral_env"]],
            bleed=float(doc.get("bleed", 0.0)),
            noise_rms=float(doc.get("noise_rms", 0.0)),
            seed=doc.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SynthSpecError(f"bad synthesis spec: {reason(exc)}") from exc


def load_synth_spec(path) -> SynthSpec:
    """Load a JSON synthesis spec file; a refusal of its content names it."""
    with named(path, SynthSpecError):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as exc:
            raise SynthSpecError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SynthSpecError("spec must be a JSON object")
        return spec_from_dict(doc)
