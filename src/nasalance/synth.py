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

from .audio_io import StereoRecording, _check_rate, _Held, _owned, _peak
from .errors import SynthSpecError, named, reason
from .output import _array_rows, _csv_blocks

# the most frames of a float32 stereo WAV: write_wav refuses a 4-GiB data chunk
_MAX_FRAMES = (2**32 - 37) // 8
# synthesize's block grid, a seed and carrier contract: a noise stream per
# (channel, block), and the carrier's phase anchored at each block's start
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
        times, pct = (_owned(x, np.float64) for x in (self.times, self.expected_nasalance_pct))
        if len(times) != len(pct):
            raise ValueError("times and values must have equal length")
        if len(pct) and (np.min(pct) < 0.0 or np.max(pct) > 100.0):
            raise ValueError("expected nasalance outside [0, 100]")
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
        c, nyquist = self.carrier, self.sample_rate / 2.0
        if not isinstance(c, (SineCarrier, HarmonicCarrier)):
            raise SynthSpecError(f"unknown carrier {c!r}")
        what, f = ("frequency", c.f_hz) if isinstance(c, SineCarrier) else ("f0", c.f0_hz)
        if not 0 < f < nyquist:
            raise SynthSpecError(f"carrier {what} {f} Hz outside (0, {nyquist:g})")
        if isinstance(c, HarmonicCarrier):
            _check_integer("n_partials", c.n_partials, 1)
        if not 0 <= self.bleed < 1:
            raise SynthSpecError(f"bleed must be in [0, 1), got {self.bleed}")
        if self.noise_rms < 0:
            raise SynthSpecError(f"noise_rms must be >= 0, got {self.noise_rms}")
        _check_integer("seed", self.seed, 0)
        for name in ("nasal_env", "oral_env"):
            object.__setattr__(self, name, _validate_envelope(getattr(self, name), name))


def _breakpoints(env) -> tuple[np.ndarray, np.ndarray]:
    """An envelope's breakpoint times and amplitudes, for np.interp."""
    return np.array([t for t, _ in env]), np.array([a for _, a in env])


def _carrier(carrier, sr, m):
    """into(raw, a, scratch) writes the raw carrier of the block at sample a
    into raw, with no sin per sample: a table of f0's angle, turned by the
    block's start angle, gives sin(x) and 2cos(x), and sin(kx) =
    2cos(x)sin((k-1)x) - sin((k-2)x). Angles are reduced to one cycle, a
    block's exactly (a*f0/sr = a*p/q). scratch: 4 block buffers."""
    f0, count = ((carrier.f_hz, 1) if isinstance(carrier, SineCarrier)
                 else (carrier.f0_hz, carrier.n_partials))
    phi = 2 * math.pi * (np.fmod(np.arange(m) * f0, sr) / sr)
    table = np.cos(phi), np.sin(phi)
    p, q = float(f0).as_integer_ratio()
    q *= round(sr)

    def into(raw, a, scratch):
        cos_phi, sin_phi = (x[: len(raw)] for x in table)
        two_cos, s, prev, tmp = scratch[:, : len(raw)]
        theta = 2 * math.pi * (a * p % q / q)
        sin_a, cos_a = math.sin(theta), math.cos(theta)
        np.multiply(sin_a, cos_phi, out=raw)
        raw += np.multiply(cos_a, sin_phi, out=tmp)
        np.multiply(2 * cos_a, cos_phi, out=two_cos)
        two_cos -= np.multiply(2 * sin_a, sin_phi, out=tmp)
        np.copyto(s, raw)
        prev.fill(0.0)
        for k in range(2, count + 1):
            if k * f0 >= sr / 2:  # past the Nyquist rate
                break
            np.subtract(np.multiply(two_cos, s, out=tmp), prev, out=prev)
            s, prev = prev, s
            raw += np.divide(s, k, out=tmp)

    return into


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
    times, pct = times[keep], pct[keep]
    times.flags.writeable = pct.flags.writeable = False  # kept without a copy
    return GroundTruth(times=times, expected_nasalance_pct=pct)


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
    """Render the spec to a recording plus its ground truth (truth_times
    defaults to a millisecond grid).

    Two threads fill the channels block by block: the raw carrier, its phase
    anchored per 2**16-sample block, into oral and its square (for the RMS)
    into nasal; then envelopes, unit-RMS carrier, noise and peak. Channel c's
    (0 nasal, 1 oral) noise in block k comes from SeedSequence(seed,
    spawn_key=(c, k)).
    """
    n = int(round(spec.duration_s * spec.sample_rate))  # 1 to _MAX_FRAMES
    sr, bleed, m = spec.sample_rate, spec.bleed, min(n, _NOISE_BLOCK)
    nasal, oral = np.empty(n), np.empty(n)
    carrier_into = _carrier(spec.carrier, sr, m)

    def carrier(blocks):
        scratch = np.empty((4, m))
        for a, b in blocks:
            carrier_into(oral[a:b], a, scratch)
            np.multiply(oral[a:b], oral[a:b], out=nasal[a:b])

    _in_two_threads(carrier, n)
    # the mean of the whole square, as NumPy's pairwise sum gives it
    rms = np.sqrt(np.mean(nasal))
    if rms <= 0:
        raise SynthSpecError("carrier is silent")
    nasal_bp, oral_bp = _breakpoints(spec.nasal_env), _breakpoints(spec.oral_env)
    peaks = []

    def render(blocks):
        z = np.empty(m)
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
    rec = StereoRecording._over(_Held(nasal, oral), 0, n, sr, "synth")
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
