"""Seeded benchmark inputs built with nasalance.synth, plus their oracle.

Every recording is a chain of consonant-vowel-consonant syllables, one word
each, at a fixed 4 syllables per second. Each phone is a plateau of the
nasal/oral envelopes joined to the next by a short linear ramp, so the
expected nasalance of every vowel midpoint and of every frame that lies on
a plateau is known exactly from `nasalance.synth.expected_nasalance`.
Sizes never depend on the seed; only levels, word choice, gains and noise
do, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nasalance.audio_io import write_wav
from nasalance.pipeline import tokens_to_csv
from nasalance.stats import TokenRecord
from nasalance.synth import HarmonicCarrier, SynthSpec, synthesize
from nasalance.textgrid import Interval, IntervalTier, serialize_textgrid

VOWELS = ("AE", "AH", "EH", "EY", "IH")
SYLLABLE_S = 0.25
PHONE_SPLIT = (0.07, 0.18)  # onset / vowel / coda boundaries within a syllable
RAMP_S = 0.005
FILLER_EVERY = 50  # every 50th syllable is the filler "um", absent from the wordlist
CARRIER = HarmonicCarrier(f0_hz=120.0, n_partials=2)
BLEED = 0.02
NOISE_RMS = 1e-4
CONSONANT_AMP = 0.08


@dataclass(frozen=True)
class Effects:
    """Seeded model truth: cell levels, vowel shifts and token jitter."""

    base: dict  # (system, environment) -> nasalance percent
    vowel_shift: dict  # vowel -> percent added to every cell
    jitter_sd: float
    bleed: float = 0.0  # cross-channel bleed of the recordings the tokens come from

    def emm(self, system, environment) -> float:
        """The marginal mean the model should find: vowels weighted equally.

        Coherent bleed b maps every nasalance N to (N + b(100 - N)) / (1 + b),
        an affine map, so it carries over to the means unchanged.
        """
        pct = self.base[system, environment] + float(np.mean(list(self.vowel_shift.values())))
        return (pct + self.bleed * (100.0 - pct)) / (1.0 + self.bleed)


def make_effects(rng, systems, environments, jitter_sd, bleed=0.0) -> Effects:
    base = {
        (s, e): 22.0 + 9.0 * j + 3.0 * i * j + rng.uniform(-2.0, 2.0)
        for i, s in enumerate(systems)
        for j, e in enumerate(environments)
    }
    shift = {v: rng.uniform(-3.0, 3.0) for v in VOWELS}
    return Effects(base=base, vowel_shift=shift, jitter_sd=jitter_sd, bleed=bleed)


def word_label(environment, vowel, k) -> str:
    return f"{environment.replace('_', '')}{vowel.lower()}{k}"


def write_wordlist(path: Path, environments) -> None:
    lines = ["word,vowel,environment"]
    for env in environments:
        for v in VOWELS:
            lines += [f"{word_label(env, v, k)},{v},{env}" for k in range(3)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Session:
    """One recording with its annotation and everything the checks need."""

    name: str
    system: str
    speaker: str
    spec: SynthSpec
    audio: list  # one stereo WAV, or nasal and oral mono WAVs
    textgrid: Path
    n_tokens: int  # vowels of mapped words
    n_fillers: int  # vowels of the unmapped filler word
    n_intervals: int = 0  # TextGrid intervals over both tiers
    gain_db: float = 0.0  # nasal-channel gain applied after synthesis


def _levels(nasalance_pct, amplitude):
    a_n = amplitude * nasalance_pct / 100.0
    return a_n, amplitude - a_n


def build_session(rng, workdir: Path, name, *, duration_s, sample_rate, system,
                  speaker, environments, effects, sample_format, mono_pair,
                  gain_db) -> Session:
    n_syll = int(round(duration_s / SYLLABLE_S))
    phones, words, nasal_env, oral_env = [], [], [], []
    n_tokens = n_fillers = 0
    for k in range(n_syll):
        t0 = k * SYLLABLE_S
        cuts = (t0, t0 + PHONE_SPLIT[0], t0 + PHONE_SPLIT[1], t0 + SYLLABLE_S)
        if k % FILLER_EVERY == FILLER_EVERY - 1:
            word, env, vowel = "um", "oral", "AH"
            n_fillers += 1
        else:
            env = environments[rng.integers(len(environments))]
            vowel = VOWELS[rng.integers(len(VOWELS))]
            word = word_label(env, vowel, int(rng.integers(3)))
            n_tokens += 1
        vowel_pct = (effects.base[system, env] + effects.vowel_shift[vowel]
                     + rng.normal(0.0, effects.jitter_sd))
        onset_pct = 70.0 if env in ("nasal_onset", "nasal_both") else 10.0
        coda_pct = 70.0 if env in ("nasal_coda", "nasal_both") else 10.0
        levels = (
            _levels(onset_pct, CONSONANT_AMP),
            _levels(float(np.clip(vowel_pct, 1.0, 99.0)), rng.uniform(0.15, 0.3)),
            _levels(coda_pct, CONSONANT_AMP),
        )
        labels = ("N" if onset_pct > 50 else "B", vowel + "1", "M" if coda_pct > 50 else "D")
        for (a, b), label, (a_n, a_o) in zip(zip(cuts, cuts[1:]), labels, levels):
            phones.append(Interval(a, b, label))
            nasal_env += [(a + RAMP_S, a_n), (b - RAMP_S, a_n)]
            oral_env += [(a + RAMP_S, a_o), (b - RAMP_S, a_o)]
        words.append(Interval(t0, cuts[-1], word))
    total = n_syll * SYLLABLE_S
    spec = SynthSpec(
        duration_s=total, sample_rate=sample_rate, carrier=CARRIER,
        nasal_env=nasal_env, oral_env=oral_env, bleed=BLEED,
        noise_rms=NOISE_RMS, seed=int(rng.integers(2**31)),
    )
    textgrid = workdir / f"{name}.TextGrid"
    textgrid.write_text(serialize_textgrid([
        IntervalTier("phones", 0.0, total, tuple(phones)),
        IntervalTier("words", 0.0, total, tuple(words)),
    ]), encoding="utf-8")
    audio = _render(spec, workdir, name, sample_format, mono_pair, gain_db)
    return Session(name=name, system=system, speaker=speaker, spec=spec,
                   audio=audio, textgrid=textgrid, n_tokens=n_tokens,
                   n_fillers=n_fillers, n_intervals=len(phones) + len(words),
                   gain_db=gain_db)


def _render(spec, workdir, name, sample_format, mono_pair, gain_db) -> list:
    rec, _ = synthesize(spec, truth_times=())
    nasal = rec.nasal * 10.0 ** (gain_db / 20.0) if gain_db else rec.nasal
    oral = rec.oral
    sr = spec.sample_rate
    if mono_pair:
        paths = [workdir / f"{name}.nasal.wav", workdir / f"{name}.oral.wav"]
        write_wav(paths[0], [nasal], sr, sample_format)
        write_wav(paths[1], [oral], sr, sample_format)
        return paths
    path = workdir / f"{name}.wav"
    write_wav(path, [nasal, oral], sr, sample_format)
    return [path]


def build_calibration_take(rng, workdir: Path, name, *, duration_s, sample_rate,
                           sample_format, mono_pair, gain_db) -> Session:
    """Same stimulus into both microphones; only the nasal gain differs."""
    level = [(0.0, rng.uniform(0.15, 0.25))]
    spec = SynthSpec(duration_s=duration_s, sample_rate=sample_rate,
                     carrier=CARRIER, nasal_env=level, oral_env=level,
                     noise_rms=NOISE_RMS, seed=int(rng.integers(2**31)))
    audio = _render(spec, workdir, name, sample_format, mono_pair, gain_db)
    return Session(name=name, system="", speaker="", spec=spec, audio=audio,
                   textgrid=None, n_tokens=0, n_fillers=0, gain_db=gain_db)


@dataclass
class Fixture:
    """A workload's generated inputs and the truth its checks compare to."""

    workdir: Path
    wordlist: Path | None = None
    sessions: list = field(default_factory=list)
    calibration: dict = field(default_factory=dict)  # system -> Session
    effects: Effects | None = None
    tokens_csv: Path | None = None
    cell_means: dict = field(default_factory=dict)  # (system, env) -> mean of CSV values
    n_tokens: int = 0

    def sizes(self) -> dict:
        paths = [p for s in self.sessions + list(self.calibration.values()) for p in s.audio]
        paths += [s.textgrid for s in self.sessions]
        paths += [p for p in (self.wordlist, self.tokens_csv) if p is not None]
        every = self.sessions + list(self.calibration.values())
        return {
            "bytes": sum(p.stat().st_size for p in paths),
            "audio_s": sum(s.spec.duration_s for s in every),
            "samples": sum(int(round(s.spec.duration_s * s.spec.sample_rate)) for s in every),
            "intervals": sum(s.n_intervals for s in self.sessions),
            "tokens": self.n_tokens or sum(s.n_tokens for s in self.sessions),
        }


LONG_ENVS = ("nasal_coda", "nasal_onset", "oral")
POOLED_ENVS = ("nasal_both", "nasal_coda", "nasal_onset", "oral")
SYSTEMS = ("A", "B")


def long_session(seed, workdir: Path, scale=1.0) -> Fixture:
    """One 10-min, 48 kHz stereo pcm16 take with a dense alignment."""
    rng = np.random.default_rng([seed, 1])
    effects = make_effects(rng, ("A",), LONG_ENVS, jitter_sd=4.0, bleed=BLEED)
    fx = Fixture(workdir=workdir, wordlist=workdir / "words.csv", effects=effects)
    write_wordlist(fx.wordlist, LONG_ENVS)
    fx.sessions.append(build_session(
        rng, workdir, "take", duration_s=600.0 * scale, sample_rate=48000.0,
        system="A", speaker="s1", environments=LONG_ENVS, effects=effects,
        sample_format="pcm16", mono_pair=False, gain_db=0.0))
    return fx


def study_batch(seed, workdir: Path, scale=1.0) -> Fixture:
    """2 systems x 2 speakers of 30 s, one calibration take per system.

    System A records stereo pcm24 at 48 kHz; system B records nasal/oral
    mono float32 pairs at 44.1 kHz (a fractional 8 ms hop). Each system's
    nasal microphone has its own seeded gain error for calibration to undo.
    """
    rng = np.random.default_rng([seed, 2])
    effects = make_effects(rng, SYSTEMS, LONG_ENVS, jitter_sd=2.0, bleed=BLEED)
    fx = Fixture(workdir=workdir, wordlist=workdir / "words.csv", effects=effects)
    write_wordlist(fx.wordlist, LONG_ENVS)
    formats = {"A": ("pcm24", False, 48000.0), "B": ("float32", True, 44100.0)}
    for system, (sample_format, mono_pair, sr) in formats.items():
        gain_db = float(rng.uniform(-2.0, 2.0))
        fx.calibration[system] = build_calibration_take(
            rng, workdir, f"cal{system}", duration_s=5.0 * scale, sample_rate=sr,
            sample_format=sample_format, mono_pair=mono_pair, gain_db=gain_db)
        for speaker in ("s1", "s2"):
            fx.sessions.append(build_session(
                rng, workdir, f"{system}-{speaker}", duration_s=30.0 * scale,
                sample_rate=sr, system=system, speaker=speaker,
                environments=LONG_ENVS, effects=effects,
                sample_format=sample_format, mono_pair=mono_pair, gain_db=gain_db))
    return fx


def pooled_stats(seed, workdir: Path, scale=1.0) -> Fixture:
    """A balanced 120k-token CSV: 2 systems x 4 environments x 5 vowels."""
    rng = np.random.default_rng([seed, 3])
    effects = make_effects(rng, SYSTEMS, POOLED_ENVS, jitter_sd=5.0)
    reps = max(2, int(round(3000 * scale)))
    cells = [(s, e, v) for s in SYSTEMS for e in POOLED_ENVS for v in VOWELS]
    idx = np.repeat(np.arange(len(cells)), reps)
    truth = np.array([effects.base[s, e] + effects.vowel_shift[v] for s, e, v in cells])
    values = np.round(np.clip(truth[idx] + rng.normal(0.0, effects.jitter_sd, len(idx)),
                              0.0, 100.0), 6)
    order = rng.permutation(len(idx))
    records = []
    for row, i in enumerate(order):
        s, e, v = cells[idx[i]]
        records.append(TokenRecord(
            source_id=f"pool{s}", speaker=f"sp{row % 8}", system=s,
            word=word_label(e, v, row % 3), vowel=v, environment=e,
            t_mid_s=(row % 2400) * SYLLABLE_S + 0.125, nasalance_pct=float(values[i])))
    fx = Fixture(workdir=workdir, effects=effects, tokens_csv=workdir / "tokens.csv",
                 n_tokens=len(idx))
    fx.tokens_csv.write_text(tokens_to_csv(records), encoding="utf-8")
    cell = idx // len(VOWELS)  # cells run system, environment, vowel fastest
    means = np.bincount(cell, values) / np.bincount(cell)
    for k, (s, e, _) in enumerate(cells[::len(VOWELS)]):
        fx.cell_means[s, e] = float(means[k])
    return fx


BUILDERS = {"long_session": long_session, "study_batch": study_batch,
            "pooled_stats": pooled_stats}
