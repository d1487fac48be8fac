"""The CLI calls of one pass of each workload, and the checks on their outputs.

A check returns a list of problems; an empty list means the output is
correct. Each check compares against the fixture's oracle, never against
an earlier output of the program.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nasalance.synth import expected_nasalance

import fixtures

TOKEN_TOL_PP = 0.1  # a vowel-midpoint token against the analytic truth
TRACK_TOL_PP = 0.1  # a frame whose whole window lies on one envelope plateau
GAIN_TOL_DB = 0.05  # estimated calibration offset against the applied gain
REPORT_TOL = 1e-5  # a contrast against the EMMs it is built from (9 significant digits)
SIGMAS = 6.0  # a seeded effect must lie within this many reported standard errors
TOKEN_HEADER = ["source_id", "speaker", "system", "word", "vowel", "environment",
                "t_mid_s", "nasalance_pct"]
RESULTS_HEADER = ["contrast", "estimate", "se", "t", "df", "p", "p_adj"]
EMM_HEADER = ["system", "environment", "emm", "se"]
FRAME_MS, STEP_MS = 32.0, 8.0  # the CLI defaults the track check assumes


@dataclass
class Call:
    """One `nasalance <subcommand> ...` invocation and how to judge it."""

    subcommand: str
    argv: list
    outputs: list  # files whose bytes must repeat in every pass
    check: Callable[[], list]
    audio_s: float = 0.0  # recorded seconds the call reads
    tokens: int = 0  # token rows the call reads (stats)
    before: Callable | None = field(default=None, repr=False)  # harness step inside the pass


def _rows(path: Path, header, problems) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        problems.append(f"{path.name}: header {rows[:1]} != {header}")
        return []
    bad = [i + 2 for i, r in enumerate(rows[1:]) if len(r) != len(header)]
    if bad:
        problems.append(f"{path.name}: rows {bad[:5]} do not have {len(header)} fields")
        return []
    return rows[1:]


def check_tokens(session, tokens_path: Path, rejects_path: Path) -> list:
    problems = []
    rows = _rows(tokens_path, TOKEN_HEADER, problems)
    rejects = _rows(rejects_path, TOKEN_HEADER[:-1] + ["reason"], problems)
    if problems:
        return problems
    if len(rows) != session.n_tokens:
        problems.append(f"{len(rows)} tokens, expected {session.n_tokens}")
    if len(rejects) != session.n_fillers or any(r[-1] != "unmapped word" for r in rejects):
        problems.append(f"{len(rejects)} rejects, expected {session.n_fillers} unmapped words")
    if any(r[1] != session.speaker or r[2] != session.system for r in rows):
        problems.append("speaker or system column differs from the flags")
    if not rows:
        return problems + ["no tokens"]
    t = np.array([float(r[6]) for r in rows])
    value = np.array([float(r[7]) for r in rows])
    mid = fixtures.SYLLABLE_S * np.round((t - 0.125) / fixtures.SYLLABLE_S) + 0.125
    if np.max(np.abs(t - mid)) > 1e-6:
        problems.append("token times are not the vowel midpoints")
    err = np.abs(value - expected_nasalance(session.spec, t))
    if not err.max() <= TOKEN_TOL_PP:
        i = int(np.argmax(err))
        problems.append(f"token at {t[i]:.6f} s is {value[i]:.6f}, off by {err[i]:.4f} pp")
    return problems


def plateau_frames(spec, times) -> np.ndarray:
    """Frames whose analysis window lies on one flat stretch of both envelopes."""
    bp = np.array([t for t, _ in spec.nasal_env])  # (start, end) per phone plateau
    half = FRAME_MS / 2000.0
    j = np.searchsorted(bp, times - half, side="right") - 1
    j_next = np.minimum(j + 1, len(bp) - 1)
    return (j >= 0) & (j % 2 == 0) & (bp[j_next] >= times + half)


def check_track(session, path: Path) -> list:
    text = path.read_text(encoding="utf-8").splitlines()
    if not text or text[0] != "t_s,nasalance_pct,valid":
        return [f"{path.name}: bad header {text[:1]}"]
    fields = [line.split(",") for line in text[1:]]
    if any(len(f) != 3 for f in fields):
        return [f"{path.name}: a row does not have 3 fields"]
    spec = session.spec
    frame_len = int(round(FRAME_MS * spec.sample_rate / 1000.0))
    n = int(round(spec.duration_s * spec.sample_rate))
    hop = STEP_MS * spec.sample_rate / 1000.0
    n_frames = int(np.floor((n - frame_len) / hop)) + 1
    if len(fields) != n_frames:
        return [f"{len(fields)} frames, expected {n_frames}"]
    t = np.array([float(f[0]) for f in fields])
    valid = np.array([f[2] == "1" for f in fields])
    value = np.array([float(f[1]) if f[2] == "1" else np.nan for f in fields])
    inner = plateau_frames(spec, t)
    problems = []
    if inner.sum() < 0.4 * n_frames:  # plateaus leave 124 ms of each 250 ms syllable
        problems.append(f"only {inner.sum()} of {n_frames} frames on plateaus")
    if not valid[inner].all():
        problems.append("a plateau frame is marked invalid")
    err = np.abs(value[inner] - expected_nasalance(spec, t[inner]))
    if not err.max() <= TRACK_TOL_PP:
        i = int(np.nanargmax(err))
        problems.append(f"frame at {t[inner][i]:.6f} s off by {err[i]:.4f} pp")
    return problems


def check_profile(take, path: Path) -> list:
    try:
        offset = float(json.loads(path.read_text(encoding="utf-8"))["gain_offset_db"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: {exc}"]
    if abs(offset - take.gain_db) > GAIN_TOL_DB:
        return [f"gain offset {offset:+.4f} dB, applied {take.gain_db:+.4f} dB"]
    return []


_PAIR = re.compile(r"^(?P<sys>[^:]+): (?P<i>\S+) - (?P<j>\S+)$")
_DOD = re.compile(r"^\((?P<i>\S+) - (?P<j>\S+)\): (?P<a>\S+) - (?P<b>\S+)$")


def check_stats(effects, results: Path, emm_path: Path, cell_means=None) -> list:
    """EMMs and contrasts recover the seeded effects and agree with each other.

    With `cell_means` (a balanced design) every EMM must also equal its
    cell's arithmetic mean.
    """
    problems = []
    emm_rows = _rows(emm_path, EMM_HEADER, problems)
    result_rows = _rows(results, RESULTS_HEADER, problems)
    if problems:
        return problems
    emm = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in emm_rows}
    if set(emm) != set(effects.base):
        return [f"EMM cells {sorted(emm)} != {sorted(effects.base)}"]
    for cell, (value, se) in emm.items():
        truth = effects.emm(*cell)
        if abs(value - truth) > SIGMAS * se + TOKEN_TOL_PP:
            problems.append(f"EMM {cell} = {value:.4f}, seeded {truth:.4f} (se {se:.4f})")
        if cell_means is not None and abs(value - cell_means[cell]) > REPORT_TOL:
            problems.append(f"EMM {cell} = {value!r}, balanced cell mean {cell_means[cell]!r}")
    systems = sorted({s for s, _ in effects.base})
    envs = sorted({e for _, e in effects.base})
    expected_rows = len(systems) * len(envs) * (len(envs) - 1) // 2
    if len(systems) == 2:
        expected_rows += len(envs) * (len(envs) - 1) // 2
    if len(result_rows) != expected_rows:
        problems.append(f"{len(result_rows)} contrast rows, expected {expected_rows}")
    for row in result_rows:
        estimate, se = float(row[1]), float(row[2])
        p, p_adj = float(row[5]), float(row[6])
        if not (0.0 <= p <= p_adj <= 1.0):
            problems.append(f"{row[0]}: p {p} / p_adj {p_adj} out of order")
        if m := _DOD.match(row[0]):
            cells = [((m["a"], m["i"]), 1.0), ((m["a"], m["j"]), -1.0),
                     ((m["b"], m["i"]), -1.0), ((m["b"], m["j"]), 1.0)]
        elif m := _PAIR.match(row[0]):
            cells = [((m["sys"], m["i"]), 1.0), ((m["sys"], m["j"]), -1.0)]
        else:
            problems.append(f"unrecognised contrast {row[0]!r}")
            continue
        if any(c not in emm for c, _ in cells):
            problems.append(f"{row[0]}: unknown cell")
            continue
        from_emm = sum(w * emm[c][0] for c, w in cells)
        truth = sum(w * effects.emm(*c) for c, w in cells)
        if abs(estimate - from_emm) > REPORT_TOL * (1.0 + abs(from_emm)):
            problems.append(f"{row[0]}: {estimate!r} != EMM difference {from_emm!r}")
        if abs(estimate - truth) > SIGMAS * se + 2 * TOKEN_TOL_PP:
            problems.append(f"{row[0]}: {estimate:.4f}, seeded {truth:.4f} (se {se:.4f})")
    return problems


def _audio_args(session) -> list:
    if len(session.audio) == 2:
        return [str(session.audio[0]), "--oral", str(session.audio[1])]
    return [str(session.audio[0])]


def _analyze(session, wordlist, out: Path, extra=()) -> Call:
    rejects = out.with_name(out.stem + ".rejects.csv")
    argv = ["analyze", *_audio_args(session), str(session.textgrid),
            "--wordlist", str(wordlist), "--out", str(out),
            "--speaker", session.speaker, "--system", session.system, *extra]
    return Call("analyze", argv, [out, rejects],
                lambda: check_tokens(session, out, rejects),
                audio_s=session.spec.duration_s)


def long_session_calls(fx, out: Path) -> list:
    take = fx.sessions[0]
    track = out / "track.csv"
    return [
        _analyze(take, fx.wordlist, out / "tokens.csv"),
        Call("track", ["track", str(take.audio[0]), "--out", str(track)], [track],
             lambda: check_track(take, track), audio_s=take.spec.duration_s),
    ]


def _pool(parts, pooled: Path) -> None:
    lines = []
    for i, part in enumerate(parts):
        text = part.read_text(encoding="utf-8").splitlines()
        lines += text if i == 0 else text[1:]
    pooled.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _stats(fx, tokens: Path, out: Path, n_tokens, before=None, cell_means=None) -> Call:
    results, emm = out / "results.csv", out / "emm.csv"
    argv = ["stats", str(tokens), "--out", str(results), "--emm-out", str(emm)]
    return Call("stats", argv, [results, emm],
                lambda: check_stats(fx.effects, results, emm, cell_means),
                tokens=n_tokens, before=before)


def study_batch_calls(fx, out: Path) -> list:
    calls = []
    profiles = {}
    for system, take in fx.calibration.items():
        profiles[system] = out / f"cal{system}.json"
        calls.append(Call(
            "calibrate", ["calibrate", *_audio_args(take), "--out", str(profiles[system])],
            [profiles[system]],
            lambda take=take, path=profiles[system]: check_profile(take, path),
            audio_s=take.spec.duration_s))
    parts = []
    for session in fx.sessions:
        parts.append(out / f"{session.name}.tokens.csv")
        calls.append(_analyze(
            session, fx.wordlist, parts[-1],
            ["--calibration", str(profiles[session.system]), "--bandpass", "60:4000"]))
    pooled = out / "pooled.csv"
    n_tokens = sum(s.n_tokens for s in fx.sessions)
    calls.append(_stats(fx, pooled, out, n_tokens, before=lambda: _pool(parts, pooled)))
    return calls


def pooled_stats_calls(fx, out: Path) -> list:
    return [_stats(fx, fx.tokens_csv, out, fx.n_tokens, cell_means=fx.cell_means)]


CALLS = {"long_session": long_session_calls, "study_batch": study_batch_calls,
         "pooled_stats": pooled_stats_calls}
