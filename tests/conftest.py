"""Shared fixture builders.

The TextGrid writers here are deliberately independent of the library's
serializer (different indentation, shortest-repr numbers) so format
round-trips are checked against a second implementation, not against
themselves.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np

import nasalance
from nasalance.audio_io import StereoRecording
from nasalance.textgrid import Interval, IntervalTier

# Child processes (`python -m nasalance`) import the package the tests
# import, also when only pytest's `pythonpath` setting put src/ on the path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(nasalance.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH")) if p
)


def tone_recording(
    duration_s=0.5,
    sample_rate=48000.0,
    f_hz=440.0,
    nasal_amp=0.3,
    oral_amp=0.3,
    source_id="tone",
):
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    carrier = np.sin(2 * np.pi * f_hz * t)
    return StereoRecording(
        nasal=nasal_amp * carrier,
        oral=oral_amp * carrier,
        sample_rate=sample_rate,
        source_id=source_id,
    )


# ---------------------------------------------------------------------------
# TextGrid fixture corpus


_LABELS = ["", "b", "ih", "IH1", "sil", 'say "hi"', "中文", "éé", "two words", "#"]


def random_tiers(seed: int) -> list[IntervalTier]:
    rng = random.Random(seed)
    n_tiers = rng.randint(1, 3)
    tiers = []
    for ti in range(n_tiers):
        start_ms = rng.choice([0, 0, 250])
        t_ms = start_ms
        intervals = []
        for _ in range(rng.randint(1, 12)):
            dur_ms = rng.randint(1, 700)
            intervals.append(
                Interval(t_ms / 1000.0, (t_ms + dur_ms) / 1000.0, rng.choice(_LABELS))
            )
            t_ms += dur_ms
        tiers.append(
            IntervalTier(
                name=f"tier {ti}",
                tmin=start_ms / 1000.0,
                tmax=t_ms / 1000.0,
                intervals=tuple(intervals),
            )
        )
    return tiers


def _q(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


def write_long(tiers, with_point_tier=False) -> str:
    """Long format with tab indentation and shortest-repr numbers."""
    xmin = min(t.tmin for t in tiers)
    xmax = max(t.tmax for t in tiers)
    n = len(tiers) + (1 if with_point_tier else 0)
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {xmin!r}",
        f"xmax = {xmax!r}",
        "tiers? <exists>",
        f"size = {n}",
        "item []:",
    ]
    for i, tier in enumerate(tiers, 1):
        lines += [
            f"\titem [{i}]:",
            '\t\tclass = "IntervalTier"',
            f"\t\tname = {_q(tier.name)}",
            f"\t\txmin = {tier.tmin!r}",
            f"\t\txmax = {tier.tmax!r}",
            f"\t\tintervals: size = {len(tier.intervals)}",
        ]
        for j, iv in enumerate(tier.intervals, 1):
            lines += [
                f"\t\tintervals [{j}]:",
                f"\t\t\txmin = {iv.tmin!r}",
                f"\t\t\txmax = {iv.tmax!r}",
                f"\t\t\ttext = {_q(iv.label)}",
            ]
    if with_point_tier:
        mid = (xmin + xmax) / 2
        lines += [
            f"\titem [{n}]:",
            '\t\tclass = "TextTier"',
            '\t\tname = "clicks"',
            f"\t\txmin = {xmin!r}",
            f"\t\txmax = {xmax!r}",
            "\t\tpoints: size = 1",
            "\t\tpoints [1]:",
            f"\t\t\tnumber = {mid!r}",
            '\t\t\tmark = "click"',
        ]
    return "\n".join(lines) + "\n"


def write_short(tiers, with_point_tier=False) -> str:
    """Short format of the same annotation."""
    xmin = min(t.tmin for t in tiers)
    xmax = max(t.tmax for t in tiers)
    n = len(tiers) + (1 if with_point_tier else 0)
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"{xmin!r}",
        f"{xmax!r}",
        "<exists>",
        f"{n}",
    ]
    for tier in tiers:
        lines += ['"IntervalTier"', _q(tier.name), f"{tier.tmin!r}",
                  f"{tier.tmax!r}", f"{len(tier.intervals)}"]
        for iv in tier.intervals:
            lines += [f"{iv.tmin!r}", f"{iv.tmax!r}", _q(iv.label)]
    if with_point_tier:
        mid = (xmin + xmax) / 2
        lines += ['"TextTier"', '"clicks"', f"{xmin!r}", f"{xmax!r}", "1",
                  f"{mid!r}", '"click"']
    return "\n".join(lines) + "\n"


def corpus_variants() -> list[tuple[str, bytes, bytes]]:
    """(name, long bytes, short bytes) for >= 10 varied fixture files."""
    out = []
    for seed in range(8):
        tiers = random_tiers(seed)
        long_text = write_long(tiers, with_point_tier=(seed % 3 == 0))
        short_text = write_short(tiers, with_point_tier=(seed % 3 == 0))
        if seed % 4 == 0:
            enc = lambda s: s.encode("utf-8")
        elif seed % 4 == 1:
            enc = lambda s: s.encode("utf-16")  # LE with BOM
        elif seed % 4 == 2:
            enc = lambda s: b"\xfe\xff" + s.encode("utf-16-be")
        else:
            enc = lambda s: s.replace("\n", "\r\n").encode("utf-8-sig")
        out.append((f"grid{seed:02d}", enc(long_text), enc(short_text)))
    # hand-picked edge cases on top of the random ones
    quote_tier = IntervalTier(
        "phones", 0.0, 1.0,
        (Interval(0.0, 0.5, 'he said ""'), Interval(0.5, 1.0, '""""')),
    )
    out.append((
        "quotes",
        write_long([quote_tier]).encode("utf-8"),
        write_short([quote_tier]).encode("utf-8"),
    ))
    crlf_tiers = random_tiers(99)
    out.append((
        "crlf_utf16",
        write_long(crlf_tiers).replace("\n", "\r\n").encode("utf-16"),
        write_short(crlf_tiers).replace("\n", "\r\n").encode("utf-16"),
    ))
    return out


# ---------------------------------------------------------------------------
# Alignment fixtures for the pipeline


def make_alignment_tiers(words, seg_s=0.25):
    """Phone and word tiers for a sequence of (word, vowel_phone) items.

    Each word occupies one seg_s slot; its vowel sits at [0.4, 0.6] of the
    slot, so the vowel midpoint is the slot midpoint.
    """
    phone_intervals, word_intervals = [], []
    for k, (word, vowel) in enumerate(words):
        t0 = k * seg_s
        t1 = (k + 1) * seg_s
        v0 = t0 + 0.4 * seg_s
        v1 = t0 + 0.6 * seg_s
        phone_intervals += [
            Interval(t0, v0, "sil"),
            Interval(v0, v1, vowel),
            Interval(v1, t1, "sil"),
        ]
        word_intervals.append(Interval(t0, t1, word))
    tmax = len(words) * seg_s
    return [
        IntervalTier("phone", 0.0, tmax, tuple(phone_intervals)),
        IntervalTier("word", 0.0, tmax, tuple(word_intervals)),
    ]


def segment_envelopes(levels, seg_s=0.25, ramp_s=0.004):
    """Piecewise-linear envelope holding each level for one segment."""
    points = []
    for k, level in enumerate(levels):
        t0 = k * seg_s + (ramp_s if k else 0.0)
        t1 = (k + 1) * seg_s - ramp_s
        points += [(t0, level), (t1, level)]
    return points
