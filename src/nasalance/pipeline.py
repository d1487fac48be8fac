"""Recording + TextGrid + wordlist to per-token nasalance records.

This is the batch path behind the analyze command: frame the recording,
optionally calibrate, compute the nasalance track, select vowel tokens
from the annotation, and sample each token at its midpoint. Tokens that
cannot be measured are collected as rejects with a reason, never dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .audio_io import StereoRecording
from .calibration import CalibrationProfile, apply_calibration
from .core import nasalance_track, value_at
from .errors import TextGridParseError, TokenSchemaError, UnmeasurableError, WordlistError
from .intensity import BandpassSpec, FrameConfig, bandpass, intensity_track
from .output import _csv_blocks, _quoted
from .stats import TokenRecord
from .textgrid import DEFAULT_VOWEL_LABELS, find_tier, select_vowel_tokens, strip_stress

TOKEN_CSV_HEADER = (
    "source_id", "speaker", "system", "word", "vowel", "environment",
    "t_mid_s", "nasalance_pct",
)
REJECT_CSV_HEADER = TOKEN_CSV_HEADER[:-1] + ("reason",)


@dataclass(frozen=True)
class WordInfo:
    vowel: str
    environment: str


@dataclass(frozen=True)
class RejectRecord:
    """A token that could not be measured, with the reason why."""

    source_id: str
    speaker: str
    system: str
    word: str
    vowel: str
    environment: str
    t_mid_s: float
    reason: str


def _read_rows(path, header, error):
    """Yield ("name:line", fields) for each non-blank row of a CSV file.

    The header row must match `header` (fields stripped) and every row must
    have as many fields; otherwise `error` is raised. A leading UTF-8
    byte-order mark (Excel's "CSV UTF-8") is skipped. The line is the row's
    first physical line, also after a quoted field that spans lines.
    """
    name = Path(path).name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or tuple(h.strip() for h in got) != header:
            raise error(f"{name}: expected header {','.join(header)}, got {got}")
        line = reader.line_num + 1
        for row in reader:
            where, line = f"{name}:{line}", reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise error(f"{where}: expected {len(header)} fields")
            yield where, row


def load_wordlist(path) -> dict[str, WordInfo]:
    """Read a word,vowel,environment CSV into a lowercase word map."""
    mapping = {}
    for where, row in _read_rows(path, ("word", "vowel", "environment"), WordlistError):
        word, vowel, environment = (f.strip() for f in row)
        if not word or not vowel or not environment:
            raise WordlistError(f"{where}: empty field")
        key = word.lower()
        if key in mapping:
            raise WordlistError(f"{where}: duplicate word {word!r}")
        mapping[key] = WordInfo(vowel=vowel, environment=environment)
    return mapping


def extract_token_records(
    rec: StereoRecording,
    tiers,
    wordlist: dict[str, WordInfo],
    *,
    speaker: str,
    system: str,
    vowel_labels=DEFAULT_VOWEL_LABELS,
    frame_cfg: FrameConfig | None = None,
    bandpass_spec: BandpassSpec | None = None,
    calibration_profile: CalibrationProfile | None = None,
    method: str = "nearest",
) -> tuple[list[TokenRecord], list[RejectRecord]]:
    """Measure nasalance at each vowel token midpoint.

    Returns (records, rejects); every selected token lands in exactly one
    of the two lists.
    """
    phone_tier = find_tier(tiers, "phone")
    word_tier = find_tier(tiers, "word")
    tokens = select_vowel_tokens(phone_tier, word_tier, vowel_labels)
    if not tokens:  # case is never folded (X-SAMPA's I and i differ), so name a near miss
        other = {strip_stress(iv.label.strip()) for iv in phone_tier.intervals} - set(vowel_labels)
        for v, p in sorted((v, p) for v in vowel_labels for p in other if p.lower() == v.lower()):
            raise TextGridParseError(f"vowel label {v!r} matches phone {p!r} only up to case")

    if bandpass_spec is not None:
        rec = bandpass(rec, bandpass_spec)
    # only the frames value_at reads at the midpoints are framed
    it = intensity_track(rec, frame_cfg, at=[token.midpoint for token in tokens])
    if calibration_profile is not None:
        it = apply_calibration(it, calibration_profile)
    nt = nasalance_track(it)

    records, rejects = [], []
    for token in tokens:
        info = wordlist.get(token.word.lower()) if token.word else None
        # an unmapped word keeps the TextGrid's vowel and no environment
        fields = (rec.source_id, speaker, system, token.word,
                  info.vowel if info else token.vowel_label,
                  info.environment if info else "", token.midpoint)
        if info is None:
            reason = "unmapped word" if token.word else "empty word interval"
        else:
            try:
                records.append(TokenRecord(*fields, value_at(nt, token.midpoint, method)))
                continue
            except UnmeasurableError as exc:
                reason = ("midpoint outside track" if exc.reason == "outside-track"
                          else "unmeasurable at midpoint")
        rejects.append(RejectRecord(*fields, reason))
    return records, rejects


def _token_row(r, last) -> tuple:
    """The seven columns token and reject CSVs share, then `last`."""
    return (r.source_id, r.speaker, r.system, r.word, r.vowel, r.environment,
            f"{r.t_mid_s:.6f}", last)


def token_csv_blocks(records):
    """Token CSV text with the documented schema and fixed 6-decimal floats,
    in blocks as they are iterated (see output._csv_blocks)."""
    rows = (_token_row(r, f"{r.nasalance_pct:.6f}") for r in records)
    return _csv_blocks(TOKEN_CSV_HEADER, _quoted(rows))


def tokens_to_csv(records) -> str:
    """The whole token CSV text: the blocks of token_csv_blocks, joined."""
    return "".join(token_csv_blocks(records))


def rejects_to_csv(rejects):
    """Sidecar CSV text for unmeasurable tokens, with a reason column, in
    blocks as they are iterated (see output._csv_blocks)."""
    return _csv_blocks(REJECT_CSV_HEADER, _quoted(_token_row(r, r.reason) for r in rejects))


def read_token_csv(path):
    """Yield a token CSV's records one at a time; the header row is mandatory."""
    for where, row in _read_rows(path, TOKEN_CSV_HEADER, TokenSchemaError):
        try:  # TokenRecord's fields are the header's columns, in order
            yield TokenRecord(*row[:6], *map(float, row[6:]))
        except ValueError as exc:
            raise TokenSchemaError(f"{where}: {exc}") from exc
