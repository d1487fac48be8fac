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
from .errors import TokenSchemaError, UnmeasurableError, WordlistError
from .intensity import BandpassSpec, FrameConfig, bandpass, intensity_track
from .output import _csv_blocks, _quoted
from .stats import TokenRecord
from .textgrid import DEFAULT_VOWEL_LABELS, find_tier, select_vowel_tokens

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

    frame_cfg = frame_cfg or FrameConfig()
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
        reason = None
        if not token.word:
            reason = "empty word interval"
        elif info is None:
            reason = "unmapped word"
        else:
            try:
                value = value_at(nt, token.midpoint, method=method)
            except UnmeasurableError as exc:
                reason = ("midpoint outside track" if exc.reason == "outside-track"
                          else "unmeasurable at midpoint")
        if reason is None:
            records.append(TokenRecord(
                source_id=rec.source_id, speaker=speaker, system=system,
                word=token.word, vowel=info.vowel, environment=info.environment,
                t_mid_s=token.midpoint, nasalance_pct=value,
            ))
        else:
            rejects.append(RejectRecord(
                source_id=rec.source_id, speaker=speaker, system=system, word=token.word,
                vowel=info.vowel if info else token.vowel_label,
                environment=info.environment if info else "",
                t_mid_s=token.midpoint, reason=reason,
            ))
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


def read_token_csv(path) -> list[TokenRecord]:
    """Read a token CSV back; the header row is mandatory."""
    records = []
    for where, row in _read_rows(path, TOKEN_CSV_HEADER, TokenSchemaError):
        try:
            records.append(
                TokenRecord(
                    source_id=row[0], speaker=row[1], system=row[2],
                    word=row[3], vowel=row[4], environment=row[5],
                    t_mid_s=float(row[6]), nasalance_pct=float(row[7]),
                )
            )
        except ValueError as exc:
            raise TokenSchemaError(f"{where}: {exc}") from exc
    return records
