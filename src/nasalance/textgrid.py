"""Praat TextGrid parsing, serialization, and vowel token selection.

Reads both the long and the short text formats with one lexer: a compiled
pattern whose every match skips the text that carries no payload
(separators, bracket indices, long-format key words) and then takes one
token (a quoted string, a <flag> or a number), so the two formats parse
through one code path. Tokens are lexed one at a time as the parser takes
them, so none are held, and a line is counted only for an error. A stray
word, a non-finite number or an unterminated string, bracket or flag is an
error located by its line. Writing always emits the long format with
6-decimal times.
"""

from __future__ import annotations

import math
import re
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from .errors import TextGridParseError


class PointTierSkippedWarning(UserWarning):
    """A point tier was present and ignored; it carries no vowel intervals."""


# ARPAbet vowels for the KIT, DRESS, TRAP, STRUT, FACE word classes.
# A configuration default, not a fixed truth; pass your own set as needed.
DEFAULT_VOWEL_LABELS = frozenset({"IH", "EH", "AE", "AH", "EY"})

# structural key words of the long format; anything else unquoted is an error
_KEYWORDS = {
    "File", "type", "Object", "class", "item", "size", "xmin", "xmax",
    "intervals", "points", "text", "name", "number", "mark", "time", "tiers",
}


@dataclass(frozen=True, slots=True)
class Interval:
    tmin: float
    tmax: float
    label: str

    def __post_init__(self):
        if self.tmin > self.tmax:
            raise ValueError(f"interval with tmin {self.tmin} > tmax {self.tmax}")

    @property
    def midpoint(self) -> float:
        return (self.tmin + self.tmax) / 2.0


@dataclass(frozen=True)
class IntervalTier:
    name: str
    tmin: float
    tmax: float
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        prev = None
        for iv in self.intervals:
            if prev is not None and iv.tmin != prev.tmax:
                raise ValueError(
                    f"tier {self.name!r}: intervals not contiguous at {prev.tmax}"
                )
            prev = iv
        if self.intervals:
            if self.intervals[0].tmin != self.tmin:
                raise ValueError(f"tier {self.name!r}: first interval not at tier tmin")
            if self.intervals[-1].tmax != self.tmax:
                raise ValueError(f"tier {self.name!r}: last interval not at tier tmax")


@dataclass(frozen=True)
class TokenSelection:
    """One vowel token: containing word, vowel label, interval, midpoint."""

    word: str
    vowel_label: str
    interval: Interval
    midpoint: float
    in_empty_word: bool = False


# One match: the noise that carries no payload (separators, bracketed
# indices, long-format key words), then exactly one token or the end. Any
# other run of word characters (str.isalnum, "_", "?") is a stray word, so a
# key word glued to a longer word is one too. A quote closes a string only
# when no quote follows it, as in Praat's doubled-quote escape.
_TOKEN = re.compile(r"""
    (?: [ \t\r\n=:!;]+
      | \[ [^\]]* \]
      | (?: %s ) \?* (?![\w?])
    )*
    (?: (?P<str> " [^"]* (?: "" [^"]* )* " (?!") )
      | (?P<flag> < [^>]* > )
      | (?P<num> [\d+\-.] [\d+\-.eE]* )
      | (?P<word> (?: [^\W\d] | \? ) [\w?]* )
      | (?P<bad> . )
      | (?P<end> \Z )
    )
""" % "|".join(sorted(_KEYWORDS)), re.VERBOSE)

_UNTERMINATED = {'"': "unterminated string", "[": "unterminated bracket",
                 "<": "unterminated flag"}


def _line(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _tokenize(text: str):
    """Yield the (kind, value, pos) payload tokens of both TextGrid text
    formats, one at a time, pos being the token's offset in text.

    kind is "num", "str" or "flag"; quoted strings may span lines and use
    doubled quotes for embedded quotes. Lines are counted only for an error.
    """
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m[kind], m.start(kind)
        if kind == "num":
            try:
                number = float(value)
            except ValueError:
                raise TextGridParseError(
                    f"non-numeric value {value!r}", line=_line(text, pos)) from None
            if not math.isfinite(number):
                raise TextGridParseError(f"non-finite value {value!r}",
                                         line=_line(text, pos))
            yield "num", number, pos
        elif kind == "str":
            yield "str", value[1:-1].replace('""', '"'), pos
        elif kind == "flag":
            yield "flag", value[1:-1], pos
        elif kind == "word":
            raise TextGridParseError(f"unexpected word {value!r}", line=_line(text, pos))
        elif kind == "bad":
            raise TextGridParseError(
                _UNTERMINATED.get(value, f"unexpected character {value!r}"),
                line=_line(text, pos))


class _Stream:
    """The payload tokens of a TextGrid text, lexed as the parser takes them.

    A lexer error anywhere in the text comes before any grammar error, as if
    the whole text were lexed first: `error` lexes the rest of the text
    before it gives the grammar error, so a later lexer error is raised
    instead.
    """

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._peek = None  # the next token, looked at before it is taken
        self._pos = 0  # offset of the next token, or of the last one at the end
        self.lexed = False  # the whole text lexed without error (lex_rest)
        self._take()

    def lex_rest(self) -> None:
        """Lex the tokens not taken, raising the first lexer error."""
        for _ in self._tokens:
            pass
        self.lexed = True

    def error(self, message, pos=None) -> TextGridParseError:
        """The error to raise at offset pos (by default the next token, or
        the last one at the end of the text), once the rest is lexed."""
        self.lex_rest()
        pos = self._pos if pos is None else pos
        return TextGridParseError(message, line=_line(self._text, pos))

    def exhausted(self) -> bool:
        return self._peek is None

    def _take(self):
        token = self._peek
        self._peek = next(self._tokens, None)
        if self._peek is not None:
            self._pos = self._peek[2]
        return token

    def _next(self, kind, what):
        if self._peek is None:
            raise self.error(f"expected {what}, got end of file")
        got, value, pos = self._peek
        if got != kind:
            raise self.error(f"expected {what}, got {got} {value!r}", pos)
        self._take()
        return value, pos

    def number(self, what) -> tuple[float, int]:
        return self._next("num", what)

    def count(self, what) -> tuple[int, int]:
        value, pos = self.number(what)
        if value != int(value) or value < 0:
            raise self.error(f"{what} must be a non-negative integer", pos)
        return int(value), pos

    def string(self, what) -> tuple[str, int]:
        return self._next("str", what)

    def flag_or_none(self):
        if self._peek is not None and self._peek[0] == "flag":
            return self._take()[1]
        return None


def decode_textgrid(data: bytes) -> str:
    """Decode TextGrid bytes: UTF-16 (either order, with BOM) or UTF-8.

    Bytes that do not decode raise TextGridParseError at their line and
    byte offset.
    """
    utf16 = data[:2] in (b"\xff\xfe", b"\xfe\xff")
    encoding = "utf-16" if utf16 else "utf-8-sig"
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode(encoding, errors="replace")
        raise TextGridParseError(
            f"not {'UTF-16' if utf16 else 'UTF-8'} text at byte offset "
            f"{exc.start}: {exc.reason}", line=before.count("\n") + 1) from None


def parse_textgrid(text) -> list[IntervalTier]:
    """Parse TextGrid file contents (str or bytes) into interval tiers.

    Point tiers are skipped with a PointTierSkippedWarning; tiers come back
    in file order. The text is lexed as it is parsed; a lexer error anywhere
    comes before a grammar error, and the warnings are given only once the
    whole text has lexed.
    """
    if isinstance(text, bytes):
        text = decode_textgrid(text)
    stream = _Stream(text)
    skipped = []
    try:
        tiers = _parse_tiers(stream, skipped)
        stream.lex_rest()  # what follows an <absent> flag is lexed too
    finally:
        if stream.lexed:  # as when every token was lexed before parsing
            for name in skipped:
                warnings.warn(f"skipping point tier {name!r}", PointTierSkippedWarning,
                              stacklevel=2)
    return tiers


def _parse_tiers(stream: _Stream, skipped: list) -> list[IntervalTier]:
    file_type, pos = stream.string("file type header")
    if file_type != "ooTextFile":
        raise stream.error(f"not an ooTextFile (got {file_type!r})", pos)
    object_class, pos = stream.string("object class header")
    if object_class != "TextGrid":
        raise stream.error(f"not a TextGrid (got {object_class!r})", pos)
    stream.number("grid xmin")
    stream.number("grid xmax")
    flag = stream.flag_or_none()
    if flag == "absent":
        return []
    if flag != "exists":
        raise stream.error("malformed header: missing tiers? <exists> flag")
    n_tiers, _ = stream.count("tier count")

    tiers = []
    for tier_index in range(1, n_tiers + 1):
        tier_class, class_pos = stream.string(f"class of tier {tier_index}")
        name, _ = stream.string(f"name of tier {tier_index}")
        tmin, _ = stream.number(f"xmin of tier {name!r}")
        tmax, _ = stream.number(f"xmax of tier {name!r}")
        size, _ = stream.count(f"size of tier {name!r}")
        if tier_class == "IntervalTier":
            intervals = []
            prev_tmax, prev_pos = tmin, None
            for j in range(1, size + 1):
                what = f"interval {j} of tier {name!r}"
                imin, p0 = stream.number(f"xmin of {what}")
                imax, p1 = stream.number(f"xmax of {what}")
                label, _ = stream.string(f"text of {what}")
                if imin > imax:
                    raise stream.error(f"{what}: xmin > xmax", p0)
                if imin != prev_tmax:
                    raise stream.error(
                        f"{what}: starts at {imin:g}, expected {prev_tmax:g}", p0
                    )
                intervals.append(Interval(imin, imax, label))
                prev_tmax, prev_pos = imax, p1
            if intervals and intervals[-1].tmax != tmax:
                raise stream.error(
                    f"tier {name!r}: last interval ends at "
                    f"{intervals[-1].tmax:g}, tier ends at {tmax:g}",
                    prev_pos,
                )
            tiers.append(IntervalTier(name=name, tmin=tmin, tmax=tmax,
                                      intervals=tuple(intervals)))
        elif tier_class == "TextTier":
            for j in range(1, size + 1):
                stream.number(f"time of point {j} in tier {name!r}")
                stream.string(f"mark of point {j} in tier {name!r}")
            skipped.append(name)
        else:
            raise stream.error(f"unknown tier class {tier_class!r}", class_pos)
    if not stream.exhausted():
        raise stream.error("unexpected content after final tier")
    return tiers


def read_textgrid(path) -> list[IntervalTier]:
    """Read and parse a TextGrid file from disk; a TextGridParseError names
    the file."""
    try:
        with open(path, "rb") as fh:
            text = decode_textgrid(fh.read())  # the bytes are freed once decoded
        return parse_textgrid(text)
    except TextGridParseError as exc:
        exc.args = (f"{Path(path).name}: {exc}",)
        raise


def _quote(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


def serialize_textgrid(tiers) -> str:
    """Serialize interval tiers to long-format TextGrid text, 6-decimal times."""
    tiers = list(tiers)
    if not tiers:
        raise ValueError("cannot serialize an empty tier list")
    xmin = min(t.tmin for t in tiers)
    xmax = max(t.tmax for t in tiers)
    out = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {xmin:.6f}",
        f"xmax = {xmax:.6f}",
        "tiers? <exists>",
        f"size = {len(tiers)}",
        "item []:",
    ]
    for i, tier in enumerate(tiers, 1):
        out.append(f"    item [{i}]:")
        out.append('        class = "IntervalTier"')
        out.append(f"        name = {_quote(tier.name)}")
        out.append(f"        xmin = {tier.tmin:.6f}")
        out.append(f"        xmax = {tier.tmax:.6f}")
        out.append(f"        intervals: size = {len(tier.intervals)}")
        for j, iv in enumerate(tier.intervals, 1):
            out.append(f"        intervals [{j}]:")
            out.append(f"            xmin = {iv.tmin:.6f}")
            out.append(f"            xmax = {iv.tmax:.6f}")
            out.append(f"            text = {_quote(iv.label)}")
    return "\n".join(out) + "\n"


def find_tier(tiers, role: str) -> IntervalTier:
    """Locate the phone or word tier by name, tolerating case and plurals."""
    wanted = {role.lower(), role.lower() + "s"}
    for tier in tiers:
        if tier.name.lower().strip() in wanted:
            return tier
    raise TextGridParseError(
        f"no {role!r} tier found (tiers: {[t.name for t in tiers]})"
    )


def strip_stress(label: str) -> str:
    """Drop a trailing ARPAbet stress digit (IH1 -> IH)."""
    if label and label[-1] in "012":
        return label[:-1]
    return label


def select_vowel_tokens(
    phone_tier: IntervalTier,
    word_tier: IntervalTier,
    vowel_labels=DEFAULT_VOWEL_LABELS,
) -> list[TokenSelection]:
    """Pick every vowel phone and attach the word containing its midpoint.

    Stress digits are stripped before matching; zero-length and empty-label
    phone intervals are skipped. A vowel whose midpoint lands in an empty
    word interval is flagged, not dropped.
    """
    if (phone_tier.tmin, phone_tier.tmax) != (word_tier.tmin, word_tier.tmax):
        raise ValueError(
            "phone and word tiers span different time ranges: "
            f"[{phone_tier.tmin}, {phone_tier.tmax}] vs "
            f"[{word_tier.tmin}, {word_tier.tmax}]"
        )
    vowel_labels = set(vowel_labels)
    words = word_tier.intervals
    word_starts = [w.tmin for w in words]
    word_ends = [w.tmax for w in words]
    tokens = []
    for iv in phone_tier.intervals:
        label = iv.label.strip()
        if not label or iv.tmax <= iv.tmin:
            continue
        vowel = strip_stress(label)
        if vowel not in vowel_labels:
            continue
        mid = iv.midpoint
        # Words are contiguous, so only the last word starting at or before
        # mid can hold it; a midpoint on the tier's end goes to the first
        # word ending there (zero-length words may follow it).
        k = bisect_right(word_starts, mid) - 1
        if k < 0 or mid >= word_ends[k]:
            k = bisect_left(word_ends, mid) if mid == word_tier.tmax else len(words)
        word = words[k].label.strip() if k < len(words) else ""
        tokens.append(
            TokenSelection(
                word=word,
                vowel_label=vowel,
                interval=iv,
                midpoint=mid,
                in_empty_word=(word == ""),
            )
        )
    return tokens
