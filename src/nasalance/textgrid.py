"""Praat TextGrid parsing, serialization, and vowel token selection.

Reads both the long and the short text formats with one lexer: a compiled
pattern whose every match skips the text that carries no payload
(separators, bracket indices, long-format key words) and then takes one
token (a quoted string, a <flag> or a number), so the two formats parse
through one function, `parse_textgrid`. It takes the tokens straight from
the lexer's generator one at a time, so none are held, and a line is
counted only for an error. `read_textgrid` decodes and lexes a file one
block at a time, so neither its bytes nor its text are held whole. A stray
word, a non-finite number or an unterminated string, bracket or flag is an
error located by its line.
Writing always emits the long format with 6-decimal times.
"""

from __future__ import annotations

import codecs
import math
import re
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import TextGridParseError, named


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
    """One vowel token: the label of the word holding its midpoint ("" for
    an empty word interval, or none), its vowel label, and its midpoint."""

    word: str
    vowel_label: str
    midpoint: float


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

# read_textgrid decodes and lexes a file this many bytes at a time
_READ_BYTES = 2**16

_UNTERMINATED = {'"': "unterminated string", "[": "unterminated bracket",
                 "<": "unterminated flag"}


def _line(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _tokenize(blocks, line_of):
    """Yield the (kind, value, pos) payload tokens of both TextGrid text
    formats, one at a time, from the text given as str blocks; pos is the
    token's offset in the whole text and line_of(pos) its line.

    kind is "num", "str" or "flag"; quoted strings may span lines and use
    doubled quotes for embedded quotes. A match that reaches the end of the
    text so far, or that is a lone quote, bracket or flag mark, is tried
    again with the next block joined on, so a block may end anywhere. Lines
    are counted only for an error.
    """
    blocks = iter(blocks)
    buf, base, start, final = "", 0, 0, False  # buf is the text from offset base
    while True:
        for m in _TOKEN.finditer(buf, start):
            kind = m.lastgroup
            value = m[kind]
            if not final and (m.end() == len(buf) or value in _UNTERMINATED):
                break
            pos = base + m.start(kind)
            if kind == "num":
                try:
                    number = float(value)
                except ValueError:
                    raise TextGridParseError(
                        f"non-numeric value {value!r}", line=line_of(pos)) from None
                if not math.isfinite(number):
                    raise TextGridParseError(f"non-finite value {value!r}",
                                             line=line_of(pos))
                yield "num", number, pos
            elif kind == "str":
                yield "str", value[1:-1].replace('""', '"'), pos
            elif kind == "flag":
                yield "flag", value[1:-1], pos
            elif kind == "word":
                raise TextGridParseError(f"unexpected word {value!r}", line=line_of(pos))
            elif kind == "bad":
                raise TextGridParseError(
                    _UNTERMINATED.get(value, f"unexpected character {value!r}"),
                    line=line_of(pos))
            else:  # the end
                return
        block = next(blocks, None)  # a match reached the end of the text so far
        final = block is None
        buf, base, start = buf[m.start():] + (block or ""), base + m.start(), 0


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
    in file order, and an <absent> tiers flag ends the file. Tokens are
    taken from the lexer as the grammar needs them. A grammar error first
    lexes the rest of the text, so a lexer error anywhere comes first, as
    if the whole text were lexed before parsing; the warnings are given
    only once the whole text has lexed.
    """
    if isinstance(text, bytes):
        text = decode_textgrid(text)
    return _parse([text], lambda pos: _line(text, pos))


def _parse(blocks, line_of) -> list[IntervalTier]:
    """parse_textgrid over text given as str blocks (see _tokenize)."""
    tokens = _tokenize(blocks, line_of)
    pos = 0  # offset of the last token taken
    skipped = []  # names of the point tiers

    def fail(message, at=None):
        """The error at offset `at` (by default the last token taken), once
        the rest of the text has lexed."""
        for _ in tokens:
            pass
        for name in skipped:
            warnings.warn(f"skipping point tier {name!r}", PointTierSkippedWarning,
                          stacklevel=4)
        return TextGridParseError(message, line=line_of(pos if at is None else at))

    def take(kind, what):
        nonlocal pos
        got, value, pos = next(tokens, (None, None, pos))
        if got != kind:
            raise fail(f"expected {what}, got "
                       + (f"{got} {value!r}" if got else "end of file"))
        return value

    def count(what):
        value = take("num", what)
        if value != int(value) or value < 0:
            raise fail(f"{what} must be a non-negative integer")
        return int(value)

    file_type = take("str", "file type header")
    if file_type != "ooTextFile":
        raise fail(f"not an ooTextFile (got {file_type!r})")
    object_class = take("str", "object class header")
    if object_class != "TextGrid":
        raise fail(f"not a TextGrid (got {object_class!r})")
    take("num", "grid xmin")
    take("num", "grid xmax")
    kind, flag, pos = next(tokens, (None, None, pos))
    if kind != "flag" or flag not in ("exists", "absent"):
        raise fail("malformed header: missing tiers? <exists> flag")
    n_tiers = count("tier count") if flag == "exists" else 0

    tiers = []
    for tier_index in range(1, n_tiers + 1):
        tier_class = take("str", f"class of tier {tier_index}")
        class_pos = pos
        name = take("str", f"name of tier {tier_index}")
        tmin = take("num", f"xmin of tier {name!r}")
        tmax = take("num", f"xmax of tier {name!r}")
        size = count(f"size of tier {name!r}")
        if tier_class == "TextTier":
            for j in range(1, size + 1):
                take("num", f"time of point {j} in tier {name!r}")
                take("str", f"mark of point {j} in tier {name!r}")
            skipped.append(name)
            continue
        if tier_class != "IntervalTier":
            raise fail(f"unknown tier class {tier_class!r}", class_pos)
        intervals = []
        end = tmin  # where the next interval must start
        for j in range(1, size + 1):
            what = f"interval {j} of tier {name!r}"
            imin = take("num", f"xmin of {what}")
            imin_pos = pos
            imax = take("num", f"xmax of {what}")
            end_pos = pos
            label = take("str", f"text of {what}")
            if imin > imax:
                raise fail(f"{what}: xmin > xmax", imin_pos)
            if imin != end:
                raise fail(f"{what}: starts at {imin:g}, expected {end:g}", imin_pos)
            intervals.append(Interval(imin, imax, label))
            end = imax
        if intervals and end != tmax:
            raise fail(f"tier {name!r}: last interval ends at {end:g}, "
                       f"tier ends at {tmax:g}", end_pos)
        tiers.append(IntervalTier(name, tmin, tmax, intervals))
    kind, _, pos = next(tokens, (None, None, pos))
    if kind is not None:
        raise fail("unexpected content after final tier")
    for name in skipped:
        warnings.warn(f"skipping point tier {name!r}", PointTierSkippedWarning,
                      stacklevel=3)
    return tiers


def _decoded(fh):
    """A TextGrid file's text in blocks of _READ_BYTES, decoded as
    decode_textgrid decodes the whole file; where a block does not decode,
    the whole file is decoded again for decode_textgrid's located error."""
    data = fh.read(2)
    utf16 = data in (b"\xff\xfe", b"\xfe\xff")
    decoder = codecs.getincrementaldecoder("utf-16" if utf16 else "utf-8-sig")()
    try:
        while data:
            yield decoder.decode(data)
            data = fh.read(_READ_BYTES)
        yield decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        fh.seek(0)
        decode_textgrid(fh.read())
        raise


def read_textgrid(path) -> list[IntervalTier]:
    """Read and parse a TextGrid file from disk, holding one block of its
    text at a time; a TextGridParseError names the file."""
    with named(path, TextGridParseError), open(path, "rb") as fh:

        def line_of(pos):  # only for an error: decoding the whole file again
            fh.seek(0)  # also raises a decoding error anywhere in it first
            return _line(decode_textgrid(fh.read()), pos)

        return _parse(_decoded(fh), line_of)


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
    word interval is kept, with word "".
    """
    if (phone_tier.tmin, phone_tier.tmax) != (word_tier.tmin, word_tier.tmax):
        raise TextGridParseError(
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
        tokens.append(TokenSelection(word=word, vowel_label=vowel, midpoint=mid))
    return tokens
