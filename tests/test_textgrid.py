"""TextGrid parsing, format equivalence, round-trips, token selection."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    corpus_variants,
    make_alignment_tiers,
    random_tiers,
    write_long,
    write_short,
)
from nasalance.errors import TextGridParseError
from nasalance.textgrid import (
    Interval,
    IntervalTier,
    PointTierSkippedWarning,
    decode_textgrid,
    find_tier,
    parse_textgrid,
    read_textgrid,
    select_vowel_tokens,
    serialize_textgrid,
    strip_stress,
)

MINIMAL_LONG = """\
File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 0.9
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 0.9
        intervals: size = 2
        intervals [1]:
            xmin = 0
            xmax = 0.4
            text = "b"
        intervals [2]:
            xmin = 0.4
            xmax = 0.9
            text = "ih"
"""

MINIMAL_SHORT = """\
File type = "ooTextFile"
Object class = "TextGrid"

0
0.9
<exists>
1
"IntervalTier"
"phones"
0
0.9
2
0
0.4
"b"
0.4
0.9
"ih"
"""


def test_minimal_long_fixture_hand_parsed():
    tiers = parse_textgrid(MINIMAL_LONG)
    assert len(tiers) == 1
    tier = tiers[0]
    assert tier.name == "phones"
    assert (tier.tmin, tier.tmax) == (0.0, 0.9)
    assert [iv.label for iv in tier.intervals] == ["b", "ih"]
    assert tier.intervals[0] == Interval(0.0, 0.4, "b")
    assert tier.intervals[1] == Interval(0.4, 0.9, "ih")


def test_short_format_parses_identically():
    assert parse_textgrid(MINIMAL_SHORT) == parse_textgrid(MINIMAL_LONG)


def test_declared_size_too_large_fails_at_offending_line():
    broken = MINIMAL_LONG.replace("intervals: size = 2", "intervals: size = 3")
    with pytest.raises(TextGridParseError, match="interval 3") as err:
        parse_textgrid(broken)
    assert err.value.line is not None


def test_non_numeric_boundary_carries_line():
    broken = MINIMAL_LONG.replace("xmax = 0.4", "xmax = oops")
    with pytest.raises(TextGridParseError) as err:
        parse_textgrid(broken)
    assert err.value.line == 17


def test_malformed_header():
    with pytest.raises(TextGridParseError, match="ooTextFile"):
        parse_textgrid('File type = "Spreadsheet"\nObject class = "TextGrid"\n')
    with pytest.raises(TextGridParseError, match="TextGrid"):
        parse_textgrid('File type = "ooTextFile"\nObject class = "Pitch"\n')


def test_doubled_quotes_unescaped():
    tier = IntervalTier("t", 0.0, 1.0, (Interval(0.0, 1.0, 'say "hi" now'),))
    for text in (write_long([tier]), write_short([tier])):
        parsed = parse_textgrid(text)
        assert parsed[0].intervals[0].label == 'say "hi" now'


def test_point_tier_skipped_with_warning():
    tiers = random_tiers(1)
    for text in (write_long(tiers, with_point_tier=True),
                 write_short(tiers, with_point_tier=True)):
        with pytest.warns(PointTierSkippedWarning):
            parsed = parse_textgrid(text)
        assert len(parsed) == len(tiers)


def test_unknown_tier_class_rejected():
    broken = MINIMAL_SHORT.replace('"IntervalTier"', '"PitchTier"')
    with pytest.raises(TextGridParseError, match="unknown tier class"):
        parse_textgrid(broken)


def test_non_contiguous_intervals_rejected():
    broken = MINIMAL_LONG.replace("xmin = 0.4\n            xmax = 0.9",
                                  "xmin = 0.5\n            xmax = 0.9")
    with pytest.raises(TextGridParseError, match="starts at 0.5"):
        parse_textgrid(broken)


def test_trailing_garbage_rejected():
    with pytest.raises(TextGridParseError, match="unexpected"):
        parse_textgrid(MINIMAL_SHORT + '\n"leftover"\n')


def test_crlf_and_whitespace_insensitive():
    crlf = MINIMAL_LONG.replace("\n", "\r\n")
    spaced = MINIMAL_LONG.replace("    ", "\t\t").replace(" = ", "=")
    base = parse_textgrid(MINIMAL_LONG)
    assert parse_textgrid(crlf) == base
    assert parse_textgrid(spaced) == base


def test_encoding_variants():
    base = parse_textgrid(MINIMAL_LONG)
    assert parse_textgrid(MINIMAL_LONG.encode("utf-8")) == base
    assert parse_textgrid(MINIMAL_LONG.encode("utf-8-sig")) == base
    assert parse_textgrid(MINIMAL_LONG.encode("utf-16")) == base
    assert parse_textgrid(b"\xfe\xff" + MINIMAL_LONG.encode("utf-16-be")) == base


def test_corpus_long_short_equivalence_and_round_trip(tmp_path):
    import warnings

    corpus = corpus_variants()
    assert len(corpus) >= 10
    for name, long_bytes, short_bytes in corpus:
        (tmp_path / f"{name}.long.TextGrid").write_bytes(long_bytes)
        (tmp_path / f"{name}.short.TextGrid").write_bytes(short_bytes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PointTierSkippedWarning)
            from_long = read_textgrid(tmp_path / f"{name}.long.TextGrid")
            from_short = read_textgrid(tmp_path / f"{name}.short.TextGrid")
        assert from_long == from_short
        assert parse_textgrid(serialize_textgrid(from_long)) == from_long


def test_serializer_times_have_six_decimals():
    tier = IntervalTier("t", 0.0, 1.5, (Interval(0.0, 1.5, "x"),))
    text = serialize_textgrid([tier])
    assert "xmax = 1.500000" in text
    assert 'class = "IntervalTier"' in text


def test_tier_invariants():
    with pytest.raises(ValueError, match="contiguous"):
        IntervalTier("t", 0.0, 1.0,
                     (Interval(0.0, 0.4, "a"), Interval(0.5, 1.0, "b")))
    with pytest.raises(ValueError, match="tmin"):
        IntervalTier("t", 0.0, 1.0, (Interval(0.1, 1.0, "a"),))
    with pytest.raises(ValueError, match="tmax"):
        Interval(0.5, 0.4, "bad")


def test_strip_stress():
    assert strip_stress("IH1") == "IH"
    assert strip_stress("AH0") == "AH"
    assert strip_stress("sil") == "sil"
    assert strip_stress("") == ""


def make_selection_tiers():
    phones = IntervalTier(
        "phone", 0.0, 1.0,
        (
            Interval(0.0, 0.2, "sil"),
            Interval(0.2, 0.4, "B"),
            Interval(0.4, 0.5, "IH1"),
            Interval(0.5, 0.6, "N"),
            Interval(0.6, 0.6, "EY1"),  # zero length, skipped
            Interval(0.6, 0.8, ""),
            Interval(0.8, 0.9, "EH0"),
            Interval(0.9, 1.0, "sil"),
        ),
    )
    words = IntervalTier(
        "word", 0.0, 1.0,
        (
            Interval(0.0, 0.2, ""),
            Interval(0.2, 0.6, "bin"),
            Interval(0.6, 0.8, ""),
            Interval(0.8, 1.0, ""),
        ),
    )
    return phones, words


def test_select_vowel_tokens():
    phones, words = make_selection_tiers()
    tokens = select_vowel_tokens(phones, words, {"IH", "EH", "EY"})
    assert len(tokens) == 2
    first = tokens[0]
    assert (first.word, first.vowel_label) == ("bin", "IH")
    assert first.midpoint == pytest.approx(0.45)
    second = tokens[1]
    assert (second.word, second.vowel_label) == ("", "EH")  # in an empty word interval


def test_select_requires_matching_spans():
    phones, _ = make_selection_tiers()
    words = IntervalTier("word", 0.0, 1.2, (Interval(0.0, 1.2, "bin"),))
    with pytest.raises(ValueError, match="span"):
        select_vowel_tokens(phones, words, {"IH"})


def test_midpoint_arithmetic():
    iv = Interval(0.40, 0.50, "IH1")
    assert iv.midpoint == pytest.approx(0.45)


def test_find_tier_case_and_plural():
    phones, words = make_selection_tiers()
    renamed = [
        IntervalTier("Phones", phones.tmin, phones.tmax, phones.intervals),
        IntervalTier("WORDS", words.tmin, words.tmax, words.intervals),
    ]
    assert find_tier(renamed, "phone").name == "Phones"
    assert find_tier(renamed, "word").name == "WORDS"
    with pytest.raises(TextGridParseError, match="no 'utterance' tier"):
        find_tier(renamed, "utterance")


def test_tiers_absent_flag():
    text = 'File type = "ooTextFile"\nObject class = "TextGrid"\n\n0\n1\n<absent>\n'
    assert parse_textgrid(text) == []

def first_match_tokens(phone_tier, word_tier, vowel_labels):
    """Brute-force oracle: scan every word in order for each vowel."""
    tokens = []
    for iv in phone_tier.intervals:
        label = iv.label.strip()
        if not label or iv.tmax <= iv.tmin or strip_stress(label) not in vowel_labels:
            continue
        mid = (iv.tmin + iv.tmax) / 2.0
        word = ""
        for w in word_tier.intervals:
            if w.tmin <= mid < w.tmax or mid == w.tmax == word_tier.tmax:
                word = w.label.strip()
                break
        tokens.append((word, strip_stress(label), mid))
    return tokens


def grid_tier(name, cuts, labels, end):
    """Contiguous tier over [0, end] cut at the sorted points (repeats allowed)."""
    bounds = [0.0, *cuts, end]
    return IntervalTier(
        name, 0.0, end,
        tuple(Interval(a, b, lab) for a, b, lab in zip(bounds, bounds[1:], labels)),
    )


@st.composite
def phone_word_tiers(draw):
    # Boundaries on a 0.5 grid put phone midpoints on word boundaries often;
    # a last phone that ends one ulp after its start has its midpoint on the
    # tier end, and repeated cuts make zero-length intervals.
    end = 0.5 * draw(st.integers(1, 12))
    grid = st.integers(0, int(2 * end)).map(lambda i: 0.5 * i)
    phone_cuts = sorted(draw(st.lists(grid, max_size=12)))
    if draw(st.booleans()):
        phone_cuts = [c for c in phone_cuts if c < end]
        phone_cuts.append(float(np.nextafter(end, 0.0)))
    word_cuts = sorted(draw(st.lists(grid, max_size=8)))
    phone_labels = draw(st.lists(
        st.sampled_from(["", " ", "IH1", "EH", "AE0", "sil", " AH2 "]),
        min_size=len(phone_cuts) + 1, max_size=len(phone_cuts) + 1,
    ))
    word_labels = draw(st.lists(
        st.sampled_from(["", " ", "bin", "bet", " pat "]),
        min_size=len(word_cuts) + 1, max_size=len(word_cuts) + 1,
    ))
    return (grid_tier("phone", phone_cuts, phone_labels, end),
            grid_tier("word", word_cuts, word_labels, end))


@settings(max_examples=300, deadline=None)
@given(phone_word_tiers())
def test_select_vowel_tokens_matches_first_match_scan(tiers):
    phones, words = tiers
    vowels = {"IH", "EH", "AE", "AH"}
    got = [(t.word, t.vowel_label, t.midpoint)
           for t in select_vowel_tokens(phones, words, vowels)]
    assert got == first_match_tokens(phones, words, vowels)


def test_select_vowel_midpoint_on_tier_end_takes_first_word_ending_there():
    end = 10.0
    phones = grid_tier("phone", [float(np.nextafter(end, 0.0))], ["sil", "IH1"], end)
    assert phones.intervals[-1].midpoint == end
    words = grid_tier("word", [4.0, end, end], ["", "bin", "", "pat"], end)
    (token,) = select_vowel_tokens(phones, words, {"IH"})
    assert token.word == "bin"


# (edits to MINIMAL_LONG, message, line); the lexer reads the whole text
# before parsing, so its errors come first
LEXER_ERRORS = {
    "unterminated-string": (
        [('text = "ih"', 'text = "ih')], "unterminated string", 22),
    "unterminated-string-ending-in-doubled-quote": (
        [('text = "ih"', 'text = "ih\n""')], "unterminated string", 22),
    "unterminated-bracket": (
        [("intervals [2]:", "intervals [2:")], "unterminated bracket", 19),
    "unterminated-flag": ([("<exists>", "<exists")], "unterminated flag", 6),
    "unexpected-character": (
        [("xmax = 0.4", "xmax = 0.4,")], "unexpected character ','", 17),
    "unexpected-word": ([('text = "b"', "text = b")], "unexpected word 'b'", 18),
    "key-word-glued-to-word": (
        [("size = 1", "sizes = 1")], "unexpected word 'sizes'", 7),
    "non-numeric-value": (
        [("xmax = 0.4", "xmax = 0.4.1")], "non-numeric value '0.4.1'", 17),
    "non-finite-count": (
        [("intervals: size = 2", "intervals: size = 1e999")],
        "non-finite value '1e999'", 14),
    "non-finite-time": (
        [("xmax = 0.4", "xmax = -1e999")], "non-finite value '-1e999'", 17),
    "string-spans-lines": (
        [('text = "b"', 'text = "b\n\n"'), ('text = "ih"', 'text = "ih" #')],
        "unexpected character '#'", 24),
    "flag-spans-lines": (
        [("<exists>", "<exists\n>"), ('text = "ih"', 'text = "ih" #')],
        "unexpected character '#'", 23),
    "bracket-spans-lines": (
        [("intervals [1]:", "intervals [1\n]:"), ('text = "ih"', 'text = "ih" #')],
        "unexpected character '#'", 23),
}


@pytest.mark.parametrize("edits, message, line", LEXER_ERRORS.values(),
                         ids=LEXER_ERRORS.keys())
def test_lexer_errors_carry_message_and_line(edits, message, line):
    text = MINIMAL_LONG
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    with pytest.raises(TextGridParseError) as err:
        parse_textgrid(text)
    assert str(err.value) == f"{message} (line {line})"
    assert err.value.line == line


# label pieces that look like TextGrid syntax, plus arbitrary text
_AWKWARD = st.lists(
    st.sampled_from(['"', '""', "\n", "\r\n", "\t", "[", "]", "<", ">", "[1]",
                     "<exists>", "size", "xmin", "tiers?", "= 1", "1e999",
                     "é", "中文", " ", "IH1"]),
    max_size=5,
).map("".join) | st.text(max_size=6)


@st.composite
def awkward_tiers(draw):
    tiers = []
    for _ in range(draw(st.integers(1, 3))):
        start_ms = t_ms = draw(st.integers(0, 500))
        intervals = []
        for label in draw(st.lists(_AWKWARD, min_size=1, max_size=5)):
            dur_ms = draw(st.integers(0, 700))
            intervals.append(Interval(t_ms / 1000.0, (t_ms + dur_ms) / 1000.0, label))
            t_ms += dur_ms
        tiers.append(IntervalTier(draw(_AWKWARD), start_ms / 1000.0, t_ms / 1000.0,
                                  tuple(intervals)))
    return tiers


@settings(max_examples=200, deadline=None)
@given(awkward_tiers())
def test_parse_round_trips_awkward_labels(tiers):
    assert parse_textgrid(write_long(tiers)) == tiers
    assert parse_textgrid(write_short(tiers)) == tiers
    assert parse_textgrid(serialize_textgrid(tiers)) == tiers


def test_a_later_lexer_error_comes_before_a_grammar_error():
    # the text is lexed as it is parsed, yet a lexer error anywhere still
    # comes first, and a skipped point tier warns only once all has lexed
    late = MINIMAL_LONG.replace('text = "ih"', 'text = "ih" #')
    for early in (('"ooTextFile"', '"Spreadsheet"'), ("size = 2", "size = 3"),
                  ("xmin = 0.4", "xmin = 0.5")):
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(late.replace(*early, 1))
        assert str(err.value) == "unexpected character '#' (line 22)"
    with pytest.raises(TextGridParseError, match="non-finite value '1e999'"):
        parse_textgrid(MINIMAL_SHORT.replace("<exists>", "<absent>") + "1e999\n")
    tiers = random_tiers(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TextGridParseError, match="unexpected character"):
            parse_textgrid(write_long(tiers, with_point_tier=True) + "#")
    with pytest.warns(PointTierSkippedWarning):
        with pytest.raises(TextGridParseError, match="unexpected content"):
            parse_textgrid(write_long(tiers, with_point_tier=True) + '"x"')


def test_undecodable_textgrid_is_located(tmp_path):
    # a Latin-1 file read as UTF-8: the error gives the file, the byte
    # offset of the first bad byte and its line
    text = MINIMAL_LONG.replace('text = "ih"', 'text = "ih\u00e9"')
    path = tmp_path / "latin1.TextGrid"
    path.write_bytes(text.encode("latin-1"))
    offset = text.encode("latin-1").index(b"\xe9")
    with pytest.raises(TextGridParseError) as err:
        read_textgrid(path)
    assert str(err.value) == (f"latin1.TextGrid: not UTF-8 text at byte offset "
                              f"{offset}: invalid continuation byte (line 22)")
    assert err.value.line == 22
    # UTF-16 with an odd byte count: the last byte is cut off
    with pytest.raises(TextGridParseError, match="not UTF-16 text at byte offset") as err:
        decode_textgrid(MINIMAL_LONG.encode("utf-16") + b"\x00")
    assert err.value.line == MINIMAL_LONG.count("\n") + 1


def test_truncated_textgrid_names_the_file(tmp_path):
    path = tmp_path / "cut.TextGrid"
    path.write_text(MINIMAL_LONG[: MINIMAL_LONG.index("intervals [2]")])
    with pytest.raises(TextGridParseError) as err:
        read_textgrid(path)
    assert str(err.value) == ("cut.TextGrid: expected xmin of interval 2 of tier "
                              "'phones', got end of file (line 18)")
    assert err.value.line == 18


def test_read_textgrid_memory_does_not_grow_with_tokens(tmp_path):
    # beyond the tiers it returns and the file's text, parsing holds no
    # per-token list: four times the intervals add only what is kept
    extra = []
    for n_words in (500, 2000):
        path = tmp_path / f"{n_words}.TextGrid"
        tiers = make_alignment_tiers([("bin", "IH1")] * n_words)
        path.write_text(serialize_textgrid(tiers))
        read_textgrid(path)
        tracemalloc.start()
        try:
            tiers = read_textgrid(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(t.intervals) for t in tiers) == 4 * n_words
        extra.append(peak - kept - path.stat().st_size)
    # the parser's token list was 2.3 MB more at 8000 intervals than at 2000
    assert extra[1] - extra[0] < 64 * 1024, extra
