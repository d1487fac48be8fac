"""CSV text made in row blocks, and outputs committed whole or not at all."""

import tracemalloc

import numpy as np
import pytest

from oracles import intensity_csv_text, nasalance_csv_text, quoted_csv_text, truth_csv_text
from nasalance.core import NasalanceTrack, nasalance_to_csv
from nasalance.intensity import FrameConfig, IntensityTrack, intensity_to_csv
from nasalance.output import _CSV_BLOCK_ROWS as B
from nasalance.output import _commit
from nasalance.pipeline import (
    REJECT_CSV_HEADER,
    TOKEN_CSV_HEADER,
    RejectRecord,
    rejects_to_csv,
    token_csv_blocks,
    tokens_to_csv,
)
from nasalance.stats import TokenRecord
from nasalance.synth import GroundTruth, truth_to_csv

SIZES = [0, B - 1, B, B + 1, 3 * B + 17]
# the rows on either side of the first and second block boundaries
EDGES = (B - 1, B, 2 * B - 1, 2 * B)
LABELS = ("plain", "a,b", 'say "hi"', "two\nlines", ',"\n')


def _block_rows(n):
    return [B] * (n // B) + ([n % B] if n % B else [])


def _times(n):
    return 0.016 + 0.008 * np.arange(n)


def _nasalance_track(n):
    rng = np.random.default_rng(n)
    valid = rng.random(n) > 0.2
    valid[[i for i in EDGES if i < n]] = False  # ",,0" rows on the boundaries
    pct = np.where(valid, rng.uniform(0.0, 100.0, n), np.nan)
    return NasalanceTrack(times=_times(n), nasalance_pct=pct)


@pytest.mark.parametrize("n", SIZES)
def test_track_csvs_equal_their_whole_text_at_block_boundaries(n):
    nt = _nasalance_track(n)
    blocks = list(nasalance_to_csv(nt))
    assert "".join(blocks) == nasalance_csv_text(nt)
    assert blocks[0] == "t_s,nasalance_pct,valid\n"
    assert [b.count("\n") for b in blocks[1:]] == _block_rows(n)
    if n > B:
        assert blocks[1].endswith("\n" + "%.6f,,0\n" % nt.times[B - 1])
        assert blocks[2].startswith("%.6f,,0\n" % nt.times[B])

    rng = np.random.default_rng(n + 1)
    db = rng.uniform(-80.0, 3.0, (2, n))
    it = IntensityTrack(times=_times(n), nasal_db=db[0], oral_db=db[1], config=FrameConfig())
    blocks = list(intensity_to_csv(it))
    assert "".join(blocks) == intensity_csv_text(it)
    assert [b.count("\n") for b in blocks[1:]] == _block_rows(n)

    gt = GroundTruth(times=0.001 * np.arange(n), expected_nasalance_pct=db[1] + 80.0)
    blocks = list(truth_to_csv(gt))
    assert "".join(blocks) == truth_csv_text(gt)
    assert [b.count("\n") for b in blocks[1:]] == _block_rows(n)


@pytest.mark.parametrize("n", SIZES)
def test_quoted_csvs_equal_their_whole_text_at_block_boundaries(n):
    # labels with commas, quotes and newlines on the rows either side of a
    # boundary, and every few rows between
    def label(i, k):
        return LABELS[3 + k % 2] if i in EDGES else LABELS[(i + k) % len(LABELS)]

    tokens = [TokenRecord(source_id=label(i, 0), speaker=label(i, 1), system="A",
                          word=label(i, 2), vowel="AA", environment=label(i, 3),
                          t_mid_s=0.25 * i, nasalance_pct=(7 * i) % 101)
              for i in range(n)]
    want = quoted_csv_text(TOKEN_CSV_HEADER, [
        (r.source_id, r.speaker, r.system, r.word, r.vowel, r.environment,
         f"{r.t_mid_s:.6f}", f"{r.nasalance_pct:.6f}") for r in tokens])
    blocks = list(token_csv_blocks(tokens))
    assert len(blocks) == 1 + len(_block_rows(n))
    assert "".join(blocks) == tokens_to_csv(tokens) == want

    rejects = [RejectRecord(source_id="s", speaker=label(i, 0), system="B",
                            word=label(i, 1), vowel="IY", environment="oral",
                            t_mid_s=0.5 * i, reason=label(i, 2))
               for i in range(n)]
    want = quoted_csv_text(REJECT_CSV_HEADER, [
        (r.source_id, r.speaker, r.system, r.word, r.vowel, r.environment,
         f"{r.t_mid_s:.6f}", r.reason) for r in rejects])
    assert "".join(rejects_to_csv(rejects)) == want


def test_block_error_leaves_no_output_and_no_temporary(tmp_path):
    def failing():
        yield "t_s\n"
        raise ValueError("row failed")

    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="row failed"):
        _commit([(out, failing())])
    assert list(tmp_path.iterdir()) == []
    # an earlier file stays as it was, and an output written before the
    # failing one is not moved into place either
    out.write_text("earlier\n")
    first = tmp_path / "first.csv"
    with pytest.raises(ValueError, match="row failed"):
        _commit([(first, ["whole\n"]), (out, failing())])
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert out.read_text() == "earlier\n"


def test_committing_a_track_csv_holds_about_one_block(tmp_path):
    # a track four times as long allocates no more while its CSV is
    # committed: each block of rows is formed, written and dropped in turn
    # (forming the whole text, its row strings and float lists would add
    # about 37 MB)
    peaks = []
    for n in (20 * B, 80 * B):
        nt = _nasalance_track(n)
        tracemalloc.start()
        try:
            _commit([(tmp_path / "track.csv", nasalance_to_csv(nt))])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / "track.csv").read_text() == nasalance_csv_text(nt)
    assert peaks[1] - peaks[0] < 32 * B, peaks
