"""Command-line front end: calibrate -> analyze -> stats, plus synth and track.

Exit codes: 0 success, 1 usage, 2 input format problem, 3 numerically
degenerate model. Outputs are deterministic: identical inputs and flags
produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .audio_io import ChannelMap, _wav_blocks, load_pair, load_stereo
from .calibration import (
    apply_calibration,
    estimate_gain_offset,
    load_profile,
    save_profile,
)
from .core import nasalance_to_csv, nasalance_track
from .errors import (
    CalibrationError,
    DesignError,
    InputFormatError,
    NumericError,
    SynthSpecError,
    TextGridParseError,
    named,
)
from .intensity import (
    BandpassSpec,
    FrameConfig,
    bandpass,
    intensity_to_csv,
    intensity_track,
)
from .output import _commit, _csv_blocks, _quoted
from .pipeline import (
    extract_token_records,
    load_wordlist,
    read_token_csv,
    rejects_to_csv,
    token_csv_blocks,
    tokens_to_csv,  # not called here; bench/spans.py wraps it at this name
)
from .stats import (
    contrasts_to_csv,
    difference_of_differences_table,
    emm_to_csv,
    emmeans,
    fit_nasalance_model,
    pairwise_env_contrasts,
)
from .synth import load_synth_spec, synthesize, truth_to_csv
from .textgrid import DEFAULT_VOWEL_LABELS, read_textgrid, strip_stress


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bad inputs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bandpass_arg(text: str) -> BandpassSpec:
    try:
        low, high = text.split(":")
        return BandpassSpec(low_hz=float(low), high_hz=float(high))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected LOW:HIGH in Hz, got {text!r} ({exc})"
        ) from None


def _channel_map_arg(text: str) -> ChannelMap:
    try:
        key, value = text.split("=")
        if key.strip() != "nasal" or value.strip() not in ("left", "right"):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected nasal=left or nasal=right, got {text!r}"
        ) from None
    return ChannelMap(nasal_source=value.strip())


def _window_range_arg(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(":")
        return (float(a), float(b))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:END in seconds, got {text!r}"
        ) from None


def _vowels_arg(text: str) -> frozenset:
    labels = frozenset(v.strip() for v in text.split(",") if v.strip())
    if not labels:
        raise argparse.ArgumentTypeError("empty vowel label set")
    if stressed := sorted(v for v in labels if strip_stress(v) != v):  # could never match
        raise argparse.ArgumentTypeError(f"vowel label {stressed[0]!r} has a stress digit")
    return labels


def _add_frame_flags(sub):
    sub.add_argument("--frame-ms", type=float, default=32.0,
                     help="analysis frame length in milliseconds")
    sub.add_argument("--step-ms", type=float, default=8.0,
                     help="hop between frames in milliseconds")
    sub.add_argument("--window", choices=("hann", "rectangular"), default="hann")
    sub.add_argument("--silence-floor-db", type=float, default=-60.0,
                     help="frames with both channels at/below this are invalid")


def _add_audio_flags(sub):
    sub.add_argument("--channel-map", type=_channel_map_arg,
                     default=ChannelMap(),
                     help="which stereo channel is the nasal mic (nasal=left)")
    sub.add_argument("--oral", metavar="WAV", default=None,
                     help="oral-channel mono WAV; the positional WAV is then the nasal channel")
    sub.add_argument("--bandpass", type=_bandpass_arg, default=None, metavar="LOW:HIGH",
                     help="band-pass both channels first (Hz, order-4 Butterworth)")


def _frame_config(args) -> FrameConfig:
    return FrameConfig(
        frame_length_ms=args.frame_ms,
        step_ms=args.step_ms,
        window=args.window,
        silence_floor_db=args.silence_floor_db,
    )


def _load_recording(args):
    if args.oral:
        return load_pair(args.wav, args.oral)
    return load_stereo(args.wav, args.channel_map)


def _band_name(spec) -> str:
    if spec is None:
        return "the full band"
    return f"{spec.low_hz:g}:{spec.high_hz:g} Hz (order {spec.order})"


def _load_calibration(args):
    """The --calibration profile, or None; warns when its band is not --bandpass."""
    if not args.calibration:
        return None
    profile = load_profile(args.calibration)
    if profile.bandpass != args.bandpass:
        print(f"warning: {Path(args.calibration).name} was measured over "
              f"{_band_name(profile.bandpass)}, this run uses {_band_name(args.bandpass)}",
              file=sys.stderr)
    return profile


def _read_textgrid_reporting(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tiers = read_textgrid(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return tiers


def _rejects_path(out: Path) -> Path:
    if out.suffix:
        return out.with_name(out.stem + ".rejects" + out.suffix)
    return out.with_name(out.name + ".rejects.csv")


def cmd_analyze(args) -> int:
    rec = _load_recording(args)
    wordlist = load_wordlist(args.wordlist)
    tiers = _read_textgrid_reporting(args.textgrid)
    profile = _load_calibration(args)
    with named(args.textgrid, TextGridParseError):  # a missing or mismatched tier
        records, rejects = extract_token_records(
            rec,
            tiers,
            wordlist,
            speaker=args.speaker,
            system=args.system,
            vowel_labels=args.vowels,
            frame_cfg=_frame_config(args),
            bandpass_spec=args.bandpass,
            calibration_profile=profile,
            method=args.method,
        )
    out = Path(args.out)
    _commit([(out, token_csv_blocks(records)),
             (_rejects_path(out), rejects_to_csv(rejects))])
    if not records and not rejects:
        print("warning: no vowel tokens selected", file=sys.stderr)
    print(f"{len(records)} tokens written, {len(rejects)} rejected", file=sys.stderr)
    return 0


def cmd_track(args) -> int:
    rec = _load_recording(args)
    profile = _load_calibration(args)
    if args.bandpass is not None:
        rec = bandpass(rec, args.bandpass)
    it = intensity_track(rec, _frame_config(args))
    if profile is not None:
        it = apply_calibration(it, profile)
    if args.intensity:
        blocks = intensity_to_csv(it)
    else:
        blocks = nasalance_to_csv(nasalance_track(it))
    _commit([(args.out, blocks)])
    return 0


def cmd_calibrate(args) -> int:
    rec = _load_recording(args)
    take = "+".join(Path(p).name for p in (args.wav, args.oral) if p)
    with named(take, CalibrationError):  # too little signal, or an empty window
        profile = estimate_gain_offset(rec, _frame_config(args), window=args.stimulus_window,
                                       bandpass_spec=args.bandpass)
    save_profile(profile, args.out)
    print(f"gain offset {profile.gain_offset_db:+.4f} dB (nasal - oral) "
          f"-> {args.out}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    with named(args.spec, SynthSpecError):  # a silent or clipping spec
        rec, truth = synthesize(spec)
    base = Path(args.out)
    wav_path = base.with_suffix(".wav") if base.suffix != ".wav" else base
    truth_path = wav_path.with_suffix(".truth.csv")
    _commit([(wav_path, _wav_blocks([rec.nasal, rec.oral], spec.sample_rate, "float32")),
             (truth_path, truth_to_csv(truth))])
    print(f"wrote {wav_path} and {truth_path}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    records = read_token_csv(args.tokens)
    with named(args.tokens, DesignError, NumericError):
        fit = fit_nasalance_model(records)
    emms = emmeans(fit)
    sys_levels = fit.codings["system"][0]
    env_levels = fit.codings["environment"][0]

    n_pairs = len(env_levels) * (len(env_levels) - 1) // 2
    pairwise_family = (args.family_size if args.family_size is not None
                       else n_pairs * len(sys_levels))
    tables = [
        pairwise_env_contrasts(fit, s, family_size=pairwise_family)
        for s in sys_levels
    ]
    if len(sys_levels) == 2:
        tables.append(
            difference_of_differences_table(fit, family_size=args.family_size)
        )
    else:
        print(
            "note: difference-of-differences skipped (needs exactly 2 systems)",
            file=sys.stderr,
        )

    outputs = [(args.out, contrasts_to_csv(*tables))]
    if args.emm_out:
        outputs.append((args.emm_out, emm_to_csv(emms)))
    _commit(outputs)  # first, so a refused output prints no results

    se = [float(fit.covariance[i, i]) ** 0.5 for i in range(len(fit.names))]
    print(f"# n={len(records)} residual_df={fit.residual_df} "
          f"residual_variance={fit.residual_variance:.9g}")
    coefficients = [(name, f"{est:.9g}", f"{s:.9g}")
                    for name, est, s in zip(fit.names, fit.estimates, se)]
    sys.stdout.writelines(_csv_blocks(("coefficient", "estimate", "se"),
                                      _quoted(coefficients)))
    print()
    sys.stdout.writelines(emm_to_csv(emms))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nasalance",
        description="Two-channel nasometry: nasalance tracks, token extraction, "
                    "calibration, and system/environment contrast statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="vowel-token nasalance from WAV + TextGrid")
    p.add_argument("wav", help="stereo WAV (or nasal mono WAV with --oral)")
    p.add_argument("textgrid", help="forced-alignment TextGrid with phone/word tiers")
    p.add_argument("--wordlist", required=True,
                   help="CSV word,vowel,environment mapping")
    p.add_argument("--out", required=True, help="token CSV output path")
    p.add_argument("--speaker", default="unspecified")
    p.add_argument("--system", default="unspecified")
    p.add_argument("--vowels", type=_vowels_arg, default=DEFAULT_VOWEL_LABELS,
                   help="comma-separated ARPAbet vowel labels (stress-free)")
    p.add_argument("--calibration", default=None, help="calibration profile JSON")
    p.add_argument("--method", choices=("nearest", "linear"), default="nearest",
                   help="midpoint sampling method")
    _add_audio_flags(p)
    _add_frame_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("track", help="dump the full nasalance (or intensity) track")
    p.add_argument("wav")
    p.add_argument("--out", required=True)
    p.add_argument("--intensity", action="store_true",
                   help="dump per-channel dB instead of nasalance")
    p.add_argument("--calibration", default=None)
    _add_audio_flags(p)
    _add_frame_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("calibrate", help="estimate gain offset from a same-stimulus take")
    p.add_argument("wav")
    p.add_argument("--out", required=True, help="profile JSON output path")
    p.add_argument("--stimulus-window", type=_window_range_arg, default=None,
                   metavar="START:END", help="seconds of the take to use")
    _add_audio_flags(p)
    _add_frame_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("synth", help="render a synthetic fixture with ground truth")
    p.add_argument("spec", help="JSON synthesis spec")
    p.add_argument("--out", required=True,
                   help="output basename; writes .wav and .truth.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="fit the contrast model over a token CSV")
    p.add_argument("tokens", help="token CSV from analyze")
    p.add_argument("--out", required=True, help="contrast results CSV")
    p.add_argument("--emm-out", default=None, help="optional EMM table CSV")
    p.add_argument("--family-size", type=int, default=None,
                   help="Bonferroni family size for every table (default: "
                        "pairwise rows summed over all systems for pairwise "
                        "tables, own rows for the difference-of-differences)")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
