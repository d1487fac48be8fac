"""Benchmark of the nasalance CLI on seeded synthetic studies.

Usage, from the repository root:

    python3 bench/run.py --workload long_session --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Each run generates its workload's inputs from the seed with nasalance.synth
(timed as set-up, several times), then runs two whole workload passes and
more calls in pass order while a typical call would still end within
--seconds. With --trace 0 every CLI call is its own `python -m nasalance`
process, timed from spawn to reap, with its peak RSS from os.wait4. With --trace 1 the same calls run through
nasalance.cli.main in this process, once plain and once with spans around
every layer, and the per-layer figures are reported instead. Every output is
checked against the synthetic oracle and against the first pass's bytes.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MB = 2**20
SETUPS = 3  # set-up repeats per untraced run; setup_s is their median
SMOKE_SCALE = {"long_session": 1 / 60, "study_batch": 0.2, "pooled_stats": 0.02}

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "audio_io.load_s": "s", "audio_io.bytes": "bytes", "audio_io.mb_per_s": "MB/s",
    "audio_io.load_alloc_mb": "MB",
    "intensity.intensity_track_s": "s", "intensity.frames": "count",
    "intensity.frames_per_s": "1/s", "intensity.alloc_mb": "MB",
    "intensity.bandpass_s": "s", "intensity.bandpass_alloc_mb": "MB",
    "core.nasalance_track_s": "s", "core.value_at_s": "s", "core.value_at_calls": "count",
    "core.nasalance_to_csv_s": "s", "core.csv_rows": "count",
    "textgrid.read_textgrid_s": "s", "textgrid.intervals": "count",
    "textgrid.select_vowel_tokens_s": "s", "textgrid.tokens": "count",
    "calibration.estimate_gain_offset_s": "s", "calibration.apply_calibration_s": "s",
    "pipeline.extract_token_records_self_s": "s", "pipeline.load_wordlist_s": "s",
    "pipeline.tokens_to_csv_s": "s", "pipeline.rejects": "count",
    "pipeline.read_token_csv_s": "s",
    "stats.build_design_s": "s", "stats.design_cells": "count", "stats.ols_fit_s": "s",
    "stats.emmeans_s": "s", "stats.contrasts_s": "s", "stats.csv_s": "s",
    "synth.synthesize_s": "s", "audio_io.write_wav_s": "s",
    "trace.overhead_s": "s",
}


class Outcome(NamedTuple):
    """One CLI call: wall time, peak RSS, exit code and user+system CPU time."""

    wall_s: float
    rss_mb: float
    code: int
    cpu_s: float


def tail_summary(values) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median={statistics.median(values):.6g} n={len(values)}"
    n = len(values)
    tail = next((p for p in (99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10), None)
    if tail is not None:
        q = statistics.quantiles(values, n=100, method="inclusive")[tail - 1]
        text += f" p{tail}={q:.6g}"
    return text


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Spawner:
    """The small helper process (bench/spawn.py) that runs every CLI child."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "env": env, "cwd": str(ROOT),
                   "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ChildRunner:
    """Each call is a fresh `python -m nasalance` process with stdin closed."""

    def __init__(self, spawner: Spawner, logdir: Path):
        self.spawner = spawner
        self.logdir = logdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, argv):
        err = self.logdir / "stderr"
        reply = self.spawner.run([sys.executable, "-m", "nasalance", *argv], self.env,
                                 self.logdir / "stdout", err)
        if reply["code"]:
            sys.stderr.write(err.read_text(errors="replace")[-2000:])
        return Outcome(reply["wall_s"], reply["maxrss_kb"] * 1024 / MB, reply["code"],
                       reply["cpu_s"])


class InProcessRunner:
    """Each call is nasalance.cli.main(argv) in this process, optionally traced."""

    def __init__(self, logdir: Path, tracer=None):
        import nasalance.cli

        self.main = nasalance.cli.main
        if tracer is not None:
            self.main = tracer.span("cli", self.main)
        self.logdir = logdir

    def __call__(self, argv):
        with open(self.logdir / "inproc.log", "w") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            wall = time.perf_counter() - start
        return Outcome(wall, 0.0, code, 0.0)


class Tally:
    """Calls attempted and failed, and the bytes every output must repeat."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.digests = {}
        self.problems = []

    def judge(self, calls, results, tamper=None):
        if tamper is not None:
            tamper()
        for call, code in zip(calls, (r.code for r in results)):
            self.attempted += 1
            problems = [f"exit code {code}"] if code != 0 else call.check()
            for path in call.outputs if code == 0 else ():
                sha = digest(path)
                first = self.digests.setdefault(path.name, sha)
                if sha != first:
                    problems.append(f"{path.name} bytes differ from the first pass")
            if problems:
                self.failed += 1
                self.problems += [f"{call.subcommand}: {p}" for p in problems]


def run_pass(calls, runner):
    start = time.perf_counter()
    results = []
    for call in calls:
        if call.before is not None:
            call.before()
        results.append(runner(call.argv))
    return time.perf_counter() - start, results


def fixture_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + digest(path).encode())
    return h.hexdigest()


def set_up(workload, seed, workdir: Path, scale, repeats):
    """Build the inputs `repeats` times; every build must give the same bytes."""
    import fixtures

    times, digests = [], set()
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        fx = fixtures.BUILDERS[workload](seed, workdir, scale)
        times.append(time.perf_counter() - start)
        digests.add(fixture_digest(workdir))
    return fx, times, len(digests) == 1


def untraced(spawner, calls, seconds, logdir, tally, tamper=None):
    """Two whole passes, then more calls in pass order while a typical call at
    that place still ends within `seconds`.

    pass_s is the sum over the pass's calls of each call's median wall time:
    one slow call moves only its own median, and the run's time is spent on
    calls, not lost to a pass that would not fit.
    """
    runner = ChildRunner(spawner, logdir)
    import_seconds(spawner, logdir, repeats=1)  # warm-up: file caches and bytecode
    samples = [[] for _ in calls]  # Outcome per call, by place in the pass
    passes = []  # (wall, results) of every whole pass
    start = time.perf_counter()
    while True:
        pass_start, results = time.perf_counter(), []
        for call, done in zip(calls, samples):
            if len(passes) >= 2 and (time.perf_counter() - start + statistics.median(
                    r.wall_s for r in done)) > seconds:
                break
            if call.before is not None:
                call.before()
            results.append(runner(call.argv))
            done.append(results[-1])
        tally.judge(calls, results, tamper if not passes else None)
        if len(results) < len(calls):
            break
        passes.append((time.perf_counter() - pass_start, results))
    pairs = [(c, r) for c, done in zip(calls, samples) for r in done]
    metrics = {
        "pass_s": sum(statistics.median(r.wall_s for r in done) for done in samples),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in done) for done in samples),
    }
    lines = [f"pass_s value={metrics['pass_s']:.6g} unit=s (sum of per-call medians; "
             f"{len(pairs)} calls, {len(passes)} whole passes)",
             f"whole_pass_s {tail_summary([w for w, _ in passes])} unit=s",
             f"pass_cpu_s value="
             f"{sum(statistics.median(r.cpu_s for r in done) for done in samples):.6g}"
             " unit=s (user+system time of the children, sum of per-call medians)",
             f"call_s {tail_summary([r.wall_s for _, r in pairs])} unit=s"]
    for sub in ("analyze", "track", "calibrate", "stats"):
        sub_walls = [r.wall_s for c, r in pairs if c.subcommand == sub]
        if sub_walls:
            lines.append(f"{sub}_s {tail_summary(sub_walls)} unit=s")
    audio = [(c.audio_s, r.wall_s) for c, r in pairs if c.audio_s]
    if audio:
        ratio = sum(a for a, _ in audio) / sum(w for _, w in audio)
        lines.append(f"audio_x_realtime value={ratio:.6g} unit=x "
                     "(audio seconds per wall second over analyze/track/calibrate)")
    stats = [(c.tokens, r.wall_s) for c, r in pairs if c.tokens]
    if stats:
        lines.append(f"tokens_per_s {tail_summary([t / w for t, w in stats])} unit=1/s")
    lines.append(f"peak_rss_mb value={metrics['peak_rss_mb']:.6g} unit=MB "
                 "(highest per-call median)")
    return metrics, lines


def import_seconds(spawner, logdir: Path, repeats=3) -> float:
    """Wall time of a process that only imports nasalance.cli: the fixed cost
    every CLI call pays before its subcommand starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import nasalance.cli"]
    return statistics.median(
        spawner.run(argv, env, logdir / "stdout", logdir / "stderr")["wall_s"]
        for _ in range(repeats))


def layer_metrics(tracer, import_s) -> dict:
    """One traced pass's figures; a layer the workload never calls reads 0."""
    summary, counts = tracer.summary(), tracer.counts

    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    def self_s(name):
        return total(name, "self_s")

    def alloc_mb(name):
        return total(name, "alloc_bytes") / MB

    def per_s(work, seconds):
        return work / seconds if seconds else 0.0

    return {
        "cli.import_s": import_s, "cli.self_s": self_s("cli"),
        "audio_io.load_s": total("audio_io.load"),
        "audio_io.bytes": counts["audio_io.bytes"],
        "audio_io.mb_per_s": per_s(counts["audio_io.bytes"] / MB, total("audio_io.load")),
        "audio_io.load_alloc_mb": alloc_mb("audio_io.load"),
        "intensity.intensity_track_s": total("intensity.intensity_track"),
        "intensity.frames": counts["intensity.frames"],
        "intensity.frames_per_s": per_s(counts["intensity.frames"],
                                        total("intensity.intensity_track")),
        "intensity.alloc_mb": alloc_mb("intensity.intensity_track"),
        "intensity.bandpass_s": total("intensity.bandpass"),
        "intensity.bandpass_alloc_mb": alloc_mb("intensity.bandpass"),
        "core.nasalance_track_s": total("core.nasalance_track"),
        "core.value_at_s": total("core.value_at"),
        "core.value_at_calls": total("core.value_at", "calls"),
        "core.nasalance_to_csv_s": total("core.nasalance_to_csv"),
        "core.csv_rows": counts["core.csv_rows"],
        "textgrid.read_textgrid_s": total("textgrid.read_textgrid"),
        "textgrid.intervals": counts["textgrid.intervals"],
        "textgrid.select_vowel_tokens_s": total("textgrid.select_vowel_tokens"),
        "textgrid.tokens": counts["textgrid.tokens"],
        "calibration.estimate_gain_offset_s": total("calibration.estimate_gain_offset"),
        "calibration.apply_calibration_s": total("calibration.apply_calibration"),
        "pipeline.extract_token_records_self_s": self_s("pipeline.extract_token_records"),
        "pipeline.load_wordlist_s": total("pipeline.load_wordlist"),
        "pipeline.tokens_to_csv_s": total("pipeline.tokens_to_csv"),
        "pipeline.rejects": counts["pipeline.rejects"],
        "pipeline.read_token_csv_s": total("pipeline.read_token_csv"),
        "stats.build_design_s": total("stats.build_design"),
        "stats.design_cells": counts["stats.design_cells"],
        "stats.ols_fit_s": total("stats.ols_fit"),
        "stats.emmeans_s": total("stats.emmeans"),
        "stats.contrasts_s": total("stats.contrasts"),
        "stats.csv_s": total("stats.csv"),
    }


def traced(spawner, workload, seed, calls, seconds, logdir, tally, setup_tracer):
    import spans

    import_s = import_seconds(spawner, logdir)
    sub_wall, sub_results = run_pass(calls, ChildRunner(spawner, logdir))
    tally.judge(calls, sub_results)
    plain_runner = InProcessRunner(logdir)
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + sum(pairs[-1][:2]) <= seconds:
        plain_wall, results = run_pass(calls, plain_runner)
        tally.judge(calls, results)
        tracer = spans.Tracer()
        tracer.install(spans.CLI_TARGETS)
        try:
            traced_wall, results = run_pass(calls, InProcessRunner(logdir, tracer))
        finally:
            tracer.uninstall()
        tally.judge(calls, results)
        pairs.append((plain_wall, traced_wall, tracer))
    per_pair = []
    for plain_wall, traced_wall, tracer in pairs:
        m = layer_metrics(tracer, import_s)
        m["trace.overhead_s"] = traced_wall - plain_wall
        per_pair.append(m)
    metrics = {k: (statistics.median_low if LAYER_UNITS[k] in ("count", "bytes")
                   else statistics.median)(m[k] for m in per_pair) for k in per_pair[0]}
    setup = setup_tracer.summary()
    metrics["synth.synthesize_s"] = setup.get("synth.synthesize", {}).get("total_s", 0.0)
    metrics["audio_io.write_wav_s"] = setup.get("audio_io.write_wav", {}).get("total_s", 0.0)

    lines = [f"traced passes={len(pairs)} import_s={import_s:.4f} "
             f"subprocess pass_s={sub_wall:.4f}"]
    last = pairs[-1][2]
    roots = [s for s in last.spans if s["name"] == "cli"]
    for call, root, wall in zip(calls, roots, (r.wall_s for r in sub_results)):
        span_s = root["end"] - root["start"]
        slack = import_s + abs(metrics["trace.overhead_s"])
        verdict = "within" if abs(wall - span_s) <= slack else "NOT within"
        lines.append(f"account {call.subcommand}: untraced {wall:.4f} s, traced span "
                     f"{span_s:.4f} s, gap {wall - span_s:.4f} s {verdict} import "
                     f"{import_s:.4f} s + trace overhead "
                     f"{abs(metrics['trace.overhead_s']):.4f} s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{workload}-seed{seed}-trace.json"
    trace_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "spans": last.spans,
        "summary": last.summary(), "setup": setup, "metrics": metrics,
    }, indent=1) + "\n", encoding="utf-8")
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, lines


def run(spawner, workload, seed, seconds, trace, scale=1.0, tamper=None):
    """One benchmark run; returns (result dict, report lines)."""
    import numpy
    import scipy

    import fixtures
    import spans
    import workloads

    base = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    inputs, outputs = base / "inputs", base / "outputs"
    lines = [f"# nasalance benchmark workload={workload} seed={seed} seconds={seconds} "
             f"trace={trace} scale={scale:g}",
             f"env python={platform.python_version()} numpy={numpy.__version__} "
             f"scipy={scipy.__version__} nproc={os.cpu_count()} "
             f"threads={os.environ['OMP_NUM_THREADS']}"]
    tally = Tally()
    try:
        setup_tracer = spans.Tracer()
        if trace:
            setup_tracer.install(spans.SETUP_TARGETS)
        try:
            fx, setup_times, same = set_up(workload, seed, inputs, scale,
                                           1 if trace else SETUPS)
        finally:
            setup_tracer.uninstall()
        if not same:
            tally.problems.append("setup: repeated builds gave different bytes")
        sizes = fx.sizes()
        lines.append("fixture " + " ".join(f"{k}={v}" for k, v in sizes.items()))
        lines.append(f"setup_s {tail_summary(setup_times)} unit=s")
        outputs.mkdir(parents=True)
        calls = workloads.CALLS[workload](fx, outputs)
        if trace:
            metrics, more = traced(spawner, workload, seed, calls, seconds, base, tally,
                                   setup_tracer)
            units = LAYER_UNITS
        else:
            metrics, more = untraced(spawner, calls, seconds, base, tally, tamper)
            metrics["setup_s"] = statistics.median(setup_times)
            units = E2E_UNITS
        lines += more
        lines += [f"sha256 {name} {sha}" for name, sha in sorted(tally.digests.items())]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    lines.append(f"failed_ratio value={tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted} calls) unit=1")
    lines += [f"problem {p}" for p in tally.problems[:20]]
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, lines


def _expect(condition, message):
    if not condition:
        raise RuntimeError(f"smoke check failed: {message}")


def smoke(spawner) -> int:
    """Small versions of every workload: every declared metric, with its unit,
    and a corrupted token that must be counted as failed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    _expect(e2e == E2E_UNITS, f"end-to-end units {e2e} != {E2E_UNITS}")
    _expect(layer == LAYER_UNITS, f"per-layer units differ: {set(layer) ^ set(LAYER_UNITS)}")
    for name, scale in SMOKE_SCALE.items():
        for trace, units in ((0, e2e), (1, layer)):
            result, lines = run(spawner, name, 7, 0, trace, scale)
            print("\n".join(lines))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == units, f"{name} trace={trace}: {got} != {units}")
            _expect(result["correct"] and result["failed"] == 0,
                    f"{name} trace={trace} failed: {result}")
            _expect(all(isinstance(v["value"], (int, float))
                        for v in result["metrics"].values()), "a metric is not a number")

    def shift_one_token():
        work = ROOT / ".bench_work" / f"long_session-7-{os.getpid()}"
        tokens = work / "outputs" / "tokens.csv"
        rows = tokens.read_text(encoding="utf-8").splitlines()
        fields = rows[1].split(",")
        fields[-1] = f"{float(fields[-1]) + 5.0:.6f}"
        rows[1] = ",".join(fields)
        tokens.write_text("\n".join(rows) + "\n", encoding="utf-8")

    result, lines = run(spawner, "long_session", 7, 0, 0, SMOKE_SCALE["long_session"],
                        tamper=shift_one_token)
    print("\n".join(lines))
    # the shifted token fails analyze's oracle check once; the second pass's
    # clean bytes then differ from the first pass's, which fails it again
    _expect(result["failed"] == 2 and not result["correct"],
            f"a token shifted by 5 pp was not counted: {result}")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("long_session", "study_batch", "pooled_stats"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run small versions of every workload and self-check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "nasalance" / "cli.py").is_file():
        print(f"error: no nasalance sources under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    spawner = Spawner()  # before this process grows; see bench/spawn.py
    try:
        sys.path.insert(0, str(SRC))
        import nasalance

        if Path(nasalance.__file__).resolve().parent != SRC / "nasalance":
            print(f"error: imported nasalance from {nasalance.__file__}", file=sys.stderr)
            return 2
        if args.smoke:
            return smoke(spawner)
        result, lines = run(spawner, args.workload, args.seed, args.seconds, args.trace)
    finally:
        spawner.close()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
