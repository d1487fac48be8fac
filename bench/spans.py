"""In-memory spans around the calls into each nasalance layer.

`Tracer.install` replaces a function at the name its caller looks up (for
example `nasalance.pipeline.intensity_track`, not the defining module), so
the program's own code is unchanged and nested calls form a tree:
cli -> pipeline -> layer. Each span records its parent, start, end and self
time (its duration minus the part its children cover). For the layers that
allocate whole-signal arrays, tracemalloc gives the peak allocation inside
the span; it runs only during those spans and only in the traced run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict

# span name -> counter extracted from (args, result)
COUNTERS = {
    "audio_io.load": lambda args, out: {"audio_io.bytes": sum(
        os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)))},
    "intensity.intensity_track": lambda args, out: {"intensity.frames": len(out)},
    "core.nasalance_to_csv": lambda args, out: {"core.csv_rows": len(args[0])},
    "textgrid.read_textgrid": lambda args, out: {
        "textgrid.intervals": sum(len(t.intervals) for t in out)},
    "textgrid.select_vowel_tokens": lambda args, out: {"textgrid.tokens": len(out)},
    "pipeline.extract_token_records": lambda args, out: {"pipeline.rejects": len(out[1])},
    "stats.build_design": lambda args, out: {"stats.design_cells": int(out.X.size)},
}
ALLOC_SPANS = frozenset({"audio_io.load", "intensity.intensity_track", "intensity.bandpass"})


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, parent, name, start, end, self_s, alloc_bytes
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "name": name,
                      "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(record)
            owns_alloc = name in ALLOC_SPANS and not tracemalloc.is_tracing()
            if owns_alloc:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            self._stack.append(record)
            record["child_s"] = 0.0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if owns_alloc:
                    record["alloc_bytes"] = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                child_s = record.pop("child_s")
                record.update(start=start, end=end, self_s=end - start - child_s)
                if self._stack:
                    self._stack[-1]["child_s"] += end - start
            counter = COUNTERS.get(name)
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[key] += value
            return out

        return wrapper

    def install(self, targets):
        """Patch each (module, attribute, span name) until `uninstall`."""
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.span(name, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, peak allocation."""
        out = {}
        for s in self.spans:
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "alloc_bytes": 0})
            agg["calls"] += 1
            agg["total_s"] += s["end"] - s["start"]
            agg["self_s"] += s["self_s"]
            agg["alloc_bytes"] = max(agg["alloc_bytes"], s.get("alloc_bytes", 0))
        return out


# Wrapped at the name each caller looks up: the CLI's imports, the pipeline's
# imports, and the two library-internal calls that matter for time.
CLI_TARGETS = [
    ("nasalance.cli", "load_stereo", "audio_io.load"),
    ("nasalance.cli", "load_pair", "audio_io.load"),
    ("nasalance.cli", "load_wordlist", "pipeline.load_wordlist"),
    ("nasalance.cli", "read_textgrid", "textgrid.read_textgrid"),
    ("nasalance.cli", "load_profile", "calibration.load_profile"),
    ("nasalance.cli", "extract_token_records", "pipeline.extract_token_records"),
    ("nasalance.cli", "tokens_to_csv", "pipeline.tokens_to_csv"),
    ("nasalance.cli", "rejects_to_csv", "pipeline.rejects_to_csv"),
    ("nasalance.cli", "intensity_track", "intensity.intensity_track"),
    ("nasalance.cli", "apply_calibration", "calibration.apply_calibration"),
    ("nasalance.cli", "nasalance_track", "core.nasalance_track"),
    ("nasalance.cli", "nasalance_to_csv", "core.nasalance_to_csv"),
    ("nasalance.cli", "estimate_gain_offset", "calibration.estimate_gain_offset"),
    ("nasalance.cli", "save_profile", "calibration.save_profile"),
    ("nasalance.cli", "read_token_csv", "pipeline.read_token_csv"),
    ("nasalance.cli", "fit_nasalance_model", "stats.fit_nasalance_model"),
    ("nasalance.cli", "emmeans", "stats.emmeans"),
    ("nasalance.cli", "pairwise_env_contrasts", "stats.contrasts"),
    ("nasalance.cli", "difference_of_differences_table", "stats.contrasts"),
    ("nasalance.cli", "contrasts_to_csv", "stats.csv"),
    ("nasalance.cli", "emm_to_csv", "stats.csv"),
    ("nasalance.pipeline", "bandpass", "intensity.bandpass"),
    ("nasalance.pipeline", "intensity_track", "intensity.intensity_track"),
    ("nasalance.pipeline", "apply_calibration", "calibration.apply_calibration"),
    ("nasalance.pipeline", "nasalance_track", "core.nasalance_track"),
    ("nasalance.pipeline", "value_at", "core.value_at"),
    ("nasalance.pipeline", "select_vowel_tokens", "textgrid.select_vowel_tokens"),
    ("nasalance.calibration", "intensity_track", "intensity.intensity_track"),
    ("nasalance.stats", "build_design", "stats.build_design"),
    ("nasalance.stats", "ols_fit", "stats.ols_fit"),
]
SETUP_TARGETS = [
    ("fixtures", "synthesize", "synth.synthesize"),
    ("fixtures", "write_wav", "audio_io.write_wav"),
]
