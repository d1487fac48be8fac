"""From a synthetic two-channel recording to a nasalance track.

Renders a recording whose nasal/oral balance ramps from fully oral to
fully nasal, runs the short-time intensity analysis, and compares the
recovered nasalance against the analytic ground truth.
"""

import numpy as np

from nasalance import FrameConfig, SineCarrier, SynthSpec
from nasalance import expected_nasalance, intensity_track, nasalance_track, synthesize

spec = SynthSpec(
    duration_s=1.2,
    sample_rate=48000.0,
    carrier=SineCarrier(440.0),
    nasal_env=[(0.0, 0.0), (1.0, 0.5)],   # oral -> nasal over one second
    oral_env=[(0.0, 0.5), (1.0, 0.0)],
)
rec, truth = synthesize(spec)
print(f"rendered {rec.duration_s:.2f} s at {rec.sample_rate:.0f} Hz")

track = nasalance_track(intensity_track(rec, FrameConfig()))
valid = track.valid  # the frames that are not NaN
print(f"{len(track)} frames, {int(valid.sum())} valid")

reference = expected_nasalance(spec, track.times)
err = np.abs(track.nasalance_pct[valid] - reference[valid])
print(f"max |recovered - truth| = {np.nanmax(err):.3f} percentage points")

print("\n  t (s)   truth   recovered")
for i in range(0, len(track), 20):
    if valid[i]:
        print(f"  {track.times[i]:5.3f}  {reference[i]:6.2f}   {track.nasalance_pct[i]:6.2f}")
