"""
Feature selection end to end
============================

Builds a small CSV, analyzes it (load, normalize and score every feature by
fuzzy relevance), and compares top-k with threshold selection.
"""

import tempfile
from pathlib import Path

from fuzzkey import PipelineConfig, analyze, render_report, select_threshold

csv_text = (
    "temp,rpm,noise,target\n"
    "20.5,1000,3.1,0\n"
    "31.0,1900,3.0,1\n"
    "25.2,1500,3.2,0\n"
    "38.9,2400,3.1,1\n"
    "22.4,1200,3.0,0\n"
    "35.5,2100,3.2,1\n"
)

# top-2 selection with defaults (3 sets, centroid inference)
cfg = PipelineConfig(k=2)
with tempfile.TemporaryDirectory() as workdir:
    csv_path = Path(workdir) / "plant.csv"
    csv_path.write_text(csv_text)
    outcome = analyze(csv_path, cfg)

names = outcome.feature_names
print("features:", names, "| rows:", outcome.n_rows)
print("target column present:", outcome.has_target)
for name, (lo, hi) in zip(names, outcome.ranges):
    print(f"  {name}: observed range [{lo}, {hi}]")

print("\nscores:")
for s in outcome.scores:
    print(f"  {names[s.feature_id]:>6}: {s.score:.6f}")
print("top-2 picks:", [names[i] for i in outcome.result.selected])

# the same scores pushed through a threshold instead
by_tau = select_threshold(outcome.scores, 0.45)
print("tau=0.45 picks:", [names[i] for i in by_tau.selected])

# the full deterministic report the CLI would print
print("\n" + render_report(outcome, cfg).decode())
