"""
End-to-end pipeline: simulate -> tally -> evaluate -> emit
==========================================================

The same flow is available from the shell:

    adux simulate --preset all --seed 2024 --out sessions.csv
    adux report --input sessions.csv --out report.json
    adux report --input sessions.csv --report-format csv --out report.csv
    adux plotdata --figure fig3 --p-hat 0.7 --out widths.csv

Everything is deterministic given the seed; rerunning produces
byte-identical files once run metadata is suppressed (--no-meta).

Every emitter returns text. Files are written through open_output, as the
command line writes them: to a temporary file that replaces the target only
once the write has finished.
"""

import json
import tempfile
from pathlib import Path

from adux import (
    BetaParams,
    Dataset,
    category_presets,
    emit_report,
    emit_sessions,
    evaluate,
    fig3_rows,
    gen_ratings,
    tally_sessions,
)
from adux.output import open_output


workdir = Path(tempfile.mkdtemp(prefix="adux-demo-"))
sessions_csv = workdir / "sessions.csv"


def write(path: Path, text: str) -> None:
    with open_output(path) as handle:
        handle.write(text)


# 1. simulate -----------------------------------------------------------------
datasets = [gen_ratings(spec) for spec in category_presets(seed=2024)]
dataset = Dataset(
    space=datasets[0].space,
    observations=tuple(o for ds in datasets for o in ds.observations),
)
write(sessions_csv, emit_sessions(dataset))
print(f"wrote {sessions_csv} ({len(dataset)} sessions)")

# 2. tally (one pass that validates every row and keeps only its counts) ------
counts, rejections = tally_sessions(sessions_csv, fmt="csv", strictness="strict")
assert counts == dataset.counts()
print(f"tallied {len(counts)} sessions, {len(rejections)} rejections")

# 3. evaluate ------------------------------------------------------------------
report = evaluate(counts, prior=BetaParams(1.0, 1.0), mass=0.95,
                  n_rejected=len(rejections))
print(f"config digest: {report.meta.config_digest}")

# 4. emit ----------------------------------------------------------------------
report_json = workdir / "report.json"
report_csv = workdir / "report.csv"
write(report_json, emit_report(report, fmt="json"))
write(report_csv, emit_report(report, fmt="csv"))
print(f"wrote {report_json} and {report_csv}")

doc = json.loads(report_json.read_text())
print()
print("category names in the report:",
      ", ".join(c["name"] for c in doc["categories"]))

# Interval-width experiment (fig3): no session data needed ---------------------
widths_csv = workdir / "widths.csv"
rows = fig3_rows(p_hat=0.7, trial_counts=(10, 50, 200, 1000))
write(widths_csv, "".join(",".join(map(str, row)) + "\n" for row in rows))
print()
print("fig3 table (HDI width vs Wald width by sample size):")
print(widths_csv.read_text())
