#!/usr/bin/env python3
"""Smoke check of the paper reproduction benches.

Usage: check_paper.py BENCH_DIR

Runs bench_table1_parameters, bench_fig5_falling_mis and bench_fig7_accuracy
from BENCH_DIR (e.g. build/bench) with their default flags and checks:

  * Table I: the fitted raw model's fall(-inf)/fall(0) ratio prints as
    2.000 (paper Section IV) and the fit RMS over the six targets is
    <= 1.5 ps;
  * Fig 5: the model's max |error| against the analog falling-MIS curve is
    < 2.5 ps;
  * Fig 7: "HM with dmin" beats inertial delay (< 1.00) on all four
    configurations and "HM without dmin" loses to it (> 1.00) on both LOCAL
    ones -- the bench's own "expected agreements".

Prints each checked value; exits 1 listing every failed check. CI (the
paper-smoke job) runs it on the Release build.
"""

import os
import re
import subprocess
import sys

TIME_UNITS = {"fs": 1e-3, "ps": 1.0, "ns": 1e3}


def run(bench_dir, name):
    return subprocess.run([os.path.join(bench_dir, name)], check=True,
                          capture_output=True, text=True).stdout


def time_ps(text, label):
    """Value of `label <number> <unit>` in picoseconds."""
    m = re.search(re.escape(label) + r"\s*([-\d.]+) (fs|ps|ns)", text)
    if not m:
        raise SystemExit(f"check_paper: no '{label}' line in output")
    return float(m.group(1)) * TIME_UNITS[m.group(2)]


def fig7_rows(text):
    """{configuration: {model: normalized area}} of the Fig 7 table."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("configuration"))
    header = re.split(r"\s{2,}", lines[start].strip())
    rows = {}
    for line in lines[start + 2:]:
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) != len(header):
            break
        rows[cells[0]] = dict(zip(header[1:], map(float, cells[1:])))
    return rows


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    bench_dir = sys.argv[1]
    checks = []

    table1 = run(bench_dir, "bench_table1_parameters")
    checks.append(("Table I ratio fall(-inf)/fall(0) raw = 2.000",
                   "ratio fall(-inf)/fall(0) raw = 2.000 " in table1))
    rms = time_ps(table1, "fit RMS over the six targets:")
    checks.append((f"Table I fit RMS {rms:.3f} ps <= 1.5 ps", rms <= 1.5))

    fig5 = run(bench_dir, "bench_fig5_falling_mis")
    max_error = time_ps(fig5, "max |error| =")
    checks.append((f"Fig 5 max |error| {max_error:.3f} ps < 2.5 ps",
                   max_error < 2.5))

    rows = fig7_rows(run(bench_dir, "bench_fig7_accuracy"))
    if len(rows) != 4:
        raise SystemExit(f"check_paper: expected 4 Fig 7 rows, got {rows}")
    for config, models in rows.items():
        hm = models["HM with dmin"]
        checks.append((f"Fig 7 {config}: HM with dmin {hm:.2f} < 1.00",
                       hm < 1.0))
        if config.endswith("LOCAL"):
            hm0 = models["HM without dmin"]
            checks.append((f"Fig 7 {config}: HM without dmin {hm0:.2f} > 1.00",
                           hm0 > 1.0))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(("ok    " if ok else "FAIL  ") + name)
    if failed:
        raise SystemExit(f"check_paper: {len(failed)} check(s) failed")


if __name__ == "__main__":
    main()
