#!/usr/bin/env python3
"""Emit the spectrum-figure datasets (weak and strong coupling) as CSV.

Writes four files into --out-dir via the CLI so the headers carry the
resolved configuration:

  weak_spectrum.csv    classified excitations for 0.1*exp(-p^2/5),
                       spacing 0.15, window |p| <= 3 (dots/triangles/squares)
  weak_vhat.csv        the potential curve to plot alongside
  strong_spectrum.csv  classified excitations for 75*exp(-p^2/2): the
                       dispersion develops a maxon/roton pair
  strong_vhat.csv      its potential curve

Plotting recipe: scatter energy against p1, marker by `class`
(1qp -> dot, 2qp -> triangle, 3qp+ -> square).
"""

import argparse
import csv
import math
import sys
from pathlib import Path

from bogospec.cli import main as cli_main

L = 2.0 * math.pi / 0.15  # spacing 0.15


def write_vhat_curve(path: Path, amplitude: float, width: float, p_max: float) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# vhat(p) = {amplitude} * exp(-p^2/{width})\n")
        w = csv.writer(fh)
        w.writerow(["p", "vhat"])
        steps = 400
        for i in range(-steps, steps + 1):
            p = p_max * i / steps
            w.writerow([p, amplitude * math.exp(-p * p / width)])


#: name, vhat amplitude and width, kappa, window of each figure
FIGURES = [("weak", 0.1, 5.0, 1.2, 3.0), ("strong", 75.0, 2.0, 12.0, 6.0)]


def run(out_dir: Path) -> int:
    """Write the four files; returns the first nonzero exit code of a figure run, else 0."""
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, amplitude, width, kappa, window in FIGURES:
        codes.append(cli_main(
            [
                "figure",
                "--vhat", f"gaussian:{amplitude:g}:{width:g}",
                "--L", str(L),
                "--kappa", f"{kappa:g}",
                "--window", f"{window:g}",
                "--out", str(out_dir / f"{name}_spectrum.csv"),
            ]
        ))
        write_vhat_curve(out_dir / f"{name}_vhat.csv", amplitude, width, window)
    code = next((c for c in codes if c), 0)
    if not code:
        print(f"wrote 4 files to {out_dir}")
    return code


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out/figures"))
    sys.exit(run(ap.parse_args().out_dir))
