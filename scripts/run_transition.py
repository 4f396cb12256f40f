"""Run the 2D transition scan on both sides of the critical coupling.

Scans lambda = 0.5 * lambda_crit and 1.5 * lambda_crit over a ladder of
truncation half-widths Y and writes one CSV per side.  The subcritical side
should show a Y-stable ground energy; the supercritical side a ground energy
diving like -c Y^2 with c close to |E0|.
"""

import argparse
import pathlib

from smilansky_lab import grid2d
from smilansky_lab.model import ChannelSpec, ModelConfig, PotentialProfile
from smilansky_lab.oned import ComparisonSpec, critical_coupling, threshold


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--ladder", type=float, nargs="+",
                    default=[4.0, 8.0, 16.0, 24.0, 32.0])
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    prof = PotentialProfile("cos2", 1.0, 1.0)
    lam_crit = critical_coupling(args.omega, prof)
    print(f"lambda_crit = {lam_crit:.9f}")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for tag, factor in (("subcritical", 0.5), ("supercritical", 1.5)):
        lam = factor * lam_crit
        cfg = ModelConfig(omega=args.omega,
                          channels=(ChannelSpec(lam, 0.0, prof),))
        scan = grid2d.transition_scan(cfg, args.ladder)
        path = outdir / f"scan_{tag}.csv"
        path.write_text(grid2d.scan_csv(scan))
        print(f"{tag}: lambda = {lam:.6f}, verdict = {scan.verdict}, "
              f"c_fit = {scan.c_fit:.6f} -> {path}")
        if tag == "supercritical":
            e0 = threshold(ComparisonSpec(args.omega, lam, prof))
            print(f"  comparison |E0| = {abs(e0):.6f}")


if __name__ == "__main__":
    main()
