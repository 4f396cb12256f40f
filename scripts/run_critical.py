"""Locate the critical coupling for a profile and check its scaling.

Prints the critical coupling at two grid resolutions, the threshold residual
there, and the amplitude-covariance check (doubling the profile amplitude
should halve the critical coupling).
"""

import argparse

from smilansky_lab.model import PotentialProfile
from smilansky_lab.oned import ComparisonSpec, ResolutionPolicy, critical_coupling, threshold


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--a", type=float, default=1.0,
                    help="profile half-width")
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    prof = PotentialProfile("cos2", args.a, 1.0)
    lam = critical_coupling(args.omega, prof, tol=args.tol)
    lam_coarse = critical_coupling(
        args.omega, prof, tol=args.tol,
        policy=ResolutionPolicy(points_per_unit=84.0))
    e_res = threshold(ComparisonSpec(args.omega, lam, prof))

    prof2 = PotentialProfile("cos2", args.a, 2.0)
    lam2 = critical_coupling(args.omega, prof2, tol=args.tol)

    print(f"lambda_crit            = {lam:.12f}")
    print(f"lambda_crit (84 pt/u)  = {lam_coarse:.12f}  "
          f"(rel diff {abs(lam - lam_coarse) / lam:.2e})")
    print(f"E(lambda_crit)         = {e_res:.3e}")
    print(f"2 * lambda_crit(2V)    = {2.0 * lam2:.12f}  "
          f"(rel diff {abs(2.0 * lam2 - lam) / lam:.2e})")


if __name__ == "__main__":
    main()
