"""Build quasi-mode certificates for a supercritical channel.

Tunes the coupling so the comparison operator has threshold E0 = -1, solves
its ground state on the channel's support chain (transparent ends, exact
exponential tails), then emits one certificate row per epsilon in the
ladder, for each requested mu.
"""

import argparse

from smilansky_lab import weyl
from smilansky_lab.model import ChannelSpec, ModelConfig
from smilansky_lab.model import PotentialProfile
from smilansky_lab.oned import ComparisonSpec, ground_state, tune_lambda_to_threshold


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.05, 0.02])
    ap.add_argument("--mu", type=float, nargs="+", default=[0.0, 2.5, -0.5])
    args = ap.parse_args()

    prof = PotentialProfile("cos2", 1.0, 1.0)
    lam = tune_lambda_to_threshold(1.0, prof, -1.0)
    cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(lam, 0.0, prof),))
    gs = ground_state(ComparisonSpec(1.0, lam, prof))
    print(f"lambda(E0=-1) = {lam:.9f}")

    for mu in args.mu:
        rows = weyl.weyl_certificate(cfg, gs, mu, args.eps)
        summary = weyl.certificate_summary(rows)
        print(f"\nmu = {mu}")
        print(weyl.certificate_csv(rows).strip())
        print("checks:", ", ".join(f"{k}={v}"
                                   for k, v in summary["checks"].items()))


if __name__ == "__main__":
    main()
