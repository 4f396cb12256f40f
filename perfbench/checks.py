"""Output checks for the benchmark, computed apart from the program.

Every reference here is written from the model's definitions, not from the
package: the 1D comparison operator -d2/dx2 + omega^2 - lambda V(x) is
discretized with its own central-difference matrix and solved with LAPACK
(`scipy.linalg.eigh_tridiagonal`), and the Neumann-bracketing strip bound is
re-derived term by term.  Each `check_*` function raises `CheckFailed` with
the reason when a result is wrong, and returns None when it holds.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal


class CheckFailed(Exception):
    """A program output disagrees with the independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- reference 1D threshold -------------------------------------------------

# Truncation half-width and the two mesh widths of the reference.  The channel
# states of the benchmark's configs decay at least like exp(-0.7 |x|), so the
# truncation error at X = 30 is far below 1e-12; Richardson over h and h/2
# removes the O(h^2) term of the central difference.
_X_REF = 30.0
_H_REF = 1.0 / 160.0


def profile_values(profile: dict, x: np.ndarray) -> np.ndarray:
    """V(x) for a config's profile dict: cos2 or quartic bump on [-a, a]."""
    a, amp = float(profile.get("a", 1.0)), float(profile.get("amplitude", 1.0))
    family = profile.get("family", "cos2")
    inside = np.abs(x) < a
    v = np.zeros_like(x)
    if family == "cos2":
        v[inside] = amp * np.cos(np.pi * x[inside] / (2.0 * a)) ** 2
    elif family == "quartic":
        v[inside] = amp * (1.0 - (x[inside] / a) ** 2) ** 2
    else:
        raise ValueError(f"no reference for profile family {family!r}")
    return v


def _sup_and_slope(profile: dict) -> tuple[float, float]:
    """(sup V, sup |V'|) of a cos2 or quartic bump, from calculus."""
    a, amp = float(profile.get("a", 1.0)), float(profile.get("amplitude", 1.0))
    if profile.get("family", "cos2") == "cos2":
        return amp, amp * math.pi / (2.0 * a)
    return amp, amp * 8.0 / (3.0 * math.sqrt(3.0) * a)


def reference_threshold(omega: float, lam: float, profile: dict) -> float:
    """inf sigma(L) on the line: lowest eigenvalue of the truncated
    central-difference matrix, Richardson-extrapolated over h and h/2."""
    def lowest(h: float) -> float:
        n = int(round(2.0 * _X_REF / h)) - 1
        x = -_X_REF + h * np.arange(1, n + 1)
        d = 2.0 / h**2 + omega**2 - lam * profile_values(profile, x)
        e = np.full(n - 1, -1.0 / h**2)
        return float(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                      select_range=(0, 0))[0])
    coarse, fine = lowest(_H_REF), lowest(0.5 * _H_REF)
    return (4.0 * fine - coarse) / 3.0


def reference_lower_bound(config: dict, t_v: float) -> float:
    """Global lower bound of a single-channel config from the strip
    decomposition y in (ln n, ln(n+1)]: the central strip n = 1 carries
    -lambda sup V ln^2 2, strip n >= 2 carries ln^2(n) t_V minus the
    freezing error.  Strips are added until the last eight net bounds are
    nondecreasing, doubling the range from n = 64 as the program does."""
    ch, = config["channels"]
    lam = float(ch["lambda"])
    sup_v, slope = _sup_and_slope(ch["profile"])
    a = float(ch["profile"].get("a", 1.0))
    central = -lam * sup_v * math.log(2.0) ** 2

    def net(n: int) -> float:
        ln_n, ln_n1, gap = math.log(n), math.log(n + 1), math.log1p(1.0 / n)
        freeze = lam * (a * slope * ln_n1**2 * gap / ln_n + 2.0 * sup_v * ln_n1 * gap)
        return ln_n**2 * t_v - freeze

    n_max = 64
    for _ in range(6):
        nets = [net(n) for n in range(2, n_max + 1)]
        tail = nets[-8:]
        if all(b >= a_ for a_, b in zip(tail, tail[1:])):
            return min([central] + nets)
        n_max *= 2
    raise CheckFailed("reference strip bounds never became monotone")


class References:
    """Reference thresholds, computed once per distinct channel."""

    def __init__(self):
        self._cache: dict[tuple, float] = {}

    def threshold(self, config: dict, ch: dict) -> float:
        key = (float(config["omega"]), float(ch["lambda"]),
               tuple(sorted(ch["profile"].items())))
        if key not in self._cache:
            self._cache[key] = reference_threshold(key[0], key[1], ch["profile"])
        return self._cache[key]

    def t_v(self, config: dict) -> float:
        return min(self.threshold(config, ch) for ch in config["channels"])


# --- per-command checks -----------------------------------------------------
#
# `out` is the command's parsed JSON output, `config` the config dict it ran
# on, `params` the operation's own settings (tolerances, eps ladder).


def check_critical(out: dict, config: dict, params: dict, refs: References) -> None:
    lam = float(out["lambda_crit"])
    ch = dict(config["channels"][0], **{"lambda": lam})
    e = refs.threshold(config, ch)
    limit = params["tol"] + 1e-5
    _require(abs(e) <= limit,
             f"reference threshold {e!r} at lambda_crit={lam!r} exceeds {limit}")


def check_classify(out: dict, config: dict, params: dict, refs: References) -> None:
    per = [float(v) for v in out["per_channel"]]
    _require(len(per) == len(config["channels"]), "wrong number of channel thresholds")
    for got, ch in zip(per, config["channels"]):
        want = refs.threshold(config, ch)
        _require(abs(got - want) <= 1e-6,
                 f"channel threshold {got!r} differs from reference {want!r}")
    _require(float(out["t_V"]) == min(per), "t_V is not the minimum channel threshold")
    tol = params["tol"]
    t_v = min(per)
    want = "subcritical" if t_v > tol else "supercritical" if t_v < -tol else "critical"
    _require(out["verdict"] == want, f"verdict {out['verdict']!r}, expected {want!r}")


def check_bound(out: dict, config: dict, params: dict, refs: References) -> None:
    bound = out["global_lower_bound"]
    _require(isinstance(bound, float), f"bound {bound!r} is not a number")
    ch, = config["channels"]
    sup_v, _ = _sup_and_slope(ch["profile"])
    central = -float(ch["lambda"]) * sup_v * math.log(2.0) ** 2
    _require(bound <= central * (1.0 - 1e-12),
             f"bound {bound!r} exceeds the central term {central!r}")
    want = reference_lower_bound(config, refs.t_v(config))
    _require(abs(bound - want) <= 1e-6 * abs(want),
             f"bound {bound!r} differs from reference {want!r}")


# Relative accuracy the scan asks of its eigensolver (ScanPolicy.eig_tol);
# nested Dirichlet domains make lambda0 nonincreasing in Y up to this.
_SCAN_EIG_TOL = 1e-7


def check_scan_sub(out: dict, config: dict, params: dict, refs: References) -> None:
    lams = [float(r["lambda0"]) for r in out["rows"]]
    _require([float(r["Y"]) for r in out["rows"]] == params["ladder"], "rows do not follow the ladder")
    _require(all(b <= a + _SCAN_EIG_TOL * max(1.0, abs(a)) for a, b in zip(lams, lams[1:])),
             f"lambda0 increases with Y: {lams}")
    floor = reference_lower_bound(config, refs.t_v(config))
    _require(min(lams) >= floor, f"lambda0 {min(lams)!r} below the lower bound {floor!r}")
    _require(out["verdict"] == "subcritical", f"verdict {out['verdict']!r}")


def check_scan_sup(out: dict, config: dict, params: dict, refs: References) -> None:
    _require([float(r["Y"]) for r in out["rows"]] == params["ladder"], "rows do not follow the ladder")
    _require(out["verdict"] == "supercritical", f"verdict {out['verdict']!r}")
    e0 = abs(refs.t_v(config))
    c_fit = float(out["c_fit"])
    _require(abs(c_fit - e0) <= 0.3 * e0, f"c_fit {c_fit!r} not within 30% of |E0| = {e0!r}")


def check_weyl(out: dict, config: dict, params: dict, refs: References) -> None:
    rows = out["rows"]
    _require([float(r["epsilon"]) for r in rows] == params["eps"], "rows do not follow the eps ladder")
    supports = []
    for r in rows:
        eps, norm, res = float(r["epsilon"]), float(r["norm"]), float(r["residual"])
        _require(norm >= 0.5, f"norm {norm!r} below 1/2 at eps={eps}")
        _require(res**2 <= 9.0 * eps, f"residual^2 {res**2!r} above 9 eps at eps={eps}")
        supports.append((float(r["n_k"]), float(r["k"]) * float(r["n_k"])))
    ratios = [float(r["residual"]) / float(r["norm"]) for r in rows]
    _require(all(b < a for a, b in zip(ratios, ratios[1:])),
             f"normalized residuals do not decrease: {ratios}")
    _require(all(lo < hi for lo, hi in supports), f"empty support in {supports}")
    _require(all(a[1] < b[0] for a, b in zip(supports, supports[1:])),
             f"supports overlap or are out of order: {supports}")


CHECKS = {
    "critical": check_critical,
    "classify": check_classify,
    "bound": check_bound,
    "scan_sub": check_scan_sub,
    "scan_sup": check_scan_sup,
    "weyl": check_weyl,
}


# --- perturbations ----------------------------------------------------------
#
# One wrong-by-a-little copy of a real output per check; every run asserts the
# check rejects it, so a check that silently stopped checking shows up.


def _perturb_critical(out):
    out["lambda_crit"] += 0.05


def _perturb_classify(out):
    out["per_channel"][0] += 1e-5
    out["t_V"] = min(out["per_channel"])


def _perturb_bound(out):
    out["global_lower_bound"] *= 1.0 + 1e-5


def _perturb_scan_sub(out):
    out["rows"][-1]["lambda0"] = out["rows"][-2]["lambda0"] + 1e-5


def _perturb_scan_sup(out):
    out["c_fit"] *= 1.5


def _perturb_weyl(out):
    row = out["rows"][-1]
    row["residual"] = 1.01 * math.sqrt(9.0 * row["epsilon"]) * max(1.0, row["norm"])


PERTURB = {
    "critical": _perturb_critical,
    "classify": _perturb_classify,
    "bound": _perturb_bound,
    "scan_sub": _perturb_scan_sub,
    "scan_sup": _perturb_scan_sup,
    "weyl": _perturb_weyl,
}


def check(kind: str, out: dict, config: dict, params: dict, refs: References) -> None:
    """Check a real output, then require the check to reject a perturbed copy."""
    CHECKS[kind](out, config, params, refs)
    bad = copy.deepcopy(out)
    PERTURB[kind](bad)
    try:
        CHECKS[kind](bad, config, params, refs)
    except CheckFailed:
        return
    raise CheckFailed(f"the {kind} check accepted a perturbed output")
