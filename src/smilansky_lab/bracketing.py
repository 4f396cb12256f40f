"""Neumann bracketing bounds and the multi-channel classification rule.

Splitting the plane into strips G_n = R x (ln n, ln(n+1)] (and their mirror
images) with Neumann cuts bounds the operator from below by a direct sum.  On
G_n the frozen-coefficient comparison operator is unitarily equivalent to
ln^2(n) L, and the freezing error admits an explicit bound assembled from
sup V, sup |V'|, and the support half-width.  The classification rule takes
t_V, the minimum over channels of the 1D threshold inf sigma(L_j) on the
line; its sign decides bounded-below versus unbounded-below on every
x-domain (`classify`).  On an interval the strip bounds hold under
Dirichlet ends only.  `classify` returns a `Classification` record and
`global_lower_bound` a float or "unbounded below"; the `classify` and
`bound` commands write them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ComputationError, ConfigurationError
from .model import ChannelSpec, ModelConfig
from .oned import ComparisonSpec, threshold

__all__ = [
    "StripBound",
    "Classification",
    "classify",
    "strip_bounds",
    "global_lower_bound",
]


class StripBound(NamedTuple):
    """Lower bound for the Neumann restriction to G_n (and its mirror)."""

    index: int
    y_range: tuple[float, float]
    separated_bound: float      # ln^2(n) * inf sigma(L)
    correction: float
    net_bound: float


class Classification(NamedTuple):
    t_v: float
    verdict: str                # "subcritical" | "supercritical" | "critical"
    per_channel: tuple[float, ...]


_TOL = 1e-6


def _channel_threshold(config: ModelConfig, ch: ChannelSpec) -> float:
    """inf sigma(L_j) for one channel on the line, whatever the
    configuration's x-domain (see `classify`)."""
    return threshold(ComparisonSpec(config.omega, ch.lam, ch.profile))


def classify(config: ModelConfig, tol: float = _TOL) -> Classification:
    """t_V = min_j inf sigma(L_j), each L_j on the line; sign against tol
    gives the verdict.  On an interval (-c, c), under t = xy the fibre of H
    at height y is y^2 L on (-c|y|, c|y|), whose threshold tends to t_line
    as |y| grows: from above with Dirichlet ends (a restriction of the
    line's form), from below with Neumann or periodic ends.  So the sign of
    min_j t_line,j is the verdict for every end condition; (-c, c) itself
    is only the fibre at |y| = 1."""
    if not config.channels:
        raise ConfigurationError("classification needs at least one channel")
    if not 0 < tol < math.inf:
        raise ConfigurationError(
            f"classification tolerance must be positive and finite, got {tol!r}")
    return _classification(
        tuple(_channel_threshold(config, ch) for ch in config.channels), tol)


def _classification(per: tuple[float, ...], tol: float = _TOL) -> Classification:
    t_v = min(per)
    if t_v > tol:
        verdict = "subcritical"
    elif t_v < -tol:
        verdict = "supercritical"
    else:
        verdict = "critical"
    return Classification(t_v=float(t_v), verdict=verdict, per_channel=per)


def _correction(ch: ChannelSpec, n: int) -> float:
    """Explicit freezing-error constant for strip n >= 2.

    Combines |V(xy) - V(x ln n)| <= sup|V'| |x| (ln(n+1) - ln n) over the
    support |x ln n| <= a with |y^2 - ln^2 n| <= 2 ln(n+1) (ln(n+1) - ln n);
    both scale like ln n / n.
    """
    prof = ch.profile
    ln_n = math.log(n)
    ln_n1 = math.log(n + 1)
    gap = math.log1p(1.0 / n)      # ln(n+1) - ln(n)
    return ch.lam * (prof.a * prof.derivative_bound * ln_n1**2 * gap / ln_n
                     + 2.0 * prof.sup_value * ln_n1 * gap)


def strip_bounds(config: ModelConfig, n_max: int) -> list[StripBound]:
    """Per-strip lower bounds for a single-channel configuration, for the
    strips n = 1, ..., n_max, from the channel's threshold on the line.

    The n = 1 strip (0, ln 2] has ln n = 0, so freezing carries no
    information there; it is bounded by the potential minimum instead.  With
    Dirichlet ends on an interval each strip's operator is a restriction of
    the line's form; Neumann or periodic ends refuse a channel's strips.
    """
    if len(config.channels) > 1:
        raise ConfigurationError("strip bounds are defined for a single channel")
    if n_max < 1:
        raise ConfigurationError("need n_max >= 1")
    e_l = (_channel_threshold(config, config.channels[0])
           if config.channels else config.omega**2)
    return _strips(config, e_l, n_max)


def _strips(config: ModelConfig, e_l: float, n_max: int) -> list[StripBound]:
    """strip_bounds for a configuration of at most one channel whose
    comparison threshold e_l is already known."""
    ch = config.channels[0] if config.channels else None
    if ch is not None and config.x_domain.bc != "dirichlet":
        raise ConfigurationError(f"no lower bound with {config.x_domain.bc} ends: "
                                 "the fibre thresholds lie below the line's")
    out = []
    for n in range(1, n_max + 1):
        lo, hi = math.log(n), math.log(n + 1)
        sep = 0.0 if n == 1 else lo**2 * e_l
        if ch is None:
            corr = 0.0
        elif n == 1:
            # the potential minimum on |y| <= ln 2: -lambda sup V ln^2 2
            corr = ch.lam * ch.profile.sup_value * hi**2
        else:
            corr = _correction(ch, n)
        out.append(StripBound(n, (lo, hi), sep, corr, sep - corr))
    return out


def global_lower_bound(config: ModelConfig, per_channel: tuple[float, ...] | None = None):
    """Lower bound on the whole operator, or the string "unbounded below".

    `per_channel`, the channels' line thresholds where known, saves their
    computation; whatever tol classified them, the verdict at the default
    tol routes the bound, so passing them never changes it.

    Supercritical configurations are routed straight to "unbounded below" on
    every x-domain; under Neumann or periodic ends any other configuration
    with a channel is refused (`strip_bounds`).  Otherwise the bound is the
    minimum of the central term -lambda sup V ln^2 2 (the potential minimum
    on |y| <= ln 2) and every net strip bound net(n) = ln^2(n) e_l - corr(n),
    e_l the channel's 1D threshold and corr = `_correction` for n >= 2;
    net(1) is the central term itself.

    Lemma: for e_l >= 0 that minimum is min(central, net(2)).  For n >= 2,
    g(n) = ln(n+1) ln(1 + 1/n) decreases, since
    g'(n) = (n ln(1 + 1/n) - ln(n+1)) / (n (n+1)) < 0, as n ln(1 + 1/n) < 1
    < ln 3 <= ln(n+1); and ln(n+1) / ln(n) = 1 + ln(1 + 1/n) / ln(n) is
    positive and decreases.  corr(n) = lambda (a sup|V'| ln(n+1)/ln(n) g(n)
    + 2 sup V g(n)), with nonnegative coefficients, is therefore
    nonincreasing, while ln^2(n) e_l does not decrease when e_l >= 0: net(n)
    is nondecreasing for n >= 2.

    When e_l < 0 (a "critical" verdict with t_V within tol below 0) the
    strip bounds tend to -inf and there is no finite bound:
    `ComputationError` names t_V.
    """
    if not config.channels:
        e_l = config.omega**2
    else:
        cls = classify(config) if per_channel is None else _classification(per_channel)
        if cls.verdict == "supercritical":
            return "unbounded below"
        if len(config.channels) > 1:
            raise ConfigurationError(
                "strip bounds (and hence the global bound) cover one channel")
        e_l = cls.per_channel[0]
        if e_l < 0.0:
            raise ComputationError(
                f"t_V = {e_l!r} < 0: the strip bounds ln^2(n) t_V - corr(n) "
                "tend to -inf, so the operator has no finite lower bound from "
                "them")
    return min(s.net_bound for s in _strips(config, e_l, 2))
