"""Domain types for the 2D Hamiltonian with shrinking potential channels.

The operator acts as

    H = -d2/dx2 - d2/dy2 + omega^2 y^2 - sum_j lambda_j y^2 V_j((x - b_j) y)

with every channel profile V_j nonnegative, compactly supported and C^1.
Channel j is the translate (in x) of a centered channel; the supports of
distinct channels must not overlap.

The module imports only the standard library, so the 1D commands start
without numpy: `profile_values` is the one evaluator of every profile
family, on a list of points in float arithmetic, a `table` profile's PCHIP
interpolant included.  The 2D assembly applies it to the flattened grid
products (x - b) y.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from typing import Optional, Sequence

from .errors import ConfigurationError

__all__ = [
    "Checked",
    "PotentialProfile",
    "ChannelSpec",
    "XDomain",
    "ModelConfig",
    "profile_values",
    "config_from_dict",
    "load_config",
]

_FAMILIES = ("cos2", "quartic", "table")
# the most nodes one 2D grid, or one 1D support chain, may hold
NODE_CAP = 4_000_000


class Checked:
    """Base of the records whose `__new__` checks and normalizes their
    fields: `_make`, and so `_replace`, build through `__new__` too (a
    namedtuple's own `_make` fills the tuple directly)."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PotentialProfile(Checked, namedtuple("PotentialProfile", "family a amplitude table")):
    """Compactly supported nonnegative C^1 bump on [-a, a].

    Families:
        cos2    -- amplitude * cos^2(pi t / (2a))
        quartic -- amplitude * (1 - (t/a)^2)^2
        table   -- amplitude * the monotone C^1 piecewise-cubic (PCHIP)
                   interpolant of (t, V) samples with abscissae in [-a, a],
                   zero outside the tabulated range
    """

    __slots__ = ()

    def __new__(cls, family: str = "cos2", a: float = 1.0, amplitude: float = 1.0,
                table: Optional[tuple[tuple[float, float], ...]] = None):
        self = super().__new__(cls, family, a, amplitude, table)
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown profile family {self.family!r}")
        # NaN passes every sign check (json reads NaN and Infinity)
        if not (0 < self.a < math.inf and 0 < self.amplitude < math.inf):
            raise ConfigurationError(
                f"profile half-width and amplitude must be positive and finite, "
                f"got {self.a!r}, {self.amplitude!r}")
        if self.family == "table":
            if not self.table or len(self.table) < 3:
                raise ConfigurationError("tabulated profile needs at least 3 points")
            ts, vs = (tuple(map(float, c)) for c in zip(*self.table))
            if not all(map(math.isfinite, ts + vs)):
                raise ConfigurationError("tabulated profile points must be finite")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigurationError("tabulated abscissae must be strictly increasing")
            if any(v < 0 for v in vs):
                raise ConfigurationError("tabulated profile values must be nonnegative")
            if vs[0] != 0.0 or vs[-1] != 0.0:
                raise ConfigurationError("tabulated profile must vanish at its endpoints")
            if ts[0] < -self.a or ts[-1] > self.a:
                raise ConfigurationError(
                    f"tabulated abscissae [{ts[0]}, {ts[-1]}] must lie in "
                    f"[-{self.a}, {self.a}]")
        return self

    @property
    def _hermite(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """A table profile's PCHIP interpolant: its nodes, amplitude-scaled
        values and node slopes."""
        from .quadrature import pchip_slopes

        ts, vs = (tuple(map(float, c)) for c in zip(*self.table))
        ys = tuple(self.amplitude * v for v in vs)
        return ts, ys, tuple(pchip_slopes(ts, ys))

    @property
    def derivative_bound(self) -> float:
        """sup |V'|, exact for every family (a table profile's V' is
        quadratic on each interval)."""
        if self.family == "cos2":
            return self.amplitude * math.pi / (2.0 * self.a)
        if self.family == "quartic":
            return self.amplitude * 8.0 / (3.0 * math.sqrt(3.0) * self.a)
        from .quadrature import cubic_hermite_max_slope

        return cubic_hermite_max_slope(*self._hermite)

    @property
    def sup_value(self) -> float:
        """sup V, exact: PCHIP does not overshoot its node values."""
        if self.family in ("cos2", "quartic"):
            return self.amplitude
        return max(self._hermite[1])

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The points of [-a, a], increasing, where V'' may jump: the ends of
        the support, and the abscissae of a table."""
        if self.family != "table":
            return (-self.a, self.a)
        return tuple(sorted({-self.a, *self._hermite[0], self.a}))

    @property
    def is_even(self) -> bool:
        """V(-t) = V(t): always for cos2 and quartic, and for a table whose
        samples mirror exactly about t = 0 (PCHIP of mirrored data is even)."""
        if self.family != "table":
            return True
        ts, vs = zip(*self.table)
        return ts == tuple(-t for t in reversed(ts)) and vs == vs[::-1]


def _bump(profile: PotentialProfile, t: float) -> float:
    """V(t) of a cos2 or quartic profile for |t| < a.  Squares are products
    (float ** 2 calls pow, which may round differently)."""
    a, amp = profile.a, profile.amplitude
    if profile.family == "cos2":
        c = math.cos(math.pi * t / (2.0 * a))
        return amp * (c * c)
    u = t / a
    s = 1.0 - u * u
    return amp * (s * s)


def profile_values(profile: PotentialProfile, ts: Sequence[float]) -> list[float]:
    """V at the points ts, in float arithmetic: 0 for |t| >= a, and for a
    table profile its PCHIP interpolant strictly inside the tabulated range,
    clipped at 0 against rounding."""
    if profile.family != "table":
        return [_bump(profile, t) if abs(t) < profile.a else 0.0 for t in ts]
    from .quadrature import cubic_hermite

    x, y, dy = profile._hermite
    vs = (cubic_hermite(x, y, dy, t)[0] if x[0] < t < x[-1] else 0.0 for t in ts)
    return [v if v > 0.0 else 0.0 for v in vs]


def _check_depth(omega: float, lam: float, profile: PotentialProfile, what: str) -> None:
    """Refuse omega^2 + lambda sup V >= 2^1020: the 1D chains add 4/h^2 to
    it in their norm, so keep 16x headroom below float64's largest power of
    two.  `what` names the channel in the message."""
    depth = omega * omega + lam * profile.sup_value
    if not depth < 2.0**1020:
        raise ConfigurationError(f"{what}: omega^2 + lambda sup V = {depth:.3g} is not "
                                 "below 2^1020, past what float64 holds")


class ChannelSpec(Checked, namedtuple("ChannelSpec", "lam center profile")):
    """One potential channel: coupling, center in x, and its profile."""

    __slots__ = ()

    def __new__(cls, lam: float, center: float = 0.0,
                profile: PotentialProfile = PotentialProfile()):
        if not 0 <= lam < math.inf or not math.isfinite(center):
            raise ConfigurationError(
                f"channel coupling must be nonnegative and finite, and its center "
                f"finite, got {lam!r}, {center!r}")
        return super().__new__(cls, lam, center, profile)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.profile.a, self.center + self.profile.a)


class XDomain(Checked, namedtuple("XDomain", "kind c bc")):
    """Either the full line (kind='line') or a symmetric interval (-c, c)."""

    __slots__ = ()

    def __new__(cls, kind: str = "line", c: float = 0.0, bc: str = "dirichlet"):
        if kind not in ("line", "interval"):
            raise ConfigurationError(f"unknown x-domain kind {kind!r}")
        if kind == "interval":
            if not 0 < c < math.inf:
                raise ConfigurationError(
                    f"interval half-width must be positive and finite, got {c!r}")
            if bc not in ("dirichlet", "neumann", "periodic"):
                raise ConfigurationError(f"unknown boundary condition {bc!r}")
        elif bc != "dirichlet":
            raise ConfigurationError(
                f"boundary condition {bc!r} needs an interval x-domain; "
                "the line is truncated with Dirichlet ends")
        return super().__new__(cls, kind, c, bc)


class ModelConfig(Checked, namedtuple("ModelConfig", "omega channels x_domain y_cutoff")):
    """Full specification of the 2D model; `y_cutoff` is an optional
    |y| >= y0 gate on the channel term."""

    __slots__ = ()

    def __new__(cls, omega: float, channels: tuple[ChannelSpec, ...] = (),
                x_domain: XDomain = XDomain(), y_cutoff: Optional[float] = None):
        # every operator takes omega^2, which overflows from 1.35e154 on
        if not (omega > 0 and omega * omega < math.inf):
            raise ConfigurationError(
                f"omega must be positive with omega^2 finite, got {omega!r}")
        if y_cutoff is not None and not math.isfinite(y_cutoff):
            raise ConfigurationError(f"y_cutoff must be finite, got {y_cutoff!r}")
        for ch in channels:
            _check_depth(omega, ch.lam, ch.profile, f"channel centered at {ch.center}")
        sups = sorted(ch.support for ch in channels)
        for (lo1, hi1), (lo2, hi2) in zip(sups, sups[1:]):
            if hi1 > lo2:
                raise ConfigurationError(
                    f"channel supports ({lo1}, {hi1}) and ({lo2}, {hi2}) overlap"
                )
        if x_domain.kind == "interval":
            for ch in channels:
                lo, hi = ch.support
                if max(abs(lo), abs(hi)) > x_domain.c:
                    raise ConfigurationError(
                        f"channel centered at {ch.center} does not fit inside "
                        f"(-{x_domain.c}, {x_domain.c})"
                    )
        return super().__new__(cls, omega, channels, x_domain, y_cutoff)

    @property
    def is_even_in_y(self) -> bool:
        """The potential is even in y: every channel profile is even."""
        return all(ch.profile.is_even for ch in self.channels)

    @property
    def is_even_in_x(self) -> bool:
        """The potential is even in x: every channel profile is even, and
        x -> -x maps the channels onto each other (coupling and profile
        included).  Both x-domains, the line and (-c, c), are symmetric
        about x = 0."""
        channels = set(self.channels)
        return self.is_even_in_y and all(
            ch._replace(center=-ch.center) in channels for ch in self.channels)


# --- JSON configuration -----------------------------------------------------
#
# {"omega": 1.0,
#  "channels": [{"lambda": 2.0, "center": 0.0,
#                "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}],
#  "x_domain": {"type": "line"},
#  "y_cutoff": null}


def _profile_from_dict(d: dict) -> PotentialProfile:
    table = d.get("table")
    if table is not None:
        table = tuple((float(t), float(v)) for t, v in table)
    return PotentialProfile(
        family=d.get("family", "cos2"),
        a=float(d.get("a", 1.0)),
        amplitude=float(d.get("amplitude", 1.0)),
        table=table,
    )


def config_from_dict(d: dict) -> ModelConfig:
    try:
        channels = tuple(
            ChannelSpec(
                lam=float(ch["lambda"]),
                center=float(ch.get("center", 0.0)),
                profile=_profile_from_dict(ch.get("profile", {})),
            )
            for ch in d.get("channels", [])
        )
        xd = d.get("x_domain", {"type": "line"})
        x_domain = XDomain(
            kind=xd.get("type", "line"),
            c=float(xd.get("c", 0.0)) if xd.get("type") == "interval" else 0.0,
            bc=xd.get("bc", "dirichlet"),
        )
        y_cutoff = d.get("y_cutoff")
        return ModelConfig(
            omega=float(d["omega"]),
            channels=channels,
            x_domain=x_domain,
            y_cutoff=None if y_cutoff is None else float(y_cutoff),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed model configuration: {exc}") from exc


def load_config(path: str) -> ModelConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)

