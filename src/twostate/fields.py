"""Driving-field configurations for the two-state problem.

The package covers one six-parameter family of constant-amplitude drives whose
detuning is periodically modulated,

    delta_t(t) = Delta1 + (1 - a) * Delta2 / (1 + a - 2*sqrt(a)*cos(Delta*(t - t0))),

together with two distinguished sub-families obtained by terminating the
series solution: a two-parameter model whose detuning crosses resonance twice
per period (the generic member stays exactly solvable for every coupling
strength), and a three-parameter model that is solvable only when the coupling
strength is tied to the detuning parameters.

Depending on the parameter point the detuning crosses zero transversally,
touches it tangentially ("glancing", a double root at an extremum of the
modulation) or stays away from resonance altogether; :func:`classify_crossings`
sorts a configuration into these classes and locates the crossing instants.
Both families' detunings have the form c1 + c2 / (c3 + c4 sin^2(theta/2)),
theta = Delta*(t - t0), so a crossing solves sin^2(theta/2) = s* in closed
form: the level-crossing times are t0 + (2 pi k +- 2 arcsin(sqrt(s*))) / Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DomainError, ParameterError

TWO_PI = 2.0 * math.pi

GLANCING_TOL = 1e-9        # |delta_t| at a modulation extremum (where d delta_t/dt = 0)
# least scaled coupling of the two-parameter model, relative to |delta1|^5
U0_FLOOR = 1e-307


@dataclass(frozen=True)
class FieldConfig:
    """Parameters of the general periodically modulated drive.

    ``u0`` is the constant Rabi frequency, ``a`` the modulation shape parameter
    (also the extra singular point of the associated linear ODE), ``delta1``
    the carrier detuning, ``delta2`` the modulation strength, ``delta`` the
    drive angular frequency and ``t0`` a time offset.  All rates are in
    physical units (rad / time).
    """

    u0: float
    a: float
    delta1: float
    delta2: float
    delta: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        values = (self.u0, self.a, self.delta1, self.delta2, self.delta, self.t0)
        if not all(map(math.isfinite, values)):
            raise ParameterError(f"FieldConfig: parameters must be finite, got {self}")
        if not self.u0 > 0:
            raise ParameterError(f"FieldConfig: u0 must be > 0, got {self.u0}")
        if not self.a > 0 or self.a == 1.0:
            raise ParameterError(f"FieldConfig: need a > 0 and a != 1, got {self.a}")
        if not self.delta > 0:
            raise ParameterError(f"FieldConfig: delta must be > 0, got {self.delta}")

    @property
    def period(self) -> float:
        return TWO_PI / self.delta

    def scaled(self) -> "FieldConfig":
        """Equivalent configuration in drive-scaled time tau = delta*(t - t0).

        All rates are divided by the drive frequency; the scaled configuration
        has delta = 1 and t0 = 0 and satisfies
        ``delta_t(t) = delta * delta_t_scaled(tau)``.
        """
        return FieldConfig(self.u0 / self.delta, self.a, self.delta1 / self.delta,
                           self.delta2 / self.delta, 1.0, 0.0)


@dataclass(frozen=True)
class N2Config:
    """The unconditionally solvable two-parameter periodic-crossing model.

    ``u0`` and ``delta1`` are measured in units of the drive frequency
    (the analytic solution lives in scaled time); ``delta`` and ``t0`` map
    scaled time onto physical time.  The detuning is real only for
    ``|delta1| > 1``.  The derived shape parameter is
    ``a = (delta1 + 1)/(delta1 - 1)``; it exceeds 1 for ``delta1 > 1`` and
    lies in (0, 1) for ``delta1 < -1``.  Its square root must differ from 1
    in floating point, which fails for some ``|delta1|`` from about 6e15 and
    for every one above about 1.8e16: the closed form divides by
    ``1 - sqrt(a)`` at ``t0``, and at ``a = 1`` the drive leaves the family.

    The coupling has a floor, ``u0 >= U0_FLOOR * |delta1|^5`` with
    ``U0_FLOOR = 1e-307``.  Below about a twentieth of it the closed form's
    fundamental pair overflows a double: the companion amplitude of its plus
    solution grows like ``R^3 / u0`` and their matching determinant like
    ``R^5 / u0``.
    """

    u0: float
    delta1: float
    delta: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u0, self.delta1, self.delta, self.t0))):
            raise ParameterError(f"N2Config: parameters must be finite, got {self}")
        if not self.u0 > 0:
            raise ParameterError(f"N2Config: u0 must be > 0, got {self.u0}")
        if not abs(self.delta1) > 1:
            raise ParameterError(f"N2Config: need |delta1| > 1, got {self.delta1}")
        if math.sqrt(self.a) == 1.0:
            raise ParameterError(f"N2Config: a = (delta1 + 1)/(delta1 - 1) has sqrt(a) = 1 "
                                 f"in floating point, got delta1 = {self.delta1}")
        # in logs, so that the floor of a huge delta1 does not overflow
        if not math.log(self.u0) >= math.log(U0_FLOOR) + 5.0 * math.log(abs(self.delta1)):
            raise ParameterError(f"N2Config: need u0 >= {U0_FLOOR} * |delta1|^5, "
                                 f"got u0 = {self.u0}, delta1 = {self.delta1}")
        if not self.delta > 0:
            raise ParameterError(f"N2Config: delta must be > 0, got {self.delta}")

    @property
    def a(self) -> float:
        return a_from_delta1(self.delta1)

    @property
    def period(self) -> float:
        return TWO_PI / self.delta

    def as_general(self) -> FieldConfig:
        """The member of the general family with the same physical detuning.

        Exact for ``delta1 > 1``.  For ``delta1 < -1`` the general-family
        member is the same drive shifted by half a period (the two-parameter
        form fixes the sign of the cosine term).
        """
        return FieldConfig(self.u0 * self.delta, self.a, self.delta1 * self.delta,
                           2.0 * self.delta, self.delta, self.t0)


@dataclass(frozen=True)
class CrossingReport:
    """Resonance-crossing census over a time window."""

    kind: Literal["crossing", "glancing", "non-crossing"]
    times: tuple[float, ...]


@dataclass(frozen=True)
class DriveField:
    """Callable view of a drive, the only interface the numerical oracle uses.

    Contract: ``u`` and ``delta_t`` are ``period``-periodic and even about
    ``center``: ``f(center - s) = f(center + s)``.  The oracle relies on both
    to compose every time of a window from one solve over half a period,
    ``[center, center + period/2]``.  The n2 and general drives (centred on
    their ``t0``), the printed n3 field and a constant drive (centred on 0)
    all satisfy it.
    """

    u: Callable[[float], float]
    delta_t: Callable[[float], float]
    period: float
    center: float = 0.0

    def __post_init__(self):
        # the oracle's solve spans [center, center + period/2]
        if not (0.0 < self.period < math.inf and math.isfinite(self.center)):
            raise ParameterError(f"DriveField: need a finite, positive period and a finite "
                                 f"center, got period={self.period}, center={self.center}")


@dataclass(frozen=True)
class StateVector:
    """Amplitude pair plus the accumulated phase-modulation value."""

    a1: complex
    a2: complex
    phase: float = 0.0

    @property
    def norm(self) -> float:
        return abs(self.a1) ** 2 + abs(self.a2) ** 2


def _time_arg(t):
    """``(math, float(t))`` for a scalar ``t``, ``(numpy, float array)`` otherwise.

    Each detuning formula is written once against the returned module: the
    oracle calls it once per right-hand-side evaluation with a scalar, where
    ``math`` costs a fraction of a NumPy ufunc call, and gets a Python float.
    """
    if np.isscalar(t):
        return math, float(t)
    return np, np.asarray(t, dtype=float)


def detuning_general(cfg: FieldConfig, t):
    """Detuning of the general family at time ``t`` (scalar or array).

    The denominator ``1 + a - 2 sqrt(a) cos(...)`` is bounded below by
    ``(sqrt(a) - 1)^2 > 0``, so the value is finite for every valid config.
    It is evaluated as ``(sqrt(a)-1)^2 + 4 sqrt(a) sin^2(.../2)``, a sum of
    non-negative terms, to avoid cancellation near the modulation peak.
    """
    xp, t = _time_arg(t)
    theta = cfg.delta * (t - cfg.t0)
    sqa = math.sqrt(cfg.a)
    den = (sqa - 1.0) ** 2 + 4.0 * sqa * xp.sin(0.5 * theta) ** 2
    return cfg.delta1 + (1.0 - cfg.a) * cfg.delta2 / den


def detuning_n2(cfg: N2Config, t):
    """Detuning of the two-parameter periodic-crossing model (scalar or array).

    The resonant denominator ``delta1 - sqrt(delta1^2-1) cos(...)`` is
    rationalized into a single-signed sum so the spike near the modulation
    peak is computed without cancellation.
    """
    xp, t = _time_arg(t)
    theta = cfg.delta * (t - cfg.t0)
    d1 = cfg.delta1
    b = math.sqrt(d1 * d1 - 1.0)
    if d1 > 0:
        den = 1.0 / (d1 + b) + 2.0 * b * xp.sin(0.5 * theta) ** 2
    else:
        den = -1.0 / (b - d1) - 2.0 * b * xp.cos(0.5 * theta) ** 2
    return cfg.delta * (d1 - 2.0 / den)


def detuning_n3(u0: float, delta1: float, branch: int, t):
    """Detuning of the conditionally solvable three-term model, scaled time.

    ``branch`` selects the sign of the auxiliary root
    ``r = branch * sqrt(u0^2 + delta1^2 - 1)``.  The expression is rejected
    wherever it stops being a real periodic modulation: ``r`` imaginary or
    zero, or the interior square root negative.
    """
    xp, t = _time_arg(t)
    sqa = math.sqrt(n3_singular_point(u0, delta1, branch))
    r = branch * math.sqrt(u0 * u0 + delta1 * delta1 - 1.0)
    s3 = math.sqrt(3.0)
    num = 9.0 - 3.0 * s3 * r - 9.0 * delta1
    den = ((s3 - r) * r + 3.0 * (delta1 - 1.0) * delta1
           + sqa * (r * r - 3.0 * (delta1 - 1.0) ** 2) * xp.cos(t))
    return delta1 + num / den


def n3_singular_point(u0: float, delta1: float, branch: int) -> float:
    """Shape parameter ``a`` of the general family matching the three-term model."""
    if branch not in (+1, -1):
        raise ParameterError(f"n3_singular_point: branch must be +1 or -1, got {branch}")
    rr = u0 * u0 + delta1 * delta1 - 1.0
    if not 0.0 < rr < math.inf:
        raise DomainError(f"n3_singular_point: need 1 < u0^2 + delta1^2 < inf, got {rr + 1.0}")
    r = branch * math.sqrt(rr)
    pole = 3.0 + math.sqrt(3.0) * r - 3.0 * delta1
    if pole == 0.0:
        raise DomainError("n3_singular_point: degenerate parameter point")
    a = 1.0 - 6.0 / pole
    if a <= 0.0:
        raise DomainError(f"n3_singular_point: inadmissible shape parameter a={a}")
    return a


def n3_general_config(u0: float, delta1: float, branch: int) -> FieldConfig:
    """General-family twin of the three-term model (scaled time, delta2 = 3)."""
    return FieldConfig(u0, n3_singular_point(u0, delta1, branch), delta1, 3.0)


def a_from_delta1(delta1: float) -> float:
    """Shape parameter of the two-parameter model: a = (delta1 + 1)/(delta1 - 1)."""
    if delta1 == 1.0:
        raise ParameterError("a_from_delta1: singular at delta1 = 1")
    return (delta1 + 1.0) / (delta1 - 1.0)


def glancing_ratios(a: float) -> tuple[float, float]:
    """The two critical values of delta1/delta2 at which the detuning glances zero.

    The first ratio puts the tangential touch at t = t0, the second at half a
    period later; the two are reciprocals of each other.
    """
    if a == 1.0 or not a > 0:
        raise DomainError(f"glancing_ratios: need a > 0, a != 1, got {a}")
    s = math.sqrt(a)
    return (s + 1.0) / (s - 1.0), (s - 1.0) / (s + 1.0)


def drive_field(cfg) -> DriveField:
    """Physical-time callables (Rabi frequency, detuning) for the oracle."""
    if isinstance(cfg, N2Config):
        u_phys = cfg.u0 * cfg.delta
        return DriveField(u=lambda t: u_phys,
                          delta_t=lambda t: detuning_n2(cfg, t),
                          period=cfg.period, center=cfg.t0)
    if isinstance(cfg, FieldConfig):
        return DriveField(u=lambda t: cfg.u0,
                          delta_t=lambda t: detuning_general(cfg, t),
                          period=cfg.period, center=cfg.t0)
    raise ParameterError(f"drive_field: unsupported config type {type(cfg)!r}")


def _crossing_phase(cfg) -> float:
    """The phase ``theta*`` in (0, pi) where a detuning that changes sign vanishes.

    The general family's denominator (sqrt(a) - 1)^2 + 4 sqrt(a) sin^2(theta/2)
    = (sqrt(a) + 1)^2 - 4 sqrt(a) cos^2(theta/2) equals (a - 1) delta2 / delta1
    there.  sin^2 and cos^2 are each solved from their own extremum, so a
    crossing near either extremum keeps its relative accuracy.
    """
    half_shift = False
    if isinstance(cfg, N2Config):
        # its general-family member, half a period later for delta1 < -1
        cfg, half_shift = cfg.as_general(), cfg.delta1 < 0
    sqa = math.sqrt(cfg.a)
    den = (cfg.a - 1.0) * cfg.delta2 / cfg.delta1
    s, c = (den - (sqa - 1.0) ** 2) / (4.0 * sqa), ((sqa + 1.0) ** 2 - den) / (4.0 * sqa)
    if half_shift:
        s, c = c, s
    # rounding leaves s or c below zero where GLANCING_TOL is below an ulp of delta1
    return 2.0 * math.atan2(math.sqrt(max(s, 0.0)), math.sqrt(max(c, 0.0)))


def classify_crossings(cfg, window: tuple[float, float]) -> CrossingReport:
    """Locate resonance crossings of the detuning inside ``window``.

    The detuning is monotone in sin^2(theta/2), theta = delta (t - t0), between
    the modulation extrema theta = k pi.  When it has opposite signs at theta =
    0 and pi and glances at neither, it crosses resonance at theta = 2 pi k +-
    theta*, in closed form (:func:`_crossing_phase`) and tiled over the window.
    A tangential touch has no sign change; it is detected at the extrema, where
    the detuning derivative vanishes identically (so it is not evaluated: its
    rounding noise grows with ``k``), by ``|delta_t| < 1e-9`` there.  Accepts
    either a :class:`FieldConfig` or an :class:`N2Config`.
    """
    f = drive_field(cfg).delta_t
    t0, delta = cfg.t0, cfg.delta

    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ParameterError("classify_crossings: window must satisfy t_hi > t_lo")

    # modulation extrema inside the window: theta = k*pi
    k_lo = math.ceil((t_lo - t0) * delta / math.pi)
    k_hi = math.floor((t_hi - t0) * delta / math.pi)
    extrema = (t0 + k * math.pi / delta for k in range(k_lo, k_hi + 1))
    glance = [te for te in extrema if abs(f(te)) < GLANCING_TOL]

    roots = []
    d_0, d_pi = f(t0), f(t0 + math.pi / delta)
    if min(abs(d_0), abs(d_pi)) >= GLANCING_TOL and (d_0 < 0.0) != (d_pi < 0.0):
        theta = _crossing_phase(cfg)
        cycles = TWO_PI * np.arange(math.floor((t_lo - t0) * delta / TWO_PI),
                                    math.ceil((t_hi - t0) * delta / TWO_PI) + 1)
        ts = t0 + np.concatenate((cycles - theta, cycles + theta)) / delta
        roots = ts[(ts >= t_lo) & (ts <= t_hi)].tolist()

    kind = "crossing" if roots else "glancing" if glance else "non-crossing"
    return CrossingReport(kind, tuple(sorted(roots + glance)))
