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

import functools
import math
import numbers
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
        # the detuning's denominator (sqrt(a) - 1)^2 + ... vanishes at t0 where
        # sqrt(a) rounds to 1, and at a = 1 the drive leaves the family
        if not self.a > 0 or math.sqrt(self.a) == 1.0:
            raise ParameterError(f"FieldConfig: need a > 0 and sqrt(a) != 1 in floating point, "
                                 f"got a = {self.a}")
        # the detuning's extreme value, at t0
        peak = self.delta1 + (1.0 - self.a) * self.delta2 / (math.sqrt(self.a) - 1.0) ** 2
        if not math.isfinite(peak):
            raise ParameterError(f"FieldConfig: the detuning's peak overflows, got {self}")
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
        # the detuning's extreme value, at t0, in physical units
        d1 = abs(self.delta1)
        if not math.isfinite(self.delta * (d1 + 2.0 * math.sqrt(d1 * d1 - 1.0))):
            raise ParameterError(f"N2Config: the detuning's peak overflows, got {self}")

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
    """View of a constant-amplitude drive, the only interface the numerical oracle uses.

    ``u`` is the constant Rabi frequency, a finite number; ``delta_t`` is the
    detuning, a callable of one time that returns a real number.  Contract:
    ``delta_t`` is ``period``-periodic and even about ``center``:
    ``delta_t(center - s) = delta_t(center + s)``.  The oracle relies on both
    to compose every time of a window from one solve over half a period,
    ``[center, center + period/2]``, and on the real ``u`` and detuning to
    rebuild the unitary fundamental matrix from one of its columns; it checks
    that the detuning at ``center`` is a real number.
    The n2 and general drives (centred on their ``t0``), the printed n3 field
    and a constant drive (centred on 0) all satisfy it.
    """

    u: float
    delta_t: Callable[[float], float]
    period: float
    center: float = 0.0

    def __post_init__(self):
        # the oracle's solve spans [center, center + period/2]
        if not (0.0 < self.period < math.inf and math.isfinite(self.center)):
            raise ParameterError(f"DriveField: need a finite, positive period and a finite "
                                 f"center, got period={self.period}, center={self.center}")
        if not (isinstance(self.u, numbers.Real) and math.isfinite(self.u)):
            raise ParameterError(f"DriveField: u is the constant Rabi frequency, a finite "
                                 f"number, got {self.u!r}")


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

    The public detuning functions take a scalar or an array: a scalar is
    evaluated with ``math``, which costs a fraction of a NumPy ufunc call, and
    a Python float is returned as it is, before the costlier ``np.isscalar``.
    """
    if type(t) is float:
        return math, t
    if np.isscalar(t):
        return math, float(t)
    return np, np.asarray(t, dtype=float)


def _general_detuning(cfg: FieldConfig, xp) -> Callable:
    """The general family's detuning as a function of time, its constants folded once.

    ``xp`` is ``math`` for a function of a Python float, ``numpy`` for one of
    an array.  The denominator ``1 + a - 2 sqrt(a) cos(...)`` is bounded below
    by ``(sqrt(a) - 1)^2 > 0``, so the value is finite for every valid config.
    It is evaluated as ``(sqrt(a)-1)^2 + 4 sqrt(a) sin^2(.../2)``, a sum of
    non-negative terms, to avoid cancellation near the modulation peak.
    """
    delta, t0, d1, sin = cfg.delta, cfg.t0, cfg.delta1, xp.sin
    sqa = math.sqrt(cfg.a)
    floor, four_sqa, num = (sqa - 1.0) ** 2, 4.0 * sqa, (1.0 - cfg.a) * cfg.delta2

    def delta_t(t):
        return d1 + num / (floor + four_sqa * sin(0.5 * (delta * (t - t0))) ** 2)
    return delta_t


def _n2_detuning(cfg: N2Config, xp) -> Callable:
    """The two-parameter model's detuning as a function of time, its constants folded once.

    ``xp`` as for :func:`_general_detuning`.  The resonant denominator
    ``delta1 - sqrt(delta1^2-1) cos(...)`` is rationalized into a
    single-signed sum, ``1/(d1 + b) + 2b sin^2(.../2)`` for ``d1 > 0`` and
    ``-1/(b - d1) - 2b cos^2(.../2)`` otherwise, ``b = sqrt(d1^2 - 1)``, so the
    spike near the modulation peak is computed without cancellation.
    """
    delta, t0, d1 = cfg.delta, cfg.t0, cfg.delta1
    b = math.sqrt(d1 * d1 - 1.0)
    if d1 > 0:
        floor, two_b, trig = 1.0 / (d1 + b), 2.0 * b, xp.sin
    else:
        floor, two_b, trig = -1.0 / (b - d1), -2.0 * b, xp.cos

    def delta_t(t):
        return delta * (d1 - 2.0 / (floor + two_b * trig(0.5 * (delta * (t - t0))) ** 2))
    return delta_t


def detuning_general(cfg: FieldConfig, t):
    """Detuning of the general family at time ``t`` (scalar or array)."""
    xp, t = _time_arg(t)
    return _general_detuning(cfg, xp)(t)


def detuning_n2(cfg: N2Config, t):
    """Detuning of the two-parameter periodic-crossing model (scalar or array)."""
    xp, t = _time_arg(t)
    return _n2_detuning(cfg, xp)(t)


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


def drive_lattice(owner: str, t, center: float, period: float) -> tuple[np.ndarray, np.ndarray]:
    """Periods ``k`` and offsets ``s`` in ``[-T/2, T/2]`` with ``t = center + k T + s``.

    From ``2**53`` periods out the offset is lost to rounding, so a time that
    far from the centre, or not finite, raises :class:`ParameterError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(t, dtype=float) - center
        k = np.rint(x / period)
    if not (abs(k) < 2.0**53).all():
        raise ParameterError(f"{owner}: a time is not finite or lies 2**53 or more periods "
                             f"from the drive's centre {center}, where its offset is not resolved")
    # np.clip's Python wrapper costs more than the two ufuncs
    return k.astype(int), np.minimum(np.maximum(x - k * period, -0.5 * period), 0.5 * period)


def _scalar_detuning(owner: str, cfg) -> Callable[[float], float]:
    """The detuning of a :class:`N2Config` or :class:`FieldConfig` as a function of a float."""
    if not isinstance(cfg, (N2Config, FieldConfig)):
        raise ParameterError(f"{owner}: unsupported config type {type(cfg)!r}")
    return (_n2_detuning if isinstance(cfg, N2Config) else _general_detuning)(cfg, math)


def drive_field(cfg) -> DriveField:
    """The physical-time drive (constant Rabi frequency, detuning) for the oracle.

    Memoised on the last (frozen, hashable) config, so calls in a row with
    equal configs return the same :class:`DriveField`, and the oracle can read
    one command's solve for the next (:mod:`twostate.oracle`).  Its callers are
    the oracle's: :func:`classify_crossings` builds no drive, so a census
    between two readers of one drive costs them no second solve.  A drive
    built by hand compares its ``delta_t`` by identity and so equals no other.
    A config of another type raises :class:`ParameterError` before the memo hashes it.
    """
    if not isinstance(cfg, (N2Config, FieldConfig)):
        raise ParameterError(f"drive_field: unsupported config type {type(cfg)!r}")
    return _drive_field(cfg)


@functools.lru_cache(maxsize=1)
def _drive_field(cfg) -> DriveField:
    delta_t = _scalar_detuning("drive_field", cfg)
    u = cfg.u0 * cfg.delta if isinstance(cfg, N2Config) else cfg.u0
    return DriveField(u=u, delta_t=delta_t, period=cfg.period, center=cfg.t0)


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
    """Locate resonance crossings of the detuning in the closed ``window``.

    The detuning is monotone in sin^2(theta/2), theta = delta (t - t0), between
    the modulation extrema theta = k pi, so its values d_0 at 0 and d_pi at pi
    decide.  Opposite signs, neither glancing, give crossings at theta = 2 pi k
    +- theta* (:func:`_crossing_phase`); a tangential touch lies at 2 pi k where
    |d_0| < 1e-9 and at 2 pi k + pi where |d_pi| < 1e-9.  Both are tiled over
    the periods of the window (:func:`drive_lattice`), so the cost and the
    output grow with their number.  Takes a :class:`FieldConfig` or :class:`N2Config`.
    """
    f = _scalar_detuning("classify_crossings", cfg)
    t0, delta = cfg.t0, cfg.delta

    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ParameterError("classify_crossings: window must satisfy t_hi > t_lo")
    (k_lo, k_hi), _ = drive_lattice("classify_crossings", window, t0, cfg.period)

    d_0, d_pi = f(t0), f(t0 + math.pi / delta)
    touch = [abs(d_0) < GLANCING_TOL, abs(d_pi) < GLANCING_TOL]
    ts = np.empty(0)
    if any(touch):
        # extrema theta = k pi, even k where d_0 glances and odd k where d_pi does
        k = np.arange(2 * k_lo - 2, 2 * k_hi + 3)
        ts = t0 + k[np.take(touch, k % 2)] * math.pi / delta
    elif (d_0 < 0.0) != (d_pi < 0.0):
        theta = _crossing_phase(cfg)
        cycles = TWO_PI * np.arange(k_lo - 1, k_hi + 2)
        ts = t0 + np.concatenate((cycles - theta, cycles + theta)) / delta
    ts = np.sort(ts[(ts >= t_lo) & (ts <= t_hi)])
    kind = "non-crossing" if not ts.size else "glancing" if any(touch) else "crossing"
    return CrossingReport(kind, tuple(ts.tolist()))
