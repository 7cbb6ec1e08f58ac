"""Independent numerical ground truth for the driven two-state system.

Solves the raw coupled amplitude equations of a constant-amplitude drive,

    i da1/dt = U exp(-i delta(t)) a2,
    i da2/dt = U exp(+i delta(t)) a1,

with the phase modulation ``delta(t)``, ``delta' = delta_t``, co-integrated.
In the co-rotating variable ``c1 = a1 exp(+i delta(t))`` they read
``c' = A(t) c`` with ``A = [[i delta_t, -i U], [-i U, 0]]``.  The
:class:`~twostate.fields.DriveField` contract makes ``A`` ``period``-periodic
and even about the drive's symmetry centre ``c``, and ``A`` is complex
symmetric (``A^T = A``).  The fundamental matrix ``Y`` (``Y(c) = I``) and the
phase then satisfy

    Y(c - s) = Y(c + s)^{-T},           delta(c - s) = -delta(c + s),
    Y(c + s + k T) = Y(c + s) M^k,      delta(c + s + k T) = delta(c + s) + k Phi,

the first line by reflection (``Y(c - s)`` and ``Y(c + s)^{-T}`` solve the
same equation in ``s`` from ``I``), the second by Floquet's theorem.  With
``Y_h = Y(c + T/2)`` the monodromy matrix is ``M = Y(c - T/2)^{-1} Y_h =
Y_h^T Y_h``, exactly complex symmetric, and ``Phi = 2 delta(c + T/2)``.
``U`` and ``delta_t`` are real, so ``A`` is also anti-Hermitian: ``Y`` is
unitary with ``det Y = exp(i delta)``, and its first column is
``exp(i delta) (conj(eps), -conj(gamma))`` of its second, ``(gamma, eps)``.
So one adaptive solve of ``[gamma, eps, delta]`` from ``(0, 1, 0)`` over half
a period, ``[c, c + T/2]``, gives every sample of any window through 2x2
products, and its end point gives the monodromy matrix, which is unitary and
whose eigenvalue arguments are the quasi-energies of the amplitude equation
modulo the drive frequency.  The second column is the one integrated because
at zero coupling it stays exactly ``(0, 1)``.  It is an ODE solution, not
projected onto the unit sphere, so its norm drift stays the solve's own
diagnostic.  The composition adds no truncation error of its own: the
one-period error ``eps_M`` is carried coherently, so a sample ``k`` periods
out is off by about ``k eps_M``.  Nothing here shares code with the analytic
modules: agreement between the two is the package's core correctness check.

The half-period solve is DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, Sec. II.10) in the oracle's own step loop: a
step-for-step port of ``scipy.integrate.DOP853`` on ``[gamma, eps, gamma,
eps, delta]``, with scipy's tableau, error norm and step controller, so the
same steps and right-hand-side calls, run on the three distinct components as
Python complex scalars instead of scipy's per-step array machinery.  That
error norm counts each amplitude twice, which makes it, to first order, the
RMS over the rebuilt ``[Y, delta]``, so ``rtol`` and ``atol`` mean what they
would for a solve of the whole matrix.  The tableau is written out in this
module, and each attempted step, its error norm included, runs as one
straight-line function generated from it at the first solve; the only call
it makes per stage is the detuning's.  The period
average of the detuning, :func:`mean_detuning`, is ``Phi / T`` from the same
solve.  So the module needs numpy only, and no module of the package imports
scipy, whose import takes longer than a whole run of most CLI commands.

The oracle keeps its last dense half-period solve, with its drive and
``(rtol, atol)``.  A non-dense request (:func:`monodromy` at a lattice
``t_ref``, the drive's centre by default; :func:`mean_detuning`) for an equal
drive at equal tolerances reads that solve's steps instead of solving again:
dense output adds three calls per accepted step and changes no step, so the
end point is the same bits, and the reported ``nfev`` is the one a fresh
non-dense solve makes.  One tolerance pair, ``DEFAULT_RTOL`` and
``DEFAULT_ATOL``, is every reader's default, so :func:`integrate` then
:func:`monodromy` at their defaults solve once, as do ``twostate compare``
then ``twostate floquet`` (:func:`~twostate.fields.drive_field` returns one
drive per configuration).
Reuse runs only from dense to non-dense: a dense request always solves, and
replaces the kept solve, so every dense timing and count is a fresh solve's.
Drives are equal as dataclasses, which compares ``delta_t`` by identity.
The kept solve is one tuple, read and replaced whole, so concurrent callers
each see one solve or another, never a mix.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError
from .fields import DriveField, StateVector, drive_lattice

DEFAULT_RTOL = 1e-11                       # every reader's default (module docstring)
DEFAULT_ATOL = 1e-13
_MIN_RTOL = 1e-13
_MAX_RTOL = 1.0
# work bound of one half-period solve: a dense solve at rtol 1e-11 makes 150 to
# 180 |delta1| right-hand-side calls, so this admits |delta1| up to ~1,300
_MAX_RHS_CALLS = 200_000
# the last dense half-period solve as (field, rtol, atol, solve): a non-dense
# request for an equal drive at equal tolerances reads it (module docstring)
_last_dense = None


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution plus a norm-conservation figure of merit."""

    times: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    phase: np.ndarray
    norm_drift: float
    nfev: int                              # right-hand-side evaluations

    @property
    def pop2(self) -> np.ndarray:
        return np.abs(self.a2) ** 2

    @property
    def norm(self) -> np.ndarray:
        return np.abs(self.a1) ** 2 + np.abs(self.a2) ** 2

    def state_at(self, i: int) -> StateVector:
        return StateVector(a1=complex(self.a1[i]), a2=complex(self.a2[i]),
                           phase=float(self.phase[i]))


@dataclass(frozen=True)
class MonodromyResult:
    """One-period transfer matrix in co-rotating variables and its spectrum."""

    matrix: np.ndarray                     # 2x2 complex
    eigenvalues: tuple[complex, complex]
    exponents: tuple[float, float]         # in [-Delta/2, Delta/2)
    # max entry of |M^H M - I|; the columns of Y are orthogonal by construction,
    # so this measures the integrated column's norm, about 2 ||gamma|^2 + |eps|^2 - 1|
    unitarity_error: float
    # right-hand-side evaluations of a fresh non-dense solve, also when the
    # matrix was read from a kept dense solve
    nfev: int

    @property
    def det_modulus(self) -> float:
        return float(abs(np.linalg.det(self.matrix)))


# The DOP853 tableau: Dormand and Prince's 8(5,3) pair with Hairer's
# seventh-order dense output, as in Hairer's dop853.f.  The values are the
# doubles of scipy's integrate/_ivp/dop853_coefficients.py (BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), which gives
# E3 as B minus three corrections; E3 holds the doubles that subtraction gives.
# Each stage and weight row keeps only its nonzero entries, as (j, w_j) pairs
# over the stages j: those sums are written out term by term.
_NODES = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
          0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
          0.8571428571428571, 1.0)
_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_NODES_EXTRA = (0.1, 0.2, 0.7777777777777778)
_A_EXTRA = (
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932), (11, 0.0003825710908356584),
     (12, -0.00034046500868740456), (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
     (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
     (13, 2.9475147891527724), (14, -9.15095847217987)),
)
# D maps the 16 stages to the four higher interpolant rows; it is kept dense,
# zeros included, for the einsum that builds those rows
_D = np.array((
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
))
_D.flags.writeable = False                 # shared by every dense solve


# A(t) @ (gamma, eps) with A = [[i delta_t, -i U], [-i U, 0]], then
# delta' = delta_t: the right-hand side at time {t} of the state {y}0, {y}1
# (the phase is never read) into {k}0..{k}2, as the lines of a generated
# function; iu = i U and niu = -i U
_RHS = """\
    {k}2 = delta_t({t})
    {k}0 = 1j * {k}2 * {y}0 - iu * {y}1
    {k}1 = niu * {y}0"""
# the weight of each integrated component [gamma, eps, delta] in the error
# norms: each amplitude stands for two entries of the rebuilt [Y, delta], so
# the norm is, to first order, the RMS over those five, as scipy takes it
_WEIGHTS = (2.0, 2.0, 1.0)


@functools.cache
def _dop853_step():
    """Straight-line DOP853 functions, generated from the tableau and compiled once.

    ``iu`` and ``niu`` are ``1j * U`` and ``-iu`` for the constant Rabi
    frequency ``U``.  ``rhs(iu, niu, delta_t, t, y)`` is the right-hand side
    at ``t`` of the column ``y = (gamma, eps)``.  ``attempt(iu, niu, delta_t,
    t, h, t_new, y, f, rtol, atol)`` is one attempted step from ``(t, y)``,
    ``y = (gamma, eps, delta)``, with ``f`` the derivative there: it returns
    ``y_new``, ``f_new`` (the derivative at ``t_new``), ``err5`` and ``err3``,
    the sums over the three components of ``w |e / scale|^2`` for the E5 and
    E3 sums ``e`` with ``scale = atol + max(|y|, |y_new|) rtol`` and ``w``
    the component's ``_WEIGHTS`` entry, and the 13 stages, ``f`` first and
    ``f_new`` last.  ``extra(iu, niu, delta_t, t, h, y, ks)`` returns the
    three dense-output stages of an accepted step.  Each sum ``sum_j w_j k_j``
    is written out as ``k_0*w_0 + k_1*w_1 + ...``, and each error sum over
    the components in their order, from left to right; ``delta_t`` is called
    once per stage, in stage order.
    """
    # the stage comes first in each product, the float weight or step second: a
    # float times a complex first tries the float's own multiplication, which
    # declines; IEEE products and sums commute, so the order changes no bit
    def total(terms, c):
        return " + ".join(f"k{j}_{c} * {w!r}" for j, w in terms)

    def stage(s, node, terms):
        # Y + h sum_j a_sj k_j, then the right-hand side at t + c_s h
        return ([f"    x{c} = y{c} + ({total(terms, c)}) * h" for c in range(2)]
                + [f"    ts = t + {node!r} * h", _RHS.format(t="ts", y="x", k=f"k{s}_")])

    def components(name):
        return "(" + ", ".join(f"{name}{c}" for c in range(3)) + ")"

    def error(terms):
        return " + ".join(f"abs(({total(terms, c)}) / s{c}) ** 2 * {w!r}"
                          for c, w in enumerate(_WEIGHTS))

    source = ["def rhs(iu, niu, delta_t, t, y):",
              "    y0, y1 = y",
              _RHS.format(t="t", y="y", k="k"),
              f"    return {components('k')}",
              "",
              "def attempt(iu, niu, delta_t, t, h, t_new, y, f, rtol, atol):",
              f"    {components('y')} = y",
              f"    {components('k0_')} = f"]
    for s, (node, terms) in enumerate(zip(_NODES, _A), start=1):
        source += stage(s, node, terms)
    source += [f"    n{c} = y{c} + ({total(_B, c)}) * h" for c in range(3)]
    source += [_RHS.format(t="t_new", y="n", k="k12_"),
               f"    f_new = {components('k12_')}"]
    source += [f"    s{c} = atol + max(abs(y{c}), abs(n{c})) * rtol" for c in range(3)]
    source += [f"    err5 = {error(_E5)}",
               f"    err3 = {error(_E3)}",
               f"    return ({components('n')}, f_new, err5, err3, (f, "
               + ", ".join(components(f"k{s}_") for s in range(1, 12)) + ", f_new))",
               "",
               "def extra(iu, niu, delta_t, t, h, y, ks):",
               f"    {components('y')} = y",
               f"    {', '.join(components(f'k{s}_') for s in range(13))} = ks"]
    for s, (node, terms) in enumerate(zip(_NODES_EXTRA, _A_EXTRA), start=13):
        source += stage(s, node, terms)
    source.append(f"    return {', '.join(components(f'k{s}_') for s in range(13, 16))}")
    namespace = {}
    exec(compile("\n".join(source), "<dop853 step>", "exec"), namespace)
    return namespace["rhs"], namespace["attempt"], namespace["extra"]


def _rms(x, scale) -> float:
    """scipy's RMS norm of ``x / scale`` over ``[gamma, eps, gamma, eps, delta]``, from three."""
    return math.sqrt(sum(abs(xi / si) ** 2 * w for xi, si, w in zip(x, scale, _WEIGHTS)) / 5)


@dataclass(frozen=True)
class _HalfPeriod:
    """The accepted steps of one half-period solve and, if dense, their interpolants."""

    t: np.ndarray                          # step times, c .. c + T/2
    y: np.ndarray                          # (3, steps + 1): [gamma, eps, delta] at each
    nfev: int                              # right-hand-side evaluations
    rows: np.ndarray | None                # (steps, 7, 3) DOP853 interpolant rows, if dense

    def __call__(self, t) -> np.ndarray:
        """Dense ``[gamma, eps, delta]`` at the times ``t``, one column each.

        The step is chosen as scipy's ``OdeSolution`` chooses it: a time on a
        step boundary belongs to the step that ends there.
        """
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, len(self.rows) - 1)
        t_old = self.t[seg]
        x = ((t - t_old) / (self.t[seg + 1] - t_old))[:, None]
        rows = self.rows[seg]
        y = np.zeros((len(t), 3), dtype=complex)
        for i in range(6, -1, -1):
            y += rows[:, i]
            y *= x if i % 2 == 0 else 1.0 - x
        return y.T + self.y[:, seg]


def _half_period_solve(owner: str, field: DriveField, rtol: float, atol: float,
                       dense: bool) -> _HalfPeriod:
    """One DOP853 solve of ``[gamma, eps, delta]`` from ``[0, 1, 0]`` over ``[c, c + T/2]``.

    ``c`` is the drive's symmetry centre and ``(gamma, eps)`` the second
    column of ``Y``; :func:`_fundamental` rebuilds ``[Y, delta]`` from it.  A
    step-for-step port of scipy's ``DOP853`` over the same span on the five
    components ``[gamma, eps, gamma, eps, delta]`` (module docstring), as
    :func:`twostate.heun._brent` is of ``brentq``: scipy's initial-step
    selection for an error estimator of order 7, its RMS error norm over the
    five components, taken as the ``_WEIGHTS`` sum over three, its
    controller (safety 0.9, step factor in [0.2, 10], exponent -1/8, no growth
    right after a rejection) and its failure below ten spacings of
    floating-point numbers at the current time.  ``nfev``
    counts as scipy counts: two calls to start, 12 per attempted step and,
    with ``dense``, 3 per accepted step for the interpolant, whose rows are
    built for all steps at once after the loop.  A solve that needs more than
    ``_MAX_RHS_CALLS`` calls raises :class:`IntegrationError`; ``rtol``
    outside ``[_MIN_RTOL, _MAX_RTOL)``, i.e. ``[1e-13, 1)``, or ``atol`` not
    in ``(0, inf)`` raises :class:`ParameterError` before any call, and a
    detuning at ``c`` that is not a real number raises it after the first.
    The Rabi frequency enters as ``1j * U`` and its negative, formed once
    here, and ``delta_t`` is called once per right-hand-side evaluation, with
    a float.  A dense solve is kept (its arrays read-only) and replaces the
    one kept before; a solve that raises keeps nothing.  A non-dense request
    for the kept solve's ``field``, ``rtol`` and ``atol`` returns its steps
    without calling ``delta_t``, with ``nfev`` less the dense-output calls.
    """
    # a non-finite tolerance would make the solver step forever; from rtol 1 on
    # the error scale admits steps that overflow the fundamental matrix (rtol
    # 1e300 made a NaN monodromy with overflow warnings)
    if not (_MIN_RTOL <= rtol < _MAX_RTOL and 0.0 < atol < math.inf):
        raise ParameterError(f"{owner}: need {_MIN_RTOL} <= rtol < {_MAX_RTOL:g} and "
                             f"0 < atol < inf, got rtol={rtol}, atol={atol}")
    global _last_dense
    kept = _last_dense
    if not dense and kept is not None and kept[:3] == (field, rtol, atol):
        sol = kept[3]
        # the same steps; a fresh solve makes no dense-output calls
        return _HalfPeriod(t=sol.t, y=sol.y, nfev=sol.nfev - 3 * (len(sol.t) - 1), rows=None)
    rhs, attempt, extra = _dop853_step()
    iu, delta_t = 1j * field.u, field.delta_t
    niu = -iu

    too_small = (f"{owner}: solver failed: Required step size is less than spacing "
                 f"between numbers.")
    t = c = field.center
    t_end = c + 0.5 * field.period
    if not t_end > c:                      # half a period rounds away at the centre
        raise IntegrationError(too_small)
    y = (0j, 1.0 + 0j, 0.0)
    f = rhs(iu, niu, delta_t, t, y[:2])
    # the rebuild of Y from one column holds for an anti-Hermitian generator,
    # that is for a real detuning (u is checked real by DriveField)
    if not isinstance(f[2], numbers.Real):
        raise ParameterError(f"{owner}: the detuning must be a real number, got "
                             f"delta_t({t!r}) = {f[2]!r}")

    # the initial step, as scipy's select_initial_step
    length = t_end - t
    scale0 = [atol + abs(yi) * rtol for yi in y]
    d0, d1 = _rms(y, scale0), _rms(f, scale0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    f1 = rhs(iu, niu, delta_t, t + h0, [yi + h0 * fi for yi, fi in zip(y[:2], f)])
    d2 = _rms([p - q for p, q in zip(f1, f)], scale0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, length)
    nfev = 2

    ts, ys, stages = [t], [y], []
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(too_small)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            y_new, f_new, err5, err3, ks = attempt(iu, niu, delta_t, t, h, t_new, y, f,
                                                   rtol, atol)
            nfev += 12
            if nfev > _MAX_RHS_CALLS:
                raise IntegrationError(f"{owner}: more than {_MAX_RHS_CALLS} right-hand-side "
                                       f"calls over half a period; the drive varies too fast "
                                       f"for the oracle")
            error_norm = 0.0 if err5 == 0 and err3 == 0 else (
                h * err5 / math.sqrt((err5 + 0.01 * err3) * 5))
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm ** (-1 / 8))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
            rejected = True
        if dense:
            stages.append(ks + extra(iu, niu, delta_t, t, h, y, ks))
            nfev += 3
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)

    t_arr, y_arr = np.array(ts), np.array(ys, dtype=complex)
    if not dense:
        return _HalfPeriod(t=t_arr, y=y_arr.T, nfev=nfev, rows=None)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(stages))
    k = np.fromiter(flat, dtype=complex, count=48 * len(stages)).reshape(-1, 16, 3)
    h = np.diff(t_arr)[:, None]
    dy = y_arr[1:] - y_arr[:-1]
    # scipy's Dop853DenseOutput rows; stage 12 is the derivative at the step's end
    rows = np.empty((len(k), 7, 3), dtype=complex)
    rows[:, 0] = dy
    rows[:, 1] = h * k[:, 0] - dy
    rows[:, 2] = 2 * dy - h * (k[:, 12] + k[:, 0])
    rows[:, 3:] = h[:, None] * np.einsum("ij,sjc->sic", _D, k)
    for a in (t_arr, y_arr, rows):                          # kept, and shared by its views
        a.flags.writeable = False
    sol = _HalfPeriod(t=t_arr, y=y_arr.T, nfev=nfev, rows=rows)
    _last_dense = (field, rtol, atol, sol)
    return sol


def _fundamental(y) -> np.ndarray:
    """``[Y (row-major), delta]`` rebuilt from ``[gamma, eps, delta]``, column for column.

    ``Y`` is unitary with ``det Y = exp(i delta)``, so its first column is
    ``exp(i delta) (conj(eps), -conj(gamma))`` of its second, ``(gamma, eps)``.
    """
    gamma, eps, delta = y
    det = np.exp(1j * delta.real)
    return np.array([det * eps.conj(), gamma, -det * gamma.conj(), eps, delta])


def _reflect(sol, s) -> np.ndarray:
    """``[Y (row-major), delta]`` at ``c + s`` for ``|s| <= T/2``, one column per offset.

    Rebuilt from the dense half-period solution at ``c + |s|``; for ``s < 0``
    ``Y(c - |s|) = Y(c + |s|)^{-T}`` and ``delta(c - |s|) = -delta(c + |s|)``.
    """
    y = _fundamental(sol(sol.t[0] + np.abs(s)))
    det = y[0] * y[3] - y[1] * y[2]
    inv_t = np.array([y[3], -y[2], -y[1], y[0]]) / det
    return np.where(s < 0, np.vstack((inv_t, -y[4])), y)


def _monodromy_at_centre(sol) -> tuple[np.ndarray, float]:
    """``M(c) = Y_h^T Y_h`` with ``Y_h = Y(c + T/2)``, and the phase gained over one period."""
    y = _fundamental(sol.y[:, -1])
    y_h = y[:4].reshape(2, 2)
    return y_h.T @ y_h, 2.0 * y[4].real


def integrate(field: DriveField, state0: StateVector, t_span: tuple[float, float],
              t_eval=None, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
              ) -> Trajectory:
    """Amplitude-equation samples composed from one half-period solve (DOP853 8(5,3)).

    ``Y`` (its second column, the first rebuilt from it) and ``delta`` are
    integrated with dense output over ``[c, c + T/2]`` only, ``c`` being the
    drive's symmetry centre.  A time ``t = c + k T + s`` with ``|s| <= T/2``
    has ``Y(t) = Y(c + s) M^k`` and ``delta(t) = delta(c + s) + k Phi``,
    ``Y(c + s)`` for ``s < 0`` coming from reflection (module docstring).  The
    transfer matrix of any window, forward or backward, is
    ``U(t, t_start) = Y(t) Y(t_start)^{-1}``, applied to
    ``c0 = (a1 exp(i delta0), a2)``; then
    ``delta = delta0 + delta(t) - delta(t_start)`` and ``a1 = c1 exp(-i delta)``.
    The solve's cost does not grow with the number of periods; ``M^j``
    (``M^-1`` for a backward window) is raised to each sampled ``|j|`` by its
    binary digits, so the composition's cost grows like ``log2 |j|``, while the
    error grows like ``k eps_M``, ``eps_M`` being the error of the one-period
    matrix.
    ``nfev`` counts the calls of the one solve, dense-output stages included;
    neither it nor any sample's value depends on ``t_eval``.

    ``state0.phase`` seeds the accumulated phase modulation at ``t_span[0]``,
    as :func:`twostate.closedform.closed_form_states` reads it at its
    ``t_start``; the CLI passes 0, the phase at ``--t-start``.  ``t_span`` may run
    backward (``t_span[1] < t_span[0]``); it must be finite and of nonzero
    length, and ``t_eval`` strictly monotone within it.  Without ``t_eval``
    the samples are the span's ends, ``(t_start, t_end)``.
    """
    T, c = field.period, field.center
    t_start, t_end = float(t_span[0]), float(t_span[1])
    span = t_end - t_start
    if not (math.isfinite(span) and span != 0.0):
        raise ParameterError(f"integrate: t_span must be finite and of nonzero length, "
                             f"got {t_span}")
    times = np.array((t_start, t_end) if t_eval is None else t_eval, dtype=float)
    x = (times - t_start) if span > 0 else (t_start - times)
    # written so that a NaN sample fails every comparison
    if not (x.ndim == 1 and x.size and np.all(x >= 0) and np.all(x <= abs(span))
            and np.all(np.diff(x) > 0)):
        raise ParameterError("integrate: t_eval must be a non-empty sequence, finite and "
                             "strictly monotone within t_span")
    k, s = drive_lattice("integrate", np.append(times, t_start), c, T)  # the samples, t_start
    sol = _half_period_solve("integrate", field, rtol, atol, dense=True)
    m, phase_period = _monodromy_at_centre(sol)
    y = _reflect(sol, s)
    y, y0 = y[:, :-1], y[:, -1]
    # M^j v0 for the whole periods j from t_start, v0 = Y(t_start)^-1 c0: every
    # sample lies on the window's side of t_start, so j has the window's sign,
    # and step = M (or M^-1) is raised to each |j| by its binary digits in
    # elementwise products, so that no sample's bits depend on the others
    c0 = np.array([state0.a1 * cmath.exp(1j * state0.phase), state0.a2], dtype=complex)
    j = k[:-1] - k[-1]
    step = m if span > 0 else np.linalg.inv(m)
    v = np.repeat(np.linalg.solve(y0[:4].reshape(2, 2), c0)[:, None], j.size, axis=1)
    digits = np.abs(j)
    for _ in range(int(digits.max()).bit_length()):
        v = np.where(digits & 1, step[:, :1] * v[0] + step[:, 1:] * v[1], v)
        digits >>= 1
        step = step @ step
    c1 = y[0] * v[0] + y[1] * v[1]
    a2 = y[2] * v[0] + y[3] * v[1]
    phase = state0.phase + (y[4].real - y0[4].real) + j * phase_period
    a1 = c1 * np.exp(-1j * phase)
    drift = float(np.max(np.abs(np.abs(a1) ** 2 + np.abs(a2) ** 2 - state0.norm)))
    return Trajectory(times=times, a1=a1, a2=a2, phase=phase, norm_drift=drift, nfev=sol.nfev)


def monodromy(field: DriveField, t_ref: float | None = None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> MonodromyResult:
    """One-period transfer matrix and Floquet exponents of the drive.

    ``t_ref`` defaults to the drive's symmetry centre ``c``, where the matrix
    is ``M(c) = Y_h^T Y_h``, from the end point ``Y_h = Y(c + T/2)`` of the
    half-period solve that :func:`integrate` composes its samples from, and
    so exactly complex symmetric.  At any other reference time it is
    ``M(t_ref) = Y(t_ref) M(c) Y(t_ref)^{-1}``; only a ``t_ref`` off the
    lattice ``c + k T`` needs the solve's dense output.  On the lattice the
    end point of the last dense solve of an equal drive at equal tolerances
    serves (module docstring), and ``nfev`` is still the count of a fresh
    solve without dense output.  Eigenvalue arguments divided by the period
    give the exponents, folded into ``[-Delta/2, Delta/2)`` with
    ``Delta = 2 pi / T``.
    """
    T = field.period
    if np.ndim(t_ref) != 0:
        raise ParameterError(f"monodromy: t_ref must be one time, got {t_ref!r}")
    _, s = drive_lattice("monodromy", field.center if t_ref is None else t_ref, field.center, T)
    off_lattice = bool(s != 0.0)
    sol = _half_period_solve("monodromy", field, rtol, atol, dense=off_lattice)
    m, _ = _monodromy_at_centre(sol)
    if off_lattice:
        y = _reflect(sol, np.array([s]))[:4, 0].reshape(2, 2)
        m = y @ m @ np.linalg.inv(y)
    eig = np.linalg.eigvals(m)
    delta = 2.0 * math.pi / T
    exps = tuple(wrap_mod(float(np.angle(ev)) / T, delta) for ev in eig)
    unitarity = float(np.max(np.abs(m.conj().T @ m - np.eye(2))))
    return MonodromyResult(matrix=m, eigenvalues=(complex(eig[0]), complex(eig[1])),
                           exponents=exps, unitarity_error=unitarity, nfev=sol.nfev)


def wrap_mod(x: float, delta: float) -> float:
    """Fold ``x`` into the fundamental interval [-delta/2, delta/2)."""
    return (x + 0.5 * delta) % delta - 0.5 * delta


def mod_distance(x: float, y: float, delta: float) -> float:
    """Distance between ``x`` and ``y`` modulo ``delta``."""
    return abs(wrap_mod(x - y, delta))


def exponent_pair_residual(analytic: tuple[float, float], measured: tuple[float, float],
                           delta: float) -> float:
    """Best-pairing mod-delta residual between two exponent pairs."""
    a, b = analytic
    u, v = measured
    direct = max(mod_distance(a, u, delta), mod_distance(b, v, delta))
    swapped = max(mod_distance(a, v, delta), mod_distance(b, u, delta))
    return min(direct, swapped)


def mean_detuning(field: DriveField) -> float:
    """Period average of the detuning, ``Phi / T``, from one half-period solve.

    ``Phi = 2 delta(c + T/2)``, the phase gained over one period, is the end
    point of the solve that :func:`monodromy` reads, at the oracle's one
    default tolerance pair ``(DEFAULT_RTOL, DEFAULT_ATOL)``, the same bits
    whether solved afresh or read from the last dense solve of an equal drive
    at those tolerances, such as a default :func:`integrate` (module
    docstring); read, it calls ``delta_t`` no more.  Its cost is the
    ``nfev`` of a default :func:`monodromy`, a fresh solve without dense output.
    It relies on the :class:`~twostate.fields.DriveField` contract: a
    detuning that is not ``period``-periodic and even about ``center`` gives
    a wrong average, not an error.  Like every solve it raises
    :class:`IntegrationError` past ``_MAX_RHS_CALLS`` right-hand-side calls.
    """
    sol = _half_period_solve("mean_detuning", field, DEFAULT_RTOL, DEFAULT_ATOL, dense=False)
    _, phase_period = _monodromy_at_centre(sol)
    return phase_period / field.period


def rabi_population(u0: float, delta1: float, t) -> np.ndarray:
    """Excited-state population of the constant-detuning flopping model.

    Reference formula ``(4 u0^2 / R^2) sin^2(R t / 2)`` with
    ``R = sqrt(4 u0^2 + delta1^2)``, for a system started in the ground
    state; used to validate the integrator against a known solution.
    """
    big_r = math.sqrt(4.0 * u0 * u0 + delta1 * delta1)
    return (4.0 * u0 * u0 / big_r**2) * np.sin(0.5 * big_r * np.asarray(t)) ** 2
