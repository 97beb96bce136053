"""Continuous-spectrum limit: the generalized nu-function and friends.

Sums over the Fock index k become integrals over E >= 0:

    rho_tilde(E)  continuous interpolation of rho(k),
    nu(zeta) = integral_0^inf  zeta^E / rho_tilde(E)  dE,

and the continuous states have density z^E / sqrt(rho_tilde(E) nu(|z|^2)).
Since margin > 0 the integrand decays superexponentially (the 1/Gamma(E+1)
factor wins), so the infinite range truncates at the point where the
log-integrand has dropped E_MAX_DROP below its peak.

Two independent quadrature schemes are provided on purpose: "gk"
(adaptive Gauss-Kronrod via QUADPACK) and "ts" (an in-package tanh-sinh
rule).  Their agreement is the correctness check for every nu value.
QuadConfig sets their two tolerances; the Gauss-Kronrod subinterval limit
MAX_SUBDIVISIONS and the tanh-sinh level cap are fixed.  `_integrate` is
the package's one quadrature driver: nu, overlap_tilde (the nu integral
at the complex log zeta = Log(conj(z) z')) and hfunction.moment_check
all run through it.  Gauss-Kronrod takes a complex integrand as two real
passes; a QUADPACK failure in any pass raises QuadratureFailure, and a
non-finite integral raises OverflowError.

rho_tilde and log_rho_tilde are `coherent.rho` and `coherent.log_rho`,
which take any real argument >= 0; the integrands use the array form
`coherent._log_rho_vec`.  nu_bicomplex runs nu per idempotent component
through `bicomplex.componentwise`.

Gauss-Kronrod calls its integrand one node at a time, and the nodes recur
from call to call, because the upper limit comes from the fixed ladder
8 * 1.5^j.  So the one-node integrand takes log rho(E) from a 4,096-entry
LRU keyed on (params, E) (`_log_rho_node`; K does not enter rho), and
_e_max takes its 257-point log-rho grid from a 128-entry LRU keyed on
(params, hi) (`_rho_grid`), since that grid does not depend on zeta.  A hit
returns the stored float64 values, so every output keeps its bits.
Tanh-sinh node arrays are not cached: they hold up to 8,192 nodes, so a
bound on the entry count would not bound the memory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bicomplex import Hyperbolic, componentwise
from .coherent import BCCoherentModel, CoherentModel, _log_rho_vec, log_rho, rho
from .errors import QuadratureFailure, ValidationError
from .foxwright import FWParams


# Gauss-Kronrod's subinterval limit, the drop (in nats) of the log-integrand
# below its peak where the infinite range is cut, and tanh-sinh's last level
MAX_SUBDIVISIONS = 200
E_MAX_DROP = 40.0
_TS_MAX_LEVEL = 12


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):  # NaN fails this test too
            raise ValidationError("quadrature tolerances must be > 0")


DEFAULT_QUAD = QuadConfig()

SCHEMES = ("gk", "ts")


# the continuous interpolation of rho is rho itself at real argument
log_rho_tilde = log_rho
rho_tilde = rho


def _e_max(model: CoherentModel, log_zeta: float) -> float:
    """Upper truncation: log-integrand fallen E_MAX_DROP below its peak."""
    hi = 8.0
    for _ in range(80):
        grid, log_rho_grid = _rho_grid(model.params, hi)
        logf = grid * log_zeta - log_rho_grid
        peak = logf.max()
        if logf[-1] <= peak - E_MAX_DROP:
            return hi
        hi *= 1.5
    raise QuadratureFailure("could not locate a decaying tail for the nu integrand")


@lru_cache(maxsize=128)
def _rho_grid(params: FWParams, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """_e_max's 257-point grid on [0, hi] and log rho on it, read-only."""
    grid = np.linspace(0.0, hi, 257)
    # a copy, so the entry does not hold the whole log-gamma block alive
    log_rho_grid = _log_rho_vec(params, grid).copy()
    grid.flags.writeable = log_rho_grid.flags.writeable = False
    return grid, log_rho_grid


@lru_cache(maxsize=4096)
def _log_rho_node(params: FWParams, E: float) -> float:
    """log rho(E) at one Gauss-Kronrod node: the float _log_rho_vec gives on [E]."""
    return float(_log_rho_vec(params, np.array([E]))[0])


def _integrands(params: FWParams, log_zeta):
    """zeta^E / rho(E) on a node array (tanh-sinh) and at one node (Gauss-Kronrod).

    The one-node form takes log rho from the node memo and agrees with the
    array form on [E] bit for bit.  An overflow is left to the caller's
    finite check.
    """

    def on_nodes(Es):
        return np.exp(Es * log_zeta - _log_rho_vec(params, Es))

    def at_node(E):
        return np.exp(np.array([E]) * log_zeta - _log_rho_node(params, E))[0]

    return on_nodes, at_node


def _tanh_sinh(f, a: float, b: float, rel_tol: float, abs_tol: float):
    """Tanh-sinh rule on [a, b]; f must accept numpy arrays.

    Returns (value, error_estimate).  The double-exponential substitution
    x = mid + half*tanh((pi/2) sinh t) concentrates nodes at both ends;
    halving the step h keeps the running sum, so each level adds only its
    new (odd) nodes, and it converges roughly quadratically in digits, so
    a handful of levels suffices for smooth integrands.  f is called once
    on the midpoint and then once per level, on the level's nodes right
    and left of the midpoint together; f must act entry by entry, so that
    each value is the one a separate call would give.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t_cap = 4.0

    def level_nodes(h, only_odd):
        j = np.arange(1, int(t_cap / h) + 1)
        if only_odd:
            j = j[j % 2 == 1]
        t = j * h
        u = 0.5 * math.pi * np.sinh(t)
        x_off = half * np.tanh(u)
        w = half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        return x_off, w

    w0 = half * 0.5 * math.pi
    total = w0 * f(np.array([mid]))[0]
    h = 2.0
    value, err = None, math.inf
    for level in range(_TS_MAX_LEVEL + 1):
        h *= 0.5
        x_off, w = level_nodes(h, only_odd=level > 0)
        # total excludes the step h, so the halved h rescales old nodes for us
        fx = f(np.concatenate((mid + x_off, mid - x_off)))
        total = total + np.sum(w * (fx[: len(w)] + fx[len(w) :]))
        if not np.isfinite(total):
            # halving further would only turn inf - inf into nan
            raise OverflowError(f"tanh-sinh sum {total} leaves the float64 range")
        new_value = h * total
        if value is not None:
            err = abs(new_value - value)
            if err <= max(abs_tol, rel_tol * abs(new_value)):
                return new_value, err
        value = new_value
    raise QuadratureFailure(
        f"tanh-sinh did not reach tolerance (last step error {err:.3g})"
    )


def _integrate(f, f_node, a, b, cfg: QuadConfig, scheme: str, complex_func: bool = False):
    """Integral over [a, b] and its error estimate: f on node arrays for
    "ts", f_node at one node for "gk".

    Gauss-Kronrod takes a complex f_node (complex_func) as two real passes,
    real part then imaginary part, as scipy's own complex_func does, and a
    QUADPACK failure in either pass raises QuadratureFailure.
    """
    if scheme == "gk":
        from scipy import integrate
        parts = (lambda x: f_node(x).real, lambda x: f_node(x).imag) if complex_func else (f_node,)
        outs = []
        for part in parts:
            out = integrate.quad(
                part, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=MAX_SUBDIVISIONS,
                full_output=1,
            )
            if len(out) > 3:
                raise QuadratureFailure(f"Gauss-Kronrod failed: {out[3]}")
            outs.append(out[:2])
        # (value, err), or the real pass's plus 1j times the imaginary pass's
        out = outs[0] if len(outs) == 1 else [re + 1j * im for re, im in zip(*outs)]
    elif scheme == "ts":
        out = _tanh_sinh(f, a, b, cfg.rel_tol, cfg.abs_tol)
    else:
        raise ValidationError(f"unknown quadrature scheme {scheme!r}; use one of {SCHEMES}")
    return _finite(out[0], out[1])


def _finite(value, err):
    """(value, err) unchanged, or OverflowError if either is not finite."""
    if not (cmath.isfinite(value) and cmath.isfinite(err)):
        raise OverflowError(f"integral {value!r} (error {err!r}) leaves the float64 range")
    return value, err


def _nu_integral(model: CoherentModel, log_zeta, cfg: QuadConfig, scheme: str):
    """integral_0^inf exp(E log_zeta) / rho(E) dE and its error estimate.

    A complex log_zeta (the principal Log of a complex zeta) makes the
    integrand complex; the range is cut where its modulus has fallen.
    """
    e_hi = _e_max(model, log_zeta.real)
    on_nodes, at_node = _integrands(model.params, log_zeta)
    # an overflow (inf, or inf+nanj from the complex exp) surfaces as a
    # non-finite integral, which _integrate rejects
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        return _integrate(on_nodes, at_node, 0.0, e_hi, cfg, scheme, isinstance(log_zeta, complex))


def nu_with_error(
    model: CoherentModel,
    zeta: float,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> tuple[float, float]:
    """nu value together with the scheme's error estimate."""
    zeta = float(zeta)
    if zeta < 0:
        raise ValidationError("zeta must be >= 0")
    if zeta == 0.0:
        return 0.0, 0.0
    return _nu_integral(model, math.log(zeta), cfg, scheme)


def nu(
    model: CoherentModel,
    zeta: float,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> float:
    """nu(zeta) = integral_0^inf zeta^E / rho_tilde(E) dE."""
    return nu_with_error(model, zeta, cfg, scheme)[0]


def nu_bicomplex(model: BCCoherentModel, W: Hyperbolic, scheme: str = "gk") -> Hyperbolic:
    """Componentwise nu on a hyperbolic argument in D+ (nu rejects zeta < 0)."""
    return Hyperbolic(*componentwise(nu, model, Hyperbolic.of(W), DEFAULT_QUAD, scheme))


def overlap_tilde(
    model: CoherentModel,
    z: complex,
    zp: complex,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> complex:
    """Continuous-state overlap nu(conj(z) z') / sqrt(nu(|z|^2) nu(|z'|^2)).

    The complex-argument nu is the nu integral at log zeta = Log(conj(z) z'),
    the principal branch, so zeta^E = exp(E Log zeta).
    """
    z = complex(z)
    zp = complex(zp)
    if z == 0 or zp == 0:
        raise ValidationError("overlap_tilde needs |z|, |z'| > 0")
    num, _ = _nu_integral(model, cmath.log(z.conjugate() * zp), cfg, scheme)
    den = math.sqrt(
        nu(model, abs(z) ** 2, cfg, scheme) * nu(model, abs(zp) ** 2, cfg, scheme)
    )
    return num / den


def state_density(
    model: CoherentModel,
    z: complex,
    E: float,
    cfg: QuadConfig = DEFAULT_QUAD,
) -> complex:
    """Continuous-state coefficient density z^E / sqrt(rho_tilde(E) nu(|z|^2))."""
    z = complex(z)
    if z == 0:
        raise ValidationError("state_density needs z != 0")
    if E < 0:
        raise ValidationError("E must be >= 0")
    log_z = cmath.log(z)
    log_nu = math.log(nu(model, abs(z) ** 2, cfg))
    return cmath.exp(E * log_z - 0.5 * log_rho_tilde(model, E) - 0.5 * log_nu)
