"""Continuous-spectrum limit: the generalized nu-function and friends.

Sums over the Fock index k become integrals over E >= 0:

    rho_tilde(E)  continuous interpolation of rho(k),
    nu(zeta) = integral_0^inf  zeta^E / rho_tilde(E)  dE,

and the continuous states have density z^E / sqrt(rho_tilde(E) nu(|z|^2)).
Since margin > 0 the integrand decays superexponentially (the 1/Gamma(E+1)
factor wins), so the infinite range truncates at the point where the
log-integrand has dropped e_max_drop below its peak.

Two independent quadrature schemes are provided on purpose: "gk"
(adaptive Gauss-Kronrod via QUADPACK) and "ts" (an in-package tanh-sinh
rule).  Their agreement is the correctness check for every nu value.

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


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    e_max_drop: float = 40.0

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValidationError("quadrature tolerances must be > 0")


DEFAULT_QUAD = QuadConfig()

SCHEMES = ("gk", "ts")


# the continuous interpolation of rho is rho itself at real argument
log_rho_tilde = log_rho
rho_tilde = rho


def _e_max(model: CoherentModel, log_zeta: float, drop: float) -> float:
    """Upper truncation: log-integrand fallen `drop` below its peak."""
    hi = 8.0
    for _ in range(80):
        grid, log_rho_grid = _rho_grid(model.params, hi)
        logf = grid * log_zeta - log_rho_grid
        peak = logf.max()
        if logf[-1] <= peak - drop:
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


def _tanh_sinh(f, a: float, b: float, rel_tol: float, abs_tol: float, max_level: int = 12):
    """Tanh-sinh rule on [a, b]; f must accept numpy arrays.

    Returns (value, error_estimate).  The double-exponential substitution
    x = mid + half*tanh((pi/2) sinh t) concentrates nodes at both ends;
    halving the step h reuses nothing but converges roughly quadratically
    in digits, so a handful of levels suffices for smooth integrands.
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
    for level in range(max_level + 1):
        h *= 0.5
        x_off, w = level_nodes(h, only_odd=level > 0)
        # total excludes the step h, so the halved h rescales old nodes for us
        total = total + np.sum(w * (f(mid + x_off) + f(mid - x_off)))
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


def _integrate(f, f_node, a, b, cfg: QuadConfig, scheme: str):
    """f on node arrays for "ts", f_node at one node for "gk"."""
    if scheme == "gk":
        from scipy import integrate
        out = integrate.quad(
            f_node,
            a,
            b,
            epsabs=cfg.abs_tol,
            epsrel=cfg.rel_tol,
            limit=cfg.max_subdivisions,
            full_output=1,
        )
        if len(out) > 3:
            raise QuadratureFailure(f"Gauss-Kronrod failed: {out[3]}")
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
    log_zeta = math.log(zeta)
    e_hi = _e_max(model, log_zeta, cfg.e_max_drop)
    on_nodes, at_node = _integrands(model.params, log_zeta)
    # an overflow surfaces as an inf integral, which _integrate rejects
    with np.errstate(under="ignore", over="ignore"):
        return _integrate(on_nodes, at_node, 0.0, e_hi, cfg, scheme)


def nu(
    model: CoherentModel,
    zeta: float,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> float:
    """nu(zeta) = integral_0^inf zeta^E / rho_tilde(E) dE."""
    return nu_with_error(model, zeta, cfg, scheme)[0]


def nu_bicomplex(
    model: BCCoherentModel,
    W: Hyperbolic,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> Hyperbolic:
    """Componentwise nu on a hyperbolic argument in D+ (nu rejects zeta < 0)."""
    if not isinstance(W, Hyperbolic):
        W = Hyperbolic.from_scalar(W)
    return Hyperbolic(*componentwise(nu, model, W, cfg, scheme))


def overlap_tilde(
    model: CoherentModel,
    z: complex,
    zp: complex,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> complex:
    """Continuous-state overlap nu(conj(z) z') / sqrt(nu(|z|^2) nu(|z'|^2)).

    The complex-argument nu uses the principal branch zeta^E =
    exp(E Log zeta) in the integrand.
    """
    z = complex(z)
    zp = complex(zp)
    if z == 0 or zp == 0:
        raise ValidationError("overlap_tilde needs |z|, |z'| > 0")
    zeta_c = z.conjugate() * zp
    log_zeta = cmath.log(zeta_c)
    e_hi = _e_max(model, log_zeta.real, cfg.e_max_drop)
    on_nodes, at_node = _integrands(model.params, log_zeta)
    # an overflow (inf, or inf+nanj from the complex exp) surfaces as a
    # non-finite integral, which _finite rejects
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if scheme == "gk":
            from scipy import integrate
            out = integrate.quad(
                at_node,
                0.0,
                e_hi,
                epsabs=cfg.abs_tol,
                epsrel=cfg.rel_tol,
                limit=cfg.max_subdivisions,
                complex_func=True,
            )
        elif scheme == "ts":
            out = _tanh_sinh(on_nodes, 0.0, e_hi, cfg.rel_tol, cfg.abs_tol)
        else:
            raise ValidationError(f"unknown quadrature scheme {scheme!r}; use one of {SCHEMES}")
    num, _ = _finite(*out)

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
