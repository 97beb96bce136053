"""Continuous-spectrum limit: the generalized nu-function and friends.

Sums over the Fock index k become integrals over E >= 0:

    rho_tilde(E)  continuous interpolation of rho(k),
    nu(zeta) = integral_0^inf  zeta^E / rho_tilde(E)  dE,

and the continuous states have density z^E / sqrt(rho_tilde(E) nu(|z|^2)).
Since margin > 0 the integrand decays superexponentially (the 1/Gamma(E+1)
factor wins), so the infinite range truncates at the point where the
log-integrand has dropped E_MAX_DROP below its peak.

Two independent quadrature schemes are provided on purpose: "gk"
(adaptive Gauss-Kronrod: QUADPACK's QAGS, ported in `quadpack`) and "ts"
(a tanh-sinh rule).  Their agreement is the correctness check for every
nu value.  Both run in the package, on array integrands: tanh-sinh on a
level's nodes, Gauss-Kronrod on a subinterval's 21 nodes, with the bits
scipy.integrate.quad gives on the same point values.  QuadConfig sets
their two tolerances; the Gauss-Kronrod subinterval limit
MAX_SUBDIVISIONS and the tanh-sinh level cap are fixed.  `_integrate` is
the package's one quadrature driver: nu, overlap_tilde (the nu integral
at the complex log zeta = Log(conj(z) z')) and hfunction.moment_check
all run through it.  Gauss-Kronrod takes a complex integrand as two real
passes; a QUADPACK failure (ier > 0) in any pass raises
QuadratureFailure with scipy's text, and a non-finite integral raises
OverflowError.  `quadpack` is imported on the first "gk" integral.
A nu integral within 2^64 of DBL_MAX may overflow inside either scheme
although it fits in float64; where it fails, it runs once more on the
integrand times 2^-64 (`_nu_integral`), so both schemes return every nu
that fits in float64 and refuse the rest as the range search does.

rho_tilde and log_rho_tilde are `coherent.rho` and `coherent.log_rho`,
which take any real argument >= 0; the integrands use the array form
`coherent._log_rho_vec`.  nu_bicomplex runs nu per idempotent component
through `bicomplex.componentwise`.

Nothing a nu quadrature needs but zeta^E depends on zeta, and the ranges
[0, hi] recur from call to call, because hi comes from the fixed ladder
8 * 1.5^j.  So what does not depend on zeta is kept in node sets (K does
not enter rho): _e_max's 257-point grid and log rho on it per (params,
hi), one tanh-sinh level's weights, nodes and log rho on them per
(params, hi, level), and one Gauss-Kronrod subinterval's 21 nodes and
log rho on them per (params, a, b).  A nu call then forms only
exp(E log zeta - log rho).  Each set is built on first use, made
read-only and sized once, when it is stored in the one LRU
(`_node_sets`), which is bounded by the sets' retained bytes, not by
their count, since the last tanh-sinh level alone holds 16,384 nodes.
A hit returns the stored float64 values, and each entry of the array
form has the bits of the form on [E] alone, so every output keeps its
bits.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bicomplex import (Hyperbolic, _check_finite_complex, _check_finite_real, _check_real,
                        _log_squared_modulus, _squared_modulus, componentwise)
from .coherent import _LOG_FLOAT_MAX, BCCoherentModel, CoherentModel, _log_rho_vec, log_rho, rho
from .errors import QuadratureFailure, ValidationError
from .foxwright import FWParams


# Gauss-Kronrod's subinterval limit, the drop (in nats) of the log-integrand
# below its peak where the infinite range is cut, and tanh-sinh's last level
MAX_SUBDIVISIONS = 200
E_MAX_DROP = 40.0
_TS_MAX_LEVEL = 12
# the exact scale of a nu integral retried near DBL_MAX (_nu_integral)
_SCALE_BITS = 64

# the node sets' retained bytes: at most _TABLE_BYTES, counting each set as
# its arrays' data plus _SET_BYTES for the rest it holds (the array headers,
# the key and value tuples, the key's floats and the LRU's slot take up to
# about 800 bytes)
_TABLE_BYTES = 1 << 22
_SET_BYTES = 832


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        tols = (_check_real(self.rel_tol, "rel_tol"), _check_real(self.abs_tol, "abs_tol"))
        if not all(t > 0 for t in tols):  # NaN fails this test too
            raise ValidationError("quadrature tolerances must be > 0")


DEFAULT_QUAD = QuadConfig()

SCHEMES = ("gk", "ts")


# the continuous interpolation of rho is rho itself at real argument
log_rho_tilde = log_rho
rho_tilde = rho


def _past_range(peak: float) -> OverflowError:
    """The refusal of a nu past the float range, with the range's log-integrand peak."""
    return OverflowError(f"nu(zeta) is past the float range (log-integrand peak {peak:.6g})")


def _e_max(model: CoherentModel, log_zeta: float) -> float:
    """Upper truncation: log-integrand fallen E_MAX_DROP below its peak."""
    hi = 8.0
    for _ in range(80):
        grid, log_rho_grid = _node_sets(_rho_grid, model.params, hi)
        logf = grid * log_zeta - log_rho_grid
        peak = logf.max()
        if peak > _LOG_FLOAT_MAX:  # then so is nu: refused before a longer range is built
            raise _past_range(peak)
        if logf[-1] <= peak - E_MAX_DROP:
            return hi
        hi *= 1.5
    raise QuadratureFailure("could not locate a decaying tail for the nu integrand")


def _rho_grid(params: FWParams, hi: float):
    """_e_max's 257-point grid on [0, hi] and log rho on it."""
    grid = np.linspace(0.0, hi, 257)
    return grid, _log_rho_vec(params, grid)  # a fresh array, not a view of the gamma block


def _ts_level(params: FWParams, hi: float, level: int):
    """The tanh-sinh level _ts_nodes(0, hi, level): its weights, nodes and log rho on them."""
    w, xs = _ts_nodes(0.0, hi, level)
    return w, xs, _log_rho_vec(params, xs)


def _gk_subinterval(params: FWParams, a: float, b: float):
    """The Gauss-Kronrod subinterval [a, b]'s nodes and log rho on them."""
    from .quadpack import nodes

    xs = nodes(a, b)
    return xs, _log_rho_vec(params, xs)


class _NodeSets:
    """Finished node sets keyed on (builder, args), least recently used
    first out once their retained bytes pass max_bytes.

    Calling it with (builder, *args) returns the tuple builder(*args),
    built on first use and stored with its arrays read-only and its size,
    which never changes; its __wrapped__ builds afresh each call, which is
    the route with no memo.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._sets: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def __wrapped__(builder, *args):
        return builder(*args)

    def __call__(self, builder, *args):
        key = builder, args
        with self._lock:
            if key in self._sets:
                self._sets.move_to_end(key)
                return self._sets[key][0]
        value = builder(*args)
        arrays = [a for a in value if isinstance(a, np.ndarray)]  # a level -1 weight is a float
        for a in arrays:
            a.flags.writeable = False
        size = _SET_BYTES + sum(a.nbytes for a in arrays)
        with self._lock:
            if key in self._sets:  # another thread built it meanwhile
                self._sets.move_to_end(key)
                return self._sets[key][0]
            self._sets[key] = value, size
            self.nbytes += size
            while self.nbytes > self.max_bytes:
                self.nbytes -= self._sets.popitem(last=False)[1][1]
        return value

    def cache_clear(self) -> None:
        with self._lock:
            self._sets.clear()
            self.nbytes = 0


_node_sets = _NodeSets(_TABLE_BYTES)


def _integrands(params: FWParams, log_zeta):
    """zeta^E / rho(E) on what a tanh-sinh level gives, and on a
    Gauss-Kronrod subinterval (a, b), whose node set it reads from
    _node_sets.  An overflow is left to the caller's finite check.
    """

    def on_nodes(xs, log_rho):
        return np.exp(xs * log_zeta - log_rho)

    return on_nodes, lambda a, b: on_nodes(*_node_sets(_gk_subinterval, params, a, b))


def _ts_nodes(a: float, b: float, level: int):
    """Tanh-sinh weights and nodes on [a, b]: at level -1 the midpoint's
    weight and the midpoint; at level l >= 0 the weights of the level's new
    nodes, and those nodes right of the midpoint and then left of it.

    The double-exponential substitution x = mid + half*tanh((pi/2) sinh t)
    concentrates nodes at both ends.  Level l has the step h = 2^-l in t;
    past level 0 only its odd multiples of h are new.  The weights leave
    out the step h.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    if level < 0:
        return half * 0.5 * math.pi, np.array([mid])
    t_cap = 4.0
    h = 0.5**level
    j = np.arange(1, int(t_cap / h) + 1)
    if level > 0:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * math.pi * np.sinh(t)
    x_off = half * np.tanh(u)
    w = half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return w, np.concatenate((mid + x_off, mid - x_off))


def _tanh_sinh(f, nodes, rel_tol: float, abs_tol: float):
    """Tanh-sinh rule: nodes(level) gives the weights and then the
    arguments f takes, as _ts_nodes does; f must return numpy arrays.

    Returns (value, error_estimate).  Halving the step h keeps the running
    sum, so each level adds only its new (odd) nodes, and it converges
    roughly quadratically in digits, so a handful of levels suffices for
    smooth integrands.  f is called once on the midpoint and then once per
    level, on the level's nodes right and left of the midpoint together;
    f must act entry by entry, so that each value is the one a separate
    call would give.
    """
    w0, *x = nodes(-1)
    total = w0 * f(*x)[0]
    h = 2.0
    value, err = None, math.inf
    for level in range(_TS_MAX_LEVEL + 1):
        h *= 0.5
        w, *x = nodes(level)
        # total excludes the step h, so the halved h rescales old nodes for us
        fx = f(*x)
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


def _integrate(f, f_sub, a, b, cfg: QuadConfig, scheme: str, complex_func: bool = False,
               nodes=None):
    """Integral over [a, b] and its error estimate: for "ts", f on what
    nodes(level) gives (see _tanh_sinh); for "gk", f_sub on a subinterval
    (lo, hi), giving its values on quadpack.nodes(lo, hi).  The caller
    has checked that scheme is one of SCHEMES.

    Gauss-Kronrod takes a complex f_sub (complex_func) as two real passes,
    real part then imaginary part, as scipy's complex_func does, and a
    QUADPACK failure in either pass raises QuadratureFailure.
    """
    if scheme == "gk":
        from . import quadpack
        parts = (f_sub,)
        if complex_func:
            parts = (lambda lo, hi: f_sub(lo, hi).real, lambda lo, hi: f_sub(lo, hi).imag)
        outs = [
            quadpack.qags(part, a, b, cfg.abs_tol, cfg.rel_tol, MAX_SUBDIVISIONS) for part in parts
        ]
        # (value, err), or the real pass's plus 1j times the imaginary pass's
        out = outs[0] if len(outs) == 1 else [re + 1j * im for re, im in zip(*outs)]
    else:
        out = _tanh_sinh(f, nodes, cfg.rel_tol, cfg.abs_tol)
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

    An integral near DBL_MAX can overflow inside a scheme although it
    fits in float64: tanh-sinh's running sum leaves out its step, and
    QUADPACK's error terms pass the float range first.  So where the
    first run fails and the range's peak times its length lies within
    2^_SCALE_BITS of DBL_MAX, the integral runs once more on the
    integrand times 2^-_SCALE_BITS, an exact scale, and is scaled back;
    what is then past the float range is refused by _past_range.  Every
    integral the first run settles keeps its bits.  The callers have
    refused an unknown scheme (_check_scheme), before any node set is built.
    """
    params = model.params
    hi = _e_max(model, log_zeta.real)
    on_nodes, on_sub = _integrands(params, log_zeta)

    def run(on_nodes, on_sub):
        # an overflow (inf, or inf+nanj from the complex exp) surfaces as a
        # non-finite integral, which _integrate rejects
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            return _integrate(
                on_nodes, on_sub, 0.0, hi, cfg, scheme, isinstance(log_zeta, complex),
                partial(_node_sets, _ts_level, params, hi),
            )

    try:
        return run(on_nodes, on_sub)
    except (OverflowError, QuadratureFailure):
        grid, log_rho_grid = _node_sets(_rho_grid, params, hi)
        peak = float((grid * log_zeta.real - log_rho_grid).max())
        if peak + math.log(hi) <= _LOG_FLOAT_MAX - _SCALE_BITS * math.log(2.0):
            raise
    down, up = 2.0**-_SCALE_BITS, 2.0**_SCALE_BITS
    try:
        value, err = run(lambda *nodes: on_nodes(*nodes) * down, lambda a, b: on_sub(a, b) * down)
    except OverflowError:
        raise _past_range(peak) from None
    with np.errstate(over="ignore"):  # tanh-sinh's value is a numpy scalar
        value, err = value * up, err * up
    if not (cmath.isfinite(value) and cmath.isfinite(err)):
        raise _past_range(peak)
    return value, err


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown quadrature scheme {scheme!r}; use one of {SCHEMES}")


def nu_with_error(
    model: CoherentModel,
    zeta: float,
    cfg: QuadConfig = DEFAULT_QUAD,
    scheme: str = "gk",
) -> tuple[float, float]:
    """nu value together with the scheme's error estimate."""
    zeta = _check_finite_real(zeta, "zeta")
    if zeta < 0:
        raise ValidationError("zeta must be >= 0")
    _check_scheme(scheme)
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
    the principal branch, so zeta^E = exp(E Log zeta).  z, z' and
    conj(z) z' must be finite.  Where conj(z) z' or a |z|^2 is subnormal or
    0, its log is formed from log|z|, log|z'| and the phases.
    """
    z = _check_finite_complex(z, "z")
    zp = _check_finite_complex(zp, "zp")
    if z == 0 or zp == 0:
        raise ValidationError("overlap_tilde needs |z|, |z'| > 0")
    zeta = _check_finite_complex(z.conjugate() * zp, "conj(z) zp")
    n1, n2 = _squared_modulus(z, "z"), _squared_modulus(zp, "zp")
    _check_scheme(scheme)
    # a subnormal or zero conj(z) z' takes the phase of conj(z) z' on unit moduli
    log_zeta = cmath.log(zeta) if abs(zeta) >= sys.float_info.min else complex(
        math.log(abs(z)) + math.log(abs(zp)), cmath.phase((z / abs(z)).conjugate() * (zp / abs(zp))))
    num, _ = _nu_integral(model, log_zeta, cfg, scheme)
    nu1, nu2 = (_nu_integral(model, _log_squared_modulus(w, n), cfg, scheme)[0]
                for w, n in ((z, n1), (zp, n2)))
    return num / math.sqrt(nu1 * nu2)


def state_density(
    model: CoherentModel,
    z: complex,
    E: float,
    cfg: QuadConfig = DEFAULT_QUAD,
) -> complex:
    """Continuous-state coefficient density z^E / sqrt(rho_tilde(E) nu(|z|^2))."""
    z = _check_finite_complex(z, "z")
    if z == 0:
        raise ValidationError("state_density needs z != 0")
    E = _check_finite_real(E, "E")
    if E < 0:
        raise ValidationError("E must be >= 0")
    log_z = cmath.log(z)
    log_zeta = _log_squared_modulus(z, _squared_modulus(z, "z"))
    log_nu = math.log(_nu_integral(model, log_zeta, cfg, "gk")[0])
    return cmath.exp(E * log_z - 0.5 * log_rho_tilde(model, E) - 0.5 * log_nu)
