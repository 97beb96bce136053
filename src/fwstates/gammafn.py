"""Complex log-gamma (Lanczos), bicomplex gamma, Pochhammer, gamma-ratio logs.

Everything downstream (series terms, contour integrands, parameter
functions) consumes gammas in log form; Gamma itself is a convenience
wrapper.  The Lanczos approximation with g = 7 and 9 coefficients covers
Re(w) >= 0.5; the reflection formula handles the left half plane, with
log(sin(pi w)) computed in a factored form that cannot overflow for
large |Im w|.

The Lanczos partial-fraction sum is one fused array operation: a single
division builds all eight tail terms for every point, and a cumsum along
the coefficient axis adds them left to right.  Each point's sum is
therefore bit-identical whether it is computed alone or in any array, so
scalar callers can be batched without moving a bit.  log_gamma_ratio
batches only that sum; the rest of its formula stays scalar in cmath and
math, because numpy's log and exp differ from them in the last bit
(vectorising it moved 7 of 32 ladder factors by 1 ulp).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bicomplex import Bicomplex, componentwise
from .errors import PoleError

# Godfrey's coefficient set for g = 7, 9 terms; relative error ~1e-15 on
# the real axis, comfortably below the 1e-13 target for Re(w) >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LANCZOS_TAIL = np.array(_LANCZOS_COEFFS[1:])
_LANCZOS_SHIFT = np.arange(len(_LANCZOS_TAIL))

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

POLE_TOL = 1e-12


def is_gamma_pole(w: complex, tol: float = POLE_TOL) -> bool:
    """True if w lies within tol of a nonpositive integer."""
    w = complex(w)
    if abs(w.imag) > tol:
        return False
    n = round(w.real)
    return n <= 0 and abs(w.real - n) <= tol


def pole_mask(w: np.ndarray, tol: float = POLE_TOL) -> np.ndarray:
    """is_gamma_pole over an array: True where w lies within tol of a nonpositive integer."""
    near_axis = np.abs(w.imag) <= tol
    rounded = np.round(w.real)
    return near_axis & (rounded <= 0) & (np.abs(w.real - rounded) <= tol)


def _lanczos_series(z):
    """Lanczos partial-fraction sum A(z) for Re(z) >= 0.5, over any array shape.

    c_0 + sum_k c_k / (z + k - 1), added left to right: the tail terms
    form one (8, *z.shape) block and a cumsum along its first axis adds
    them in that order, so every entry is bit-identical to the scalar loop
    and independent of the array's length.
    """
    z = np.asarray(z, dtype=complex)
    col = (-1,) + (1,) * z.ndim
    terms = _LANCZOS_TAIL.reshape(col) / (z + _LANCZOS_SHIFT.reshape(col))
    terms[0] += _LANCZOS_COEFFS[0]
    return terms.cumsum(axis=0)[-1]


def _lanczos_log(z):
    """log Gamma on Re(z) >= 0.5 (principal branch there)."""
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(_lanczos_series(z))


def _log_sin_pi(z):
    """A branch of log sin(pi z), overflow-free for large |Im z|.

    Factored so the exponential with the decaying modulus is the one
    inside the log1p-style term.  The branch is only guaranteed up to
    multiples of 2 pi i, which is harmless: callers feed the result into
    exp() differences.
    """
    z = np.asarray(z, dtype=complex)
    upper = z.imag >= 0
    out = np.empty_like(z)
    # log(0) = -inf at exact poles is the intended result, not an error
    with np.errstate(divide="ignore", invalid="ignore"):
        # Im z >= 0: sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2 i)
        zu = z[upper]
        out[upper] = (
            -1j * math.pi * zu
            + np.log(np.expm1(2j * math.pi * zu))
            - (math.log(2.0) + 0.5j * math.pi)
        )
        # Im z < 0: sin(pi z) = e^{i pi z} (1 - e^{-2 i pi z}) / (2 i)
        zl = z[~upper]
        out[~upper] = (
            1j * math.pi * zl
            + np.log(-np.expm1(-2j * math.pi * zl))
            - (math.log(2.0) + 0.5j * math.pi)
        )
    return out


def log_gamma_vec(z) -> np.ndarray:
    """Vectorized log Gamma over complex arrays.

    No pole screening: entries at or near poles come back huge or
    non-finite, which downstream log-domain sums turn into 0 or inf
    terms as appropriate.  Scalar callers wanting diagnostics should use
    log_gamma.  When every entry has Re >= 0.5 the Lanczos form runs on
    the whole array, skipping the masked gather and scatter.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    right = z.real >= 0.5
    if right.all():
        return _lanczos_log(z)
    out = np.empty_like(z)
    if right.any():
        out[right] = _lanczos_log(z[right])
    left = ~right
    zl = z[left]
    out[left] = _LOG_PI - _log_sin_pi(zl) - _lanczos_log(1.0 - zl)
    return out


def log_gamma(w: complex) -> complex:
    """Principal-branch log Gamma for Re(w) >= 0.5; exp-accurate elsewhere.

    exp(log_gamma(w)) matches Gamma(w) to relative error <= 1e-12 for
    |w| <= 170.  On the reflection side the imaginary part may differ
    from the principal branch by a multiple of 2 pi.
    """
    w = complex(w)
    if is_gamma_pole(w):
        raise PoleError(f"log_gamma pole at w={w}")
    return complex(log_gamma_vec(np.array([w]))[0])


def gamma(w: complex) -> complex:
    """Gamma(w) = exp(log_gamma(w))."""
    return cmath.exp(log_gamma(w))


def gamma_bicomplex(W: Bicomplex) -> Bicomplex:
    """Idempotent bicomplex gamma: Gamma(w1) e1 + Gamma(w2) e2."""
    return Bicomplex(*componentwise(gamma, W))


def pochhammer(a: complex, E: float) -> complex:
    """Continuous Pochhammer (a)_E = Gamma(a+E)/Gamma(a), via log differences."""
    a = complex(a)
    if is_gamma_pole(a):
        raise PoleError(f"pochhammer base at gamma pole, a={a}")
    if is_gamma_pole(a + E):
        raise PoleError(f"pochhammer shifted argument at gamma pole, a+E={a + E}")
    return cmath.exp(log_gamma(a + E) - log_gamma(a))


def _log1p_c(x: complex) -> complex:
    # forming 1+x first would round away |x| digits; below the cutoff a
    # quartic series (remainder < 1e-20), above it Kahan's rescaling
    # log(u)*x/(u-1), which cancels the rounding of u = 1+x
    if abs(x) < 1e-4:
        return x * (1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x)))
    u = 1.0 + x
    return cmath.log(u) * (x / (u - 1.0))


def log_gamma_ratio(a: complex, A: float, k: int | np.ndarray) -> complex | np.ndarray:
    """log[Gamma(a+(k+1)A) / Gamma(a+kA)], stable at large k.

    With w = a + kA and both w, w+A right of the reflection threshold the
    two Lanczos logs share their large leading terms analytically:

        (w - 1/2) log(1 + A/t) + A log(t + A) - A + log(S(w+A)/S(w)),

    t = w + g - 1/2, S the Lanczos partial-fraction sum.  No
    large-minus-large cancellation remains.  Left of the threshold the
    plain difference of log_gamma calls is used.

    k may be an array; the result is then a complex array of its shape,
    each entry bit-identical to the scalar call.  One array test screens
    every w and w + A for poles and one array call forms their Lanczos
    sums, while the reflection branch and the cmath remainder above run
    per entry.
    """
    ks = np.asarray(k)
    ws = [complex(a) + kk * A for kk in ks.ravel().tolist()]
    n = len(ws)
    args = np.array(ws + [w + A for w in ws], dtype=complex)
    # every pole lies at Re <= POLE_TOL, so most calls stop at this test
    if (args.real <= POLE_TOL).any():
        poles = pole_mask(args)
        bad = np.flatnonzero(poles[:n] | poles[n:])
        if bad.size:
            raise PoleError(f"log_gamma_ratio crosses a pole at w={ws[bad[0]]}, A={A}")
    sums = _lanczos_series(args).tolist()
    out = []
    for w, s_w, s_wA in zip(ws, sums[:n], sums[n:]):
        wA = w + A
        if w.real >= 0.5 and wA.real >= 0.5:
            t = w + (_LANCZOS_G - 0.5)
            out.append(
                (w - 0.5) * _log1p_c(A / t) + A * cmath.log(t + A) - A + cmath.log(s_wA / s_w)
            )
        else:
            out.append(log_gamma(wA) - log_gamma(w))
    return out[0] if ks.ndim == 0 else np.array(out, dtype=complex).reshape(ks.shape)
