"""Independent reference values for the output checks.

Nothing here calls fwstates' own gamma or series code:

- SeriesRef: Fox-Wright coefficients from mpmath gammas at 50 digits,
  summed by Horner's rule in mpmath.  Used for every series value.
- gauss_boundary: psi on the unit circle for unit-weight models with
  vanishing margin, through mpmath's 2F1.
- contour_condition: how much the Mellin-Barnes integral for H(x)
  cancels on the line the library's contour rule picks, from scipy
  loggamma; it marks the H-kernel calls a float64 contour cannot hold
  to a tolerance.
- log_inv_rho / series_fsum: float64 sums of scipy.special.gammaln terms
  with math.fsum, for the coherent-state and measure checks, whose
  tolerances (1e-10 and looser) leave ample room for float64 references.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, loggamma

MP_DPS = 50
SADDLE_STEP = 4.0  # the library's quantization of its saddle-following abscissa


class SeriesRef:
    """psi(z) = sum_k c_k z^k for one parameter set, c_k grown on demand."""

    def __init__(self, upper, lower):
        import mpmath

        mpmath.mp.dps = MP_DPS
        self._mp = mpmath
        self._upper = [(mpmath.mpc(complex(a)), mpmath.mpf(float(A))) for a, A in upper]
        self._lower = [(mpmath.mpc(complex(b)), mpmath.mpf(float(B))) for b, B in lower]
        self._coeffs: list = []
        self._log_abs: list[float] = []

    def _extend(self, n: int) -> None:
        mp = self._mp
        for k in range(len(self._coeffs), n):
            c = mp.rgamma(k + 1)
            for a, A in self._upper:
                c *= mp.gamma(a + k * A)
            for b, B in self._lower:
                c *= mp.rgamma(b + k * B)
            self._coeffs.append(c)
            self._log_abs.append(float(mp.log(abs(c))) if c != 0 else -math.inf)

    def value(self, z: complex) -> complex:
        """psi(z), accurate far beyond float64 even under cancellation.

        Terms are kept until they fall `drop` nats below the largest one,
        starting from 2|z| + 92 (the e^{-2|z|} cancellation of an
        exp-type sum on the negative axis, with 40 digits to spare); if
        the last kept term is not below 1e-30 of the sum, the cut moves
        out and the sum is redone.
        """
        mp = self._mp
        z = complex(z)
        if z == 0:
            self._extend(1)
            return complex(self._coeffs[0])
        log_z = math.log(abs(z))
        zm = mp.mpc(z)
        drop = 2.0 * abs(z) + 92.0
        while True:
            k = self._cut(log_z, drop)
            s = mp.mpc(0)
            for c in reversed(self._coeffs[: k + 1]):
                s = s * zm + c
            if s == 0:
                raise RuntimeError(f"reference series vanishes at z={z}")
            deficit = self._log_abs[k] + k * log_z - (float(mp.log(abs(s))) - 69.0)
            if deficit <= 0:
                return complex(s)
            drop += deficit + 23.0

    def _cut(self, log_z: float, drop: float) -> int:
        """First k past the largest term with log t_k below peak - drop."""
        k, peak, peak_k = 0, -math.inf, 0
        while True:
            if k >= len(self._coeffs):
                if k >= 4000:
                    raise RuntimeError("reference series needs over 4000 terms")
                self._extend(k + 64)
            log_t = self._log_abs[k] + k * log_z
            if log_t > peak:
                peak, peak_k = log_t, k
            elif k > peak_k + 2 and log_t < peak - drop:
                return k
            k += 1

    def coefficient_logs(self, n: int) -> list[float]:
        self._extend(n)
        return self._log_abs[:n]


def gauss_boundary(upper, lower, z: complex) -> complex:
    """Gamma(a1)Gamma(a2)/Gamma(b) 2F1(a1, a2; b; z), for |z| = 1."""
    import mpmath

    (a1, _), (a2, _) = upper
    ((b, _),) = lower
    with mpmath.workdps(30):
        pref = mpmath.gamma(a1) * mpmath.gamma(a2) * mpmath.rgamma(b)
        return complex(pref * mpmath.hyp2f1(a1, a2, b, mpmath.mpc(complex(z))))


def contour_line(upper, lower, c_offset: float, x: float) -> float:
    """Abscissa of the line eval_h uses for H(x), by its documented rule.

    The base line sits c_offset right of the rightmost numerator pole;
    for large x it moves toward the saddle sigma of M(s) x^{-s}, with
    mu log(sigma) + log(kappa) = log(x), in steps of SADDLE_STEP.
    """
    mu = sum(B for _, B in lower) - sum(A for _, A in upper)
    log_kappa = sum(B * math.log(B) for _, B in lower) - sum(A * math.log(A) for _, A in upper)
    sigma = math.exp((math.log(x) - log_kappa) / mu)
    base = max(0.0, max(-beta / B for beta, B in lower)) + c_offset
    if sigma <= base:
        return base
    return base + SADDLE_STEP * math.ceil((sigma - base) / SADDLE_STEP)


def contour_condition(upper, lower, c: float, x: float, value: float) -> float:
    """(1/pi) integral_0^inf |M(c+it) x^{-c-it}| dt / |H(x)| on the line Re s = c.

    M(s) = prod Gamma(beta + sB) / prod Gamma(alpha + sA) is the kernel's
    Mellin transform; a float64 sum over the line loses about
    log10(condition) digits.  The integrand is cut where it falls 45 nats
    below its value on the axis.
    """

    def log_abs_m(s):
        s = np.asarray(s, dtype=complex)
        out = np.zeros(s.shape)
        for beta, B in lower:
            out += loggamma(beta + s * B).real
        for alpha, A in upper:
            out -= loggamma(alpha + s * A).real
        return out

    log_m0 = float(log_abs_m(c))
    top = 8.0
    while float(log_abs_m(complex(c, top))) > log_m0 - 45.0:
        top *= 1.5
    t = np.linspace(0.0, top, 4001)
    l1 = float(np.trapezoid(np.exp(log_abs_m(c + 1j * t) - log_m0), t))
    return l1 * math.exp(log_m0 - c * math.log(x)) / (math.pi * abs(value))


def log_inv_rho(upper, lower, E) -> np.ndarray:
    """log(1/rho(E)) for real parameters, E scalar or array (scipy gammaln).

    1/rho(k) = [prod Gamma(b)/prod Gamma(a)] prod Gamma(a+kA) / prod Gamma(b+kB) / k!,
    the coefficient of zeta^k in the normalization N(zeta).
    """
    E = np.asarray(E, dtype=float)
    s = -gammaln(E + 1.0)
    for a, A in upper:
        s = s + gammaln(a + E * A) - gammaln(a)
    for b, B in lower:
        s = s - gammaln(b + E * B) + gammaln(b)
    return s


def log_series_coeffs(upper, lower, n: int) -> np.ndarray:
    """log c_k, k < n, of psi for real parameters (scipy gammaln)."""
    ks = np.arange(n, dtype=float)
    s = -gammaln(ks + 1.0)
    for a, A in upper:
        s = s + gammaln(a + ks * A)
    for b, B in lower:
        s = s - gammaln(b + ks * B)
    return s


def series_fsum(log_c: np.ndarray, zeta: complex) -> tuple[complex, float, float]:
    """sum_k exp(log_c[k]) zeta^k with math.fsum per component.

    Returns (sum, sum of |terms|, log of the largest |term|); the ratio of
    the first two tells how many digits the sum lost to cancellation.
    Terms 60 nats below the largest are dropped; log_c must run past them,
    which is verified here.
    """
    zeta = complex(zeta)
    if zeta == 0:
        return complex(math.exp(log_c[0])), math.exp(log_c[0]), float(log_c[0])
    log_t = log_c + np.arange(len(log_c)) * np.log(zeta)
    peak = float(log_t.real.max())
    last = int(np.nonzero(log_t.real > peak - 60.0)[0][-1])
    if last == len(log_c) - 1:
        raise RuntimeError("float reference series truncated too early")
    terms = np.exp(log_t[: last + 1])
    total = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return total, math.fsum(np.abs(terms)), peak


def real_pairs(params) -> tuple[list, list]:
    """((a, A)...), ((b, B)...) as floats from an FWParams with real values."""
    return (
        [(a.real, A) for a, A in params.upper],
        [(b.real, B) for b, B in params.lower],
    )


def rel_err(got: complex, ref: complex) -> float:
    got = complex(got)
    ref = complex(ref)
    if ref == 0:
        return abs(got)
    return abs(got - ref) / abs(ref)


def is_finite(value: complex) -> bool:
    value = complex(value)
    return math.isfinite(value.real) and math.isfinite(value.imag)
