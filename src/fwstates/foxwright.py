"""Complex Fox-Wright series evaluation, convergence margin/radius, oracles.

The series is

    psi(z) = sum_k  prod_l Gamma(a_l + k A_l) / prod_r Gamma(b_r + k B_r)
             * z^k / k!

with weights A_l, B_r > 0.  The margin Delta = 1 + sum B - sum A decides
convergence: entire for Delta > 0, radius V = prod B^B * prod A^(-A) for
Delta = 0, divergent (except z = 0) for Delta < 0.

Terms are formed directly in the log domain, vectorized over blocks of
k, so neither the gamma products nor k! are ever exponentiated on their
own.  Lower-pair gamma poles at some k > 0 null that term (the analytic
1/Gamma convention); upper-pair poles raise.

Only k log z depends on z.  The other columns of log t_k are cached per
FWParams: k itself; log Gamma(k+1); one log Gamma(a_l + k A_l) per upper
pair, with the first k at which it meets a pole; one log Gamma(b_r +
k B_r) per lower pair, with its pole mask and first pole.  All of them
come from one log_gamma_vec call per growth step.  The cache is an LRU
of _COLUMN_CACHE_SIZE parameter sets, so equal parameters built
anywhere share one entry, and this one table serves both evaluate and
coherent.make_state (through log_gamma_rows), so a model's states reuse
the gamma values of its normalization.  An entry grows to the end of
the block a call asks for (evaluate never past its max_terms,
make_state to its K+1).  It grows into new read-only arrays published
by one assignment, so threads never see a half-grown entry.  Terms stay
bit-identical to forming every column afresh: log_gamma_vec is
elementwise, the block combines the same columns with the same
operations in the same order, and a zero's sign in a parameter (the one
thing FWParams equality ignores) is dropped by the addition a + k A.
The running sums are a sequential cumsum whose first term has the
carried total added, so they add in the order a per-term loop would.

The oracle_* functions are deliberately independent evaluation routes
(raw Pochhammer products, scipy gammas) used only for conformance
checking; they never call evaluate().  They import scipy.special when
first called, so importing this module does not load scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainViolation,
    MaxTermsExceeded,
    PoleError,
    ValidationError,
)
from .gammafn import is_gamma_pole, log_gamma, log_gamma_vec, pole_mask

# classification tolerance for margin == 0 and weight == 1 tests
CLASSIFY_TOL = 1e-12

DEFAULT_TOL = 1e-14
DEFAULT_MAX_TERMS = 10000

# parameter sets whose log-gamma columns stay cached
_COLUMN_CACHE_SIZE = 32


@dataclass(frozen=True)
class FWParams:
    """Parameter lists ((a_l, A_l)) upper and ((b_r, B_r)) lower."""

    upper: tuple[tuple[complex, float], ...]
    lower: tuple[tuple[complex, float], ...]

    def __init__(self, upper=(), lower=()):
        object.__setattr__(self, "upper", _normalize_pairs(upper, "upper"))
        object.__setattr__(self, "lower", _normalize_pairs(lower, "lower"))
        for a, _ in self.upper:
            if is_gamma_pole(a):
                raise ValidationError(f"upper parameter a={a} is a gamma pole at k=0")
        for b, _ in self.lower:
            if is_gamma_pole(b):
                raise ValidationError(f"lower parameter b={b} is a gamma pole at k=0")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    def to_json(self) -> dict:
        return {
            "upper": [[a.real, a.imag, A] for a, A in self.upper],
            "lower": [[b.real, b.imag, B] for b, B in self.lower],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FWParams":
        try:
            upper = [(complex(e[0], e[1]), e[2]) for e in obj["upper"]]
            lower = [(complex(e[0], e[1]), e[2]) for e in obj["lower"]]
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"bad FWParams encoding: {exc}") from exc
        return cls(upper, lower)


def _normalize_pairs(pairs, side: str) -> tuple[tuple[complex, float], ...]:
    out = []
    for entry in pairs:
        try:
            a, A = entry
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{side} entries must be (value, weight) pairs") from exc
        a = complex(a)
        A = float(A)
        if not (math.isfinite(a.real) and math.isfinite(a.imag) and math.isfinite(A)):
            raise ValidationError(f"non-finite {side} entry ({a}, {A})")
        if A <= 0:
            raise ValidationError(f"{side} weight must be > 0, got {A}")
        out.append((a, A))
    return tuple(out)


@dataclass(frozen=True)
class EvalResult:
    value: complex
    terms_used: int
    tail_bound: float


def margin(params: FWParams) -> float:
    """Delta = 1 + sum B_r - sum A_l."""
    return 1.0 + sum(B for _, B in params.lower) - sum(A for _, A in params.upper)


def margin_sign(params: FWParams) -> int:
    """1, 0 or -1 as Delta lies above, within or below +-CLASSIFY_TOL."""
    d = margin(params)
    return (d > CLASSIFY_TOL) - (d < -CLASSIFY_TOL)


def radius(params: FWParams) -> float:
    """Convergence radius: inf (Delta>0), prod B^B prod A^(-A) (Delta=0), 0."""
    return _radius_for_sign(params, margin_sign(params))


def _radius_for_sign(params: FWParams, sign: int) -> float:
    if sign:
        return math.inf if sign > 0 else 0.0
    log_v = sum(B * math.log(B) for _, B in params.lower) - sum(
        A * math.log(A) for _, A in params.upper
    )
    return math.exp(log_v)


def _circle_side(az: float, r: float) -> int:
    """1, 0 or -1 as a modulus az lies outside, on or inside radius r.

    "On" is within 1e-12 relative; a zero radius puts every az outside.
    """
    if r == 0.0 or az > r * (1.0 + 1e-12):
        return 1
    return 0 if az >= r * (1.0 - 1e-12) else -1


def boundary_exponent(params: FWParams) -> complex:
    """lambda = sum b_r - sum a_l - (q - p)/2; Re > 1/2 gives boundary convergence."""
    return (
        sum((b for b, _ in params.lower), 0j)
        - sum((a for a, _ in params.upper), 0j)
        - (params.q - params.p) / 2.0
    )


class _Columns(NamedTuple):
    """The z-independent parts of log t_k for k = 0 .. n-1 (read-only arrays)."""

    n: int
    k: np.ndarray  # k as floats
    log_fact: np.ndarray  # log Gamma(k + 1)
    upper: tuple[np.ndarray, ...]  # log Gamma(a_l + k A_l), one per upper pair
    upper_poles: tuple  # per upper pair: (first k, argument) at a gamma pole, or None
    lower: tuple[np.ndarray, ...]  # log Gamma(b_r + k B_r), one per lower pair
    lower_poles: tuple[np.ndarray, ...]  # per lower pair: b_r + k B_r is a gamma pole
    lower_first_pole: tuple  # per lower pair: the first k at a gamma pole, or None


def _append(col: np.ndarray, new: np.ndarray) -> np.ndarray:
    out = np.concatenate((col, new)) if col.size else new
    out.flags.writeable = False
    return out


class _ColumnCache:
    """Columns of one FWParams, grown on demand to the block end asked for."""

    __slots__ = ("params", "cols", "_off", "_wt")

    def __init__(self, params: FWParams):
        empty = np.empty(0, dtype=complex)
        self.params = params
        self.cols = _Columns(
            0,
            np.empty(0),
            empty,
            (empty,) * params.p,
            (None,) * params.p,
            (empty,) * params.q,
            (np.empty(0, dtype=bool),) * params.q,
            (None,) * params.q,
        )
        # offsets and weights of the gamma arguments k+1, a_l + k A_l, b_r + k B_r
        pairs = ((1.0, 1.0),) + params.upper + params.lower
        self._off = np.array([v for v, _ in pairs], dtype=complex)[:, None]
        self._wt = np.array([w for _, w in pairs])[:, None]

    def upto(self, end: int) -> _Columns:
        cols = self.cols
        if cols.n < end:
            cols = self._grow(cols, end)
            # one assignment publishes the grown columns, so a concurrent
            # caller sees either the old or the new record, never a mix
            self.cols = cols
        return cols

    def _grow(self, cols: _Columns, end: int) -> _Columns:
        """cols extended to k < end, as new arrays (cols itself is not touched).

        Every column's gamma arguments form one block, so one
        log_gamma_vec call and one pole test serve a whole growth step.
        """
        p = self.params.p
        kf = np.arange(cols.n, end, dtype=float)
        args = self._off + self._wt * kf
        lg = log_gamma_vec(args)
        poles = pole_mask(args[1:])
        upper_poles = []
        for j, pole in enumerate(cols.upper_poles):
            if pole is None:
                bad = np.flatnonzero(poles[j])
                if bad.size:
                    pole = (cols.n + int(bad[0]), args[1 + j, bad[0]])
            upper_poles.append(pole)
        lower_first = []
        for r, first in enumerate(cols.lower_first_pole):
            if first is None:
                bad = np.flatnonzero(poles[p + r])
                if bad.size:
                    first = cols.n + int(bad[0])
            lower_first.append(first)
        return _Columns(
            end,
            _append(cols.k, kf),
            _append(cols.log_fact, lg[0]),
            tuple(_append(col, row) for col, row in zip(cols.upper, lg[1 : 1 + p])),
            tuple(upper_poles),
            tuple(_append(col, row) for col, row in zip(cols.lower, lg[1 + p :])),
            tuple(_append(m, row) for m, row in zip(cols.lower_poles, poles[p:])),
            tuple(lower_first),
        )


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _column_cache(params: FWParams) -> _ColumnCache:
    return _ColumnCache(params)


def log_gamma_rows(params: FWParams, n: int) -> tuple[np.ndarray, ...]:
    """log Gamma at k+1, then each a_l + k A_l, then each b_r + k B_r, for k < n.

    Read-only views of the cached columns, so a model's series and its
    coherent states share one table.  No pole screening, as in
    log_gamma_vec.
    """
    cols = _column_cache(params).upto(n)
    return tuple(col[:n] for col in (cols.log_fact, *cols.upper, *cols.lower))


def _abs(x: np.ndarray) -> np.ndarray:
    """|x| elementwise, bit for bit as scalar abs() (np.abs on complex is not)."""
    return np.hypot(x.real, x.imag)


def _streak_end(ok: np.ndarray, streak: int) -> tuple[int, int]:
    """First index where ok completes 3 consecutive trues, and the streak after.

    streak counts the trues carried in just before ok[0] (at most 2).
    With no such index the first value is -1 and the second is the run
    of trues at the end of ok, carried-in ones included.
    """
    # a bool array's bytes are 0 and 1, so a byte search finds the run
    run = b"\x01" * streak + ok.tobytes()
    end = run.find(b"\x01\x01\x01")
    if end >= 0:
        return end + 2 - streak, 3
    return -1, len(run) - 1 - run.rfind(b"\x00")


def _term_zero(params: FWParams) -> complex:
    s = 0j
    for a, _ in params.upper:
        s += log_gamma(a)
    for b, _ in params.lower:
        s -= log_gamma(b)
    return cmath.exp(s)


def evaluate(
    params: FWParams,
    z: complex,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    allow_boundary: bool = False,
) -> EvalResult:
    """Partial sum of the Fox-Wright series with a geometric tail bound.

    Stops once |t_k| <= tol*|S_k| holds for 3 consecutive k (the triple
    guard survives odd/even-zero term patterns).  Points on the Delta=0
    circle are refused unless allow_boundary is set and the boundary
    exponent satisfies Re(lambda) > 1/2; such sums are capped at
    max_terms and the tail comes from the k^-(lambda+1/2) majorant.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    z = complex(z)
    if z == 0:
        return EvalResult(_term_zero(params), 1, 0.0)

    r = radius(params)
    on_boundary = False
    if not math.isinf(r):
        az = abs(z)
        side = _circle_side(az, r)
        if side > 0:
            raise DomainViolation(
                f"|z|={az:.6g} outside convergence radius {r:.6g}"
            )
        if side == 0:
            lam = boundary_exponent(params)
            if not allow_boundary:
                raise DomainViolation(
                    f"|z|={az:.6g} lies on the convergence circle (radius {r:.6g}); "
                    "pass allow_boundary to evaluate under the Re(lambda) > 1/2 condition"
                )
            if lam.real <= 0.5:
                raise DomainViolation(
                    f"boundary evaluation needs Re(lambda) > 1/2, got {lam.real:.6g}"
                )
            on_boundary = True

    log_z = cmath.log(z)
    cache = _column_cache(params)
    total = 0j
    streak = 0
    terms_used = 0
    recent = np.empty(0, dtype=complex)  # the last (up to) three terms summed
    stopped = False
    k0 = 0
    block = 32
    with np.errstate(under="ignore", invalid="ignore"):
        while k0 < max_terms and not stopped:
            end = min(k0 + block, max_terms)
            cols = cache.upto(end)
            for pole in cols.upper_poles:
                if pole is not None and pole[0] < end:
                    raise PoleError(f"upper gamma pole at k={pole[0]} (argument {pole[1]})")
            logt = cols.k[k0:end] * log_z - cols.log_fact[k0:end]
            for col in cols.upper:
                logt = logt + col[k0:end]
            for col, poles, first in zip(cols.lower, cols.lower_poles, cols.lower_first_pole):
                logt = logt - col[k0:end]
                if first is not None and first < end:
                    logt[poles[k0:end]] = complex(-math.inf, 0.0)
            if (logt.real > 709.0).any():
                raise OverflowError(
                    "series term exceeds the floating-point range; value not representable"
                )
            terms = np.exp(logt)
            # cumsum adds in sequence from the carried total
            sums = terms.copy()
            sums[0] += total
            sums = sums.cumsum()
            ok = _abs(terms) <= tol * _abs(sums)
            stop, streak = _streak_end(ok, streak)
            stopped = stop >= 0
            used = stop + 1 if stopped else terms.size
            total = sums[used - 1]
            terms_used += used
            summed = terms[:used]
            recent = summed[-3:] if used >= 3 else np.concatenate((recent, summed))[-3:]
            k0 = end
            block = min(2 * block, 512)
    mag_hist = [0.0] * (3 - recent.size) + [abs(t) for t in recent]

    if not stopped and not on_boundary:
        raise MaxTermsExceeded(
            f"no convergence after {terms_used} terms (tol={tol:g}, |z|={abs(z):.6g})"
        )

    if on_boundary and not stopped:
        lam_re = boundary_exponent(params).real
        tail = abs(mag_hist[2]) * terms_used / (lam_re - 0.5)
    else:
        last = mag_hist[2]
        prev = mag_hist[1]
        ratio = last / prev if prev > 0 else 0.5
        ratio = min(max(ratio, 0.0), 0.9)
        tail = 4.0 * max(mag_hist) * ratio / (1.0 - ratio)
        tail = max(tail, max(mag_hist))
    return EvalResult(total, terms_used, tail)


def as_pfq(params: FWParams):
    """(prefactor, a-list, b-list) when all weights are 1, else None.

    In that case psi(z) = prefactor * pFq(a; b; z) with the prefactor
    prod Gamma(a) / prod Gamma(b).
    """
    for _, A in params.upper:
        if abs(A - 1.0) > CLASSIFY_TOL:
            return None
    for _, B in params.lower:
        if abs(B - 1.0) > CLASSIFY_TOL:
            return None
    return (
        _term_zero(params),
        [a for a, _ in params.upper],
        [b for b, _ in params.lower],
    )


# -- conformance oracles (independent routes, never call evaluate) -------


def oracle_pfq(upper, lower, z, tol: float = 1e-16, max_terms: int = 20000) -> complex:
    """Generalized hypergeometric series by running Pochhammer products."""
    z = complex(z)
    term = 1.0 + 0j
    total = term
    consec = 0
    for k in range(max_terms):
        num = 1.0 + 0j
        for a in upper:
            num *= a + k
        den = 1.0 + 0j
        for b in lower:
            den *= b + k
        if den == 0:
            raise PoleError(f"pFq lower parameter produces zero factor at k={k}")
        term = term * num / den * z / (k + 1)
        total += term
        consec = consec + 1 if abs(term) <= tol * abs(total) else 0
        if consec >= 3:
            return total
    raise MaxTermsExceeded("oracle_pfq did not converge")


def oracle_mittag_leffler(
    B1: float, b1: complex, z, tol: float = 1e-16, max_terms: int = 20000
) -> complex:
    """Two-parameter Mittag-Leffler E_{B1,b1}(z) = sum z^k / Gamma(b1 + k B1)."""
    if B1 <= 0:
        raise ValidationError("Mittag-Leffler weight must be positive")
    from scipy import special
    z = complex(z)
    zk = 1.0 + 0j
    total = 0j
    consec = 0
    for k in range(max_terms):
        term = zk * complex(special.rgamma(complex(b1) + k * B1))
        total += term
        consec = consec + 1 if abs(term) <= tol * abs(total) else 0
        if consec >= 3:
            return total
        zk *= z
    raise MaxTermsExceeded("oracle_mittag_leffler did not converge")


def oracle_bessel_j(v: float, y: float, tol: float = 1e-16, max_terms: int = 2000) -> float:
    """Bessel J_v(y) for v, y >= 0 by its power series."""
    if y < 0 or v < 0:
        raise ValidationError("oracle_bessel_j expects v, y >= 0")
    if y == 0.0:
        return 1.0 if v == 0 else 0.0
    from scipy import special
    half = 0.5 * y
    term = half**v / float(special.gamma(v + 1.0))
    total = term
    q = half * half
    consec = 0
    for k in range(max_terms):
        term *= -q / ((k + 1) * (v + k + 1))
        total += term
        consec = consec + 1 if abs(term) <= tol * abs(total) else 0
        if consec >= 3:
            return total
    raise MaxTermsExceeded("oracle_bessel_j did not converge")
