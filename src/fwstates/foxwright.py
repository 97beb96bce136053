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
FWParams: k itself; log Gamma(k+1), one log Gamma(a_l + k A_l) per upper
pair and one log Gamma(b_r + k B_r) per lower pair, as the rows of one
(1 + p + q, n) array; the lower pairs' pole masks as the rows of one
(q, n) array; and the first k at which each pair meets a pole.  Each
chunk of at most _GROW_CHUNK columns comes from one log_gamma_vec call,
so a long growth step never builds a large Lanczos block.  A new entry
holds no record: its first growth publishes a lone chunk's arrays as
they are, and other growths join the chunks with one concatenate per
array.  Poles lie at Re <= POLE_TOL, so only a chunk with such an
argument gets the pole test.  The cache is an LRU of _COLUMN_CACHE_SIZE
parameter sets, so equal parameters built anywhere share one entry, and
this one table serves both evaluate and coherent.make_state (through
log_gamma_rows), so a model's states reuse the gamma values of its
normalization.  An entry grows to the end of the block a call asks for:
evaluate never past MAX_TERMS, make_state to the end of the series
block that holds its K+1 columns, where its normalization's next block
would grow it.  It grows into new read-only arrays published by one
assignment per call, so threads never see a half-grown entry.  Terms
stay bit-identical to forming every column afresh: log_gamma_vec and the
pole test are elementwise, so chunking moves no bit, the block combines
the same columns with the same operations in the same order, and a
zero's sign in a parameter (the one thing FWParams equality ignores) is
dropped by the addition a + k A.

_psi gives the values of coherent models' series (entire, real a_l,
b_r > 0, so no pole) at nonzero points, for their normalizations and
hfunction.weight.  A lone series is summed by _lone_sum (evaluate, and
so evaluate_bc, and _psi at one point), several in one (m, block) pass
(_block_sums: overlap's three N).  Both loops take _block_terms and
_streak_end, and their running sums are a cumsum from the carried total:
they add in the order a per-term loop would, and the stop streak does not
depend on where blocks start or end, so block length moves no bit of the
value, the terms used or the tail, and each row gets its own call's bits.

On the circle |z| = V with allow_boundary, evaluate first tries Levin
u transforms (_boundary_sum): two windows of 31 partial sums from the
same column table, each order's value with an error bound from the
spread of successive orders and the rounding the transform amplifies,
the two windows cross-checked; what they need beyond z is a plan that
the parameter set's column table entry holds with its radius, so the
three are dropped together (_boundary_plan).  The sum capped at
MAX_TERMS with its majorant tail still runs, bit for bit, where the
transforms cannot be trusted: phases 0 < |arg z| < _LEVIN_MIN_PHASE,
gamma poles, or a bound no better than the majorant's.

The oracle_* functions are deliberately independent evaluation routes
(raw Pochhammer products, and CPython's math.gamma rather than gammafn)
used only for conformance checking; they never call evaluate().
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bicomplex import _check_finite_complex, _check_real
from .errors import (
    DomainViolation,
    MaxTermsExceeded,
    PoleError,
    ValidationError,
)
from .gammafn import _UNIT_ROUNDOFF, POLE_TOL, is_gamma_pole, log_gamma, log_gamma_vec, pole_mask

# classification tolerance for margin == 0 and weight == 1 tests
CLASSIFY_TOL = 1e-12

DEFAULT_TOL = 1e-14
# the series length: a sum not stopped by then is refused, or capped on the circle
MAX_TERMS = 10000

# parameter sets whose log-gamma columns stay cached
_COLUMN_CACHE_SIZE = 32
# columns per log_gamma_vec call when a column table grows
_GROW_CHUNK = 512
# evaluate's blocks double from 32 terms up to _BLOCK_CAP
_BLOCK_CAP = 512

# the boundary route: Levin u transforms of orders up to _LEVIN_ORDER, a
# safety factor on the spread of successive orders, the phases
# 0 < |arg z| < _LEVIN_MIN_PHASE it leaves to the capped sum, and the
# largest share of |value| its bound may reach; all four were chosen
# from sweeps against mpmath (see _boundary_sum)
_LEVIN_ORDER = 30
_LEVIN_SAFETY = 4.0
_LEVIN_MIN_PHASE = 0.02
_LEVIN_MAX_SHARE = 0.01
# an entry's plan before its first boundary call (None means the route cannot run)
_UNBUILT = object()


@dataclass(frozen=True)
class FWParams:
    """Parameter lists ((a_l, A_l)) upper and ((b_r, B_r)) lower."""

    upper: tuple[tuple[complex, float], ...]
    lower: tuple[tuple[complex, float], ...]

    def __init__(self, upper=(), lower=()):
        object.__setattr__(self, "upper", _normalize_pairs(upper, "upper"))
        object.__setattr__(self, "lower", _normalize_pairs(lower, "lower"))
        for side, name, pairs in (("upper", "a", self.upper), ("lower", "b", self.lower)):
            for v, _ in pairs:
                if is_gamma_pole(v):
                    raise ValidationError(f"{side} parameter {name}={v} is a gamma pole at k=0")
        # the dataclass's field hash, formed once: every memo lookup hashes the
        # parameters; not a field, so equality and repr stay on upper and lower
        object.__setattr__(self, "_hash", hash((self.upper, self.lower)))

    def __hash__(self) -> int:
        return self._hash

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
        try:
            a = complex(a)
            A = float(A)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{side} entry {entry!r} is not a number pair") from exc
        if not (math.isfinite(a.real) and math.isfinite(a.imag) and math.isfinite(A)):
            raise ValidationError(f"non-finite {side} entry ({a}, {A})")
        if A <= 0:
            raise ValidationError(f"{side} weight must be > 0, got {A}")
        out.append((a, A))
    return tuple(out)


def _whole_number(value, what: str, least: int) -> int:
    """value as an int, refused unless a whole number >= least.

    Integral floats such as 1e4 are taken; NaN, inf, fractions and
    non-numbers are refused with ValidationError.
    """
    try:
        if not value >= least:  # NaN fails this test too
            raise ValidationError(f"{what} must be >= {least}")
        whole = value % 1 == 0  # inf % 1 is NaN, so inf fails this test too
    except TypeError as exc:
        raise ValidationError(f"{what} must be a whole number, got {value!r}") from exc
    if not whole:
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value)


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
    """Convergence radius: inf (Delta>0), prod B^B prod A^(-A) (Delta=0), 0.

    Held in its _column_cache entry, as every evaluate call asks for it.
    """
    return _column_cache(params).radius


def _radius_for_sign(params: FWParams, sign: int) -> float:
    if sign:
        return math.inf if sign > 0 else 0.0
    return math.exp(_log_radius(params.upper, params.lower))


def _log_radius(upper, lower) -> float:
    return sum(B * math.log(B) for _, B in lower) - sum(A * math.log(A) for _, A in upper)


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
    """The z-independent parts of log t_k for k = 0 .. n-1 (read-only arrays).

    The log-gamma columns are rows of one (1 + p + q, n) array, lg, and
    the lower pole masks rows of one (q, n) array, lower_mask.
    """

    n: int
    k: np.ndarray  # k as floats
    lg: np.ndarray  # log Gamma at k + 1, each a_l + k A_l, each b_r + k B_r
    lower_mask: np.ndarray  # per lower pair: b_r + k B_r is a gamma pole
    log_fact: np.ndarray  # log Gamma(k + 1)
    upper: tuple[np.ndarray, ...]  # log Gamma(a_l + k A_l), one per upper pair
    upper_poles: tuple  # per upper pair: (first k, argument) at a gamma pole, or None
    lower: tuple[np.ndarray, ...]  # log Gamma(b_r + k B_r), one per lower pair
    lower_poles: tuple[np.ndarray, ...]  # the rows of lower_mask
    lower_first_pole: tuple  # per lower pair: the first k at a gamma pole, or None


class _ColumnCache:
    """The record of one FWParams: its radius, its columns, grown on demand
    to the block end asked for, and its Levin plan (_boundary_plan)."""

    __slots__ = ("params", "radius", "cols", "plan", "off", "wt")

    def __init__(self, params: FWParams):
        self.params = params
        self.radius = _radius_for_sign(params, margin_sign(params))
        self.cols = None  # no record until the first growth
        self.plan = _UNBUILT
        # offsets and weights of the gamma arguments k+1, a_l + k A_l, b_r + k B_r;
        # coherent._log_rho_vec reads them too
        pairs = ((1.0, 1.0),) + params.upper + params.lower
        self.off = np.array([v for v, _ in pairs], dtype=complex)[:, None]
        self.wt = np.array([w for _, w in pairs])[:, None]

    def upto(self, end: int) -> _Columns:
        cols = self.cols
        if cols is None or cols.n < end:
            cols = self._grow(cols, end)
            # one assignment publishes the grown columns, so a concurrent
            # caller sees either the old or the new record, never a mix
            self.cols = cols
        return cols

    def _grow(self, cols: _Columns | None, end: int) -> _Columns:
        """cols (None before the first growth) extended to k < end, as new arrays.

        Every column's gamma arguments form one block per chunk of at
        most _GROW_CHUNK columns, so one log_gamma_vec call serves a
        whole chunk.  A pole lies at Re <= POLE_TOL, so the pole test
        runs only on a chunk with such an argument; elsewhere the
        chunk's lower masks are all False.
        """
        p, q = self.params.p, self.params.q
        if cols is None:
            start, upper_poles, lower_first, lgs, masks = 0, [None] * p, [None] * q, [], []
        else:
            start, lgs, masks = cols.n, [cols.lg], [cols.lower_mask]
            upper_poles, lower_first = list(cols.upper_poles), list(cols.lower_first_pole)
        for lo in range(start, end, _GROW_CHUNK):
            kf = np.arange(lo, min(lo + _GROW_CHUNK, end), dtype=float)
            args = self.off + self.wt * kf
            lgs.append(log_gamma_vec(args))
            if not (args.real[1:] <= POLE_TOL).any():
                masks.append(np.zeros((q, kf.size), dtype=bool))
                continue
            poles = pole_mask(args[1:])
            for j, pole in enumerate(upper_poles):
                if pole is None:
                    bad = np.flatnonzero(poles[j])
                    if bad.size:
                        upper_poles[j] = (lo + int(bad[0]), args[1 + j, bad[0]])
            for r, first in enumerate(lower_first):
                if first is None:
                    bad = np.flatnonzero(poles[p + r])
                    if bad.size:
                        lower_first[r] = lo + int(bad[0])
            masks.append(poles[p:].copy())  # owned, so a one-chunk table keeps no upper rows
        lg, lower_mask = lgs[0], masks[0]
        if len(lgs) > 1:
            lg, lower_mask = np.concatenate(lgs, axis=1), np.concatenate(masks, axis=1)
        k = np.arange(end, dtype=float)
        for arr in (k, lg, lower_mask):
            arr.flags.writeable = False
        # every column array is a view of lg or lower_mask
        return _Columns(
            end, k, lg, lower_mask, lg[0], tuple(lg[1 : 1 + p]), tuple(upper_poles),
            tuple(lg[1 + p :]), tuple(lower_mask), tuple(lower_first),
        )


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _column_cache(params: FWParams) -> _ColumnCache:
    return _ColumnCache(params)


def _block_end(n: int) -> int:
    """The end of the series block that holds column n - 1 (blocks of 32,
    64, ... up to _BLOCK_CAP terms, as _block_sums takes them)."""
    end, block = 0, 32
    while end < n:
        end += block
        block = min(2 * block, _BLOCK_CAP)
    return end


def log_gamma_rows(params: FWParams, n: int) -> np.ndarray:
    """log Gamma at k+1, then each a_l + k A_l, then each b_r + k B_r, for k < n.

    The rows of a read-only (1 + p + q, n) view of the cached table, so a
    model's series and its coherent states share one table.  The table
    grows to the end of the series block that holds k = n - 1, where a
    later sum would take it.  No pole screening, as in log_gamma_vec.
    """
    return _column_cache(params).upto(_block_end(n)).lg[:, :n]


_cumsum = np.add.accumulate  # ndarray.cumsum's sum, without its method overhead


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


def _block_terms(cols: _Columns, log_z, k0: int, end: int) -> np.ndarray:
    """log t_k for k0 <= k < end: 1-d at one log z, one row each at an (m, 1) array.

    Raises at an upper pole, which every row meets at the same k.
    """
    for pole in cols.upper_poles:
        if pole is not None and pole[0] < end:
            raise PoleError(f"upper gamma pole at k={pole[0]} (argument {pole[1]})")
    logt = cols.k[k0:end] * log_z - cols.log_fact[k0:end]
    for col in cols.upper:
        logt = logt + col[k0:end]
    for col, poles, first in zip(cols.lower, cols.lower_poles, cols.lower_first_pole):
        logt = logt - col[k0:end]
        if first is not None and first < end:
            logt[..., poles[k0:end]] = complex(-math.inf, 0.0)
    return logt


_TOO_LARGE = "series term exceeds the floating-point range; value not representable"


class _Sum(NamedTuple):
    """A finished sum: value, terms used, its last (up to) three, Re(lambda) if capped."""

    value: complex
    used: int
    recent: np.ndarray
    lam_re: float | None

    def result(self) -> EvalResult:
        """The EvalResult, with the majorant tail if capped, else the geometric estimate."""
        mag_hist = [0.0] * (3 - self.recent.size) + [abs(t) for t in self.recent.tolist()]
        _, prev, last = mag_hist
        if self.lam_re is not None:
            tail = last * self.used / (self.lam_re - 0.5)
        else:
            ratio = min(max(last / prev if prev > 0 else 0.5, 0.0), 0.9)
            tail = max(4.0 * max(mag_hist) * ratio / (1.0 - ratio), max(mag_hist))
        # Python floats and complex abs() give numpy scalars' bits; the record keeps np.float64
        return EvalResult(self.value, self.used, np.float64(tail))


def _check_sum(value, used: int, stopped: bool, z: complex, tol: float, lam_re) -> None:
    """Raise what evaluate raises for a sum that met no error in its blocks;
    lam_re is Re(lambda) on the circle, where MAX_TERMS caps a sum, not refuses it."""
    if not cmath.isfinite(value):
        raise OverflowError(_TOO_LARGE)
    if not stopped and lam_re is None:
        raise MaxTermsExceeded(f"no convergence after {used} terms (tol={tol:g}, |z|={abs(z):.6g})")


def _lone_sum(cache: _ColumnCache, z: complex, log_z: complex, lam_re: float | None, tol: float) -> _Sum:
    """The series at one z, or raise its error: _block_sums's loop for one
    row, its state in locals, with the same blocks, terms, carried sums, stop
    test and checks in the same order, so it gets the bits a row gets there."""
    carry, terms, streak, k0, block = 0j, None, 0, 0, 32
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while k0 < MAX_TERMS:
            end = min(k0 + block, MAX_TERMS)
            logt = _block_terms(cache.upto(end), log_z, k0, end)
            # ndarray.max without its Python wrapper; no NaN reaches logt
            if np.maximum.reduce(logt.real) > 709.0:
                raise OverflowError(_TOO_LARGE)
            prev, terms = terms, np.exp(logt)
            sums = terms.copy()
            sums[0] += carry
            sums = _cumsum(sums)
            stop, streak = _streak_end(_abs(terms) <= tol * _abs(sums), streak)
            if stop >= 0:
                recent = terms[stop - 2 : stop + 1]
                if stop < 2:  # the first recent terms are the last block's
                    recent = np.concatenate((prev[stop - 2 :], terms[: stop + 1]))
                value, used = sums[stop], k0 + stop + 1
                _check_sum(value, used, True, z, tol, lam_re)
                return _Sum(value, used, recent, None)
            carry = sums[-1]
            k0, block = end, min(2 * block, _BLOCK_CAP)
    _check_sum(carry, MAX_TERMS, False, z, tol, lam_re)
    return _Sum(carry, MAX_TERMS, terms[-3:], lam_re)


class _RowSum:
    """One series in the (m, block) pass: its running sum and how it ended.

    value is the sum of the terms taken so far, used their count and
    streak the run of small terms carried into the next block; error is
    a term past the float range.  A new row holds the class values; add
    sets each on the row.
    """

    value, used, streak, stopped, error = 0j, 0, 0, False, None

    def add(self, sums: np.ndarray, ok: np.ndarray) -> bool:
        """Take in this row of one block; True once the row is done."""
        if self.error is not None:
            return True
        stop, self.streak = _streak_end(ok, self.streak)
        self.stopped = stop >= 0
        used = stop + 1 if self.stopped else sums.size
        self.value = sums[used - 1]
        self.used += used
        return self.stopped

    def finish(self, z: complex):
        """The row's value; raises the error evaluate raises for it."""
        if self.error is not None:
            raise self.error
        _check_sum(self.value, self.used, self.stopped, z, DEFAULT_TOL, None)
        return self.value


def _block_sums(cache: _ColumnCache, log_zs: list) -> list[_RowSum]:
    """Sum _psi's series at each log z of log_zs in one pass; one _RowSum each.

    Blocks of 32, 64, ... up to _BLOCK_CAP terms over (m, block) arrays,
    for two or more series (a lone one takes _lone_sum).  A block's terms
    are formed, added from each row's carried total by a cumsum along the
    row, and stop-tested at DEFAULT_TOL, all elementwise or in sequence
    within a row, so a row gets the bits it gets alone.  A row leaves
    once it stops or meets a term past the float range (the row is
    nulled before exp, so no other row sees the overflow).
    """
    log_z = np.array(log_zs)[:, None]
    rows = [_RowSum() for _ in log_zs]
    live = rows
    carry = np.zeros(len(rows), dtype=complex)
    k0, block = 0, 32
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while k0 < MAX_TERMS:
            end = min(k0 + block, MAX_TERMS)
            logt = _block_terms(cache.upto(end), log_z, k0, end)
            # no NaN reaches logt, so the max tests what any() of the
            # comparison would, faster
            if logt.real.max() > 709.0:
                past = (logt.real > 709.0).any(axis=1)
                for i in np.flatnonzero(past):
                    live[i].error = OverflowError(_TOO_LARGE)
                logt[past] = complex(-math.inf, 0.0)
            terms = np.exp(logt)
            # the carried totals are added to the first terms, so the sums
            # add in sequence from them
            sums = terms.copy()
            sums[:, 0] += carry
            sums = _cumsum(sums, -1)
            ok = _abs(terms) <= DEFAULT_TOL * _abs(sums)
            keep = [i for i, row in enumerate(live) if not row.add(sums[i], ok[i])]
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                log_z = log_z[keep]
                sums = sums[keep]
            carry = sums[:, -1]
            k0, block = end, min(2 * block, _BLOCK_CAP)
    return rows


def _term_zero(params: FWParams) -> complex:
    s = 0j
    for a, _ in params.upper:
        s += log_gamma(a)
    for b, _ in params.lower:
        s -= log_gamma(b)
    return cmath.exp(s)


def _levin_weights(starts) -> tuple[np.ndarray, np.ndarray]:
    """Levin u weights for windows s_n .. s_n+K, one per start n, and their moduli.

    Row k of window n holds (-1)^j C(k, j) ((n + 1 + j) / (n + 1 + k))^(k - 1)
    for j <= k and zeros past it.  Against s_j / omega_j and 1 / omega_j,
    with omega_j = (j + 1) t_j, it gives the numerator and denominator of
    the order-k u transform (Levin 1973 with beta = 1; Weniger 1989).
    """
    K = _LEVIN_ORDER
    rows = np.zeros((len(starts), K + 1, K + 1))
    for m, n in enumerate(starts):
        for k in range(K + 1):
            j = np.arange(k + 1, dtype=float)
            binom = np.array([math.comb(k, i) for i in range(k + 1)], dtype=float)
            rows[m, k, : k + 1] = (-1.0) ** j * binom * ((n + 1.0 + j) / (n + 1.0 + k)) ** (k - 1)
    return rows, np.abs(rows)


class _BoundaryPlan(NamedTuple):
    """What the Levin route needs of one FWParams beyond z (see _boundary_sum)."""

    starts: np.ndarray  # the two windows' first partial sums n0, n1
    k: np.ndarray  # 0 .. end-1, the terms read
    log_coeff: np.ndarray  # log t_k - k log z
    eps_base: np.ndarray  # a term's relative error bound, less its 8 u k |log z|
    window: np.ndarray  # (2, K+1): the indices j of each window
    omega: np.ndarray  # j + 1 as floats, so omega_j = (j + 1) t_j
    weights: np.ndarray  # _levin_weights of the two windows
    moduli: np.ndarray
    lam_re: float
    log_last: float  # log |t_N-1 / z^N-1|, N = MAX_TERMS, for the capped sum's majorant


def _boundary_plan(cache: _ColumnCache) -> _BoundaryPlan | None:
    """The windows, the term error model and the majorant's coefficient of
    the entry's parameter set, or None where the route cannot run.

    n0 is the first k with k A >= |a| + 1 for every gamma argument a + k A
    (k + 1 included): from there on every argument is past its poles and
    large against its own offset, so the terms follow their expansion in
    powers of 1/k, which the u transform assumes.  The second window
    starts at 2 n0 + 8.  None if MAX_TERMS cannot hold both windows,
    tested before the column table grows to their end.  A pole needs
    Re(a + k A) < 1/2, so only k below (1/2 - Re a) / A, which is below
    n0, can meet one (k = 0 is refused by FWParams), so the grown table
    has recorded every pole there is; None if there is one.  A term's
    relative error is taken as u (32 (1 + p + q) + 8 m), m the sum of
    |k log z| and the moduli of its log-gamma values: against mpmath on
    9,300 terms of random parameter sets the error never passed 0.64 of
    that.  log_last comes from one log_gamma_vec call on the arguments
    at k = MAX_TERMS - 1.
    """
    params = cache.params
    pairs = ((1.0, 1.0),) + params.upper + params.lower
    n0 = max(math.ceil((abs(a) + 1.0) / A) for a, A in pairs)
    starts = np.array((n0, 2 * n0 + 8))
    end = int(starts[1]) + _LEVIN_ORDER + 1
    if end > MAX_TERMS:
        return None
    cols = cache.upto(end)
    if any(pole is not None for pole in cols.upper_poles + cols.lower_first_pole):
        return None
    mag = sum(np.abs(row) for row in cols.lg[:, :end])
    window = np.add.outer(starts, np.arange(_LEVIN_ORDER + 1))
    lg = log_gamma_vec(cache.off[:, 0] + cache.wt[:, 0] * (MAX_TERMS - 1)).real
    plan = _BoundaryPlan(
        starts,
        cols.k[:end],
        _block_terms(cols, 0.0, 0, end),  # log t_k at log z = 0
        _UNIT_ROUNDOFF * (32.0 * (1 + params.p + params.q) + 8.0 * mag),
        window,
        window + 1.0,
        *_levin_weights(starts),
        boundary_exponent(params).real,
        float(lg[1 : 1 + params.p].sum() - lg[1 + params.p :].sum() - lg[0]),
    )
    for arr in plan[:-2]:
        arr.flags.writeable = False
    return plan


def _levin_windows(terms, eps, plan):
    """(values, terms read, error bounds): the best u transform of each window.

    Window n's order-k value is s_n + D_k with D_k = sum_j c_j w_j d_j /
    sum_j c_j w_j, where w_j = 1/omega_j and d_j = s_j - s_n: the
    textbook sum_j c_j w_j s_j / sum_j c_j w_j with the large s_n kept
    out of the cancelling sums, so an error in s_n passes through once.
    The rest of the rounding it amplifies is bounded with real products
    of the weight moduli |c_j w_j|:
    - an error e_i of a window term, or of the i-th step of the cumsum
      that forms d, moves d_j for every j >= i, by |sum_{j>=i} c_j w_j| e_i
      in the numerator; that factor is at most sum_{j>=i} |c_j w_j| and
      at most |den| + sum_{j<i} |c_j w_j|, and the smaller of the two
      totals is taken;
    - a relative error r_j of w_j shifts D_k by |c_j w_j| r_j |d_j - D_k|,
      with |d_j - D_k| <= |d_j - d_K| + |d_K - D_k|;
    - the two weighted sums add their own rounding.
    The bound of order k is that rounding plus _LEVIN_SAFETY times the
    larger of the steps |L_k - L_k-1| and |L_k-1 - L_k-2|.  In each
    window the order with the smallest bound wins; orders below 3 have
    no two steps.
    """
    u = _UNIT_ROUNDOFF
    K = _LEVIN_ORDER
    t = terms[plan.window]
    size = np.abs(t)
    rel = eps[plan.window]
    d = t.cumsum(axis=1) - t[:, :1]
    err = (size * rel + u * size.cumsum(axis=1)).cumsum(axis=1)
    w = 1.0 / (plan.omega * t)
    aw = np.abs(w)
    # numerators and denominators of every order, from one real product
    # on the real and imaginary parts of w d and w
    wd = np.empty((2, K + 1, 2), dtype=complex)
    wd[:, :, 0] = w * d
    wd[:, :, 1] = w
    num, den = (plan.weights @ wd.view(float)).view(complex).transpose(2, 0, 1)
    shift = num / den
    vecs = np.empty((2, K + 1, 4))
    vecs[:, :, 0] = aw
    vecs[:, :, 1] = aw * err
    vecs[:, :, 2] = aw * (rel + 4.0 * u)  # w_j from t_j and two roundings
    vecs[:, :, 3] = vecs[:, :, 2] * np.abs(d - d[:, -1:]) + (K + 3) * u * aw * np.abs(d)
    total, early, far, near = (plan.moduli @ vecs).transpose(2, 0, 1)
    aden = np.abs(den)
    near += np.minimum(early, (aden + total) * err - early)
    near += np.abs(d[:, -1:] - shift) * far + (K + 3) * u * np.abs(shift) * total
    prefix = terms.cumsum()
    values = shift + prefix[plan.starts, None]
    # the prefix sums s_n: their terms' errors and the cumsum's rounding
    head = (terms.size * u + eps) * np.abs(terms)
    rounding = near / aden + u * np.abs(values) + head.cumsum()[plan.starts, None]
    step = np.abs(values[:, 1:] - values[:, :-1])
    bounds = _LEVIN_SAFETY * np.maximum(step[:, 2:], step[:, 1:-1]) + rounding[:, 3:]
    bounds = np.where(bounds >= 0.0, bounds, np.inf)  # NaN from a zero den
    best = bounds.argmin(axis=1)
    rows = (0, 1)
    return values[rows, best + 3], plan.starts + best + 4, bounds[rows, best]


@np.errstate(all="ignore")
def _boundary_sum(cache: _ColumnCache, z: complex, log_z: complex):
    """The Levin route on the circle |z| = V of the entry, or None to keep the capped sum.

    Two windows of K + 1 partial sums each give their best transform
    (_levin_windows).  The one with the smaller bound is returned, and
    its bound is raised to the other's bound plus their distance, so it
    holds when either window's bound does.  The windows, the term error
    model and the majorant's coefficient come from the entry's plan,
    which its first boundary call builds (_boundary_plan) and publishes
    by one assignment, as upto publishes columns.  Sweeps against mpmath
    sums (13,400 accepted points on random Delta = 0 models with lambda
    in (0.52, 3), some with lower arguments near poles, phases from 0.02
    to pi and z = V) found no error above the bound; the largest ratio
    of error to bound was 0.32.  The one error above its bound they met
    came with a bound of 68% of |value|, where the transforms had not
    settled, which _LEVIN_MAX_SHARE refuses.  Closer to V than
    _LEVIN_MIN_PHASE the transform converges to the value at V instead.
    So the capped sum still runs at 0 < |arg z| < _LEVIN_MIN_PHASE, at
    z = V unless z is exactly the float radius, where the plan is None
    (MAX_TERMS cannot hold both windows, or the parameters meet a gamma
    pole), and when the bound (inf or NaN if a term leaves the float
    range) is not below both _LEVIN_MAX_SHARE |value| and the capped
    sum's own majorant |t_N-1| N / (Re(lambda) - 1/2), N = MAX_TERMS.
    """
    if abs(log_z.imag) < _LEVIN_MIN_PHASE and z != cache.radius:
        return None
    plan = cache.plan
    if plan is _UNBUILT:
        plan = cache.plan = _boundary_plan(cache)
    if plan is None:
        return None
    # a term past the float range is inf, which makes every bound inf or
    # NaN, so the capped sum runs and raises as it always has
    terms = np.exp(plan.k * log_z + plan.log_coeff)
    eps = plan.eps_base + (8.0 * _UNIT_ROUNDOFF * abs(log_z)) * plan.k
    values, used, bounds = _levin_windows(terms, eps, plan)
    best = int(bounds.argmin())
    bound = max(bounds[best], abs(values[0] - values[1]) + bounds[1 - best])
    log_last = plan.log_last + (MAX_TERMS - 1) * log_z.real
    majorant = math.exp(min(log_last, 709.0)) * MAX_TERMS / (plan.lam_re - 0.5)
    if not bound < min(majorant, _LEVIN_MAX_SHARE * abs(values[best])):
        return None
    return EvalResult(values[best], int(used[best]), bound)


def _psi(params: FWParams, zs: list) -> list:
    """evaluate(params, z).value at each nonzero z of zs, in order, for the
    parameters of a coherent model, whose series is entire with no pole;
    the first error in the order of zs is raised.  A lone z is summed by
    _lone_sum, several by one _block_sums pass.
    """
    cache = _column_cache(params)
    if len(zs) == 1:
        return [_lone_sum(cache, zs[0], cmath.log(zs[0]), None, DEFAULT_TOL).value]
    rows = _block_sums(cache, [cmath.log(z) for z in zs]) if zs else []
    return [row.finish(z) for z, row in zip(zs, rows)]


def evaluate(
    params: FWParams, z: complex, tol: float = DEFAULT_TOL, allow_boundary: bool = False
) -> EvalResult:
    """Partial sum of the Fox-Wright series with a geometric tail bound.

    Stops once |t_k| <= tol*|S_k| holds for 3 consecutive k (the triple
    guard survives odd/even-zero term patterns).  Points on the Delta=0
    circle are refused unless allow_boundary is set and the boundary
    exponent satisfies Re(lambda) > 1/2.  There _boundary_sum first
    tries Levin u transforms of the first few dozen terms; tol does not
    apply to them, tail_bound bounds the whole error of the value (a
    heuristic bound: the spread of successive orders times a safety
    factor, plus the rounding they amplify), and terms_used counts the
    terms the returned transform read.  Where that route does not apply
    (see _boundary_sum) the sum is capped at N = MAX_TERMS terms and
    tail_bound is the majorant |t_N-1| N / (Re(lambda) - 1/2) of the
    truncated tail, without the rounding of the summed terms.  Off the
    circle a sum not stopped by then raises MaxTermsExceeded.

    z must be finite.
    """
    if not _check_real(tol, "tol") > 0:  # NaN fails this test too
        raise ValidationError("tol must be > 0")
    z = _check_finite_complex(z, "z")
    cache = _column_cache(params)
    # the entry's parameters, whose zeros' signs may differ from an equal set's
    params, r, lam_re = cache.params, cache.radius, None
    if z == 0:
        return EvalResult(_term_zero(params), 1, 0.0)
    if not math.isinf(r):
        az = abs(z)
        side = _circle_side(az, r)
        if side > 0:
            raise DomainViolation(f"|z|={az:.6g} outside convergence radius {r:.6g}")
        if side == 0:
            lam_re = boundary_exponent(params).real
            if not allow_boundary:
                raise DomainViolation(
                    f"|z|={az:.6g} lies on the convergence circle (radius {r:.6g}); "
                    "pass allow_boundary to evaluate under the Re(lambda) > 1/2 condition"
                )
            if lam_re <= 0.5:
                raise DomainViolation(f"boundary evaluation needs Re(lambda) > 1/2, got {lam_re:.6g}")
    log_z = cmath.log(z)
    res = _boundary_sum(cache, z, log_z) if lam_re is not None else None
    return _lone_sum(cache, z, log_z, lam_re, tol).result() if res is None else res


def as_pfq(params: FWParams):
    """(prefactor, a-list, b-list) when all weights are 1, else None.

    In that case psi(z) = prefactor * pFq(a; b; z) with the prefactor
    prod Gamma(a) / prod Gamma(b).
    """
    if any(abs(w - 1.0) > CLASSIFY_TOL for _, w in params.upper + params.lower):
        return None
    return (
        _term_zero(params),
        [a for a, _ in params.upper],
        [b for b, _ in params.lower],
    )


# -- conformance oracles (independent routes, never call evaluate) -------

# each oracle stops after three terms in a row below this share of the sum,
# and gives up after 20,000 terms (the Bessel series after 2,000)
_ORACLE_TOL = 1e-16


def oracle_pfq(upper, lower, z) -> complex:
    """Generalized hypergeometric series by running Pochhammer products."""
    z = complex(z)
    term = 1.0 + 0j
    total = term
    consec = 0
    for k in range(20000):
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
        consec = consec + 1 if abs(term) <= _ORACLE_TOL * abs(total) else 0
        if consec >= 3:
            return total
    raise MaxTermsExceeded("oracle_pfq did not converge")


def oracle_bessel_j(v: float, y: float) -> float:
    """Bessel J_v(y) for v, y >= 0 by its power series."""
    if y < 0 or v < 0:
        raise ValidationError("oracle_bessel_j expects v, y >= 0")
    if y == 0.0:
        return 1.0 if v == 0 else 0.0
    half = 0.5 * y
    term = half**v / math.gamma(v + 1.0)
    total = term
    q = half * half
    consec = 0
    for k in range(2000):
        term *= -q / ((k + 1) * (v + k + 1))
        total += term
        consec = consec + 1 if abs(term) <= _ORACLE_TOL * abs(total) else 0
        if consec >= 3:
            return total
    raise MaxTermsExceeded("oracle_bessel_j did not converge")
