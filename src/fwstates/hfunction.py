"""Mellin-Barnes evaluation of the measure kernels.

The radial weight behind the resolution of unity is W(x) = psi(x) H(x),
where psi is the model's Fox-Wright function and H is the inverse Mellin
transform

    H(x) = (1/2pi i) integral  Gamma(s) prod Gamma(beta + sB)
                               / prod Gamma(alpha + sA)  x^{-s} ds

over a vertical line right of every numerator pole.  The parameter block
comes from the model by a fixed shift: upper (a-A, A), lower (0,1) then
(b-B, B).  That shift makes the Mellin transform of H at s = k+1 equal
Gamma(k+1) prod Gamma(b+kB) / prod Gamma(a+kA), which is what turns the
moment integral into rho(k).

The contour integrand decays like exp(-(pi/2)(1+sum B-sum A)|t|), so a
trapezoid rule on a truncated line converges spectrally; the line is cut
at the first height T = 8 * 1.5^j where the integrand has fallen to 1e-18
of its on-axis value.  Its trapezoid levels double from _FIRST_N = 128
up to MAX_NODES, each a finished, read-only array (_level).
ContourConfig sets only the abscissa offset.  A line whose abscissa is
a zero of M (a pole of an upper gamma) has no scale to decay from, so
that line alone moves half an offset right, and fails if M vanishes there.

The log-gamma work comes in few, large calls, because each call has a
fixed cost that small arrays do not repay: a new line tests M(c) and its
first eight heights in one call (and each further eight in one more),
its first level holds the 129 nodes of level 128, which every H value
needs, with level 64 as its stride-2 view, and each doubling forms only
the new odd nodes.  Each call has one Lanczos row per distinct (offset,
weight) pair of the block, not one per factor: the unit-weight and
Mittag-Leffler blocks carry Gamma(s) as upper (0, 1) and lower (0, 1),
so their lines take 2 rows, not 3.  The shared row is added and
subtracted as often as its pair is used, in block order, so the sum has
the bits of one row per factor; the pair is never cancelled, which
would move bits.  Grids are np.linspace's arithmetic without its Python
wrapper (_grid).  The trapezoid loop likewise forms the integrand on
level 128 in one pass, sums level 64 on its stride-2 view, and then forms
only each level's odd nodes; for few numpy calls it halves steps, not
complex sums, forms the phase as t * (-1j log x), reduces with
np.add.reduce, reads each level's roundoff floor, formed by
np.trapezoid's arithmetic when the level was built, and enters
np.errstate only where H(x) may underflow.

Five bounded LRU caches hold what depends only on the parameters: the
256 most recent models' parameter blocks (`_model_block`, which
HWeightParams.from_model returns, so weight does not rebuild its block
on every call), the 320 most recent contour levels, keyed on (parameter
block, contour config, abscissa level, n) (`_level`), a call counter
for each of the 256 most recent (parameter block, contour config) pairs
(`_pair_calls`), the 4,096 most recent H values of moment quadratures,
keyed on (parameter block, x, contour config) (`_h_value`), and the 256
most recent finished moment checks, keyed on (parameter set, k)
(`_moment`; K enters nothing, so models that differ only in K share an
entry).

The contour loop (_h_line) counts a pair's calls: its first H value
builds the line's levels with the same function (_build_level) and keeps
none of them; from its second on, the levels are read from `_level`,
which keeps them.  So a block asked for once, as a fresh kernel is,
stores nothing and evicts no line of a block in steady use (a 2Q or
TinyLFU doorkeeper), and since every level comes from _build_level,
every H value keeps its bits either way.  The count is per pair, not per
abscissa level, so a model's first call at a new abscissa level is kept
at once.  Only the moment quadrature revisits its nodes, so only it
reads H through `_h_value`: one `measure check --k 0..6` on the
unit-weight model reads H 1,134 times at 193 distinct x, and `_h_value`
answers the other 941, 882 of them on revisits of the 9 distinct
Gauss-Kronrod subintervals; a second such check repeats all 7 (parameter
set, k) pairs, which `_moment` answers without a quadrature.  eval_h,
which weight and the measure densities call, revisits no x, so it runs
the loop itself and keeps no H value.  A hit returns the float, or the
MomentResult, that was computed, so every output keeps its bits; errors
are not kept.

The moment integral runs through `continuum._integrate`'s Gauss-Kronrod
(`quadpack.qags`, imported on first use), whose integrand takes a
subinterval: moment_check reads H on its nodes from `_h_value` and forms
(x ** k) * (pref * H) per node in Python floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bicomplex import Hyperbolic, _check_finite_real, _check_real, componentwise
from .coherent import BCCoherentModel, CoherentModel, rho
from .continuum import DEFAULT_QUAD, _integrate
from .errors import (
    ContourFailure,
    DomainError,
    QuadratureFailure,
    ValidationError,
)
from .foxwright import FWParams, _log_radius, _normalize_pairs, _psi, _term_zero, _whole_number
from .gammafn import gamma, is_gamma_pole, log_gamma_vec

_LOG_DECAY_TARGET = math.log(1e-18)
_REL_STOP = 1e-10
_EPS = float(np.finfo(float).eps)
MAX_NODES = 1 << 20  # node doubling gives up past this many nodes
_FIRST_N = 128  # a line's first level; its stride-2 view is the 64-interval level
_MOMENT_CACHE = 256  # (parameter set, k) pairs whose moment_check result is kept
_LEVEL_CACHE = 320  # contour levels kept, each keyed on (block, contour, abscissa level, n)
_PAIR_CACHE = 256  # (block, contour) pairs whose _h_line calls are counted


def _real_pairs(pairs, side: str) -> tuple[tuple[float, float], ...]:
    """FWParams' pair check, with real offsets."""
    out = _normalize_pairs(pairs, side)
    for g, _ in out:
        if g.imag:
            raise ValidationError(f"{side} offset must be real, got {g}")
    return tuple((g.real, w) for g, w in out)


@dataclass(frozen=True)
class HWeightParams:
    """Parameter block of the H kernel: gamma factors on a vertical line."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __init__(self, upper=(), lower=()):
        object.__setattr__(self, "upper", _real_pairs(upper, "upper"))
        object.__setattr__(self, "lower", _real_pairs(lower, "lower"))
        decay = sum(B for _, B in self.lower) - sum(A for _, A in self.upper)
        if decay <= 0:
            raise ValidationError(
                "kernel does not decay on vertical lines "
                f"(sum of lower weights - sum of upper weights = {decay:g} <= 0)"
            )
        # not fields, so equality and hashing stay on upper and lower
        consts = {"_mu": decay, "_log_kappa": _log_radius(self.upper, self.lower),
                  "_right": max(0.0, self.rightmost_pole())}
        # the dataclass's field hash, formed once: every memo lookup hashes the block
        consts["_hash"] = hash((self.upper, self.lower))
        # one log-gamma row per distinct pair, in order of first use
        rows = {pair: i for i, pair in enumerate(dict.fromkeys(self.lower + self.upper))}
        consts["_off"], consts["_wt"] = np.array(list(rows)).T[:, :, None]
        consts["_lower_rows"] = tuple(rows[pair] for pair in self.lower)
        consts["_upper_rows"] = tuple(rows[pair] for pair in self.upper)
        for name, value in consts.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_model(cls, model: CoherentModel) -> "HWeightParams":
        """The model's kernel block, built once per parameter set (_model_block)."""
        return _model_block(model.params)

    def rightmost_pole(self) -> float:
        """Largest real pole of the numerator gamma product."""
        return max(-beta / B for beta, B in self.lower)

    def log_mellin(self, s: complex) -> complex:
        return complex(_log_mellin_vec(self, np.array([s], dtype=complex))[0])

    def mellin(self, s: complex) -> complex:
        """The Mellin transform of the kernel at s."""
        return complex(np.exp(self.log_mellin(s)))


@lru_cache(maxsize=256)
def _model_block(params: FWParams) -> HWeightParams:
    upper = [(a.real - A, A) for a, A in params.upper]
    lower = [(0.0, 1.0)] + [(b.real - B, B) for b, B in params.lower]
    return HWeightParams(upper=upper, lower=lower)


def _log_mellin_vec(hp: HWeightParams, s: np.ndarray) -> np.ndarray:
    """One log_gamma_vec call over a 1-d s, one row per distinct pair; each
    lower use's row added, then each upper use's subtracted, in block order."""
    lg = log_gamma_vec(hp._off + hp._wt * s)
    out = np.zeros(s.shape, dtype=complex)
    for i in hp._lower_rows:
        out += lg[i]
    for i in hp._upper_rows:
        out -= lg[i]
    return out


@dataclass(frozen=True)
class ContourConfig:
    c_offset: float = 0.5

    def __post_init__(self):
        c_offset = _check_finite_real(self.c_offset, "c_offset")
        if c_offset <= 0:
            raise ValidationError("c_offset must be > 0 to clear the pole at the abscissa")
        object.__setattr__(self, "c_offset", c_offset)
        # the field hash, formed once, as in HWeightParams
        object.__setattr__(self, "_hash", hash((c_offset,)))

    def __hash__(self) -> int:
        return self._hash


DEFAULT_CONTOUR = ContourConfig()


def _grid(T: float, n: int) -> np.ndarray:
    """np.linspace(0.0, T, n + 1) bit for bit, by linspace's own arithmetic
    (node k is k * (T/n), the last is T) without its Python wrapper."""
    t = np.arange(n + 1) * (T / n)
    t[-1] = T
    return t


_ABSCISSA_STEP = 4.0  # quantization of the saddle-following abscissa
_HEIGHT_BATCH = 8  # truncation heights tested per _log_mellin_vec call


def _abscissa_level(hp: HWeightParams, cc: ContourConfig, x: float) -> int:
    """Quantized shift of the contour toward the saddle point.

    For large x the integrand M(s) x^{-s} peaks at a saddle sigma with
    roughly mu*log(sigma) + log(kappa) = log(x), where mu and kappa come
    from the weight sums.  The kernel is analytic right of its poles, so
    the line may sit anywhere; at the fixed base abscissa the bracket
    integral for large x is pure cancellation (the true value is
    exponentially small against the node sum), while near the saddle the
    integrand is single-signed and full relative accuracy survives.  The
    shift is quantized in steps of _ABSCISSA_STEP so nearby x share one
    cached contour.
    """
    sigma = math.exp((math.log(x) - hp._log_kappa) / hp._mu)
    base = hp._right + cc.c_offset
    if sigma <= base:
        return 0
    return math.ceil((sigma - base) / _ABSCISSA_STEP)


def _truncation(hp: HWeightParams, c: float) -> tuple[float, float | None]:
    """log M(c) and the first height T = 8 * 1.5^j, j < 120, where the
    integrand on the line Re s = c has fallen to 1e-18 of M(c); T is None
    where the first batch finds M(c) = 0, which no height can fall below."""
    heights = [0.0]  # M(c) rides with the first batch
    T = 8.0
    log_m0 = None
    for _ in range(120 // _HEIGHT_BATCH):
        for _ in range(_HEIGHT_BATCH):
            heights.append(T)
            T *= 1.5
        logs = _log_mellin_vec(hp, np.array([complex(c, h) for h in heights])).real
        if log_m0 is None:
            log_m0 = float(logs[0])
            if log_m0 == -math.inf:
                return log_m0, None
        hit = np.flatnonzero(logs[-_HEIGHT_BATCH:] <= log_m0 + _LOG_DECAY_TARGET)
        if hit.size:
            return log_m0, heights[hit[0] - _HEIGHT_BATCH]
        heights = []
    raise ContourFailure("could not truncate the contour; kernel decays too slowly")


def _scaled(hp: HWeightParams, c: float, log_m0: float, t: np.ndarray) -> np.ndarray:
    """M(c + it) / M(c) at the heights t."""
    with np.errstate(under="ignore"):
        return np.exp(_log_mellin_vec(hp, c + 1j * t) - log_m0)


def _build_level(hp: HWeightParams, cc: ContourConfig, level: int, n: int, below) -> tuple:
    """Level n of this abscissa level's line: (c, log M(c), T, vals, t,
    floor), with the node values vals = M(c + it) / M(c) on t = _grid(T,
    n), read-only, and the roundoff floor of their node sum.

    Node values are scaled by the on-axis peak M(c), so they stay inside
    float range even when the shifted abscissa makes M(c) astronomically
    large; the log of the scale is reapplied at the end.  The first level
    (below is None) is n = _FIRST_N: it runs the height search, and if
    that finds M(c) = 0 it moves the line half an offset right, once.  Each
    further level takes the level below, level n/2, as its even nodes,
    since _grid gives (2m)(T/2n) == m(T/n), and forms only its odd ones.
    """
    if below is None:
        cs = [hp._right + shift * cc.c_offset + _ABSCISSA_STEP * level for shift in (1.0, 1.5)]
        for c in cs:
            log_m0, T = _truncation(hp, c)
            if T is not None:
                break
        else:
            raise ContourFailure(f"M(s) vanishes on both abscissae, Re s = {cs[0]:g} and {cs[1]:g}")
        t = _grid(T, n)
        vals = _scaled(hp, c, log_m0, t)
    else:
        c, log_m0, T, below_vals, _, _ = below
        t = _grid(T, n)
        vals = np.empty(n + 1, dtype=complex)
        vals[0::2] = below_vals
        vals[1::2] = _scaled(hp, c, log_m0, t[1::2])
    vals.flags.writeable = t.flags.writeable = False
    a = np.abs(vals)
    # 16 eps np.trapezoid(a, dx=T/n), its arithmetic inline
    floor = 16.0 * _EPS * float(np.add.reduce((T / n) * (a[1:] + a[:-1]) / 2.0))
    return c, log_m0, T, vals, t, floor


@lru_cache(maxsize=_LEVEL_CACHE)
def _level(hp: HWeightParams, cc: ContourConfig, level: int, n: int) -> tuple:
    """_build_level, memoized on (block, contour, abscissa level, n): each
    level from _FIRST_N up is built once from the memo's level below."""
    below = None if n == _FIRST_N else _level(hp, cc, level, n // 2)
    return _build_level(hp, cc, level, n, below)


@lru_cache(maxsize=_PAIR_CACHE)
def _pair_calls(hp: HWeightParams, cc: ContourConfig) -> itertools.count:
    """A counter of _h_line's calls on this (block, contour) pair, through
    eval_h or the moment memo's misses: next() is 0 on the first."""
    return itertools.count()


def eval_h(hp: HWeightParams, x: float, cc: ContourConfig = DEFAULT_CONTOUR) -> float:
    """Kernel value H(x) for x > 0 by trapezoid rule on a vertical line.

    The parameters are real, so M(c-it) = conj(M(c+it)) and the two
    half-lines combine into twice the real part of the upper one.  Node
    doubling stops when successive values agree to 1e-10 relative, or
    differ by no more than the node sum's roundoff floor, which further
    refinement cannot get under; a floor past 1% of the sum there leaves
    no correct digit, and raises ContourFailure naming x.
    """
    x = float(_check_real(x, "x"))
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"eval_h requires x > 0, got {x}")
    return _h_line(hp, x, cc)


def _h_line(hp: HWeightParams, x: float, cc: ContourConfig) -> float:
    """The contour loop behind eval_h; `_h_value` is its memo for the
    moment quadrature, which revisits its nodes.

    It starts on level _FIRST_N, and sums level _FIRST_N/2 on its stride-2
    view, at its own step 2h.  Where _FIRST_N passes MAX_NODES it raises
    before any level is built.  A (block, contour) pair's first call builds
    each level from the one before and keeps none; from its second call
    on, the line's levels are read from, and kept in, `_level`."""
    level = _abscissa_level(hp, cc, x)
    first = next(_pair_calls(hp, cc)) == 0
    log_x = math.log(x)
    # t * (-1j log x) has the imaginary bits of -1j * (t * log x), and a real part of +-0
    phase = -1j * log_x
    n, f, lv = _FIRST_N, None, None
    while n <= MAX_NODES:
        lv = _build_level(hp, cc, level, n, lv) if first else _level(hp, cc, level, n)
        c, log_m0, T, vals, t, floor = lv
        h = T / n
        if f is None:
            f = vals * np.exp(t * phase)
            prev = float(np.add.reduce((f[2::2] + f[:-2:2]) * h).real)  # level n/2: stride 2, step 2h
        else:
            f_even, f = f, np.empty(n + 1, dtype=complex)
            f[0::2] = f_even  # the level below's nodes; only the odd ones are new
            f[1::2] = vals[1::2] * np.exp(t[1::2] * phase)
        bracket = float(np.add.reduce((f[1:] + f[:-1]) * (h / 2.0)).real)  # np.trapezoid(f, dx=h)
        # max(_REL_STOP |bracket|, floor) as two tests; a NaN fails both
        diff = abs(bracket - prev)
        if diff <= _REL_STOP * abs(bracket) or diff <= floor:
            if bracket and floor > 0.01 * abs(bracket):
                raise ContourFailure(f"no correct digit in H({x:g}): the line sum's roundoff floor "
                                     f"{floor:.3g} passes 0.01 of its value {abs(bracket):.3g}")
            log_scale = log_m0 - c * log_x - math.log(math.pi)
            if bracket and log_scale + min(0.0, math.log(abs(bracket))) > -700.0:
                return float(bracket * np.exp(log_scale))
            with np.errstate(under="ignore"):  # H is zero, or may underflow
                return float(bracket * np.exp(log_scale)) if bracket else 0.0
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


_h_value = lru_cache(maxsize=4096)(_h_line)


def _h_at_zero(model: CoherentModel) -> float:
    """Limit of H at the origin: residue of the kernel at s = 0.

    The structural Gamma(s) factor, the block's first lower pair,
    contributes residue 1; the limit is finite only when every remaining
    lower gamma is regular at 0, i.e. every beta = b - B > 0.
    """
    hp = _model_block(model.params)
    log_num = 0.0
    for beta, _ in hp.lower[1:]:
        if beta <= 0.0:
            raise DomainError(
                "weight has no finite limit at x = 0 (needs b > B in every lower pair)"
            )
        log_num += math.lgamma(beta)
    den = 1.0
    for alpha, _ in hp.upper:
        if is_gamma_pole(alpha):
            return 0.0
        den *= gamma(alpha).real
    return math.exp(log_num) / den


def weight(model: CoherentModel, x: float) -> float:
    """Radial weight W(x) = psi(x) H(x) of the resolution-of-unity measure."""
    x = float(_check_real(x, "x"))
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"weight requires x >= 0, got {x}")
    if x == 0.0:
        return _term_zero(model.params).real * _h_at_zero(model)
    return _psi(model.params, [x])[0].real * eval_h(HWeightParams.from_model(model), x)


# the density of the measure over x = |z|^2, angular factor integrated out
measure_density = weight


def measure_density_b(model: BCCoherentModel, X: Hyperbolic) -> Hyperbolic:
    """Componentwise measure density on a hyperbolic radius pair in D+."""
    X = Hyperbolic.of(X)
    # kept: weight itself rejects x < 0 as a DomainError, not a ValidationError
    if not X.in_dplus():
        raise ValidationError(f"measure density needs a radius pair in D+, got {X!r}")
    return Hyperbolic(*componentwise(weight, model, X))


class MomentResult(NamedTuple):
    lhs: float
    rhs: float
    rel_err: float


def _density_scan(density, k: int) -> float:
    """Truncation point: x^k * density fallen below 1e-16 of its peak."""
    x = 0.25
    peak = 0.0
    for _ in range(64):
        g = (x ** k) * density(x)
        peak = max(peak, abs(g))
        if peak > 0.0 and abs(g) < 1e-16 * peak:
            return x
        x *= 2.0
    raise QuadratureFailure("moment integrand does not decay below 1e-16 of its peak")


def moment_check(model: CoherentModel, k: int) -> MomentResult:
    """Check the moment identity integral x^k W(x)/N(x) dx = rho(k).

    The Fox-Wright factor of W cancels against the normalization N, so
    the integrand reduces to the gamma prefactor times the bare kernel H.
    The result is memoized per (parameter set, k) in `_moment`.
    """
    return _moment(model.params, moment_order(k))


def moment_order(k) -> int:
    """k as an int, refused unless a whole number in moment_check's 0..8."""
    k = _whole_number(k, "moment order k", 0)
    if k > 8:
        raise ValidationError("moment order k must lie in 0..8")
    return k


@lru_cache(maxsize=_MOMENT_CACHE)
def _moment(p: FWParams, k: int) -> MomentResult:
    """moment_check's quadrature, memoized: K enters nothing, and repeated
    checks of a model's orders return the first check's result."""
    from .quadpack import nodes

    log_pref = sum(math.lgamma(a.real) for a, _ in p.upper) - sum(
        math.lgamma(b.real) for b, _ in p.lower
    )
    pref = math.exp(log_pref)
    hp = _model_block(p)

    def density(x: float) -> float:
        return pref * _h_value(hp, x, DEFAULT_CONTOUR)

    def on_sub(a: float, b: float) -> list[float]:
        return [(x ** k) * density(x) for x in nodes(a, b).tolist()]

    x_max = _density_scan(density, k)
    lhs, _ = _integrate(None, on_sub, 0.0, x_max, DEFAULT_QUAD, "gk")
    rhs = rho(CoherentModel(p), k)
    return MomentResult(lhs, rhs, abs(lhs - rhs) / abs(rhs))
