"""Coherent states built on Fox-Wright normalization, complex and bicomplex.

The parameter function

    rho(k) = Gamma(k+1) * [prod Gamma(a) / prod Gamma(b)]
                        * [prod Gamma(b + k B) / prod Gamma(a + k A)]

generalizes k! (the p = q = 0 case).  States are

    |z> = N(|z|^2)^(-1/2) sum_k z^k / sqrt(rho(k)) |k>,

with N(zeta) = sum_k zeta^k / rho(k), a Fox-Wright series up to a gamma
prefactor.  The ladder strength f(s) = sqrt(rho(s+1)/rho(s)) is computed
from its own gamma-ratio formula, not from rho differences, so the
recurrence rho(k+1) = rho(k) f(k)^2 and the eigenstate property are
genuine cross-checks rather than tautologies.  Its ratios come from one
Lanczos pass over every parameter pair and float arithmetic on the real
arguments (`gammafn._log_gamma_ratio_real`), with the bits of
log_gamma_ratio.

Parameters are restricted to real a_l, b_r > 0 with positive margin;
that keeps rho positive and N entire.  log_rho and rho accept any finite
real k >= 0 (f_factor any finite s >= 0), so they are also the
continuous interpolation rho_tilde(E) of `continuum`.  One function,
_log_rho_rows, adds the log-gamma values: log_rho's math.lgamma floats,
and the array form's rows (Lanczos log-gamma, which may differ from
math.lgamma in the last bits).
make_state reads those rows for integer k as one real view of the
series' cached column table (`foxwright.log_gamma_rows`, which grows it
by whole series blocks); _log_rho_vec forms them afresh for real E from the same table's
gamma-argument offsets and weights, and serves `continuum` (its node
values and its log-rho grids) and the acceptance battery.
overlap's N at conj(z) z', |z|^2 and |z'|^2 come from one foxwright._psi
call, each with the bits of its own sum.
Bicomplex models run each complex routine per idempotent component
through `bicomplex.componentwise`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .bicomplex import (
    Bicomplex,
    Hyperbolic,
    _check_finite_complex,
    _check_finite_real,
    _check_real,
    _log_squared_modulus,
    _squared_modulus,
    componentwise,
)
from .errors import TruncationError, ValidationError
from .foxwright import (
    CLASSIFY_TOL,
    FWParams,
    _column_cache,
    _psi,
    _whole_number,
    log_gamma_rows,
    margin,
)
from .foxwright_bc import BCFWParams
from .gammafn import _log_gamma_ratio_real, log_gamma_vec

K_MAX = 1 << 16
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class CoherentModel:
    params: FWParams
    K: int = 32

    def __post_init__(self):
        for side, pairs in (("upper", self.params.upper), ("lower", self.params.lower)):
            for v, _ in pairs:
                if v.imag != 0.0 or v.real <= 0.0:
                    raise ValidationError(f"coherent models need real {side} parameters > 0, got {v}")
        if margin(self.params) <= CLASSIFY_TOL:
            raise ValidationError(
                f"coherent model needs margin > 0, got {margin(self.params)}"
            )
        # an integral float such as 2.0 (JSON Schema's integer) acts as its int
        K = _whole_number(self.K, "truncation K", 1)
        if K > K_MAX:
            raise ValidationError(f"truncation K must be <= {K_MAX}, got {K}")
        object.__setattr__(self, "K", K)


@dataclass(frozen=True)
class StateVector:
    coeffs: tuple[complex, ...]
    norm_prefactor: float  # 1/sqrt(N(|z|^2))
    z: complex
    tail_mass: float

    def to_json(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "tail": self.tail_mass,
        }


@dataclass(frozen=True)
class BCStateVector:
    components: tuple[StateVector, StateVector]
    z: Bicomplex


def _log_prefactor(model: CoherentModel) -> float:
    """log[prod Gamma(b) / prod Gamma(a)], the normalization prefactor."""
    s = 0.0
    for b, _ in model.params.lower:
        s += math.lgamma(b.real)
    for a, _ in model.params.upper:
        s -= math.lgamma(a.real)
    return s


def log_rho(model: CoherentModel, k: float) -> float:
    """log rho(k) for real k >= 0, a float from math.lgamma's values; k must be finite."""
    if _check_real(k, "k") < 0:
        raise ValidationError("k must be >= 0")
    if not math.isfinite(k):
        raise ValidationError(f"k must be finite, got {float(k)!r}")
    p = model.params
    args = [k + 1.0] + [a.real + k * A for a, A in p.upper] + [b.real + k * B for b, B in p.lower]
    return _log_rho_rows(p, [math.lgamma(v) for v in args])


def _log_rho_rows(params: FWParams, lg):
    """log rho from real log Gamma floats or rows at k+1, a_l + k A_l, b_r + k B_r."""
    s = +lg[0]  # a new array for a row, the float itself for a float
    for j, (a, _) in enumerate(params.upper, 1):
        s += math.lgamma(a.real) - lg[j]
    for j, (b, _) in enumerate(params.lower, 1 + params.p):
        s += lg[j] - math.lgamma(b.real)
    return s


def _log_rho_vec(params: FWParams, ks: np.ndarray) -> np.ndarray:
    """log rho at each real k: one log_gamma_vec call, its rows added by _log_rho_rows.

    The offsets and weights of the arguments k+1, a+kA, b+kB are the
    column table's, reshaped for k of any dimension.
    """
    kf = np.atleast_1d(ks).astype(float)
    cache = _column_cache(params)
    col = (-1,) + (1,) * kf.ndim
    args = cache.off.reshape(col) + cache.wt.reshape(col) * kf
    return _log_rho_rows(params, log_gamma_vec(args).real)


def rho(model: CoherentModel, k: float) -> float:
    """Parameter function rho(k), real finite k >= 0; raises when it leaves the float range."""
    lr = log_rho(model, k)
    if lr > _LOG_FLOAT_MAX:
        raise OverflowError(
            f"rho({k}) = exp({lr:.1f}) overflows float64; use log_rho"
        )
    return math.exp(lr)


def f_factor(model: CoherentModel, s: int | np.ndarray) -> float | np.ndarray:
    """Ladder factor f(s) = sqrt[(s+1) prod ratios], from the gamma-ratio form.

    s may be an array; the result is then a float array of its shape,
    each entry bit-identical to the scalar call.  Each ratio is
    log_gamma_ratio(c, C, s).real, for every pair from one
    _log_gamma_ratio_real call (one Lanczos pass, then float arithmetic
    on the real arguments a model has); math.log and math.exp run per
    entry.  s must be finite and >= 0; a gamma argument c + sC or
    c + (s+1)C past the float range raises OverflowError.
    """
    ss = np.asarray(s)
    ks = ss.ravel().tolist()
    try:
        if (ss < 0).any():
            raise ValidationError("s must be >= 0")
        bad = [v for v in ks if not math.isfinite(v)]
    except TypeError as exc:  # a complex s passes numpy's order test, not math.isfinite
        raise ValidationError(f"s must be a real number, got {s!r}") from exc
    if bad:
        raise ValidationError(f"s must be finite, got {float(bad[0])!r}")
    q = model.params.q
    pairs = [(c.real, C) for c, C in model.params.lower + model.params.upper]
    ratios = _log_gamma_ratio_real(pairs, ks) if pairs else []
    out = []
    for i, v in enumerate(ks):
        acc = math.log(v + 1.0)
        for r in ratios[:q]:
            acc += r[i]
        for r in ratios[q:]:
            acc -= r[i]
        out.append(math.exp(0.5 * acc))
    return out[0] if ss.ndim == 0 else np.array(out).reshape(ss.shape)


def recurrence_worst(model: CoherentModel, k_max: int = 100) -> float:
    """Worst relative gap of rho(k+1) = rho(k) f(k)^2 over k < k_max."""
    worst = 0.0
    for k, f in enumerate(f_factor(model, np.arange(k_max)).tolist()):
        delta = log_rho(model, k) + 2.0 * math.log(f) - log_rho(model, k + 1)
        worst = max(worst, abs(math.expm1(delta)))
    return worst


def _normalizations(model: CoherentModel, zetas: list[complex]) -> list[complex]:
    """N at each finite zeta of zetas, psi at the nonzero ones from one
    foxwright._psi call; the first error in the order of zetas is raised."""
    results = _psi(model.params, [zeta for zeta in zetas if zeta != 0])
    for res in results:
        if isinstance(res, Exception):
            raise res
    values = iter(results)
    pref = cmath.exp(_log_prefactor(model))
    # rho(0) = 1: the prefactor cancels the k=0 term exactly
    return [pref * next(values).value if zeta != 0 else 1.0 + 0j for zeta in zetas]


def normalization_at(model: CoherentModel, zeta: complex) -> complex:
    """N extended to complex argument by the same series."""
    return _normalizations(model, [_check_finite_complex(zeta, "zeta")])[0]


def normalization(model: CoherentModel, zeta: float) -> float:
    """N(zeta) = sum_k zeta^k / rho(k) for zeta >= 0."""
    zeta = _check_finite_real(zeta, "zeta")
    if zeta < 0:
        raise ValidationError("normalization argument must be >= 0")
    return normalization_at(model, zeta).real


def make_state(model: CoherentModel, z: complex, tail_target: float = 1e-12) -> StateVector:
    """Truncated coefficient vector of |z>, auto-extended to the tail target.

    K doubles geometrically from the model's K until the missing
    probability mass 1 - sum |c_k|^2 drops below tail_target, capped at
    K_MAX.
    """
    if not _check_real(tail_target, "tail_target") >= 0:  # NaN fails this test too
        raise ValidationError("tail_target must be >= 0")
    z = _check_finite_complex(z, "z")
    zeta = _squared_modulus(z, "z")
    log_n = math.log(normalization(model, zeta))
    pref = math.exp(-0.5 * log_n)

    K = model.K
    if z == 0:
        coeffs = (1.0 + 0j,) + (0j,) * K
        return StateVector(coeffs=coeffs, norm_prefactor=pref, z=z, tail_mass=0.0)

    log_zeta = _log_squared_modulus(z, zeta)
    while True:
        ks = np.arange(K + 1)
        log_rho_k = _log_rho_rows(model.params, log_gamma_rows(model.params, K + 1).real)
        with np.errstate(under="ignore"):
            probs = np.exp(ks * log_zeta - log_rho_k - log_n)
        tail = max(1.0 - float(probs.sum()), 0.0)
        if tail <= tail_target:
            break
        if K >= K_MAX:
            raise TruncationError(
                f"tail mass {tail:.3g} above target {tail_target:g} at K={K}"
            )
        K = min(2 * K, K_MAX)

    log_z = cmath.log(z)
    with np.errstate(under="ignore"):
        coeffs = np.exp(ks * log_z - 0.5 * log_rho_k - 0.5 * log_n)
    return StateVector(
        coeffs=tuple(coeffs.tolist()),
        norm_prefactor=pref,
        z=z,
        tail_mass=tail,
    )


def overlap(model: CoherentModel, z: complex, zp: complex) -> complex:
    """<z|z'> = N(conj(z) z') / sqrt(N(|z|^2) N(|z'|^2)), the three N in one block pass.

    z and z' must be finite, and so must conj(z) z'.  Each N has the
    bits of its own series sum, and the first error in the order
    N(conj(z) z'), N(|z|^2), N(|z'|^2) is raised, so the result and any
    error are those of the three normalizations taken one after another;
    a |z|^2 past the float range raises after the sums before it.
    """
    z = _check_finite_complex(z, "z")
    zp = _check_finite_complex(zp, "zp")
    zetas = [_check_finite_complex(z.conjugate() * zp, "conj(z) zp")]
    try:
        for w, what in ((z, "z"), (zp, "zp")):
            zetas.append(_squared_modulus(w, what))
    finally:
        values = _normalizations(model, zetas)
    num, n1, n2 = values[0], float(values[1].real), float(values[2].real)
    den = math.sqrt(n1 * n2)
    if math.isinf(den):
        # N1 * N2 can overflow although each factor fits
        den = math.sqrt(n1) * math.sqrt(n2)
    return num / den


def ladder_elements(model: CoherentModel, k: int) -> tuple[float, float, float, float]:
    """(f(k-1), f(k), f(k)^2, f(k-1)^2) with f(-1) = 0: the diagonal ladder data.

    k must be a whole number >= 0; integral floats such as 4.0 are taken.
    """
    k = _whole_number(k, "k", 0)
    fs = f_factor(model, np.arange(max(k - 1, 0), k + 1)).tolist()
    f_up = fs[-1]
    f_down = fs[0] if k > 0 else 0.0
    return (f_down, f_up, f_up * f_up, f_down * f_down)


def annihilation_residual(model: CoherentModel, state: StateVector) -> float:
    """l2 norm of (A- c)_k - z c_k over rows fully inside the truncation.

    (A- c)_k = f(k) c_{k+1}; rows k = 0 .. K-1 use only stored
    coefficients, so the residual measures the eigenstate property, not
    the truncation cut.
    """
    K = len(state.coeffs) - 1
    if K == 0:
        return 0.0
    c = np.asarray(state.coeffs)
    fs = f_factor(model, np.arange(K))
    r = fs * c[1:] - state.z * c[:-1]
    return float(np.linalg.norm(r))


def photon_distribution(state: StateVector) -> list[float]:
    """|c_k|^2 occupation probabilities; sums to 1 - tail_mass."""
    return [abs(c) ** 2 for c in state.coeffs]


# -- bicomplex counterparts ---------------------------------------------


@dataclass(frozen=True)
class BCCoherentModel:
    params: BCFWParams
    K: int = 32
    _components: tuple[CoherentModel, CoherentModel] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        comps = componentwise(CoherentModel, self.params, self.K)
        object.__setattr__(self, "_components", comps)

    def decompose(self) -> tuple[CoherentModel, CoherentModel]:
        return self._components

    def component_model(self, p: int) -> CoherentModel:
        if p not in (1, 2):
            raise ValidationError("component index must be 1 or 2")
        return self._components[p - 1]


def rho_b(model: BCCoherentModel, k: int) -> Hyperbolic:
    return Hyperbolic(*componentwise(rho, model, k))


def log_rho_b(model: BCCoherentModel, k: int) -> Hyperbolic:
    return Hyperbolic(*componentwise(log_rho, model, k))


def f_b(model: BCCoherentModel, s: int) -> Hyperbolic:
    return Hyperbolic(*componentwise(f_factor, model, s))


def normalization_b(model: BCCoherentModel, W) -> "Hyperbolic | Bicomplex":
    """Per-component normalization; hyperbolic in (D+), hyperbolic out."""
    if isinstance(W, Hyperbolic):
        return Hyperbolic(*componentwise(normalization, model, W))
    return Bicomplex(*componentwise(normalization_at, model, Bicomplex.of(W)))


def make_state_b(model: BCCoherentModel, Z: Bicomplex, tail_target: float = 1e-12) -> BCStateVector:
    Z = Bicomplex.of(Z)
    return BCStateVector(components=componentwise(make_state, model, Z, tail_target), z=Z)


def overlap_b(model: BCCoherentModel, Z: Bicomplex, Zp: Bicomplex) -> Bicomplex:
    """<Z|Z'> with conj per component, so overlap_b(Z, Z) = 1 exactly in structure."""
    return Bicomplex(*componentwise(overlap, model, Bicomplex.of(Z), Bicomplex.of(Zp)))
