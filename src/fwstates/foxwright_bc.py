"""Bicomplex Fox-Wright function: nine-case convergence classifier and evaluation.

With hyperbolic weights M_i, N_j (both idempotent components strictly
positive) the series behaves independently in each idempotent component,
and each component is an ordinary complex Fox-Wright series with margin
Upsilon_p + 1 where Upsilon = sum N - sum M.  The sign pattern of
(Upsilon_1 + 1, Upsilon_2 + 1) therefore selects one of nine convergence
domains, from all of BC^2 down to the single point 0.

On the finite-radius circles the boundary exponent

    lambda_p = sum_j nu_pj - sum_i mu_pi - (n - m)/2

decides absolute convergence: both components need Re(lambda_p) > 1/2,
which in cartesian form reads Re(Lambda_1) - 1/2 > |Im(Lambda_2)|.

BCFWParams keeps its two complex components (the FWParams each
idempotent component sees).  The classifier takes each component's
margin sign, radius and boundary exponent from `foxwright`.  evaluate
runs the complex series per component through `bicomplex.componentwise`,
so the complex domain rules apply to each component as they stand; the
one bicomplex rule is the rejection of a mixed boundary point of the
hyperbolic ball.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .bicomplex import Bicomplex, Hyperbolic, _check_real, componentwise
from .errors import DomainViolation, ValidationError
from .foxwright import (
    CLASSIFY_TOL,
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    FWParams,
    _circle_side,
    _radius_for_sign,
    _whole_number,
    boundary_exponent,
    margin_sign,
    radius,
)
from .foxwright import evaluate as evaluate_complex


class Domain(enum.Enum):
    ENTIRE_BC = "EntireBC"
    DISK1_PLANE2 = "Disk1xPlane2"
    PLANE1_DISK2 = "Plane1xDisk2"
    DISK1_ZERO2 = "Disk1xZero2"
    ZERO1_DISK2 = "Zero1xDisk2"
    PLANE1_ZERO2 = "Plane1xZero2"
    ZERO1_PLANE2 = "Zero1xPlane2"
    HYPERBOLIC_BALL = "HyperbolicBall"
    DIVERGENT = "DivergentEverywhere"


_DOMAIN_BY_SIGNS = {
    (1, 1): Domain.ENTIRE_BC,
    (0, 1): Domain.DISK1_PLANE2,
    (1, 0): Domain.PLANE1_DISK2,
    (0, -1): Domain.DISK1_ZERO2,
    (-1, 0): Domain.ZERO1_DISK2,
    (1, -1): Domain.PLANE1_ZERO2,
    (-1, 1): Domain.ZERO1_PLANE2,
    (0, 0): Domain.HYPERBOLIC_BALL,
    (-1, -1): Domain.DIVERGENT,
}


@dataclass(frozen=True)
class BCFWParams:
    """Upper ((mu_i, M_i)) and lower ((nu_j, N_j)) bicomplex parameter lists."""

    upper: tuple[tuple[Bicomplex, Hyperbolic], ...]
    lower: tuple[tuple[Bicomplex, Hyperbolic], ...]
    _components: tuple[FWParams, FWParams] = field(init=False, repr=False, compare=False)

    def __init__(self, upper=(), lower=()):
        object.__setattr__(self, "upper", _normalize_bc_pairs(upper, "upper"))
        object.__setattr__(self, "lower", _normalize_bc_pairs(lower, "lower"))
        # per-component restriction must give two valid complex parameter sets
        comps = tuple(
            FWParams(
                upper=[(mu.decompose()[i], M.decompose()[i]) for mu, M in self.upper],
                lower=[(nu.decompose()[i], N.decompose()[i]) for nu, N in self.lower],
            )
            for i in (0, 1)
        )
        object.__setattr__(self, "_components", comps)

    @classmethod
    def from_components(cls, p1: FWParams, p2: FWParams) -> "BCFWParams":
        """Parameters whose idempotent components are p1 and p2 (same shape)."""
        if (p1.p, p1.q) != (p2.p, p2.q):
            raise ValidationError("component parameter lists must have equal lengths")

        def join(pairs1, pairs2):
            return [
                (Bicomplex(v1, v2), Hyperbolic(w1, w2))
                for (v1, w1), (v2, w2) in zip(pairs1, pairs2)
            ]

        return cls(join(p1.upper, p2.upper), join(p1.lower, p2.lower))

    def decompose(self) -> tuple[FWParams, FWParams]:
        return self._components

    def component_params(self, p: int) -> FWParams:
        """Complex FWParams seen by idempotent component p (1 or 2)."""
        if p not in (1, 2):
            raise ValidationError("component index must be 1 or 2")
        return self._components[p - 1]

    @classmethod
    def from_json(cls, obj: dict) -> "BCFWParams":
        try:
            upper = [
                (Bicomplex.from_json(e["value"]), Hyperbolic.from_json(e["weight"]))
                for e in obj["upper"]
            ]
            lower = [
                (Bicomplex.from_json(e["value"]), Hyperbolic.from_json(e["weight"]))
                for e in obj["lower"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad BCFWParams encoding: {exc}") from exc
        return cls(upper, lower)


def _normalize_bc_pairs(pairs, side):
    out = []
    for entry in pairs:
        try:
            value, weight = entry
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{side} entries must be (value, weight) pairs") from exc
        value = Bicomplex.of(value)
        if isinstance(weight, (int, float)):
            weight = Hyperbolic.from_scalar(weight)
        if not isinstance(weight, Hyperbolic):
            raise ValidationError(f"{side} weight must be hyperbolic, got {weight!r}")
        if not weight.strictly_positive():
            raise ValidationError(
                f"{side} weight must have both components > 0, got {weight!r}"
            )
        out.append((value, weight))
    return tuple(out)


@dataclass(frozen=True)
class ConvergenceReport:
    upsilon: Hyperbolic
    v_radius: tuple[float, float]  # effective per-component radius; inf allowed
    lambda_idem: tuple[complex, complex]
    lambda_cart: tuple[complex, complex]
    domain: Domain
    boundary_abs_convergent: bool

    def to_json(self) -> dict:
        def enc_r(v):
            return "inf" if math.isinf(v) else v

        def enc_c(c):
            return [c.real, c.imag]

        return {
            "upsilon": self.upsilon.to_json(),
            "v_radius": [enc_r(self.v_radius[0]), enc_r(self.v_radius[1])],
            "lambda_idem": [enc_c(self.lambda_idem[0]), enc_c(self.lambda_idem[1])],
            "lambda_cart": [enc_c(self.lambda_cart[0]), enc_c(self.lambda_cart[1])],
            "domain": self.domain.value,
            "boundary_abs_convergent": self.boundary_abs_convergent,
            "sign_tol": CLASSIFY_TOL,
        }


def classify(params: BCFWParams) -> ConvergenceReport:
    """Convergence report: Upsilon, effective radii, lambda, domain variant."""
    upsilon = Hyperbolic(0.0, 0.0)
    for _, N in params.lower:
        upsilon = upsilon + N
    for _, M in params.upper:
        upsilon = upsilon - M

    comps = params.decompose()
    signs = tuple(margin_sign(P) for P in comps)
    lam1, lam2 = (boundary_exponent(P) for P in comps)

    return ConvergenceReport(
        upsilon=upsilon,
        v_radius=tuple(_radius_for_sign(P, s) for P, s in zip(comps, signs)),
        lambda_idem=(lam1, lam2),
        lambda_cart=Bicomplex(lam1, lam2).cartesian,
        domain=_DOMAIN_BY_SIGNS[signs],
        boundary_abs_convergent=(lam1.real > 0.5 and lam2.real > 0.5),
    )


def contains_abs(report: ConvergenceReport, r1: float, r2: float) -> bool:
    """Strict membership test on idempotent magnitudes (|z1|, |z2|)."""
    for r, v in zip((r1, r2), report.v_radius):
        if not 0 <= r < math.inf:  # NaN fails this test too
            raise ValidationError("magnitudes must be finite and nonnegative")
        if math.isinf(v):
            continue
        if v == 0.0:
            if r != 0.0:
                return False
        elif r >= v:
            return False
    return True


def evaluate(
    params: BCFWParams,
    Z: Bicomplex,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    allow_boundary: bool = False,
) -> Bicomplex:
    """The complex series run on each idempotent component.

    Equals the direct bicomplex partial sums by the idempotent
    homomorphism.  Each component obeys the complex `evaluate` rules
    (outside, on the circle without allow_boundary, Re(lambda) <= 1/2),
    and its errors are prefixed with the component.  One rule is
    bicomplex: with allow_boundary, a point with both radii finite and
    nonzero, one component on its circle and the other inside, is
    rejected, as the boundary statement of the hyperbolic ball only
    covers the full sphere.
    """
    Z = Bicomplex.of(Z)
    if allow_boundary:
        radii = [radius(P) for P in params.decompose()]
        if all(0.0 < r < math.inf for r in radii):
            sides = sorted(_circle_side(abs(z), r) for z, r in zip(Z.decompose(), radii))
            if sides == [-1, 0]:
                raise DomainViolation(
                    "mixed boundary point of the hyperbolic ball (one component on its "
                    "circle, one inside) is not covered by the convergence theorem"
                )
    r1, r2 = componentwise(evaluate_complex, params, Z, tol, max_terms, allow_boundary)
    return Bicomplex(r1.value, r2.value)


@dataclass(frozen=True)
class GridSpec:
    r1_max: float
    r2_max: float
    n1: int = 21
    n2: int = 21

    def __post_init__(self):
        r1, r2, n1, n2 = (_check_real(getattr(self, f), f) for f in ("r1_max", "r2_max", "n1", "n2"))
        if not (0 <= r1 < math.inf and 0 <= r2 < math.inf) or n1 < 2 or n2 < 2:  # NaN fails too
            raise ValidationError("grid needs finite nonnegative extents and >= 2 points per axis")
        object.__setattr__(self, "n1", _whole_number(n1, "n1", 2))
        object.__setattr__(self, "n2", _whole_number(n2, "n2", 2))


def region_sample(params: BCFWParams, grid_spec: GridSpec) -> list[tuple[float, float, bool]]:
    """Deterministic membership grid over idempotent magnitudes, CSV-ready."""
    report = classify(params)
    rows = []
    for i in range(grid_spec.n1):
        r1 = grid_spec.r1_max * i / (grid_spec.n1 - 1)
        for j in range(grid_spec.n2):
            r2 = grid_spec.r2_max * j / (grid_spec.n2 - 1)
            rows.append((r1, r2, contains_abs(report, r1, r2)))
    return rows
