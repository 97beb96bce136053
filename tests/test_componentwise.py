"""Every bicomplex entry point is the complex routine run per idempotent component.

For each entry point: the value in each component is bit-equal to the
complex routine on that component's model and argument, and an input
that fails only in component 2 raises the complex routine's exception
type with a "component 2: " prefix.
"""

import warnings

import pytest

from fwstates.bicomplex import Bicomplex, Hyperbolic, pow_real
from fwstates.coherent import (
    BCCoherentModel,
    BCStateVector,
    StateVector,
    f_b,
    f_factor,
    log_rho,
    log_rho_b,
    make_state,
    make_state_b,
    normalization,
    normalization_at,
    normalization_b,
    overlap,
    overlap_b,
    rho,
    rho_b,
)
from fwstates.continuum import nu, nu_bicomplex
from fwstates.errors import DomainError, PoleError, ValidationError
from fwstates.foxwright import EvalResult, evaluate
from fwstates.foxwright_bc import BCFWParams
from fwstates.foxwright_bc import evaluate as evaluate_bc
from fwstates.gammafn import gamma, gamma_bicomplex
from fwstates.hfunction import measure_density, measure_density_b

H = Hyperbolic

# component 2 carries the heavier weights, so large orders and large
# arguments overflow there first
HEAVY = BCCoherentModel(
    BCFWParams(
        upper=[(Bicomplex(1.0, 1.0), H(1.0, 3.0))],
        lower=[(Bicomplex(2.0, 2.0), H(0.5, 3.0))],
    )
)
# margins 1.5 and 3: f(s) ~ s^(margin/2) overflows at s = 1e300 in component 2 only
STEEP = BCCoherentModel(BCFWParams(upper=[], lower=[(Bicomplex(2.0, 2.0), H(0.5, 2.0))]))
# component 2 has b = B, so its measure density has no limit at x = 0
EDGE = BCCoherentModel(BCFWParams(upper=[], lower=[(Bicomplex(2.0, 1.0), H(1.0, 1.0))]))
ENTIRE = BCFWParams(
    upper=[(Bicomplex(1.5, 1.2), H(1.0, 1.0))], lower=[(Bicomplex(1.0, 2.0), H(1.0, 1.0))]
)
Z = Bicomplex(0.4 + 0.3j, 1.1 - 0.2j)
ZP = Bicomplex(0.9 - 0.1j, 0.3 + 0.5j)
W = H(0.5, 1.7)

# name: (bicomplex routine, complex routine, args, args failing in component 2, error)
CASES = {
    "rho_b": (rho_b, rho, (HEAVY, 7), (HEAVY, 200), OverflowError),
    "log_rho_b": (log_rho_b, log_rho, (HEAVY, 7), (HEAVY, 10**305), OverflowError),
    "f_b": (f_b, f_factor, (STEEP, 3), (STEEP, 10**300), OverflowError),
    "normalization_b-hyperbolic": (
        normalization_b, normalization, (HEAVY, W), (HEAVY, H(0.5, 1e6)), OverflowError
    ),
    "normalization_b-bicomplex": (
        normalization_b, normalization_at, (HEAVY, Z), (HEAVY, Bicomplex(0.5, 1e6)), OverflowError
    ),
    "make_state_b": (
        make_state_b, make_state, (HEAVY, Z), (HEAVY, Bicomplex(0.5, 1e3)), OverflowError
    ),
    "overlap_b": (
        overlap_b, overlap, (HEAVY, Z, ZP), (HEAVY, Bicomplex(0.5, 1e3), ZP), OverflowError
    ),
    "nu_bicomplex": (nu_bicomplex, nu, (HEAVY, W), (HEAVY, H(0.5, 1e30)), OverflowError),
    "measure_density_b": (
        measure_density_b, measure_density, (HEAVY, W), (EDGE, H(0.5, 0.0)), DomainError
    ),
    "evaluate_bc": (evaluate_bc, evaluate, (ENTIRE, Z), (ENTIRE, Bicomplex(0.5, 1e6)), OverflowError),
    "gamma_bicomplex": (gamma_bicomplex, gamma, (Z,), (Bicomplex(2.0, -1.0),), PoleError),
}


def _component(arg, p):
    """Component p of one argument, split by hand."""
    if isinstance(arg, BCCoherentModel):
        return arg.component_model(p)
    if isinstance(arg, BCFWParams):
        return arg.component_params(p)
    if isinstance(arg, Bicomplex):
        return (arg.z1, arg.z2)[p - 1]
    if isinstance(arg, Hyperbolic):
        return (arg.c1, arg.c2)[p - 1]
    return arg


def _pair(value):
    if isinstance(value, BCStateVector):
        return value.components
    if isinstance(value, Bicomplex):
        return (value.z1, value.z2)
    return (value.c1, value.c2)


def _bits(value):
    """repr that round-trips every float, numpy scalar or not."""
    if isinstance(value, EvalResult):
        value = value.value
    return repr(value) if isinstance(value, StateVector) else repr(complex(value))


@pytest.mark.parametrize("name", list(CASES))
def test_entry_point_is_componentwise(name):
    bc_fn, fn, args, bad, error = CASES[name]
    got = _pair(bc_fn(*args))
    for p in (1, 2):
        ref = fn(*(_component(a, p) for a in args))
        assert _bits(got[p - 1]) == _bits(ref)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fn(*(_component(a, 1) for a in bad))  # component 1 alone succeeds
        with pytest.raises(error) as ref_exc:
            fn(*(_component(a, 2) for a in bad))
        with pytest.raises(error, match="^component 2: ") as got_exc:
            bc_fn(*bad)
    assert type(got_exc.value) is type(ref_exc.value)
    assert str(got_exc.value) == f"component 2: {ref_exc.value}"


@pytest.mark.parametrize(
    "bc_fn, W, p",
    [
        (nu_bicomplex, H(0.5, -1.0), 2),
        (normalization_b, H(-0.5, 1.0), 1),
    ],
)
def test_argument_outside_dplus_names_component(bc_fn, W, p):
    # the complex routine rejects the negative component itself
    with pytest.raises(ValidationError, match=f"^component {p}: "):
        bc_fn(HEAVY, W)


@pytest.mark.parametrize(
    "call",
    [
        lambda X: nu_bicomplex(HEAVY, X),
        lambda X: measure_density_b(HEAVY, X),
        lambda X: pow_real(H(2.0, 3.0), X),
    ],
    ids=["nu_bicomplex", "measure_density_b", "pow_real"],
)
@pytest.mark.parametrize("X", [Bicomplex(1, 2), 0.5 + 1j, "x"], ids=repr)
def test_non_hyperbolic_argument_is_a_validation_error(call, X):
    # Hyperbolic.of(X) raised float()'s TypeError or ValueError here
    with pytest.raises(ValidationError, match="^c1 must be a real number, got "):
        call(X)


def test_nu_bicomplex_overflow_names_component():
    vacuum = BCCoherentModel(BCFWParams(upper=[], lower=[]))
    refusal = r"nu\(zeta\) is past the float range \(log-integrand peak {}\)$"
    outcomes = [
        # the range search refuses e^800 before either scheme integrates
        (800.0, "gk", OverflowError, refusal.format("711.3")),
        (800.0, "ts", OverflowError, refusal.format("711.3")),
        # e^711 passes it: every integrand value is finite, their sum is
        # not, and the one run, on the scaled integrand, refuses it
        (711.0, "gk", OverflowError, refusal.format("706.797")),
        (711.0, "ts", OverflowError, refusal.format("706.797")),
    ]
    for zeta, scheme, error, message in outcomes:
        # numpy's overflow warning must not leak: the error reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match=f"^component 2: {message}"):
                nu_bicomplex(vacuum, H(1.0, zeta), scheme=scheme)
