"""Constitutive laws of the radiative reacting gas and their derivatives.

Pressure and internal energy combine an ideal-gas part with a fourth-power
radiation part; heat conduction grows like a power of temperature; the
reaction rate follows an Arrhenius law.  Everything here is a pure function
of (parameters, v, theta): no floors, no clipping, valid on the open
quadrant v > 0, theta > 0.  Every public law checks its arguments with the
one quadrant guard, ``_check_quadrant``, which refuses a NaN as well as a
value <= 0 with ValueError.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

__all__ = [
    "GasParameters",
    "pressure",
    "internal_energy",
    "reaction_rate",
    "conductivity",
    "constitutive_partials",
    "entropy_eta",
    "conduction_potential",
]


@dataclass(frozen=True)
class GasParameters:
    """Physical constants of the model.

    All constants are strictly positive except the rate exponent ``beta``
    (nonnegative) and the conductivity exponent ``b`` (nonnegative).  ``lam``
    is the reaction heat release (written ``lambda`` in config files).
    """

    R: float = 1.0
    Cv: float = 1.0
    a: float = 1.0
    mu: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    b: float = 3.0
    d: float = 1.0
    lam: float = 1.0
    K_react: float = 1.0
    A: float = 1.0
    beta: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ConfigError(f"parameter {f.name} must be finite, got {value!r}")
        strictly_positive = ("R", "Cv", "a", "mu", "kappa1", "kappa2", "d", "lam", "K_react", "A")
        for name in strictly_positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"parameter {name} must be > 0, got {getattr(self, name)}")
        if self.b < 0:
            raise ConfigError(f"conductivity exponent b must be >= 0, got {self.b}")
        if self.beta < 0:
            raise ConfigError(f"rate exponent beta must be >= 0, got {self.beta}")


def _check_positive(x, name):
    # written so that a NaN fails the test
    if not (np.asarray(x) > 0.0).all():
        raise ValueError(f"{name} must be strictly positive")


def _check_quadrant(v, theta):
    _check_positive(v, "specific volume")
    _check_positive(theta, "temperature")


# Unguarded kernels: one body per law.  The public functions below check the
# quadrant and call them; the integrator checks once per substep and calls
# them directly.  A power of theta that several laws share is passed in
# (theta_cu = theta**3) so a caller computes it once.
#
# The heat substep holds v fixed and iterates on theta.  A law it evaluates
# in every Picard sweep is therefore written as a part fixed by v (and the
# other frozen fields) and a part of the iterate alone: the helper next to
# the law gives the fixed part once per substep, and the law itself is built
# from the same split, so each law keeps one body.


def _pressure(params, v, theta):
    return params.R * theta / v + params.a * theta**4 / 3.0


def _arrhenius(params, theta):
    # The theta factor of the reaction rate: rate = K_react * _arrhenius
    return theta**params.beta * np.exp(-params.A / theta)


def _reaction_rate(params, theta):
    return params.K_react * _arrhenius(params, theta)


def _conductivity_rise(params, theta):
    # The part of conductivity / v that moves with theta:
    # conductivity(v, theta) = kappa1 + v * _conductivity_rise(theta)
    return params.kappa2 * theta**params.b


def _conductivity(params, v, theta):
    return params.kappa1 + v * _conductivity_rise(params, theta)


def _p_v(params, v, theta):
    return -params.R * theta / v**2


def _p_theta_factors(params, v, scale):
    # (c0, c3) with scale * p_theta(v, theta) = c0 + c3 * theta**3, for any
    # scale (an array too) that is fixed with v
    return params.R * scale / v, 4.0 * params.a / 3.0 * scale


def _p_theta(params, v, theta_cu):
    c0, c3 = _p_theta_factors(params, v, 1.0)
    return c0 + c3 * theta_cu


def _e_theta(params, v, theta_cu):
    return params.Cv + 4.0 * params.a * v * theta_cu


def _energy_chord_factors(params, v, theta0_cu):
    # (a v, Cv + a v theta0^3): the parts of the energy chord fixed by v and theta0
    av = params.a * v
    return av, params.Cv + av * theta0_cu


def _energy_theta_chord(av, e0, theta0, theta1, theta1_cu):
    # Exact secant slope (e(v,theta1) - e(v,theta0))/(theta1 - theta0), equal to
    # e_theta when the two coincide; strictly positive, so the heat solve is well
    # posed.  With (av, e0) from _energy_chord_factors it is
    # Cv + a v (theta1^3 + theta1^2 theta0 + theta1 theta0^2 + theta0^3).
    return e0 + av * (theta1_cu + theta1 * theta0 * (theta1 + theta0))


def pressure(params: GasParameters, v, theta):
    """Total pressure R*theta/v + a*theta^4/3."""
    _check_quadrant(v, theta)
    return _pressure(params, v, theta)


def internal_energy(params: GasParameters, v, theta):
    """Specific internal energy Cv*theta + a*v*theta^4."""
    _check_quadrant(v, theta)
    return params.Cv * theta + params.a * v * theta**4


def reaction_rate(params: GasParameters, theta):
    """Arrhenius rate K*theta^beta*exp(-A/theta).

    Underflow of the exponential for tiny theta returns exactly 0, which is
    the correct physical limit.
    """
    _check_positive(theta, "temperature")
    return _reaction_rate(params, theta)


def conductivity(params: GasParameters, v, theta):
    """Thermal conductivity kappa1 + kappa2*v*theta^b (bounded below by kappa1)."""
    _check_quadrant(v, theta)
    return _conductivity(params, v, theta)


def constitutive_partials(params: GasParameters, v, theta):
    """Partial derivatives (p_v, p_theta, e_v, e_theta) of pressure and energy.

    e_theta = Cv + 4*a*v*theta^3 is strictly positive, which keeps the
    implicit heat solve well posed.
    """
    _check_quadrant(v, theta)
    theta_cu = theta**3
    e_v = params.a * theta**4
    return _p_v(params, v, theta), _p_theta(params, v, theta_cu), e_v, _e_theta(params, v, theta_cu)


def entropy_eta(params: GasParameters, v, theta):
    """Relative-entropy density, zero exactly at the rest state (v, theta) = (1, 1).

    Sum of a temperature term Cv*(theta - ln theta - 1), a volume term
    R*(v - ln v - 1), and a radiation term (a/3)*v*(theta-1)^2*(3theta^2+2theta+1);
    each summand is nonnegative.
    """
    _check_quadrant(v, theta)
    thermal = params.Cv * (theta - np.log(theta) - 1.0)
    volume = params.R * (v - np.log(v) - 1.0)
    radiation = params.a / 3.0 * v * (theta - 1.0) ** 2 * (3.0 * theta**2 + 2.0 * theta + 1.0)
    return thermal + volume + radiation


def conduction_potential(params: GasParameters, v, theta):
    """Antiderivative in theta of conductivity(v, .)/v.

    Equals kappa1*theta/v + kappa2*theta^(b+1)/(b+1); strictly increasing
    in theta for fixed v.
    """
    _check_quadrant(v, theta)
    return params.kappa1 * theta / v + params.kappa2 * theta ** (params.b + 1.0) / (params.b + 1.0)
