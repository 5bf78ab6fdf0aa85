"""Constitutive laws of the radiative reacting gas and their derivatives.

Pressure and internal energy combine an ideal-gas part with a fourth-power
radiation part; heat conduction grows like a power of temperature; the
reaction rate follows an Arrhenius law.  Everything here is a pure function
of (parameters, v, theta): no floors, no clipping, valid on the open
quadrant v > 0, theta > 0.
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


def _check_quadrant(v, theta):
    if np.any(np.asarray(v) <= 0.0):
        raise ValueError("specific volume must be strictly positive")
    if np.any(np.asarray(theta) <= 0.0):
        raise ValueError("temperature must be strictly positive")


def pressure(params: GasParameters, v, theta):
    """Total pressure R*theta/v + a*theta^4/3."""
    _check_quadrant(v, theta)
    return params.R * theta / v + params.a * theta**4 / 3.0


def internal_energy(params: GasParameters, v, theta):
    """Specific internal energy Cv*theta + a*v*theta^4."""
    _check_quadrant(v, theta)
    return params.Cv * theta + params.a * v * theta**4


def reaction_rate(params: GasParameters, theta):
    """Arrhenius rate K*theta^beta*exp(-A/theta).

    Underflow of the exponential for tiny theta returns exactly 0, which is
    the correct physical limit.
    """
    if np.any(np.asarray(theta) <= 0.0):
        raise ValueError("temperature must be strictly positive")
    return params.K_react * theta**params.beta * np.exp(-params.A / theta)


def conductivity(params: GasParameters, v, theta):
    """Thermal conductivity kappa1 + kappa2*v*theta^b (bounded below by kappa1)."""
    _check_quadrant(v, theta)
    return params.kappa1 + params.kappa2 * v * theta**params.b


def constitutive_partials(params: GasParameters, v, theta):
    """Partial derivatives (p_v, p_theta, e_v, e_theta) of pressure and energy.

    e_theta = Cv + 4*a*v*theta^3 is strictly positive, which keeps the
    implicit heat solve well posed.
    """
    _check_quadrant(v, theta)
    p_v = -params.R * theta / v**2
    p_theta = params.R / v + 4.0 * params.a * theta**3 / 3.0
    e_v = params.a * theta**4
    e_theta = params.Cv + 4.0 * params.a * v * theta**3
    return p_v, p_theta, e_v, e_theta


def energy_theta_chord(params: GasParameters, v, theta0, theta1):
    """Exact secant slope of internal energy in theta between theta0 and theta1.

    Cv + a*v*(theta1^3 + theta1^2*theta0 + theta1*theta0^2 + theta0^3), which
    is the polynomial identity for (e(v,theta1) - e(v,theta0))/(theta1 - theta0)
    and degenerates to e_theta when the two temperatures coincide.  Strictly
    positive, so implicit temperature updates stay well posed.
    """
    _check_quadrant(v, theta0)
    _check_quadrant(v, theta1)
    cubic = theta1**3 + theta1**2 * theta0 + theta1 * theta0**2 + theta0**3
    return params.Cv + params.a * v * cubic


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
