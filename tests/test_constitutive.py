"""Constitutive laws: hand values, derivative oracles, and sign properties."""

import inspect
import math

import numpy as np
import pytest

from radgas import constitutive, verify_suite
from radgas.constitutive import (
    GasParameters,
    conduction_potential,
    conductivity,
    constitutive_partials,
    entropy_eta,
    internal_energy,
    pressure,
    reaction_rate,
)
from radgas.errors import ConfigError


def params(**kw):
    return GasParameters(**kw)


def test_pressure_hand_values():
    assert pressure(params(R=1, a=1), 1.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert pressure(params(R=1, a=1), 2.0, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert pressure(params(R=1, a=3), 1.0, 2.0) == pytest.approx(18.0, rel=1e-15)


def test_internal_energy_hand_values():
    assert internal_energy(params(Cv=1, a=1), 1.0, 1.0) == pytest.approx(2.0)
    assert internal_energy(params(Cv=2, a=1), 1.0, 1.0) == pytest.approx(3.0)
    assert internal_energy(params(Cv=1, a=1), 3.0, 2.0) == pytest.approx(50.0)


def test_reaction_rate_hand_values():
    assert reaction_rate(params(K_react=1, A=1, beta=0), 1.0) == pytest.approx(math.exp(-1.0))
    assert reaction_rate(params(K_react=1, A=2, beta=1), 2.0) == pytest.approx(2.0 * math.exp(-1.0))
    # deep Arrhenius suppression underflows cleanly to zero
    assert reaction_rate(params(K_react=5, A=10, beta=0), 0.01) == 0.0


def test_conductivity_hand_values():
    assert conductivity(params(kappa1=1, kappa2=1, b=3), 1.0, 1.0) == pytest.approx(2.0)
    assert conductivity(params(kappa1=1, kappa2=2, b=3), 1.0, 2.0) == pytest.approx(17.0)
    assert conductivity(params(kappa1=0.5, kappa2=1, b=0), 7.0, 9.0) == pytest.approx(7.5)


def test_partials_hand_values():
    p_v, p_th, e_v, e_th = constitutive_partials(params(R=1, a=1, Cv=1), 1.0, 1.0)
    assert (p_v, p_th, e_v, e_th) == pytest.approx((-1.0, 1.0 + 4.0 / 3.0, 1.0, 5.0))
    p_v, p_th, e_v, e_th = constitutive_partials(params(R=1, a=1, Cv=1), 2.0, 1.0)
    assert (p_v, p_th, e_v, e_th) == pytest.approx((-0.25, 0.5 + 4.0 / 3.0, 1.0, 9.0))


def test_partials_match_central_differences():
    """Analytic derivatives agree with a finite-difference oracle at 1e3 points, and
    verify's array form of the oracle reports the worst mismatch this loop finds."""
    gp = params(R=1.7, Cv=0.9, a=0.4)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 10.0, size=(1000, 2))
    h = 1e-6
    worst = 0.0
    for v, th in pts:
        p_v, p_th, e_v, e_th = constitutive_partials(gp, v, th)
        fd_pv = (pressure(gp, v + h, th) - pressure(gp, v - h, th)) / (2 * h)
        fd_pth = (pressure(gp, v, th + h) - pressure(gp, v, th - h)) / (2 * h)
        fd_ev = (internal_energy(gp, v + h, th) - internal_energy(gp, v - h, th)) / (2 * h)
        fd_eth = (internal_energy(gp, v, th + h) - internal_energy(gp, v, th - h)) / (2 * h)
        assert p_v == pytest.approx(fd_pv, rel=1e-5)
        assert p_th == pytest.approx(fd_pth, rel=1e-5)
        assert e_v == pytest.approx(fd_ev, rel=1e-5, abs=1e-8)
        assert e_th == pytest.approx(fd_eth, rel=1e-5)
        for exact, approx in ((p_v, fd_pv), (p_th, fd_pth), (e_v, fd_ev), (e_th, fd_eth)):
            worst = max(worst, abs(exact - approx) / max(1.0, abs(exact)))
    assert verify_suite._check_partials_fd(gp, np.random.default_rng(7)) == (
        True, f"max relative mismatch {worst:.2e} (tol 1e-5)")


def test_entropy_hand_values():
    gp = params(Cv=1, R=1, a=2)
    assert entropy_eta(gp, 1.0, 1.0) == 0.0
    assert entropy_eta(gp, math.e, 1.0) == pytest.approx(math.e - 2.0, rel=1e-14)
    gp = params(Cv=1, R=1, a=3)
    assert entropy_eta(gp, 1.0, 2.0) == pytest.approx(1.0 - math.log(2.0) + 17.0, rel=1e-14)


def test_entropy_nonnegative_and_zero_only_at_rest():
    gp = params(Cv=0.8, R=1.3, a=0.6)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 10.0, size=(10000, 2))
    vals = entropy_eta(gp, pts[:, 0], pts[:, 1])
    assert np.min(vals) >= 0.0
    off_rest = np.abs(pts[:, 0] - 1.0) + np.abs(pts[:, 1] - 1.0) > 1e-3
    assert np.min(vals[off_rest]) > 0.0


def test_conduction_potential_hand_values():
    assert conduction_potential(params(kappa1=1, kappa2=1, b=3), 1.0, 1.0) == pytest.approx(1.25)
    assert conduction_potential(params(kappa1=2, kappa2=4, b=1), 2.0, 1.0) == pytest.approx(3.0)


def test_conduction_potential_matches_quadrature():
    """Composite Simpson over kappa(v, .)/v reproduces the closed form to 1e-8."""
    gp = params(kappa1=0.7, kappa2=1.9, b=2.6)
    rng = np.random.default_rng(3)
    for v, th in rng.uniform(0.1, 10.0, size=(25, 2)):
        n = 10000
        xs = np.linspace(0.0, th, 2 * n + 1)
        ys = np.empty_like(xs)
        ys[0] = gp.kappa1 / v  # theta -> 0 limit of kappa/v for b > 0
        ys[1:] = conductivity(gp, v, xs[1:]) / v
        h = th / (2 * n)
        simpson = h / 3.0 * (ys[0] + 4 * np.sum(ys[1::2]) + 2 * np.sum(ys[2:-1:2]) + ys[-1])
        assert conduction_potential(gp, v, th) == pytest.approx(simpson, rel=1e-8)


def test_conduction_potential_monotone_in_theta():
    gp = params(kappa1=0.5, kappa2=2.0, b=4.0)
    rng = np.random.default_rng(5)
    for v in rng.uniform(0.1, 10.0, 50):
        t1, t2 = sorted(rng.uniform(0.1, 10.0, 2))
        if t1 == t2:
            continue
        assert conduction_potential(gp, v, t2) > conduction_potential(gp, v, t1)


def test_positivity_on_open_quadrant():
    gp = params()
    rng = np.random.default_rng(13)
    pts = rng.uniform(1e-3, 20.0, size=(2000, 2))
    assert np.all(pressure(gp, pts[:, 0], pts[:, 1]) > 0)
    assert np.all(internal_energy(gp, pts[:, 0], pts[:, 1]) > 0)
    assert np.all(conductivity(gp, pts[:, 0], pts[:, 1]) >= gp.kappa1)
    assert np.all(conduction_potential(gp, pts[:, 0], pts[:, 1]) > 0)


def test_domain_errors_on_nonpositive_inputs():
    gp = params()
    for fn in (pressure, internal_energy, conductivity, conduction_potential,
               entropy_eta):
        with pytest.raises(ValueError):
            fn(gp, -1.0, 1.0)
        with pytest.raises(ValueError):
            fn(gp, 1.0, 0.0)
    with pytest.raises(ValueError):
        reaction_rate(gp, 0.0)
    with pytest.raises(ValueError):
        constitutive_partials(gp, 0.0, 1.0)


LAWS = [getattr(constitutive, name) for name in constitutive.__all__
        if inspect.isfunction(getattr(constitutive, name))]


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.__name__)
def test_every_law_refuses_nan_and_negative_infinity(law, bad):
    """Every public law runs the one quadrant guard, so a NaN, on a scalar or
    inside an array, raises instead of passing through to the result."""
    names = list(inspect.signature(law).parameters)[1:]
    quantity = {"v": "specific volume", "theta": "temperature"}
    for i, name in enumerate(names):
        for value in (bad, np.array([1.0, bad, 2.0])):
            args = [1.0] * len(names)
            args[i] = value
            with pytest.raises(ValueError, match=f"^{quantity[name]} must be strictly positive$"):
                law(params(), *args)


def test_kernels_equal_public_functions():
    """The integrator's unguarded kernels give the public functions' bits, and the
    splits of the heat loop give the laws back."""
    gp = params(R=0.7, Cv=1.4, a=0.8, kappa1=0.6, kappa2=1.3, b=1.8, K_react=2.0, A=1.5,
                beta=9.8)
    rng = np.random.default_rng(23)
    v, _, t1 = rng.uniform(0.05, 20.0, size=(3, 1000))
    cu = t1**3
    p_v, p_theta, _, e_theta = constitutive_partials(gp, v, t1)
    pairs = (
        (constitutive._pressure(gp, v, t1), pressure(gp, v, t1)),
        (constitutive._conductivity(gp, v, t1), conductivity(gp, v, t1)),
        (constitutive._reaction_rate(gp, t1), reaction_rate(gp, t1)),
        (constitutive._p_v(gp, v, t1), p_v),
        (constitutive._p_theta(gp, v, cu), p_theta),
        (constitutive._e_theta(gp, v, cu), e_theta),
    )
    for kernel, public in pairs:
        assert np.array_equal(kernel, public)

    # The splits the heat loop holds one part of fixed give the laws back: bit for
    # bit as each law is built from them, and within a few ulps as the loop
    # regroups them (both parts have one sign, so nothing cancels)
    scale = rng.uniform(-3.0, 3.0, 1000)
    rise = constitutive._conductivity_rise(gp, t1)
    c0, c3 = constitutive._p_theta_factors(gp, v, scale)
    av, e0 = constitutive._energy_chord_factors(gp, v, cu)
    assert np.array_equal(gp.K_react * constitutive._arrhenius(gp, t1), reaction_rate(gp, t1))
    assert np.array_equal(gp.kappa1 + v * rise, conductivity(gp, v, t1))
    rounded = (
        (gp.kappa1 / v + rise, conductivity(gp, v, t1) / v),
        (c0 + c3 * cu, scale * p_theta),
        (constitutive._energy_theta_chord(av, e0, t1, t1, cu), e_theta),
    )
    for split, law in rounded:
        assert np.all(np.abs(split - law) <= 4 * np.finfo(float).eps * np.abs(law))


def energy_theta_chord(gp, v, t0, t1):
    av, e0 = constitutive._energy_chord_factors(gp, v, t0**3)
    return constitutive._energy_theta_chord(av, e0, t0, t1, t1**3)


def test_energy_chord_matches_secant_and_slope():
    gp = params(Cv=1.4, a=0.8)
    rng = np.random.default_rng(17)
    for v, t0, t1 in rng.uniform(0.2, 5.0, size=(200, 3)):
        chord = energy_theta_chord(gp, v, t0, t1)
        secant = (internal_energy(gp, v, t1) - internal_energy(gp, v, t0)) / (t1 - t0)
        assert chord == pytest.approx(secant, rel=1e-9)
        slope = constitutive_partials(gp, v, t0)[3]
        assert energy_theta_chord(gp, v, t0, t0) == pytest.approx(slope, rel=1e-14)


def test_operations_are_pure():
    gp = params()
    a = pressure(gp, 1.37, 2.21)
    b = pressure(gp, 1.37, 2.21)
    assert a == b


def test_parameter_validation():
    with pytest.raises(ConfigError):
        GasParameters(R=-1.0)
    with pytest.raises(ConfigError):
        GasParameters(beta=-0.5)
    with pytest.raises(ConfigError):
        GasParameters(mu=0.0)
