import json
import math
from fractions import Fraction as F

import pytest

from h3orbifold import modular
from h3orbifold.modular import (IdentityReport, _gauss_quadrature,
                                _gauss_value, character_value,
                                check_gauss_identity, eta, qdim_estimate)
from h3orbifold.qseries import character_terms


def test_eta_at_i_against_gamma_oracle():
    ref = math.gamma(0.25) / (2 * math.pi ** 0.75)
    assert abs(eta(1j) - ref) < 1e-12


def test_eta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        eta(-1j)
    with pytest.raises(ValueError):
        eta(0.5)


def test_eta_bounds_its_factor_count():
    # |q| rounds to 1: the product would never reach the floor
    with pytest.raises(OverflowError):
        eta(1e-20j)
    with pytest.raises(OverflowError):
        eta(1e-8j)


@pytest.mark.parametrize("t", [1e-6, 1e-9])
def test_euler_product_values_stop_at_overflow(t):
    # the product leaves the float range within a few dozen factors, where
    # the floor would take 69 / (2 pi t) of them
    with pytest.raises(OverflowError, match="finite range"):
        modular._inv_pochhammer_value(math.exp(-2 * math.pi * t))


def test_euler_product_values_bound_their_factor_count(monkeypatch):
    q = math.exp(-2 * math.pi)
    value = modular._inv_pochhammer_value(q, 1 / 3)
    assert math.isfinite(value) and value > 1
    monkeypatch.setattr(modular, "MAX_ETA_FACTORS", 10)
    with pytest.raises(OverflowError, match="more than 10 factors"):
        modular._inv_pochhammer_value(q, 1 / 3)


def test_eta_functional_equation():
    for t in (0.3, 0.5, 1.0, 2.0, 3.7, 0.11, 5.0, 0.77, 1.9, 2.71):
        tau = complex(0, t)
        lhs = eta(-1 / tau)
        rhs = (-1j * tau) ** 0.5 * eta(tau)
        assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_eta_small_t_asymptotics():
    for t in (0.05, 0.02):
        v = eta(complex(0, t)).real * math.sqrt(t) * math.exp(math.pi / (12 * t))
        assert abs(v - 1.0) < 1e-9


@pytest.mark.parametrize("tau", [0.5j, 1j, 2j])
@pytest.mark.parametrize("line", [1, 2, 3])
def test_gauss_identities(tau, line):
    rep = check_gauss_identity(line, tau, quadrature=True)
    assert rep.passed
    assert rep.rel_err <= 1e-9
    assert rep.quadrature_rel_err <= 1e-9


def test_gauss_lines_are_the_s3_classes():
    assert [s for *_, s in character_terms("S3")[1]] == [(1, 1, 1), (2, 1), (3,)]


def _gauss_identity_by_line(line, tau, tol, quadrature):
    """Oracle: the three identities written out one by one."""
    t = tau.imag
    if line == 1:
        lhs = 1.0 / eta(-1.0 / tau, tol) ** 3
        rhs = _gauss_value(t, 3) / eta(tau, tol) ** 3
    elif line == 2:
        lhs = 1.0 / (eta(-1.0 / tau, tol) * eta(-2.0 / tau, tol))
        rhs = (math.sqrt(2.0) * _gauss_value(t, 2)
               / (eta(tau, tol) * eta(tau / 2.0, tol)))
    else:
        lhs = 1.0 / eta(-3.0 / tau, tol)
        rhs = math.sqrt(3.0) * _gauss_value(t, 1) / eta(tau / 3.0, tol)
    rel = abs(lhs - rhs) / abs(lhs)
    quad_rel = None
    if quadrature:
        dims = [3, 2, 1][line - 1]
        quad = _gauss_quadrature(t, dims)
        quad_rel = abs(quad - _gauss_value(t, dims)) / quad
    return IdentityReport(f"gauss-eta-{line}", tau, lhs, rhs, rel, rel <= tol,
                          quad_rel)


@pytest.mark.parametrize("quadrature", [False, True])
@pytest.mark.parametrize("tau", [0.5j, 1j, 2j, 0.05j])
def test_gauss_identities_equal_the_written_out_lines_bit_for_bit(tau,
                                                                  quadrature):
    for line in (1, 2, 3):
        got = check_gauss_identity(line, tau, quadrature=quadrature)
        want = _gauss_identity_by_line(line, tau, modular.DEFAULT_TOL,
                                       quadrature)
        # json.dumps writes each float by repr, so the sign of a zero counts
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_gauss_identity_rejects_off_axis():
    with pytest.raises(ValueError):
        check_gauss_identity(1, 0.3 + 1j)
    with pytest.raises(ValueError):
        check_gauss_identity(4, 1j)


#: every module kind with the benchmark's nonzero highest-weight candidates
_VALUE_CASES = ([(kind, ()) for kind in ("orb", "sgn", "st", "vac")]
                + [("fock", w) for w in ((F(1, 2), F(1, 3), F(1, 4)), (1, 0, -1),
                                         (F(2, 3), F(-1, 5), F(3, 7)),
                                         (F(5, 3), F(2, 5), F(-1, 2)))]
                + [("theta", w) for w in ((F(1, 2), F(1, 3)), (1, -1),
                                          (F(-3, 4), 0), (F(5, 3), F(2, 5)))]
                + [("sigma", (w,)) for w in (F(1, 2), F(1, 3), -1, F(5, 3))])


def test_character_value_matches_series():
    # order 40 leaves a truncation error below 1e-14 even for sigma at
    # t = 0.25, where the lattice step is q^(1/3)
    from h3orbifold.qseries import module_character
    for kind, weights in _VALUE_CASES:
        series = module_character(kind, 40, weights)
        for t in (0.5, 0.25):
            q = math.exp(-2 * math.pi * t)
            series_val = sum(float(c) * q ** float(series.offset + F(k, series.D))
                             for k, c in series.coeffs.items())
            value = character_value(kind, t, weights)
            # a class sum cancels down from traces as large as the vacuum
            scale = character_value("vac", t) if not weights else abs(value)
            assert abs(series_val - value) <= 1e-12 * scale, (kind, weights, t)


def test_fock_zero_weights_equals_vacuum_character():
    for t in (0.3, 0.1):
        assert character_value("fock", t, (0, 0, 0)) == character_value("vac", t)


def test_qdim_finite_families():
    rep = qdim_estimate("fock", [0.1, 0.05, 0.02], weights=(0.5, 0.25, 0.125))
    assert rep.classification == "finite"
    assert abs(rep.limit_estimate - 6) <= 0.06
    for kind, target in (("sgn", 1.0), ("st", 2.0)):
        rep = qdim_estimate(kind, [0.1, 0.05, 0.02])
        assert rep.classification == "finite"
        assert abs(rep.limit_estimate - target) <= 0.01 * target
        assert abs(rep.ratios[-1] - target) <= 1e-6


def test_qdim_fock_ratios_bracket_and_increase():
    rep = qdim_estimate("fock", [0.2, 0.1, 0.05, 0.02, 0.01],
                        weights=(0.5, 0.25, 0.125))
    assert all(r < 6 for r in rep.ratios)
    assert rep.ratios == sorted(rep.ratios)


def test_qdim_divergent_families():
    th = qdim_estimate("theta", [0.1, 0.05, 0.02, 0.01], weights=(0, 0))
    assert th.classification == "divergent"
    assert abs(th.growth_exponent + 0.5) <= 0.05
    sg = qdim_estimate("sigma", [0.1, 0.05, 0.02, 0.01], weights=(0,))
    assert sg.classification == "divergent"
    assert abs(sg.growth_exponent + 1.0) <= 0.05


def test_qdim_input_validation():
    with pytest.raises(ValueError):
        qdim_estimate("fock", [0.1, -0.2], weights=(0, 0, 0))
    with pytest.raises(ValueError):
        qdim_estimate("fock", [0.1], weights=(0, 0, 0))
    with pytest.raises(ValueError):
        character_value("fock", 0.1, (0,))
    # the group names are the orbifold characters', not module kinds
    for group in ("S3", "Z3"):
        with pytest.raises(ValueError, match="unknown module kind"):
            character_value(group, 0.1)
