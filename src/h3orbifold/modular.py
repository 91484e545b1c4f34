"""Floating-point checks: eta-function identities, closed-form character
values, and quantum-dimension estimates.

Everything here is double precision with explicit tolerances; the exact
q-series live in the qseries module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qseries import ORBIFOLD_GROUPS, character_terms

TWO_PI = 2.0 * math.pi

#: stop infinite products once |q|^n drops below this
PRODUCT_FLOOR = 1e-30
#: most factors an eta product may take.  |q| = exp(-2 pi Im tau) nears 1 as
#: Im tau -> 0, so the count grows without bound; the loop never ends once
#: |q| rounds to 1, nor when the floor tol * 1e-6 underflows to 0 (|q|^n
#: stops at the smallest subnormal).  The identity checks overflow below
#: Im tau ~ 0.001; above it, with a floor no smaller than the smallest normal
#: float, they need fewer than 4 * 10^5 factors
MAX_ETA_FACTORS = 10 ** 6

DEFAULT_TOL = 1e-9


def _check_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half-plane")
    return tau


def eta(tau: complex, tol: float = DEFAULT_TOL) -> complex:
    """Dedekind eta: q^(1/24) prod (1 - q^n), truncated below the floor.
    Raises OverflowError when the product leaves the finite range or needs
    more than MAX_ETA_FACTORS factors."""
    tau = _check_upper_half(tau)
    q = cmath.exp(2j * math.pi * tau)
    out = cmath.exp(2j * math.pi * tau / 24)
    qn = q
    for _ in range(MAX_ETA_FACTORS):
        if abs(qn) <= min(PRODUCT_FLOOR, tol * 1e-6):
            return out
        out *= (1 - qn)
        qn *= q
        if not (math.isfinite(out.real) and math.isfinite(out.imag)):
            raise OverflowError("eta product left the finite range")
    raise OverflowError(f"eta product needs more than {MAX_ETA_FACTORS} factors")


@dataclass
class IdentityReport:
    identity: str
    tau: complex
    lhs: complex
    rhs: complex
    rel_err: float
    passed: bool
    quadrature_rel_err: float | None = None

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "tau": [self.tau.real, self.tau.imag],
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "rel_err": self.rel_err,
            "pass": self.passed,
            **({"quadrature_rel_err": self.quadrature_rel_err}
               if self.quadrature_rel_err is not None else {}),
        }


def _gauss_value(t: float, dims: int) -> float:
    """int_{R^dims} exp(-pi t |w|^2) dw = t^(-dims/2)."""
    return t ** (-dims / 2.0)


def _gauss_quadrature(t: float, dims: int) -> float:
    """Simpson quadrature of the Gaussian over |w_i| <= 8/sqrt(t)."""
    half = 8.0 / math.sqrt(t)
    n = 400  # even
    h = 2.0 * half / n
    total = 0.0
    for i in range(n + 1):
        w = -half + i * h
        weight = 1 if i in (0, n) else (4 if i % 2 else 2)
        total += weight * math.exp(-math.pi * t * w * w)
    one_dim = total * h / 3.0
    return one_dim ** dims


def check_gauss_identity(line: int, tau: complex, tol: float = DEFAULT_TOL,
                         quadrature: bool = False) -> IdentityReport:
    """The three eta-transformation identities behind modular invariance.

    line 1: 1/eta(-1/tau)^3      = integral over R^3 of q^{|w|^2/2} / eta^3
    line 2: 1/(eta(-1/tau) eta(-2/tau)) = sqrt(2) integral over R^2 with
            denominator eta(tau) eta(tau/2)
    line 3: 1/eta(-3/tau)        = sqrt(3) integral over R with
            denominator eta(tau/3)

    tau must lie on the imaginary axis so the Gaussian integrals are real.
    """
    tau = _check_upper_half(tau)
    if abs(tau.real) > 1e-12:
        raise ValueError("tau must be purely imaginary for these checks")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    if line not in (1, 2, 3):
        raise ValueError("line must be 1, 2 or 3")
    t = tau.imag
    try:
        report = _gauss_identity(line, tau, t, tol, quadrature)
    except (OverflowError, ZeroDivisionError):
        report = None
    if report is None or not math.isfinite(report.rel_err):
        raise ValueError(f"tau = {t:g}i is outside the double-precision range "
                         "of these checks")
    return report


def _gauss_identity(line, tau, t, tol, quadrature) -> IdentityReport:
    """The report of one identity; may overflow or divide by zero when tau
    is far from i."""
    if line == 1:
        lhs = 1.0 / eta(-1.0 / tau, tol) ** 3
        gauss = _gauss_value(t, 3)
        rhs = gauss / eta(tau, tol) ** 3
        quad = _gauss_quadrature(t, 3) if quadrature else None
    elif line == 2:
        lhs = 1.0 / (eta(-1.0 / tau, tol) * eta(-2.0 / tau, tol))
        gauss = _gauss_value(t, 2)
        rhs = math.sqrt(2.0) * gauss / (eta(tau, tol) * eta(tau / 2.0, tol))
        quad = _gauss_quadrature(t, 2) if quadrature else None
    else:
        lhs = 1.0 / eta(-3.0 / tau, tol)
        gauss = _gauss_value(t, 1)
        rhs = math.sqrt(3.0) * gauss / eta(tau / 3.0, tol)
        quad = _gauss_quadrature(t, 1) if quadrature else None

    rel = abs(lhs - rhs) / abs(lhs)
    report = IdentityReport(f"gauss-eta-{line}", tau, lhs, rhs, rel, rel <= tol)
    if quad is not None:
        report.quadrature_rel_err = abs(quad - _gauss_value(t, [3, 2, 1][line - 1])) / quad
    return report


# -- closed-form character values --------------------------------------------


def _inv_pochhammer_value(q: float, step: float = 1.0) -> float:
    """prod_{n>=1} (1 - q^(step n))^(-1) numerically, truncated below the
    floor.  As ``eta``, raises OverflowError when the product leaves the
    finite range or needs more than MAX_ETA_FACTORS factors."""
    out = 1.0
    for n in range(1, MAX_ETA_FACTORS + 1):
        term = q ** (step * n)
        if term < PRODUCT_FLOOR:
            return out
        out /= (1.0 - term)
        if not math.isfinite(out):
            raise OverflowError("Euler product left the finite range")
    raise OverflowError(f"Euler product needs more than {MAX_ETA_FACTORS} "
                        "factors")


def character_value(kind: str, t: float, weights=()) -> float:
    """Value of a module character at tau = i t: the terms of
    ``qseries.character_terms`` in floats.  The kind and the weights are
    checked before any product is evaluated."""
    if kind in ORBIFOLD_GROUPS:
        raise ValueError(f"unknown module kind {kind!r}")
    divisor, terms = character_terms(kind, weights)
    if t <= 0:
        raise ValueError("t must be positive")
    q = math.exp(-TWO_PI * t)
    # one product per distinct step: the class sums share theirs
    products = {s: _inv_pochhammer_value(q, float(s))
                for s in {s for _, _, steps in terms for s in steps}}
    total = 0.0
    for mult, offset, steps in terms:
        value = q ** float(offset)
        for s in steps:
            value *= products[s]
        total += mult * value
    return total / divisor


#: the untwisted modules' quantum dimensions, and a pass's relative tolerance
QDIM_EXPECTED = {"fock": 6.0, "orb": 1.0, "sgn": 1.0, "st": 2.0}
QDIM_REL_TOL = 0.01


@dataclass
class QdimReport:
    module: str
    t_values: list
    ratios: list
    classification: str
    limit_estimate: float | None = None
    growth_exponent: float | None = None
    expected: float | None = None   # QDIM_EXPECTED's value for a finite limit

    @property
    def passed(self) -> bool:
        """No expected value, or a limit estimate within QDIM_REL_TOL of it."""
        return self.expected is None or \
            abs(self.limit_estimate - self.expected) <= QDIM_REL_TOL * self.expected

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "t": self.t_values,
            "ratios": self.ratios,
            "classification": self.classification,
            "limit": self.limit_estimate,
            "growth_exponent": self.growth_exponent,
        }


def qdim_estimate(kind: str, t_list, weights=()) -> QdimReport:
    """Ratios to the orbifold character along t_list, with classification.

    Finite limits are extrapolated linearly in t from the log-ratios of the
    two smallest samples (the subleading corrections decay exponentially);
    divergent families get a log-log growth exponent instead.
    """
    t_desc = sorted((float(t) for t in t_list), reverse=True)
    if any(t <= 0 for t in t_desc):
        raise ValueError("t values must be positive")
    if len(t_desc) < 2 or t_desc[-1] == t_desc[-2]:
        raise ValueError("need at least two sample points, the two smallest "
                         "distinct")
    try:
        ratios = [character_value(kind, t, weights) / character_value("orb", t)
                  for t in t_desc]
    except (OverflowError, ZeroDivisionError):
        ratios = None
    if ratios is None or not all(0 < abs(r) < math.inf for r in ratios):
        raise ValueError("the characters leave the double-precision range "
                         "at these t values")
    name = kind if not weights else f"{kind}({','.join(str(w) for w in weights)})"
    # growth exponent from the two smallest samples, where the exponentially
    # small corrections to both characters have died off; the slowest
    # divergence law grows like t^(-1/2), so a slope clearly below zero
    # separates the divergent families from the finite ones (whose slope
    # decays linearly in t)
    ta, tb = t_desc[-2], t_desc[-1]
    ya, yb = math.log(abs(ratios[-2])), math.log(abs(ratios[-1]))
    slope = (yb - ya) / (math.log(tb) - math.log(ta))
    if slope <= -0.25:
        return QdimReport(name, t_desc, ratios, "divergent",
                          growth_exponent=slope)
    # linear extrapolation of the log-ratio to t = 0 from the two smallest t
    log_limit = yb - tb * (ya - yb) / (ta - tb)
    return QdimReport(name, t_desc, ratios, "finite",
                      limit_estimate=math.exp(log_limit),
                      growth_exponent=slope, expected=QDIM_EXPECTED.get(kind))
