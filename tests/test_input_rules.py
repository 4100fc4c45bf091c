"""Each input rule is one function, and every entry point refuses by it.

* ints: ``rings.require_int`` -- "<what> must be an int[ >= low], got <x!r>";
* weights: ``rings.canonical_weight`` -- a zero weight raises ZeroWeight;
* theta kinds: ``genus.require_theta`` -- "genus kind <kind!r> has no theta in Q(zeta_p)".

One row per entry point and bad input: the call, the exception class and the
exact message.  An input that is bad in two ways keeps the class of the check
its entry point makes first.
"""
from fractions import Fraction as F

import pytest

from zpgenus.checks import (SubmanifoldComponent, SubmanifoldData, ab_coefficient, h_series,
                            p_series_term, submanifold_genus, thm71_check)
from zpgenus.cpn import check_eq45, legendre_coeffs
from zpgenus.cyclotomic import ab_trace, theta_minimal_polynomial, trace_theta_power
from zpgenus.engine import (ResidueTuple, WeightSet, b_series, canonical_residues, genus_mod_p)
from zpgenus.errors import BadParams, UnsupportedKind, ZeroWeight
from zpgenus.genus import cpn_genus, make_genus, power_system, power_system_closed
from zpgenus.graded import GradedPoly
from zpgenus.rings import QQ, ModP
from zpgenus.series import Series

S = Series(QQ, [1, 2, 3])
TD = make_genus("todd", 4)
ELL = make_genus("elliptic", 4)
W = WeightSet(5, 2, ((1, 2), (3, 4)))


def theta(kind):
    return f"genus kind {kind!r} has no theta in Q(zeta_p)"


ZERO = "weight ≡ 0 mod p = 5 is not allowed"

CASES = {
    # ints: a bool or a float count, order, index or exponent
    "series-order-float": (lambda: Series(QQ, [1], 2.5), BadParams,
                           "order must be an int >= 0, got 2.5"),
    "series-zero-float": (lambda: Series.zero(QQ, 1.5), BadParams,
                          "order must be an int >= 0, got 1.5"),
    "series-identity-float": (lambda: Series.identity(QQ, 1.5), BadParams,
                              "order must be an int >= 1, got 1.5"),
    "series-identity-zero": (lambda: Series.identity(QQ, 0), BadParams,
                             "order must be an int >= 1, got 0"),
    "series-index-bool": (lambda: S[True], BadParams,
                          "coefficient index must be an int >= 0, got True"),
    "series-truncate-float": (lambda: S.truncate(1.5), BadParams,
                              "order must be an int >= 0, got 1.5"),
    "series-shift-float": (lambda: S.shift_down(1.0), BadParams, "shift must be an int, got 1.0"),
    "series-power-bool": (lambda: S**True, BadParams, "series power must be an int >= 0, got True"),
    "make-genus-float": (lambda: make_genus("todd", 2.5), BadParams,
                         "order must be an int >= 2, got 2.5"),
    "power-system-bool": (lambda: power_system(TD, True), BadParams,
                          "power system index must be an int >= 1, got True"),
    "power-system-closed-bool": (lambda: power_system_closed("todd", True, 4), BadParams,
                                 "power system index must be an int >= 1, got True"),
    "cpn-genus-bool": (lambda: cpn_genus(TD, True), BadParams,
                       "projective dimension must be an int >= 0, got True"),
    "legendre-bool": (lambda: legendre_coeffs(True), BadParams,
                      "Legendre index must be an int >= 0, got True"),
    "eq45-m-bool": (lambda: check_eq45(5, m=True), BadParams, "m must be an int >= 0, got True"),
    "eq45-m-bool-with-residues": (lambda: check_eq45(5, (0, 1, 2), True), BadParams,
                                  "m must be an int >= 0, got True"),
    "p-series-term-m-float": (lambda: p_series_term(TD, 5, (1, 2), 2.0), BadParams,
                              "coefficient index must be an int >= 0, got 2.0"),
    "p-series-term-weight-bool": (lambda: p_series_term(TD, 5, (True, 2), 2), BadParams,
                                  "p_series_term weight must be an int >= 1, got True"),
    "h-series-float": (lambda: h_series("todd", 5, 2.5), BadParams,
                       "order must be an int >= 0, got 2.5"),
    "b-series-float": (lambda: b_series("todd", 5, 1.5), BadParams,
                       "order must be an int >= 0, got 1.5"),
    "weight-set-n-bool": (lambda: WeightSet(5, True, ()), BadParams,
                          "n must be an int >= 0, got True"),
    "canonical-residues-float": (lambda: canonical_residues(5, 1.0), BadParams,
                                 "n must be an int >= 0, got 1.0"),
    "residue-bool": (lambda: ResidueTuple(5, (0, True)), BadParams,
                     "residue must be an int, got True"),
    "theta-power-bool": (lambda: trace_theta_power("todd", 5, True), BadParams,
                         "theta power must be an int, got True"),
    "theta-power-float": (lambda: trace_theta_power("todd", 5, 1.0), BadParams,
                          "theta power must be an int, got 1.0"),
    "mod-p-value-float": (lambda: ModP(1.5, 5), BadParams, "value must be an int, got 1.5"),
    "mod-p-bad-p-float": (lambda: ModP(1.5, 4), BadParams, "p must be an odd prime >= 3, got 4"),
    "graded-exponent-bool": (lambda: GradedPoly({(True, 0): 1}), BadParams,
                             "monomial exponent must be an int >= 0, got True"),
    # theta kinds: one message wherever a theta is needed
    "b-series-elliptic": (lambda: b_series("elliptic", 5, 3), UnsupportedKind, theta("elliptic")),
    "h-series-elliptic": (lambda: h_series("elliptic", 5, 3), UnsupportedKind, theta("elliptic")),
    "ab-coefficient-elliptic": (lambda: ab_coefficient(ELL, 5, (1, 2)), UnsupportedKind,
                                theta("elliptic")),
    "ab-trace-elliptic": (lambda: ab_trace("elliptic", 5, (1, 2)), UnsupportedKind,
                          theta("elliptic")),
    "theta-power-elliptic": (lambda: trace_theta_power("elliptic", 5, 2), UnsupportedKind,
                             theta("elliptic")),
    "minimal-polynomial-custom": (lambda: theta_minimal_polynomial("custom", 5), UnsupportedKind,
                                  theta("custom")),
    "route-ab-elliptic": (lambda: genus_mod_p(ELL, W, "ab"), UnsupportedKind, theta("elliptic")),
    "route-trace-elliptic": (lambda: genus_mod_p(ELL, W, "trace"), UnsupportedKind,
                             theta("elliptic")),
    "thm71-elliptic": (lambda: thm71_check(ELL, W), UnsupportedKind, theta("elliptic")),
    "submanifold-elliptic": (lambda: submanifold_genus(ELL, SubmanifoldData(5, ())),
                             UnsupportedKind, theta("elliptic")),
    # weights: a zero weight, by the one weight rule
    "weight-set-zero": (lambda: WeightSet(5, 1, ((5,),)), ZeroWeight, ZERO),
    "ab-coefficient-zero": (lambda: ab_coefficient(TD, 5, (1, 10)), ZeroWeight, ZERO),
    "ab-trace-zero": (lambda: ab_trace("todd", 5, (1, 10)), ZeroWeight, ZERO),
    "submanifold-zero": (lambda: SubmanifoldData(5, (SubmanifoldComponent((0,), 1),)),
                         ZeroWeight, ZERO),
    # bad two ways: the first check of the entry point decides
    "theta-power-bool-elliptic": (lambda: trace_theta_power("elliptic", 5, True), BadParams,
                                  "theta power must be an int, got True"),
    "theta-power-stray-y-elliptic": (lambda: trace_theta_power("elliptic", 5, 2, 3), BadParams,
                                     "kind 'elliptic' does not take a parameter y"),
    "ab-trace-elliptic-zero": (lambda: ab_trace("elliptic", 5, (0,)), UnsupportedKind,
                               theta("elliptic")),
    "ab-trace-bad-p-elliptic": (lambda: ab_trace("elliptic", 4, (1,)), BadParams,
                                "p must be an odd prime >= 3, got 4"),
    "ab-coefficient-elliptic-zero": (lambda: ab_coefficient(ELL, 5, (0,)), UnsupportedKind,
                                     theta("elliptic")),
    "b-series-elliptic-float": (lambda: b_series("elliptic", 5, 1.5), UnsupportedKind,
                                theta("elliptic")),
    "h-series-elliptic-negative": (lambda: h_series("elliptic", 5, -1), BadParams,
                                   "order must be an int >= 0, got -1"),
    "minimal-polynomial-stray-y": (lambda: theta_minimal_polynomial("elliptic", 5, 2), BadParams,
                                   "kind 'elliptic' does not take a parameter y"),
    "p-series-term-m-before-weights": (lambda: p_series_term(TD, 5, (0,), True), BadParams,
                                       "coefficient index must be an int >= 0, got True"),
}


@pytest.mark.parametrize("name", CASES)
def test_each_rule_refuses_with_its_one_message(name):
    call, error, message = CASES[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_the_rules_accept_what_they_accepted():
    assert S[2] == 3 and S.truncate(1) == Series(QQ, [1, 2]) and S.shift_down(0) is S
    assert p_series_term(TD, 3, (1,), 1) == 1
    assert ab_trace("todd", 5, (6, -3)) == ab_trace("todd", 5, (1, 2))
    assert legendre_coeffs(2) == (F(-1, 2), 0, F(3, 2))
    assert GradedPoly({(1, 0): 2}) * 0 == GradedPoly.zero()
