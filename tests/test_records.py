"""The package's values and record classes: the ==, hash and repr that the frozen
dataclasses they replaced gave, immutability, pickle and copy, and validation of
their fields."""
import copy
import multiprocessing
import pickle
from fractions import Fraction as F

import pytest

from zpgenus.cpn import Eq45Report, Eq46Report, check_eq45, check_eq46
from zpgenus.engine import (
    ResidueTuple,
    SubmanifoldComponent,
    SubmanifoldData,
    Thm71Report,
    WeightSet,
    canonical_residues,
    cpn_weight_set,
    genus_mod_p,
    submanifold_genus,
    thm71_check,
)
from zpgenus.errors import BadParams
from zpgenus.genus import GenusSpec, make_genus
from zpgenus.graded import DE, GradedPoly, GradedPolyModP
from zpgenus.rings import QQ, ModP
from zpgenus.series import Series

# (object, repr, hash) as the frozen dataclasses gave them (64-bit CPython 3.10-3.13)
PINNED = [
    pytest.param(
        lambda: WeightSet(7, 2, ((2, 1), (1, 9), (3, 4))),
        "WeightSet(p=7, n=2, points=((2, 1), (1, 2), (3, 4)))",
        8939996840521231350,
        id="weight_set",
    ),
    pytest.param(
        lambda: cpn_weight_set(ResidueTuple(7, (0, 1, 3))),
        "WeightSet(p=7, n=2, points=((1, 3), (6, 2), (4, 5)))",
        7584619379745187851,
        id="cpn_weight_set",
    ),
    pytest.param(
        lambda: ResidueTuple(7, (0, 8, 3)),
        "ResidueTuple(p=7, residues=(0, 8, 3))",
        -8369800045455839691,
        id="residue_tuple",
    ),
    pytest.param(
        lambda: canonical_residues(5, 2),
        "ResidueTuple(p=5, residues=(0, 1, 2))",
        3120148618465067426,
        id="canonical_residues",
    ),
    pytest.param(
        lambda: SubmanifoldData(
            5, (SubmanifoldComponent((1, 7), F(3, 2)), SubmanifoldComponent((), 1))
        ),
        "SubmanifoldData(p=5, components=(SubmanifoldComponent(normal_weights=(1, 2), "
        "genus_value=Fraction(3, 2)), SubmanifoldComponent(normal_weights=(), "
        "genus_value=Fraction(1, 1))))",
        7184818415245201240,
        id="submanifold_data",
    ),
    pytest.param(
        lambda: SubmanifoldComponent((1, 2), F(1, 3)),
        "SubmanifoldComponent(normal_weights=(1, 2), genus_value=Fraction(1, 3))",
        -4180993291853441164,
        id="submanifold_component",
    ),
    pytest.param(
        lambda: thm71_check(
            make_genus("chi_y", 2, F(2)), cpn_weight_set(canonical_residues(7, 3))
        ),
        "Thm71Report(p=7, n=3, q=4, ab_sum=Fraction(9021, 160), pseries_n=Fraction(-237, 4), "
        "cf_sums=(Fraction(7, 24), Fraction(-63, 40), Fraction(1799, 96)), "
        "h_inverse_coeffs=(Fraction(1, 1), Fraction(-1, 1), Fraction(3, 1), Fraction(-5, 1)), "
        "lhs=ModP(2, p=7), rhs=ModP(2, p=7))",
        -3961859335049565230,
        id="thm71_report",
    ),
    pytest.param(
        lambda: check_eq45(7, m=1),
        "Eq45Report(p=7, m=1, residues=(0, 1, 2), pseries_value=GradedPolyModP('1*delta', p=7), "
        "legendre_value=GradedPolyModP('1*delta', p=7), "
        "cpn_value=GradedPolyModP('1*delta', p=7))",
        346112265705164873,
        id="eq45_report",
    ),
    pytest.param(
        lambda: check_eq46(5),
        "Eq46Report(p=5, m=2, scaled_term=GradedPolyModP('4*delta^2 + 2*eps', p=5), "
        "legendre_value=GradedPolyModP('4*delta^2 + 2*eps', p=5), "
        "power_system_u_p=GradedPolyModP('4*delta^2 + 2*eps', p=5), "
        "low_coeffs_vanish=True, eps_one_equal=True)",
        -4878959831296283656,
        id="eq46_report",
    ),
]


@pytest.mark.parametrize("build, text, hashed", PINNED)
def test_records_keep_the_dataclass_repr_eq_and_hash(build, text, hashed):
    obj, again = build(), build()
    assert repr(obj) == text
    assert hash(obj) == hashed == hash(again)
    assert obj == again and not obj != again
    values = tuple(getattr(obj, f) for f in type(obj)._fields)
    assert hash(obj) == hash(values)  # what a frozen dataclass hashes
    assert obj != values and obj != object()


def _custom_genus():
    return make_genus("custom", 6, logarithm=Series(QQ, [0, 1, F(1, 2), F(1, 3)]))


# every value and record type, built fresh by each call
VALUES = [
    pytest.param(lambda: ModP(3, 7), id="mod_p"),
    pytest.param(lambda: Series(QQ, [1, F(1, 2), F(-2, 3)]), id="series_qq"),
    pytest.param(lambda: make_genus("elliptic", 5).f_series, id="series_de"),
    pytest.param(lambda: make_genus("chi_y", 6, F(2)), id="genus_catalog"),
    pytest.param(_custom_genus, id="genus_custom"),
    pytest.param(lambda: GradedPoly({(1, 0): F(-2), (0, 1): 3}), id="graded_poly"),
    pytest.param(lambda: GradedPolyModP({(1, 0): 5, (0, 1): 3}, 7), id="graded_poly_mod_p"),
    *(pytest.param(*param.values[:1], id=param.id) for param in PINNED
      if param.id not in ("cpn_weight_set", "canonical_residues")),
]


def _same(a, b) -> bool:
    """==, and for a custom genus, which compares by identity, == on each field."""
    if isinstance(a, GenusSpec) and a.kind == "custom":
        return type(b) is GenusSpec and all(
            getattr(a, f) == getattr(b, f) for f in ("kind", "y", "ring", "logarithm", "f_series"))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("build", VALUES)
def test_values_and_records_survive_pickle_and_copy(build):
    obj = build()
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert _same(twin, obj) and repr(twin) == repr(obj)
        if isinstance(obj, (Series, GenusSpec)):
            assert twin.ring is obj.ring in (QQ, DE)
        if isinstance(obj, GenusSpec) and obj.kind != "custom":
            assert twin is obj  # this process's memoized genus
    assert pickle.loads(pickle.dumps(QQ)) is QQ and pickle.loads(pickle.dumps(DE)) is DE


def test_records_are_immutable():
    for param in VALUES:
        obj = param.values[0]()
        if isinstance(obj, WeightSet):
            obj.distinct_points  # counted in the engine's set memo, not on the set
        before = copy.copy(obj)
        for field in (*obj._fields, "extra"):
            message = f"^{type(obj).__name__} is immutable: cannot set or delete {field!r}$"
            with pytest.raises(AttributeError, match=message):
                setattr(obj, field, 11)
            with pytest.raises(AttributeError, match=message):
                delattr(obj, field)
        assert _same(obj, before), param.id
    # a memoized genus keeps its f_series, so a later query on it still answers
    g = make_genus("todd", 6)
    with pytest.raises(AttributeError, match="GenusSpec is immutable: cannot set or delete"):
        del g.f_series
    assert make_genus("todd", 6) is g
    assert genus_mod_p(g, cpn_weight_set(canonical_residues(7, 4))) == ModP(1, 7)


def test_a_spawn_worker_takes_a_genus_and_a_weight_set():
    g, w = make_genus("todd", 6), cpn_weight_set(canonical_residues(7, 3))
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        got = pool.apply_async(genus_mod_p, (g, w)).get(timeout=60)
        pool.close()
        pool.join()
    assert got == genus_mod_p(g, w) == ModP(1, 7)


def test_records_of_different_classes_are_unequal():
    lhs, rhs = ModP(1, 5), ModP(1, 5)
    fields = dict(p=5, m=1, scaled_term=lhs, legendre_value=lhs, power_system_u_p=rhs,
                  low_coeffs_vanish=True, eps_one_equal=True)
    eq46 = Eq46Report(**fields)
    assert eq46 == Eq46Report(*fields.values())
    assert eq46 != Eq45Report(5, 1, lhs, lhs, rhs, True)

    class Sub(ResidueTuple):
        pass

    assert ResidueTuple(5, (0, 1)) != Sub(5, (0, 1))
    report = Thm71Report(7, 1, 0, F(0), F(0), (), (F(1),), ModP(0, 7), ModP(0, 7))
    assert report == Thm71Report(p=7, n=1, q=0, ab_sum=F(0), pseries_n=F(0), cf_sums=(),
                                 h_inverse_coeffs=(F(1),), lhs=ModP(0, 7), rhs=ModP(0, 7))
    assert report.equal


@pytest.mark.parametrize("residues", [(0, 1.9, 3), ("2", True), (0, False), (F(1), 2)])
def test_residues_must_be_ints(residues):
    with pytest.raises(BadParams, match="residue must be an int, got"):
        ResidueTuple(7, residues)


@pytest.mark.parametrize("n", [True, False, 1.0, "2"])
def test_canonical_residues_n_must_be_an_int(n):
    with pytest.raises(BadParams, match="n must be an int"):
        canonical_residues(7, n)


@pytest.mark.parametrize("value", [0.1, 1.5, True, None, [1]])
def test_genus_value_must_be_rational(value):
    with pytest.raises(BadParams, match="genus_value must be"):
        SubmanifoldData(5, (SubmanifoldComponent((1, 2), value),))
    with pytest.raises(BadParams, match="genus_value must be"):
        SubmanifoldData.from_json_dict(
            {"p": 5, "components": [{"normal_weights": [1], "genus_value": value}]}
        )


def test_genus_value_takes_int_fraction_or_rational_string():
    comps = tuple(SubmanifoldComponent((1, 2), v) for v in (3, F(3), "3", "6/2"))
    data = SubmanifoldData(5, comps)
    assert {c.genus_value for c in data.components} == {F(3)}
    assert all(type(c.genus_value) is F for c in data.components)
    g = make_genus("todd", 4)
    assert submanifold_genus(g, data) == submanifold_genus(
        g, SubmanifoldData(5, (SubmanifoldComponent((1, 2), 12),))
    )
    with pytest.raises(BadParams, match="bad genus_value"):
        SubmanifoldData(5, (SubmanifoldComponent((1,), "1/0"),))
