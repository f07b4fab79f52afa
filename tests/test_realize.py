import json
from fractions import Fraction

import pytest

from comring.circuits import circuits
from comring.core import is_com, topes
from comring.realize import (
    Arrangement,
    ArrangementFormatError,
    Hyperplane,
    OpenRegion,
    arrangement_to_json,
    covectors,
    covectors_with_witnesses,
    feasible_point,
    geometric_circuits,
    parse_arrangement_json,
    region_point,
    sign_vector_at_point,
    strictly_feasible,
)

F = Fraction


def row(*vals):
    *c, d = vals
    return tuple(F(v) for v in c), F(d)


def test_feasibility_basics():
    # x > 0 and x < 1
    assert strictly_feasible([], [row(1, 0), row(-1, -1)], 1)
    # x > 0 and x < 0
    assert not strictly_feasible([], [row(1, 0), row(-1, 0)], 1)
    # no constraints
    assert strictly_feasible([], [], 2)
    # equality x = 0 with x > 0
    assert not strictly_feasible([row(1, 0)], [row(1, 0)], 1)
    # x + y = 0 with x > 0, y > 0
    assert not strictly_feasible([row(1, 1, 0)], [row(1, 0, 0), row(0, 1, 0)], 2)
    # x + y = 0 with x > 0 alone
    assert strictly_feasible([row(1, 1, 0)], [row(1, 0, 0)], 2)
    # inconsistent equalities
    assert not strictly_feasible([row(1, 0, 0), row(1, 0, 1)], [], 2)
    # 0 > -1 trivially true, 0 > 0 trivially false
    assert strictly_feasible([], [row(0, -1)], 1)
    assert not strictly_feasible([], [row(0, 0)], 1)


def test_feasible_point_is_a_witness():
    eqs = [row(1, 1, 0)]
    stricts = [row(1, 0, 0), row(0, -1, 0)]
    p = feasible_point(eqs, stricts, 2)
    assert p is not None
    assert sum(c * x for c, x in zip(eqs[0][0], p)) == eqs[0][1]
    for c, d in stricts:
        assert sum(ck * xk for ck, xk in zip(c, p)) > d


def test_feasible_point_rational_exactness():
    # forces a non-integer witness: 3x > 1 and 3x < 2
    p = feasible_point([], [row(3, 1), row(-3, -2)], 1)
    assert p is not None
    assert F(1, 3) < p[0] < F(2, 3)


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        Hyperplane((F(0), F(0)), F(1))


def test_planar_fixture_covectors(gen3_arrangement):
    L = covectors(gen3_arrangement)
    assert len(L) == 13
    assert len(topes(L)) == 6
    assert is_com(L)


def test_quadrilateral_fixture_covectors(ex4_arrangement):
    L = covectors(ex4_arrangement)
    assert len(L) == 23
    assert len(topes(L)) == 9
    assert is_com(L)


def test_quadrilateral_circuits(ex4_arrangement, ex4):
    C = circuits(ex4)
    assert C.words() == ["-+-0", "-+0-", "00+-", "+-+0"]
    assert geometric_circuits(ex4_arrangement).words() == C.words()
    assert [sorted(s) for s in sorted(C.minimal_deficient_supports, key=sorted)] == [
        [0, 1, 2], [0, 1, 3], [2, 3]
    ]


def test_witnesses_reproduce_signs(gen3_arrangement, ex4_arrangement):
    for arr in (gen3_arrangement, ex4_arrangement):
        pairs = covectors_with_witnesses(arr)
        assert len(pairs) == len({x for x, _ in pairs})
        for x, p in pairs:
            assert sign_vector_at_point(arr, p) == x


def test_region_point(ex4_arrangement):
    p = region_point(ex4_arrangement)
    assert p is not None
    assert sign_vector_at_point(ex4_arrangement, p).n == 4


def test_sign_vector_rejects_outside_points(ex4_arrangement):
    with pytest.raises(ValueError):
        sign_vector_at_point(ex4_arrangement, (F(0), F(0)))
    with pytest.raises(ValueError):
        sign_vector_at_point(ex4_arrangement, (F(1),))


def test_empty_region_yields_nothing():
    arr = Arrangement(
        1,
        (Hyperplane((F(1),), F(0)),),
        OpenRegion((row(1, 0), row(-1, 0))),
    )
    assert len(covectors(arr)) == 0
    assert geometric_circuits(arr).words() == ["0"]


def test_central_line_covectors():
    arr = Arrangement(1, (Hyperplane((F(1),), F(0)),), OpenRegion(()))
    assert covectors(arr).words() == ["-", "0", "+"]


def test_half_line_region():
    arr = Arrangement(1, (Hyperplane((F(1),), F(0)),), OpenRegion((row(1, 0),)))
    assert covectors(arr).words() == ["+"]


def test_parse_round_trip(ex4_arrangement):
    again = parse_arrangement_json(arrangement_to_json(ex4_arrangement))
    assert again == ex4_arrangement


def test_parse_accepts_ints_and_fraction_strings():
    arr = parse_arrangement_json(
        json.dumps(
            {
                "dim": 1,
                "hyperplanes": [{"a": ["-1/2"], "b": 3}],
                "region": [{"c": [1], "d": "2/3", "rel": ">"}],
            }
        )
    )
    assert arr.hyperplanes[0].a == (F(-1, 2),)
    assert arr.region.strict[0][1] == F(2, 3)


def test_parse_rejects_malformed():
    good = {
        "dim": 1,
        "hyperplanes": [{"a": [1], "b": 0}],
        "region": [],
    }

    def broken(**changes):
        data = {**good, **changes}
        with pytest.raises(ArrangementFormatError):
            parse_arrangement_json(json.dumps(data))

    broken(dim="2")
    broken(hyperplanes=[{"a": [0], "b": 0}])
    broken(hyperplanes=[{"a": [1, 2], "b": 0}])
    broken(hyperplanes=[{"b": 0}])
    broken(region=[{"c": [1], "d": 0, "rel": "<"}])
    broken(region=[{"c": [1]}])
    broken(hyperplanes=[{"a": [1.5], "b": 0}])
    broken(hyperplanes=[{"a": [True], "b": 0}])
    broken(hyperplanes=[{"a": ["1/0"], "b": 0}])
    with pytest.raises(ArrangementFormatError):
        parse_arrangement_json("[]")
    with pytest.raises(ArrangementFormatError):
        parse_arrangement_json("{broken")


def test_generated_arrangements_are_deterministic():
    from comring.verify import generate_random_arrangement

    a = generate_random_arrangement(17, d=2, n=4, k_ineqs=3)
    b = generate_random_arrangement(17, d=2, n=4, k_ineqs=3)
    assert a == b
    assert region_point(a) is not None
    assert all(any(h.a) for h in a.hyperplanes)
    assert all(abs(v) <= 5 for h in a.hyperplanes for v in h.a)
