import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from comring.circuits import circuits
from comring.core import SignVector, elements, is_com, topes
from comring import realize
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
from comring.verify import corpus_arrangement, generate_random_arrangement

F = Fraction


def row(*vals):
    """The integer row c.x > d (or c.x = d) of c_1, ..., c_m, d."""
    *c, d = vals
    return tuple(c), d


def lin_row(*vals):
    """The same row over the rationals, as an arrangement holds it."""
    c, d = row(*vals)
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


def test_feasible_point_rejects_rows_of_the_wrong_length():
    # (1, 0, 5).x = 0 in dimension 2 must not drop the 5 and answer (0, 1)
    with pytest.raises(ValueError):
        feasible_point([row(1, 0, 5, 0)], [], 2)
    with pytest.raises(ValueError):
        feasible_point([row(1, 0)], [], 2)
    with pytest.raises(ValueError):
        feasible_point([], [row(1, 0, 0), row(1, 0, 5, 0)], 2)
    with pytest.raises(ValueError):
        strictly_feasible([], [row(1, 0)], 2)


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
    assert sorted(elements(s) for s in C.minimal_deficient_supports) == [
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
        OpenRegion((lin_row(1, 0), lin_row(-1, 0))),
    )
    assert len(covectors(arr)) == 0
    assert geometric_circuits(arr).words() == ["0"]


def test_central_line_covectors():
    arr = Arrangement(1, (Hyperplane((F(1),), F(0)),), OpenRegion(()))
    assert covectors(arr).words() == ["-", "0", "+"]


def test_half_line_region():
    arr = Arrangement(1, (Hyperplane((F(1),), F(0)),), OpenRegion((lin_row(1, 0),)))
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
    for region in (5, None, True, 1.5, "", {"c": [1], "d": 0}):
        broken(region=region)
    # Only [-]digits[/digits] strings: an exponent form would ask Fraction
    # for a numerator of ten million digits.
    for b in ("1e10000000", "1e100000000", "1.5", "+1", " 1", "1_0", "1/-2", "", "-"):
        broken(hyperplanes=[{"a": [1], "b": b}])
    with pytest.raises(ArrangementFormatError):
        parse_arrangement_json("[]")
    with pytest.raises(ArrangementFormatError):
        parse_arrangement_json("{broken")


def test_generated_arrangements_are_deterministic():
    a = generate_random_arrangement(17, d=2, n=4, k_ineqs=3)
    b = generate_random_arrangement(17, d=2, n=4, k_ineqs=3)
    assert a == b
    assert region_point(a) is not None
    assert all(any(h.a) for h in a.hyperplanes)
    assert all(abs(v) <= 5 for h in a.hyperplanes for v in h.a)


def oracle_covectors(arr):
    """Every sign vector among the 3^n whose mixed system is feasible."""
    found = set()
    for signs in product((-1, 0, 1), repeat=arr.n):
        eqs = []
        stricts = [realize._int_row(c, d) for c, d in arr.region.strict]
        for s, h in zip(signs, arr.hyperplanes):
            c, d = realize._int_row(h.a, h.b)
            if s == 0:
                eqs.append((c, d))
            else:
                stricts.append((tuple(s * v for v in c), s * d))
        if feasible_point(eqs, stricts, arr.dim) is not None:
            found.add(SignVector.from_signs(signs))
    return found


def assert_matches_oracle(arr):
    pairs = covectors_with_witnesses(arr)
    words = [x for x, _ in pairs]
    assert len(set(words)) == len(words)
    assert set(words) == oracle_covectors(arr)
    for x, p in pairs:
        assert sign_vector_at_point(arr, p) == x
    return pairs


def test_covectors_match_oracle(gen3_arrangement, ex4_arrangement):
    for arr in [gen3_arrangement, ex4_arrangement] + [
        corpus_arrangement(seed) for seed in range(30)
    ]:
        assert_matches_oracle(arr)


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_random_arrangements_match_oracle(seed, d):
    # Five hyperplanes in four and five dimensions, where each solve on a
    # hyperplane eliminates up to four variables.
    assert_matches_oracle(generate_random_arrangement(seed, d, 5, 2))


def assert_pinned(arr, count, digest):
    """The walk finds count covectors, every witness re-checks, and the
    words hash to digest."""
    pairs = covectors_with_witnesses(arr)
    assert len(pairs) == count
    for x, p in pairs:
        assert sign_vector_at_point(arr, p) == x
    words = "\n".join(x.word() for x, _ in pairs)
    assert hashlib.sha256(words.encode()).hexdigest() == digest


def test_seed7_five_dimensions_pinned():
    # At d = 5 the cost of each solve shows: asking whether each
    # hyperplane meets the cell realizes this in about 0.2 s (Python
    # 3.11, 2 vCPU); asking for its far open side took 14 s.
    assert_pinned(
        generate_random_arrangement(7, 5, 8, 2),
        1761,
        "a381617f65331612efea81e859f09b257499ea2ac131caee90343c034b93c1ec",
    )


def test_seed7_six_dimensions_pinned():
    # At d = 6 plain Fourier-Motzkin blows up: without the history bound
    # this took 45-60 s and (6, 8) built 729,580 combined rows.  With it,
    # about 1 s (Python 3.11, 2 vCPU).
    assert_pinned(
        generate_random_arrangement(7, 6, 9, 2),
        5699,
        "869b5948973f267299b898b0ad895fb7c8f6a73e807356c5ce87cd63026683c9",
    )


def copied_lines(n):
    """n central lines in Q^2, line k being x + (k mod 7 + 1) y = 0."""
    hyps = tuple(Hyperplane((F(1), F(k % 7 + 1)), F(0)) for k in range(n))
    return Arrangement(2, hyps, OpenRegion(()))


def test_walk_depth_is_not_limited_by_recursion():
    # A walk that recursed once per hyperplane fails here with
    # RecursionError.  The 1,500 lines are 7 distinct lines, each copied,
    # so every covector is one of the 7 lines' with each sign repeated.
    arr = copied_lines(1500)
    pairs = covectors_with_witnesses(arr)
    assert len(pairs) == 29
    for x, p in pairs:
        assert sign_vector_at_point(arr, p) == x
    distinct = [x.word() for x, _ in covectors_with_witnesses(copied_lines(7))]
    expected = ["".join(w[k % 7] for k in range(1500)) for w in distinct]
    assert [x.word() for x, _ in pairs] == expected


def counted_solves(monkeypatch, arr):
    """The walk's output on arr and the number of feasibility solves it made."""
    calls = []
    solve = realize._solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(realize, "_solve", counting)
    pairs = covectors_with_witnesses(arr)
    monkeypatch.undo()
    assert assert_matches_oracle(arr) == pairs
    return pairs, len(calls)


def hyperplanes(*rows):
    return tuple(Hyperplane(*lin_row(*r)) for r in rows)


def test_node_case_constant_on_flat(monkeypatch):
    # x = 0 twice, 2x = 0 and x = 1: on the flat x = 0 the last three are
    # constant, so that subtree costs no solve.  One solve finds the
    # region point, three run on the negative side (each opposite side is
    # empty) and two on the positive side, where x = 1 meets the witness.
    arr = Arrangement(1, hyperplanes((1, 0), (1, 0), (2, 0), (1, 1)), OpenRegion(()))
    pairs, solves = counted_solves(monkeypatch, arr)
    assert [x.word() for x, _ in pairs] == ["----", "000-", "+++-", "+++0", "++++"]
    assert solves == 6


def test_node_case_witness_on_hyperplane(monkeypatch):
    # Central coordinate planes: the region point is the origin and every
    # witness lies on every later plane, so both strict children come from
    # moving off the plane and only the region point is solved for.  With
    # the planes negated each reduced row leads with a negative entry, so
    # the direction off the plane must be flipped to point to its + side.
    for sign in (1, -1):
        planes = [[sign * (i == j) for j in range(3)] + [0] for i in range(3)]
        arr = Arrangement(3, hyperplanes(*planes), OpenRegion(()))
        pairs, solves = counted_solves(monkeypatch, arr)
        assert len(pairs) == 27
        assert solves == 1


def test_node_case_crossing(monkeypatch):
    # The lines x = 1, y = 1 and x + y = 1 miss the region point, the
    # origin, so the walk must cross them: a solve on the line finds the
    # crossing point, the zero child's witness, and the far side's witness
    # is one step past it, away from the origin.
    arr = Arrangement(2, hyperplanes((1, 0, 1), (0, 1, 1), (1, 1, 1)), OpenRegion(()))
    assert len(assert_matches_oracle(arr)) == 19
    # Inside x > 0, y > 0 the line x + y = -1 misses the region: the one
    # solve on the line fails, and neither its zero child nor its far side
    # is tried.
    arr = Arrangement(
        2, hyperplanes((1, 1, -1)), OpenRegion((lin_row(1, 0, 0), lin_row(0, 1, 0)))
    )
    pairs, solves = counted_solves(monkeypatch, arr)
    assert [x.word() for x, _ in pairs] == ["+"]
    assert solves == 2


def test_refuted_pattern_answers_later_cells(monkeypatch):
    # The region point is the origin, which x = 0 and y = 0 both pass
    # through.  The first cell with x < 0 asks whether x = 1 meets it: the
    # solve refutes x > 1 by the row x < 0 alone, and that pattern also
    # answers the cells x < 0, y = 0 and x < 0, y > 0 without a solve.
    # Where x > 0 the witness moves off each line onto x = 1, so nothing
    # else is solved for.
    arr = Arrangement(2, hyperplanes((1, 0, 0), (0, 1, 0), (1, 0, 1)), OpenRegion(()))
    pairs, solves = counted_solves(monkeypatch, arr)
    assert len(pairs) == 15
    assert solves == 2


def test_refutation_with_a_region_row_answers_later_cells(monkeypatch):
    # Inside y > 0 the line x + y = 0 misses the cell x = 0, y < 2: the
    # solve on it refutes by the region row y > 0 alone on the flat x = 0.
    # Every cell keeps the region row, so the remembered pattern is x = 0
    # alone, and it answers the cell x = 0, y > 2 without a solve.  A
    # pattern that kept the region row's bit would match no cell and cost
    # that solve.  The line meets the cell x < 0 and misses x = 0, so the
    # cells with x > 0 are answered by their siblings.  The five solves
    # are the region point, y = 2 on x < 0 and on x = 0, and x + y = 0 on
    # x < 0, y = 2 and on x = 0, y < 2.
    arr = Arrangement(
        2, hyperplanes((1, 0, 0), (0, 1, 2), (1, 1, 0)), OpenRegion((lin_row(0, 1, 0),))
    )
    _, solves = counted_solves(monkeypatch, arr)
    assert solves == 5


def test_sibling_cells_answer_crossings(monkeypatch):
    # The region point is the origin, on x = 0 and y = 0, so the witness
    # steps off both and x - y = 1 is solved for on the cells x < 0, y < 0,
    # which it meets, and x < 0, y = 0, which it misses.  From then on the
    # finished siblings of each cell answer.  Face symmetry: the line meets
    # x < 0, y < 0 and x = 0, y < 0, so it meets x > 0, y < 0; it meets
    # x > 0, y < 0 and x > 0, y = 0, so it meets x > 0, y > 0.  Elimination:
    # it meets x < 0, y < 0 and misses x < 0, y = 0, so it misses
    # x < 0, y > 0; it meets x = 0, y < 0 and misses the origin, so it
    # misses x = 0, y > 0.  Without the siblings this takes seven solves.
    arr = Arrangement(2, hyperplanes((1, 0, 0), (0, 1, 0), (1, -1, 1)), OpenRegion(()))
    pairs, solves = counted_solves(monkeypatch, arr)
    assert len(pairs) == 19
    assert solves == 3


@pytest.mark.parametrize("seed", range(5))
def test_sibling_answers_match_oracle(seed):
    # Six planes in three and four dimensions, bounded by two region rows
    # or central.  Over the five seeds each sibling rule answers between
    # 50 and 420 cells of each shape.
    for arr in (
        generate_random_arrangement(seed, 3, 6, 2),
        generate_random_arrangement(seed, 3, 6, 0, central=True),
        generate_random_arrangement(seed, 4, 6, 2),
    ):
        assert_matches_oracle(arr)


def fixed_order_fm_feasible(rows, m):
    """Oracle: Fourier-Motzkin over Q, last variable first, with no tags
    and no history bound.

    A strict system c.x > d is solvable iff every positive combination
    that cancels all variables leaves 0 > d with d < 0.  Of rows with one
    direction only the tightest is kept, as it implies the others; without
    that, systems of many parallel rows build millions of rows.
    """
    system = [(tuple(F(v) for v in c), F(d)) for c, d in rows]
    for j in reversed(range(m)):
        tightest = {}
        for c, d in system:
            g = max(map(abs, c)) or 1
            key = tuple(v / g for v in c)
            tightest[key] = max(tightest.get(key, d / g), d / g)
        system = list(tightest.items())
        pos = [r for r in system if r[0][j] > 0]
        neg = [r for r in system if r[0][j] < 0]
        system = [r for r in system if r[0][j] == 0]
        for cp, dp in pos:
            for cn, dn in neg:
                lp, ln = -cn[j], cp[j]
                system.append(
                    (tuple(lp * a + ln * b for a, b in zip(cp, cn)), lp * dp + ln * dn)
                )
    return all(d < 0 for _, d in system)


def random_strict_system(rng):
    """Up to 8 integer rows over up to 4 variables, with parallel rows,
    duplicates and constant rows mixed in."""
    m = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 8)):
        if rows and rng.random() < 0.3:
            c, _ = rng.choice(rows)
            c = tuple(rng.choice((1, 2, 3)) * v for v in c)
        else:
            c = tuple(rng.randint(-3, 3) for _ in range(m))
        rows.append((c, rng.randint(-4, 4)))
    return rows, m


def parallel_strict_system(rng):
    """Up to 12 integer rows over 2 to 5 variables, most of them positive
    multiples or duplicates of earlier rows with shifted constants: the
    parallel rows that the history bound must not prune unsoundly.  A few
    are negative multiples, so that about half the systems are
    infeasible."""
    m = rng.randint(2, 5)
    rows = []
    for _ in range(rng.randint(1, 12)):
        if rows and rng.random() < 0.7:
            c, d = rng.choice(rows)
            k = rng.choice((1, 1, 2, 3, -1))
            rows.append((tuple(k * v for v in c), k * d + rng.randint(-2, 2)))
        else:
            c = tuple(rng.randint(-3, 3) for _ in range(m))
            rows.append((c, rng.randint(-4, 4)))
    return rows, m


def fm_kernel(rows, m):
    """The kernel's rational point, or None and the input rows its
    refutation combines."""
    found = realize._fm([(c, d, 1 << i) for i, (c, d) in enumerate(rows)], m)
    if isinstance(found, int):
        return None, [r for i, r in enumerate(rows) if found >> i & 1]
    point, denom = found
    return [F(x, denom) for x in point], None


def test_fm_kernel_matches_fixed_order_oracle():
    for seed, system, runs in (
        (20221, random_strict_system, 600),
        (7, parallel_strict_system, 300),
    ):
        rng = random.Random(seed)
        verdicts = {True: 0, False: 0}
        for _ in range(runs):
            rows, m = system(rng)
            point, support = fm_kernel(rows, m)
            feasible = fixed_order_fm_feasible(rows, m)
            assert (point is not None) == feasible, rows
            verdicts[feasible] += 1
            if point is not None:
                assert len(point) == m
                for c, d in rows:
                    assert sum(ck * xk for ck, xk in zip(c, point)) > d, (rows, point)
            else:
                # The rows a refutation names are infeasible without the
                # others, which lets the walk reuse it on every system that
                # keeps them.
                assert support and not fixed_order_fm_feasible(support, m), rows
        assert min(verdicts.values()) >= runs // 6, (system, verdicts)


def test_distinct_drops_a_copy_only_for_a_subset_tag():
    # Four copies of x > 1.  The one from row {0} replaces the one from
    # rows {0, 1}, whose tag contains its own, and then the one from rows
    # {0, 1, 2} goes; the one from row {2} stays, as neither tag contains
    # the other.  Arriving after the {0} copy, the {0, 1} copy goes.
    a, b, c, d = ((1,), 1, 0b011), ((1,), 1, 0b001), ((1,), 1, 0b111), ((1,), 1, 0b100)
    assert realize._distinct([a, b, c, d]) == [b, d]
    assert realize._distinct([b, a]) == [b]
    # x > 2 from row {0} is tighter than x > 1 from rows {0, 1} and its
    # tag is a subset, but the rows are no copies: both stay.
    tight = ((1,), 2, 0b001)
    assert realize._distinct([tight, a]) == [tight, a]
    # Constant rows go, unless one is contradictory: then its tag is the
    # refutation.
    assert realize._distinct([((0,), -1, 0b1000), a]) == [a]
    assert realize._distinct([a, ((0,), 0, 0b1000), b]) == 0b1000


def test_fm_history_bound_prunes_rows(monkeypatch):
    # With one tag shared by every row no history exceeds one member, so
    # the bound never fires and the kernel runs as plain Fourier-Motzkin;
    # with a bit per row it builds fewer rows and finds a point as well.
    rng = random.Random(1)
    rows = [
        (tuple(rng.randint(-3, 3) for _ in range(5)), rng.randint(-4, 4)) for _ in range(8)
    ]
    built = []
    primitive_row = realize.primitive_row

    def counting(*args):
        built.append(args)
        return primitive_row(*args)

    monkeypatch.setattr(realize, "primitive_row", counting)
    counts = []
    for tags in ([1] * len(rows), [1 << i for i in range(len(rows))]):
        built.clear()
        point, denom = realize._fm([(c, d, t) for (c, d), t in zip(rows, tags)], 5)
        counts.append(len(built))
        for c, d in rows:
            assert sum(map(mul, c, point)) > d * denom
    assert counts[1] < counts[0], counts


def test_generate_random_arrangement_rejects_dimension_zero():
    for d in (0, -1):
        with pytest.raises(ValueError):
            generate_random_arrangement(3, d=d, n=2, k_ineqs=1)
