"""Axiom witnesses on negative corpora: COMs with one covector deleted,
random sign vector sets closed under face symmetry, and random sets that
fail it, on which strong elimination is checked alone.

No corpus instance fails an axiom, so the witness paths of the scans run
only here.  Each reported witness must be a genuine violation and the
first one in canonical scan order; both are checked from the axiom
definitions on plain sign tuples, independently of the mask scans.
"""

import random

from comring.core import (
    Com, SignVector, axiom_witness, check_face_symmetry, check_strong_elimination
)
from comring.realize import covectors
from comring.verify import corpus_arrangement


def compose(x, y):
    return tuple(a if a else b for a, b in zip(x, y))


def separator(x, y):
    return [e for e, (a, b) in enumerate(zip(x, y)) if a and a == -b]


def fs_violated(members, x, y):
    """Face symmetry: X o (-Y) is a covector for all covectors X, Y."""
    return compose(x, tuple(-b for b in y)) not in members


def se_violated(vecs, x, y, e):
    """Strong elimination at e in S(X, Y): some covector Z has Z_e = 0 and
    agrees with X o Y outside S(X, Y)."""
    sep = separator(x, y)
    w = compose(x, y)
    outside = [f for f in range(len(x)) if f not in sep]
    return not any(z[e] == 0 and all(z[f] == w[f] for f in outside) for z in vecs)


def first_violation(vecs):
    """Brute-force scan in canonical order: ordered pairs for face
    symmetry, then unordered pairs with the separator ascending."""
    members = set(vecs)
    for x in vecs:
        for y in vecs:
            if fs_violated(members, x, y):
                return ("fs-violation", x, y, None)
    for a, x in enumerate(vecs):
        for y in vecs[a:]:
            for e in separator(x, y):
                if se_violated(vecs, x, y, e):
                    return ("se-violation", x, y, e)
    return None


def test_deletion_witnesses_are_first_genuine_violations():
    kinds = {"fs-violation": 0, "se-violation": 0}
    for seed in range(40):
        L = covectors(corpus_arrangement(seed))
        for j in range(len(L)):
            M = Com(L.n, [v for k, v in enumerate(L.covectors) if k != j])
            vecs = [v.signs() for v in M.covectors]
            w = axiom_witness(M)
            expected = first_violation(vecs)
            where = f"seed {seed}, covector {j} deleted"
            if w is None:
                assert expected is None, where
                continue
            x, y = w.x.signs(), w.y.signs()
            if w.kind == "fs-violation":
                assert w.i is None and fs_violated(set(vecs), x, y), where
            else:
                assert w.kind == "se-violation", where
                assert w.i in separator(x, y), where
                assert se_violated(vecs, x, y, w.i), where
            assert (w.kind, x, y, w.i) == expected, where
            kinds[w.kind] += 1
    assert kinds == {"fs-violation": 735, "se-violation": 104}


def test_face_symmetric_sets_match_the_oracle():
    """Random sets closed under X o (-Y) pass face symmetry, so every
    witness here is a strong elimination witness."""
    rng = random.Random(20228)
    kinds = {None: 0, "se-violation": 0}
    for trial in range(1500):
        n = rng.randint(1, 4)
        vecs = {tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(rng.randint(1, 6))}
        while True:
            new = {compose(x, tuple(-b for b in y)) for x in vecs for y in vecs} - vecs
            if not new:
                break
            vecs |= new
        M = Com(n, [SignVector.from_signs(v) for v in vecs])
        w = axiom_witness(M)
        got = None if w is None else (w.kind, w.x.signs(), w.y.signs(), w.i)
        assert got == first_violation([v.signs() for v in M.covectors]), f"set {trial}"
        kinds[None if w is None else w.kind] += 1
    assert kinds == {None: 677, "se-violation": 823}


def first_se_violation(vecs):
    """The strong elimination part of ``first_violation``."""
    for a, x in enumerate(vecs):
        for y in vecs[a:]:
            for e in separator(x, y):
                if se_violated(vecs, x, y, e):
                    return ("se-violation", x, y, e)
    return None


def test_strong_elimination_on_sets_without_face_symmetry():
    """Without face symmetry a set need not be closed under composition,
    so pairs of equal support certify nothing; the scan must still give
    the first canonical witness."""
    rng = random.Random(16)
    kinds = {None: 0, "se-violation": 0}
    for trial in range(2500):
        n = rng.randint(1, 4)
        vecs = {tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(rng.randint(2, 8))}
        M = Com(n, [SignVector.from_signs(v) for v in vecs])
        if check_face_symmetry(M) is None:
            continue
        w = check_strong_elimination(M)
        got = None if w is None else (w.kind, w.x.signs(), w.y.signs(), w.i)
        assert got == first_se_violation([v.signs() for v in M.covectors]), f"set {trial}"
        kinds[None if w is None else w.kind] += 1
    assert kinds == {None: 471, "se-violation": 1463}
