"""COMs that no corpus arrangement builds: down-sets of the cube.

A down-set D of {0,1}^n, a family of subsets closed under taking
subsets, is taken as a covector set: X belongs when every completion of
X, each 0 replaced by + or -, lies in D, with + read as "in the subset".
The completions of X are the sets between X+ and the complement of X-,
so X belongs exactly when the complement of X- lies in D.  Such sets are
COMs whose topes are the members of D, and the NBC sets of size k are
counted by the members of D of size k.
"""

from random import Random

from comring.circuits import submasks
from comring.core import Com, SignVector, is_com
from comring.rings import hilbert_series
from comring.verify import full_verify


def down_set(rng):
    n = rng.randint(1, 6)
    members = set()
    for _ in range(rng.randint(1, 4)):
        members.update(submasks(rng.getrandbits(n)))
    return n, members


def down_set_com(n, members):
    full = (1 << n) - 1
    return Com(n, [SignVector(n, p, full ^ d) for d in members for p in submasks(d)])


def test_down_sets_of_the_cube_are_verified_coms():
    rng = Random(5)
    for _ in range(300):
        n, members = down_set(rng)
        L = down_set_com(n, members)
        assert is_com(L), (n, sorted(members))
        assert full_verify(L)[0], (n, sorted(members))
        profile = [0] * (max(d.bit_count() for d in members) + 1)
        for d in members:
            profile[d.bit_count()] += 1
        assert hilbert_series(L) == tuple(profile), (n, sorted(members))
