"""Each constructor and function rejects out-of-range input with its own
message."""

from fractions import Fraction

import pytest

from comring.circuits import in_generator_set, orthogonal, realized_patterns
from comring.core import Com, SignVector, compose, separator, topes
from comring.exactalg import IntLattice, determinant, hermite_normal_form
from comring.minors import (
    contract, delete, inject, label_map, project, tope_trichotomy, verify_circuit_minor_laws,
    verify_lift, verify_tope_recursion
)
from comring.nbc import LinearOrder, broken_circuit, induced_order, nbc_sets, order_with_maximum
from comring.realize import Arrangement, Hyperplane, OpenRegion, sign_vector_at_point
from comring.rings import (
    EMonomial, MPoly, TopeFunction, e_X_eval, heaviside, nbc_basis_matrix, verify_presentation
)

ONE, TWO = SignVector(1, 1, 0), SignVector(2, 1, 0)
# 2 NBC sets, {} and {1}, but one tope
FEW_TOPES = Com.from_words(2, ["++", "-0"])
UNIT = (Fraction(1),)
# The line x = 0.
LINE = Arrangement(1, (Hyperplane(UNIT, Fraction(0)),), OpenRegion(()))

CASES = {
    "mask": (lambda L: SignVector(2, 0b100, 0), "mask exceeds ground set"),
    "overlap": (lambda L: SignVector(2, 1, 1), "plus and minus masks overlap"),
    "bool_size": (lambda L: SignVector(True, 1, 0), "ground set size must be nonnegative"),
    "float_size": (lambda L: SignVector(2.0, 1, 0), "ground set size must be nonnegative"),
    "com_bool_size": (lambda L: Com(True, [ONE]), "ground set size must be nonnegative"),
    "com_float_size": (lambda L: Com(1.0, [ONE]), "ground set size must be nonnegative"),
    "compose": (lambda L: compose(ONE, TWO), "ground sets differ"),
    "separator": (lambda L: separator(ONE, TWO), "ground sets differ"),
    "orthogonal": (lambda L: orthogonal(ONE, TWO), "ground sets differ"),
    "in_generator_set": (lambda L: in_generator_set(L, TWO), "ground sets differ"),
    "e_X_eval": (lambda L: e_X_eval(L, TWO), "ground sets differ"),
    "project": (lambda L: project(TWO, TWO.n), "index outside ground set"),
    "inject": (lambda L: inject(TWO, TWO.n + 1), "insertion point outside range"),
    "minor_laws": (lambda L: verify_circuit_minor_laws(L, -1), "index outside ground set"),
    "maximum": (
        lambda L: LinearOrder(()).maximum_element(), "empty ground set has no maximum"
    ),
    "nbc_order": (
        lambda L: nbc_sets(L, LinearOrder.identity(L.n + 1)),
        "order is on the wrong ground set",
    ),
    "hyperplane": (
        lambda L: Arrangement(2, (Hyperplane(UNIT, Fraction(0)),), OpenRegion(())),
        "hyperplane dimension mismatch",
    ),
    "region": (
        lambda L: Arrangement(2, (), OpenRegion(((UNIT, Fraction(0)),))),
        "region dimension mismatch",
    ),
    "tope_values": (lambda L: TopeFunction(topes(L), ()), "one value per tope required"),
    "tope_lists": (
        lambda L: heaviside(L, 0, 1) + heaviside(FEW_TOPES, 0, 1), "tope lists differ"
    ),
    "u_exp": (lambda L: EMonomial((), u_exp=-1), "negative u exponent"),
    "u_exp_bool": (lambda L: EMonomial((), u_exp=True), "u exponent must be an int"),
    "u_exp_float": (lambda L: EMonomial((), u_exp=1.5), "u exponent must be an int"),
    "sign": (lambda L: EMonomial(((0, 2),)), "sign must be \\+1 or -1"),
    "dimension": (
        lambda L: Arrangement(-1, (), OpenRegion(())), "dimension must be a nonnegative int"
    ),
    "float_dimension": (
        lambda L: Arrangement(1.0, (), OpenRegion(())), "dimension must be a nonnegative int"
    ),
    "bool_dimension": (
        lambda L: Arrangement(True, (), OpenRegion(())), "dimension must be a nonnegative int"
    ),
    "hyperplane_bool": (
        lambda L: Hyperplane((True,), Fraction(0)), "hyperplane entries must be ints or Fractions"
    ),
    "hyperplane_float": (
        lambda L: Hyperplane((1.5,), Fraction(0)), "hyperplane entries must be ints or Fractions"
    ),
    "hyperplane_float_offset": (
        lambda L: Hyperplane(UNIT, 0.5), "hyperplane entries must be ints or Fractions"
    ),
    "region_bool": (
        lambda L: OpenRegion((((True,), 0),)), "region entries must be ints or Fractions"
    ),
    "region_float_offset": (
        lambda L: OpenRegion(((UNIT, 0.5),)), "region entries must be ints or Fractions"
    ),
    "point_float": (
        lambda L: sign_vector_at_point(LINE, (0.5,)), "point entries must be ints or Fractions"
    ),
    "ragged": (lambda L: determinant([[1], [1, 2]]), "ragged rows"),
    "hnf_ragged": (lambda L: hermite_normal_form([[1, 2], [1]]), "ragged rows"),
    "square": (lambda L: determinant([[1, 2]]), "matrix is not square"),
    "entries": (lambda L: determinant([[1.5]]), "matrix entries must be ints"),
    "bool_entry": (lambda L: determinant([[True]]), "matrix entries must be ints"),
    "hnf_float_entry": (
        lambda L: hermite_normal_form([[1, 2.0]]), "matrix entries must be ints"
    ),
    "hnf_bool_entry": (
        lambda L: hermite_normal_form([[1], [False]]), "matrix entries must be ints"
    ),
    "lattice_add": (
        lambda L: IntLattice(2).add([1]), "vector length does not match ambient dimension"
    ),
    "lattice_contains": (
        lambda L: IntLattice(2).contains([1]),
        "vector length does not match ambient dimension",
    ),
    "lattice_add_float": (
        lambda L: IntLattice(2).add([1.5, 0]), "vector entries must be ints"
    ),
    "lattice_add_bool": (lambda L: IntLattice(1).add([True]), "vector entries must be ints"),
    "lattice_contains_float": (
        lambda L: IntLattice(2).contains([0, 2.0]), "vector entries must be ints"
    ),
    "lattice_contains_bool": (
        lambda L: IntLattice(1).contains([False]), "vector entries must be ints"
    ),
    "exponent_length": (
        lambda L: MPoly.of(2, {(1, 0, 5): 3}), "exponent length does not match variable count"
    ),
    "negative_exponent": (lambda L: MPoly.of(2, {(0, -1): 2}), "negative exponent"),
    "float_coefficient": (
        lambda L: MPoly.const(2, 1.5), "exponents and coefficients must be ints"
    ),
    "bool_coefficient": (
        lambda L: MPoly.of(1, {(0,): True}), "exponents and coefficients must be ints"
    ),
    "float_exponent": (
        lambda L: MPoly.of(1, {(1.5,): 1}), "exponents and coefficients must be ints"
    ),
    "bool_exponent": (
        lambda L: MPoly.of(1, {(True,): 1}), "exponents and coefficients must be ints"
    ),
    "bool_nvars": (
        lambda L: MPoly.of(True, {(0,): 1}), "variable count must be a nonnegative int"
    ),
    "negative_nvars": (lambda L: MPoly.zero(-1), "variable count must be a nonnegative int"),
    "substitute_bool_value": (
        lambda L: MPoly.var(2, 0).substitute_const(0, True), "value must be an int"
    ),
    "substitute_float_value": (
        lambda L: MPoly.var(2, 0).substitute_const(1, 0.5), "value must be an int"
    ),
    "float_order": (lambda L: LinearOrder((0.0, 1.0)), "not a permutation of the ground set"),
    "bool_order": (lambda L: LinearOrder((True, False)), "not a permutation of the ground set"),
    "product_nvars": (
        lambda L: MPoly.var(2, 1) * MPoly.var(3, 2), "polynomials have different variable counts"
    ),
    "sum_nvars": (
        lambda L: MPoly.var(2, 1) + MPoly.var(3, 2), "polynomials have different variable counts"
    ),
    "difference_nvars": (
        lambda L: MPoly.var(2, 1) - MPoly.var(3, 2), "polynomials have different variable counts"
    ),
    "var_negative": (lambda L: MPoly.var(2, -1), "variable index out of range"),
    "divexact_index": (lambda L: MPoly.var(2, 1).divexact(5), "variable index out of range"),
    "divexact_negative": (
        lambda L: MPoly.var(2, 1).divexact(-1), "variable index out of range"
    ),
    "substitute_index": (
        lambda L: MPoly.var(2, 1).substitute_const(7, 2), "variable index out of range"
    ),
    "substitute_negative": (
        lambda L: MPoly.var(2, 1).substitute_const(-1, 2), "variable index out of range"
    ),
    "sign_index": (lambda L: SignVector.from_word("+-0").sign(5), "index outside ground set"),
    "sign_negative": (
        lambda L: SignVector.from_word("+-0").sign(-1), "index outside ground set"
    ),
    "broken_circuit_order": (
        lambda L: broken_circuit(SignVector.from_word("+-"), LinearOrder((2, 0, 1))),
        "order is on the wrong ground set",
    ),
    "render_few_names": (lambda L: MPoly.var(3, 2).render(["a"]), "one name per variable"),
    "render_extra_names": (
        lambda L: MPoly.var(2, 0).render(["a", "b", "c"]), "one name per variable"
    ),
    "from_signs": (lambda L: SignVector.from_signs([2, -5, 0]), "sign must be -1, 0 or \\+1"),
    "from_signs_bool": (
        lambda L: SignVector.from_signs((True, 0, -1)), "sign must be -1, 0 or \\+1"
    ),
    "from_signs_float": (
        lambda L: SignVector.from_signs((1, 0.0, -1)), "sign must be -1, 0 or \\+1"
    ),
    "heaviside_bool": (lambda L: heaviside(L, 0, True), "sign must be \\+1 or -1"),
    "heaviside_float": (lambda L: heaviside(L, 0, -1.0), "sign must be \\+1 or -1"),
    "sign_bool": (lambda L: EMonomial(((0, True),)), "sign must be \\+1 or -1"),
    "sign_float": (lambda L: EMonomial(((0, 1.0),)), "sign must be \\+1 or -1"),
    "monomial_bool_index": (lambda L: EMonomial(((True, 1),)), "index outside ground set"),
    "monomial_float_index": (lambda L: EMonomial(((1.0, 1),)), "index outside ground set"),
    "verify_presentation": (
        lambda L: verify_presentation(FEW_TOPES), "NBC count differs from tope count"
    ),
    "nbc_basis_matrix": (
        lambda L: nbc_basis_matrix(FEW_TOPES), "NBC count differs from tope count"
    ),
    "var_bool": (lambda L: MPoly.var(2, True), "variable index out of range"),
    "divexact_bool": (lambda L: MPoly.var(2, 1).divexact(True), "variable index out of range"),
    "substitute_bool": (
        lambda L: MPoly.var(2, 1).substitute_const(True, 2), "variable index out of range"
    ),
}

OUTSIDE = "index outside ground set"
ORDER = LinearOrder((2, 0, 1))
# Each call passes i as an element, insertion point or mask.  A bool or a
# float equal to a valid one is no index: each fails with the message of an
# index out of range.
INDEX_CALLS = {
    "delete": (delete, OUTSIDE),
    "contract": (contract, OUTSIDE),
    "sign": (lambda L, i: SignVector.from_word("+-0").sign(i), OUTSIDE),
    "project": (lambda L, i: project(TWO, i), OUTSIDE),
    "inject": (lambda L, i: inject(TWO, i), "insertion point outside range"),
    "label_map": (lambda L, i: label_map(3, i), OUTSIDE),
    "tope_trichotomy": (tope_trichotomy, OUTSIDE),
    "tope_recursion": (verify_tope_recursion, OUTSIDE),
    "lift": (verify_lift, OUTSIDE),
    "minor_laws": (verify_circuit_minor_laws, OUTSIDE),
    "induced_order": (lambda L, i: induced_order(ORDER, i), OUTSIDE),
    "order_with_maximum": (lambda L, i: order_with_maximum(3, i), OUTSIDE),
    "heaviside": (lambda L, i: heaviside(L, i, 1), OUTSIDE),
    "realized_patterns": (realized_patterns, OUTSIDE),
    "minimum": (lambda L, i: ORDER.minimum(i), "mask has elements outside the order"),
}
for name, (call, message) in INDEX_CALLS.items():
    for bad in (True, 1.0):
        CASES[f"{name}_{type(bad).__name__}_index"] = (
            lambda L, call=call, bad=bad: call(L, bad), message
        )


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES)
def test_out_of_range_input_is_rejected(ex4, call, message):
    with pytest.raises(ValueError, match=message):
        call(ex4)
