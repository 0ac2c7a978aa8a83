"""Value function catalogue: evaluation, inverses, structural checks."""

import math

import numpy as np
import pytest

from testscore import (
    ConcaveFn,
    InverseUnboundedError,
    UnitFn,
    ValueFunction,
    bsp_check,
    evaluate,
    evaluate_batch,
    single_inverse,
)
from testscore import core
from testscore.production import ValidationError
from oracle_tools import (
    diminishing_across_check,
    fn_best_shot,
    fn_ces,
    fn_success,
    fn_top_r,
    fn_total,
    single_inverse_bisect,
    value_submodularity_check,
)

CATALOGUE = [
    (ValueFunction.total(ConcaveFn("identity")), fn_total(lambda s: s)),
    (ValueFunction.total(ConcaveFn("sqrt")), fn_total(math.sqrt)),
    (ValueFunction.total(ConcaveFn("log1p")), fn_total(math.log1p)),
    (ValueFunction.total(ConcaveFn("power", 0.7)), fn_total(lambda s: s**0.7)),
    (ValueFunction.best_shot(), fn_best_shot()),
    (ValueFunction.top_r(2), fn_top_r(2)),
    (ValueFunction.ces(1.0), fn_ces(1.0)),
    (ValueFunction.ces(2.0), fn_ces(2.0)),
    (ValueFunction.ces(4.0), fn_ces(4.0)),
    (
        ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)),
        fn_success(lambda v: min(0.25 * v, 1.0)),
    ),
    (
        ValueFunction.success_prob(UnitFn("one_minus_exp", 0.5)),
        fn_success(lambda v: -math.expm1(-0.5 * v)),
    ),
]

BSP_MEMBERS = [
    ValueFunction.total(ConcaveFn("identity")),
    ValueFunction.total(ConcaveFn("sqrt")),
    ValueFunction.total(ConcaveFn("log1p")),
    ValueFunction.best_shot(),
    ValueFunction.ces(1.0),
    ValueFunction.ces(1.5),
    ValueFunction.ces(2.0),
    ValueFunction.ces(4.0),
    ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)),
    ValueFunction.success_prob(UnitFn("one_minus_exp", 0.5)),
]


class TestEvaluate:
    def test_ces_pythagorean(self):
        assert evaluate(ValueFunction.ces(2.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_best_shot_max(self):
        assert evaluate(ValueFunction.best_shot(), (1.0, 7.0, 2.0)) == 7.0

    def test_top_r_sum_of_largest(self):
        assert evaluate(ValueFunction.top_r(2), (1.0, 1.0, 1.0)) == 2.0
        assert evaluate(ValueFunction.top_r(2), (3.0, 1.0, 2.0)) == 5.0

    def test_success_prob_two_halves(self):
        g = ValueFunction.success_prob(UnitFn("clamp_linear", 1.0))
        assert evaluate(g, (0.5, 0.5)) == pytest.approx(0.75)

    def test_total_sqrt(self):
        g = ValueFunction.total(ConcaveFn("sqrt"))
        assert evaluate(g, (1.0, 4.0)) == pytest.approx(math.sqrt(5.0))

    def test_empty_vector_is_zero(self):
        for g, _ in CATALOGUE:
            assert evaluate(g, []) == 0.0

    def test_zero_padding_invariance(self):
        gen = np.random.default_rng(7)
        for g, _ in CATALOGUE:
            x = gen.uniform(0.0, 3.0, 4)
            padded = np.concatenate([x, np.zeros(3)])
            assert evaluate(g, padded) == pytest.approx(evaluate(g, x), abs=1e-12)

    def test_permutation_invariance(self):
        gen = np.random.default_rng(8)
        for g, _ in CATALOGUE:
            x = gen.uniform(0.0, 3.0, 5)
            shuffled = x.copy()
            gen.shuffle(shuffled)
            assert evaluate(g, shuffled) == pytest.approx(evaluate(g, x), abs=1e-12)

    def test_matches_reference_functions(self):
        gen = np.random.default_rng(9)
        for g, ref in CATALOGUE:
            for _ in range(40):
                x = gen.uniform(0.0, 3.0, int(gen.integers(1, 7))).tolist()
                assert evaluate(g, x) == pytest.approx(ref(x), abs=1e-10)

    def test_batch_agrees_with_scalar(self):
        gen = np.random.default_rng(10)
        X = gen.uniform(0.0, 3.0, (50, 4))
        for g, _ in CATALOGUE:
            batch = evaluate_batch(g, X)
            scalar = [evaluate(g, row) for row in X]
            assert batch == pytest.approx(scalar, abs=1e-12)

    def test_batch_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            evaluate_batch(ValueFunction.best_shot(), np.zeros(3))


class TestConstruction:
    def test_rejects_unknown_concave_kind(self):
        with pytest.raises(ValueError):
            ConcaveFn("cubic")

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            ConcaveFn("power", 1.5)
        with pytest.raises(ValueError):
            ConcaveFn("power", 0.0)

    def test_rejects_bad_unit_fn(self):
        with pytest.raises(ValueError):
            UnitFn("sigmoid")
        with pytest.raises(ValueError):
            UnitFn("clamp_linear", 0.0)

    def test_rejects_fractional_top_r(self):
        with pytest.raises(ValueError):
            ValueFunction("top_r", r=1.5)

    def test_rejects_ces_below_one(self):
        with pytest.raises(ValueError):
            ValueFunction.ces(0.5)

    def test_rejects_mismatched_f(self):
        with pytest.raises(ValueError):
            ValueFunction("total", f=UnitFn("clamp_linear"))
        with pytest.raises(ValueError):
            ValueFunction("success_prob", f=ConcaveFn("sqrt"))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, x):
        makers = [
            lambda: ConcaveFn("power", x),
            lambda: ConcaveFn("sqrt", x),
            lambda: UnitFn("clamp_linear", x),
            lambda: UnitFn("one_minus_exp", x),
            lambda: ValueFunction.ces(x),
            lambda: ValueFunction("top_r", r=x),
        ]
        for make in makers:
            with pytest.raises(ValidationError):
                make()

    def test_validation_error_is_one_class(self):
        # defined here, re-exported by core, and still a ValueError
        assert core.ValidationError is ValidationError
        assert issubclass(ValidationError, ValueError)
        assert issubclass(InverseUnboundedError, ValidationError)


class TestInverse:
    def test_ces_is_identity_on_singles(self):
        assert single_inverse(ValueFunction.ces(3.0), 4.2) == 4.2

    def test_best_shot_zero(self):
        assert single_inverse(ValueFunction.best_shot(), 0.0) == 0.0

    def test_total_sqrt_squares(self):
        g = ValueFunction.total(ConcaveFn("sqrt"))
        assert single_inverse(g, 3.0) == pytest.approx(9.0)
        assert single_inverse_bisect(g, 3.0) == pytest.approx(9.0, abs=1e-8)

    def test_success_prob_saturation_unbounded(self):
        g = ValueFunction.success_prob(UnitFn("clamp_linear", 0.5))
        with pytest.raises(InverseUnboundedError):
            single_inverse(g, 1.0)
        with pytest.raises(InverseUnboundedError):
            single_inverse_bisect(g, 1.0)

    def test_closed_form_matches_bisection(self):
        gen = np.random.default_rng(21)
        for g, _ in CATALOGUE:
            for _ in range(10):
                x = float(gen.uniform(0.0, 0.9 if g.kind == "success_prob" else 5.0))
                assert single_inverse(g, x) == pytest.approx(
                    single_inverse_bisect(g, x), abs=1e-7
                )

    def test_round_trip_through_diagonal(self):
        gen = np.random.default_rng(22)
        for g, _ in CATALOGUE:
            for _ in range(10):
                x = float(gen.uniform(0.0, 0.9 if g.kind == "success_prob" else 5.0))
                y = single_inverse(g, x)
                assert evaluate(g, [y]) == pytest.approx(x, abs=1e-8)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            single_inverse(ValueFunction.best_shot(), -0.1)


class TestBsp:
    def test_ces_equality_example(self):
        res = bsp_check(ValueFunction.ces(2.0), (1.0, 2.0, 2.0))
        assert res.holds
        assert res.lhs == pytest.approx(3.0)
        assert res.rhs == pytest.approx(3.0)

    def test_best_shot_equality(self):
        res = bsp_check(ValueFunction.best_shot(), (0.3, 2.0, 1.1))
        assert res.holds
        assert res.lhs == pytest.approx(res.rhs)

    def test_top_r_counterexample(self):
        res = bsp_check(ValueFunction.top_r(2), (1.0, 1.0, 1.0))
        assert not res.holds
        assert res.lhs == 3.0
        assert res.rhs == 2.0

    def test_members_hold_with_equality(self):
        gen = np.random.default_rng(23)
        for g in BSP_MEMBERS:
            for _ in range(200):
                x = gen.uniform(0.0, 3.0, int(gen.integers(2, 7)))
                res = bsp_check(g, x)
                assert res.holds
                assert abs(res.lhs - res.rhs) <= 1e-9

    def test_rejects_short_vector(self):
        with pytest.raises(ValueError):
            bsp_check(ValueFunction.best_shot(), (1.0,))


class TestDiminishingAcross:
    def test_best_shot_marginals(self):
        # marginal of y=1 against x grid (0,1,2) is (1, 0, 0)
        assert diminishing_across_check(ValueFunction.best_shot(), 1.0, (0.0, 1.0, 2.0))

    def test_ces_linear_constant_marginal(self):
        assert diminishing_across_check(ValueFunction.ces(1.0), 1.0, (0.0, 5.0, 9.0))

    def test_ces_quadratic_marginals(self):
        g = ValueFunction.ces(2.0)
        assert diminishing_across_check(g, 1.0, (0.0, 1.0, 3.0))
        # spot-check the actual marginal values the grid walks through
        m = [evaluate(g, [x, 1.0]) - evaluate(g, [x]) for x in (0.0, 1.0, 3.0)]
        assert m == pytest.approx([1.0, math.sqrt(2) - 1, math.sqrt(10) - 3])

    def test_whole_catalogue_on_random_grids(self):
        gen = np.random.default_rng(24)
        for g, _ in CATALOGUE:
            for _ in range(10):
                grid = np.sort(gen.uniform(0.0, 4.0, 12))
                y = float(gen.uniform(0.0, 3.0))
                assert diminishing_across_check(g, y, grid)

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            diminishing_across_check(ValueFunction.best_shot(), 1.0, (1.0, 0.0))


class TestLatticeSubmodularity:
    def test_identical_vectors_equality(self):
        for g, _ in CATALOGUE:
            assert value_submodularity_check(g, (1.0, 2.0), (1.0, 2.0))

    def test_ces_cross_example(self):
        # join (1,1), meet (0,0): sqrt(2) + 0 <= 1 + 1
        assert value_submodularity_check(ValueFunction.ces(2.0), (1.0, 0.0), (0.0, 1.0))

    def test_random_vectors(self):
        gen = np.random.default_rng(25)
        for g, _ in CATALOGUE:
            for _ in range(100):
                n = int(gen.integers(2, 6))
                x = gen.uniform(0.0, 3.0, n)
                y = gen.uniform(0.0, 3.0, n)
                assert value_submodularity_check(g, x, y)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            value_submodularity_check(ValueFunction.best_shot(), (1.0,), (1.0, 2.0))
