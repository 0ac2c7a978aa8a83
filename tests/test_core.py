"""Domain types: distributions, rng contract, scenarios, assignments."""

import math

import numpy as np
import pytest

from testscore import (
    Assignment,
    BudgetExceededError,
    ConcaveFn,
    Distribution,
    ProjectStore,
    RngSpec,
    Scenario,
    ValidationError,
    ValueFunction,
    InverseUnboundedError,
    brute_force_single,
    bsp_check,
    build_score_table,
    dist_mean,
    enumeration_budget,
    evaluate,
    evaluate_batch,
    greedy_topk,
    ingest_ratings,
    mc_utility,
    minmax_sketch,
    project_utility,
    replication_score,
    ScoreTable,
    strong_sketch,
    submodularity_check,
    verify_goodness_sandwich,
    verify_strong_sketch_bounds,
    welfare_greedy_bound,
)
from testscore import utility
from testscore.adversarial import (
    CATALOGUE_POOL,
    gen_ces_mean_tightness,
    gen_mean_fails_bestshot,
    gen_quantile_ces,
    gen_quantile_fails_linear,
    gen_welfare_example1,
    gen_welfare_example2,
    random_bsp_scenario,
    random_single_scenario,
    random_welfare_scenario,
)
from testscore.core import charge, check_count

TWO_POINT = Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))


class TestDistribution:
    def test_point_mass(self):
        d = Distribution.point(3.0)
        assert d.values == (3.0,)
        assert d.probs == (1.0,)
        assert dist_mean(d) == 3.0

    def test_mean_two_point(self):
        assert dist_mean(TWO_POINT) == 1.0

    def test_mean_three_point(self):
        d = Distribution.from_pairs(((1.0, 0.25), (2.0, 0.25), (4.0, 0.5)))
        assert dist_mean(d) == pytest.approx(2.75, abs=1e-12)

    def test_sorts_support(self):
        d = Distribution.from_pairs(((5.0, 0.5), (1.0, 0.5)))
        assert d.values == (1.0, 5.0)
        assert d.probs == (0.5, 0.5)

    def test_normalizes_tiny_prob_drift(self):
        p = 1.0 / 3.0
        d = Distribution((0.0, 1.0, 2.0), (p, p, p))
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Distribution((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            Distribution((1.0, 2.0), (1.0,))

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Distribution((1.0, 1.0), (0.5, 0.5))

    def test_rejects_negative_value(self):
        with pytest.raises(ValidationError, match="negative"):
            Distribution((-1.0, 1.0), (0.5, 0.5))

    def test_rejects_nonpositive_prob(self):
        with pytest.raises(ValidationError):
            Distribution((0.0, 1.0), (1.0, 0.0))

    def test_rejects_bad_prob_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            Distribution((0.0, 1.0), (0.5, 0.4))

    @pytest.mark.parametrize(
        "values, probs",
        [
            ((math.nan, 1.0), (0.5, 0.5)),
            ((0.0, math.inf), (0.5, 0.5)),
            ((0.0, 1.0), (math.nan, 0.5)),
            ((0.0, 1.0), (math.inf, 0.5)),
            ((-math.inf, 1.0), (0.5, 0.5)),
        ],
    )
    def test_rejects_non_finite(self, values, probs):
        with pytest.raises(ValidationError):
            Distribution(values, probs)

    def test_sum_inside_the_band_is_left_as_it_is(self):
        probs = (0.5, 0.5 + 2.0**-52)
        assert math.fsum(probs) == 1.0 + 2.0**-52
        assert Distribution((0.0, 1.0), probs).probs == probs

    def test_sum_outside_the_band_is_divided_out(self):
        p = (1.0 - 3e-10) / 3
        d = Distribution((0.0, 1.0, 2.0), (p, p, p))
        total = math.fsum((p, p, p))
        assert d.probs == (p / total,) * 3

    def test_rebuilding_is_bit_identical_seeded(self):
        # 2000 random 2-7 atom supports, normalized by a plain float sum
        gen = np.random.default_rng(3)
        for _ in range(2000):
            s = int(gen.integers(2, 8))
            w = gen.uniform(0.05, 1.0, s)
            d = Distribution(tuple(np.sort(gen.uniform(0, 5, s)).tolist()), tuple((w / w.sum()).tolist()))
            again = Distribution(d.values, d.probs)
            assert list(map(float.hex, again.probs)) == list(map(float.hex, d.probs))

    def test_rebuilding_is_bit_identical_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(
            values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=7, unique=True),
            data=st.data(),
        )
        def check(values, data):
            weights = data.draw(
                st.lists(st.floats(1e-3, 1.0), min_size=len(values), max_size=len(values))
            )
            total = sum(weights)
            d = Distribution(tuple(values), tuple(w / total for w in weights))
            again = Distribution(d.values, d.probs)
            assert list(map(float.hex, again.values)) == list(map(float.hex, d.values))
            assert list(map(float.hex, again.probs)) == list(map(float.hex, d.probs))

        check()

    def test_overflowing_probability_sum_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="sum"):
            Distribution((0.0, 1.0), (1e308, 1e308))

    def test_cdf_ends_at_one(self):
        d = Distribution.from_pairs(((0.0, 0.1), (1.0, 0.2), (2.0, 0.7)))
        assert d.cdf_array[-1] == 1.0


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(seed=42).generator(3).random(8)
        b = RngSpec(seed=42).generator(3).random(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(seed=42).generator(0).random(8)
        b = RngSpec(seed=42).generator(1).random(8)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngSpec(seed=1).generator(0).random(8)
        b = RngSpec(seed=2).generator(0).random(8)
        assert not np.array_equal(a, b)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            RngSpec(seed=-1)
        with pytest.raises(ValidationError):
            RngSpec(seed=2**64)


class TestSampling:
    """Inverse-CDF draws, through the one sampler, ``mc_utility``."""

    IDENTITY = ValueFunction.total(ConcaveFn("identity"))

    def draws(self, monkeypatch, d, seed, samples):
        # the sample matrix the value function is evaluated on
        seen = []

        def spy(g, X):
            seen.append(X.copy())
            return real(g, X)

        real = utility._evaluate_rows
        monkeypatch.setattr(utility, "_evaluate_rows", spy)
        scn = Scenario.single_project([d], self.IDENTITY, 1)
        est = mc_utility(scn, 0, [0], RngSpec(seed=seed), samples=samples)
        (X,) = seen
        assert X.shape == (samples, 1)
        return X[:, 0], est

    def test_point_mass_sampling(self, monkeypatch):
        out, _ = self.draws(monkeypatch, Distribution.point(7.0), 5, 5)
        assert out.tolist() == [7.0] * 5

    def test_sample_mean_near_expectation(self, monkeypatch):
        # CLT band: sd of a {0,2} coin flip mean over 1e5 draws is ~1/sqrt(1e5)
        out, est = self.draws(monkeypatch, TWO_POINT, 11, 100_000)
        assert est.value == out.mean()
        assert abs(est.value - 1.0) <= 3.0 / math.sqrt(100_000)

    def test_sample_values_live_on_support(self, monkeypatch):
        d = Distribution.from_pairs(((0.5, 0.3), (1.5, 0.3), (2.5, 0.4)))
        out, _ = self.draws(monkeypatch, d, 3, 1000)
        assert set(np.unique(out)) <= {0.5, 1.5, 2.5}


class TestEmpiricalDistribution:
    # a coder's ratings become their distinct values, each with its relative
    # frequency, in the store that ingest packs
    @staticmethod
    def empirical(ratings):
        rows = [("c", f"t{i}", float(r)) for i, r in enumerate(ratings)]
        return ingest_ratings(rows, min_solutions=1).scenario.dist(0, 0)

    def test_frequencies(self):
        d = self.empirical([1, 1, 3])
        assert d.values == (1.0, 3.0)
        assert d.probs == pytest.approx((2 / 3, 1 / 3))

    def test_singleton(self):
        d = self.empirical([5])
        assert d.values == (5.0,)
        assert d.probs == (1.0,)

    def test_mostly_zeros(self):
        d = self.empirical([0, 0, 0, 2])
        assert d.values == (0.0, 2.0)
        assert d.probs == (0.75, 0.25)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="no coder has 1"):
            self.empirical([])


class TestScenario:
    def test_single_project_shape(self):
        scn = Scenario.single_project([TWO_POINT] * 4, ValueFunction.best_shot(), 2)
        assert scn.n_agents == 4
        assert scn.n_projects == 1
        assert scn.cardinalities == (2,)
        assert scn.dist(3, 0) is TWO_POINT

    def test_rejects_zero_cardinality(self):
        with pytest.raises(ValidationError):
            Scenario.single_project([TWO_POINT] * 2, ValueFunction.best_shot(), 0)

    def test_rejects_infeasible_total(self):
        g = ValueFunction.best_shot()
        with pytest.raises(ValidationError, match="infeasible"):
            Scenario(
                dists=((TWO_POINT, TWO_POINT),) * 2,
                value_fns=(g, g),
                cardinalities=(2, 1),
            )

    def test_rejects_ragged_rows(self):
        g = ValueFunction.best_shot()
        with pytest.raises(ValidationError):
            Scenario(
                dists=((TWO_POINT, TWO_POINT), (TWO_POINT,)),
                value_fns=(g, g),
                cardinalities=(1, 1),
            )

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda g: Scenario(dists=((),), value_fns=(), cardinalities=()),
                "scenario needs at least one project",
            ),
            (
                lambda g: Scenario(
                    dists=None,
                    value_fns=(g, g),
                    cardinalities=(1, 1),
                    stores=(ProjectStore.pack([TWO_POINT] * 2), ProjectStore.pack([TWO_POINT] * 3)),
                ),
                "one store per project, each holding every agent, required",
            ),
            (
                lambda g: Scenario(dists=((TWO_POINT, None),), value_fns=(g, g), cardinalities=(1, 1)),
                r"missing distribution for pair \(0, 1\)",
            ),
        ],
        ids=["no-projects", "unequal-stores", "missing-cell"],
    )
    def test_rejects_malformed_shapes(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build(ValueFunction.best_shot())

    @pytest.mark.parametrize("loaded", [False, True], ids=["dists", "stores"])
    @pytest.mark.parametrize(
        "g, top, ok",
        [
            (ValueFunction.ces(300.0), 10.0, True),
            (ValueFunction.ces(400.0), 10.0, False),
            (ValueFunction.ces(2.0), 1e300, False),
            (ValueFunction.total(ConcaveFn("sqrt")), 1e308, False),
            (ValueFunction.top_r(1), 1e308, False),
            (ValueFunction.top_r(1), 8e307, True),
            (ValueFunction.best_shot(), 1.7e308, True),
        ],
    )
    def test_team_sums_must_stay_finite(self, g, top, ok, loaded):
        # a team of 2 sums phi(x) over its members: x^r for ces, x otherwise
        dists = [Distribution.from_pairs(((0.0, 0.5), (top, 0.5))), Distribution.point(1.0)]
        if loaded:
            build = lambda: Scenario(None, (g,), (2,), (ProjectStore.pack(dists),))
        else:
            build = lambda: Scenario.single_project(dists, g, 2)
        if ok:
            build()
        else:
            with pytest.raises(ValidationError, match="^project 0: a team of 2 "):
                build()

    def test_rejects_no_agents(self):
        with pytest.raises(ValidationError):
            Scenario(dists=(), value_fns=(ValueFunction.best_shot(),), cardinalities=(1,))


def _size_calls():
    # each size argument the library takes, as a call of that argument alone
    scn = Scenario.single_project([TWO_POINT, Distribution.point(1.0), Distribution.point(3.0)], ValueFunction.best_shot(), 2)
    table = build_score_table(scn, "replication", max_r=2)
    answer = lambda x: x.assignment.sets
    return {
        "greedy_topk k": (lambda k: greedy_topk(scn, 0, k, table), answer),
        "brute_force_single k": (lambda k: brute_force_single(scn, 0, k), answer),
        "replication_score k": (lambda k: replication_score(ValueFunction.top_r(2), TWO_POINT, k), float.hex),
        "build_score_table max_r": (lambda r: build_score_table(scn, "replication", max_r=r), lambda t: t.scores.tobytes()),
        "top_r r": (ValueFunction.top_r, lambda g: g),
        "cardinality": (
            lambda k: Scenario(dists=((TWO_POINT,),) * 3, value_fns=(ValueFunction.best_shot(),), cardinalities=(k,)),
            lambda scn: scn.cardinalities,
        ),
        "single_project k": (
            lambda k: Scenario.single_project([TWO_POINT] * 3, ValueFunction.best_shot(), k),
            lambda scn: scn.cardinalities,
        ),
    }


class TestCounts:
    """Size arguments (team sizes, copies, table widths, top-r's r and
    cardinalities) take an int or a numpy integer and refuse anything
    else, as indices do."""

    def test_check_count(self):
        assert check_count(3, 1, "k") == 3 and type(check_count(np.int64(3), 1, "k")) is int
        assert check_count(0, 0, "k") == 0 and check_count(5, 1, "k", 5) == 5
        for value in (True, 2.0, 2.5, "2", None, np.float64(2.0)):
            with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got "):
                check_count(value, 1, "k")
        with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got 0$"):
            check_count(0, 1, "k")
        with pytest.raises(ValidationError, match=r"^k must be in 1..5, got 6$"):
            check_count(6, 1, "k", 5)

    @pytest.mark.parametrize("name", list(_size_calls()))
    @pytest.mark.parametrize("value", [True, 2.0, 2.5, np.float64(2.0)], ids=["bool", "float", "fraction", "np-float"])
    def test_refuses_non_integers(self, name, value):
        call, _ = _size_calls()[name]
        with pytest.raises(ValidationError, match=" must be "):
            call(value)

    @pytest.mark.parametrize("name", list(_size_calls()))
    def test_numpy_integer_is_the_int(self, name):
        call, answer = _size_calls()[name]
        assert answer(call(np.int64(2))) == answer(call(2))

    def test_scenario_keeps_plain_ints(self):
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.best_shot(), np.int64(2))
        assert scn.cardinalities == (2,) and type(scn.cardinalities[0]) is int
        assert ValueFunction.top_r(np.int64(2)) == ValueFunction.top_r(2)
        assert type(ValueFunction.top_r(np.int64(2)).r) is int

    def test_member_ids_are_indices(self):
        # a float or bool id no longer reads as the agent it truncates to
        scn = Scenario.single_project([TWO_POINT, Distribution.point(1.0), Distribution.point(3.0)], ValueFunction.best_shot(), 2)
        for S in ([1.5], [True], [np.float64(1.0)], [-1], [3]):
            with pytest.raises(ValidationError, match=r"^agent must be an index in range\(3\), got "):
                project_utility(scn, 0, S)
        assert project_utility(scn, 0, [np.int64(1)]) == project_utility(scn, 0, [1])

    def test_repeated_member_is_a_set_reading(self):
        scn = Scenario.single_project([TWO_POINT, Distribution.point(1.0), Distribution.point(3.0)], ValueFunction.ces(2.0), 2)
        for S, once in (([2, 2], [2]), ([0, 1, 0, 1], [0, 1]), ([1, 0, 1], [0, 1])):
            for score in (project_utility, utility.exact_utility):
                twice, alone = score(scn, 0, S), score(scn, 0, once)
                assert (twice.value.hex(), twice.method) == (alone.value.hex(), alone.method)
            twice, alone = (mc_utility(scn, 0, T, RngSpec(seed=3), samples=64) for T in (S, once))
            assert (twice.value.hex(), twice.std_error.hex()) == (alone.value.hex(), alone.std_error.hex())


class TestArgumentSweep:
    """Every public call that takes a project, an agent, a size, a seed or
    a stream, the bundled generators' and random samplers' sizes among
    them, with each such argument drawn from -1, its range's length n,
    True, 1.5, 2.0, np.int64(1), "1" and None: the call raises
    ValidationError, or answers as it does with the plain ints, and raises
    nothing else. A non-integer or -1 is always refused."""

    N = "the range's length"  # stands for the argument's n in a draw
    DRAWS = (-1, N, True, 1.5, 2.0, np.int64(1), "1", None)

    @staticmethod
    def calls():
        # each call with the length of the range each argument is an index
        # or a count in, or for a generator a size it takes; two projects,
        # so that -1 must not read as the last
        d = [TWO_POINT, Distribution.point(1.0), Distribution.from_pairs(((0.5, 0.3), (3.0, 0.7))), Distribution.point(2.0)]
        scn = Scenario(tuple((x, x) for x in d), (ValueFunction.ces(2.0), ValueFunction.best_shot()), (1, 3))
        table = build_score_table(scn, "replication", max_r=3)
        projects, agents = scn.n_projects, scn.n_agents

        def take(i, j):  # a repeated agent is two copies of one distribution
            taken = scn.store(0).take([i, 2, j, j])
            return [a.tolist() for a in (taken.values, taken.probs, taken.lengths, taken.source[1])]

        def rng(seed, stream):
            spec = RngSpec(seed=seed)
            return spec.seed, spec.generator(stream).random(2).tolist()

        def sampled(sampler, *args, **sizes):  # one fresh stream per call
            return sampler(np.random.default_rng(0), *args, **sizes)

        def ingested(least):  # coders c0..c3 with 1..4 ratings each
            rows = [(f"c{c}", f"t{t}", 10.0 * (c + t)) for c in range(4) for t in range(c + 1)]
            return ingest_ratings(rows, min_solutions=least).agent_names

        return {
            "take": (take, (agents, agents)),
            "RngSpec": (rng, (2**64, 2**64)),
            "brute_force_single": (lambda j, k: brute_force_single(scn, j, k), (projects, agents)),
            "greedy_topk": (lambda j, k: greedy_topk(scn, j, k, table), (projects, agents)),
            "project_utility": (lambda j, i: project_utility(scn, j, [i, 2]), (projects, agents)),
            "mc_utility": (lambda j, i, s: mc_utility(scn, j, [i], RngSpec(seed=1), samples=s), (projects, agents, agents)),
            "replication_score": (lambda k: replication_score(ValueFunction.top_r(2), TWO_POINT, k), (agents,)),
            "build_score_table": (lambda r: build_score_table(scn, "replication", max_r=r), (agents,)),
            "top_r": (ValueFunction.top_r, (agents,)),
            "minmax_sketch": (lambda j, i, k: minmax_sketch(table, j, [i], k), (projects, agents, agents)),
            "strong_sketch": (lambda j, i: strong_sketch(table, j, [i, 2]), (projects, agents)),
            "verify_strong_sketch_bounds": (lambda j, k: verify_strong_sketch_bounds(scn, j, k), (projects, agents)),
            "verify_goodness_sandwich": (lambda j, k: verify_goodness_sandwich(scn, j, k), (projects, agents)),
            "gen_mean_fails_bestshot": (gen_mean_fails_bestshot, (4,)),
            "gen_quantile_fails_linear": (gen_quantile_fails_linear, (10,)),
            "gen_ces_mean_tightness": (gen_ces_mean_tightness, (4,)),
            "gen_quantile_ces": (lambda k, n: gen_quantile_ces(k=k, n=n), (2, 6)),
            "gen_welfare_example1": (gen_welfare_example1, (3,)),
            "gen_welfare_example2": (gen_welfare_example2, (3,)),
            "random_single_scenario": (
                lambda n, k: sampled(random_single_scenario, ValueFunction.best_shot(), n=n, k=k), (5, 5)),
            "random_bsp_scenario": (
                lambda n, k, low: sampled(random_bsp_scenario, n_max=n, k_max=k, k_min=low), (7, 4, 4)),
            "random_welfare_scenario": (lambda n, m: sampled(random_welfare_scenario, n_max=n, m_max=m), (8, 3)),
            "welfare_greedy_bound": (welfare_greedy_bound, (agents,)),
            "ingest_ratings": (ingested, (agents,)),
            # past max_agents both forms raise the same budget error
            "submodularity_check": (lambda most: submodularity_check(scn, 1, max_agents=most), (agents,)),
        }

    @staticmethod
    def outcome(call, args):
        try:
            answer = call(*args)
        except ValidationError:
            return ValidationError
        except BudgetExceededError as exc:
            return str(exc)
        return answer.scores.tobytes() if isinstance(answer, ScoreTable) else repr(answer)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda gen: random_single_scenario(gen, ValueFunction.best_shot(), n=2.5), "n must be an integer >= 1, got 2.5"),
            (lambda gen: random_single_scenario(gen, ValueFunction.best_shot(), k=6), "k must be in 1..5, got 6"),
            (lambda gen: gen_mean_fails_bestshot(k=2.5), "k must be an integer >= 1, got 2.5"),
            (lambda gen: gen_quantile_fails_linear(k=1), "k must be an integer >= 2, got 1"),
            (lambda gen: gen_ces_mean_tightness(k=0), "k must be an integer >= 1, got 0"),
            (lambda gen: gen_quantile_ces(n=64.5), "n must be an integer >= 48, got 64.5"),
            (lambda gen: gen_quantile_ces(n=47), "n must be an integer >= 48, got 47"),
            (lambda gen: gen_welfare_example1(r=2.5), "r must be an integer >= 2, got 2.5"),
            (lambda gen: gen_welfare_example2(r=3.0), "r must be an integer >= 2, got 3.0"),
            (lambda gen: random_welfare_scenario(gen, m_max=1), "m_max must be an integer >= 2, got 1"),
            (lambda gen: random_welfare_scenario(gen, n_max=2), "n_max must be an integer >= 4, got 2"),
            (lambda gen: random_bsp_scenario(gen, n_max=2.5), "n_max must be an integer >= 2, got 2.5"),
            (lambda gen: random_bsp_scenario(gen, k_max=True), "k_max must be an integer >= 1, got True"),
            (lambda gen: random_bsp_scenario(gen, k_min=5), "k_min must be in 1..4, got 5"),
        ],
    )
    def test_generator_sizes_name_the_argument(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call(np.random.default_rng(0))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: welfare_greedy_bound(True), "k must be an integer >= 1, got True"),
            (lambda: welfare_greedy_bound(2.5), "k must be an integer >= 1, got 2.5"),
            (lambda: welfare_greedy_bound(math.nan), "k must be an integer >= 1, got nan"),
            (lambda: ingest_ratings([("c", "t", 50.0)], min_solutions=2.5), "min_solutions must be an integer >= 1, got 2.5"),
            (lambda: ingest_ratings([("c", "t", 50.0)], min_solutions=True), "min_solutions must be an integer >= 1, got True"),
            (
                lambda: submodularity_check(Scenario.single_project([TWO_POINT] * 5, ValueFunction.best_shot(), 1), 0, max_agents=2.5),
                "max_agents must be an integer >= 0, got 2.5",
            ),
        ],
        ids=["bound-True", "bound-2.5", "bound-nan", "ingest-2.5", "ingest-True", "submodularity-2.5"],
    )
    def test_counts_name_the_argument(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message

    def test_sweep(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        calls = self.calls()

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(name=st.sampled_from(sorted(calls)), data=st.data())
        def check(name, data):
            call, ranges = calls[name]
            args = [n if value is self.N else value for n, value in zip(ranges, data.draw(st.tuples(*[st.sampled_from(self.DRAWS)] * len(ranges))))]
            plain = [int(a) if isinstance(a, (int, np.integer)) and not isinstance(a, bool) else None for a in args]
            refused = None in plain or -1 in plain
            assert self.outcome(call, args) == (ValidationError if refused else self.outcome(call, plain))

        check()

    COORDINATES = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1.5, 1e300)

    def test_coordinates(self):
        # evaluate, evaluate_batch and bsp_check on vectors drawn from
        # COORDINATES, under every catalogue variant: a NaN, infinite or
        # negative coordinate raises ValidationError naming the argument;
        # any other vector answers (bsp_check may find g^{-1} unbounded)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        calls = {
            "evaluate": ("x", lambda g, x: evaluate(g, x)),
            "evaluate_batch": ("X", lambda g, x: evaluate_batch(g, [x, x[::-1]]).tolist()),
            "bsp_check": ("x", bsp_check),
        }

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(
            name=st.sampled_from(sorted(calls)),
            factory=st.sampled_from(CATALOGUE_POOL),
            x=st.lists(st.sampled_from(self.COORDINATES), min_size=2, max_size=4),
        )
        def check(name, factory, x):
            arg, call = calls[name]
            bad = [v for v in x if not 0.0 <= v < math.inf]
            with np.errstate(over="ignore", invalid="ignore"):
                if bad:
                    with pytest.raises(ValidationError) as exc:
                        call(factory(), x)
                    assert str(exc.value) == f"{arg} must hold finite coordinates >= 0, got {bad[0]}"
                else:
                    try:
                        call(factory(), x)
                    except InverseUnboundedError:
                        assert name == "bsp_check"

        check()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: evaluate(ValueFunction.best_shot(), [-5.0]), "x must hold finite coordinates >= 0, got -5.0"),
            (lambda: evaluate(ValueFunction.best_shot(), [math.nan, 1.0]), "x must hold finite coordinates >= 0, got nan"),
            (lambda: evaluate_batch(ValueFunction.total(ConcaveFn("sqrt")), [[-4.0]]), "X must hold finite coordinates >= 0, got -4.0"),
            (lambda: evaluate_batch(ValueFunction.ces(2.0), [[1.0, 2.0], [math.inf, 0.0]]), "X must hold finite coordinates >= 0, got inf"),
            (lambda: bsp_check(ValueFunction.best_shot(), [1.0, -math.inf]), "x must hold finite coordinates >= 0, got -inf"),
        ],
    )
    def test_coordinates_name_the_argument(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message


class TestAssignment:
    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError, match="multiple projects"):
            Assignment(sets=((0, 1), (1,)))

    def test_total_assigned(self):
        assert Assignment(sets=((0, 1), (), (4,))).total_assigned() == 3


class TestBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("TESTSCORE_BUDGET", raising=False)
        assert enumeration_budget() == 10_000_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "123")
        assert enumeration_budget() == 123

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "ten")
        with pytest.raises(ValidationError):
            enumeration_budget()
        monkeypatch.setenv("TESTSCORE_BUDGET", "0")
        with pytest.raises(ValidationError):
            enumeration_budget()

    def test_charge_refuses_work_past_the_budget(self):
        charge(100, 100, "exact expectation")  # at the budget: no error
        with pytest.raises(BudgetExceededError) as exc:
            charge(101, 100, "experiment", "2 trials x 3 team sizes")
        assert str(exc.value) == "experiment budget exceeded: 101 > 100 (2 trials x 3 team sizes)"
        assert exc.value.shape == "2 trials x 3 team sizes"

    def test_error_carries_numbers(self):
        err = BudgetExceededError(500, 100, what="subset enumeration")
        assert err.required == 500
        assert err.budget == 100
        assert "500 > 100" in str(err)
