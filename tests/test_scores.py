"""Test scores: mean, quantile tail integral, replication, score tables."""

import io
import math

import numpy as np
import pytest

from testscore import (
    BudgetExceededError,
    ConcaveFn,
    Distribution,
    RngSpec,
    Scenario,
    ValidationError,
    ValueFunction,
    build_score_table,
    mean_score,
    quantile_level,
    quantile_score,
    replication_score,
)

from testscore.adversarial import CATALOGUE_POOL
from testscore.scenario_io import value_fn_tag
from testscore.utility import _MERGE

from oracle_tools import (
    CATALOGUE_REFS,
    fn_best_shot,
    fn_ces,
    fn_top_r,
    fn_total,
    ref_quantile,
    ref_replication,
)

PAIRED = [
    (factory(), ref) for factory, ref in zip(CATALOGUE_POOL, CATALOGUE_REFS, strict=True)
]
TAGS = [value_fn_tag(g) for g, _ in PAIRED]

TWO_POINT = Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))


class TestMeanScore:
    def test_point_mass(self):
        assert mean_score(Distribution.point(1.0)) == 1.0

    def test_rare_hit(self):
        d = Distribution.from_pairs(((0.0, 0.91), (10.0, 0.09)))
        assert mean_score(d) == pytest.approx(0.9)

    def test_coin(self):
        assert mean_score(TWO_POINT) == 1.0


class TestQuantileScore:
    def test_theta_zero_is_mean(self):
        gen = np.random.default_rng(41)
        for _ in range(20):
            s = int(gen.integers(1, 5))
            values = np.unique(np.round(gen.uniform(0, 3, s), 3))
            probs = gen.uniform(0.1, 1, len(values))
            d = Distribution(
                tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
            )
            assert quantile_score(d, 0.0) == pytest.approx(mean_score(d))

    def test_cut_inside_top_atom(self):
        # top 25% of mass sits entirely on the atom at 2
        assert quantile_score(TWO_POINT, 0.75) == pytest.approx(2.0)

    def test_two_point_tail_hits_upper_value(self):
        # {0 w.p. 1-p, a w.p. p} cut at 1 - 1/k with p > 1/k
        k, p, a = 5, 0.3, 1.5
        d = Distribution.from_pairs(((0.0, 1.0 - p), (a, p)))
        assert quantile_score(d, 1.0 - 1.0 / k) == pytest.approx(a)

    def test_atom_straddling_cut(self):
        # cut at 0.25 splits the lower atom: (0.25*0 + 0.5*2)/0.75
        assert quantile_score(TWO_POINT, 0.25) == pytest.approx(4.0 / 3.0)

    def test_matches_reference(self):
        gen = np.random.default_rng(42)
        for _ in range(50):
            s = int(gen.integers(1, 5))
            values = np.unique(np.round(gen.uniform(0, 3, s), 3))
            probs = gen.uniform(0.1, 1, len(values))
            d = Distribution(
                tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
            )
            pairs = list(zip(d.values, d.probs))
            for theta in (0.0, 0.2, 0.5, 0.9, 0.99):
                assert quantile_score(d, theta) == pytest.approx(
                    ref_quantile(pairs, theta), abs=1e-10
                )

    def test_monotone_in_theta(self):
        gen = np.random.default_rng(43)
        for _ in range(20):
            values = np.unique(np.round(gen.uniform(0, 3, 3), 3))
            probs = gen.uniform(0.1, 1, len(values))
            d = Distribution(
                tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
            )
            cuts = np.linspace(0.0, 0.98, 25)
            scores = [quantile_score(d, t) for t in cuts]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_rejects_bad_theta(self):
        with pytest.raises(ValidationError):
            quantile_score(TWO_POINT, 1.0)
        with pytest.raises(ValidationError):
            quantile_score(TWO_POINT, -0.1)

    def test_level_conversion(self):
        assert quantile_level(1.0, 16) == pytest.approx(1.0 - 1.0 / 16)
        assert quantile_level(4.0, 4) == 0.0
        with pytest.raises(ValidationError):
            quantile_level(0.0, 4)
        with pytest.raises(ValidationError):
            quantile_level(5.0, 4)


class TestReplicationScore:
    def test_point_mass_best_shot(self):
        d = Distribution.point(3.0)
        for k in (1, 2, 5):
            assert replication_score(ValueFunction.best_shot(), d, k) == 3.0

    def test_coin_best_shot_pair(self):
        got = replication_score(ValueFunction.best_shot(), TWO_POINT, 2)
        assert got == pytest.approx(1.5)

    def test_linear_scales_with_k(self):
        g = ValueFunction.ces(1.0)
        for k in (1, 2, 4):
            got = replication_score(g, TWO_POINT, k)
            assert got == pytest.approx(k * 1.0)

    def test_point_mass_ces_power_law(self):
        a, r = 2.5, 2.0
        d = Distribution.point(a)
        for k in (1, 2, 4, 9):
            got = replication_score(ValueFunction.ces(r), d, k)
            assert got == pytest.approx(a * k ** (1.0 / r))

    def test_k_one_is_single_copy_mean(self):
        g = ValueFunction.total(ConcaveFn("sqrt"))
        got = replication_score(g, TWO_POINT, 1)
        assert got == pytest.approx(0.5 * math.sqrt(2.0))

    def test_matches_reference_product_enumeration(self):
        gen = np.random.default_rng(44)
        fns = [
            (ValueFunction.total(ConcaveFn("sqrt")), fn_total(math.sqrt)),
            (ValueFunction.best_shot(), fn_best_shot()),
            (ValueFunction.ces(2.0), fn_ces(2.0)),
        ]
        for g, ref in fns:
            for _ in range(10):
                values = np.unique(np.round(gen.uniform(0, 3, 3), 3))
                probs = gen.uniform(0.1, 1, len(values))
                d = Distribution(
                    tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
                )
                pairs = list(zip(d.values, d.probs))
                for k in (1, 2, 3, 4):
                    assert replication_score(g, d, k) == pytest.approx(
                        ref_replication(pairs, ref, k), abs=1e-10
                    )

    @pytest.mark.parametrize("g, ref", PAIRED, ids=TAGS)
    def test_matches_reference_on_catalogue(self, g, ref):
        gen = np.random.default_rng(47)
        dists = [
            Distribution.point(0.0),
            Distribution.point(1.75),
            Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5))),
        ]
        for _ in range(3):
            values = np.unique(np.round(gen.uniform(0, 3, 3), 3))
            probs = gen.uniform(0.1, 1, len(values))
            dists.append(
                Distribution(
                    tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
                )
            )
        for d in dists:
            pairs = list(zip(d.values, d.probs))
            for k in range(1, 7):
                assert replication_score(g, d, k) == pytest.approx(
                    ref_replication(pairs, ref, k), rel=1e-12, abs=0
                ), (g, d, k)

    def test_top_r_at_least_copies(self):
        d = Distribution.from_pairs(((0.5, 0.3), (1.0, 0.3), (2.5, 0.4)))
        pairs = list(zip(d.values, d.probs))
        for r in (3, 6):
            for k in range(1, 7):
                assert replication_score(ValueFunction.top_r(r), d, k) == pytest.approx(
                    ref_replication(pairs, fn_top_r(r), k), rel=1e-12, abs=0
                )

    @pytest.mark.parametrize(
        "g, ref",
        [(g, ref) for g, ref in PAIRED if g.kind in ("total", "ces")],
        ids=[tag for tag, (g, _) in zip(TAGS, PAIRED) if g.kind in ("total", "ces")],
    )
    def test_integer_sums_cross_the_merge(self, g, ref):
        # 4^7 partial sums pass the merge threshold, so equal sums merge
        assert 4**6 <= _MERGE < 4**7
        d = Distribution.from_pairs(((0.0, 0.1), (1.0, 0.2), (2.0, 0.3), (3.0, 0.4)))
        pairs = list(zip(d.values, d.probs))
        assert replication_score(g, d, 7) == pytest.approx(
            ref_replication(pairs, ref, 7), rel=1e-12, abs=0
        )

    def test_monotone_in_k(self):
        gen = np.random.default_rng(45)
        fns = [
            ValueFunction.total(ConcaveFn("log1p")),
            ValueFunction.best_shot(),
            ValueFunction.ces(1.5),
        ]
        for g in fns:
            values = np.unique(np.round(gen.uniform(0, 3, 3), 3))
            probs = gen.uniform(0.1, 1, len(values))
            d = Distribution(
                tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
            )
            scores = [replication_score(g, d, k) for k in range(1, 8)]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_increments_diminish_in_k(self):
        # a^{k} - a^{k-1} is non-increasing for the submodular catalogue
        gen = np.random.default_rng(46)
        for g in (ValueFunction.best_shot(), ValueFunction.total(ConcaveFn("sqrt"))):
            for _ in range(5):
                values = np.unique(np.round(gen.uniform(0, 3, 3), 3))
                probs = gen.uniform(0.1, 1, len(values))
                d = Distribution(
                    tuple(values.tolist()), tuple((probs / probs.sum()).tolist())
                )
                s = [replication_score(g, d, k) for k in range(1, 9)]
                inc = [b - a for a, b in zip(s, s[1:])]
                assert all(b <= a + 1e-12 for a, b in zip(inc, inc[1:]))

    def test_monte_carlo_mode_converges(self):
        g = ValueFunction.ces(2.0)
        exact = replication_score(g, TWO_POINT, 3)
        mc = replication_score(g, TWO_POINT, 3, rng=RngSpec(seed=9), samples=200_000)
        assert mc != exact  # sampled, not silently exact
        assert abs(mc - exact) < 0.01

    def test_budget_raises(self):
        g = ValueFunction.ces(2.0)
        d = Distribution.from_pairs(
            ((0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25))
        )
        with pytest.raises(BudgetExceededError):
            replication_score(g, d, 500, budget=1000)

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            replication_score(ValueFunction.best_shot(), TWO_POINT, 0)


class TestScoreTable:
    def scn(self, n=3, g=None, k=2):
        g = g or ValueFunction.best_shot()
        dists = [
            TWO_POINT,
            Distribution.point(1.0),
            Distribution.from_pairs(((0.5, 0.4), (1.5, 0.6))),
        ][:n]
        return Scenario.single_project(dists, g, k)

    def test_mean_table_constant_in_r(self):
        table = build_score_table(self.scn(), "mean", max_r=2)
        for i in range(3):
            assert table.get(i, 0, 1) == table.get(i, 0, 2)
        assert table.kind == "mean"
        assert table.theta is None

    def test_quantile_table_needs_theta(self):
        with pytest.raises(ValidationError):
            build_score_table(self.scn(), "quantile", max_r=2)
        table = build_score_table(self.scn(), "quantile", max_r=2, theta=0.75)
        assert table.get(0, 0, 1) == pytest.approx(2.0)
        assert table.theta == 0.75

    def test_theta_rejected_elsewhere(self):
        with pytest.raises(ValidationError):
            build_score_table(self.scn(), "mean", max_r=2, theta=0.5)

    def test_replication_matches_pointwise_oracle(self):
        scn = Scenario.single_project(
            [TWO_POINT, Distribution.point(1.0)], ValueFunction.best_shot(), 2
        )
        table = build_score_table(scn, "replication", max_r=2)
        for i, d in [(0, TWO_POINT), (1, Distribution.point(1.0))]:
            for r in (1, 2):
                want = replication_score(ValueFunction.best_shot(), d, r)
                assert table.get(i, 0, r) == pytest.approx(want)

    def test_point_mass_replication_constant_in_r(self):
        scn = Scenario.single_project(
            [Distribution.point(2.0)] * 2, ValueFunction.best_shot(), 2
        )
        table = build_score_table(scn, "replication", max_r=2)
        assert table.get(0, 0, 1) == table.get(0, 0, 2) == 2.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            build_score_table(self.scn(), "median", max_r=2)

    def test_max_r_bounded_by_cardinality(self):
        with pytest.raises(ValidationError):
            build_score_table(self.scn(k=2), "mean", max_r=3)

    def test_missing_entry_raises(self):
        table = build_score_table(self.scn(), "mean", max_r=2)
        with pytest.raises(ValidationError, match="missing table entry"):
            table.get(0, 0, 3)

    def test_csv_round_trips_floats(self):
        table = build_score_table(self.scn(), "replication", max_r=2)
        buf = io.StringIO()
        table.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "agent,project,r,score,method,std_error"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert float(first[3]) == table.get(0, 0, 1)

    def test_mc_fallback_records_diagnostics(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 2, ValueFunction.ces(2.0), 2)
        table = build_score_table(scn, "replication", max_r=2, rng=RngSpec(seed=5))
        diag = table.diagnostics[(0, 0, 2)]
        assert diag.method == "monte_carlo"
        assert diag.std_error > 0
        exact = replication_score(ValueFunction.ces(2.0), d, 2, budget=10**6)
        assert abs(table.get(0, 0, 2) - exact) <= 6 * max(diag.std_error, 1e-9)

    def test_mc_fallback_disabled_raises(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 2, ValueFunction.ces(2.0), 2)
        with pytest.raises(BudgetExceededError):
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)

    def test_best_shot_closed_form_ignores_budget(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        table = build_score_table(self.scn(), "replication", max_r=2)
        assert table.diagnostics[(0, 0, 2)].method == "exact_best_shot"

    def test_deterministic_mc_tables(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 2, ValueFunction.ces(2.0), 2)
        t1 = build_score_table(scn, "replication", max_r=2, rng=RngSpec(seed=8))
        t2 = build_score_table(scn, "replication", max_r=2, rng=RngSpec(seed=8))
        assert t1.scores == t2.scores
