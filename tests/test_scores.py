"""Test scores: mean, quantile tail integral, replication, score tables."""

import csv
import io
import json
import math
from itertools import product

import numpy as np
import pytest

from testscore import (
    BudgetExceededError,
    ConcaveFn,
    Distribution,
    ProjectStore,
    RngSpec,
    Scenario,
    ValidationError,
    ValueFunction,
    best_strong_sketch_assignment,
    brute_force_single,
    build_score_table,
    greedy_topk,
    greedy_welfare,
    mean_score,
    quantile_score,
    replication_score,
)

from testscore.adversarial import CATALOGUE_POOL
from testscore.core import enumeration_budget
from testscore.scenario_io import scenario_from_dict, scenario_to_dict, value_fn_tag
from testscore.scores import (
    MC_BASE_SAMPLES,
    MC_MAX_ROUNDS,
    MC_TARGET_REL_SE,
    ScoreTable,
)
from testscore import utility
from testscore.utility import _MERGE, _exact_rows, _mc, _member_rows, _subsets, team_values

from oracle_tools import (
    CATALOGUE_REFS,
    fn_best_shot,
    fn_ces,
    fn_top_r,
    fn_total,
    ref_quantile,
    ref_replication,
    ref_replication_table,
)

PAIRED = [
    (factory(), ref) for factory, ref in zip(CATALOGUE_POOL, CATALOGUE_REFS, strict=True)
]
TAGS = [value_fn_tag(g) for g, _ in PAIRED]

TWO_POINT = Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))


def table_csv(table: ScoreTable) -> str:
    """The table's built cells as CSV text, one row per cell in (agent,
    project, r) order: agent, project, r, score, method and std_error, the
    floats as their repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agent", "project", "r", "score", "method", "std_error"])
    n, m, max_r = table.scores.shape
    cells = zip(
        product(range(n), range(m), range(1, max_r + 1)),
        table.scores.ravel().tolist(),
        table.methods.ravel().tolist(),
        table.std_errors.ravel().tolist(),
    )
    for (i, j, r), score, method, se in cells:
        if method is not None:  # built
            writer.writerow([i, j, r, repr(score), method, repr(se)])
    return buf.getvalue()


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
        mc = _mc(g, ProjectStore.pack([TWO_POINT]), [0], 3, RngSpec(seed=9), 200_000, 0).value
        assert mc != exact  # sampled, not silently exact
        assert abs(mc - exact) < 0.01

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "1000")
        g = ValueFunction.ces(2.0)
        d = Distribution.from_pairs(
            ((0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25))
        )
        with pytest.raises(BudgetExceededError):
            replication_score(g, d, 500)

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
        scn = self.scn()
        table = build_score_table(scn, "mean", max_r=2)
        for i in range(3):
            assert table.get(i, 0, 1) == table.get(i, 0, 2)
        assert table.kind == "mean"
        # the plain mean, no tail cut
        assert table.scores[:, 0, 0].tolist() == [mean_score(scn.dist(i, 0)) for i in range(3)]

    def test_quantile_table_needs_theta(self):
        with pytest.raises(ValidationError):
            build_score_table(self.scn(), "quantile", max_r=2)
        scn = self.scn()
        table = build_score_table(scn, "quantile", max_r=2, theta=0.75)
        assert table.get(0, 0, 1) == pytest.approx(2.0)
        # every cell is the tail score at the theta given
        want = [quantile_score(scn.dist(i, 0), 0.75) for i in range(3)]
        assert table.scores[:, 0, 0].tolist() == table.scores[:, 0, 1].tolist() == want

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
        lines = table_csv(table).strip().splitlines()
        assert lines[0] == "agent,project,r,score,method,std_error"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert float(first[3]) == table.get(0, 0, 1)

    def test_mc_fallback_records_diagnostics(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 2, ValueFunction.ces(2.0), 2)
        table = build_score_table(scn, "replication", max_r=2, rng=RngSpec(seed=5))
        se = table.std_errors[0, 0, 1]
        assert table.methods[0, 0, 1] == "monte_carlo"
        assert se > 0
        monkeypatch.setenv("TESTSCORE_BUDGET", str(10**6))
        exact = replication_score(ValueFunction.ces(2.0), d, 2)
        assert abs(table.get(0, 0, 2) - exact) <= 6 * max(se, 1e-9)

    def test_mc_fallback_disabled_raises(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 2, ValueFunction.ces(2.0), 2)
        with pytest.raises(BudgetExceededError):
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)

    def test_best_shot_closed_form_ignores_budget(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        table = build_score_table(self.scn(), "replication", max_r=2)
        assert table.methods[0, 0, 1] == "exact_best_shot"

    def test_deterministic_mc_tables(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 2, ValueFunction.ces(2.0), 2)
        t1 = build_score_table(scn, "replication", max_r=2, rng=RngSpec(seed=8))
        t2 = build_score_table(scn, "replication", max_r=2, rng=RngSpec(seed=8))
        assert np.array_equal(t1.scores, t2.scores)

    @pytest.mark.parametrize(
        "cell",
        [(-1, 0, 1), (0, -1, 1), (0, 0, -1), (0, 0, 0), (0, 0, 3), (3, 0, 1), (0, 1, 1)],
        ids=["neg-agent", "neg-project", "neg-r", "r-zero", "r-past-max", "agent-past-n", "project-past-m"],
    )
    def test_out_of_range_entry_raises(self, cell):
        # array indexing would wrap -1 and read a real cell
        table = build_score_table(self.scn(), "replication", max_r=2)
        with pytest.raises(ValidationError, match="missing table entry"):
            table.get(*cell)

    def test_hand_built_table_reads_its_kind(self):
        table = ScoreTable(kind="mean", scores=np.arange(6.0).reshape(3, 1, 2))
        assert table.max_r == 2
        assert table.get(2, 0, 2) == 5.0
        assert table.methods[2, 0, 1] == "mean"
        assert not table.scores.flags.writeable
        with pytest.raises(ValidationError):
            ScoreTable(kind="mean", scores=np.zeros((3, 2)))

    def test_nan_score_is_an_unbuilt_cell(self):
        # a NaN score is the one marker of an unbuilt cell, in a hand-built
        # table as in a built one
        scores = np.arange(6.0).reshape(3, 1, 2)
        scores[1, 0, 1] = np.nan
        table = ScoreTable(kind="replication", scores=scores, std_errors=0.5)
        assert table.methods[1, 0, 1] is None and table.methods.ravel().tolist().count(None) == 1
        assert np.isnan(table.std_errors[1, 0, 1]) and np.isnan(table.std_errors).sum() == 1
        with pytest.raises(ValidationError, match="agent 1, project 0, r=2 was not built"):
            table.get(1, 0, 2)
        assert table.get(1, 0, 1) == 2.0
        assert table.methods[1, 0, 0] == "replication" and table.std_errors[1, 0, 0] == 0.5
        rows = [row.split(",")[:3] for row in table_csv(table).splitlines()[1:]]
        assert len(rows) == 5 and ["1", "0", "2"] not in rows


    def test_block_refuses_its_first_unbuilt_cell(self):
        scores = np.arange(12.0).reshape(3, 2, 2)
        table = ScoreTable(kind="replication", scores=scores)
        block = table.block(2, 1, 1, 2)
        assert block.tolist() == [[2.0, 3.0], [6.0, 7.0]] and not block.flags.writeable
        assert table.block(3, 0, 2, 2).tolist() == [[1.0], [5.0], [9.0]]
        for args in ((4, 0, 1, 2), (3, 2, 1, 1), (3, -1, 1, 1), (3, 0, 1, 3), (0, 0, 1, 1)):
            with pytest.raises(ValidationError, match="missing table entry"):
                table.block(*args)
        scores[2, 0, 0] = scores[1, 0, 1] = np.nan
        table = ScoreTable(kind="replication", scores=scores)
        # (agent, r) order: agent 1 at r = 2 before agent 2 at r = 1
        with pytest.raises(ValidationError, match="agent 1, project 0, r=2 was not built"):
            table.block(3, 0, 1, 2)
        with pytest.raises(ValidationError, match="agent 2, project 0, r=1 was not built"):
            table.block(3, 0, 1, 1)
        assert table.block(2, 0, 1, 1).tolist() == [[0.0], [4.0]]


def _spread(s, shift):
    # s atoms from shift upward, weights 1..s
    values = tuple(round(shift + 0.6 * t + 0.013 * t * t, 3) for t in range(s))
    return Distribution(values, tuple((t + 1) / (s * (s + 1) / 2) for t in range(s)))


class TestTableMatchesReplicationScore:
    """Every exact table cell equals replication_score bit for bit, though
    whole columns are scored in one call."""

    @pytest.mark.parametrize("g", [g for g, _ in PAIRED], ids=TAGS)
    def test_every_cell_bit_for_bit(self, g):
        coin = Distribution.from_pairs(((0.5, 0.4), (2.0, 0.6)))
        dists = [
            Distribution.point(0.0),
            coin,
            _spread(3, 0.2),
            Distribution.point(1.75),
            _spread(20, 0.1),  # long: padding shorter rows to it would change their rounding
            coin,
            _spread(5, 0.0),
            _spread(3, 0.2),
            _spread(17, 0.3),
        ]
        k = 3
        table = build_score_table(Scenario.single_project(dists, g, k), "replication", max_r=k)
        method = "exact_best_shot" if g.kind == "best_shot" else "exact"
        for i, d in enumerate(dists):
            for r in range(1, k + 1):
                assert table.get(i, 0, r) == replication_score(g, d, r), (i, r)
                assert table.methods[i, 0, r - 1] == method
                assert table.std_errors[i, 0, r - 1] == 0.0

    @pytest.mark.parametrize("g", [g for g, _ in PAIRED], ids=TAGS)
    def test_columns_do_not_depend_on_max_r_property(self, g):
        # one table up to the largest k serves every smaller k (the
        # experiment builds one per trial); its columns grow with r
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        atoms = st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.75, 2.0, 3.0]), st.integers(1, 4)),
            min_size=1, max_size=3, unique_by=lambda a: a[0],
        )

        @hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
        @hypothesis.given(data=st.data())
        def check(data):
            big_r = data.draw(st.integers(2, 4))
            k = data.draw(st.integers(1, big_r - 1))
            pools = data.draw(st.lists(atoms, min_size=big_r, max_size=5))
            dists = [
                Distribution.from_pairs((v, w / sum(w for _, w in pairs)) for v, w in pairs)
                for pairs in pools
            ]
            scn = Scenario.single_project(dists, g, big_r)
            big = build_score_table(scn, "replication", max_r=big_r)
            small = build_score_table(scn, "replication", max_r=k)
            assert big.scores[:, :, :k].tobytes() == small.scores.tobytes()
            assert (big.methods[:, :, :k] == small.methods).all()
            assert big.std_errors[:, :, :k].tobytes() == small.std_errors.tobytes()
            steps = np.diff(big.scores, axis=2)
            assert (steps >= -1e-12 * np.abs(big.scores[:, :, 1:])).all()

        check()


# Agents x projects support sizes of the mixed table. Under a budget of 6
# some cells of each project's columns run exact and the rest fall back to
# Monte Carlo: best shot prices a cell at its support size, top-2 at r = 2
# at four times it, success probability at size + 1, and ces:2 at r = 2 at
# size + size^2.
MIXED_SIZES = ((1, 1, 3, 2), (3, 1, 6, 1), (9, 3, 2, 4), (2, 1, 1, 2), (5, 2, 4, 1))


def mixed_scenario():
    dists = tuple(
        tuple(_mixed_dist(i, j, s) for j, s in enumerate(row))
        for i, row in enumerate(MIXED_SIZES)
    )
    fns = (
        ValueFunction.best_shot(),
        ValueFunction.top_r(2),
        CATALOGUE_POOL[8](),  # success_prob:one_minus_exp:0.5
        ValueFunction.ces(2.0),
    )
    return Scenario(dists=dists, value_fns=fns, cardinalities=(2, 1, 1, 1))


def _mixed_dist(i, j, s):
    values = tuple(round(0.35 * (i + 1) + 0.1 * j + 0.6 * t, 3) for t in range(s))
    return Distribution(values, tuple((t + 1) / (s * (s + 1) / 2) for t in range(s)))


# table_csv of the mixed table with RngSpec(seed=11), as the per-cell loop
# that preceded column batching wrote it; the ces:2 cells as the sum route
# reads since it ends in a left-to-right sum, and the best-shot and top_r(2)
# cells as the order route reads since it does too
MIXED_CSV = """\
agent,project,r,score,method,std_error
0,0,1,0.35,exact_best_shot,0.0
0,0,2,0.35,exact_best_shot,0.0
0,1,1,0.45,exact,0.0
0,1,2,0.9,exact,0.0
0,2,1,0.47740534668759915,exact,0.0
0,2,2,0.7268948283292915,exact,0.0
0,3,1,1.0499999999999998,exact,0.0
0,3,2,1.5139897498722372,exact,0.0
1,0,1,1.5,exact_best_shot,0.0
1,0,2,1.7333333333333332,exact_best_shot,0.0
1,1,1,0.8,exact,0.0
1,1,2,1.6,exact,0.0
1,2,1,0.7385947485294874,monte_carlo,0.0004166916093398944
1,2,2,0.9318355810453639,monte_carlo,0.0001633586849508197
1,3,1,1.0,exact,0.0
1,3,2,1.4142135623730951,exact,0.0
2,0,1,4.244676,monte_carlo,0.004200032018083853
2,0,2,4.99731,monte_carlo,0.0028942186171770157
2,1,1,1.95,exact,0.0
2,1,2,3.9012140000000004,monte_carlo,0.002002000335188139
2,2,1,0.5572252444436746,exact,0.0
2,2,2,0.8039505158420364,exact,0.0
2,3,1,2.55,exact,0.0
2,3,2,3.660077598351914,monte_carlo,0.0018277869537986068
3,0,1,1.8,exact_best_shot,0.0
3,0,2,1.9333333333333333,exact_best_shot,0.0
3,1,1,1.5,exact,0.0
3,1,2,3.0,exact,0.0
3,2,1,0.5506710358827784,exact,0.0
3,2,2,0.7981034820053446,exact,0.0
3,3,1,2.0999999999999996,exact,0.0
3,3,2,2.9839119496363122,exact,0.0
4,0,1,3.35,exact_best_shot,0.0
4,0,2,3.7606666666666664,exact_best_shot,0.0
4,1,1,2.25,exact,0.0
4,1,2,4.50094,monte_carlo,0.0012669898249915686
4,2,1,0.7829503184570856,exact,0.0
4,2,2,0.9528894357421195,exact,0.0
4,3,1,2.05,exact,0.0
4,3,2,2.899137802864845,exact,0.0
"""


def check_cells(scn, max_r, rng):
    """Check every cell of a replication table against its own per-cell
    recomputation (value, method, std error and stream); return the Monte
    Carlo cells."""
    table = build_score_table(scn, "replication", max_r=max_r, rng=rng)
    mc = set()
    for i in scn.agents:
        for j in scn.projects:
            g, d = scn.value_fns[j], scn.dist(i, j)
            for r in range(1, max_r + 1):
                method, std_error = table.methods[i, j, r - 1], table.std_errors[i, j, r - 1]
                try:
                    want = replication_score(g, d, r)
                except BudgetExceededError:
                    # the cell's own stream, escalated as documented
                    stream = (i * scn.n_projects + j) * max_r + (r - 1)
                    samples = MC_BASE_SAMPLES
                    for _ in range(MC_MAX_ROUNDS):
                        est = _mc(g, scn.store(j), [i], r, rng, samples, stream)
                        want, se = est.value, est.std_error
                        if se <= MC_TARGET_REL_SE * max(abs(want), 1e-12):
                            break
                        samples *= 2
                    assert (method, std_error) == ("monte_carlo", se)
                    mc.add((i, j, r))
                else:
                    assert method in ("exact", "exact_best_shot")
                    assert std_error == 0.0
                assert table.get(i, j, r) == want, (i, j, r)
    assert {tuple(c) for c in np.argwhere(table.methods == "monte_carlo")} == {
        (i, j, r - 1) for i, j, r in mc
    }
    return mc


def _spy_single(monkeypatch, scn):
    """Record the (agent, project, r) cells scored one at a time."""
    project = {id(scn.store(j)): j for j in scn.projects}
    scored = []

    def spy(g, store, rows, copies, budget):
        ((i,),) = rows.tolist()
        j = project[id(store)]
        assert g is scn.value_fns[j]
        scored.append((i, j, copies))
        return _exact_rows(g, store, rows, copies, budget)

    monkeypatch.setattr("testscore.scores._exact_rows", spy)
    return scored


def _forbid_batches(monkeypatch):
    def no_batch(*args):
        raise AssertionError("a batch ran although a cell was over budget")

    monkeypatch.setattr("testscore.scores._member_rows", no_batch)


class TestMixedTable:
    @pytest.fixture
    def tiny_budget(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "6")

    def test_cells_split_by_their_own_price(self, tiny_budget):
        scn = mixed_scenario()
        mc = check_cells(scn, 2, RngSpec(seed=11))
        # every project's columns hold both kinds of cell
        assert len(mc) == 7
        assert {j for i, j, r in mc} == {0, 1, 2, 3}

    def test_whole_column_over_budget(self, monkeypatch):
        # at budget 3 every top_r(2) cell at r = 2 costs four times its
        # support, so no agent of that column is scored exactly
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        scn = mixed_scenario()
        mc = check_cells(scn, 2, RngSpec(seed=11))
        assert {(i, 1, 2) for i in scn.agents} <= mc
        with pytest.raises(BudgetExceededError) as exc:
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)
        # (0, 1, 2) is the first cell over budget in (agent, project, r) order
        assert str(exc.value) == "exact expectation budget exceeded: 4 > 3"

    def test_csv_is_byte_identical(self, tiny_budget):
        table = build_score_table(mixed_scenario(), "replication", max_r=2, rng=RngSpec(seed=11))
        assert table_csv(table) == MIXED_CSV

    def test_no_fallback_raises_first_cell_in_agent_order(self, tiny_budget):
        scn = mixed_scenario()
        with pytest.raises(BudgetExceededError) as exc:
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)
        # (1, 2, 1): success probability on 6 atoms, priced 6 + 1; later
        # cells would report 9, 12, 20 or 8
        assert str(exc.value) == "exact expectation budget exceeded: 7 > 6"
        with pytest.raises(BudgetExceededError) as first:
            replication_score(scn.value_fns[2], scn.dist(1, 2), 1)
        assert first.value.required == exc.value.required == 7

    def test_no_fallback_scores_nothing_after_the_first_cell(self, tiny_budget, monkeypatch):
        scn = mixed_scenario()
        scored = _spy_single(monkeypatch, scn)
        _forbid_batches(monkeypatch)
        with pytest.raises(BudgetExceededError):
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)
        # the ces:2 cells of agent 0 fit their column's batch, which never
        # runs: (1, 2, 1), the first cell scored one by one, raises
        assert scored == [(1, 2, 1)]


SUM_VARIANTS = [g for g, _ in PAIRED if g.kind in ("total", "ces")]


def _random_dist(gen, s):
    values = np.unique(np.round(gen.uniform(0.0, 3.0, s), 3))
    w = gen.uniform(0.2, 1.0, len(values))
    return Distribution(tuple(values.tolist()), tuple((w / w.sum()).tolist()))


class TestSumColumns:
    """``total`` and ``ces`` columns are scored one batch per (project, r),
    rows of one support length together; each cell still equals
    ``replication_score`` bit for bit."""

    def check(self, scn, max_r, table=None):
        if table is None:
            table = build_score_table(scn, "replication", max_r=max_r)
        for i in scn.agents:
            for j in scn.projects:
                for r in range(1, max_r + 1):
                    want = replication_score(scn.value_fns[j], scn.dist(i, j), r)
                    assert table.get(i, j, r).hex() == want.hex(), (i, j, r)
                    assert table.methods[i, j, r - 1] == "exact"
                    assert table.std_errors[i, j, r - 1] == 0.0

    @pytest.mark.parametrize("g", SUM_VARIANTS, ids=[value_fn_tag(g) for g in SUM_VARIANTS])
    def test_many_rows_per_support_length(self, g, monkeypatch):
        gen = np.random.default_rng(17)
        dists = [_random_dist(gen, 1 + i % 5) for i in range(60)] + [Distribution.point(-0.0)]
        scn = Scenario.single_project(dists, g, 4)
        scored = _spy_single(monkeypatch, scn)
        table = build_score_table(scn, "replication", max_r=4)
        assert scored == []  # every cell came from a batch
        monkeypatch.setattr("testscore.scores._exact_rows", _exact_rows)
        self.check(scn, 4, table)

    @pytest.mark.parametrize("r", [1.5, 4.0])
    def test_point_masses(self, r):
        # the engine shifts the sum by a Python scalar x**r, which can
        # round apart from numpy's power of the same x
        gen = np.random.default_rng(23)
        values = np.unique(gen.uniform(0.0, 3.0, 400))
        dists = [Distribution.point(v) for v in values.tolist()] + [Distribution.point(0.0)]
        self.check(Scenario.single_project(dists, ValueFunction.ces(r), 3), 3)

    @pytest.mark.parametrize(
        "g", [ValueFunction.ces(2.0), ValueFunction.total(ConcaveFn("sqrt"))], ids=["ces:2.0", "total:sqrt"]
    )
    def test_rows_past_the_merge_run_alone(self, g, monkeypatch):
        gen = np.random.default_rng(29)
        sizes = (5, 2, 5, 1, 3, 4)
        dists = [
            Distribution(tuple(range(s)), tuple((t + 1) / (s * (s + 1) / 2) for t in range(s)))
            if s == 5
            else _random_dist(gen, s)
            for s in sizes
        ]
        scn = Scenario.single_project(dists, g, 6)
        scored = _spy_single(monkeypatch, scn)
        table = build_score_table(scn, "replication", max_r=6)
        # 5 atoms at r = 6 step through 5^6 > _MERGE partial sums; 4^6 do not
        assert 5**5 <= _MERGE < 5**6 and 4**6 <= _MERGE
        assert scored == [(0, 0, 6), (2, 0, 6)]
        monkeypatch.setattr("testscore.scores._exact_rows", _exact_rows)
        self.check(scn, 6, table)

    def test_over_budget_row_raises_before_later_cells(self, monkeypatch):
        # at budget 20, r = 2 costs s + s^2: 6, 30 and 12 for these rows
        monkeypatch.setenv("TESTSCORE_BUDGET", "20")
        g = ValueFunction.total(ConcaveFn("sqrt"))
        gen = np.random.default_rng(31)
        scn = Scenario.single_project([_random_dist(gen, s) for s in (2, 5, 3)], g, 2)
        assert [len(d) for d in scn.dists[0] + scn.dists[1] + scn.dists[2]] == [2, 5, 3]
        scored = _spy_single(monkeypatch, scn)
        _forbid_batches(monkeypatch)
        with pytest.raises(BudgetExceededError) as exc:
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)
        assert scored == [(1, 0, 2)]
        assert str(exc.value) == "exact expectation budget exceeded: 30 > 20"


def _class_scenario(gen, fns, lengths, ks):
    # a fresh support of up to the given length (exactly 9 for 9) for every
    # agent on every project
    rows = tuple(
        tuple(_random_dist(gen, s) if s < 9 else _spread(9, 0.1 * j) for j in range(len(fns)))
        for s in lengths
    )
    return Scenario(dists=rows, value_fns=tuple(fns), cardinalities=ks)


def _reloaded(scn):
    return scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scn)))).scenario


class TestClassPass:
    """Projects whose value functions are equal are scored in one engine
    call per r; every cell keeps the bits, method and standard error of
    the per-project fill (``ref_replication_table``)."""

    def same(self, scn, max_r, rng=None):
        table = build_score_table(scn, "replication", max_r=max_r, rng=rng)
        scores, methods, std_errors = ref_replication_table(scn, max_r, rng)
        assert [x.hex() for x in table.scores.ravel().tolist()] == [
            x.hex() for x in scores.ravel().tolist()
        ]
        assert table.methods.tolist() == methods.tolist()
        assert table.std_errors.tobytes() == std_errors.tobytes()
        return table

    def spy(self, monkeypatch):
        calls = []  # (value function, store) of every batch

        def spy(g, store, copies, budget, out=None):
            calls.append((g, store))
            return _member_rows(g, store, copies, budget, out)

        monkeypatch.setattr("testscore.scores._member_rows", spy)
        return calls

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_every_catalogue_variant_in_classes(self, loaded, monkeypatch):
        # three projects per variant, the classes interleaved; point
        # masses, and a 9-atom agent whose r = 4 sum-route cells step
        # through 9^4 > _MERGE partial sums
        assert 9**4 > _MERGE
        fns = [g for _ in range(3) for g, _ in PAIRED]
        lengths = (1, 2, 3, 9, 1, 5, 2, 4, 1, 3) * 4
        scn = _class_scenario(np.random.default_rng(41), fns, lengths, (4,) + (1,) * 35)
        if loaded:
            scn = _reloaded(scn)
        calls = self.spy(monkeypatch)
        self.same(scn, 4)
        # one batch per variant and r, each on its three projects' stores
        assert len(calls) == 4 * len(PAIRED)
        assert all(len(store) == 3 * scn.n_agents for _, store in calls)

    def test_equal_value_functions_that_are_not_the_same_object(self, monkeypatch):
        fns = [
            ValueFunction.ces(2),
            ValueFunction.top_r(2),
            ValueFunction.ces(2.0),
            ValueFunction("top_r", r=2.0),
            ValueFunction.total(ConcaveFn("sqrt")),
            ValueFunction.total(ConcaveFn("sqrt")),
            ValueFunction.best_shot(),
        ]
        lengths = (1, 3, 2, 4, 1, 2, 5, 3, 2, 1)
        scn = _class_scenario(np.random.default_rng(42), fns, lengths, (3,) + (1,) * 6)
        calls = self.spy(monkeypatch)
        self.same(scn, 3)
        # ces, top-r and total:sqrt classes of two projects, then best shot alone
        assert [len(store) for _, store in calls] == [20] * 9 + [10] * 3
        # a class of one reads its project's own cached store
        assert all(store is scn.store(6) for _, store in calls[9:])

    @pytest.mark.parametrize("r", [1.5, 4.0])
    def test_point_masses(self, r):
        gen = np.random.default_rng(43)
        values = np.unique(gen.uniform(0.0, 3.0, 240)).tolist()[:240]
        dists = tuple(
            (Distribution.point(values[2 * i]), Distribution.point(values[2 * i + 1]))
            for i in range(len(values) // 2)
        ) + ((Distribution.point(0.0),) * 2,)
        fns = (ValueFunction.ces(r),) * 2
        self.same(Scenario(dists=dists, value_fns=fns, cardinalities=(3, 3)), 3)

    def test_monte_carlo_cells(self, monkeypatch):
        # at budget 20 the 6-atom agent's r = 2 cells cost 6 + 36 on the
        # non-linear sum route and 6 * 2 * 2 on top-r, so they fall back
        monkeypatch.setenv("TESTSCORE_BUDGET", "20")
        fns = [g for _ in range(2) for g, _ in PAIRED]
        scn = _class_scenario(np.random.default_rng(44), fns, (6,) + (1, 2, 3) * 9, (2,) + (1,) * 23)
        table = self.same(scn, 2, RngSpec(seed=3))
        assert (table.methods == "monte_carlo").sum() == 14
        loaded = build_score_table(_reloaded(scn), "replication", max_r=2, rng=RngSpec(seed=3))
        for a, b in ((loaded.scores, table.scores), (loaded.std_errors, table.std_errors)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("budget", [3, 6, 20])
    def test_no_fallback_raises_on_the_same_first_cell(self, budget, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", str(budget))
        fns = [g for _ in range(2) for g, _ in PAIRED]
        scn = _class_scenario(np.random.default_rng(45), fns, (2, 1, 3, 6, 1, 4) * 5, (2,) + (1,) * 23)
        with pytest.raises(BudgetExceededError) as want:
            ref_replication_table(scn, 2, mc_fallback=False)
        scored = _spy_single(monkeypatch, scn)
        _forbid_batches(monkeypatch)
        with pytest.raises(BudgetExceededError) as got:
            build_score_table(scn, "replication", max_r=2, mc_fallback=False)
        assert str(got.value) == str(want.value)
        assert len(scored) == 1


def _first_over_budget(scn, columns):
    # the budget error of the first built cell, in (agent, project, r)
    # order, whose own exact work passes the budget; None when none does
    for i in scn.agents:
        for j in scn.projects:
            lo, hi = columns[j]
            for r in range(lo, hi + 1):
                try:
                    replication_score(scn.value_fns[j], scn.dist(i, j), r)
                except BudgetExceededError as exc:
                    return str(exc)
    return None


class TestColumnRanges:
    """A table built for one range of r per project: each built cell is
    the full table's cell, Monte Carlo stream included; the others are
    unbuilt and every reader refuses them."""

    def same_cells(self, scn, max_r, columns, rng=None):
        full = build_score_table(scn, "replication", max_r=max_r, rng=rng)
        part = build_score_table(scn, "replication", max_r=max_r, rng=rng, columns=columns)
        # the unbuilt cells, and only they, are NaN
        sizes = np.arange(1, max_r + 1)
        outside = [(sizes < lo) | (sizes > hi) for lo, hi in columns]
        assert (np.isnan(part.scores) == np.array(outside)).all()
        for j, (lo, hi) in enumerate(columns):
            for r in range(1, max_r + 1):
                cells = (slice(None), j, r - 1)
                if lo <= r <= hi:
                    assert [x.hex() for x in part.scores[cells].tolist()] == [
                        x.hex() for x in full.scores[cells].tolist()
                    ]
                    assert part.methods[cells].tolist() == full.methods[cells].tolist()
                    assert part.std_errors[cells].tobytes() == full.std_errors[cells].tobytes()
                else:
                    assert np.isnan(part.scores[cells]).all()
                    assert np.isnan(part.std_errors[cells]).all()
                    assert part.methods[cells].tolist() == [None] * scn.n_agents
        return full, part

    @staticmethod
    def ranges(gen, m, max_r):
        out = []
        for _ in range(m):
            lo = int(gen.integers(1, max_r + 1))
            out.append((lo, int(gen.integers(lo, max_r + 1))))
        return out

    def test_every_catalogue_variant(self):
        # two projects per variant, each with its own range; a 9-atom agent
        # steps its sum-route cells past the merge of equal sums
        gen = np.random.default_rng(46)
        fns = [g for _ in range(2) for g, _ in PAIRED]
        scn = _class_scenario(gen, fns, (1, 2, 3, 9, 1, 5, 2, 4) * 4, (4,) + (1,) * 23)
        for _ in range(3):
            self.same_cells(scn, 4, self.ranges(gen, scn.n_projects, 4))

    def test_monte_carlo_cells_keep_their_stream(self, monkeypatch):
        # at budget 20 the 6-atom agent's r = 2 cells fall back to Monte
        # Carlo (see TestClassPass.test_monte_carlo_cells), and so do more
        # cells at r = 3; ranges that stop short of max_r = 3 score them on
        # the streams of the full table
        monkeypatch.setenv("TESTSCORE_BUDGET", "20")
        fns = [g for _ in range(2) for g, _ in PAIRED]
        scn = _class_scenario(np.random.default_rng(44), fns, (6,) + (1, 2, 3) * 9, (3,) + (1,) * 23)
        columns = [(2, 2), (1, 2)] * len(PAIRED)
        part = self.same_cells(scn, 3, columns, RngSpec(seed=3))[1]
        assert (part.methods == "monte_carlo").sum() == 14

    def test_no_fallback_raises_on_the_first_built_cell(self, monkeypatch):
        # at budget 6 the full table raises at (1, 2, 1), priced 7; with
        # r = 1 of project 2 unbuilt the first built cell past the budget
        # is another, and with every over-budget cell unbuilt none raises
        monkeypatch.setenv("TESTSCORE_BUDGET", "6")
        scn = mixed_scenario()
        for columns in ([(1, 2)] * 4, [(1, 2), (1, 2), (2, 2), (1, 2)], [(1, 2), (1, 1), (2, 2), (2, 2)]):
            want = _first_over_budget(scn, columns)
            assert want is not None
            with pytest.raises(BudgetExceededError) as got:
                build_score_table(scn, "replication", max_r=2, mc_fallback=False, columns=columns)
            assert str(got.value) == want
        monkeypatch.setenv("TESTSCORE_BUDGET", "10")
        columns = [(1, 1)] * 4
        assert _first_over_budget(scn, columns) is None
        assert _first_over_budget(scn, [(1, 2)] * 4) is not None
        table = build_score_table(scn, "replication", max_r=2, mc_fallback=False, columns=columns)
        assert (table.methods[:, :, 0] != "monte_carlo").all()

    def test_unbuilt_cells_raise(self):
        scn = mixed_scenario()
        table = build_score_table(scn, "replication", max_r=2, columns=[(2, 2), (1, 1), (1, 2), (2, 2)])
        for j, r in ((0, 1), (1, 2), (3, 1)):
            with pytest.raises(ValidationError, match=f"project {j}, r={r} was not built"):
                table.get(0, j, r)
            with pytest.raises(ValidationError, match="was not built"):
                table.get(4, j, r)
        for j, r in ((0, 2), (1, 1), (2, 1), (2, 2), (3, 2)):
            assert table.get(4, j, r) == table.scores[4, j, r - 1]
        # outside the table the error is the one every table raises
        with pytest.raises(ValidationError, match="missing table entry"):
            table.get(0, 0, 3)

    def test_readers_refuse_unbuilt_columns(self):
        scn = mixed_scenario()  # cardinalities (2, 1, 1, 1)
        for columns in ([(2, 2)] + [(1, 2)] * 3, [(1, 1)] * 4):
            table = build_score_table(scn, "replication", max_r=2, columns=columns)
            with pytest.raises(ValidationError, match="was not built"):
                greedy_welfare(scn, table)
        table = build_score_table(scn, "replication", max_r=2, columns=[(1, 2)] + [(1, 1)] * 3)
        assert greedy_welfare(scn, table).total > 0
        single = Scenario.single_project([scn.dist(i, 0) for i in scn.agents], scn.value_fns[0], 2)
        table = build_score_table(single, "replication", max_r=2, columns=[(1, 1)])
        with pytest.raises(ValidationError, match="was not built"):
            greedy_topk(single, 0, 2, table)
        table = build_score_table(single, "replication", max_r=2, columns=[(2, 2)])
        assert greedy_topk(single, 0, 2, table).total > 0
        with pytest.raises(ValidationError, match="was not built"):
            best_strong_sketch_assignment(single, table)

    @pytest.mark.parametrize("kind,theta", [("mean", None), ("quantile", 0.5)])
    def test_mean_and_quantile_tables(self, kind, theta):
        scn = mixed_scenario()
        full = build_score_table(scn, kind, max_r=2, theta=theta)
        part = build_score_table(scn, kind, max_r=2, theta=theta, columns=[(2, 2)] * 4)
        assert part.scores[:, :, 1].tobytes() == full.scores[:, :, 1].tobytes()
        assert np.isnan(part.scores[:, :, 0]).all()
        with pytest.raises(ValidationError, match="was not built"):
            part.get(0, 0, 1)

    def test_full_range_is_the_full_table(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "6")
        table = build_score_table(
            mixed_scenario(), "replication", max_r=2, rng=RngSpec(seed=11), columns=[(1, 2)] * 4
        )
        assert not np.isnan(table.scores).any()
        assert table_csv(table) == MIXED_CSV

    def test_csv_lists_the_built_cells(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "6")
        columns = [(2, 2), (1, 1), (1, 2), (2, 2)]
        table = build_score_table(
            mixed_scenario(), "replication", max_r=2, rng=RngSpec(seed=11), columns=columns
        )
        header, *rows = MIXED_CSV.splitlines()
        built = []
        for row in rows:
            j, r = map(int, row.split(",")[1:3])
            if columns[j][0] <= r <= columns[j][1]:
                built.append(row)
        assert table_csv(table) == "\n".join([header] + built) + "\n"

    @pytest.mark.parametrize(
        "columns",
        [
            [(1, 2)] * 3, [(1, 2)] * 5, [(0, 2)] + [(1, 2)] * 3, [(2, 1)] + [(1, 2)] * 3,
            [(1, 3)] + [(1, 2)] * 3, [(1.5, 2.9)] + [(1, 2)] * 3, [(1, 2.0)] + [(1, 2)] * 3,
            [(True, 2)] + [(1, 2)] * 3, [(1, True)] + [(1, 2)] * 3,
        ],
        ids=["too-few", "too-many", "r-zero", "empty", "past-max-r", "fractions", "float", "bool-lo", "bool-hi"],
    )
    def test_bad_ranges_rejected(self, columns):
        # a float or bool bound is refused, not read as the int it rounds to
        with pytest.raises(ValidationError, match="columns must give one range"):
            build_score_table(mixed_scenario(), "replication", max_r=2, columns=columns)


class TestTakenStore:
    """A store taken from a larger one (``ProjectStore.take``) reads its
    source's atoms and one-member rows, yet every table cell, team value
    and oracle result on it equals that of a fresh store of the same
    atoms, bit for bit, on every catalogue variant."""

    # 12 agents; a repeat in the taken ids, point masses, and a 9-atom
    # agent whose r = 3 sum-route cells pass _MERGE and run alone
    LENGTHS = (1, 3, 2, 9, 1, 5, 4, 2, 3, 1, 6, 2)
    TAKEN = [9, 2, 5, 2, 3, 0, 7]
    K = 3

    def dists(self):
        gen = np.random.default_rng(23)
        out = []
        for s in self.LENGTHS:
            # values on a coarse lattice, so the agents share support points
            values = np.sort(gen.choice(np.arange(0.0, 4.01, 0.25), s, replace=False))
            w = gen.uniform(0.2, 1.0, s)
            out.append(Distribution(tuple(values.tolist()), tuple((w / w.sum()).tolist())))
        return out

    def outcomes(self, scn):
        # every table cell's bits, method and error; every team's value; each
        # oracle's result, or its error text past the budget
        table = build_score_table(scn, "replication", max_r=self.K)
        got = [table.scores.tobytes(), table.methods.tolist(), table.std_errors.tobytes()]
        for k in range(1, self.K + 1):
            try:
                got.append(team_values(scn, 0, _subsets(scn.n_agents, k)).tobytes())
            except BudgetExceededError as exc:
                got.append(str(exc))
            try:
                got.append(brute_force_single(scn, 0, k).to_json())
            except BudgetExceededError as exc:
                got.append(str(exc))
        return got

    @pytest.mark.parametrize("budget", [None, "8"], ids=["default", "monte_carlo"])
    @pytest.mark.parametrize("g", [g for g, _ in PAIRED], ids=TAGS)
    def test_equals_a_fresh_store(self, g, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setenv("TESTSCORE_BUDGET", budget)
        dists = self.dists()
        source = ProjectStore.pack(dists)
        taken = Scenario(None, (g,), (self.K,), stores=(source.take(self.TAKEN),))
        fresh = Scenario(None, (g,), (self.K,), stores=(ProjectStore.pack([dists[i] for i in self.TAKEN]),))
        got = self.outcomes(taken)
        assert got == self.outcomes(fresh)
        if budget is not None:  # some cells fall back to Monte Carlo
            assert "monte_carlo" in str(got[1])

    @pytest.mark.parametrize("g", [g for g, _ in PAIRED], ids=TAGS)
    def test_source_rows_scored_once(self, g, monkeypatch):
        source = ProjectStore.pack(self.dists())
        scored = []  # (value function, copies, budget) of each row pass over the source
        real = utility._member_rows

        def spy(g, store, copies, budget, out=None):
            if store is source:
                scored.append((g, copies, budget))
            return real(g, store, copies, budget, out)

        monkeypatch.setattr(utility, "_member_rows", spy)
        for trial in range(3):
            chosen = np.random.default_rng(trial).choice(len(source), 6, replace=False)
            scn = Scenario(None, (g,), (self.K,), stores=(source.take(chosen),))
            build_score_table(scn, "replication", max_r=self.K)
        borrowed = not (utility._linear(g) or g.kind == "success_prob")
        keys = [(g, r, enumeration_budget()) for r in range(1, self.K + 1)]
        assert scored == (keys if borrowed else [])
        assert list(source.member_rows) == scored
