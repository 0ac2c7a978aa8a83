"""Expected team utility: exact routes, Monte Carlo, submodularity."""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from testscore import (
    BudgetExceededError,
    ConcaveFn,
    Distribution,
    ProjectStore,
    RngSpec,
    Scenario,
    UnitFn,
    ValidationError,
    ValueFunction,
    mc_utility,
    project_utility,
    replication_score,
    submodularity_check,
)
from testscore.adversarial import CATALOGUE_POOL
from testscore.core import enumeration_budget
from testscore.production import evaluate
from testscore.scenario_io import scenario_from_dict, scenario_to_dict, value_fn_tag
from testscore import utility
from testscore.utility import (
    SUBMODULARITY_TOL,
    _MERGE,
    _subsets,
    exact_utility,
    exact_utility_best_shot,
    team_values,
)

from oracle_tools import (
    CATALOGUE_REFS,
    fn_top_r,
    ref_lone_expectation,
    ref_lone_mc,
    ref_submodularity_check,
    ref_utility,
)

TWO_POINT = Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))

PAIRED = [
    (factory(), ref) for factory, ref in zip(CATALOGUE_POOL, CATALOGUE_REFS, strict=True)
]
TAGS = [value_fn_tag(g) for g, _ in PAIRED]
SUM_ROUTE = [(g, ref) for g, ref in PAIRED if g.kind in ("total", "ces")]
REL = 1e-12


def random_dists(gen, n, max_support=3):
    out = []
    for _ in range(n):
        s = int(gen.integers(1, max_support + 1))
        values = np.sort(gen.uniform(0.0, 3.0, s))
        while len(np.unique(values)) < s:
            values = np.sort(gen.uniform(0.0, 3.0, s))
        probs = gen.uniform(0.2, 1.0, s)
        probs = probs / probs.sum()
        out.append(Distribution(tuple(values.tolist()), tuple(probs.tolist())))
    return out


class TestExact:
    def test_single_deterministic_agent(self):
        scn = Scenario.single_project(
            [Distribution.point(3.0)], ValueFunction.best_shot(), 1
        )
        est = project_utility(scn, 0, [0])
        assert est.value == 3.0
        assert est.std_error == 0.0

    def test_two_coin_agents_best_shot(self):
        # max of two independent {0,2} coins: 2 * (1 - 1/4)
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.best_shot(), 2)
        assert project_utility(scn, 0, [0, 1]).value == pytest.approx(1.5)

    def test_linear_utility_sums_means(self):
        gen = np.random.default_rng(31)
        dists = random_dists(gen, 5)
        scn = Scenario.single_project(dists, ValueFunction.ces(1.0), 3)
        members = [0, 2, 4]
        expect = sum(
            sum(v * p for v, p in zip(d.values, d.probs))
            for i, d in enumerate(dists)
            if i in members
        )
        assert project_utility(scn, 0, members).value == pytest.approx(expect)

    def test_twenty_agent_best_shot_closed_form(self):
        coin = Distribution.from_pairs(((0.0, 0.5), (1.0, 0.5)))
        scn = Scenario.single_project([coin] * 20, ValueFunction.best_shot(), 20)
        est = project_utility(scn, 0, range(20))
        assert est.method == "exact_best_shot"
        assert est.value == pytest.approx(1.0 - 2.0**-20, abs=1e-15)

    def test_empty_team_is_zero(self):
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.ces(2.0), 1)
        assert exact_utility(scn, 0, []).value == 0.0

    def test_matches_reference_enumeration(self):
        gen = np.random.default_rng(32)
        for g, ref in PAIRED:
            dists = random_dists(gen, 5)
            scn = Scenario.single_project(dists, g, 4)
            pairs = [list(zip(d.values, d.probs)) for d in dists]
            for members in ([0], [1, 3], [0, 2, 4], [0, 1, 2, 3]):
                got = project_utility(scn, 0, members).value
                want = ref_utility(pairs, ref, members)
                assert got == pytest.approx(want, abs=1e-10), (g.kind, members)

    def test_best_shot_routes_agree(self):
        gen = np.random.default_rng(33)
        dists = random_dists(gen, 4)
        scn = Scenario.single_project(dists, ValueFunction.best_shot(), 4)
        for members in ([0], [1, 2], [0, 1, 2, 3]):
            a = exact_utility(scn, 0, members).value
            b = exact_utility_best_shot(scn, 0, members).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_best_shot_route_rejects_other_kinds(self):
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.ces(2.0), 1)
        with pytest.raises(ValidationError):
            exact_utility_best_shot(scn, 0, [0])

    def test_duplicate_members_collapse(self):
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.best_shot(), 2)
        assert (
            project_utility(scn, 0, [1, 1, 2]).value
            == project_utility(scn, 0, [1, 2]).value
        )

    def test_unknown_agent_rejected(self):
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.best_shot(), 1)
        with pytest.raises(ValidationError):
            project_utility(scn, 0, [5])

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "8")
        scn = Scenario.single_project([TWO_POINT] * 4, ValueFunction.ces(2.0), 4)
        with pytest.raises(BudgetExceededError):
            exact_utility(scn, 0, range(4))  # 2^4 = 16 > 8


class TestDifferential:
    """Every exact route against product-space enumeration, to 1e-12 relative."""

    def check(self, dists, g, ref, members):
        scn = Scenario.single_project(dists, g, len(dists))
        pairs = [list(zip(d.values, d.probs)) for d in dists]
        got = exact_utility(scn, 0, members).value
        want = ref_utility(pairs, ref, members)
        assert got == pytest.approx(want, rel=REL, abs=0), (g, members)

    def test_references_pair_with_catalogue(self):
        gen = np.random.default_rng(37)
        assert len(PAIRED) == 12
        for g, ref in PAIRED:
            for size in (1, 2, 5):
                x = gen.uniform(0.0, 3.0, size).tolist()
                assert evaluate(g, x) == pytest.approx(ref(x), rel=REL), g

    @pytest.mark.parametrize("g, ref", PAIRED, ids=TAGS)
    def test_random_teams(self, g, ref):
        gen = np.random.default_rng(38)
        for _ in range(4):
            dists = random_dists(gen, 5)
            for members in ([0], [1, 3], [0, 2, 4], [0, 1, 2, 3], range(5)):
                self.check(dists, g, ref, list(members))

    @pytest.mark.parametrize("g, ref", PAIRED, ids=TAGS)
    def test_point_masses_and_repeats(self, g, ref):
        gen = np.random.default_rng(39)
        coin = random_dists(gen, 1, max_support=3)[0]
        dists = [
            Distribution.point(0.0),
            Distribution.point(1.25),
            coin,
            coin,
            coin,
            Distribution.point(1.25),
        ]
        for members in ([0], [1], [0, 1], [1, 5], [2, 3], [2, 3, 4], [0, 2, 5], range(6)):
            self.check(dists, g, ref, list(members))

    def test_top_r_at_least_team_size(self):
        gen = np.random.default_rng(40)
        dists = random_dists(gen, 4)
        for r in (2, 3, 4, 6):
            g = ValueFunction.top_r(r)
            for members in ([0], [0, 1], [1, 2, 3], [0, 1, 2, 3]):
                self.check(dists, g, fn_top_r(r), members)

    @pytest.mark.parametrize(
        "g, ref", SUM_ROUTE, ids=[value_fn_tag(g) for g, _ in SUM_ROUTE]
    )
    def test_integer_sums_cross_the_merge(self, g, ref):
        # 4^7 partial sums pass the merge threshold, so equal sums merge
        assert 4**6 <= _MERGE < 4**7
        dists = [
            Distribution.from_pairs(((0.0, 0.1), (1.0, 0.2), (2.0, 0.3), (3.0, 0.4)))
        ] * 4 + [
            Distribution.from_pairs(((1.0, 0.25), (2.0, 0.25), (4.0, 0.3), (5.0, 0.2)))
        ] * 3
        self.check(dists, g, ref, list(range(7)))

    def test_budget_meters_sum_steps(self, monkeypatch):
        # partial sums of 1, 2 and 4 atoms times 2 atoms: 2 + 4 + 8 = 14 work
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.ces(2.0), 3)
        monkeypatch.setenv("TESTSCORE_BUDGET", "14")
        assert exact_utility(scn, 0, range(3)).value > 0
        monkeypatch.setenv("TESTSCORE_BUDGET", "13")
        with pytest.raises(BudgetExceededError):
            exact_utility(scn, 0, range(3))

    def test_budget_meters_order_counts(self, monkeypatch):
        # 6 grid points (the members' supports side by side) times 2
        # tracked counts times 3 copies = 36 work
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.top_r(2), 3)
        monkeypatch.setenv("TESTSCORE_BUDGET", "36")
        assert exact_utility(scn, 0, range(3)).value > 0
        monkeypatch.setenv("TESTSCORE_BUDGET", "35")
        with pytest.raises(BudgetExceededError):
            exact_utility(scn, 0, range(3))


def lattice_dists(gen, n, max_support):
    """Supports drawn from a small lattice, so that agents share atoms,
    with every third agent a point mass."""
    lattice = np.arange(max(8, 2 * max_support)) * 0.25
    out = []
    for i in range(n):
        s = 1 if i % 3 == 0 else int(gen.integers(2, max_support + 1))
        values = np.sort(gen.choice(lattice, s, replace=False))
        probs = gen.uniform(0.2, 1.0, s)
        out.append(Distribution(tuple(values.tolist()), tuple((probs / probs.sum()).tolist())))
    return out


def colex(n, k):
    # the k-subsets of range(n) by bitmask: largest element first
    return sorted(combinations(range(n), k), key=lambda S: S[::-1])


class TestSubsetTables:
    """The lexicographic tables against ``itertools.combinations``."""

    def check(self, n, ks, dtypes):
        for k in ks:
            want, want_colex = list(combinations(range(n), k)), colex(n, k)
            for dtype in dtypes:
                lex = _subsets(n, k, dtype=dtype)
                assert lex.dtype == dtype and lex.shape == (len(want), k)
                assert list(map(tuple, lex.tolist())) == want, (n, k, dtype)
                co = _subsets(n, k, True, dtype)
                assert co.dtype == dtype
                assert list(map(tuple, co.tolist())) == want_colex, (n, k, dtype)

    def test_small_n_every_k(self):
        for n in range(13):
            self.check(n, range(n + 2), (np.intp, np.int8, np.int16, np.int64))

    def test_past_the_int8_range(self):
        # 127 agents fit int8 ids, 129 do not; at 128 the ids do but the
        # shift past the last id does not
        for n in (127, 128, 129):
            self.check(n, (1, 2, n - 1, n), (np.intp, np.min_scalar_type(-n)))
        self.check(128, (126,), (np.int8,))  # prefixes split about 110 deep

    def test_small_tables_split_on_prefixes(self, monkeypatch):
        for cells in (1, 7, 40):
            monkeypatch.setattr(utility, "_BLOCK", cells)
            monkeypatch.setattr(utility, "_TABLE", cells)
            for n in range(10):
                self.check(n, range(n + 1), (np.intp,))
            self.check(128, (1, 2, 127, 128), (np.int8,))

    def test_nearly_full_tables(self):
        # prefixes split about 1,000 deep, one after another
        n = 1100
        want = np.arange(n)[None].repeat(n, axis=0)[~np.eye(n, dtype=bool)[::-1]]
        assert (_subsets(n, n - 1) == want.reshape(n, n - 1)).all()  # row i lacks n - 1 - i
        assert (_subsets(n, n, True) == np.arange(n)).all()

    @staticmethod
    def record_tables(monkeypatch):
        asked = []

        def lex_table(m, c):
            asked.append(table := kept(m, c))
            return table

        kept = utility._lex_table
        monkeypatch.setattr(utility, "_lex_table", lex_table)
        return asked

    def test_one_column_and_one_row_need_no_table(self, monkeypatch):
        # k = 1 is a range cut into blocks and k = n one row, however
        # many agents: no prefix is split and no table is built
        asked = self.record_tables(monkeypatch)
        monkeypatch.setattr(utility, "_BLOCK", 100)
        for n in (3000, 5000):
            blocks = list(utility._team_blocks(n, 1))
            assert [len(b) for b in blocks] == [100] * (n // 100)
            assert (np.concatenate(blocks)[:, 0] == np.arange(n)).all()
            (row,) = utility._team_blocks(n, n)
            assert (row == np.arange(n)).all()
        assert asked == []

    def test_cached_tables_are_read_only_and_bounded(self, monkeypatch):
        cached, asked = utility._lex_table, self.record_tables(monkeypatch)
        for n in range(13):
            for k in range(n + 1):
                _subsets(n, k)
        for n, k in ((20, 10), (129, 2), (129, 127), (200, 3)):
            for _ in utility._team_blocks(n, k):
                pass
        # every table asked for fits _TABLE one-byte cells, so the 64
        # kept hold at most 1 MB
        assert asked and all(t.size <= utility._TABLE and t.dtype == np.int8 for t in asked)
        info = cached.cache_info()
        assert info.maxsize * utility._TABLE <= 1 << 20 and info.currsize <= info.maxsize
        table = asked[-1]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert cached(12, 4) is cached(12, 4) and not cached(12, 4).flags.writeable


class TestTeamValues:
    """The batched team values against one ``project_utility`` call per
    row, bit for bit (``float.hex``)."""

    def check(self, scn, teams):
        got = [v.hex() for v in team_values(scn, 0, teams).tolist()]
        assert got == [project_utility(scn, 0, S).value.hex() for S in teams.tolist()]

    def every_size(self, gen, scn):
        # all team sizes 0..n, in lexicographic order and shuffled
        n = scn.n_agents
        for k in range(n + 1):
            teams = _subsets(n, k)
            self.check(scn, teams)
            self.check(scn, teams[gen.permutation(len(teams))])

    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=TAGS)
    def test_every_team_size(self, factory):
        gen = np.random.default_rng(81)
        for n in (1, 2, 5, 9):
            self.every_size(gen, Scenario.single_project(lattice_dists(gen, n, 3), factory(), 1))

    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=TAGS)
    def test_long_supports(self, factory):
        # up to 40 atoms per member, so grids of two or more members pass
        # 64 points, and the sums of the three members that are not point
        # masses pass the merge size
        gen = np.random.default_rng(82)
        dists = lattice_dists(gen, 5, 40)
        assert max(len(d) for d in dists) > 32
        assert math.prod(len(d) for d in dists) > _MERGE
        self.every_size(gen, Scenario.single_project(dists, factory(), 1))

    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=TAGS)
    def test_first_over_budget_row_raises_its_own_error(self, factory, monkeypatch):
        gen = np.random.default_rng(84)
        scn = Scenario.single_project(lattice_dists(gen, 6, 6), factory(), 1)
        teams = _subsets(6, 3)[gen.permutation(20)]
        telling = False  # a budget where the first and last rows past it raise apart
        for budget in (2**b for b in range(1, 16)):
            monkeypatch.setenv("TESTSCORE_BUDGET", str(budget))
            errors = []
            for S in teams.tolist():
                try:
                    project_utility(scn, 0, S)
                except BudgetExceededError as exc:
                    errors.append(str(exc))
            if not errors:
                self.check(scn, teams)
                continue
            with pytest.raises(BudgetExceededError) as exc:
                team_values(scn, 0, teams)
            assert str(exc.value) == errors[0]
            telling = telling or errors[-1] != errors[0]
        assert telling

    def test_empty_blocks_and_empty_teams(self):
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.ces(2.0), 1)
        assert team_values(scn, 0, np.zeros((0, 2), dtype=int)).shape == (0,)
        assert team_values(scn, 0, np.zeros((3, 0), dtype=int)).tolist() == [0.0] * 3


# support lengths of the kernel's block: 1..6, a point mass at ids 0, 3
# and 7 (so at every position of some size-3 team), and five long agents
# whose teams of three pass _MERGE partial sums (13 * 15 * 16 > 4096)
KERNEL_LENGTHS = (1, 20, 2, 1, 17, 3, 4, 1, 13, 5, 6, 16, 15)


KERNEL = [g for g, _ in SUM_ROUTE if not utility._linear(g)]
KERNEL_TAGS = [value_fn_tag(g) for g in KERNEL]


def kernel_dists(gen, lengths=KERNEL_LENGTHS):
    # lattice supports, so that equal partial sums, which a merge folds, occur
    lattice = np.arange(2 * max(lengths)) * 0.25
    out = []
    for s in lengths:
        values = np.sort(gen.choice(lattice, s, replace=False))
        probs = gen.uniform(0.2, 1.0, s)
        out.append(Distribution(tuple(values.tolist()), tuple((probs / probs.sum()).tolist())))
    return out


class TestSumKernel:
    """The non-linear ``total``/``ces`` rows of a ``team_values`` block are
    scored as padded blocks that end in a left-to-right sum, beside the
    rows that merge equal partial sums: each row equals its own
    ``project_utility`` call, and r copies of one agent its
    ``replication_score``, bit for bit (``float.hex``)."""

    @pytest.mark.parametrize("g", KERNEL, ids=KERNEL_TAGS)
    def test_mixed_block_matches_lone_calls(self, g):
        gen = np.random.default_rng(95)
        dists = kernel_dists(gen)
        scn = Scenario.single_project(dists, g, 3)
        lengths = scn.store(0).lengths
        teams = _subsets(len(dists), 3)
        teams = np.concatenate([teams, teams[gen.permutation(len(teams))]])
        sizes = lengths[teams]
        # the block mixes every length, point masses at every position and
        # rows on both sides of the merge
        assert set(sizes.ravel().tolist()) >= set(range(1, 7))
        assert (sizes == 1).any(axis=0).all()
        assert (sizes.prod(axis=1) > _MERGE).any() and (sizes.prod(axis=1) <= _MERGE).any()
        got = [v.hex() for v in team_values(scn, 0, teams).tolist()]
        assert got == [project_utility(scn, 0, S).value.hex() for S in teams.tolist()]
        # and the reference, which shares none of the kernel's code
        budget = enumeration_budget()
        assert got == [ref_lone_expectation(g, [dists[i] for i in S], 1, budget).hex() for S in teams.tolist()]

    @pytest.mark.parametrize("g", KERNEL, ids=KERNEL_TAGS)
    def test_copies_match_replication_score(self, g):
        # one-member rows of 1..5 copies, through the kernel and through a
        # score table's length groups
        dists = kernel_dists(np.random.default_rng(96), (1, 2, 3, 1, 4, 5, 6, 9))
        store = Scenario.single_project(dists, g, 1).store(0)
        budget = enumeration_budget()
        agents = np.arange(len(dists))
        for r in range(1, 6):
            want = [replication_score(g, d, r).hex() for d in dists]
            assert want == [ref_lone_expectation(g, [d], r, budget).hex() for d in dists]
            rows = np.repeat(agents[:, None], r, axis=1)
            assert [v.hex() for v in utility._sum_rows(g, store, rows, budget).tolist()] == want
            table = utility._member_rows(g, store, r, budget)
            batched = ~np.isnan(table)
            assert batched.any() and (r < 4 or not batched.all())
            assert [v.hex() for v in table[batched].tolist()] == [w for w, b in zip(want, batched) if b]

    @pytest.mark.parametrize("g", KERNEL, ids=KERNEL_TAGS)
    def test_first_over_budget_row_among_merging_rows(self, g, monkeypatch):
        # the block raises the error of its first row past the budget, in
        # the given order, whether that row merges equal sums or follows
        # one that did: (2, 3, 4), of lengths (70, 70, 1), merges at a
        # charge of 70 + 4900, less than (0, 1, 5), of lengths (600, 2, 3),
        # charges without a merge
        gen = np.random.default_rng(97)
        scn = Scenario.single_project(kernel_dists(gen, (600, 2, 70, 70, 1, 3, 1, 4)), g, 3)
        lengths = scn.store(0).lengths
        lead = [(1, 4, 5), (2, 3, 4), (0, 1, 5), (2, 3, 5)]
        rest = [S for S in combinations(range(scn.n_agents), 3) if S not in lead]
        teams = np.array(lead + [rest[i] for i in gen.permutation(len(rest))])
        merging = lengths[teams].prod(axis=1) > _MERGE
        first_kinds = set()
        for budget in range(3000, 9000, 250):
            monkeypatch.setenv("TESTSCORE_BUDGET", str(budget))
            errors = []
            for row, S in enumerate(teams.tolist()):
                try:
                    project_utility(scn, 0, S)
                except BudgetExceededError as exc:
                    errors.append((row, str(exc), exc.required))
            if not errors:
                got = [v.hex() for v in team_values(scn, 0, teams).tolist()]
                assert got == [project_utility(scn, 0, S).value.hex() for S in teams.tolist()]
                continue
            with pytest.raises(BudgetExceededError) as exc:
                team_values(scn, 0, teams)
            row, message, required = errors[0]
            assert (str(exc.value), exc.value.required) == (message, required)
            if merging[: row + 1].any():  # a merging row ahead of it ran, or it merges itself
                first_kinds.add(bool(merging[row]))
        assert first_kinds == {True, False}


ORDER = [ValueFunction.best_shot(), ValueFunction.top_r(2), ValueFunction.top_r(3)]
ORDER_TAGS = [value_fn_tag(g) for g in ORDER]


class TestOrderKernel:
    """Best-shot and top-r rows in padded blocks (``ProjectStore.padded``,
    where a pad adds a zero-width gap) against the same rows scored alone,
    bit for bit (``float.hex``): a score column (``_member_rows``) against
    ``replication_score``, each ``team_values`` row against its own
    ``project_utility`` call, and each row of a block at 2..4 copies of
    each member against a one-row block; a lone agent's value also against
    the reference. The blocks hold the whole store, or split it, _BLOCK
    made small. A store with one long support pads only that support's
    block to it, and a row the budget refuses is never scored."""

    @staticmethod
    def dists():
        # support lengths 1..20 and two more point masses, on a lattice so
        # that members share atoms, and agents 22 and 23 repeat 1 and 6
        gen = np.random.default_rng(98)
        dists = kernel_dists(gen, (1, 20, 2, 1, 17, 3, 4, 1, 13, 5, 6, 16, 15, 7, 8, 9, 10, 11, 12, 14, 18, 19))
        return dists + [dists[1], dists[6]]

    @pytest.mark.parametrize("block", [None, 200], ids=["whole", "split"])
    @pytest.mark.parametrize("g", ORDER, ids=ORDER_TAGS)
    def test_columns_match_replication_score(self, g, block, monkeypatch):
        if block:  # 10 agents of the store's 24 per block
            monkeypatch.setattr(utility, "_BLOCK", block)
        dists = self.dists()
        store, budget = Scenario.single_project(dists, g, 1).store(0), enumeration_budget()
        for copies in range(1, 5):
            want = [replication_score(g, d, copies).hex() for d in dists]
            assert want == [ref_lone_expectation(g, [d], copies, budget).hex() for d in dists]
            assert [v.hex() for v in utility._member_rows(g, store, copies, budget).tolist()] == want

    @pytest.mark.parametrize("block", [None, 200], ids=["whole", "split"])
    @pytest.mark.parametrize("g", ORDER, ids=ORDER_TAGS)
    def test_team_blocks_match_lone_rows(self, g, block, monkeypatch):
        if block:  # 1 to 5 teams per block
            monkeypatch.setattr(utility, "_BLOCK", block)
        dists = self.dists()
        scn = Scenario.single_project(dists, g, 4)
        store, budget = scn.store(0), enumeration_budget()
        gen = np.random.default_rng(99)
        # point masses alone, repeated supports, and random teams
        lead = [(0, 3, 7, 21), (1, 22, 6, 23), (0, 1, 3, 22), (2, 6, 23, 7)]
        for k in range(1, 5):
            teams = _subsets(len(dists), k)
            teams = np.concatenate([np.sort(lead, axis=1)[:, :k], teams[gen.permutation(len(teams))[:60]]])
            got = [v.hex() for v in team_values(scn, 0, teams).tolist()]
            assert got == [project_utility(scn, 0, S).value.hex() for S in teams.tolist()]
            for copies in range(2, 5):
                got = [v.hex() for v in utility._exact_rows(g, store, teams, copies, budget).tolist()]
                alone = [utility._exact_rows(g, store, row[None], copies, budget)[0].hex() for row in teams]
                assert got == alone, (k, copies)


    @pytest.mark.parametrize("g", ORDER, ids=ORDER_TAGS)
    def test_a_long_support_pads_its_own_block(self, g, monkeypatch):
        # 63 agents of 3 atoms and one of 5,000: padded to the longest, the
        # whole store would be 64 x 5,000 cells, past _BLOCK; then a _BLOCK
        # below 5,000 on the same store, where the long support runs alone
        dists = kernel_dists(np.random.default_rng(97), (3,) * 20 + (5000,) + (3,) * 43)
        scn = Scenario.single_project(dists, g, 2)
        store, long = scn.store(0), 20
        assert len(store) * 5000 > utility._BLOCK
        padded, grids = [], []  # (rows, width) of every padded block, and of every grid scored
        pad, top_w = ProjectStore.padded, utility._top_w
        monkeypatch.setattr(ProjectStore, "padded", lambda s, a: padded.append(pad(s, a)[0].shape) or pad(s, a))
        monkeypatch.setattr(utility, "_top_w", lambda g, grid, *a: grids.append(grid.shape) or top_w(g, grid, *a))
        teams = np.array([(0, long), (1, 2), (3, 4), (long, 63), (5, 6)])
        for block in (utility._BLOCK, 4000):
            monkeypatch.setattr(utility, "_BLOCK", block)
            padded.clear()
            for copies in (1, 2):
                want = [replication_score(g, d, copies).hex() for d in dists]
                assert [v.hex() for v in utility._member_rows(g, store, copies, enumeration_budget()).tolist()] == want
                # a budget that refuses the long support alone leaves its
                # entry, and scores the others on grids of their own 3 atoms
                budget = utility._row_work(g, 5000, 1, copies) - 1
                grids.clear()
                table = utility._member_rows(g, store, copies, budget)
                assert np.isnan(table[long])
                assert [v.hex() for v in np.delete(table, long).tolist()] == want[:long] + want[long + 1 :]
                assert {width for _, width in grids} == {3}
            got = [v.hex() for v in team_values(scn, 0, teams).tolist()]
            assert got == [project_utility(scn, 0, S).value.hex() for S in teams.tolist()]
            # each block within _BLOCK cells, or a lone agent or team; the
            # agents past the long support's block are padded to their own 3 atoms
            assert all(rows * width <= block or rows in (1, 2) for rows, width in padded)
            assert (len(store) - max(1, block // 5000), 3) in padded


    @pytest.mark.parametrize("g", ORDER, ids=ORDER_TAGS)
    def test_tall_blocks_match_lone_rows(self, g):
        # 600 agents of 1 to 4 atoms: a score column and a block of 400
        # teams of narrow grids, many rows of few cells
        gen = np.random.default_rng(95)
        dists = kernel_dists(gen, gen.integers(1, 5, 600).tolist())
        scn = Scenario.single_project(dists, g, 2)
        store, budget = scn.store(0), enumeration_budget()
        for copies in (1, 3):
            want = [replication_score(g, d, copies).hex() for d in dists]
            assert [v.hex() for v in utility._member_rows(g, store, copies, budget).tolist()] == want
        teams = np.sort(np.array([gen.choice(600, 2, replace=False) for _ in range(400)]), axis=1)
        got = [v.hex() for v in team_values(scn, 0, teams).tolist()]
        assert got == [project_utility(scn, 0, S).value.hex() for S in teams.tolist()]


def reloaded(scn):
    # the scenario as the loader builds it: stores, no Distribution objects
    return scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scn)))).scenario


class TestLoneReference:
    """The engine on the packed store against its earlier form on lists of
    Distribution objects (``ref_lone_expectation``, ``ref_lone_mc``), bit
    for bit (``float.hex``), on every team of sizes 0..n with 1..5 copies
    of each member, on built and loaded scenarios. A budget error must
    carry the same required work."""

    @staticmethod
    def outcome(call):
        try:
            return "value", call().hex()
        except BudgetExceededError as exc:
            return "budget", exc.required

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=TAGS)
    def test_exact(self, factory, loaded):
        gen = np.random.default_rng(93)
        scn = Scenario.single_project(lattice_dists(gen, 5, 4), factory(), 1)
        scn = reloaded(scn) if loaded else scn
        g, store = scn.value_fns[0], scn.store(0)
        kinds = set()
        for budget in (8, 10**6):
            for k in range(6):
                for S in _subsets(5, k).tolist():
                    pool = [scn.dist(i, 0) for i in S]
                    for copies in range(1, 6):
                        got = self.outcome(
                            lambda: utility._exact_rows(g, store, np.array([S], np.intp), copies, budget)[0]
                        )
                        want = self.outcome(lambda: ref_lone_expectation(g, pool, copies, budget))
                        assert got == want, (S, copies, budget)
                        kinds.add(got[0])
        assert kinds == {"value", "budget"}

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=TAGS)
    def test_monte_carlo(self, factory, loaded):
        gen = np.random.default_rng(94)
        scn = Scenario.single_project(lattice_dists(gen, 5, 4), factory(), 1)
        scn = reloaded(scn) if loaded else scn
        g, store = scn.value_fns[0], scn.store(0)
        for seed, S in enumerate(([0], [1, 3], [0, 2, 4], [0, 1, 2, 3, 4])):
            pool = [scn.dist(i, 0) for i in S]
            for copies in (1, 3):
                est = utility._mc(g, store, S, copies, RngSpec(seed=seed), 64, copies)
                value, se = ref_lone_mc(g, pool, copies, RngSpec(seed=seed), 64, copies)
                assert (est.value.hex(), est.std_error.hex()) == (value.hex(), se.hex())


class TestMonteCarlo:
    def test_matches_exact_within_error_band(self):
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.best_shot(), 2)
        est = mc_utility(scn, 0, [0, 1], RngSpec(seed=19), samples=100_000)
        assert est.method == "monte_carlo"
        assert est.std_error > 0
        assert abs(est.value - 1.5) <= 4 * est.std_error

    def test_point_masses_have_zero_spread(self):
        scn = Scenario.single_project(
            [Distribution.point(2.0)] * 2, ValueFunction.best_shot(), 2
        )
        est = mc_utility(scn, 0, [0, 1], RngSpec(seed=1), samples=1000)
        assert est.value == 2.0
        assert est.std_error == 0.0

    def test_deterministic_per_spec(self):
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.ces(2.0), 3)
        a = mc_utility(scn, 0, [0, 1, 2], RngSpec(seed=77), samples=5000)
        b = mc_utility(scn, 0, [0, 1, 2], RngSpec(seed=77), samples=5000)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_streams_decorrelate(self):
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.ces(2.0), 2)
        a = mc_utility(scn, 0, [0, 1], RngSpec(seed=77), samples=5000, stream=0)
        b = mc_utility(scn, 0, [0, 1], RngSpec(seed=77), samples=5000, stream=1)
        assert a.value != b.value

    @pytest.mark.parametrize("g", [g for g, _ in PAIRED], ids=TAGS)
    def test_empty_team_is_exactly_zero(self, g):
        scn = Scenario.single_project([TWO_POINT] * 2, g, 2)
        est = mc_utility(scn, 0, [], RngSpec(seed=0), samples=100)
        assert est == utility.UtilityEstimate(value=0.0, method="exact")

    def test_rejects_tiny_sample_count(self):
        scn = Scenario.single_project([TWO_POINT] * 2, ValueFunction.ces(2.0), 2)
        with pytest.raises(ValidationError):
            mc_utility(scn, 0, [0], RngSpec(seed=0), samples=1)

    @pytest.mark.parametrize("g", [g for g, _ in PAIRED], ids=TAGS)
    def test_within_five_standard_errors_property(self, g):
        # a spread of 0 (every member a point mass) leaves only the
        # rounding of the sample mean
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
        @hypothesis.given(seed=st.integers(0, 2**32 - 1), data=st.data())
        def check(seed, data):
            gen = np.random.default_rng(seed)
            n = data.draw(st.integers(1, 4))
            scn = Scenario.single_project(random_dists(gen, n), g, n)
            S = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
            est = mc_utility(scn, 0, S, RngSpec(seed=seed), samples=4000)
            exact = project_utility(scn, 0, S).value
            assert abs(est.value - exact) <= 5 * est.std_error + 1e-12 * max(1.0, abs(exact))

        check()


class TestSubmodularity:
    def test_catalogue_instances_pass(self):
        gen = np.random.default_rng(34)
        for g, _ in PAIRED:
            dists = random_dists(gen, 5)
            scn = Scenario.single_project(dists, g, 2)
            report = submodularity_check(scn, 0, max_agents=5)
            assert report.ok, (g.kind, report.witness)
            assert report.witness is None

    def test_linear_case(self):
        gen = np.random.default_rng(35)
        scn = Scenario.single_project(random_dists(gen, 4), ValueFunction.ces(1.0), 2)
        assert submodularity_check(scn, 0).ok

    def test_top_r_passes_despite_prefix_counterexample(self):
        gen = np.random.default_rng(36)
        for _ in range(5):
            scn = Scenario.single_project(
                random_dists(gen, 5), ValueFunction.top_r(2), 2
            )
            assert submodularity_check(scn, 0, max_agents=5).ok

    def test_agent_cap_guards_blowup(self):
        scn = Scenario.single_project([TWO_POINT] * 6, ValueFunction.best_shot(), 2)
        with pytest.raises(BudgetExceededError):
            submodularity_check(scn, 0, max_agents=5)

    @staticmethod
    def by_size(monkeypatch, f):
        # every team of size t is worth f(t); the empty team stays 0
        monkeypatch.setattr(
            utility, "team_values", lambda scn, j, teams: np.full(len(teams), f(teams.shape[1]))
        )
        return lambda S: 0.0 if not S else f(len(S))

    def test_monotonicity_witness(self, monkeypatch):
        u = self.by_size(monkeypatch, lambda t: -float(t))
        scn = Scenario.single_project([TWO_POINT] * 4, ValueFunction.best_shot(), 2)
        report = submodularity_check(scn, 0)
        assert not report.ok
        S, T, i = report.witness
        assert i is None
        assert set(S) <= set(T)
        assert u(S) > u(T) + SUBMODULARITY_TOL

    def test_diminishing_returns_witness(self, monkeypatch):
        u = self.by_size(monkeypatch, lambda t: float(t * t))
        scn = Scenario.single_project([TWO_POINT] * 4, ValueFunction.best_shot(), 2)
        report = submodularity_check(scn, 0)
        assert not report.ok
        S, T, i = report.witness
        assert i is not None and i not in T
        assert set(S) <= set(T)
        gain_T = u(T + (i,)) - u(T)
        gain_S = u(S + (i,)) - u(S)
        assert gain_T > gain_S + SUBMODULARITY_TOL

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_per_pair_loop(self, n, monkeypatch):
        # a monotone submodular sqrt of a weighted sum, with up to three
        # cells, each a singleton half the time, moved up or down by
        # 1e-12..3 (on both sides of SUBMODULARITY_TOL), and half the time a
        # subset tying a superset on the tolerance: the array pass finds the
        # loop's first witness
        gen = np.random.default_rng(40 + n)
        scn = Scenario.single_project([TWO_POINT] * n, ValueFunction.best_shot(), 1)
        members = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        kinds = set()
        for _ in range(60):
            u = np.sqrt(members @ gen.uniform(0.0, 2.0, n))
            for _ in range(int(gen.integers(0, 4))):
                mask = 1 << int(gen.integers(n)) if gen.random() < 0.5 else int(gen.integers(1, 1 << n))
                u[mask] += gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-12.0, 0.5)
            T = int(gen.integers(1 << n))
            S = T & int(gen.integers(1 << n))
            if S and gen.random() < 0.5:  # u(S) ties u(T) on the tolerance: no violation
                u[S] = u[T] + SUBMODULARITY_TOL
            monkeypatch.setattr(utility, "team_values", lambda scn, j, teams: u[(1 << teams).sum(axis=1)])
            report = submodularity_check(scn, 0)
            assert report == ref_submodularity_check(u.tolist(), n)
            kinds.add("ok" if report.ok else "monotone" if report.witness[2] is None else "marginal")
        assert kinds == ({"ok", "monotone", "marginal"} if n > 1 else {"ok", "monotone"})
