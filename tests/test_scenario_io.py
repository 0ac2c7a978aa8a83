"""Scenario JSON round trips, value-function tags, ratings ingestion."""

import gc
import io
import json
import math
import os
import re
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from testscore import (
    CATALOGUE_POOL,
    ConcaveFn,
    Distribution,
    ProjectStore,
    Scenario,
    UnitFn,
    ValidationError,
    ValueFunction,
    build_score_table,
    evaluate,
    ingest_ratings,
    load_scenario,
    parse_value_fn,
    read_ratings,
    replication_score,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    value_fn_tag,
)
from testscore.cli import main
from testscore.core import PROB_SUM_SLACK
from testscore.scenario_io import write_text
from testscore.utility import _MERGE
from testscore.data import sample_ratings_path


ENTRY_LIST_REFUSED = (
    'the entry-list layout (a top-level "distributions" list) is no longer read; '
    'give each project its "supports", as save_scenario writes them'
)


def entry_list(doc: dict) -> dict:
    """The entry-list layout of a columnar document, its entries agent
    after agent, as files written before the columnar layout hold them."""
    return {
        "agents": doc["agents"],
        "projects": [{key: p[key] for key in ("name", "value_fn", "k")} for p in doc["projects"]],
        "distributions": [
            {"agent": a, "project": p["name"], "support": [list(pair) for pair in zip(*p["supports"][i])]}
            for i, a in enumerate(doc["agents"])
            for p in doc["projects"]
        ],
    }


def two_by_two() -> Scenario:
    return Scenario(
        dists=(
            (Distribution.point(1.0), Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))),
            (Distribution.from_pairs(((1.0, 0.25), (3.0, 0.75))), Distribution.point(0.5)),
        ),
        value_fns=(ValueFunction.best_shot(), ValueFunction.ces(2.0)),
        cardinalities=(1, 1),
    )


class TestValueFnTags:
    @pytest.mark.parametrize("factory", CATALOGUE_POOL)
    def test_round_trip_every_catalogue_member(self, factory):
        g = factory()
        h = parse_value_fn(value_fn_tag(g))
        assert value_fn_tag(h) == value_fn_tag(g)
        for x in ((), (0.7,), (1.0, 2.0), (0.5, 0.5, 3.0)):
            assert evaluate(h, x) == pytest.approx(evaluate(g, x), abs=1e-12)

    def test_tag_shapes(self):
        assert value_fn_tag(ValueFunction.best_shot()) == "best_shot"
        assert value_fn_tag(ValueFunction.top_r(3)) == "top_r:3"
        assert value_fn_tag(ValueFunction.total(ConcaveFn("sqrt"))) == "total:sqrt"
        assert value_fn_tag(ValueFunction.total(ConcaveFn("power", 0.5))) == "total:power:0.5"
        assert value_fn_tag(ValueFunction.ces(1.5)) == "ces:1.5"
        assert (
            value_fn_tag(ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)))
            == "success_prob:clamp_linear:0.25"
        )

    def test_parse_preserves_parameters(self):
        g = parse_value_fn("total:power:0.3")
        assert g.f.p == 0.3
        g = parse_value_fn("success_prob:one_minus_exp:0.5")
        assert g.f.kind == "one_minus_exp" and g.f.param == 0.5

    @pytest.mark.parametrize(
        "tag",
        [
            "",
            "nope",
            "total",
            "total:cube",
            "total:power",
            "total:power:zero",
            "top_r",
            "top_r:1.5",
            "ces",
            "ces:abc",
            "ces:0.5",
            "success_prob:clamp_linear",
            "success_prob:sigmoid:1.0",
            "best_shot:extra",
        ],
    )
    def test_bad_tags_rejected(self, tag):
        with pytest.raises(ValidationError):
            parse_value_fn(tag)


class TestScenarioRoundTrip:
    def test_file_round_trip_preserves_everything(self, tmp_path):
        scn = two_by_two()
        path = tmp_path / "scn.json"
        save_scenario(path, scn, agent_names=["ann", "bob"], project_names=["api", "ui"])
        loaded = load_scenario(path)
        assert loaded.agent_names == ("ann", "bob")
        assert loaded.project_names == ("api", "ui")
        assert loaded.scenario.cardinalities == scn.cardinalities
        for j, g in enumerate(scn.value_fns):
            assert value_fn_tag(loaded.scenario.value_fns[j]) == value_fn_tag(g)
        for i in range(scn.n_agents):
            for j in range(scn.n_projects):
                assert loaded.scenario.dist(i, j) == scn.dist(i, j)

    def test_rewrite_over_a_longer_file_round_trips(self, tmp_path):
        scn, path = two_by_two(), tmp_path / "scn.json"
        save_scenario(path, roster(np.random.default_rng(3), n=8, m=4))
        save_scenario(path, scn)
        buf = io.StringIO()
        save_scenario(buf, scn)
        assert path.read_text() == buf.getvalue()
        loaded = load_scenario(path).scenario
        assert [[loaded.dist(i, j) for j in range(2)] for i in range(2)] == [[scn.dist(i, j) for j in range(2)] for i in range(2)]

    def test_unencodable_text_leaves_the_file(self, tmp_path):
        path = tmp_path / "kept.txt"
        path.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "new \udcff")
        assert path.read_text() == "old"

    def test_rewrite_opens_without_truncating(self, monkeypatch, tmp_path):
        # a file truncated to zero on ext4 has its new blocks flushed on close
        real, flags = os.open, []
        monkeypatch.setattr(os, "open", lambda path, flag, mode=0o777: flags.append(flag) or real(path, flag, mode))
        write_text(tmp_path / "report.json", "{}\n")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    def test_stream_round_trip_and_default_names(self):
        scn = two_by_two()
        buf = io.StringIO()
        save_scenario(buf, scn)
        loaded = load_scenario(io.StringIO(buf.getvalue()))
        assert loaded.agent_names == ("a0", "a1")
        assert loaded.project_names == ("p0", "p1")

    def test_name_lookup(self):
        scn = two_by_two()
        buf = io.StringIO()
        save_scenario(buf, scn, agent_names=["x", "y"], project_names=["p", "q"])
        loaded = load_scenario(io.StringIO(buf.getvalue()))
        assert loaded.project_index("p") == 0
        with pytest.raises(ValidationError):
            loaded.project_index("zz")

    def test_name_length_mismatch(self):
        with pytest.raises(ValidationError):
            scenario_to_dict(two_by_two(), agent_names=["only_one"])


def roster(gen, n=64, m=32) -> Scenario:
    # 1-3 atom supports on [0, 3], probabilities normalized by a float sum;
    # projects cycle through the catalogue
    dists = []
    for _ in range(n):
        row = []
        for _ in range(m):
            atoms = np.unique(np.round(gen.uniform(0.0, 3.0, int(gen.integers(1, 4))), 3))
            w = gen.uniform(0.2, 1.0, len(atoms))
            row.append(Distribution(tuple(atoms.tolist()), tuple((w / w.sum()).tolist())))
        dists.append(tuple(row))
    fns = tuple(CATALOGUE_POOL[j % len(CATALOGUE_POOL)]() for j in range(m))
    return Scenario(dists=tuple(dists), value_fns=fns, cardinalities=(1, 2) * (m // 2))


def hexes(xs) -> list[str]:
    return [float(x).hex() for x in xs]


class TestLoadedSupports:
    def test_round_trip_scores_bit_for_bit(self):
        scn = roster(np.random.default_rng(5))
        buf = io.StringIO()
        save_scenario(buf, scn)
        loaded = load_scenario(io.StringIO(buf.getvalue())).scenario
        for i in scn.agents:
            for j in scn.projects:
                assert hexes(loaded.dist(i, j).probs) == hexes(scn.dist(i, j).probs)
        want = build_score_table(scn, "replication", max_r=2)
        got = build_score_table(loaded, "replication", max_r=2)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert np.array_equal(got.methods, want.methods)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_from_pairs(self, seed):
        # unsorted supports, integer numbers, point masses, and sums just
        # inside and just outside the slack
        gen = np.random.default_rng(seed)
        agents = [f"a{i}" for i in range(12)]
        supports, expected = [], []
        doc = {"agents": agents, "projects": [{"name": "p", "value_fn": "best_shot", "k": 1, "supports": supports}]}
        for _ in agents:
            s = int(gen.integers(1, 6))
            values = gen.permutation(s * 4)[:s] * 0.75 if gen.random() < 0.5 else gen.uniform(0, 9, s)
            if gen.random() < 0.3:
                values = np.round(values).astype(int)
            w = gen.uniform(0.1, 1.0, s)
            probs = (w / w.sum()).tolist()
            drift = gen.choice([0.0, 0.4, 0.999, 1.001, 3.0]) * PROB_SUM_SLACK
            probs[-1] += float(drift) * (1 if gen.random() < 0.5 else -1)
            if s == 1 and gen.random() < 0.5:
                probs = [1]
            supports.append([values.tolist(), probs])
            try:
                expected.append(Distribution.from_pairs((float(v), float(p)) for v, p in zip(*supports[-1])))
            except ValidationError as exc:
                expected.append(exc)
        failures = [(e, x) for e, x in enumerate(expected) if isinstance(x, ValidationError)]
        if failures:
            e, exc = failures[0]
            with pytest.raises(ValidationError) as got:
                scenario_from_dict(json.loads(json.dumps(doc)))
            assert str(got.value) == f"distribution for agent 'a{e}', project 'p': {exc}"
            for e, _ in failures:
                supports[e] = [[0.0], [1.0]]
                expected[e] = Distribution.point(0.0)
        loaded = scenario_from_dict(json.loads(json.dumps(doc))).scenario
        for i, want in enumerate(expected):
            d = loaded.dist(i, 0)
            assert hexes(d.values) == hexes(want.values)
            assert hexes(d.probs) == hexes(want.probs)
            assert hexes(d.values_array) == hexes(want.values_array)
            assert hexes(d.probs_array) == hexes(want.probs_array)

    def test_first_failing_entry_in_file_order(self):
        doc = scenario_to_dict(two_by_two(), ["ann", "bob"], ["api", "ui"])
        set_support(doc, 0, 1, [[1.0, 0.5], [1.0, 0.5]])
        set_support(doc, 1, 1, [[-1.0, 1.0]])
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == (
            "distribution for agent 'ann', project 'ui': duplicate support value 1.0"
        )
        set_support(doc, 0, 1, [[1.0, 1.0]])
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == (
            "distribution for agent 'bob', project 'ui': negative support value -1.0"
        )

    def test_integer_past_the_float_range(self):
        doc = scenario_to_dict(two_by_two())
        set_support(doc, 1, 0, [[10**400, 1]])
        with pytest.raises(ValidationError, match="agent 'a1', project 'p0'"):
            scenario_from_dict(doc)


def reloaded(scn: Scenario) -> Scenario:
    buf = io.StringIO()
    save_scenario(buf, scn)
    return load_scenario(io.StringIO(buf.getvalue())).scenario


def store_hexes(store) -> list:
    groups = [
        (s, agents.tolist(), hexes(v.ravel()), hexes(p.ravel()))
        for s, agents, v, p in store.groups
    ]
    return [hexes(store.values), hexes(store.probs), store.lengths.tolist(),
            store.offsets.tolist(), groups] + [hexes(a.ravel()) for a in store.padded(np.arange(len(store)))]


class TestProjectStores:
    def mixed(self, gen, fns, lengths, ks) -> Scenario:
        # one fresh support on [0.01, 3] per cell, the given length per agent
        rows = []
        for s in lengths:
            row = []
            for _ in fns:
                values = np.sort(gen.permutation(300)[:s] + 1) / 100.0
                w = gen.uniform(0.2, 1.0, s)
                row.append(Distribution(tuple(values.tolist()), tuple((w / w.sum()).tolist())))
            rows.append(tuple(row))
        return Scenario(dists=tuple(rows), value_fns=tuple(fns), cardinalities=ks)

    def same_tables(self, scn, max_r):
        want = build_score_table(scn, "replication", max_r=max_r)
        got = build_score_table(reloaded(scn), "replication", max_r=max_r)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert np.array_equal(got.methods, want.methods)
        assert got.std_errors.tobytes() == want.std_errors.tobytes()
        return got

    def test_pack_reads_the_atoms_without_caching_arrays(self):
        # each distribution's atoms in order, with their bits (-0.0 among
        # them), and no distribution left holding a copy of its own as arrays
        scn = self.mixed(np.random.default_rng(4), [ValueFunction.best_shot()], (1, 3, 2), (1,))
        dists = [row[0] for row in scn.dists] + [Distribution.from_pairs(((-0.0, 0.5), (1.0, 0.5)))]
        store = ProjectStore.pack(dists)
        for got, side in ((store.values, "values"), (store.probs, "probs")):
            assert [x.hex() for x in got.tolist()] == [x.hex() for d in dists for x in getattr(d, side)]
        assert store.lengths.tolist() == [1, 3, 2, 2]
        assert not any({"values_array", "probs_array"} & vars(d).keys() for d in dists)

    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=lambda f: value_fn_tag(f()))
    def test_loaded_table_equals_built_table(self, factory):
        # mixed support lengths, point masses, and a 9-atom agent whose
        # r = 4 sum-route cell steps through 9^4 > _MERGE partial sums
        assert 9**4 > _MERGE
        g = factory()
        scn = self.mixed(np.random.default_rng(3), [g], (1, 2, 3, 9, 1, 5, 2, 3), (4,))
        table = self.same_tables(scn, 4)
        for i in scn.agents:
            for r in range(1, 5):
                assert table.get(i, 0, r) == replication_score(g, scn.dist(i, 0), r)

    def test_loaded_monte_carlo_cells_equal_built_ones(self, monkeypatch):
        # at budget 20 the 6-atom agent's r = 2 cells cost 6 + 36 on the
        # non-linear sum route and 6 * 2 * 2 on top-r, so they fall back
        monkeypatch.setenv("TESTSCORE_BUDGET", "20")
        fns = [factory() for factory in CATALOGUE_POOL]
        lengths = (6,) + (1, 2) * 6
        scn = self.mixed(np.random.default_rng(4), fns, lengths, (2,) + (1,) * 11)
        table = self.same_tables(scn, 2)
        assert (table.methods == "monte_carlo").sum() == 7

    def test_shuffled_atoms_load_to_the_same_stores(self):
        # the loader keeps a file's atom order when every support already
        # rises, as save_scenario writes them, and sorts otherwise; both
        # give the same bits, and contiguous store arrays
        gen = np.random.default_rng(10)
        doc = scenario_to_dict(roster(gen, n=20, m=12))
        shuffled = json.loads(json.dumps(doc))
        moved = 0
        for project in shuffled["projects"]:
            for values, probs in project["supports"]:
                order = gen.permutation(len(values))
                moved += order.tolist() != sorted(order.tolist())
                values[:], probs[:] = [values[t] for t in order], [probs[t] for t in order]
        assert moved > 50
        in_order = scenario_from_dict(doc).scenario
        sorted_on_load = scenario_from_dict(shuffled).scenario
        for j in in_order.projects:
            want = store_hexes(in_order.store(j))
            assert store_hexes(sorted_on_load.store(j)) == want
            for store in (in_order.store(j), sorted_on_load.store(j)):
                assert store.values.flags.c_contiguous and store.probs.flags.c_contiguous

    @pytest.mark.parametrize("loaded", [False, True], ids=["dists", "loaded"])
    @pytest.mark.parametrize(
        "agents", [[1, 3, 4, 7], [6, 0, 3, 2, 5], [5]], ids=["sorted", "unsorted", "one"]
    )
    def test_take_equals_the_packed_agents(self, loaded, agents):
        scn = self.mixed(np.random.default_rng(11), [ValueFunction.best_shot()], (1, 2, 3, 9, 1, 5, 2, 3), (2,))
        store = (reloaded(scn) if loaded else scn).store(0)
        got = store.take(agents)
        want = ProjectStore.pack([store.dist(a) for a in agents])
        for name in ("values", "probs", "lengths"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert len(got.groups) == len(want.groups)
        for got_group, want_group in zip(got.groups, want.groups):
            assert all(map(np.array_equal, got_group, want_group))
        every = np.arange(len(agents))
        assert all(map(np.array_equal, got.padded(every), want.padded(every)))

    def test_dist_is_built_once(self):
        scn = roster(np.random.default_rng(8), n=20, m=12)
        loaded = reloaded(scn)
        assert loaded.dist(3, 2) is loaded.dist(3, 2)
        # a scenario built from Distribution objects hands out those, also
        # through the store packed from them
        assert scn.dist(3, 2) is scn.dists[3][2] is scn.store(2).dist(3)
        assert scn.store(2) is scn.store(2)

    def test_round_trip_keeps_every_bit(self):
        scn = roster(np.random.default_rng(9), n=20, m=12)
        loaded = reloaded(scn)
        again = reloaded(loaded)  # saved from its stores
        for j in scn.projects:
            want = store_hexes(scn.store(j))
            assert store_hexes(loaded.store(j)) == want
            assert store_hexes(again.store(j)) == want
            # each group row holds its agent's own atoms, and each padded
            # row its atoms and CDF, then its last atom and 1.0
            for _s, agents, values, probs in loaded.store(j).groups:
                for row, i in enumerate(agents.tolist()):
                    d = scn.dist(i, j)
                    assert hexes(values[row]) == hexes(d.values)
                    assert hexes(probs[row]) == hexes(d.probs)
            atoms, cdfs = loaded.store(j).padded(np.arange(scn.n_agents))
            for i in scn.agents:
                d, pad = scn.dist(i, j), atoms.shape[1] - len(scn.dist(i, j))
                assert hexes(atoms[i]) == hexes(d.values + d.values[-1:] * pad)
                assert hexes(cdfs[i]) == hexes((0.0,) + tuple(d.cdf_array) + (1.0,) * pad)
            for i in scn.agents:
                for d in (loaded.dist(i, j), again.dist(i, j)):
                    assert hexes(d.values) == hexes(scn.dist(i, j).values)
                    assert hexes(d.probs) == hexes(scn.dist(i, j).probs)
                    assert hexes(d.cdf_array) == hexes(scn.dist(i, j).cdf_array)


class TestStrictParsing:
    def doc(self):
        return scenario_to_dict(two_by_two())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("projects", {"p0": {}}, "projects must be a non-empty list"),
            ("projects", [], "projects must be a non-empty list"),
            ("project name", 7, "project name must be a string"),
        ],
    )
    def test_wrong_types(self, field, value, message):
        doc = self.doc()
        if field == "project name":
            doc["projects"][0]["name"] = value
        else:
            doc[field] = value
        with pytest.raises(ValidationError, match=f"^{message}$"):
            scenario_from_dict(doc)

    def test_unknown_top_level_field(self):
        doc = self.doc()
        doc["comment"] = "hi"
        with pytest.raises(ValidationError, match="unknown fields"):
            scenario_from_dict(doc)

    def test_missing_top_level_field(self):
        doc = self.doc()
        del doc["projects"]
        with pytest.raises(ValidationError, match="missing fields"):
            scenario_from_dict(doc)

    def test_duplicate_agent_names(self):
        doc = self.doc()
        doc["agents"] = ["a0", "a0"]
        with pytest.raises(ValidationError, match="duplicate agent"):
            scenario_from_dict(doc)

    def test_duplicate_project_names(self):
        doc = self.doc()
        for entry in doc["projects"]:
            entry["name"] = "same"
        with pytest.raises(ValidationError, match="duplicate project"):
            scenario_from_dict(doc)

    def test_project_entry_extra_field(self):
        doc = self.doc()
        doc["projects"][0]["weight"] = 2
        with pytest.raises(ValidationError, match="unknown fields"):
            scenario_from_dict(doc)

    def test_boolean_k_rejected(self):
        doc = self.doc()
        doc["projects"][0]["k"] = True
        with pytest.raises(ValidationError, match="k must be an integer"):
            scenario_from_dict(doc)

    def test_float_k_rejected(self):
        doc = self.doc()
        doc["projects"][0]["k"] = 1.0
        with pytest.raises(ValidationError, match="k must be an integer"):
            scenario_from_dict(doc)

    def test_duplicate_distribution_entry(self):
        # a repeated support is one more than the agents
        doc = self.doc()
        supports = doc["projects"][1]["supports"]
        supports.append(supports[0])
        with pytest.raises(ValidationError, match="^project 'p1' has 3 supports for 2 agents$"):
            scenario_from_dict(doc)

    def test_missing_distribution_entry(self):
        doc = self.doc()
        doc["projects"][1]["supports"].pop()
        with pytest.raises(ValidationError, match="^missing distribution for agent 'a1', project 'p1'$"):
            scenario_from_dict(doc)

    def test_value_fn_tag_must_be_a_string(self):
        doc = self.doc()
        doc["projects"][0]["value_fn"] = 5
        with pytest.raises(ValidationError, match="must be a string"):
            scenario_from_dict(doc)

    def test_malformed_support(self):
        doc = self.doc()
        doc["projects"][0]["supports"][0] = [[1.0], [0.5], [9.9]]
        with pytest.raises(ValidationError, match=r"\[values, probs\] pair"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("bad", [True, False, "0.5", None])
    def test_support_numbers_must_be_numbers(self, bad):
        doc = self.doc()
        doc["projects"][0]["supports"][0] = [[bad], [1.0]]
        with pytest.raises(ValidationError, match="number lists"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("slot", [0, 1], ids=["value", "prob"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_json_literals_rejected(self, bad, slot):
        doc = self.doc()
        doc["projects"][0]["supports"][0][slot][0] = bad
        text = json.dumps(doc)  # writes the NaN / Infinity literals
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(ValidationError):
            load_scenario(io.StringIO(text))

    def test_invalid_json_text(self):
        with pytest.raises(ValidationError, match="invalid scenario JSON"):
            load_scenario(io.StringIO("{not json"))

    def test_agents_must_be_names(self):
        doc = self.doc()
        doc["agents"] = []
        with pytest.raises(ValidationError, match="agents"):
            scenario_from_dict(doc)


def set_support(doc: dict, i: int, j: int, pairs: list) -> None:
    """Give agent i's support on project j, given as [value, prob] pairs."""
    doc["projects"][j]["supports"][i] = [[v for v, _ in pairs], [p for _, p in pairs]]


def load_error(doc: dict) -> str:
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(json.loads(json.dumps(doc)))  # NaN and true as JSON literals
    return str(exc.value)


class TestLayouts:
    """The one file layout, columnar, loads to the stores its supports
    pack to as Distributions, and each bad document or cell gives its own
    pinned error; the older entry-list layout is refused."""

    def named(self) -> dict:
        return scenario_to_dict(two_by_two(), ["ann", "bob"], ["api", "ui"])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_rosters_load_to_the_same_stores(self, seed):
        # unsorted supports, integer numbers, point masses and sums inside
        # the slack, and now and then a cell with a duplicate value, a zero
        # probability, a non-finite value, a sum outside the slack or a
        # boolean
        gen = np.random.default_rng(seed)
        n, m = 7, 5
        names = [f"p{j}" for j in range(m)]
        cells, defects = {}, []
        for i in range(n):
            for j in range(m):
                s = int(gen.integers(1, 5))
                values = (gen.permutation(12)[:s] * 0.25).tolist()
                if gen.random() < 0.3:
                    values = [int(4 * v) for v in values]
                w = gen.uniform(0.1, 1.0, s)
                probs = (w / w.sum()).tolist()
                probs[-1] += float(gen.choice([0.0, 0.4, 0.999])) * PROB_SUM_SLACK
                if s == 1 and gen.random() < 0.5:
                    probs = [1]
                pairs = [[v, p] for v, p in zip(values, probs)]
                if gen.random() < 0.05:
                    kind = gen.choice(["duplicate", "zero", "nan", "inf", "sum", "bool"])
                    if kind == "duplicate":
                        pairs.append([pairs[0][0], 0.5])
                    elif kind == "zero":
                        pairs[0][1] = 0.0
                    elif kind in ("nan", "inf"):
                        pairs[-1][0] = math.nan if kind == "nan" else -math.inf
                    elif kind == "sum":
                        pairs[0][1] += 3 * PROB_SUM_SLACK
                    else:
                        pairs[0][int(gen.integers(2))] = bool(gen.integers(2))
                    defects.append((i, j))
                cells[i, j] = pairs
        columnar = {
            "agents": [f"a{i}" for i in range(n)],
            "projects": [
                {"name": names[j], "value_fn": "best_shot", "k": 1,
                 "supports": [[[v for v, _ in cells[i, j]], [p for _, p in cells[i, j]]] for i in range(n)]}
                for j in range(m)
            ],
        }
        # every cell's shape is checked before any cell's distribution
        order = [(i, j) for j in range(m) for i in range(n)]
        shapes = [c for c in order if bool in map(type, chain(*cells[c]))]
        invalid = []
        for c in order:
            try:
                Distribution.from_pairs((float(v), float(p)) for v, p in cells[c])
            except ValidationError as exc:
                invalid.append((c, exc))
        if shapes:
            i, j = shapes[0]
            assert load_error(columnar) == (
                f"support for agent 'a{i}', project 'p{j}' must be a [values, probs] pair of "
                "equal-length number lists"
            )
        elif invalid:
            (i, j), exc = invalid[0]
            assert load_error(columnar) == f"distribution for agent 'a{i}', project 'p{j}': {exc}"
        else:
            assert not defects
        for i, j in defects:
            set_support(columnar, i, j, [[0.0, 1.0]])
        a = scenario_from_dict(json.loads(json.dumps(columnar))).scenario
        for j in range(m):
            want = [Distribution.from_pairs((float(v), float(p)) for v, p in
                                            ([[0.0, 1.0]] if (i, j) in defects else cells[i, j]))
                    for i in range(n)]
            assert store_hexes(a.store(j)) == store_hexes(ProjectStore.pack(want))
            for i in range(n):
                assert hexes(a.dist(i, j).values) == hexes(want[i].values)
                assert hexes(a.dist(i, j).probs) == hexes(want[i].probs)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(projects={"p0": {}}), "projects must be a non-empty list"),
            (lambda d: d.update(projects=[]), "projects must be a non-empty list"),
            (lambda d: d["projects"][0].update(name=7), "project name must be a string"),
            (lambda d: d.update(comment="hi"), "unknown fields in scenario document: ['comment']"),
            (lambda d: d.pop("projects"), "missing fields in scenario document: ['projects']"),
            (lambda d: d.update(agents=["ann", "ann"]), "duplicate agent names"),
            (lambda d: d.update(agents=[]), "agents must be a non-empty list of names"),
            (lambda d: [p.update(name="same") for p in d["projects"]], "duplicate project names"),
            (lambda d: d["projects"][0].update(weight=2), "unknown fields in project entry: ['weight']"),
            (lambda d: d["projects"][0].update(k=True), "project 'api': k must be an integer"),
            (lambda d: d["projects"][0].update(k=1.0), "project 'api': k must be an integer"),
            (lambda d: d["projects"][0].update(value_fn=5), "value function tag must be a string, got 5"),
            (lambda d: d["projects"][1].update(value_fn="ces:nan"),
             "bad value function tag 'ces:nan': ces parameter must be finite, got nan"),
        ],
        ids=["projects-object", "no-projects", "project-name", "top-field", "no-top-field",
             "duplicate-agents", "no-agents", "duplicate-projects", "project-field", "bool-k",
             "float-k", "tag-type", "tag-value"],
    )
    def test_document_errors_are_the_same(self, edit, message):
        doc = self.named()
        edit(doc)
        assert load_error(doc) == message

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[1.0, 0.5], [1.0, 0.5]], "duplicate support value 1.0"),
            ([[-1.0, 1.0]], "negative support value -1.0"),
            ([[math.nan, 1.0]], "support values must be finite, got (nan,)"),
            ([[math.inf, 1.0]], "support values must be finite, got (inf,)"),
            ([[1.0, math.nan]], "probability must be positive, got nan"),
            ([[1.0, -math.inf]], "probability must be positive, got -inf"),
            ([[0.0, 0.0], [1.0, 1.0]], "probability must be positive, got 0.0"),
            ([[0.0, 0.5], [1.0, 0.4]], "probabilities sum to 0.9, outside 1 +/- 1e-09"),
            ([[0.0, 2.0], [1.0, -1.0]], "probability must be positive, got -1.0"),
            ([], "distribution needs at least one atom"),
            ([[10**400, 1]], "int too large to convert to float"),
        ],
        ids=["duplicate", "negative", "nan-value", "inf-value", "nan-prob", "inf-prob",
             "zero-prob", "bad-sum", "prob-past-one", "empty", "integer-past-floats"],
    )
    def test_distribution_errors_are_the_same(self, pairs, message):
        # the message Distribution gives, naming the pair
        doc = self.named()
        set_support(doc, 1, 1, pairs)
        assert load_error(doc) == f"distribution for agent 'bob', project 'ui': {message}"

    def test_missing_support_is_the_same(self):
        columnar = self.named()
        columnar["projects"][1]["supports"].pop()
        assert load_error(columnar) == "missing distribution for agent 'bob', project 'ui'"

    def test_first_failing_cell_in_each_layouts_file_order(self):
        # the file lists api's supports first
        doc = self.named()
        set_support(doc, 0, 1, [[-1.0, 1.0]])
        set_support(doc, 1, 0, [[1.0, 0.5], [1.0, 0.5]])
        assert load_error(doc) == "distribution for agent 'bob', project 'api': duplicate support value 1.0"

    @pytest.mark.parametrize(
        "support",
        [
            [[1.0], [0.5, 0.5]],
            [[1.0, 2.0], [1.0]],
            [[1.0], [1.0], [1.0]],
            [[1.0]],
            [1.0, 1.0],
            "x",
            None,
            [[True], [1.0]],
            [[1.0], [False]],
            [["1.0"], [1.0]],
            [[1.0], [None]],
            [[[1.0]], [1.0]],
        ],
        ids=["short-values", "short-probs", "three-lists", "one-list", "numbers", "string", "null",
             "bool-value", "bool-prob", "string-number", "null-number", "nested"],
    )
    def test_cell_shape_names_the_pair(self, support):
        doc = self.named()
        doc["projects"][1]["supports"][1] = support
        assert load_error(doc) == (
            "support for agent 'bob', project 'ui' must be a [values, probs] pair of "
            "equal-length number lists"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["projects"][0].update(supports={}), "supports of project 'api' must be a list"),
            (lambda d: d["projects"][1]["supports"].append([[1.0], [1.0]]),
             "project 'ui' has 3 supports for 2 agents"),
            (lambda d: d["projects"][1].pop("supports"), "missing fields in project entry: ['supports']"),
            (lambda d: d["projects"][0].update(support=[]), "unknown fields in project entry: ['support']"),
            (lambda d: d.update(distributions=entry_list(d)["distributions"]), ENTRY_LIST_REFUSED),
        ],
        ids=["supports-object", "extra-support", "no-supports", "entry-field", "both-layouts"],
    )
    def test_columnar_structure_errors(self, edit, message):
        doc = self.named()
        edit(doc)
        assert load_error(doc) == message

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["projects"][0]["supports"].pop(0),
            lambda d: d["projects"][0]["supports"].append([[1.0], [1.0]]),
            lambda d: d["projects"][1]["supports"][0][0].append(2.0),
            lambda d: d.update(distributions=entry_list(d)["distributions"]),
        ],
        ids=["short-supports", "long-supports", "unequal-pair", "both-layouts"],
    )
    def test_columnar_failures_exit_2(self, capsys, tmp_path, edit):
        doc = self.named()
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["assign", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_writer_puts_one_agent_per_line(self):
        scn = roster(np.random.default_rng(12), n=9, m=4)
        buf = io.StringIO()
        save_scenario(buf, scn)
        text = buf.getvalue()
        doc = scenario_to_dict(scn)
        assert json.loads(text) == doc
        assert "distributions" not in doc
        lines = text.splitlines()
        # the agents, "projects", and per project its head and one line per agent
        assert len(lines) == 2 + 4 * (1 + 9)
        for j, project in enumerate(doc["projects"]):
            for i, row in enumerate(lines[3 + 10 * j : 12 + 10 * j]):
                pair = re.fullmatch(r"   (\[\[.*\]\])(,|\]\},|\]\}\]\})", row)
                assert json.loads(pair.group(1)) == project["supports"][i]
        # the written document loads to the scenario's own stores
        columnar = load_scenario(io.StringIO(text)).scenario
        for j in scn.projects:
            assert store_hexes(columnar.store(j)) == store_hexes(scn.store(j))

    @pytest.mark.parametrize(
        "doc",
        [
            lambda d: entry_list(d),
            lambda d: {"distributions": []},
            lambda d: {"distributions": None, "agents": [], "comment": "hi"},
        ],
        ids=["entry-list", "no-agents", "bad-fields"],
    )
    def test_entry_list_is_refused_first(self, doc):
        # a top-level "distributions" key is refused before any other
        # check; with project supports too, see test_columnar_structure_errors
        assert load_error(doc(self.named())) == ENTRY_LIST_REFUSED


ROOT = Path(__file__).resolve().parent.parent
BUNDLED_DIRS = ("demos/scenarios", "tests/fixtures")
BUNDLED = sorted(path for folder in BUNDLED_DIRS for path in (ROOT / folder).glob("*.json"))


class TestBundledScenarioFiles:
    """Each scenario file in the repo is byte for byte what save_scenario
    writes for it, so no second layout or hand formatting creeps back."""

    def test_each_folder_holds_scenarios(self):
        assert {str(path.parent.relative_to(ROOT)) for path in BUNDLED} == set(BUNDLED_DIRS)

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda path: str(path.relative_to(ROOT)))
    def test_in_the_written_layout(self, path):
        loaded = load_scenario(path)
        buf = io.StringIO()
        save_scenario(buf, loaded.scenario, loaded.agent_names, loaded.project_names)
        assert buf.getvalue().encode() == path.read_bytes()


class TestCollectorPause:
    """Loading and saving a scenario run with the cyclic garbage collector
    paused, and leave it as they found it, enabled or disabled, on success
    and on every failure."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_success_leaves_the_collector(self, tmp_path, collector):
        path = tmp_path / "scn.json"
        save_scenario(path, two_by_two())
        assert gc.isenabled() is collector
        save_scenario(io.StringIO(), two_by_two())
        assert gc.isenabled() is collector
        load_scenario(path)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("failure", ["invalid-json", "bad-support", "entry-list", "out-is-a-directory"])
    def test_failure_leaves_the_collector(self, tmp_path, collector, failure):
        doc = scenario_to_dict(two_by_two())
        if failure == "bad-support":
            set_support(doc, 0, 0, [[-1.0, 1.0]])
        calls = {
            "invalid-json": (lambda: load_scenario(io.StringIO("{not json")), ValidationError),
            "bad-support": (lambda: load_scenario(io.StringIO(json.dumps(doc))), ValidationError),
            "entry-list": (lambda: load_scenario(io.StringIO(json.dumps(entry_list(doc)))), ValidationError),
            "out-is-a-directory": (lambda: save_scenario(tmp_path, two_by_two()), IsADirectoryError),
        }
        call, error = calls[failure]
        with pytest.raises(error):
            call()
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True], indirect=True)
    def test_no_collection_runs(self, tmp_path, collector):
        # a 256 x 64 roster's document holds some 33,000 lists; with the
        # collector running, saving or loading it set off some 70 collections
        scn, path = roster(np.random.default_rng(0), n=256, m=64), tmp_path / "roster.json"
        for j in scn.projects:
            scn.store(j)  # packed beforehand: the stores outlive the save
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            save_scenario(path, scn)
            loaded = load_scenario(path)
        finally:
            gc.callbacks.remove(count)
        assert starts == []
        assert loaded.scenario.n_agents == 256


class TestReadRatings:
    def rows(self, body):
        return read_ratings(io.StringIO("coder_id,task_id,rating\n" + body))

    def test_happy_path(self):
        rows = self.rows("c1,t1,80\nc1,t2,90.5\nc2,t1,100\n")
        assert rows == [("c1", "t1", 80.0), ("c1", "t2", 90.5), ("c2", "t1", 100.0)]

    def test_header_must_match(self):
        with pytest.raises(ValidationError, match="row 1"):
            read_ratings(io.StringIO("coder,task,score\nc1,t1,80\n"))

    def test_field_count_carries_row_number(self):
        with pytest.raises(ValidationError, match="row 3"):
            self.rows("c1,t1,80\nc1,t2\n")

    def test_non_numeric_rating(self):
        with pytest.raises(ValidationError, match="row 2.*not a number"):
            self.rows("c1,t1,great\n")

    def test_rating_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            self.rows("c1,t1,120\n")
        with pytest.raises(ValidationError, match="outside"):
            self.rows("c1,t1,-5\n")

    def test_empty_ids_rejected(self):
        with pytest.raises(ValidationError, match="row 2"):
            self.rows(",t1,80\n")

    def test_empty_file_and_header_only(self):
        with pytest.raises(ValidationError, match="empty"):
            read_ratings(io.StringIO(""))
        with pytest.raises(ValidationError, match="no rows"):
            read_ratings(io.StringIO("coder_id,task_id,rating\n"))


class TestIngestRatings:
    def test_filter_and_order(self):
        rows = [("busy", f"t{i}", 50.0 + i) for i in range(3)]
        rows += [("ace", f"t{i}", 90.0) for i in range(3)]
        rows += [("idle", "t0", 10.0)]
        loaded = ingest_ratings(rows, min_solutions=3)
        assert loaded.agent_names == ("ace", "busy")
        assert loaded.project_names == ("p0",)
        scn = loaded.scenario
        assert scn.n_projects == 1
        assert scn.value_fns[0].kind == "best_shot"
        assert scn.cardinalities == (2,)  # min(4, 2 kept coders)

    def test_identical_ratings_collapse_to_point_mass(self):
        rows = [("ace", f"t{i}", 90.0) for i in range(5)]
        loaded = ingest_ratings(rows, min_solutions=5)
        d = loaded.scenario.dist(0, 0)
        assert d.values == (90.0,)
        assert d.probs == (1.0,)

    def test_empirical_weights(self):
        rows = [("c", "t1", 60.0), ("c", "t2", 60.0), ("c", "t3", 90.0)]
        d = ingest_ratings(rows, min_solutions=1).scenario.dist(0, 0)
        assert d.values == (60.0, 90.0)
        assert d.probs == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    @pytest.mark.parametrize("rating, message", [(-1.0, "negative support value -1.0"), (math.nan, "support values must be finite")])
    def test_bad_rating_names_the_coder(self, rating, message):
        rows = [("ace", "t0", 50.0), ("bad", "t0", 50.0), ("bad", "t1", rating)]
        with pytest.raises(ValidationError, match=f"^distribution for agent 'bad', project 'p0': {message}"):
            ingest_ratings(rows, min_solutions=1)

    def test_sample_stores_equal_the_packed_frequencies(self):
        # each kept coder's distinct ratings and relative frequencies, built
        # as Distributions and packed, give the ingested store bit for bit
        rows = read_ratings(sample_ratings_path())
        loaded = ingest_ratings(rows)
        by_coder = {}
        for coder, _, rating in rows:
            by_coder.setdefault(coder, []).append(rating)
        dists = []
        for coder in loaded.agent_names:
            values, counts = np.unique(by_coder[coder], return_counts=True)
            dists.append(Distribution(tuple(values.tolist()), tuple((counts / len(by_coder[coder])).tolist())))
        ingested, packed = loaded.scenario.store(0), ProjectStore.pack(dists)
        for name in ("values", "probs", "lengths"):
            assert getattr(ingested, name).tobytes() == getattr(packed, name).tobytes()

    def test_k_caps_at_four(self):
        rows = [(f"c{i}", f"t{j}", float(40 + i)) for i in range(6) for j in range(2)]
        loaded = ingest_ratings(rows, min_solutions=2)
        assert loaded.scenario.cardinalities == (4,)

    def test_no_survivors(self):
        with pytest.raises(ValidationError, match="no coder has 10"):
            ingest_ratings([("c", "t", 50.0)])

    def test_min_solutions_validated(self):
        with pytest.raises(ValidationError):
            ingest_ratings([("c", "t", 50.0)], min_solutions=0)


class TestBundledSample:
    def test_sample_parses_and_ingests(self):
        path = sample_ratings_path()
        rows = read_ratings(path)
        assert len(rows) >= 1000
        assert all(0.0 <= r <= 100.0 for _, _, r in rows)
        loaded = ingest_ratings(rows)
        assert loaded.scenario.n_agents >= 20
        assert loaded.scenario.cardinalities == (4,)
        # every kept coder really has 10+ ratings
        counts = {}
        for coder, _, _ in rows:
            counts[coder] = counts.get(coder, 0) + 1
        assert all(counts[c] >= 10 for c in loaded.agent_names)

    def test_sample_file_has_exact_header(self):
        with open(sample_ratings_path()) as fh:
            assert fh.readline().rstrip("\n") == "coder_id,task_id,rating"
