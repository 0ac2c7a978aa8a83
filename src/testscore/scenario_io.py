"""Scenario files, value-function tags, and ratings ingestion.

A scenario file is a JSON document. Each project lists one support per
agent, in ``agents`` order, as a ``[values, probs]`` pair of equal-length
number lists:

    {"agents": ["ann", "bob"],
     "projects": [
      {"name": "api", "value_fn": "best_shot", "k": 2, "supports": [
       [[0.0, 2.0], [0.5, 0.5]],
       [[1.0], [1.0]]]}]}

``save_scenario`` writes this layout, one agent's pair per line. Every
(agent, project) pair has exactly one support and unknown fields are
rejected, so a typo fails loudly instead of silently defaulting. Files
in the older entry-list layout, with a top-level ``distributions`` list,
are refused.
"""

from __future__ import annotations

import csv
import json
import locale
import math
import os
import stat
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import numpy as np

from .core import (
    PROB_SUM_SLACK,
    Distribution,
    ProjectStore,
    Scenario,
    ValidationError,
    empirical_distribution,
    normalizing_divisor,
)
from .production import ConcaveFn, UnitFn, ValueFunction


def value_fn_tag(g: ValueFunction) -> str:
    """Stable string tag for a value function, inverse of parse_value_fn."""
    if g.kind == "total":
        assert isinstance(g.f, ConcaveFn)
        if g.f.kind == "power":
            return f"total:power:{g.f.p!r}"
        return f"total:{g.f.kind}"
    if g.kind == "best_shot":
        return "best_shot"
    if g.kind == "top_r":
        return f"top_r:{int(g.r)}"
    if g.kind == "ces":
        return f"ces:{g.r!r}"
    assert isinstance(g.f, UnitFn)
    return f"success_prob:{g.f.kind}:{g.f.param!r}"


def parse_value_fn(tag: str) -> ValueFunction:
    """Parse a value-function tag; raises ValidationError on anything else."""
    if not isinstance(tag, str):
        raise ValidationError(f"value function tag must be a string, got {tag!r}")
    parts = tag.split(":")
    try:
        if parts[0] == "total" and len(parts) == 2 and parts[1] in ("identity", "sqrt", "log1p"):
            return ValueFunction.total(ConcaveFn(parts[1]))
        if parts[0] == "total" and len(parts) == 3 and parts[1] == "power":
            return ValueFunction.total(ConcaveFn("power", float(parts[2])))
        if tag == "best_shot":
            return ValueFunction.best_shot()
        if parts[0] == "top_r" and len(parts) == 2:
            return ValueFunction.top_r(int(parts[1]))
        if parts[0] == "ces" and len(parts) == 2:
            return ValueFunction.ces(float(parts[1]))
        if parts[0] == "success_prob" and len(parts) == 3 and parts[1] in ("clamp_linear", "one_minus_exp"):
            return ValueFunction.success_prob(UnitFn(parts[1], float(parts[2])))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad value function tag {tag!r}: {exc}") from exc
    raise ValidationError(f"unknown value function tag {tag!r}")


@dataclass(frozen=True)
class LoadedScenario:
    scenario: Scenario
    agent_names: tuple[str, ...]
    project_names: tuple[str, ...]

    def project_index(self, name: str) -> int:
        try:
            return self.project_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown project {name!r}") from None


def scenario_to_dict(
    scn: Scenario,
    agent_names: Optional[Iterable[str]] = None,
    project_names: Optional[Iterable[str]] = None,
) -> dict:
    """The scenario as a columnar document, read from its project stores."""
    agents = list(agent_names) if agent_names is not None else [f"a{i}" for i in scn.agents]
    projects = list(project_names) if project_names is not None else [f"p{j}" for j in scn.projects]
    if len(agents) != scn.n_agents or len(projects) != scn.n_projects:
        raise ValidationError("name lists must match the scenario shape")
    entries = []
    for j in scn.projects:
        store = scn.store(j)
        values, probs = store.values.tolist(), store.probs.tolist()
        spans = zip(store.offsets.tolist(), (store.offsets + store.lengths).tolist())
        entries.append(
            {
                "name": projects[j],
                "value_fn": value_fn_tag(scn.value_fns[j]),
                "k": scn.cardinalities[j],
                "supports": [[values[a:b], probs[a:b]] for a, b in spans],
            }
        )
    return {"agents": agents, "projects": entries}


# exact types of decoded JSON numbers; true and false decode to bool
_JSON_NUMBERS = {int, float}


def _require_keys(obj: dict, keys: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object")
    extra = set(obj) - keys
    if extra:
        raise ValidationError(f"unknown fields in {what}: {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise ValidationError(f"missing fields in {what}: {sorted(missing)}")


def _number_lists(cell: list) -> bool:
    return (
        type(cell) is list and len(cell) == 2 and set(map(type, cell)) <= {list}
        and len(cell[0]) == len(cell[1]) and set(map(type, chain(*cell))) <= _JSON_NUMBERS
    )


def _columnar_atoms(projects: list, agents: list, names: list) -> tuple:
    """The file's atoms as ``_stores`` takes them, after the structure
    checks: one support per agent in each project, each a [values, probs]
    pair of equal-length number lists."""
    n = len(agents)
    cells = []
    for entry in projects:
        supports = entry["supports"]
        if type(supports) is not list:
            raise ValidationError(f"supports of project {entry['name']!r} must be a list")
        if len(supports) < n:
            raise ValidationError(
                f"missing distribution for agent {agents[len(supports)]!r}, project {entry['name']!r}"
            )
        if len(supports) > n:
            raise ValidationError(
                f"project {entry['name']!r} has {len(supports)} supports for {n} agents"
            )
        cells += supports

    def where(c: int) -> str:
        return f"agent {agents[c % n]!r}, project {names[c // n]!r}"

    shaped = set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}
    if shaped:
        value_lists, prob_lists = [cell[0] for cell in cells], [cell[1] for cell in cells]
        shaped = set(map(type, value_lists)) | set(map(type, prob_lists)) <= {list}
    if shaped:
        lengths = list(map(len, value_lists))
        shaped = (
            lengths == list(map(len, prob_lists))
            and set(map(type, chain.from_iterable(value_lists))) <= _JSON_NUMBERS
            and set(map(type, chain.from_iterable(prob_lists))) <= _JSON_NUMBERS
        )
    if not shaped:
        c = next(c for c, cell in enumerate(cells) if not _number_lists(cell))
        raise ValidationError(
            f"support for {where(c)} must be a [values, probs] pair of equal-length number lists"
        )

    def first_invalid(bad) -> None:
        for c in bad:
            try:
                Distribution.from_pairs((float(v), float(p)) for v, p in zip(*cells[c]))
            except (ValidationError, OverflowError) as exc:
                raise ValidationError(f"distribution for {where(c)}: {exc}") from None
        raise AssertionError("the file-wide checks rejected a distribution Distribution accepts")

    total = sum(lengths)
    try:
        values = np.fromiter(chain.from_iterable(value_lists), dtype=float, count=total)
        probs = np.fromiter(chain.from_iterable(prob_lists), dtype=float, count=total)
    except OverflowError:  # an integer past the float range
        first_invalid(range(len(cells)))
    return values, probs, np.array(lengths, dtype=np.intp), first_invalid


def _stores(n: int, values, probs, lengths, first_invalid) -> tuple[ProjectStore, ...]:
    """Every cell's support validated and normalized in one pass over the
    file's atoms, with the rules and results of ``Distribution``, and
    packed into one store per project. The cells come project after
    project, each project's agent after agent: ``values`` and ``probs``
    hold their atoms flat and ``lengths`` their support sizes. If any cell
    is invalid, ``first_invalid`` raises, given the invalid cells, the
    error of the first one in file order, naming its pair."""
    stops = np.cumsum(lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    # sorted by value within each cell, as construction sorts the pairs,
    # unless already strictly rising, as ``save_scenario`` writes them
    if not ((owner[1:] != owner[:-1]) | (values[1:] > values[:-1])).all():
        perm = np.lexsort((probs, values, owner))
        values, probs = values[perm], probs[perm]
    bad_atom = ~(np.isfinite(values) & (values >= 0) & (probs > 0))
    bad = np.zeros(len(lengths), dtype=bool)
    bad[owner[bad_atom]] = True
    bad[owner[1:][(owner[1:] == owner[:-1]) & ~(values[1:] > values[:-1])]] = True
    bad |= lengths == 0
    # exact sums over the atoms that passed; a probability past 2 fails the
    # sum anyway, and capping it keeps fsum within range. bincount adds in
    # atom order, and a sum of one or two atoms rounds at most once, as
    # fsum's does, so only longer cells need fsum
    kept = np.where(bad_atom, 0.0, np.minimum(probs, 2.0))
    totals = np.bincount(owner, weights=kept, minlength=len(lengths))
    long = np.flatnonzero(lengths > 2)
    if len(long):
        flat = kept.tolist()
        spans = zip((stops[long] - lengths[long]).tolist(), stops[long].tolist())
        totals[long] = [math.fsum(flat[a:b]) for a, b in spans]
    bad |= np.abs(totals - 1.0) > PROB_SUM_SLACK
    if bad.any():
        first_invalid(np.flatnonzero(bad).tolist())
    probs = probs / np.repeat(normalizing_divisor(totals), lengths)
    edges = [0] + stops[n - 1 :: n].tolist()  # where each project's atoms start
    return tuple(
        ProjectStore(values[a:b], probs[a:b], lengths[j * n : (j + 1) * n])
        for j, (a, b) in enumerate(zip(edges, edges[1:]))
    )


def scenario_from_dict(doc: dict) -> LoadedScenario:
    """Validate a scenario document: its structure first (fields, names,
    and ``_columnar_atoms``), then all support numbers in one array pass
    that validates and normalizes them and packs them into per-project
    stores (``_stores``), building no per-cell Distribution. A document
    with a top-level ``distributions`` list is refused before any other
    check."""
    if isinstance(doc, dict) and "distributions" in doc:
        raise ValidationError(
            'the entry-list layout (a top-level "distributions" list) is no longer read; '
            'give each project its "supports", as save_scenario writes them'
        )
    _require_keys(doc, {"agents", "projects"}, "scenario document")
    agents = doc["agents"]
    if not isinstance(agents, list) or not agents or not all(isinstance(a, str) for a in agents):
        raise ValidationError("agents must be a non-empty list of names")
    if len(set(agents)) != len(agents):
        raise ValidationError("duplicate agent names")
    projects = doc["projects"]
    if not isinstance(projects, list) or not projects:
        raise ValidationError("projects must be a non-empty list")
    names, fns, ks = [], [], []
    for entry in projects:
        _require_keys(entry, {"name", "value_fn", "k", "supports"}, "project entry")
        if not isinstance(entry["name"], str):
            raise ValidationError("project name must be a string")
        if not isinstance(entry["k"], int) or isinstance(entry["k"], bool):
            raise ValidationError(f"project {entry['name']!r}: k must be an integer")
        names.append(entry["name"])
        fns.append(parse_value_fn(entry["value_fn"]))
        ks.append(entry["k"])
    if len(set(names)) != len(names):
        raise ValidationError("duplicate project names")
    scn = Scenario(
        dists=None,
        value_fns=tuple(fns),
        cardinalities=tuple(ks),
        stores=_stores(len(agents), *_columnar_atoms(projects, agents, names)),
    )
    return LoadedScenario(scn, tuple(agents), tuple(names))


def save_scenario(
    out: Union[str, Path, IO[str]],
    scn: Scenario,
    agent_names: Optional[Iterable[str]] = None,
    project_names: Optional[Iterable[str]] = None,
) -> None:
    """Write the scenario's columnar document, one agent's [values, probs]
    pair per line."""
    doc = scenario_to_dict(scn, agent_names, project_names)
    parts = []
    for entry in doc["projects"]:
        # numbers hold no brackets, so "]], [[" only ever parts two agents
        rows = json.dumps(entry.pop("supports")).replace("]], [[", "]],\n   [[")
        parts.append(f'  {json.dumps(entry)[:-1]}, "supports": [\n   {rows[1:]}}}')
    text = f'{{"agents": {json.dumps(doc["agents"])},\n "projects": [\n' + ",\n".join(parts) + "]}\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        write_text(out, text)


def write_text(out: Union[str, Path], text: str) -> None:
    """Write ``text`` to the file ``out``, in the encoding ``open`` uses,
    as ``open(out, "w").write(text)`` would leave it, rewriting it in place.

    The file is opened without ``O_TRUNC``, written from its first byte,
    and only then cut to the written length. Truncating a file to zero on
    ext4 (``auto_da_alloc``, its default) makes the following ``close``
    allocate the new blocks and start their writeback inside the call, so
    every rewrite of a report would wait on the disk; cutting it to a
    length that is not zero does not. A target that is not a regular
    file, such as ``/dev/null`` or a FIFO, is written and never
    truncated, as ``open`` treats it. The mode (0o666 under the umask),
    symlink following and each ``OSError`` stay as ``open`` has them.

    The text is encoded before the file is opened, so an encoding error
    leaves the file as it was; a write that raises ``OSError`` cuts a
    regular file to zero before the error propagates. Either way no mix of
    old and new bytes is left. Neither this nor ``open`` fsyncs: after a
    crash soon after a rewrite the old contents may remain, where with
    ``open`` an empty file could.
    """
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
        except OSError:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def load_scenario(src: Union[str, Path, IO[str]]) -> LoadedScenario:
    if hasattr(src, "read"):
        text = src.read()
    else:
        text = Path(src).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid scenario JSON: {exc}") from exc
    return scenario_from_dict(doc)


RATINGS_HEADER = ("coder_id", "task_id", "rating")


def read_ratings(src: Union[str, Path, IO[str]]) -> list[tuple[str, str, float]]:
    """Parse a ratings CSV (header coder_id,task_id,rating; rating in
    [0, 100]). Errors carry 1-based row numbers."""
    if hasattr(src, "read"):
        rows = list(csv.reader(src))
    else:
        with open(src, newline="") as fh:
            rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError("ratings file is empty")
    if tuple(rows[0]) != RATINGS_HEADER:
        raise ValidationError(
            f"row 1: expected header {','.join(RATINGS_HEADER)!r}, got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise ValidationError("ratings file has a header but no rows")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ValidationError(f"row {lineno}: expected 3 fields, got {len(row)}")
        coder, task, raw = row
        if not coder or not task:
            raise ValidationError(f"row {lineno}: empty coder_id or task_id")
        try:
            rating = float(raw)
        except ValueError:
            raise ValidationError(f"row {lineno}: rating {raw!r} is not a number") from None
        if not (0.0 <= rating <= 100.0):
            raise ValidationError(f"row {lineno}: rating {rating} outside [0, 100]")
        out.append((coder, task, rating))
    return out


def ingest_ratings(
    rows: Iterable[tuple[str, str, float]], min_solutions: int = 10
) -> LoadedScenario:
    """Empirical per-coder distributions from rating rows, keeping coders
    with at least min_solutions ratings, as a one-project best-shot
    scenario (k = min(4, number of coders))."""
    if min_solutions < 1:
        raise ValidationError(f"min_solutions must be >= 1, got {min_solutions}")
    by_coder: dict[str, list[float]] = {}
    for coder, _task, rating in rows:
        by_coder.setdefault(coder, []).append(rating)
    kept = sorted(c for c, vals in by_coder.items() if len(vals) >= min_solutions)
    if not kept:
        raise ValidationError(
            f"no coder has {min_solutions}+ rated solutions ({len(by_coder)} coders seen)"
        )
    dists = [empirical_distribution(by_coder[c]) for c in kept]
    scn = Scenario.single_project(
        dists, ValueFunction.best_shot(), k=min(4, len(kept))
    )
    return LoadedScenario(scn, tuple(kept), ("p0",))
