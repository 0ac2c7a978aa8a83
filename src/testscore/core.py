"""Shared domain types: discrete performance distributions, per-project
packed stores of them, scenarios, assignments, and the deterministic
sampling contract.

Agents and projects are dense integer identifiers (0..n-1 and 0..m-1);
external names are mapped at the CLI boundary. All types here are immutable
after construction, apart from caches of values derived on first use, and
safe to share across workers.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .production import ValidationError, ValueFunction

DEFAULT_BUDGET = 10_000_000

# Probability sums farther than this from 1 are rejected outright; anything
# closer is normalized (tolerates CSV rounding without accepting bad data).
PROB_SUM_SLACK = 1e-9
# Sums this close to 1 are taken as normalized and left as they are. One
# division by the sum always lands inside this band, so normalizing twice
# changes nothing.
NORMALIZED_SLACK = 2.0**-52


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation would exceed the enumeration budget."""

    def __init__(
        self, required: int, budget: int, what: str = "enumeration", shape: str = ""
    ):
        self.required = required
        self.budget = budget
        self.shape = shape  # the instance shape, e.g. "n=8, k=4, largest support 2"
        detail = f" ({shape})" if shape else ""
        super().__init__(f"{what} budget exceeded: {required} > {budget}{detail}")


def charge(work: int, budget: int, what: str, shape: str = "") -> None:
    """Refuse ``work`` past ``budget``: raise BudgetExceededError naming
    ``what`` and the instance ``shape``."""
    if work > budget:
        raise BudgetExceededError(work, budget, what, shape)


def check_index(value, n: int, what: str) -> int:
    """``value``, an int or numpy integer but no bool, as an index in range(n)."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or not 0 <= operator.index(value) < n:
        raise ValidationError(f"{what} must be an index in range({n}), got {value!r}")
    return operator.index(value)


def check_count(value, least: int, what: str, most: Optional[int] = None) -> int:
    """``value``, an int or numpy integer but no bool, as a count of at
    least ``least`` and, when given, at most ``most``."""
    count = None if isinstance(value, bool) or not hasattr(value, "__index__") else operator.index(value)
    if count is None or count < least or (most is not None and count > most):
        bounds = f"an integer >= {least}" if most is None else f"in {least}..{most}"
        raise ValidationError(f"{what} must be {bounds}, got {value!r}")
    return count


def widest_first(widths: np.ndarray, cells: int):
    """Positions of ``widths``, widest first, in blocks whose rows times
    widest, their first's width, is at most ``cells`` (a wider row alone)."""
    order, lo = np.argsort(-widths, kind="stable"), 0
    while lo < len(order):
        block = order[lo : lo + max(1, cells // int(widths[order[lo]]))]
        lo += len(block)
        yield block


def enumeration_budget() -> int:
    """Current enumeration budget (TESTSCORE_BUDGET env var, default 10^7)."""
    raw = os.environ.get("TESTSCORE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"TESTSCORE_BUDGET is not an integer: {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"TESTSCORE_BUDGET must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Distribution:
    """Finite discrete distribution over non-negative performance values.

    ``values`` are finite, strictly increasing and non-negative; ``probs``
    are positive and sum to 1. Construction sorts the atoms by value and
    normalizes the probabilities by their exact sum (``math.fsum``): a sum
    farther than ``PROB_SUM_SLACK`` (1e-9) from 1 is rejected, one within
    ``NORMALIZED_SLACK`` (2**-52) leaves the probabilities as they are,
    and any other is divided out. So ``Distribution(d.values, d.probs)``
    is ``d`` bit for bit.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValidationError("distribution needs at least one atom")
        if len(self.values) != len(self.probs):
            raise ValidationError("values and probs must have equal length")
        pairs = sorted(zip(self.values, self.probs))
        vals = tuple(float(v) for v, _ in pairs)
        prbs = [float(p) for _, p in pairs]
        # a NaN or infinite probability fails the positivity or sum check
        if not all(map(math.isfinite, vals)):
            raise ValidationError(f"support values must be finite, got {vals}")
        for a, b in zip(vals, vals[1:]):
            if a == b:
                raise ValidationError(f"duplicate support value {a}")
        if vals[0] < 0:
            raise ValidationError(f"negative support value {vals[0]}")
        for p in prbs:
            if not (p > 0):
                raise ValidationError(f"probability must be positive, got {p}")
        try:
            total = math.fsum(prbs)
        except OverflowError:  # finite probabilities summing past the float range
            total = math.inf
        if abs(total - 1.0) > PROB_SUM_SLACK:
            raise ValidationError(
                f"probabilities sum to {total}, outside 1 +/- {PROB_SUM_SLACK}"
            )
        divisor = normalizing_divisor(total)
        prbs = tuple(p / divisor for p in prbs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", prbs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "Distribution":
        pairs = list(pairs)
        return cls(tuple(v for v, _ in pairs), tuple(p for _, p in pairs))

    @classmethod
    def _trusted(cls, values, probs, cdf) -> "Distribution":
        """A distribution from arrays of atoms that already passed these
        checks, sorted and normalized as construction leaves them, and
        their ``cdf_rows``; runs no checks and keeps the arrays as its own.
        For stores, whose loader validates a whole file at once."""
        d = object.__new__(cls)
        object.__setattr__(d, "values", tuple(values.tolist()))
        object.__setattr__(d, "probs", tuple(probs.tolist()))
        d.__dict__.update(values_array=values, probs_array=probs, cdf_array=cdf)
        return d

    @classmethod
    def point(cls, value: float) -> "Distribution":
        return cls((float(value),), (1.0,))

    @cached_property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @cached_property
    def cdf_array(self) -> np.ndarray:
        return cdf_rows(self.probs_array)

    def __len__(self) -> int:
        return len(self.values)


def normalizing_divisor(total):
    """What probabilities whose exact sum is ``total`` are divided by to
    normalize them: 1.0, which leaves them as they are, when ``total`` lies
    within NORMALIZED_SLACK of 1, else ``total``. Elementwise on arrays."""
    if isinstance(total, np.ndarray):
        return np.where(np.abs(total - 1.0) <= NORMALIZED_SLACK, 1.0, total)
    return 1.0 if abs(total - 1.0) <= NORMALIZED_SLACK else total


def cdf_rows(probs) -> np.ndarray:
    """Running sums of probabilities along the last axis, the top entry
    pinned to 1 to kill accumulated rounding so the top quantile is exact.
    Row by row the same as each distribution's ``cdf_array``."""
    cdf = np.add.accumulate(probs, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def dist_mean(d: Distribution) -> float:
    """Expected value of a distribution."""
    return float(np.dot(d.values_array, d.probs_array))


@dataclass(frozen=True)
class RngSpec:
    """Deterministic sampling contract.

    ``seed`` keys a counter-based Philox generator (128-bit key built from
    seed and a stream index), so identical specs produce bit-identical
    streams on any platform and parallel shards never overlap.
    """

    seed: int

    def __post_init__(self):
        # kept as a plain int, so np.int64(3) answers as 3
        object.__setattr__(self, "seed", check_count(self.seed, 0, "seed", 2**64 - 1))

    def generator(self, stream: int = 0) -> np.random.Generator:
        stream = check_count(stream, 0, "stream", 2**64 - 1)
        return np.random.Generator(np.random.Philox(key=[self.seed, stream]))


def empirical_distribution(samples: Sequence[float]) -> Distribution:
    """Distribution whose atoms are the distinct sample values with
    probabilities equal to relative frequencies."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValidationError("empty sample set")
    values, counts = np.unique(arr, return_counts=True)
    probs = counts / arr.size
    return Distribution(tuple(values.tolist()), tuple(probs.tolist()))


class ProjectStore:
    """One project's supports, packed agent after agent.

    Agent i's atoms sit at ``offsets[i] : offsets[i] + lengths[i]`` of the
    flat ``values`` and ``probs`` arrays, sorted and normalized as
    ``Distribution`` leaves them. ``groups`` holds the agents grouped by
    support length: for each length s, in ascending order, (s, the agents,
    and their values and probabilities as (agents, s) arrays), which the
    engine's one-member sum, product and linear routes read. ``padded``
    lays some agents out for the order route, each support padded with its
    last atom and each CDF with 1.0, so a pad adds a zero-width gap, and
    ``ranked`` keeps every agent so laid out, longest support first, in
    blocks of a bounded number of cells. ``merged`` holds the store's
    unique support points (``points``) and every agent's CDF on them.

    ``take`` copies some agents into a store whose ``source`` is this one:
    it reads this store's ``atoms``, and gathers its one-member rows that
    end in a left-to-right sum (``utility._member_rows``) from this
    store's ``member_rows``, one float per agent per (value function,
    copies, budget), scored over all agents when first asked for and kept
    as long as this store. A taken store, one experiment trial's, keeps
    its source alive while it lives. The arrays are read-only; ``groups``,
    ``ranked``, ``merged``, and each agent's ``atoms`` and
    ``Distribution`` (``dist``) are cached.
    """

    def __init__(self, values: np.ndarray, probs: np.ndarray, lengths: np.ndarray, dists=None):
        self.values, self.probs, self.lengths = values, probs, lengths
        self.offsets = np.cumsum(lengths) - lengths
        for arr in (values, probs, lengths, self.offsets):
            arr.flags.writeable = False
        self._dists = list(dists) if dists is not None else [None] * len(lengths)
        self._atoms: list = [None] * len(lengths)
        self._ranked: tuple = (0, [])
        self.source: Optional[tuple[ProjectStore, np.ndarray]] = None  # (store, its agent ids) for a taken store
        self.member_rows: dict = {}

    @classmethod
    def pack(cls, dists: Sequence[Distribution]) -> "ProjectStore":
        """The store of the given distributions, one agent each; ``dist``
        returns the given objects."""
        return cls(
            np.concatenate([d.values_array for d in dists]),
            np.concatenate([d.probs_array for d in dists]),
            np.fromiter(map(len, dists), dtype=np.intp, count=len(dists)),
            dists,
        )

    @classmethod
    def concat(cls, stores: Iterable["ProjectStore"]) -> "ProjectStore":
        """One store of the given stores' agents, store after store."""
        return cls(*map(np.concatenate, zip(*((s.values, s.probs, s.lengths) for s in stores))))

    def take(self, agents: Sequence[int]) -> "ProjectStore":
        """The store of the given agents' atoms, in the given order, with
        this store as its ``source``. Each agent is an int or numpy integer
        in range(len(self)), no bool; an agent may come twice."""
        ids = np.asarray(agents)
        if ids.ndim != 1 or ids.size and (
            ids.dtype.kind not in "iu"
            or not 0 <= ids.min() <= ids.max() < len(self)
            # np.asarray reads a bool among ints as 0 or 1
            or not isinstance(agents, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, agents))
        ):
            raise ValidationError(f"agents must be indices in range({len(self)}), got {agents!r}")
        ids = ids.astype(np.intp)
        lengths = self.lengths[ids]
        atoms = np.repeat(self.offsets[ids] - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        taken = ProjectStore(self.values[atoms], self.probs[atoms], lengths)
        taken.source = (self, ids)
        return taken

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def groups(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        out = []
        # sorted in Python: np.unique would page in integer sort kernels
        # that nothing else runs
        for s in sorted(set(self.lengths.tolist())):
            agents = np.flatnonzero(self.lengths == s)
            atoms = self.offsets[agents, None] + np.arange(s)
            out.append((s, agents, self.values[atoms], self.probs[atoms]))
        return out

    def padded(self, agents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The given agents' supports, each padded to the longest of them with
        its last atom, and their CDFs (``cdf_rows``) behind a 0, padded with
        1.0, as (agents, width) and (agents, width + 1) arrays: a pad adds a
        zero-width gap."""
        lengths = self.lengths[agents]
        steps, last = np.arange(int(lengths.max())), lengths[:, None] - 1
        cells = self.offsets[agents, None] + np.minimum(steps, last)
        cdfs = np.zeros((len(lengths), len(steps) + 1))
        # each row's running sums as ``cdf_rows`` sums them, 1.0 from its last atom on
        cdfs[:, 1:] = np.where(steps >= last, 1.0, np.add.accumulate(self.probs[cells], axis=1))
        return self.values[cells], cdfs

    def ranked(self, cells: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every agent, longest support first, in blocks of at most ``cells``
        padded cells (a longer support alone), each as its agents and their
        ``padded`` arrays; kept for the last ``cells`` asked for."""
        if self._ranked[0] != cells:
            self._ranked = (cells, [(a, *self.padded(a)) for a in widest_first(self.lengths, cells)])
        return self._ranked[1]

    @cached_property
    def points(self) -> np.ndarray:
        """Every support point of the store, unique and ascending."""
        return np.unique(self.values)

    @cached_property
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """``points``, and every agent's CDF on them as an (agents, points)
        array: row i at point t is P(X_i <= t)."""
        grid, every = self.points, map(self.atoms, range(len(self)))
        return grid, np.array([cdf[values.searchsorted(grid, "right")] for values, _, cdf in every])

    def atoms(self, agent: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Agent ``agent``'s values and probabilities, as views, and its
        CDF (``cdf_rows``) behind a 0 for no atom below; cached, and for a
        taken store its source's."""
        atoms = self._atoms[agent]
        if atoms is None:
            if self.source is not None:
                source, ids = self.source
                atoms = source.atoms(ids[agent])
            else:
                span = slice(self.offsets[agent], self.offsets[agent] + self.lengths[agent])
                probs = self.probs[span]
                atoms = self.values[span], probs, np.concatenate(([0.0], cdf_rows(probs)))
            self._atoms[agent] = atoms
        return atoms

    def dist(self, agent: int) -> Distribution:
        d = self._dists[agent]
        if d is None:
            values, probs, cdf = self.atoms(agent)
            d = Distribution._trusted(values, probs, cdf[1:])
            self._dists[agent] = d
        return d


@dataclass(frozen=True)
class Scenario:
    """A team formation instance: agents x projects with per-pair performance
    distributions, one value function and one cardinality per project.

    ``dist(i, j)`` is agent i's distribution on project j, and ``store(j)``
    holds project j's supports packed (``ProjectStore``). A scenario is
    built from either:

    - ``dists``, where ``dists[i][j]`` is that Distribution object, which
      ``dist`` returns; each project's store is packed from them the first
      time it is asked for;
    - ``stores``, one per project, as the loader builds it, with ``dists``
      None; ``dist(i, j)`` builds the cell's Distribution on first use.

    Feasibility requires sum(k_j) <= n so that a full disjoint assignment
    exists.
    """

    dists: Optional[tuple[tuple[Distribution, ...], ...]]
    value_fns: tuple[ValueFunction, ...]
    cardinalities: tuple[int, ...]
    stores: Optional[tuple[ProjectStore, ...]] = field(default=None, repr=False)

    def __post_init__(self):
        if (self.dists is None) == (self.stores is None):
            raise ValidationError("a scenario needs either dists or stores")
        m = len(self.value_fns)
        if self.stores is not None and (
            len(self.stores) != m or len(set(map(len, self.stores))) != 1
        ):
            raise ValidationError("one store per project, each holding every agent, required")
        n = self.n_agents
        if n == 0:
            raise ValidationError("scenario needs at least one agent")
        if m == 0:
            raise ValidationError("scenario needs at least one project")
        if len(self.cardinalities) != m:
            raise ValidationError("one cardinality per project required")
        for i, row in enumerate(self.dists or ()):
            if len(row) != m:
                raise ValidationError(
                    f"agent {i} has {len(row)} distributions, expected {m}"
                )
            for j, d in enumerate(row):
                if not isinstance(d, Distribution):
                    raise ValidationError(f"missing distribution for pair ({i}, {j})")
        ks = tuple(check_count(k, 1, f"cardinality k_{j}") for j, k in enumerate(self.cardinalities))
        object.__setattr__(self, "cardinalities", ks)
        for j, k in enumerate(ks):
            self._check_team_size(j, k)
        if sum(self.cardinalities) > n:
            raise ValidationError(
                f"infeasible: sum of cardinalities {sum(self.cardinalities)} "
                f"exceeds agent count {n}"
            )

    def _check_team_size(self, j: int, k: int) -> None:
        """Raise unless a team of k on project j sums phi(x), x^r for ces
        and x otherwise, inside the float range, where its exact value is
        finite. Construction checks every size up to k_j; callers taking
        larger teams check theirs."""
        g = self.value_fns[j]
        if g.kind not in ("total", "ces", "top_r"):
            return
        if self.stores:
            top = float(self.stores[j].values.max())
        else:
            top = max(row[j].values[-1] for row in self.dists)
        try:
            largest = k * (top**g.r if g.kind == "ces" else top)
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            raise ValidationError(
                f"project {j}: a team of {k} at support value {top} sums past the float range"
            )

    @property
    def n_agents(self) -> int:
        return len(self.dists) if self.dists is not None else len(self.stores[0])

    @property
    def n_projects(self) -> int:
        return len(self.value_fns)

    @property
    def agents(self) -> range:
        return range(self.n_agents)

    @property
    def projects(self) -> range:
        return range(self.n_projects)

    def dist(self, agent: int, project: int) -> Distribution:
        if self.dists is not None:
            return self.dists[agent][project]
        return self.stores[project].dist(agent)

    @cached_property
    def _stores(self) -> list:
        return list(self.stores or [None] * self.n_projects)

    def store(self, project: int) -> ProjectStore:
        """Project ``project``'s packed supports."""
        if self._stores[project] is None:
            self._stores[project] = ProjectStore.pack([row[project] for row in self.dists])
        return self._stores[project]

    @cached_property
    def _class_stores(self) -> dict:
        return {}

    def class_store(self, projects: Sequence[int]) -> ProjectStore:
        """One store of a class of projects the engine scores as one block:
        their stores side by side, agent i of the c-th project at row
        c * n_agents + i, built once per tuple of projects; a class of one
        reads its project's own store."""
        if not projects[1:]:
            return self.store(projects[0])
        key = tuple(projects)
        if key not in self._class_stores:
            self._class_stores[key] = ProjectStore.concat(map(self.store, key))
        return self._class_stores[key]

    @classmethod
    def single_project(
        cls,
        dists: Sequence[Distribution],
        value_fn: ValueFunction,
        k: int,
    ) -> "Scenario":
        """One-project scenario where each agent has the given distribution."""
        return cls(
            dists=tuple((d,) for d in dists),
            value_fns=(value_fn,),
            cardinalities=(k,),
        )


@dataclass(frozen=True)
class Assignment:
    """Disjoint, ordered agent sets, one per project.

    Insertion order is preserved because sketch evaluation of a partially
    built team depends on the order agents were added.
    """

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for members in self.sets:
            for i in members:
                if i in seen:
                    raise ValidationError(f"agent {i} assigned to multiple projects")
                seen.add(i)

    def total_assigned(self) -> int:
        return sum(len(s) for s in self.sets)
