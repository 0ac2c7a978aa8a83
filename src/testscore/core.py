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
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must be a 64-bit unsigned integer")

    def generator(self, stream: int = 0) -> np.random.Generator:
        if not (0 <= int(stream) < 2**64):
            raise ValidationError("stream must be a 64-bit unsigned integer")
        return np.random.Generator(np.random.Philox(key=[int(self.seed), int(stream)]))


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
    and their values, probabilities and CDFs (``cdf_rows``) as (agents, s)
    arrays), which the engine's one-member routes read; ``padded`` holds
    the atoms padded with +inf to the longest support and the CDFs behind
    a 0 (no atom below), as (agents, width) and (agents, width + 1) arrays,
    which its team blocks read. ``take`` copies some agents into a store of
    their own. The arrays are read-only; ``groups``, ``padded``, and each
    agent's ``atoms`` and ``Distribution`` (``dist``) are cached.
    """

    def __init__(self, values: np.ndarray, probs: np.ndarray, lengths: np.ndarray, dists=None):
        self.values, self.probs, self.lengths = values, probs, lengths
        self.offsets = np.cumsum(lengths) - lengths
        for arr in (values, probs, lengths, self.offsets):
            arr.flags.writeable = False
        self._dists = list(dists) if dists is not None else [None] * len(lengths)
        self._atoms: list = [None] * len(lengths)

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
        """The store of the given agents' atoms, in the given order."""
        agents = np.asarray(agents, dtype=np.intp)
        lengths = self.lengths[agents]
        atoms = np.repeat(self.offsets[agents] - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        return ProjectStore(self.values[atoms], self.probs[atoms], lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def groups(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        out = []
        # sorted in Python: np.unique would page in integer sort kernels
        # that nothing else runs
        for s in sorted(set(self.lengths.tolist())):
            agents = np.flatnonzero(self.lengths == s)
            atoms = self.offsets[agents, None] + np.arange(s)
            probs = self.probs[atoms]
            out.append((s, agents, self.values[atoms], probs, cdf_rows(probs)))
        return out

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        atoms = np.full((len(self), int(self.lengths.max())), np.inf)
        cdfs = np.zeros((len(self), atoms.shape[1] + 1))
        for s, agents, values, _, cdf in self.groups:
            atoms[agents, :s] = values
            cdfs[agents, 1 : s + 1] = cdf
        return atoms, cdfs

    def atoms(self, agent: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Agent ``agent``'s values and probabilities, as views, and its
        CDF (``cdf_rows``) behind a 0 for no atom below; cached."""
        atoms = self._atoms[agent]
        if atoms is None:
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
        for j, (g, k) in enumerate(zip(self.value_fns, self.cardinalities)):
            if k < 1:
                raise ValidationError(f"cardinality k_{j} must be >= 1, got {k}")
            if g.kind in ("total", "ces", "top_r"):
                # a team's largest sum of phi(x), x^r for ces and x otherwise
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
        if sum(self.cardinalities) > n:
            raise ValidationError(
                f"infeasible: sum of cardinalities {sum(self.cardinalities)} "
                f"exceeds agent count {n}"
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
            cardinalities=(int(k),),
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

    def validate(self, scn: Scenario) -> None:
        if len(self.sets) != scn.n_projects:
            raise ValidationError(
                f"assignment has {len(self.sets)} sets for {scn.n_projects} projects"
            )
        for j, members in enumerate(self.sets):
            if len(members) > scn.cardinalities[j]:
                raise ValidationError(
                    f"project {j} holds {len(members)} agents, cap is "
                    f"{scn.cardinalities[j]}"
                )
            for i in members:
                if not (0 <= i < scn.n_agents):
                    raise ValidationError(f"unknown agent {i}")

    def total_assigned(self) -> int:
        return sum(len(s) for s in self.sets)
