"""Expected team utility u_j(S) = E[g_j(performances of S)].

One exact engine, ``_exact_rows``, computes E[g] over independent copies
of agents of one project's packed store (``core.ProjectStore``), each
member's atoms read as views of the store's arrays, for a block of rows
of agent ids: a team is a row with one copy per member, a replication
score a^r a one-agent row with r copies. It never enumerates the outcome
product: ``total`` and ``ces`` build the distribution of the sum of
phi(x_i) member by member (``_sum_rows``), ``best_shot`` and ``top_r``
count the members above each support point (``_top_w``), and linear
``total``/``ces`` and ``success_prob`` read per-agent means and hit
probabilities (``_means``). A block of one row runs on its own sorted
atoms; larger blocks give each best-shot or top-r row its own grid of its
members' padded atoms (``ProjectStore.padded``, ``_own_grid_rows``), or
pad the non-linear sum-route rows to the longest support at each member
position. The one other entry, ``_member_rows``, scores a score table's
one-member columns, best-shot and top-r ones on the store's padded blocks,
longest support first (``ProjectStore.ranked``). Each of these rows ends
in a left-to-right sum, over its own grid's gaps (``_top_w``) or its cells
(``_sum_cells``), to which a pad adds +-0.0, so it keeps its bits in any
block and under any BLAS kernel. So a store taken from a larger one
(``ProjectStore.take``, an experiment trial's coders) gathers those rows
from its source, which scores them over all of its agents once and keeps
them, and reads its source's atoms. Only the single-project oracle's
screen on the store's merged grid (``ProjectStore.merged``, built once
for every team size; ``_merged_rows``) ends in a matrix product.
Monte Carlo (``_mc``) covers work past the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Optional

import numpy as np

from .core import (
    BudgetExceededError,
    ProjectStore,
    RngSpec,
    Scenario,
    ValidationError,
    charge,
    check_count,
    check_index,
    enumeration_budget,
    widest_first,
)
from .production import ValueFunction, evaluate, evaluate_batch

_MERGE = 1 << 12  # partial-sum atoms past which equal sums are merged
_BLOCK = 1 << 16  # team-by-grid cells the order route scores per array pass
_TABLE = 1 << 14  # cells of a subset table ``_lex_table`` builds; ids fit int8
SUBMODULARITY_TOL = 1e-9

@dataclass(frozen=True)
class UtilityEstimate:
    value: float
    method: str  # exact | exact_best_shot | monte_carlo
    samples: int = 0
    std_error: float = 0.0

    def __post_init__(self):
        # Monte Carlo on deterministic inputs legitimately reports zero
        # spread, so only the exact methods are pinned to std_error 0.
        if self.method in ("exact", "exact_best_shot") and self.std_error != 0.0:
            raise ValidationError("std_error must be 0 exactly for exact methods")


def _linear(g: ValueFunction) -> bool:
    # total:identity, total:power:1 and ces:1 are the sum itself
    if g.kind == "ces":
        return g.r == 1.0
    return g.kind == "total" and (
        g.f.kind == "identity" or (g.f.kind == "power" and g.f.p == 1.0)
    )


def _sum_rows(g: ValueFunction, store: ProjectStore, rows: np.ndarray, budget: int) -> np.ndarray:
    """E[h(sum phi(x))] on the non-linear ``total``/``ces`` route for each
    row of ``rows``, a (B, K) array of the store's agent ids, K >= 1: a
    team, or r copies of one agent for a replication score. Each row is
    priced as its own call, each member of s > 1 atoms at the partial-sum
    atoms it is added to times s, and the first row past the budget, in
    the given order, raises its own BudgetExceededError.

    A lone row, and a row whose partial sums pass _MERGE atoms, runs on
    its own atoms (``_lone_row``); the others run in blocks of at most
    _BLOCK padded cells (``_padded_rows``). Either way a row ends in the
    left-to-right sum of h(sum + shift) * p over its cells in member
    order (``_sum_cells``), to which a padded cell adds +0.0, so a row's
    value depends neither on its block nor on the BLAS kernel."""
    if len(rows) == 1:
        return np.array([_lone_row(g, store, rows[0].tolist(), budget)])
    lengths = store.lengths[rows]
    out, batch = np.empty(len(rows)), np.arange(len(rows))
    cap = math.prod(lengths.max(axis=0).tolist())  # bounds every row's partial-sum atoms
    if cap > _MERGE or cap * rows.shape[1] > budget:  # some row may merge or pass the budget
        # each row's partial-sum atoms after each member (in floats: only
        # rows that stay under _MERGE need them exact), and its work so far
        atoms = np.cumprod(lengths, axis=1, dtype=float)
        work = np.cumsum(np.where(lengths > 1, atoms, 0.0), axis=1)
        alone = atoms[:, -1] > _MERGE
        over = np.flatnonzero(~alone & (work[:, -1] > budget))
        first = int(over[0]) if len(over) else len(rows)
        # the merging rows ahead of the first batch row past the budget
        # charge as they go
        for i in np.flatnonzero(alone[:first]).tolist():
            out[i] = _lone_row(g, store, rows[i].tolist(), budget)
        if first < len(rows):
            steps = work[first]
            charge(int(steps[steps > budget][0]), budget, "exact expectation")
        batch = batch[~alone]
        cap = math.prod(lengths[batch].max(axis=0, initial=1).tolist())
    per = max(1, _BLOCK // cap)  # rows per block: no block pads past _BLOCK cells
    for lo in range(0, len(batch), per):
        block = batch[lo : lo + per]
        out[block] = _padded_rows(g, store, rows[block], lengths[block])
    return out


def _padded_rows(g: ValueFunction, store: ProjectStore, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    # one block of ``_sum_rows``: each member position padded to the
    # longest support at it with atoms of term 0.0 and probability 0.0,
    # and a point mass's term moved into its row's shift, leaving 0.0
    # with probability 1.0; a position of point masses alone adds nothing
    width = lengths.max(axis=0).tolist()
    steps = np.arange(max(width))
    cells = store.offsets[rows][:, :, None] + steps
    pad = steps >= lengths[:, :, None]
    terms = _phi(g, store.values.take(cells, mode="clip"))
    probs = store.probs.take(cells, mode="clip")
    terms[pad], probs[pad] = 0.0, 0.0
    shift = None
    if lengths.min() == 1:
        point = lengths == 1
        shift = np.add.accumulate(np.where(point, terms[:, :, 0], 0.0), axis=1)[:, -1:]
        terms[:, :, 0][point], probs[:, :, 0][point] = 0.0, 1.0
    members = [(terms[:, c, :w], probs[:, c, :w]) for c, w in enumerate(width) if w > 1]
    return _sum_cells(g, members or [(terms[:, 0, :1], probs[:, 0, :1])], shift)


def _lone_row(g: ValueFunction, store: ProjectStore, row, budget: int) -> float:
    # one row of ``_sum_rows`` on its own atoms, a point mass's term moved
    # into the shift, charged step by step, with equal partial sums merged
    # once they pass _MERGE atoms
    shift, sums, probs, work = 0.0, np.zeros(1), np.ones(1), 0
    for a in row:
        values, weights, _ = store.atoms(a)
        terms = _phi(g, values)
        if len(values) == 1:
            shift += float(terms[0])
            continue
        work += len(sums) * len(values)
        charge(work, budget, "exact expectation")
        sums = np.add.outer(sums, terms).ravel()
        probs = np.multiply.outer(probs, weights).ravel()
        if len(sums) > _MERGE:
            sums, inverse = np.unique(sums, return_inverse=True)
            probs = np.bincount(inverse, weights=probs)
    return float(_sum_cells(g, [(sums[None], probs[None])], shift)[0])


def _sum_cells(g: ValueFunction, members, shift=None) -> np.ndarray:
    """Each row's sum of h(sum + shift) * p over the outer product of its
    members' cells. ``members`` holds one or more (terms, probs) pairs of
    (B, w) arrays, stepped in member by member onto a sum of 0.0 and a
    probability of 1.0; ``shift``, if given, broadcasts to (B, 1). The sum
    over a row's cells runs left to right, so a cell of probability 0.0
    adds +0.0 (h is finite and non-negative) and changes no bit."""
    (terms, weights), *rest = members
    sums = terms + 0.0  # as 0.0 + terms: -0.0 becomes 0.0
    for terms, probs in rest:
        sums = (sums[:, :, None] + terms[:, None, :]).reshape(len(sums), -1)
        weights = (weights[:, :, None] * probs[:, None, :]).reshape(len(sums), -1)
    if shift is not None:
        sums += shift
    return np.add.accumulate(_h(g, sums) * weights, axis=1)[:, -1]


def _phi(g: ValueFunction, x):
    # the sum route's per-member term: x itself for total, x^r for ces
    return x if g.kind == "total" else x**g.r


def _h(g: ValueFunction, sums: np.ndarray) -> np.ndarray:
    # the sum route's outer map: f of the sum for total, its 1/r-th power for ces
    return g.f.apply(sums) if g.kind == "total" else sums ** (1.0 / g.r)


def _means(store: ProjectStore, agents, f) -> np.ndarray:
    # each agent's E[f(x)], np.dot over its own atoms: f is phi, whose mean
    # on linear total/ces is the agent's mean (phi(x) is x or x**1.0, the
    # same bits), or success_prob's unit function, for its hit probability
    return np.array([np.dot(f(values), probs) for values, probs, _ in map(store.atoms, agents)])


def _batchable(g: ValueFunction, size: int, copies: int, budget: int) -> bool:
    """Whether ``copies`` copies of one member with ``size`` atoms can be
    scored as a row of a one-member batch: its own work fits the budget
    and, on the sum route, its partial sums never reach the merge of equal
    sums, which a batch does not do. Monotone in ``size``."""
    merges = g.kind in ("total", "ces") and not _linear(g) and size**copies > _MERGE
    return not merges and _row_work(g, size, 1, copies) <= budget


def _member_rows(
    g: ValueFunction, store: ProjectStore, copies: int, budget: int, out=None
) -> np.ndarray:
    """E[g] over ``copies`` independent copies of each agent of ``store``
    alone, written to ``out`` (by default a new array of NaNs, one entry
    per agent) at the agent's index, and returned: best-shot and top-r
    agents on the store's padded blocks of at most _BLOCK cells, longest
    support first (``ProjectStore.ranked``), the others on its length
    groups, each row with its own dot products or left-to-right sum, so
    each equals ``_exact_rows`` on the agent alone bit for bit. Rows that
    are not ``_batchable`` under the budget are never scored, their
    entries left as they are, so a block as a whole needs no metering.

    A taken store (``ProjectStore.take``) gathers the rows that end in a
    left-to-right sum from its source's ``member_rows``: the first store
    taken pays one row pass over all of the source's agents per column,
    the table work ``select`` and ``assign`` do on the source's file.
    Linear and success-probability rows end in ``_row_dots``, whose
    rounding may follow the batch shape, and are scored on the store
    itself."""
    out = np.full(len(store), np.nan) if out is None else out
    if store.source is not None and not (_linear(g) or g.kind == "success_prob"):
        source, ids = store.source
        kept = source.member_rows
        key = (g, copies, budget)
        if key not in kept:
            kept[key] = _member_rows(g, source, copies, budget)
        rows = kept[key][ids]
        np.copyto(out, rows, where=rows == rows)  # the source's unscored rows are NaN
        return out
    if g.kind in ("best_shot", "top_r"):  # _batchable is the row's work within the budget
        for agents, atoms, cdfs in store.ranked(_BLOCK):
            # longest first, so the rows past the budget lead, and the others
            # need no more columns than the first of them has atoms
            lo = int((_row_work(g, store.lengths[agents], 1, copies) > budget).sum())
            if lo < len(agents):
                width = store.lengths[agents[lo]]
                out[agents[lo:]] = _top_w(g, atoms[lo:, :width], cdfs[None, lo:, 1 : width + 1], copies)
        return out
    for s, agents, values, probs in store.groups:
        if not _batchable(g, s, copies, budget):
            continue
        if g.kind == "success_prob":
            out[agents] = 1.0 - _product((1.0 - _row_dots(g.f.apply(values), probs))[None], copies)
        elif _linear(g):
            out[agents] = copies * _row_dots(values, probs)
        else:
            # the r copies of each agent as r members; a point mass's
            # copies, its only terms, sum from 0.0 to the shift
            # ``_padded_rows`` would move them into, bit for bit
            member = (_phi(g, values), probs)
            out[agents] = _sum_cells(g, [member] * copies)
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # each row's dot product, rounded as np.dot of the two rows would be
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_sums(values: np.ndarray, teams: np.ndarray) -> np.ndarray:
    # values summed over each row of teams member by member, in place, so
    # no (rows, k) array of values is built
    out = values[teams[:, 0]]
    for c in range(1, teams.shape[1]):
        out += values[teams[:, c]]
    return out


@lru_cache(maxsize=64)  # at most 64 * _TABLE bytes, 1 MB, kept
def _lex_table(m: int, c: int) -> np.ndarray:
    """The c-subsets of range(m), 1 < c < m, in lexicographic order,
    read-only, in the smallest integer type that holds m, built a column
    at a time from the last: the j-subsets of range(c - j, m) that start
    with a are a followed by the (j - 1)-subsets that start past a, a
    suffix of the previous table. Callers ask for at most _TABLE cells."""
    dtype = np.min_scalar_type(-m)
    table = np.arange(c - 1, m, dtype=dtype)[:, None]
    for j in range(2, c + 1):
        first = np.arange(c - j, m - j + 1, dtype=dtype)
        starts = np.searchsorted(table[:, 0], first, side="right")
        counts = len(table) - starts
        ends = np.cumsum(counts)
        wider = np.empty((ends[-1], j), dtype)
        wider[:, 0] = np.repeat(first, counts)
        wider[:, 1:] = table[np.arange(ends[-1]) + np.repeat(starts + counts - ends, counts)]
        table = wider
    table.flags.writeable = False
    return table


def _team_blocks(n: int, k: int, rows: int = 0, dtype=None):
    """The k-subsets of range(n) in lexicographic order, in blocks of
    exactly ``rows`` teams (default _BLOCK // k; the last one fewer) typed
    ``dtype`` (default: the smallest that holds n). Prefixes are split
    until the suffix is a range or a cached ``_lex_table`` of at most
    _TABLE cells, and each block is filled with prefixes next to suffixes;
    the last first elements of a split share one such table."""
    rows, total = rows or max(1, _BLOCK // max(k, 1)), math.comb(n, k)
    dtype = np.min_scalar_type(-n) if dtype is None else dtype
    block, at = np.empty((min(rows, total), k), dtype), 0  # filled up to at
    stack = [((), 0)] if total else []  # (prefix, lo): next to subsets of range(lo, n)
    while stack:
        prefix, lo = stack.pop()
        c = k - len(prefix)
        if c > 1 and math.comb(n - lo, c) > max(1, _TABLE // c):
            # each first element a below the tail that fits in one table leads a prefix
            tail = next(a for a in range(lo + 1, n) if math.comb(n - a, c) <= max(1, _TABLE // c))
            stack += [(prefix, tail)] + [(prefix + (a,), a + 1) for a in range(tail - 1, lo - 1, -1)]
            continue
        if 1 < c < n - lo:
            suffix, shift = _lex_table(n - lo, c), lo
        else:  # one column, or one row (for k = 0 the empty team)
            suffix, shift = np.arange(lo, n)[:, None] if c == 1 else np.arange(lo, lo + c)[None], 0
        done = 0
        while done < len(suffix):
            take = min(len(suffix) - done, len(block) - at)
            part = block[at : at + take]
            part[:, len(prefix) :] = suffix[done : done + take]
            if prefix:
                part[:, : len(prefix)] = prefix
            if shift:  # in the block's type, which holds n
                part[:, len(prefix) :] += shift
            done, at, total = done + take, at + take, total - take
            if at == len(block):
                yield block
                block, at = np.empty((min(rows, total), k), dtype), 0


def _subsets(n: int, k: int, colex: bool = False, dtype=np.intp) -> np.ndarray:
    """The k-subsets of range(n), one ascending row each, in lexicographic
    order, or in colex order: by largest element first, which is the
    order of their bitmasks and of the colex rank sum_i C(a_i, i + 1)
    over the ascending a_i (the lexicographic subsets with each a mapped
    to n - 1 - a, reversed both ways); ``_team_blocks`` fills them as one
    block."""
    rows = next(_team_blocks(n, k, max(1, math.comb(n, k)), dtype), np.empty((0, k), dtype))
    if colex:
        np.subtract(n - 1, rows, out=rows)
        return rows[::-1, ::-1]
    return rows


def _row_work(g: ValueFunction, grid, k: int, copies: int):
    """One team row's charge, on every route: grid points times members
    (best shot), times tracked counts and copies as well (top-r), support
    atoms plus members (success probability, where ``grid`` is the team's
    summed support), the summed support once (linear ``total``/``ces``,
    whose means suffice), or, for one member of ``grid`` atoms on the
    other sum-route variants, partial-sum atoms times support over the
    steps, grid + grid^2 + ... + grid^copies (nothing for a point mass,
    which only shifts the sum). Linear in ``grid``, which may then be an
    array of per-row sizes, except on that last form."""
    if g.kind in ("total", "ces"):
        if _linear(g):
            return grid
        return 0 if grid == 1 else sum(grid**c for c in range(1, copies + 1))
    if g.kind == "success_prob":
        return grid + k
    w = 1 if g.kind == "best_shot" else min(int(g.r), k * copies) * copies
    return grid * k * w


def _product(cols: np.ndarray, copies: int) -> np.ndarray:
    # product over the members axis in member order, then over the copies
    prod = cols[0]
    for c in range(1, len(cols)):
        prod = prod * cols[c]
    return prod**copies if copies > 1 else prod


def _top_w(g: ValueFunction, grid: np.ndarray, cols: np.ndarray, copies: int) -> np.ndarray:
    # E[sum of the w largest] = integral over t of E[min(w, N(t))], where
    # N(t) = #{copies > t} is constant between grid points. The grid is
    # (rows, L), one per row, or (L,), a merged grid shared by every row;
    # cols (k, rows, L) holds the members' CDFs on it.
    w = 1 if g.kind == "best_shot" else min(int(g.r), len(cols) * copies)
    if g.kind == "best_shot":  # N(t) = 0 exactly when every copy is <= t
        above = 1.0 - _product(cols, copies)
    else:
        # Poisson-binomial DP: rows 1..w of pq hold P(N(t) = c), c < w
        pq = np.zeros((w + 1,) + cols.shape[1:])
        pq[1] = 1.0
        q = pq[1:]
        for miss in 1.0 - cols:
            for _ in range(copies):
                q += (pq[:-1] - q) * miss
        # E[min(w, N)] = w - sum over c < w of (w - c) P(N = c), left to right
        above = w - sum((w - c) * q[c] for c in range(w))
    if grid.ndim == 1:  # a screen's merged grid: one matrix product
        return w * grid[0] + above[:, :-1] @ (grid[1:] - grid[:-1])
    # below the smallest grid point every copy counts; then each gap, left
    # to right, so a zero-width gap adds +-0.0 and changes no bit of a row.
    # The gaps are taken flat, across row ends too, whose terms the first
    # column then overwrites: slices of narrow rows are slow
    flat, terms = grid.ravel(), np.empty(grid.shape)
    terms.ravel()[1:] = above.ravel()[:-1] * (flat[1:] - flat[:-1])
    terms[:, 0] = w * grid[:, 0]
    return np.add.accumulate(terms, axis=1)[:, -1]


def _order_route(g: ValueFunction, store: ProjectStore, agents, copies: int) -> np.ndarray:
    # the one team of all ``agents`` on its own sorted atoms (repeated
    # points add zero-width gaps); callers have priced the work
    members = [store.atoms(a) for a in agents]
    grid = np.sort(np.concatenate([values for values, _, _ in members]))
    F = np.array([cdf[values.searchsorted(grid, "right")] for values, _, cdf in members])
    return _top_w(g, grid[None], F[:, None], copies)


def _merged_rows(g: ValueFunction, store: ProjectStore, teams: np.ndarray) -> np.ndarray:
    # each team, a row of the store's agent ids, gathers its members' rows of
    # the store's CDF matrix on its merged grid (``ProjectStore.merged``), in
    # blocks of at most _BLOCK grid cells, each ending in one matrix product;
    # the single-project oracle screens on these and rescores what it keeps
    grid, F = store.merged
    rows = max(1, _BLOCK // len(grid))
    parts = [_top_w(g, grid, F.take(teams[lo : lo + rows].T, axis=0), 1) for lo in range(0, len(teams), rows)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _own_grid_rows(g: ValueFunction, store: ProjectStore, teams: np.ndarray, copies: int) -> np.ndarray:
    # the order route with each team, a row of agents, on its own grid: its
    # members' atoms padded to the block's longest support and sorted, in
    # blocks of at most _BLOCK grid cells, the teams with the longest member
    # support first (``widest_first``). A member's CDF is read at its
    # running count of atoms: only the last of equal points has counted
    # them all, and the others, as pads, end zero-width gaps.
    k = teams.shape[1]
    out = np.empty(len(teams))
    for block in widest_first(k * store.lengths[teams].max(axis=1), _BLOCK):
        members = teams[block]
        atoms, cdfs = store.padded(members.ravel())  # team i's member m at row i * k + m
        width, rows = atoms.shape[1], np.arange(0, len(atoms), k)[:, None]
        padded = atoms.reshape(len(members), k * width)
        order = np.argsort(padded, axis=1, kind="stable")
        owner = order // width  # the member each sorted atom belongs to
        cols = np.empty((k,) + padded.shape)
        for m in range(k):
            cols[m] = cdfs[rows + m, np.cumsum(owner == m, axis=1)]
        out[block] = _top_w(g, np.take_along_axis(padded, order, axis=1), cols, copies)
    return out


def _exact_rows(
    g: ValueFunction, store: ProjectStore, rows: np.ndarray, copies: int, budget: int
) -> np.ndarray:
    """Exact E[g] over ``copies`` independent copies of each member of each
    row of ``rows``, a (B, k) array of the store's agent ids: a team, one
    copy per member, or one agent with r copies for a replication score.
    Each row is priced as its own call (``_sum_rows``, ``_row_work``), and
    the first row past the budget, in the given order, raises its own
    BudgetExceededError. A block of one row runs on its own sorted atoms;
    a larger block gives each row its own padded grid (``_own_grid_rows``)
    or pads its sum-route rows, and a row equals a block of one bit for bit."""
    if rows.size == 0:
        return np.zeros(len(rows))  # g(0, ..., 0) = 0 across the catalogue
    if g.kind in ("total", "ces") and not _linear(g):
        return _sum_rows(g, store, np.repeat(rows, copies, axis=1), budget)
    k, lone = rows.shape[1], len(rows) == 1
    if lone:  # row 0 of its own members' atoms alone, priced in Python ints
        agents, teams = rows[0].tolist(), np.arange(k)[None]
        work = _row_work(g, sum(len(store.atoms(a)[0]) for a in agents), k, copies)
        charge(work, budget, "exact expectation")
    else:
        agents, teams = range(len(store)), rows
        work = _row_work(g, _row_sums(store.lengths, rows), k, copies)
        # the first row past the budget, found in Python when there is one:
        # comparing the array with the int would page in kernels used nowhere else
        if work.max() > budget:
            charge(next(w for w in work.tolist() if w > budget), budget, "exact expectation")
    # every row fits the budget, so the routes below run unmetered
    if g.kind in ("best_shot", "top_r"):
        return _order_route(g, store, agents, copies) if lone else _own_grid_rows(g, store, rows, copies)
    if not lone and rows.size < len(store):  # a class block: read the means of the agents it names only
        agents, teams = np.unique(rows, return_inverse=True)
        teams = teams.reshape(rows.shape)
    if _linear(g):  # linearity of expectation: the means suffice
        means = _means(store, agents, partial(_phi, g))
        # in member order from 0 (-0.0 becomes 0.0); one row in Python floats, at a tenth of the cost
        return np.array([copies * sum(means.tolist())]) if lone else copies * (_row_sums(means, teams) + 0.0)
    # success_prob: 1 - prod (1 - E f(X_i)), by independence
    return 1.0 - _product(1.0 - _means(store, agents, g.f.apply).take(teams.T), copies)


def _members(scn: Scenario, j: int, S: Iterable[int]) -> tuple[int, ...]:
    # a set reading: a repeated member counts once
    j = check_index(j, scn.n_projects, "project")
    members = tuple(sorted({check_index(i, scn.n_agents, "agent") for i in S}))
    if len(members) > scn.cardinalities[j]:
        scn._check_team_size(j, len(members))
    return members


def exact_utility(scn: Scenario, j: int, S: Iterable[int]) -> UtilityEstimate:
    """Exact expected utility of team S on project j, from the engine.

    S is read as a set of agent ids, each an int or numpy integer in
    range(n_agents) (ValidationError otherwise), so a repeated member
    counts once. Raises BudgetExceededError past the enumeration budget.
    The empty team is worth g(0, ..., 0) = 0.
    """
    return UtilityEstimate(value=float(team_values(scn, j, [_members(scn, j, S)])[0]), method="exact")


def exact_utility_best_shot(scn: Scenario, j: int, S: Iterable[int]) -> UtilityEstimate:
    """E[max of member performances] for a best-shot project: the engine's
    CDF product, linear in the merged support size times |S|."""
    g = scn.value_fns[j]
    if g.kind != "best_shot":
        raise ValidationError(
            f"project {j} has value function {g.kind!r}, expected best_shot"
        )
    value = float(team_values(scn, j, [_members(scn, j, S)])[0])
    return UtilityEstimate(value=value, method="exact_best_shot")


def project_utility(scn: Scenario, j: int, S: Iterable[int]) -> UtilityEstimate:
    """Exact utility from the engine; best-shot projects carry the
    ``exact_best_shot`` method label. S is read as a set of agent ids, as
    ``exact_utility`` reads it: a repeated member counts once."""
    j = check_index(j, scn.n_projects, "project")
    if scn.value_fns[j].kind == "best_shot":
        return exact_utility_best_shot(scn, j, S)
    return exact_utility(scn, j, S)


def team_values(scn: Scenario, j: int, teams) -> np.ndarray:
    """``project_utility(scn, j, S).value`` for every row S of ``teams``,
    bit for bit: ``_exact_rows`` on the block, which prices each row as
    its own call. ``teams`` is a (B, k) array of agent ids of the
    scenario, each row strictly ascending, as ``_subsets`` lists them;
    the rows are not checked; ``j`` is, as an index in range(n_projects).
    """
    j = check_index(j, scn.n_projects, "project")
    teams = np.asarray(teams, dtype=np.intp)
    if teams.size and teams.shape[1] > scn.cardinalities[j]:
        scn._check_team_size(j, teams.shape[1])
    return _exact_rows(scn.value_fns[j], scn.store(j), teams, 1, enumeration_budget())


def _mc(
    g: ValueFunction, store: ProjectStore, agents, copies: int, rng: RngSpec, samples: int,
    stream: int,
) -> UtilityEstimate:
    """Monte Carlo E[g] over ``copies`` independent copies of each of the
    store's ``agents``, drawn by inverse CDF from one uniform draw of
    ``samples`` rows: member c's copies read columns
    c * copies .. (c + 1) * copies - 1. std_error is the sample standard
    deviation divided by sqrt(samples)."""
    U = rng.generator(stream).random((samples, len(agents) * copies))
    X = np.empty_like(U)
    for c, a in enumerate(agents):
        values, _, cdf = store.atoms(a)
        cols = slice(c * copies, (c + 1) * copies)
        X[:, cols] = values[np.searchsorted(cdf[1:], U[:, cols], side="right")]
    vals = evaluate_batch(g, X)
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return UtilityEstimate(
        value=float(vals.mean()), method="monte_carlo", samples=samples, std_error=se
    )


def mc_utility(
    scn: Scenario,
    j: int,
    S: Iterable[int],
    rng: RngSpec,
    samples: int,
    stream: int = 0,
) -> UtilityEstimate:
    """Monte Carlo estimate of the expected utility, by ``_mc``;
    deterministic for a fixed RngSpec and stream. S is read as a set of
    agent ids, as ``exact_utility`` reads it: a repeated member counts once."""
    samples = check_count(samples, 2, "samples")
    members = _members(scn, j, S)
    g = scn.value_fns[j]
    if not members:
        return UtilityEstimate(value=evaluate(g, []), method="exact")
    return _mc(g, scn.store(j), members, 1, rng, samples, stream)


@dataclass(frozen=True)
class SubmodularityReport:
    ok: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...], Optional[int]]] = None
    # witness = (S, T, i): diminishing-returns violation at S subset T, i outside T;
    # i is None for a monotonicity violation u(S) > u(T).


def submodularity_check(scn: Scenario, j: int, max_agents: int = 8) -> SubmodularityReport:
    """Exhaustively verify that u_j is monotone non-decreasing and submodular
    over the whole agent ground set.

    Checks u(T + i) - u(T) <= u(S + i) - u(S) for all S subset T, i outside T,
    and u(S) <= u(T) for S subset T, both up to SUBMODULARITY_TOL, in one
    array pass over the 4^n (S, T) cells. Returns the first violating
    witness in the order given below. The utilities of each team size come
    from one ``team_values`` batch, equal to ``project_utility`` bit for
    bit, so a team past the budget raises for the smallest size that has one.
    """
    n = scn.n_agents
    if n > max_agents:
        raise BudgetExceededError(2**n, 2**max_agents, what="subset enumeration")
    u = np.zeros(1 << n)  # the empty team is worth 0
    for t in range(1, n + 1):
        teams = _subsets(n, t)
        u[(1 << teams).sum(axis=1)] = team_values(scn, j, teams)
    masks, bits = np.arange(1 << n), 1 << np.arange(n)
    # every pair S subset T in the order of a walk over T ascending and its
    # submasks S descending (column c holds S = 2^n - 1 - c)
    T, S = np.nonzero((masks[::-1] & ~masks[:, None]) == 0)
    S = masks[::-1][S]
    gain = u[masks[:, None] | bits] - u[:, None]  # u(A + i) - u(A) for every A and agent i
    # each pair's monotonicity check u(S) > u(T), then each i outside T ascending
    bad = np.column_stack((
        u[S] > u[T] + SUBMODULARITY_TOL,
        ((T[:, None] & bits) == 0) & (gain[T] > gain[S] + SUBMODULARITY_TOL),
    ))
    first = int(bad.argmax())
    if not bad.flat[first]:
        return SubmodularityReport(ok=True)
    pair, c = divmod(first, n + 1)
    S, T = (tuple(np.flatnonzero(bits & int(A[pair])).tolist()) for A in (S, T))
    return SubmodularityReport(ok=False, witness=(S, T, c - 1 if c else None))
