"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way: plain
Python loops over itertools products, no shared helpers from the library
beyond the dataclasses being checked (and ``evaluate``, the function the
bisection inverts). Keep these dumb. There are four exceptions.
``ref_replication_table`` keeps the score table's earlier per-project
fill on the engine's own kernels (``_member_rows`` for the columns, a
one-row ``_exact_rows`` block for each cell scored alone), so that
comparing it with ``build_score_table`` checks how the cells are grouped
and nothing else. ``ref_verify_bracket`` keeps the sketch verifiers'
earlier per-team loop on the library's per-team calls, so that comparing
it with the verifiers checks their team blocks and witness choice and
nothing else. ``ref_lone_expectation`` and ``ref_lone_mc`` keep the
engine's earlier form for one team or replication score on lists of
Distribution objects, on the engine's own kernels (but for the order
route's sum over the gaps, which the reference writes out), so that comparing
them with a one-row ``_exact_rows`` block and with ``_mc`` checks how
the engine reads the packed store and nothing else.
``ref_submodularity_check`` keeps ``submodularity_check``'s earlier walk
over every (S, T, i) on the same utilities, so that comparing the two
checks the array pass's order of witnesses and nothing else.

It also holds the checkers that state paper properties no command
reports: ``diminishing_across_check`` and ``value_submodularity_check``
of value functions, and ``max_term_bound`` of harmonic sketches.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from testscore import (
    BoundWitness,
    BudgetExceededError,
    InverseUnboundedError,
    RngSpec,
    SketchBoundReport,
    SubmodularityReport,
    build_score_table,
    evaluate,
    minmax_sketch,
    project_utility,
    strong_sketch,
)
from testscore.core import charge, enumeration_budget
from testscore.scores import MC_BASE_SAMPLES, MC_MAX_ROUNDS, MC_TARGET_REL_SE
from testscore.production import evaluate_batch
from testscore.utility import (
    SUBMODULARITY_TOL,
    _MERGE,
    _batchable,
    _exact_rows,
    _h,
    _linear,
    _mc,
    _member_rows,
    _phi,
    _product,
    _row_work,
)

BISECT_TOL = 1e-10


def fn_total(f):
    return lambda xs: f(sum(xs))


def fn_best_shot():
    return lambda xs: max(xs) if xs else 0.0


def fn_top_r(r):
    def g(xs):
        return sum(sorted(xs, reverse=True)[: int(r)])

    return g


def fn_ces(r):
    def g(xs):
        return sum(v**r for v in xs) ** (1.0 / r) if xs else 0.0

    return g


def fn_success(f):
    def g(xs):
        miss = 1.0
        for v in xs:
            miss *= 1.0 - f(v)
        return 1.0 - miss

    return g


# plain-Python twins of adversarial.CATALOGUE_POOL, in the same order
CATALOGUE_REFS = (
    fn_total(lambda x: x),
    fn_total(math.sqrt),
    fn_total(math.log1p),
    fn_best_shot(),
    fn_ces(1.5),
    fn_ces(2.0),
    fn_ces(4.0),
    fn_success(lambda v: min(0.25 * v, 1.0)),
    fn_success(lambda v: -math.expm1(-0.5 * v)),
    fn_total(lambda x: x**0.5),
    fn_ces(1.0),
    fn_top_r(2),
)


def single_inverse_bisect(g, x):
    """g^{-1} by bisection, to cross-check the closed forms of
    ``single_inverse``.

    Brackets [0, B] with B doubled until g(B,0,...,0) > x, then bisects to
    absolute tolerance 1e-10.
    """
    if x < 0:
        raise ValueError(f"inverse argument must be >= 0, got {x}")

    def diag(y):
        return evaluate(g, [y])

    if diag(0.0) > x:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if diag(hi) > x:
            break
        hi *= 2.0
    else:
        raise InverseUnboundedError(
            f"inverse unbounded: g(y,0,...,0) never exceeds x={x}"
        )
    lo = 0.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if diag(mid) <= x:
            lo = mid
        else:
            hi = mid
    return lo


def diminishing_across_check(g, y, xgrid):
    """True iff the marginal g(x, y, 0...) - g(x, 0...) is non-increasing
    along the ascending grid, within 1e-9."""
    grid = [float(v) for v in xgrid]
    if len(grid) < 2:
        raise ValueError("grid needs at least two points")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")
    marginals = [evaluate(g, [x, y]) - evaluate(g, [x]) for x in grid]
    return all(b <= a + 1e-9 for a, b in zip(marginals, marginals[1:]))


def value_submodularity_check(g, x, y):
    """Lattice submodularity, g(x v y) + g(x ^ y) <= g(x) + g(y), within 1e-9."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("vectors must have equal length")
    lhs = evaluate(g, np.maximum(xa, ya)) + evaluate(g, np.minimum(xa, ya))
    return lhs <= evaluate(g, xa) + evaluate(g, ya) + 1e-9


@dataclass(frozen=True)
class MaxTermBound:
    holds: bool
    lhs: float
    rhs: float
    ell: int


def max_term_bound(ev):
    """The largest ranked score of a ``strong_sketch`` evaluation is at
    most twice the running average: with ell the rank holding the largest
    a^r, a^ell <= (2/ell) * sum_{r<=ell} a^r, within 1e-9."""
    raw = [contrib * r for (_i, r, contrib) in ev.per_term]
    ell = 1 + max(range(len(raw)), key=lambda idx: raw[idx])
    lhs = raw[ell - 1]
    rhs = (2.0 / ell) * sum(raw[:ell])
    return MaxTermBound(holds=lhs <= rhs + 1e-9, lhs=lhs, rhs=rhs, ell=ell)


def ref_mean(pairs):
    return sum(v * p for v, p in pairs)


def ref_quantile(pairs, theta):
    """Tail integral of the quantile function above level theta.

    Atoms occupy contiguous probability intervals in ascending value
    order; an atom straddling theta contributes only its overlap.
    """
    if theta == 0.0:
        return ref_mean(pairs)
    acc = 0.0
    c = 0.0
    for v, p in sorted(pairs):
        lo, hi = c, c + p
        overlap = min(hi, 1.0) - max(lo, theta)
        if overlap > 0:
            acc += v * overlap
        c = hi
    return acc / (1.0 - theta)


def ref_utility(dists, g, members):
    """E[g(X_S)] by full product-space enumeration. dists: list of
    (value, prob) pair lists indexed by agent; members: agent ids."""
    if not members:
        return g([])
    supports = [dists[i] for i in members]
    acc = 0.0
    for combo in itertools.product(*supports):
        w = 1.0
        for _, p in combo:
            w *= p
        acc += w * g([v for v, _ in combo])
    return acc


def ref_replication(pairs, g, k):
    """E[g(k iid copies)] by enumerating the k-fold product directly."""
    acc = 0.0
    for combo in itertools.product(pairs, repeat=k):
        w = 1.0
        for _, p in combo:
            w *= p
        acc += w * g([v for v, _ in combo])
    return acc


def ref_best_subset(dists, g, k, n):
    """Exhaustive max of ref_utility over k-subsets of range(n).
    Returns (best value, first argmax in lexicographic order)."""
    best, best_set = -math.inf, None
    for S in itertools.combinations(range(n), k):
        val = ref_utility(dists, g, S)
        if val > best + 1e-12:
            best, best_set = val, S
    return best, best_set


def _assignments(n, ks):
    """Yield tuples of disjoint agent tuples, one per project."""
    agents = tuple(range(n))

    def rec(j, free):
        if j == len(ks):
            yield ()
            return
        for S in itertools.combinations(sorted(free), ks[j]):
            rest = free - set(S)
            for tail in rec(j + 1, rest):
                yield (S,) + tail

    yield from rec(0, set(agents))


def ref_best_assignment(dists_by_project, gs, ks, n):
    """Exhaustive welfare max. dists_by_project[j][i] = pair list for
    agent i on project j. Returns (best welfare, first argmax)."""
    best, best_asg = -math.inf, None
    for asg in _assignments(n, ks):
        val = sum(
            ref_utility(dists_by_project[j], gs[j], asg[j]) for j in range(len(ks))
        )
        if val > best + 1e-12:
            best, best_asg = val, asg
    return best, best_asg


def ref_greedy_welfare(table, ks, n, gen=None):
    """The welfare greedy as a plain double loop over (agent, project)
    pairs: take the largest next-slot score table.get(i, j, r) / r, ties to
    the first pair in agent-then-project order, or drawn with
    gen.integers over all tied pairs in that order. Returns the sets in
    pick order and the trace as (step, agent, project, score) tuples."""
    available = list(range(n))
    sets = [[] for _ in ks]
    open_projects = list(range(len(ks)))
    trace = []
    step = 0
    while open_projects:
        best_score = -math.inf
        cands = []
        for i in available:
            for j in open_projects:
                r = len(sets[j]) + 1
                s = table.get(i, j, r) / r
                if s > best_score:
                    best_score = s
                    cands = [(i, j)]
                elif s == best_score:
                    cands.append((i, j))
        i, j = cands[0] if gen is None else cands[int(gen.integers(len(cands)))]
        step += 1
        trace.append((step, i, j, best_score))
        sets[j].append(i)
        available.remove(i)
        if len(sets[j]) >= ks[j]:
            open_projects.remove(j)
    return sets, trace


def ref_maximize_assignment(n, ks, value_of):
    """The assignment DP as a dict of used-agent bitmasks, one stage per
    project from the last back: tables[j][mask] is the best value of
    projects j.. with mask's agents taken, maximized with a strict > in
    lexicographic team order. The forward walk takes the first team that
    attains the table value. Returns (sets, best total)."""
    agents = range(n)
    m = len(ks)
    prefix = [0]
    for k in ks:
        prefix.append(prefix[-1] + k)
    memo = [dict() for _ in range(m)]

    def val(j, S):
        if S not in memo[j]:
            memo[j][S] = value_of(j, S)
        return memo[j][S]

    def mask_of(members):
        mask = 0
        for i in members:
            mask |= 1 << i
        return mask

    tables = [dict() for _ in range(m + 1)]
    for combo in itertools.combinations(agents, prefix[m]):
        tables[m][mask_of(combo)] = 0.0
    for j in range(m - 1, -1, -1):
        for combo in itertools.combinations(agents, prefix[j]):
            mask = mask_of(combo)
            comp = [i for i in agents if not (mask >> i) & 1]
            best = -math.inf
            for S in itertools.combinations(comp, ks[j]):
                v = val(j, S) + tables[j + 1][mask | mask_of(S)]
                if v > best:
                    best = v
            tables[j][mask] = best
    sets = []
    mask = 0
    for j in range(m):
        target = tables[j][mask]
        comp = [i for i in agents if not (mask >> i) & 1]
        for S in itertools.combinations(comp, ks[j]):
            if val(j, S) + tables[j + 1][mask | mask_of(S)] == target:
                sets.append(S)
                mask |= mask_of(S)
                break
    return sets, tables[0][0]


def ref_replication_table(scn, max_r, rng=None, mc_fallback=True):
    """A replication table filled one (project, r) column at a time: each
    column's batchable cells in one ``_member_rows`` call on the project's
    own store, the others one at a time in (agent, project, r) order, by
    the engine or, past the budget, by Monte Carlo on the cell's stream.
    Returns (scores, methods, std_errors) arrays of shape (n, m, max_r)."""
    n, m = scn.n_agents, scn.n_projects
    budget = enumeration_budget()
    rng = rng if rng is not None else RngSpec(seed=0)
    scores = np.empty((n, m, max_r))
    methods = np.empty((n, m, max_r), dtype=object)
    std_errors = np.zeros((n, m, max_r))
    single = []
    for j in scn.projects:
        g = scn.value_fns[j]
        methods[:, j] = "exact_best_shot" if g.kind == "best_shot" else "exact"
        for r in range(1, max_r + 1):
            for s, agents, *_ in scn.store(j).groups:
                if not _batchable(g, s, r, budget):
                    single += [(i, j, r) for i in agents.tolist()]
    for i, j, r in sorted(single):
        g, store = scn.value_fns[j], scn.store(j)
        try:
            scores[i, j, r - 1] = _exact_rows(g, store, np.array([[i]]), r, budget)[0]
            continue
        except BudgetExceededError:
            if not mc_fallback:
                raise
        samples = MC_BASE_SAMPLES
        for _ in range(MC_MAX_ROUNDS):
            est = _mc(g, store, [i], r, rng, samples, (i * m + j) * max_r + (r - 1))
            if est.std_error <= MC_TARGET_REL_SE * max(abs(est.value), 1e-12):
                break
            samples *= 2
        scores[i, j, r - 1] = est.value
        methods[i, j, r - 1] = "monte_carlo"
        std_errors[i, j, r - 1] = est.std_error
    for j in scn.projects:
        for r in range(1, max_r + 1):
            _member_rows(scn.value_fns[j], scn.store(j), r, budget, scores[:, j, r - 1])
    return scores, methods, std_errors


def ref_verify_bracket(scn, j, k, which):
    """A sketch verifier's report by one call per team: every team of
    sizes 1..k (``which == "strong"``, the harmonic-sketch bracket) or of
    size k (``"goodness"``, the min/max sandwich), in
    ``itertools.combinations`` order, valued by its own ``project_utility``
    and its own ``strong_sketch`` or ``minmax_sketch`` call; each side's
    worst slack is replaced only by a strictly smaller one."""
    table = build_score_table(scn, "replication", max_r=k, mc_fallback=False)
    worst = [None, None]
    for t in range(1, k + 1) if which == "strong" else (k,):
        for S in itertools.combinations(range(scn.n_agents), t):
            u = project_utility(scn, j, S).value
            if which == "strong":
                v = strong_sketch(table, j, S).strong
                scale = 2.0 * (math.log(t) + 1.0)
                sides = [("strong_lower", u - v / scale, v), ("strong_upper", 6.0 * v - u, v)]
            else:
                lower, upper = minmax_sketch(table, j, S, k)
                sides = [
                    ("goodness_lower", u - (1.0 - 1.0 / math.e) * lower, lower),
                    ("goodness_upper", 4.0 * upper - u, upper),
                ]
            for side, (bound, slack, v) in enumerate(sides):
                if worst[side] is None or slack < worst[side].slack:
                    worst[side] = BoundWitness(bound, slack, S, u=u, v=v)
    lo, hi = worst
    ok = lo.slack >= -1e-9 and hi.slack >= -1e-9
    return SketchBoundReport(ok=ok, worst_lower=lo, worst_upper=hi)


def ref_lone_expectation(g, pool, copies, budget):
    """Exact E[g] over ``copies`` copies of each Distribution of ``pool``,
    as the engine computed one team or replication score before it read
    the packed store: the sum route on the distributions' arrays, one copy
    at a time, with a point mass's terms added to a shift and a
    left-to-right sum over the cells, the product route on a block of one
    row, and the order route summing each gap times E[min(w, N(t))] left
    to right itself."""
    if not pool:
        return 0.0
    if g.kind in ("total", "ces"):
        if _linear(g):
            charge(sum(len(d) for d in pool), budget, "exact expectation")
            return copies * sum(float(np.dot(d.values_array, d.probs_array)) for d in pool)
        shift, sums, probs, work = 0.0, np.zeros(1), np.ones(1), 0
        for d in pool:
            terms = _phi(g, d.values_array)
            if len(d) == 1:
                for _ in range(copies):
                    shift += float(terms[0])
                continue
            for _ in range(copies):
                work += len(sums) * len(d)
                charge(work, budget, "exact expectation")
                sums = np.add.outer(sums, terms).ravel()
                probs = np.multiply.outer(probs, d.probs_array).ravel()
                if len(sums) > _MERGE:
                    sums, inverse = np.unique(sums, return_inverse=True)
                    probs = np.bincount(inverse, weights=probs)
        return float(np.add.accumulate(_h(g, sums + shift) * probs)[-1])
    if g.kind == "success_prob":
        charge(sum(len(d) for d in pool) + len(pool), budget, "exact expectation")
        hit = np.array([np.dot(g.f.apply(d.values_array), d.probs_array) for d in pool])
        return float(1.0 - _product((1.0 - hit)[:, None], copies)[0])
    grid = np.sort(np.concatenate([d.values_array for d in pool]))
    F = np.array([
        np.concatenate(([0.0], d.cdf_array))[d.values_array.searchsorted(grid, "right")]
        for d in pool
    ])
    charge(_row_work(g, len(grid), len(pool), copies), budget, "exact expectation")
    # E[sum of the w largest copies] = w * grid[0] + the sum over the gaps
    # of E[min(w, N(t))], N(t) the copies above t, left to right
    if g.kind == "best_shot":
        w, above = 1, 1.0 - _product(F, copies)
    else:
        w = min(int(g.r), len(pool) * copies)
        equal = [np.ones(len(grid))] + [np.zeros(len(grid))] * (w - 1)  # P(N(t) = c), c < w
        for miss in 1.0 - F:
            for _ in range(copies):
                equal = [equal[c] + ((equal[c - 1] if c else 0.0) - equal[c]) * miss for c in range(w)]
        above = w - sum((w - c) * equal[c] for c in range(w))
    value = w * float(grid[0])
    for i in range(len(grid) - 1):
        value += float(above[i]) * (float(grid[i + 1]) - float(grid[i]))
    return value


def ref_submodularity_check(u, n):
    """``submodularity_check``'s report by its earlier per-pair loop over
    ``u``, the utilities of the subsets of range(n) as a list indexed by
    bitmask: T ascending, its submasks S descending, and at each pair the
    monotonicity check, then each i outside T ascending; the first
    violation is the witness."""

    def as_set(mask):
        return tuple(i for i in range(n) if mask >> i & 1)

    for T in range(1 << n):
        S = T
        while True:  # iterate submasks of T, including T and 0
            if u[S] > u[T] + SUBMODULARITY_TOL:
                return SubmodularityReport(ok=False, witness=(as_set(S), as_set(T), None))
            for i in range(n):
                if T >> i & 1:
                    continue
                bit = 1 << i
                if u[T | bit] - u[T] > u[S | bit] - u[S] + SUBMODULARITY_TOL:
                    return SubmodularityReport(ok=False, witness=(as_set(S), as_set(T), i))
            if S == 0:
                break
            S = (S - 1) & T
    return SubmodularityReport(ok=True)


def ref_lone_mc(g, pool, copies, rng, samples, stream):
    """Monte Carlo E[g] over ``copies`` copies of each Distribution of
    ``pool`` by the engine's earlier inverse-CDF draw, as (value,
    std_error)."""
    U = rng.generator(stream).random((samples, len(pool) * copies))
    X = np.empty_like(U)
    for c, d in enumerate(pool):
        cols = slice(c * copies, (c + 1) * copies)
        X[:, cols] = d.values_array[np.searchsorted(d.cdf_array, U[:, cols], side="right")]
    vals = evaluate_batch(g, X)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
