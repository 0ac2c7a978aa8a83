"""Catalogue of symmetric monotone submodular value functions and their
structural property checkers.

Five variants are supported: total production f(sum x_i) with a concave f,
best-shot max(x_i), top-r (sum of the r largest entries), CES
(sum x_i^r)^(1/r) with r >= 1, and success probability
1 - prod(1 - f(x_i)) with f mapping into [0, 1].

Every variant is symmetric in its arguments and ignores zero padding, so a
team's value depends only on the multiset of member performances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PROP_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when an input fails a structural precondition."""


class InverseUnboundedError(ValidationError):
    """The sub-level set {y : g(y,0,...,0) <= x} is unbounded."""


@dataclass(frozen=True)
class ConcaveFn:
    """Concave increasing map on the non-negative reals with f(0) = 0."""

    kind: str  # identity | sqrt | log1p | power
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "sqrt", "log1p", "power"):
            raise ValidationError(f"unknown concave fn {self.kind!r}")
        if self.kind == "power" and not (0 < self.p <= 1):
            raise ValidationError(f"power exponent must be in (0, 1], got {self.p}")
        if not math.isfinite(self.p):
            raise ValidationError(f"exponent must be finite, got {self.p}")

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x
        if self.kind == "sqrt":
            return np.sqrt(x)
        if self.kind == "log1p":
            return np.log1p(x)
        return np.power(x, self.p)

    def inverse(self, y: float) -> float:
        # Exact inverses; each variant is strictly increasing so these are
        # the max-formulation inverses as well.
        if y < 0:
            raise ValidationError(f"inverse argument must be >= 0, got {y}")
        if self.kind == "identity":
            return float(y)
        if self.kind == "sqrt":
            return float(y) ** 2
        if self.kind == "log1p":
            return math.expm1(y)
        return float(y) ** (1.0 / self.p)


@dataclass(frozen=True)
class UnitFn:
    """Increasing map from the non-negative reals into [0, 1] with f(0) = 0."""

    kind: str  # clamp_linear | one_minus_exp
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in ("clamp_linear", "one_minus_exp"):
            raise ValidationError(f"unknown unit fn {self.kind!r}")
        if not (0 < self.param < math.inf):
            raise ValidationError(f"parameter must be positive and finite, got {self.param}")

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "clamp_linear":
            return np.minimum(self.param * x, 1.0)
        return -np.expm1(-self.param * x)

    def inverse_below_one(self, y: float) -> float:
        # Valid only for y in [0, 1); the sub-level set at y >= 1 is unbounded.
        if self.kind == "clamp_linear":
            return float(y) / self.param
        return -math.log1p(-float(y)) / self.param


@dataclass(frozen=True)
class ValueFunction:
    """Tagged variant over the catalogue; see the factory classmethods."""

    kind: str  # total | best_shot | top_r | ces | success_prob
    f: ConcaveFn | UnitFn | None = None
    r: float | None = None

    def __post_init__(self):
        if self.r is not None and not math.isfinite(self.r):
            raise ValidationError(f"{self.kind} parameter must be finite, got {self.r}")
        if self.kind == "total":
            if not isinstance(self.f, ConcaveFn):
                raise ValidationError("total production requires a ConcaveFn")
        elif self.kind == "best_shot":
            pass
        elif self.kind == "top_r":
            if self.r is None or int(self.r) != self.r or self.r < 1:
                raise ValidationError(f"top_r requires integer r >= 1, got {self.r}")
        elif self.kind == "ces":
            # submodular exactly when r >= 1
            if self.r is None or self.r < 1:
                raise ValidationError(f"ces requires r >= 1, got {self.r}")
        elif self.kind == "success_prob":
            if not isinstance(self.f, UnitFn):
                raise ValidationError("success probability requires a UnitFn")
        else:
            raise ValidationError(f"unknown value function kind {self.kind!r}")

    @classmethod
    def total(cls, f: ConcaveFn) -> "ValueFunction":
        return cls("total", f=f)

    @classmethod
    def best_shot(cls) -> "ValueFunction":
        return cls("best_shot")

    @classmethod
    def top_r(cls, r: int) -> "ValueFunction":
        from .core import check_count  # core builds on this module

        return cls("top_r", r=check_count(r, 1, "top_r r"))

    @classmethod
    def ces(cls, r: float) -> "ValueFunction":
        return cls("ces", r=float(r))

    @classmethod
    def success_prob(cls, f: UnitFn) -> "ValueFunction":
        return cls("success_prob", f=f)


def evaluate(g: ValueFunction, x: Sequence[float]) -> float:
    """Evaluate g on a performance vector of finite, non-negative
    coordinates; raises ValidationError naming ``x`` otherwise.

    Permutation invariant, and appending zeros never changes the value, so
    the empty vector evaluates to g(0,...,0) = 0 for every catalogue member.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("expected a flat vector")
    _check_coordinates(arr, "x")
    return _evaluate(g, arr)


def evaluate_batch(g: ValueFunction, X: np.ndarray) -> np.ndarray:
    """Evaluate g on each row of a 2-D array (vectorized evaluate), whose
    coordinates are finite and non-negative; raises ValidationError naming
    ``X`` otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("expected a 2-D array of row vectors")
    _check_coordinates(X, "X")
    return _evaluate_rows(g, X)


def _check_coordinates(arr: np.ndarray, name: str) -> None:
    # NaN fails both comparisons
    if arr.size and not (arr.min() >= 0 and arr.max() < math.inf):
        bad = arr[~((arr >= 0) & (arr < math.inf))][0]
        raise ValidationError(f"{name} must hold finite coordinates >= 0, got {bad}")


def _evaluate(g: ValueFunction, x) -> float:
    """``evaluate`` with no check of the coordinates, for callers that
    checked them once for many calls, or drew them from valid supports."""
    return float(_evaluate_rows(g, np.asarray(x, dtype=float).reshape(1, -1))[0])


def _evaluate_rows(g: ValueFunction, X: np.ndarray) -> np.ndarray:
    """``evaluate_batch`` on a 2-D float array, with no check of its
    coordinates."""
    if X.shape[1] == 0:
        return np.zeros(X.shape[0])
    if g.kind == "total":
        return np.asarray(g.f.apply(X.sum(axis=1)), dtype=float)
    if g.kind == "best_shot":
        return X.max(axis=1)
    if g.kind == "top_r":
        r = int(g.r)
        if X.shape[1] <= r:
            return X.sum(axis=1)
        part = np.partition(X, X.shape[1] - r, axis=1)
        return part[:, X.shape[1] - r:].sum(axis=1)
    if g.kind == "ces":
        return np.power(np.power(X, g.r).sum(axis=1), 1.0 / g.r)
    # success_prob
    return 1.0 - np.prod(1.0 - g.f.apply(X), axis=1)


def single_inverse(g: ValueFunction, x: float) -> float:
    """g^{-1}(x) = max{y >= 0 : g(y, 0, ..., 0) <= x}.

    Closed forms for the whole catalogue; raises InverseUnboundedError when
    the sub-level set is unbounded (success probability with x >= 1).
    """
    if x < 0:
        raise ValidationError(f"inverse argument must be >= 0, got {x}")
    if g.kind == "total":
        return g.f.inverse(x)
    if g.kind in ("best_shot", "top_r", "ces"):
        return float(x)
    # success_prob: g(y,0,...,0) = f(y), sup f = 1 for both unit fns
    if x >= 1.0:
        raise InverseUnboundedError(
            f"inverse unbounded: success probability never exceeds 1, got x={x}"
        )
    return g.f.inverse_below_one(x)


@dataclass(frozen=True)
class BspResult:
    holds: bool
    lhs: float
    rhs: float


def bsp_check(g: ValueFunction, x: Sequence[float]) -> BspResult:
    """Balanced-skilled-population check on one vector.

    Collapses the first l-1 coordinates to the single performance
    g^{-1}(g(x_1..x_{l-1}, 0...)) and asks whether pairing that collapsed
    performance with x_l can beat the original team:
    g(g^{-1}(g(prefix)), x_l, 0...) <= g(x, 0...).
    """
    vec = [float(v) for v in x]
    if len(vec) < 2:
        raise ValidationError("bsp check needs at least two coordinates")
    # checked once, in Python: the evaluations below take the vector's parts
    bad = [v for v in vec if not 0.0 <= v < math.inf]
    if bad:
        raise ValidationError(f"x must hold finite coordinates >= 0, got {bad[0]}")
    prefix_value = _evaluate(g, vec[:-1])
    collapsed = single_inverse(g, prefix_value)
    lhs = _evaluate(g, [collapsed, vec[-1]])
    rhs = _evaluate(g, vec)
    return BspResult(holds=lhs <= rhs + PROP_TOL, lhs=lhs, rhs=rhs)

