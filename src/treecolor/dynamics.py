"""Mean-field dynamics of the local greedy coloring process.

A vertex still uncolored after some steps is described by its type (d, c):
d uncolored neighbors and c palette colors not yet seen on any neighbor.
Red neighbors reduce d but never c.  The functions here compute the
size-biased neighbor law, cascade growth rates, expected per-activation
type changes, and the drift field that the certifier integrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDistributionError,
    SupercriticalError,
)


class VertexType(NamedTuple):
    """Type (d, c) of an uncolored vertex: d uncolored neighbors, c colors
    still available out of the palette.  Written `d,c`, in messages and as
    the type key of `--weight` and of certificate tuning."""

    d: int
    c: int

    def __str__(self) -> str:
        return f"{self.d},{self.c}"

    @classmethod
    def parse(cls, key: str) -> "VertexType":
        """The type whose key is `key`; any other text raises ValueError."""
        d, c = map(int, key.split(","))
        if str(cls(d, c)) != key:
            raise ValueError(f"{key!r} is not a type key d,c")
        return cls(d, c)


# Largest degree r.  The drift keeps dense square matrices over the
# (r+1)(p-1) types, so r <= 32 bounds them at 1,023 types (8.4 MB each), and
# a vertex's seen colors fit one int64 bitmask only while p <= 63.
MAX_R = 32


@dataclass(frozen=True)
class PaletteConfig:
    """Degree r of the regular graph and palette size p, written `(r,p)`."""

    r: int
    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or not isinstance(self.p, int):
            raise ConfigurationError("r and p must be integers")
        if self.r < 3:
            raise ConfigurationError(f"degree r must be >= 3, got {self.r}")
        if self.r > MAX_R:
            raise ConfigurationError(f"degree r must be <= {MAX_R}, got {self.r}")
        if not (2 <= self.p <= self.r):
            raise ConfigurationError(
                f"palette size p must satisfy 2 <= p <= r, got p={self.p}, r={self.r}"
            )

    def __str__(self) -> str:
        return f"({self.r},{self.p})"


class TypeSpace:
    """Canonical ordering of the type space T = {(d, c): 0<=d<=r, 2<=c<=p}
    and the fixed vectors and matrix that every rate is built from.

    Types are ordered lexicographically: (0,2), (0,3), ..., (r,p).

    A neighbor of an uncolored vertex has type t with the size-biased
    probability q_t = deg_t z_t / deg·z, so every rate is a ratio of two
    dot products over deg∘z.  With a_t = (2/p)(d-1)[c=2]:

    - cascade growth g = (a∘deg)·z / deg·z;
    - remainder growth m = ((deg-1)∘deg)·z / deg·z;
    - forced fraction ((2/p)[c=2]∘deg)·z / deg·z;
    - one branch of a forced cascade changes the type counts by K z / v·z,
      where v = (1-a)∘deg, so v·z = deg·z (1 - g), and K = (B - I) diag(deg).
      B moves a neighbor of type (d+1, c+1) to (d, c) with probability
      (c+1)/p (the parent's color was available to it) and one of type
      (d+1, c) to (d, c) with probability (p-c)/p (it was not).
    """

    def __init__(self, cfg: PaletteConfig) -> None:
        self.cfg = cfg
        r, p = cfg.r, cfg.p
        self.types: tuple[VertexType, ...] = tuple(
            VertexType(d, c) for d in range(r + 1) for c in range(2, p + 1)
        )
        self.size = len(self.types)  # (r+1)(p-1)
        self.index: dict[VertexType, int] = {t: i for i, t in enumerate(self.types)}
        self.deg = np.array([t.d for t in self.types], dtype=np.float64)
        forced = np.array([t.c == 2 for t in self.types], dtype=np.float64)
        growth_row = (2.0 / p) * (self.deg - 1.0) * forced * self.deg
        # products with a state z give deg·z, (a∘deg)·z and ((deg-1)∘deg)·z
        self.rate_rows = np.stack([self.deg, growth_row, (self.deg - 1.0) * self.deg])
        self.forced_row = (2.0 / p) * forced * self.deg
        self.slack_row = self.deg - growth_row  # v
        gain = -np.eye(self.size)
        for i, (d, c) in enumerate(self.types):
            for src, prob in (((d + 1, c + 1), (c + 1) / p), ((d + 1, c), (p - c) / p)):
                if src in self.index:
                    gain[i, self.index[src]] += prob
        self.kernel = gain * self.deg  # K

    def position(self, t: Iterable[int]) -> int:
        """Canonical index of type t; ConfigurationError if t is outside."""
        t = VertexType(*t)
        if t not in self.index:
            raise ConfigurationError(f"type {t} outside type space for {self.cfg}")
        return self.index[t]


@lru_cache(maxsize=None)
def type_space(cfg: PaletteConfig) -> TypeSpace:
    """Shared TypeSpace instance for a palette config."""
    return TypeSpace(cfg)


@dataclass
class TypeDistribution:
    """Sub-probability vector z over the type space: z_t is the fraction of
    all vertices that are uncolored with type t.  Colored mass is 1 - sum(z)."""

    cfg: PaletteConfig
    vec: np.ndarray

    def __post_init__(self) -> None:
        space = type_space(self.cfg)
        vec = np.asarray(self.vec, dtype=np.float64)
        if vec.shape != (space.size,):
            raise ConfigurationError(
                f"distribution vector has shape {vec.shape}, expected ({space.size},)"
            )
        if vec.min(initial=0.0) < -1e-9:
            raise ConfigurationError("distribution entries must be nonnegative")
        if vec.sum() > 1.0 + 1e-9:
            raise ConfigurationError("distribution mass exceeds 1")
        object.__setattr__(self, "vec", np.clip(vec, 0.0, None))

    @classmethod
    def _unchecked(cls, cfg: PaletteConfig, vec: np.ndarray) -> "TypeDistribution":
        """`cls(cfg, vec)` for a float64 vector known to pass its checks unclipped."""
        z = object.__new__(cls)
        z.cfg, z.vec = cfg, vec
        return z

    @property
    def space(self) -> TypeSpace:
        return type_space(self.cfg)

    @classmethod
    def initial(cls, cfg: PaletteConfig) -> "TypeDistribution":
        """All mass on the fresh type (r, p)."""
        space = type_space(cfg)
        vec = np.zeros(space.size)
        vec[space.index[VertexType(cfg.r, cfg.p)]] = 1.0
        return cls(cfg, vec)

    @classmethod
    def from_dict(
        cls, cfg: PaletteConfig, mapping: Mapping[VertexType, float]
    ) -> "TypeDistribution":
        space = type_space(cfg)
        vec = np.zeros(space.size, dtype=np.float64)
        for t, v in mapping.items():
            vec[space.position(t)] = float(v)
        return cls(cfg, vec)

    def as_dict(self) -> dict[VertexType, float]:
        """The nonzero entries by type."""
        return {t: float(v) for t, v in zip(self.space.types, self.vec) if v != 0.0}

    def mass(self) -> float:
        return float(self.vec.sum())

    def __getitem__(self, t: Iterable[int]) -> float:
        return float(self.vec[self.space.position(t)])


@dataclass(frozen=True)
class TuningParams:
    """Activation weights per type, and optionally the step scale epsilon.

    Weights are arbitrary nonnegative reals; when epsilon is set the
    per-step activation probability epsilon * weight must be a probability,
    so epsilon * max(weight) <= 1 is enforced.
    """

    cfg: PaletteConfig
    weights: Mapping[VertexType, float]
    epsilon: float | None = None

    def __post_init__(self) -> None:
        space = type_space(self.cfg)
        for t in self.weights:
            space.position(t)
        cleaned = {}
        for t in space.types:
            if t not in self.weights:
                raise ConfigurationError(f"tuning weight missing for type {t}")
            w = float(self.weights[t])
            if not np.isfinite(w) or w < 0.0:
                raise ConfigurationError(
                    f"tuning weight for {t} must be finite and >= 0, got {w}")
            cleaned[t] = w
        object.__setattr__(self, "weights", cleaned)
        if self.epsilon is not None:
            eps = float(self.epsilon)
            if not np.isfinite(eps) or eps < 0.0:
                raise ConfigurationError(f"epsilon must be finite and >= 0, got {eps}")
            wmax = max(cleaned.values())
            if eps * wmax > 1.0 + 1e-12:
                raise ConfigurationError(
                    f"epsilon * max weight = {eps * wmax:g} exceeds 1; "
                    "activation probabilities must stay in [0, 1]"
                )
            object.__setattr__(self, "epsilon", eps)

    def vector(self) -> np.ndarray:
        space = type_space(self.cfg)
        return np.array([self.weights[t] for t in space.types], dtype=np.float64)


def default_tuning(cfg: PaletteConfig, epsilon: float | None = None) -> TuningParams:
    """Reference activation scheme: weight 2^(2-2d) for every type of degree
    d != 1, and 2^-10 for degree-1 types (colored last, almost never forced)."""
    weights = {
        t: (2.0 ** (2 - 2 * t.d) if t.d != 1 else 2.0 ** -10)
        for t in type_space(cfg).types
    }
    return TuningParams(cfg, weights, epsilon)


# ---------------------------------------------------------------------------
# Raw-vector rates.  These take states in canonical type order; the integrator
# calls them directly and the public operations below wrap them.
# ---------------------------------------------------------------------------

_DEGENERATE = "no mass on positive-degree types; neighbor law undefined"


def _mass(space: TypeSpace, zvec: np.ndarray) -> float:
    """deg·z, the normalizer of the size-biased law."""
    mass = float(space.deg @ zvec)
    if not mass > 0.0:
        raise DegenerateDistributionError(_DEGENERATE)
    return mass


def _check_slack(mass: np.ndarray, slack: np.ndarray) -> None:
    if not (slack > 0.0).all():  # numpy scalars, or one per row
        raise SupercriticalError(f"cascade growth {np.max(1.0 - slack / mass):g} >= 1")


def _slack(space: TypeSpace, zvec: np.ndarray) -> float:
    """v·z = deg·z (1 - g), positive while forced cascades die out."""
    slack = space.slack_row @ zvec
    _check_slack(_mass(space, zvec), slack)
    return float(slack)


def growth_rates(
    space: TypeSpace, zvec: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Cascade growth g and remainder growth m of a raw state vector, or,
    as arrays, of every row of a stack of states: einsum, not BLAS, so a row
    of a stack gives the same bits as that state alone."""
    mass, growth, remainder = np.einsum("...j,ij->i...", zvec, space.rate_rows)
    if not (mass > 0.0).all():
        raise DegenerateDistributionError(_DEGENERATE)
    return growth / mass, remainder / mass


def drift_field(space: TypeSpace, wvec: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The drift F(z) = -w∘z + (u·z)/(v·z) K z on raw state vectors, with
    u = w∘deg: activations at rate w_s z_s, each opening deg(s) branches;
    for one state or a stack of states, one per row."""
    n = space.size
    # one product gives K z, deg·z, u·z and v·z
    ops = np.vstack([space.kernel, space.deg, wvec * space.deg, space.slack_row]).T.copy()

    def field(zvec: np.ndarray) -> np.ndarray:
        y = zvec @ ops
        mass, active, slack = y[..., n:].T
        if not (y[..., n::2] > 0.0).all():  # deg·z and v·z
            if not (mass > 0.0).all():
                raise DegenerateDistributionError(_DEGENERATE)
            _check_slack(mass, slack)
        return (active / slack)[..., None] * y[..., :n] - wvec * zvec

    return field


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def size_biased_law(z: TypeDistribution) -> dict[VertexType, float]:
    """Law of the type of a uniformly random uncolored neighbor of a random
    uncolored vertex.  Degree-weighted: q_t = deg(t) z_t / sum_s deg(s) z_s."""
    space = z.space
    q = space.deg * z.vec / _mass(space, z.vec)
    return dict(zip(space.types, q.tolist()))


def cascade_growth(z: TypeDistribution) -> float:
    """Mean number of forced colorings spawned per forced coloring,
    (2/p) * sum_d (d-1) q_{(d,2)}.  Below 1 means cascades die out."""
    return float(growth_rates(z.space, z.vec)[0])


def remainder_growth(z: TypeDistribution) -> float:
    """Mean offspring sum_s (deg(s)-1) q_s of the branching process describing
    connected components of the uncolored remainder."""
    return float(growth_rates(z.space, z.vec)[1])


def branch_type_delta(z: TypeDistribution, t: VertexType) -> float:
    """Expected net change of the type-t vertex count caused by one branch
    hanging off a freshly activated vertex (forced cascade included)."""
    i = z.space.position(t)
    return float(z.space.kernel[i] @ z.vec / _slack(z.space, z.vec))


def cascade_type_delta(
    z: TypeDistribution,
) -> dict[tuple[VertexType, VertexType], float]:
    """Expected net type changes from activating one vertex of each type:
    entry (s, t) is -[s==t] + deg(s) * branch_type_delta(z, t)."""
    space = z.space
    branch = space.kernel @ z.vec / _slack(space, z.vec)
    mat = np.outer(space.deg, branch) - np.eye(space.size)
    return {
        (s, t): val
        for s, row in zip(space.types, mat.tolist())
        for t, val in zip(space.types, row)
    }


def expected_cascade_size(z: TypeDistribution, s: VertexType) -> float:
    """Expected number of vertices colored when a type-s vertex activates:
    1 + deg(s) * forced_fraction / (1 - growth)."""
    space = z.space
    d = space.types[space.position(s)].d
    return 1.0 + d * float(space.forced_row @ z.vec) / _slack(space, z.vec)


def drift(z: TypeDistribution, tuning: TuningParams) -> dict[VertexType, float]:
    """Rate of change of z per unit time: F_t = sum_s w_s z_s Delta_{s,t}."""
    if tuning.cfg != z.cfg:
        raise ConfigurationError("tuning and distribution configs differ")
    vec = drift_field(z.space, tuning.vector())(z.vec)
    return dict(zip(z.space.types, vec.tolist()))

