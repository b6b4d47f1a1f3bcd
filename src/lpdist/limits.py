"""Auxiliary LPs describing how optimal solutions respond to rhs noise.

The central objects are small linear programs that share the constraint
matrix of a base LP but relax nonnegativity on the support of a chosen
optimal vertex.  Their optimal sets are the limiting objects for scaled
perturbations of the right-hand side, so we provide exact vertex
enumeration, noise laws with a sampler for their limit form, and
difference-quotient checks.  Each law class declares its spec keys; a new
noise kind is one such class plus its entry in ``LAWS``.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import problem
from .errors import InstanceTooLarge, NotUnique
from .geometry import (
    SphereGrid,
    argmax_vertex,
    min_norm_point,
    row_norms,
    support_function,
)
from .problem import (
    BasisFamily,
    OptimalSets,
    Polytope,
    StandardLp,
    factor_covariance,
    optimal_vertices,
    ordered_dot,
    read_only,
    spec_to_dict,
    support,
)
from .simplex import solve_block


class LimitSample(NamedTuple):
    g: np.ndarray
    optimal_set: Polytope
    objective: float
    distance: float | None = None  # from the origin, when the set is one vertex


class LimitBlock(Sequence):
    """The draws of ``sample_unique_limit`` as columns, read as a sequence of
    ``LimitSample`` records: ``g``, the read-only ``(N, k)`` noise; the
    draws' ``OptimalSets`` ``sets``, with their ``points``, ``values`` and
    ``ties()`` as ``ties``; and the list ``distances``, each point's norm
    (``None`` at a tied draw).  A record, and an untied draw's one-vertex
    Polytope, is made only when it is read, so a reader that drops each
    record holds no per-draw objects; a slice is a block.  A block is not a
    list: it has no ``+`` or ``append``."""

    __slots__ = ("g", "sets", "points", "values", "ties", "distances")

    def __init__(self, g, sets: OptimalSets):
        (self.g,) = read_only(g)
        self.sets, self.points, self.values, self.ties = sets, sets.points, sets.values, sets.ties()
        self.distances = row_norms(sets.points).tolist()
        for i in self.ties:
            self.distances[i] = None

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LimitBlock(self.g[index], self.sets.take(index))
        at = range(len(self))[index]
        return LimitSample(self.g[at], self.sets.polytope(at), self.values[at], self.distances[at])

    def __iter__(self):
        # LimitSample._make without its Python-level length check
        return map(tuple.__new__, repeat(LimitSample),
                   zip(self.g, self.sets.polytopes(self.ties), self.values, self.distances))

    def statistic(self, name: str) -> np.ndarray:
        """Each draw's ``set_statistic`` about the origin: the bits of its
        record's ``distance_statistic``, or ``hausdorff`` to the origin."""
        return set_statistic(self.sets, np.zeros(self.points.shape[1]), name, self.ties)


def set_statistic(sets: OptimalSets, centre: np.ndarray, name: str, ties=None) -> np.ndarray:
    """Each row's statistic of the optimal ``sets`` about the point
    ``centre`` as one array: "distance" from ``centre`` to the set
    (``min_norm_point``), or "hausdorff", the farthest vertex's distance;
    both are a one-vertex row's norm, so only tied rows are solved.  A
    caller that keeps ``sets.ties()`` passes it as ``ties``."""
    if name not in ("distance", "hausdorff"):
        raise ValueError("statistic must be 'distance' or 'hausdorff'")
    out = row_norms(sets.points - centre)
    for row, polytope in (ties or sets.ties()).items():
        out[row] = (min_norm_point(polytope, centre)[1] if name == "distance"
                    else row_norms(polytope.vertices - centre).max())
    return out


# draws per Philox stream of a ``NoiseSampler``, whatever the block size
STREAM_ROWS = 1024
_THREAD = threading.local()


def _thread_philox() -> tuple:
    """This thread's Philox bit generator, the ``Generator`` over it, and the
    state of a freshly built one."""
    if not hasattr(_THREAD, "philox"):
        bitgen = np.random.Philox(key=0)
        _THREAD.philox = (bitgen, np.random.Generator(bitgen), bitgen.state)
    return _THREAD.philox


def _philox_key(seed: int) -> np.ndarray:
    """The key ``np.random.Philox(key=seed)`` uses, without building one
    (which would first seed a ``SeedSequence`` from the OS)."""
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be in [0, 2**128)")
    return np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)


def philox_streams(key: np.ndarray, lead: tuple, indices):
    """This thread's generator, reset in turn to the stream of each index.

    The stream of index ``i`` is ``Philox(key=seed, counter=[*lead, i])``
    for the seed whose ``_philox_key`` is ``key``; setting the state equals
    building that generator afresh, at a fraction of the cost.
    """
    bitgen, rng, fresh = _thread_philox()
    counter = np.zeros(4, dtype=np.uint64)
    counter[:3] = lead
    state = dict(fresh, state={"counter": counter, "key": key})
    for index in indices:
        counter[3] = index
        bitgen.state = state
        yield rng


def _one_row(law, truth_b, n, rate, rng) -> np.ndarray:
    """A law's ``sample``: row 0 of its ``sample_rows`` on the one stream ``rng``.

    ``sample_rows(truth_b, n, rate, streams)`` is a law's finite-sample
    form: the rhs of each generator of ``streams``, in order, as the rows of
    an array.  It takes each generator once, in turn, and draws from it only
    that row's variates before it asks for the next; it then transforms all
    rows at once, by sums in a fixed order, so a row's bits depend on its
    stream alone."""
    return law.sample_rows(truth_b, n, rate, (rng,))[0]


class GaussianLaw:
    """Centred Gaussian noise with covariance ``sigma``, placed on the
    ``support_indices`` of a rhs (of ``dim`` coordinates in a limit row).
    The finite-sample rhs is the truth plus the noise over the rate, so it
    matches the limit law exactly."""

    kind = "gaussian"
    spec_keys = {kind: (("sigma",), ("support_indices",))}
    to_dict = spec_to_dict

    def __init__(self, sigma, support_indices=None, dim=None):
        dim = None if dim is None else int(dim)
        self.sigma, self._chol, self.support_indices = factor_covariance(
            sigma, support_indices, dim)
        r = len(self.sigma)
        self.dim = r if dim is None else dim
        if self.support_indices is None and self.dim != r:
            raise ValueError("dim without support_indices must match the covariance")
        self._place = list(self.support_indices or range(r))

    sample = _one_row

    def sample_rows(self, truth_b, n, rate, streams) -> np.ndarray:
        r = len(self._chol)
        z = np.array([rng.standard_normal(r) for rng in streams]).reshape(-1, r)
        shift = np.zeros((len(z), len(truth_b)))
        self._correlate(z, shift)
        return np.asarray(truth_b, dtype=float) + shift / rate

    def limit_block(self, rng, out: np.ndarray):
        self._correlate(rng.standard_normal((len(out), len(self._chol))), out)

    def _correlate(self, z: np.ndarray, out: np.ndarray):
        """The Cholesky product of each row of the normals ``z``, placed on
        the support in its row of ``out``."""
        out[:, self._place] = ordered_dot(z[:, None, :], self._chol)

    def limit_noise(self, seed, dim) -> "NoiseSampler":
        return NoiseSampler(GaussianLaw(self.sigma, self.support_indices, dim), seed)


class MultinomialLaw:
    """Frequencies ``counts / n`` of a multinomial(n, p) draw, then the fixed
    coordinates ``tail``.  The limit of sqrt(n) * (frequencies - p) is a
    centred Gaussian with covariance diag(p) - p p^T, zero on the tail, in
    ``dim`` coordinates: ``pad_to`` if given, else ``len(p) + len(tail)``.
    A "multinomial_marginal" spec names the tail, a "multinomial_clt" spec
    ``pad_to``; ``kind`` is the latter exactly when ``pad_to`` is set."""

    spec_keys = {"multinomial_marginal": (("probabilities",), ("tail",)),
                 "multinomial_clt": (("probabilities",), ("pad_to",))}
    to_dict = spec_to_dict

    def __init__(self, probabilities, tail=(), pad_to=None):
        self.probabilities = np.array(probabilities, dtype=float)
        if self.probabilities.min() < 0 or abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to one")
        self.tail = np.array(tail, dtype=float)
        self.pad_to = None if pad_to is None else int(pad_to)
        if self.pad_to is not None and len(self.tail):
            raise ValueError("give the tail or pad_to, not both")
        self.dim = len(self.probabilities) + len(self.tail) if pad_to is None else self.pad_to
        if self.dim < len(self.probabilities):
            raise ValueError("pad_to is smaller than the probability vector")
        self._root = np.sqrt(self.probabilities)

    @property
    def kind(self) -> str:
        return "multinomial_marginal" if self.pad_to is None else "multinomial_clt"

    sample = _one_row

    def sample_rows(self, truth_b, n, rate, streams) -> np.ndarray:
        p = self.probabilities
        counts = np.array([rng.multinomial(int(n), p) for rng in streams]).reshape(-1, len(p))
        out = np.empty((len(counts), len(p) + len(self.tail)))
        out[:, :len(p)] = counts / float(n)
        out[:, len(p):] = self.tail
        return out

    def limit_block(self, rng, out: np.ndarray):
        # root * z - p * (root @ z) for iid normals z has the limit covariance
        p, root = self.probabilities, self._root
        z = rng.standard_normal((len(out), len(p)))
        out[:, : len(p)] = root * z - p * ordered_dot(z, root)[:, None]

    def limit_noise(self, seed, dim) -> "NoiseSampler":
        pad_to = dim if self.pad_to is None else self.pad_to
        return NoiseSampler(MultinomialLaw(self.probabilities, pad_to=pad_to), seed)


class EmpiricalLaw:
    """Noise drawn uniformly from the rows of ``vectors``, with no finite-sample form."""

    kind = "empirical"
    spec_keys = {kind: (("vectors",), ())}
    to_dict = spec_to_dict

    def __init__(self, vectors):
        self.vectors = np.array(vectors, dtype=float)
        if self.vectors.ndim != 2 or not len(self.vectors):
            raise ValueError("empirical sampler needs a nonempty 2-d array")
        self.dim = self.vectors.shape[1]

    def limit_block(self, rng, out: np.ndarray):
        out[:] = self.vectors[rng.integers(len(self.vectors), size=len(out))]

    def limit_noise(self, seed, dim) -> "NoiseSampler":
        return NoiseSampler(self, seed)


LAWS = {name: cls for cls in (GaussianLaw, MultinomialLaw, EmpiricalLaw)
        for name in cls.spec_keys}


class NoiseSampler:
    """Deterministic per-index draws from the limit form of a noise law.

    Draw ``i`` is row ``i % STREAM_ROWS`` of the law's ``limit_block(rng,
    out)`` on the Philox generator keyed by the seed at counter ``[0, 0, 1,
    i // STREAM_ROWS]``.  A law fills ``out`` in one vectorised call, in row
    order, so a stream's first rows do not depend on how many follow: a draw
    depends only on its index, not on order, block size or parallelism.
    Threads may share a sampler: each draws on a generator of its own.  The
    law's attributes (``kind``, ``sigma``, ...) are read on ``law``.
    """

    def __init__(self, law, seed):
        if not hasattr(law, "limit_block"):
            raise ValueError(f"not a noise law: {law!r}")
        self.law = law
        self.seed = int(seed)
        self._key = _philox_key(self.seed)

    def draw_block(self, start: int, count: int) -> np.ndarray:
        """Draws ``start, ..., start + count - 1`` as the rows of an array;
        each stream they touch is drawn up to the last row asked of it.
        Raises ``ValueError`` when ``start`` or ``count`` is negative."""
        if start < 0 or count < 0:
            raise ValueError(f"{'start' if start < 0 else 'count'} must be nonnegative")
        out = np.zeros((count, self.law.dim))
        blocks = range(start // STREAM_ROWS, -(-(start + count) // STREAM_ROWS)) if count else ()
        for block, rng in zip(blocks, philox_streams(self._key, (0, 0, 1), blocks)):
            base = block * STREAM_ROWS
            rows = np.zeros((min(start + count - base, STREAM_ROWS), self.law.dim))
            self.law.limit_block(rng, rows)
            out[max(base - start, 0):base + len(rows) - start] = rows[max(start - base, 0):]
        return out

    def draw(self, index: int) -> np.ndarray:
        return self.draw_block(index, 1)[0]


def _check_unique(lp: StandardLp, x_star: np.ndarray):
    """Raise ``NotUnique`` unless ``x_star`` is the one optimal vertex of ``lp``."""
    polytope, _ = optimal_vertices(lp)
    if len(polytope) != 1:
        raise NotUnique(f"optimal set has {len(polytope)} vertices")
    if np.abs(polytope.vertices[0] - x_star).max() > problem.residual_tol(x_star):
        raise NotUnique("x_star is not the optimal vertex of the LP")


def split_free(lp: StandardLp, free) -> tuple:
    """The response program of ``lp`` with the columns ``free`` free in sign,
    as ``(split, free_order)``: ``split`` is a ``StandardLp`` with rhs zero
    whose column ``m + j`` is the negated copy of the ``j``-th free column in
    the sorted list ``free_order``."""
    free = sorted(free)
    return StandardLp(np.hstack([lp.A, -lp.A[:, free]]), np.zeros(lp.k),
                      np.concatenate([lp.c, -lp.c[free]])), free


def _unsplit(sets: OptimalSets, free: list, lp: StandardLp) -> OptimalSets:
    """The ``OptimalSets`` of ``lp`` with the columns ``free`` free in sign
    behind ``sets``, those of its split program (``split_free``), or the
    error ``sets.check()`` raises: each row's mixed-sign point, its
    objective, and its basis with each negated copy read as its column."""
    m, split = lp.m, sets.check().points
    points = split[:, :m].copy()
    points[:, free] -= split[:, m:]
    column = np.arange(m + len(free))
    column[m:] = free
    bases = np.sort(column[sets.bases], axis=1)
    return OptimalSets(read_only(points)[0], [float(lp.c @ x) for x in points], bases, [], {})


class AuxVertexEnumerator:
    """Exact optimal-vertex sets of a mixed-sign LP, reusable across rhs.

    Vertices are basic solutions at column sets of size k that contain every
    free index: the ``BasisFamily`` of ``a`` with the free indices fixed.
    Its inverses and its dual feasible mask depend only on the matrix and
    the cost, so one instance serves many right-hand sides cheaply; at one
    where the program is feasible but no basis is dual feasible, the
    program is unbounded below and ``optimal_set`` raises ``Unbounded``.
    """

    def __init__(self, a: np.ndarray, c: np.ndarray, free_indices):
        self.family = BasisFamily(a, fixed=free_indices)
        self.c = np.asarray(c, dtype=float)
        y, _, dual_feasible = problem._family_duals(self.family, self.c)
        self._duals = (y, dual_feasible, None)

    def optimal_set(self, rhs: np.ndarray) -> tuple:
        """(Polytope of optimal vertices, optimal value) for this rhs."""
        sets = problem.block_sets(self.family, self.c, np.asarray(rhs, dtype=float).reshape(1, -1),
                                  self._duals).check()
        return sets.polytope(0), sets.values[0]


def sample_unique_limit(lp: StandardLp, x_star: np.ndarray, sampler: NoiseSampler,
                        n_draws: int, *, verify_unique: bool = False) -> LimitBlock:
    """Draw rhs noise and collect the optimal sets of the response LP in a
    ``LimitBlock``.

    All draws go to one kernel call, which slices its solves by
    ``problem.SOLVE_CELLS``; sample ``i`` depends only on the sampler and
    ``i``, not on ``n_draws`` or the slices.  Each optimal set is exact, by
    vertex enumeration (``block_sets``), unless the response LP has more
    candidate bases than ``problem.ENUM_CAP``; then each draw gets the one
    optimal vertex a simplex solve finds (one ``solve_block`` call).  The
    response LP is unbounded below exactly when ``x_star`` is not optimal,
    and both paths then raise ``Unbounded`` at a feasible draw, and return
    an empty block at zero draws: the family path finds no basis holding
    ``supp(x_star)`` dual feasible, the split path no blocking row.  Both
    raise through ``OptimalSets.check``, so an infeasible draw raises its
    ``Infeasible`` first.

    With ``verify_unique`` the optimal set of ``lp`` is enumerated and
    ``NotUnique`` is raised unless it is the single vertex ``x_star``.
    Without it ``x_star`` is trusted: when it is one of several optimal
    vertices, the response set has optimal rays, yet each draw reports one
    vertex.
    """
    if n_draws < 0:
        raise ValueError(f"n_draws must be nonnegative, not {n_draws}")
    x_star = np.asarray(x_star, dtype=float)
    if verify_unique:
        _check_unique(lp, x_star)
    free = support(x_star)
    g = sampler.draw_block(0, n_draws)
    try:
        enum = AuxVertexEnumerator(lp.A, lp.c, free)
    except InstanceTooLarge:  # raised before any block is factored
        split, free_order = split_free(lp, free)
        sets = _unsplit(solve_block(split, g), free_order, lp)
    else:
        sets = problem.block_sets(enum.family, enum.c, g, enum._duals).check()
    return LimitBlock(g, sets)


def distance_statistic(sample: LimitSample) -> float:
    """Euclidean distance from the origin to the sampled optimal set, or the
    ``distance`` the sample carries."""
    if sample.distance is not None:
        return sample.distance
    verts = sample.optimal_set.vertices
    if len(verts) == 1:
        # what np.linalg.norm computes for a vector, without its dispatch
        return math.sqrt(verts[0] @ verts[0])
    return min_norm_point(sample.optimal_set, np.zeros(verts.shape[1]))[1]


def limit_support_function(lp: StandardLp, g: np.ndarray, grid: SphereGrid) -> tuple:
    """Support values of the directional response sets over a sphere grid.

    Directions where the base LP's maximizing vertex is tied (within
    ``geometry.TIE_TOL``) are excluded and returned separately; elsewhere the value
    is the support function of the optimal set of the response LP at the
    tie-free vertex.
    """
    polytope, _ = optimal_vertices(lp)
    g = np.asarray(g, dtype=float)
    responses = {}
    pairs = []
    excluded = []
    for direction in grid.directions:
        vertex, unique = argmax_vertex(polytope, direction)
        if not unique:
            excluded.append(direction)
            continue
        # the response set depends on the direction only through the support key
        key = support(vertex)
        if key not in responses:
            responses[key], _ = AuxVertexEnumerator(lp.A, lp.c, key).optimal_set(g)
        pairs.append((direction, support_function(responses[key], direction)))
    return pairs, excluded


def hadamard_quotient_check(lp: StandardLp, xi: np.ndarray, t: float,
                            grid: SphereGrid) -> float:
    """Max gap between the difference quotient at step ``t`` and the
    directional limit values.

    The optimal-set support function of the LP with rhs ``b + t*xi`` is
    compared against the first-order prediction over ``grid``; the gap
    should vanish once ``t`` is inside the stability radius.  Raises
    ``ValueError`` unless ``t`` is positive and finite.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"the step must be positive and finite, not {t}")
    xi = np.asarray(xi, dtype=float)
    base_set, _ = optimal_vertices(lp)
    pairs, _ = limit_support_function(lp, xi, grid)
    shifted, _ = optimal_vertices(lp.with_rhs(lp.b + t * xi))
    worst = 0.0
    for direction, limit_value in pairs:
        quotient = (support_function(shifted, direction)
                    - support_function(base_set, direction)) / t
        worst = max(worst, abs(quotient - limit_value))
    return worst
