"""Standard-form linear programs and exhaustive basis enumeration.

A program is ``min <c, x>  subject to  A x = b, x >= 0`` with ``A`` of full
row rank.  Everything here is deliberately desk-scale: bases are enumerated
outright, which is what makes the enumeration usable as an oracle against
iterative solvers.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import mmap
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    Infeasible,
    InstanceTooLarge,
    NonFiniteData,
    SingularBasis,
    SingularCovariance,
    Unbounded,
)

_GETRF = get_lapack_funcs("getrf", (np.zeros((1, 1)),))
_GETRS = get_lapack_funcs("getrs", (np.zeros((1, 1)),))


def quiet_lu(block: np.ndarray):
    """``scipy.linalg.lu_factor(block, check_finite=False)`` for a float64
    block, minus the wrapper and its singular-matrix warning: the same
    LAPACK ``getrf`` call, so the same bits.  Callers test the diagonal."""
    if block.size == 0:  # LAPACK rejects an empty matrix; lu_factor does this
        return np.empty_like(block), np.arange(0, dtype=np.int32)
    lu, piv, _ = _GETRF(block)
    return lu, piv


def solve_factored(factors, rhs: np.ndarray, at=None, trans: int = 0) -> np.ndarray:
    """Solve each factored block of ``factors`` (``(lu, piv)`` pairs from
    ``quiet_lu``) for the rows ``at`` of the ``(N, k)`` array ``rhs`` (all
    rows when ``at`` is None): entry ``[i, j]`` of the result is
    ``A_i^{-1} rhs[at[j]]``, or ``A_i^{-T} rhs[at[j]]`` with ``trans=1``.
    Every ``getrs`` call of the package comes here, one per block.  OpenBLAS
    solves a lone column with another kernel than a block, so a lone row goes
    in twice and its result does not depend on its block.
    """
    rows = rhs if at is None else rhs.take(at, axis=0)
    count = len(rows)
    # one (width, k) slab per block, solved in place: its transpose is the
    # Fortran-ordered block getrs takes; rows taken for one block already are
    if at is not None and count > 1 and len(factors) == 1:
        slabs = rows[None]
    else:
        slabs = np.empty((len(factors), max(count, 2), rows.shape[1]))
        slabs[:] = rows
    for (lu, piv), slab in zip(factors, slabs):
        _GETRS(lu, piv, slab.T, trans, 1)  # overwrite_b=1
    return slabs[:, :count]


def solve_lu(lu_piv, rhs, trans: int = 0) -> np.ndarray:
    """``scipy.linalg.lu_solve(lu_piv, rhs, trans)`` for a vector or a
    ``(k, n)`` matrix ``rhs``, through ``solve_factored``."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim == 1:
        return solve_factored((lu_piv,), rhs[None, :], trans=trans)[0, 0]
    return solve_factored((lu_piv,), rhs.T, trans=trans)[0].T


# entries of the product over n^2, for sums of n terms, up to which
# ``ordered_dot`` forms the whole product
ORDERED_WHOLE = 16


def ordered_dot(a, b) -> np.ndarray:
    """The sum over ``j`` of ``a[..., j] * b[..., j]``, the other axes
    broadcast, added in index order, so no entry's bits depend on another's
    (a BLAS product or ``sum`` picks its order by the shape).  A product of
    at most ``ORDERED_WHOLE * n * n`` entries, for sums of ``n`` terms, is
    formed whole and summed by one accumulate; a larger one a column at a
    time, in memory of the result's size; the bits are the same.  The
    product has at most ``a.size * b.size / n`` and at least ``max(a.size,
    b.size)`` entries, so most calls skip counting them."""
    n = a.shape[-1]
    whole = ORDERED_WHOLE * n * n
    if a.size * b.size <= whole * n or (max(a.size, b.size) <= whole
                                        and np.broadcast(a, b).size <= whole):
        return np.add.accumulate(a * b, axis=-1)[..., -1]
    out = a[..., 0] * b[..., 0]
    for j in range(1, n):
        out += a[..., j] * b[..., j]
    return out


# The LP tolerances and the enumeration cap, each written once here and read
# when a call runs, never bound as a default.  The constants are absolute;
# each function scales with the magnitudes it is given.
FEAS_TOL = 1e-9  # a coordinate >= -FEAS_TOL is feasible, one above it in the support
DEDUP_TOL = 1e-8  # vertices this close in the max norm are one vertex
ENUM_CAP = 10**6  # most column blocks one enumeration may try


def invertible_tol(A) -> float:
    """A block of ``A`` is invertible when every LU pivot exceeds this; the
    floor, the smallest normal float, keeps each pivot's reciprocal finite."""
    return max(1e-10 * np.abs(A).max(initial=0.0), 2.2250738585072014e-308)


def pivot_tol(A) -> float:
    """A column's coordinate in a basis of ``A`` above this can pivot."""
    return 1e-10 * (1.0 + np.abs(A).max(initial=0.0))


def reduced_cost_tol(c) -> float:
    """A reduced cost below minus this improves; one within it of zero ties."""
    return 1e-9 * (1.0 + np.abs(c).max(initial=0.0))


def tie_tol(best):
    """A feasible basis within this above the optimal value ``best`` ties it."""
    return 1e-8 * (1.0 + np.abs(best))


def symmetry_tol(sigma) -> float:
    """A covariance entry may differ from its transpose's by this."""
    return 1e-10 * np.abs(sigma).max(initial=0.0)


def residual_tol(*arrays, axis=None):
    """The residual an equality or a membership test may keep; the largest
    magnitudes of ``arrays`` are added to 1 left to right.  With ``axis``,
    the largest along it: one tolerance per entry of the other axes."""
    total = 1.0
    for arr in arrays:
        total += np.abs(arr).max(axis=axis, initial=0.0)
    return 1e-7 * total


# entries one basis cache keeps; the oldest is dropped past this
CACHE_SIZE = 512


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def read_only(*arrays) -> tuple:
    """Mark ``arrays`` read-only in place and return them as a tuple."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class BasisCache:
    """Bounded memo of data that depends on ``(A, c)`` and a basis, never on ``b``.

    One cache belongs to each program built by ``StandardLp`` and is shared by
    every program derived from it with ``with_rhs``, so a Monte Carlo loop
    that only changes the right-hand side factors each visited basis once.
    Values are computed exactly as without the cache and stored read-only;
    failures are not stored.  Past ``CACHE_SIZE`` entries the oldest goes.
    The three enumeration memos are not entries and are never dropped.
    """

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()
        self.lookups = 0
        self.misses = 0
        # memos of the all-column enumeration, kept apart from the bounded
        # entries: the program's ``BasisFamily`` (see ``program_family``), its
        # dual vectors (see ``program_duals``) and ``stability_report``'s
        # b-free half
        self.family = None
        self.duals = None
        self.stability = None

    def __len__(self):
        return len(self._entries)

    def get(self, key, build):
        """The entry under ``key``, made by ``build()`` on a miss."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = build()
            with self._lock:
                while len(self._entries) >= CACHE_SIZE:
                    del self._entries[next(iter(self._entries))]
                self._entries[key] = entry
        return entry


class StandardLp:
    """Immutable standard-form program with validated shape and rank."""

    def __init__(self, A, b, c, *, drop_redundant_rows: bool = False):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        c = np.asarray(c, dtype=float).ravel()
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        k, m = A.shape
        if b.shape != (k,):
            raise ValueError(f"b has length {b.size}, expected {k}")
        if c.shape != (m,):
            raise ValueError(f"c has length {c.size}, expected {m}")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            _check_finite(name, arr)
        if drop_redundant_rows:
            A, b = _independent_rows(A, b)
            k = A.shape[0]
        if k == 0:
            raise ValueError("A has no rows")
        if k > m:
            raise ValueError(f"more rows ({k}) than columns ({m})")
        self.rank_tol = invertible_tol(A)
        if len(greedy_columns(A, (), self.rank_tol)) < k:
            raise ValueError("A does not have full row rank")
        self.A = _frozen(A)
        self.b = _frozen(b)
        self.c = _frozen(c)
        self.k = k
        self.m = m
        self.basis_cache = BasisCache()
        # what depends on this program's own b: "points" (``basic_points``),
        # "optimal" (``optimal_vertices``) and "stability" (``stability_report``'s
        # b-half), each kept by its first call; never shared, since b is not
        self.at_b: dict = {}

    def with_rhs(self, b) -> "StandardLp":
        """Same constraint matrix and objective, different right-hand side.

        The new program shares this one's ``A``, ``c``, rank check and basis
        cache, so the rank is not computed again; its ``at_b`` memo starts
        empty, since everything in it depends on ``b``.
        """
        b = np.asarray(b, dtype=float).ravel()
        if b.shape != (self.k,):
            raise ValueError(f"b has length {b.size}, expected {self.k}")
        _check_finite("b", b)
        lp = object.__new__(type(self))
        lp.__dict__.update(self.__dict__)
        lp.b = _frozen(b)
        lp.at_b = {}
        return lp

    def __repr__(self):
        return f"StandardLp(k={self.k}, m={self.m})"


def _check_finite(name: str, arr: np.ndarray):
    """Raise ``NonFiniteData`` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteData(f"{name} holds NaN or infinity")


def check_support(indices, dim: int | None = None):
    """Raise ``ValueError`` unless the entries of ``indices`` (a region's or
    noise law's ``support_indices``, or ``None``) are distinct and, when
    ``dim`` is given, rows of a ``dim``-row program."""
    indices = list(indices or ())
    repeated = sorted({i for i in indices if indices.count(i) > 1})
    if repeated:
        raise ValueError(f"support_indices {repeated} repeat")
    outside = [i for i in indices if dim is not None and not 0 <= i < dim]
    if outside:
        raise ValueError(f"support_indices {outside} are not rows of a {dim}-row program")


def factor_covariance(sigma, support_indices=None, dim: int | None = None) -> tuple:
    """``(sigma, chol, support)``: a covariance as a float array, its
    Cholesky factor, and the ``support_indices`` it sits on as a tuple of
    ints, or None.  ``ValueError`` unless the covariance is finite, square
    and symmetric within ``symmetry_tol``, and the support has one index
    per row of it that ``check_support`` passes with ``dim``;
    ``SingularCovariance`` unless it is positive definite."""
    sigma = np.array(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("covariance must be a square matrix")
    _check_finite("covariance", sigma)
    if np.abs(sigma - sigma.T).max(initial=0.0) > symmetry_tol(sigma):
        raise ValueError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance is not positive definite") from exc
    if support_indices is not None:
        support_indices = tuple(int(i) for i in support_indices)
        if len(support_indices) != len(sigma):
            raise ValueError("support size must match the covariance")
        check_support(support_indices, dim)
    return sigma, chol, support_indices


def _invertible(lu: np.ndarray, tol: float) -> bool:
    return all(abs(pivot) > tol for pivot in lu.diagonal().tolist())


def greedy_columns(A: np.ndarray, start, tol: float):
    """The sorted ``start`` grown, in index order, by each column of ``A``
    that keeps every LU pivot of the block above ``tol`` (the rule of
    ``iter_bases``), up to as many columns as ``A`` has rows; ``None`` when
    ``start`` itself fails.  This is the package's one rank rule."""
    k, m = A.shape
    chosen = sorted(start)
    if len(chosen) > k or not _invertible(quiet_lu(A[:, chosen])[0], tol):
        return None
    for j in range(m):
        if len(chosen) == k:
            break
        if j not in chosen and _invertible(quiet_lu(A[:, trial := sorted(chosen + [j])])[0], tol):
            chosen = trial
    return chosen


def _independent_rows(A: np.ndarray, b: np.ndarray):
    """Keep a maximal independent row subset; reject inconsistent duplicates."""
    keep = greedy_columns(A.T, (), invertible_tol(A))
    dropped = [i for i in range(A.shape[0]) if i not in keep]
    if dropped:
        # each dropped row is a combination of the kept ones; its rhs must match
        coeff, *_ = np.linalg.lstsq(A[keep].T, A[dropped].T, rcond=None)
        implied = coeff.T @ b[keep]
        if np.abs(implied - b[dropped]).max() > residual_tol(b):
            raise Infeasible("redundant rows have inconsistent right-hand sides")
    return A[keep], b[keep]


@dataclass(frozen=True, order=True)
class Basis:
    """A sorted tuple of column indices selecting an invertible square block."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("basis indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class BasicSolution:
    basis: Basis
    x: np.ndarray
    feasible: bool
    degenerate: bool


class Polytope:
    """A finite vertex set, as the read-only rows of ``vertices`` in
    lexicographic order; of vertices within ``DEDUP_TOL`` of each other in
    the max norm the first is kept (``_keep_first``)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        arr = np.asarray(vertices, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, arr.shape[-1] if arr.ndim == 2 else 0)
        if arr.ndim != 2:
            raise ValueError("vertices must form a 2-d array")
        self.vertices = _sorted_rows(arr[_keep_first(arr[None])[0]] if len(arr) else arr)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __len__(self):
        return self.vertices.shape[0]

    def __repr__(self):
        return f"Polytope({len(self)} vertices, dim={self.dim})"


def _one_vertex(vertex: np.ndarray) -> Polytope:
    """The Polytope of the one vertex in the read-only ``(1, m)`` array
    ``vertex``, which it keeps as its ``vertices``, not copied."""
    polytope = object.__new__(Polytope)
    polytope.vertices = vertex
    return polytope


def _sorted_rows(kept: np.ndarray) -> np.ndarray:
    """A new read-only array of the rows of the ``(t, m)`` array ``kept`` in
    lexicographic order.  Python's stable sort of the rows as lists gives
    the order of ``np.lexsort`` on the columns, at less cost for few rows."""
    return read_only(kept[sorted(range(len(kept)), key=kept.tolist().__getitem__)])[0]


def _lexsorted(kept: np.ndarray) -> Polytope:
    """The Polytope of the ``(t, m)`` array ``kept``, whose rows are
    distinct under ``Polytope``'s rule already."""
    polytope = object.__new__(Polytope)
    polytope.vertices = _sorted_rows(kept)
    return polytope


@functools.lru_cache(maxsize=128)
def _below(t: int) -> np.ndarray:
    """The read-only ``(t, t)`` mask of the entries below the diagonal."""
    return read_only(np.tri(t, k=-1, dtype=bool))[0]


def _keep_first(vertices: np.ndarray) -> np.ndarray:
    """The dedup rule of ``Polytope`` and of the tie rule, for each row of
    the ``(G, t, m)`` block ``vertices``: the ``(G, t)`` mask of the
    vertices kept, in order, each unless it lies within ``DEDUP_TOL`` in
    the max norm of a vertex kept before it."""
    t = vertices.shape[1]
    # earlier[g, j, i]: vertex i of row g comes before vertex j and is close to it
    earlier = np.abs(vertices[:, :, None] - vertices[:, None]).max(axis=3) <= DEDUP_TOL
    earlier &= _below(t)
    keep = ~earlier.any(axis=2)
    # that is the rule's mask unless a vertex's only close earlier vertices
    # were dropped themselves, as in a chain a ~ b ~ c; then go one at a time
    if not keep.all() and not (keep | (earlier & keep[:, None, :]).any(axis=2)).all():
        for j in range(1, t):
            keep[:, j] = ~(earlier[:, j] & keep).any(axis=1)
    return keep


def factor_columns(lp: StandardLp, indices) -> tuple:
    """LU-factor ``A`` restricted to ``indices``; raise if not invertible."""
    sub = lp.A[:, list(indices)]
    if sub.shape[0] != sub.shape[1]:
        raise SingularBasis(f"column set {tuple(indices)} is not square")
    lu, piv = quiet_lu(sub)
    if not _invertible(lu, lp.rank_tol):
        raise SingularBasis(f"columns {tuple(indices)} are singular")
    return lu, piv


def cached_factors(lp: StandardLp, indices: tuple) -> tuple:
    """``factor_columns`` through the program's basis cache."""
    return lp.basis_cache.get(("lu", indices), lambda: read_only(*factor_columns(lp, indices)))


def basic_solution(lp: StandardLp, basis: Basis) -> BasicSolution:
    """Solve for the basic point of ``basis``: x_B = A_B^{-1} b, zero elsewhere."""
    if len(basis) != lp.k:
        raise SingularBasis(f"basis size {len(basis)} != row count {lp.k}")
    x_b = solve_lu(factor_columns(lp, basis.indices), lp.b)
    x = np.zeros(lp.m)
    x[list(basis.indices)] = x_b
    feasible = bool(x_b.min(initial=0.0) >= -FEAS_TOL)
    degenerate = feasible and bool(np.any(np.abs(x_b) <= FEAS_TOL))
    return BasicSolution(basis=basis, x=x, feasible=feasible, degenerate=degenerate)


def support(x) -> frozenset:
    """Indices whose magnitude exceeds ``FEAS_TOL``."""
    x = np.asarray(x, dtype=float)
    return frozenset(int(i) for i in np.flatnonzero(np.abs(x) > FEAS_TOL))


def iter_bases(A, *, fixed=()):
    """``(cols, lu_piv)`` for every invertible square block of ``A`` made of
    the ``fixed`` columns plus ``k - len(fixed)`` of the other columns.

    Combinations of the other columns come in lexicographic order, each
    merged with ``fixed`` into the sorted tuple ``cols``.  A block is
    invertible when every LU pivot exceeds ``invertible_tol(A)`` in
    magnitude, the rule ``factor_columns`` applies.
    Raises ``InstanceTooLarge`` before factoring anything when more than
    ``ENUM_CAP`` blocks would be tried.
    """
    A = np.asarray(A, dtype=float)
    k, m = A.shape
    fixed = sorted(int(j) for j in fixed)
    if len(fixed) > k:
        raise ValueError(f"{len(fixed)} fixed columns exceed the {k} rows")
    others = [j for j in range(m) if j not in fixed]
    _check_cap(math.comb(len(others), k - len(fixed)))
    tol = invertible_tol(A)
    for extra in itertools.combinations(others, k - len(fixed)):
        cols = tuple(sorted(fixed + list(extra))) if fixed else extra
        lu_piv = quiet_lu(A.take(cols, axis=1))
        if _invertible(lu_piv[0], tol):
            yield cols, lu_piv


def _check_cap(total: int):
    if total > ENUM_CAP:
        raise InstanceTooLarge(f"{total} candidate bases exceed the cap of {ENUM_CAP}")


# bases times rows ``block_sets`` solves in one block at most
SOLVE_CELLS = 2**15
# inverse entries (bases times k^2) of a program family above which
# ``optimal_vertices`` takes its dual window; below, solving every basis costs less
WINDOW_CELLS = 2**14
# bases whose inverses one identity solve makes while a family is built
INVERSE_BLOCK = 64
# numpy advises huge pages for arrays this large, so a stack's room is mapped
MAPPED_BYTES = 2**22


class BasisFamily:
    """The invertible bases of ``A`` that hold the ``fixed`` columns, in the
    order of ``iter_bases``: their sorted columns as the rows of the index
    array ``cols``, and their inverses in the read-only ``(N, k, k)`` stack
    ``inverses``, each ``solve_factored`` of its LU factors on the identity,
    laid out so that each ``inverses[:, :, j]`` is one contiguous block.  They
    depend on ``A`` alone, so one family serves every right-hand side and
    objective.  Raises ``Infeasible`` when no basis holds the fixed columns.
    """

    def __init__(self, A, fixed=()):
        self.A = np.asarray(A, dtype=float)
        self.fixed = sorted(int(j) for j in fixed)
        k, m = self.A.shape
        # room for every block iter_bases tries: stack[j] holds column j of
        # each inverse in its first rows, and the rest is never touched
        _check_cap(room := math.comb(m - len(set(self.fixed)), max(k - len(self.fixed), 0)))
        size = 8 * room * k * k
        stack = np.frombuffer(mmap.mmap(-1, size)) if size >= MAPPED_BYTES else np.empty(size // 8)
        stack, cols = stack.reshape(k, room, k), []
        bases = iter_bases(self.A, fixed=self.fixed)
        while block := list(itertools.islice(bases, INVERSE_BLOCK)):
            # row j of a slab solves e_j, so it is column j of the inverse
            slab = solve_factored([lu_piv for _, lu_piv in block], np.eye(k))
            stack[:, len(cols):len(cols) + len(block)] = slab.transpose(1, 0, 2)
            cols += [basis for basis, _ in block]
        if not cols:
            raise Infeasible("no invertible column set contains the fixed columns")
        self.cols = read_only(np.array(cols, dtype=np.intp))[0]
        stack = read_only(stack[:, :len(cols)])[0]
        self.inverses = stack.transpose(1, 2, 0)
        # rows up to this in magnitude keep every product solve within 1e-12
        self._room = 1e-12 / (k * k * np.finfo(float).eps * max(stack.max(), -stack.min()))
        # which coordinates of each basis are held to the sign constraint
        signed = np.ones(m, dtype=bool)
        signed[self.fixed] = False
        self._signed = signed[self.cols][:, :, None]

    def __len__(self):
        return len(self.cols)

    def take(self, at) -> "BasisFamily":
        """The bases ``at`` of this family, in that order, as a family of
        their own: ``solve`` and ``_optimal_block`` give each the bits this
        family gives it."""
        part = object.__new__(type(self))
        part.__dict__.update(self.__dict__)
        part.cols, part.inverses, part._signed = self.cols[at], self.inverses[at], self._signed[at]
        return part

    def solve(self, rows: np.ndarray) -> np.ndarray:
        """Entry ``[i, r]`` is ``A_i^{-1} rows[r]``: the ``ordered_dot`` of
        ``rows[r]`` with the rows of the inverse, or the ``getrs`` solve
        where that sum's error bound ``k^2 eps max|A_i^{-1}| max|rows[r]|``
        passes ``1e-12``: such a basis is factored once, and all of its rows
        go to one ``solve_factored`` call, which solves a lone row as two.
        Its bits do not depend on the other rows."""
        rows = np.asarray(rows, dtype=float)
        out = ordered_dot(rows[:, None, None, :], self.inverses)
        if np.abs(rows).max(initial=0.0) > self._room:
            peaks = np.abs(self.inverses).max(axis=(1, 2)) * len(self.A) ** 2 * np.finfo(float).eps
            loose = np.multiply.outer(np.abs(rows).max(axis=1), peaks) > 1e-12
            for i in loose.any(axis=0).nonzero()[0]:
                at = loose[:, i].nonzero()[0]
                lu_piv = quiet_lu(self.A.take(self.cols[i], axis=1))
                out[at, i] = solve_factored((lu_piv,), rows, at)[0]
        return out.transpose(1, 0, 2)

    def _optimal_block(self, c, x: np.ndarray) -> tuple:
        """The fields of ``OptimalSets`` for finite ``rows`` solved into ``x =
        self.solve(rows)``, by the rule of ``block_sets``, the groups' rows
        and the errors' keys numbered in ``rows``: the ``Infeasible`` or
        ``NonFiniteData`` of each row with no optimal value."""
        # a signed coordinate below -FEAS_TOL makes the basis infeasible
        infeasible = np.matmul(x < -FEAS_TOL, self._signed)[:, :, 0]
        values = np.add.reduce(x * c[self.cols][:, None, :], axis=2)  # objectives
        values[infeasible] = math.inf
        winner = values.argmin(axis=0)
        best = values.min(axis=0)
        errors = {}
        if not np.isfinite(best).all():
            empty, failed = infeasible.all(axis=0), np.flatnonzero(~np.isfinite(best))
            errors = {row: Infeasible("no feasible basis") if empty[row] else
                      NonFiniteData("an objective value overflowed") for row in failed.tolist()}
            best[failed] = 0.0  # so that its row's comparisons below stay quiet
        tied = values - best <= tie_tol(best)
        if errors:
            tied[:, list(errors)] = False
        points, every = np.zeros((x.shape[1], self.A.shape[1])), np.arange(x.shape[1])
        bases = self.cols[winner]
        points[every[:, None], bases] = x[winner, every]
        groups = []
        if np.count_nonzero(tied) > x.shape[1] - len(errors):  # some row ties
            multi = (tied.sum(axis=0) > 1).nonzero()[0]
            for pattern, rows in group_rows(tied[:, multi].T, multi):
                at = pattern.nonzero()[0]
                cols = self.cols[at]
                vertices = np.zeros((len(rows), len(at), self.A.shape[1]))
                vertices[:, np.arange(len(at))[:, None], cols] = \
                    x[at[:, None], rows].transpose(1, 0, 2)
                keep = _keep_first(vertices)
                if keep.all():
                    groups.append((rows, vertices, cols, cols))
                    continue
                for kept, at in group_rows(keep, np.arange(len(rows))):
                    groups.append((rows[at], vertices[at][:, kept], cols[kept], cols))
        return points, best, bases, groups, errors


def program_family(lp: StandardLp) -> BasisFamily:
    """The ``BasisFamily`` of every basis of ``lp``, built by the program's
    first call and kept in ``lp.basis_cache``, which ``with_rhs`` shares; a
    build that raises keeps nothing.  The cap is checked on every call."""
    _check_cap(math.comb(lp.m, lp.k))
    memo = lp.basis_cache
    if memo.family is None:
        memo.family = BasisFamily(lp.A)
    return memo.family


def group_rows(keys: np.ndarray, rows: np.ndarray) -> list:
    """``(key, rows with that key)`` for each distinct row of the 2-d
    ``keys``, whose rows label the entries of ``rows`` one for one; groups
    come in order of first appearance, entries in their own order.  Two
    rows are one key when their bytes are equal (so ``-0.0`` is not
    ``0.0``): a stable sort of the bytes puts each key's rows together."""
    if len(keys) == 1:
        return [(keys[0], rows)]
    data = np.ascontiguousarray(keys)
    data = (np.packbits(data, axis=1) if data.dtype == bool
            else data.view(np.uint8))
    if not data.size:
        return [(keys[0], rows)] if len(keys) else []
    order = np.lexsort(data.T)
    data = data[order]
    starts = np.flatnonzero(np.concatenate([[True], (data[1:] != data[:-1]).any(axis=1)]))
    stops = np.append(starts[1:], len(order))
    return [(keys[order[starts[g]]], rows[order[starts[g]:stops[g]]])
            for g in np.argsort(order[starts]).tolist()]


def basic_points(lp: StandardLp) -> np.ndarray:
    """The ``(N, k)`` block whose row ``i`` is ``A_B^{-1} b`` for basis ``i``
    of ``program_family(lp)``, at ``lp.b``.  The program's first call
    solves it and keeps it in ``lp.at_b``."""
    points = lp.at_b.get("points")
    if points is None:
        points = lp.at_b["points"] = _solved_at_b(lp)
    return points


def _solved_at_b(lp: StandardLp) -> np.ndarray:
    """``basic_points`` unkept, as a read-only copy of the family's solve."""
    return read_only(program_family(lp).solve(lp.b[None, :])[:, 0].copy())[0]


def enumerate_feasible_bases(lp: StandardLp) -> list[Basis]:
    """All bases whose basic point is nonnegative, in lexicographic order."""
    feasible = basic_points(lp).min(axis=1, initial=0.0) >= -FEAS_TOL
    return [Basis(cols) for cols in program_family(lp).cols[feasible].tolist()]


def program_duals(lp: StandardLp) -> tuple:
    """``(duals, feasible, edges)`` of ``program_family(lp)``, made by the
    program's first call and kept in ``lp.basis_cache``, which ``with_rhs``
    shares.  Row ``i`` of the read-only ``(N, k)`` array ``duals`` is
    ``y = c_B' A_B^{-1}`` of basis ``i``; the read-only mask ``feasible``
    marks the dual feasible bases, whose reduced costs ``c - A' y`` are all
    at least ``-reduced_cost_tol(c)``.  ``edges`` holds ``_window``'s
    b-free constants when the family's inverses hold more than
    ``WINDOW_CELLS`` entries and some basis is dual feasible, and is None
    otherwise."""
    family = program_family(lp)
    memo = lp.basis_cache
    if memo.duals is None:
        duals, slack, feasible = _family_duals(family, lp.c)
        edges = None
        if family.inverses.size > WINDOW_CELLS and feasible.any():
            edges = _window_edges(lp, family, duals[feasible], slack[feasible])
        # column-major, so that ``duals.T`` in ``_window``'s product is row-major
        memo.duals = (*read_only(np.asfortranarray(duals), feasible), edges)
    return memo.duals


def _family_duals(family: BasisFamily, c: np.ndarray) -> tuple:
    """``(duals, slack, feasible)`` of each basis of ``family`` at the cost
    ``c``: ``y = c_B' A_B^{-1}``, ``slack = y A - c`` and the mask of the
    bases whose slacks are all at most ``reduced_cost_tol(c)``."""
    duals = (c[family.cols][:, None, :] @ family.inverses)[:, 0]
    slack = duals @ family.A - c
    return duals, slack, slack.max(axis=1) <= reduced_cost_tol(c)


def _window_edges(lp: StandardLp, family: BasisFamily, duals, slack) -> tuple:
    """``(lower, per_b, rounding)`` for ``_window``, from the dual feasible
    rows ``duals`` and their computed ``slack = y A - c``."""
    k, m = lp.A.shape
    eps = np.finfo(float).eps
    # the most rounding can have moved a computed reduced cost
    err = 2 * (k + 1) * eps * (np.abs(duals) @ np.abs(lp.A) + np.abs(lp.c)).max()
    # the row sums of each |H|, H a stored inverse, a contiguous column slab at a time
    rows = np.zeros((len(family), k))
    for j in range(k):
        rows += np.abs(family.inverses[:, :, j])
    # the largest row sum of |A_B H - I|, as column sums of H' A_B' - I, a few
    # bases at a time so that memory stays small; then the product's
    # rounding, at most 2 (k + 1) eps times a row sum of |A| times one of |H|
    residual = 0.0
    for at in range(0, len(family), INVERSE_BLOCK):
        part = slice(at, at + INVERSE_BLOCK)
        product = family.inverses[part].transpose(0, 2, 1) @ lp.A.T[family.cols[part]]
        product -= np.eye(k)
        residual = max(residual, np.abs(product).sum(axis=1).max())
    residual += 2 * (k + 1) * eps * np.abs(lp.A).sum(axis=1).max() * rows.max()
    rounding = 1e-11 * k * (1.0 + np.abs(lp.c).max())
    lower = (FEAS_TOL + 1e-12) * (np.maximum(-slack, 0.0).sum(axis=1).max() + m * err)
    per_b = ((reduced_cost_tol(lp.c) + err) * rows.sum(axis=1).max()
             + np.abs(duals).sum(axis=1).max() * residual)
    return float(lower + rounding), float(per_b), float(rounding)


def _window(family: BasisFamily, duals, feasible, edges, rhs: np.ndarray) -> tuple:
    """``(rows, at)`` for the finite ``(N, k)`` block ``rhs``: the rows of
    ``rhs`` within the family's room, ``|b| = max|b_j| <= room``, and the
    bases of ``family`` whose dual value at one of them lies in a window
    around that row's best dual value.  Beyond the room, or where no dual
    feasible basis in the window is feasible, a row's window does not hold,
    and every basis must be solved there.  A block of more rows than
    ``SOLVE_CELLS // len(family)`` first keeps only the bases its ``_box``
    leaves in play.  The rows go ``SOLVE_CELLS // (bases tested)`` at a
    time, so that a block of dual values stays within ``SOLVE_CELLS``
    entries.

    Every basis's value ``v = y_B . b``, ``y_B`` its row of ``duals``, is
    its objective ``c_B' A_B^{-1} b``; let ``best = max v`` over the dual
    feasible bases, attained by basis ``a`` with reduced costs ``r = c - A'
    y_a``.  The window of ``b`` is ``[best - L, best + U]``, and no basis
    outside it is the winner or tied in ``BasisFamily._optimal_block``:

    - Rounding.  Below the room every solved coordinate is within 1e-12 of
      ``H b``, ``H`` the stored inverse, so each of the four roundings
      between ``v``, ``y_B . b``, ``c_B . H b`` and the block's objective is
      at most ``1e-12 k max|c|``; ``R = 1e-11 k (1 + max|c|)`` covers them
      and the window's own comparisons.  The bound on the rounding of a
      k-term dot product holds in any order of summation, so ``v`` may come
      from one BLAS product for the whole block.
    - Lower edge.  For ``xi = H b`` and any ``y``, ``c_B . xi = y . b +
      y . (A_B H - I) b + r_B . xi`` exactly.  A basis whose solved
      coordinates are all at least ``-FEAS_TOL`` has ``xi >= -FEAS_TOL -
      1e-12``, so with ``y = y_a``: ``r_B . xi >= -(FEAS_TOL + 1e-12) sum r+
      - (rc_tol + e) |xi|_1`` (``e`` bounds the rounding of ``r``, ``rc_tol =
      reduced_cost_tol(c)``), ``|xi|_1 <= |b| max sum|H|``, and ``|y_a .
      (A_B H - I) b| <= |y_a|_1 |b| max |A_B H - I|_inf``.  ``L`` is the sum
      of these bounds, what depends on ``a`` maximised over the dual
      feasible bases and what depends on ``B`` over all bases, plus ``R``:
      a basis below the window is infeasible.
    - Upper edge.  When a dual feasible basis ``f`` in the window is
      feasible, the best objective ``o`` is at most ``v_f + R <= best +
      R``, and by the lower edge at least ``best - L - R``, so ``|o| <=
      |best| + L + R``.  A basis above ``best + U``, ``U = tie_tol(|best| +
      L + R) + R``, then lies beyond the tie cutoff ``tie_tol(o)`` of the
      best objective, since ``tie_tol`` grows with ``|o|``.

    The union of the rows' windows keeps the family's order and holds each
    row's own window, so each row's winner (the first smallest objective)
    and tied bases are the family's, bit for bit; and a feasible dual
    feasible basis of the union lies in the row's own window, since one
    below it is infeasible.  ``_box`` drops only bases that the test keeps
    at no row in any order of summation, a row's best dual feasible basis
    among them; so the test on the bases it keeps is the family's test in
    another order, and its union such a union."""
    size = np.abs(rhs).max(axis=1)
    rows = (size <= family._room).nonzero()[0]
    union, kept = np.zeros(len(family), dtype=bool), slice(None)
    if len(rows) > SOLVE_CELLS // len(family):
        kept = _box(duals, feasible, edges, rhs[rows], size[rows])
        duals, feasible = duals[kept], feasible[kept]
    feasible = feasible.nonzero()[0]
    for at in _slices(rows, len(duals)):
        values = rhs[at] @ duals.T
        best = values.take(feasible, axis=1).max(axis=1)
        low, upper = _window_ends(edges, best, size[at])
        union[kept] |= ((values >= (best - low)[:, None])
                        & (values <= (best + upper)[:, None])).any(axis=0)
    return rows, union.nonzero()[0]


def _window_ends(edges, best, size) -> tuple:
    """``(L, U)`` of ``_window`` at rows whose best dual value is ``best``
    and whose ``|b|`` is ``size``."""
    lower, per_b, rounding = edges
    low = lower + per_b * size
    return low, tie_tol(np.abs(best) + low + rounding) + rounding


def _box(duals, feasible, edges, rhs: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The bases, in family order, that a box around the rows of ``rhs``
    (each within the room, ``size`` its ``|b|``) leaves in play: every other
    basis is kept at no row by ``_window``'s test, in any order of summation.

    Let ``mid`` and ``half`` be the midpoint and the half-width of the rows,
    coordinate by coordinate, ``a`` the dual feasible basis best at ``mid``
    and ``w = y_B - y_a``.  At each row ``b``, ``v_B - v_a = w . mid + w .
    (b - mid)`` lies within ``w . mid +- |w| . half``.  The test keeps ``B``
    at row ``b`` only when ``v_B`` lies in ``[best - L, best + U]``, so only
    when ``v_B - v_a`` lies in ``[lo, hi]``, ``lo`` the least ``best - L -
    v_a`` and ``hi`` the largest ``best + U - v_a`` over the rows.  Taking
    differences from ``y_a`` cancels the drift that all values share as
    ``b`` moves, which keeps the box narrow.

    Rounding, in units of ``t = 1e-12 k max|c|``.  The rows and ``mid`` are
    within the room and ``half`` within twice it, and ``|y|_1 <= k^2 max|c|
    max|H|``, so a computed k-term sum of ``y`` or ``w = fl(y_B - y_a)``
    with one of them is within ``t / 2`` or ``t``, and ``|w| . half``
    within ``2 t``; ``w``'s own rounding moves ``w . b`` by ``t / k``,
    ``half``'s moves ``|w| . (b - mid)`` by ``4 t / k``, and the box's last
    sums and comparisons round by ``3 t / k``.  On the window's side, the
    test's ``v_B`` and this ``v_a`` are each within ``t / 2`` of their
    values, the two ``best`` within ``t`` of each other, and the parts of
    ``best - L`` and ``best + U`` that do not scale with ``lo`` or ``hi``
    round by ``2 t / k``.  In all at most ``5 t + 10 t / k <= 15 t < 2 R``.
    The rest of the rounding of ``lo`` and ``hi`` (their subtraction of
    ``v_a``, ``L`` and ``U``'s own terms, and the test's two ends) is at most
    ``13 eps / 2`` times their size.  So a basis whose interval misses
    ``[lo, hi]`` widened by ``2 R + 8 eps (|lo| + |hi|)`` is in no row's
    window."""
    top, bottom = rhs.max(axis=0), rhs.min(axis=0)
    mid = 0.5 * (top + bottom)
    half = np.maximum(top - mid, mid - bottom)
    feasible = feasible.nonzero()[0]
    dual = duals[feasible]
    values = dual @ rhs.T  # one column per row, so the max runs along rows
    anchor = int(np.argmax(dual @ mid))
    best = values.max(axis=0)
    low, upper = _window_ends(edges, best, size)
    lo = float((best - low - values[anchor]).min())
    hi = float((best + upper - values[anchor]).max())
    slack = 2 * edges[2] + 8 * np.finfo(float).eps * (abs(lo) + abs(hi))
    w = duals.T - duals[feasible[anchor], :, None]
    center, radius = mid @ w, half @ np.abs(w)
    return ((center + radius >= lo - slack) & (center - radius <= hi + slack)).nonzero()[0]


def _slices(rows: np.ndarray, bases: int):
    """``rows`` in consecutive pieces of ``SOLVE_CELLS // bases`` (at least one)."""
    step = max(1, SOLVE_CELLS // max(bases, 1))
    return [rows[start:start + step] for start in range(0, len(rows), step)]


class OptimalSets(NamedTuple):
    """The optimal sets of a block of rows, as ``block_sets`` gives them,
    and the one rule for reading a row: the read-only ``(N, m)`` array of
    each row's first optimal vertex, the list of optimal values, the ``(N,
    k)`` columns of each row's first optimal basis; ``groups``, the rows
    whose set has several bases, as ``(rows, kept, first, tied)``: ``kept[i]``
    the distinct vertices of row ``rows[i]`` in the order of their first
    bases, ``first`` those bases' columns, ``tied`` the columns of every
    basis in the set, in family order; and ``errors``, the ``LpError`` of
    each row with no optimal set, whose point and value are zero."""

    points: np.ndarray
    values: list
    bases: np.ndarray
    groups: list
    errors: dict

    def row(self, i: int) -> tuple:
        """``(kept, first, tied)`` of row ``i``, as its group has them, or
        its rows of ``points``, ``bases`` and ``bases`` when it has one basis."""
        for rows, kept, first, tied in self.groups:
            if len(at := (rows == i).nonzero()[0]):
                return kept[at[0]], first, tied
        return self.points[i:i + 1], self.bases[i:i + 1], self.bases[i:i + 1]

    def polytope(self, i: int) -> Polytope:
        """The optimal set of row ``i``; one vertex is kept as its row of
        ``points``, not copied."""
        kept, _, tied = self.row(i)
        return _one_vertex(kept) if len(tied) == 1 else _lexsorted(kept)

    def ties(self) -> dict:
        """The ``polytope`` of each row whose set has several bases, by row."""
        return {i: _lexsorted(kept)
                for rows, block, *_ in self.groups for i, kept in zip(rows.tolist(), block)}

    def polytopes(self, ties=None):
        """Each row's ``polytope`` in row order, made when it is read; a
        caller that keeps ``ties()`` passes it as ``ties``."""
        one = map(_one_vertex, self.points[:, None])
        return map((ties or self.ties()).get, range(len(self.points)), one) if self.groups else one

    def take(self, index: slice) -> "OptimalSets":
        """The sets of the rows that ``index`` selects, numbered in that order."""
        new = np.full(len(self.points), -1)
        new[index] = np.arange(len(new[index]))
        groups = [(new[rows][inside], kept[inside], first, tied)
                  for rows, kept, first, tied in self.groups if (inside := new[rows] >= 0).any()]
        return OptimalSets(self.points[index], self.values[index], self.bases[index], groups,
                           {int(new[i]): exc for i, exc in self.errors.items() if new[i] >= 0})

    def check(self) -> "OptimalSets":
        """These sets, or, when a row has an error, raise the block's: the
        first ``Infeasible`` (a row with no feasible basis), else the first."""
        if self.errors:
            raise next((exc for exc in self.errors.values() if isinstance(exc, Infeasible)),
                       next(iter(self.errors.values())))
        return self


def block_sets(family: BasisFamily, c, rhs, duals=None) -> OptimalSets:
    """The ``OptimalSets`` of ``min <c, x>  s.t.  A x = r`` over the bases
    of ``family``, its ``fixed`` coordinates free in sign and the others
    nonnegative, at each row ``r`` of the ``(N, k)`` block ``rhs``.  A basis
    is feasible when its signed coordinates are at least ``-FEAS_TOL``; the
    optimal value ``best`` is the first smallest objective of a feasible
    basis, and the set holds every feasible basis within ``tie_tol(best)``
    of it.  ``ValueError`` for rows of the wrong length.

    A row's error is ``NonFiniteData`` for a row that holds NaN or
    infinity, ``_optimal_block``'s, and ``Unbounded`` for every row left
    when ``duals``, None or ``(duals, feasible, edges)`` at ``c`` as
    ``program_duals`` gives them, marks no basis dual feasible.  With
    window ``edges`` the block solves the union of its rows' windows
    (``_window``), and a row whose window does not hold is solved by the
    whole family, as is every row otherwise.  A solve takes ``SOLVE_CELLS
    // len(part)`` rows at a time and is assembled before the next is made,
    so the block holds the solved coordinates of one solve at a time, and
    no row's result depends on the others."""
    c = np.asarray(c, dtype=float)
    rhs, rest, errors = _finite_rows(rhs, len(family.A))
    return _assembled(c, rhs.shape, _solved(family, rhs, rest, duals), errors,
                      None if duals is None else duals[1])


def _solved(family: BasisFamily, rhs: np.ndarray, rest: np.ndarray, duals):
    """``block_sets``'s solves of the finite rows ``rest`` of ``rhs``, made
    one at a time as ``(at, part, x)``: rows ``at`` solved by the bases
    ``part`` of ``family`` (the family, or ``take`` of some) into ``x =
    part.solve(rhs[at])``, the rows that fall back to the whole family
    last."""
    if duals is not None and duals[2] is not None:
        near, at = _window(family, *duals, rhs.take(rest, axis=0))
        part, left = family.take(at), [] if len(near) == len(rest) else [np.delete(rest, near)]
        signs = duals[1][at, None]
        for rows in _slices(rest[near], len(part)):
            x = part.solve(rhs.take(rows, axis=0))
            holds = (signs & (x.min(axis=2) >= -FEAS_TOL)).any(axis=0)
            if not holds.all():
                rows, x, left = rows[holds], x[:, holds], left + [rows[~holds]]
            yield rows, part, x
        rest = np.concatenate(left) if left else rest[:0]
    for rows in _slices(rest, len(family)):
        yield rows, family, family.solve(rhs.take(rows, axis=0))


def _finite_rows(rhs, k: int) -> tuple:
    """``(rhs, rest, errors)``: the block ``rhs`` as an ``(N, k)`` float
    array, its finite rows, and the ``NonFiniteData`` of each other row;
    ``ValueError`` for rows of another length.  The rhs intake of
    ``block_sets`` and ``simplex.solve_block``."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2 or rhs.shape[1] != k:
        raise ValueError(f"rhs rows must have length {k}")
    if np.isfinite(rhs).all():  # the common case, without a per-row reduction
        return rhs, np.arange(len(rhs)), {}
    finite = np.isfinite(rhs).all(axis=1)
    return rhs, finite.nonzero()[0], {row: NonFiniteData("b holds NaN or infinity")
                                      for row in (~finite).nonzero()[0].tolist()}


def _assembled(c: np.ndarray, shape: tuple, solved, errors: dict, dual_feasible) -> OptimalSets:
    """``block_sets``'s result for a block of ``shape``, from ``_solved``'s
    ``(at, part, x)`` triples, each read as it comes, the errors of the rows
    left unsolved, and the dual feasible mask or None."""
    (count, k), m = shape, len(c)
    points, values = np.zeros((count, m)), np.zeros(count)
    bases, groups = np.zeros((count, k), dtype=np.intp), []
    for at, part, x in solved:
        if len(at):
            points[at], values[at], bases[at], part_groups, part_errors = part._optimal_block(c, x)
            groups += [(at[rows], *rest) for rows, *rest in part_groups]
            errors.update(zip(at[list(part_errors)].tolist(), part_errors.values()))
    if dual_feasible is not None and not dual_feasible.any():  # every finite row was solved
        unbounded = [row for row in range(count) if row not in errors]
        errors.update((row, Unbounded("no basis is dual feasible: the objective is unbounded "
                                      "below")) for row in unbounded)
        groups = []
    if errors:
        points[list(errors)] = values[list(errors)] = 0.0
    return OptimalSets(read_only(points)[0], values.tolist(), bases, groups, errors)


def optimal_rows(lp: StandardLp, rhs: np.ndarray) -> OptimalSets:
    """``block_sets`` of ``program_family(lp)`` at ``lp.c`` and its duals:
    the optimal set at each row of ``rhs`` that ``optimal_vertices`` gives
    that row.  Over ``ENUM_CAP`` each finite row gets the one ``InstanceTooLarge``."""
    try:
        family = program_family(lp)
    except InstanceTooLarge as exc:
        rhs, rest, errors = _finite_rows(rhs, lp.k)
        errors.update(dict.fromkeys(rest.tolist(), exc))
        return _assembled(lp.c, rhs.shape, [], errors, None)
    return block_sets(family, lp.c, rhs, program_duals(lp))


def rhs_block(lp: StandardLp, rhs) -> np.ndarray:
    """The right-hand sides ``rhs`` as the rows of an ``(N, k)`` array;
    ``ValueError`` for one of the wrong length, as ``with_rhs`` raises."""
    rows = [np.asarray(b, dtype=float).ravel() for b in rhs]
    if wrong := [b.size for b in rows if b.size != lp.k]:
        raise ValueError(f"b has length {wrong[0]}, expected {lp.k}")
    return np.array(rows).reshape(len(rows), lp.k)


def optimal_vertices(lp: StandardLp) -> tuple[Polytope, list[Basis]]:
    """The best feasible vertices and every basis attaining their value:
    ``optimal_rows`` at the one row ``lp.b``, or its assembly from the
    basic points when they are kept already.  Raises ``Infeasible`` when no
    feasible basis exists, and ``Unbounded`` when one does but no basis is
    dual feasible (see ``program_duals``).  The program's first call that
    returns keeps the Polytope (its vertices read-only) and the bases in
    ``lp.at_b``, and the basic points when it solved every basis; one that
    raises keeps nothing.  Each call returns a new list of bases."""
    family = program_family(lp)  # the cap is checked on every call
    optimal = lp.at_b.get("optimal")
    if optimal is None:
        points, duals = lp.at_b.get("points"), program_duals(lp)
        if points is None:  # lp.b is finite, so its one row is solved
            solved = list(_solved(family, lp.b[None, :], np.zeros(1, dtype=np.intp), duals))
        else:
            solved = [(np.zeros(1, dtype=np.intp), family, points[:, None, :])]
        sets = _assembled(lp.c, (1, lp.k), solved, {}, duals[1]).check()
        optimal = (sets.polytope(0), tuple(map(Basis, sets.row(0)[2].tolist())))
        _, part, x = solved[-1]  # the row's solve, after an empty window piece if any
        if part is family and points is None:
            lp.at_b["points"] = read_only(x[:, 0].copy())[0]
        lp.at_b["optimal"] = optimal
    return optimal[0], list(optimal[1])


def lp_to_dict(lp: StandardLp) -> dict:
    return {"A": lp.A.tolist(), "b": lp.b.tolist(), "c": lp.c.tolist()}


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object (a dict); ``ValueError`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def build_from_spec(build, spec: dict, what: str, required, optional=()):
    """``build(**args)``, where ``args`` are the entries of the JSON-shaped
    ``spec`` other than ``kind``.

    Raises ``ValueError`` when ``spec`` is not a JSON object, when keys are
    missing from ``required`` or are in neither ``required`` nor
    ``optional`` (naming them), and when ``build`` raises ``TypeError``:
    with the keys checked, that comes from a value of the wrong type.
    """
    args = {key: value for key, value in json_object(spec, f"{what} spec").items()
            if key != "kind"}
    missing = sorted(set(required) - set(args))
    unknown = sorted(set(args) - set(required) - set(optional))
    if missing or unknown:
        raise ValueError(f"{what} spec: missing keys {missing}, unknown keys {unknown}")
    try:
        return build(**args)
    except TypeError as exc:
        raise ValueError(f"{what} spec: {exc}") from exc


def build_kind(table: dict, spec: dict, what: str):
    """The object ``spec`` describes: ``table[spec["kind"]]`` built by
    ``build_from_spec`` with the keys its ``spec_keys`` declare for that
    kind.  Raises ``ValueError`` for an unknown kind."""
    kind = json_object(spec, f"{what} spec").get("kind")
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return build_from_spec(cls, spec, f"{kind} {what}", *cls.spec_keys[kind])


def spec_to_dict(obj) -> dict:
    """The JSON-shaped spec ``build_kind`` turns back into ``obj``: its
    ``kind`` and the attributes named by the keys its class declares."""
    required, optional = obj.spec_keys[obj.kind]
    return {"kind": obj.kind, **{key: np.asarray(getattr(obj, key)).tolist()
                                 for key in required + optional}}


def load_lp(source) -> StandardLp:
    """Build a program from a dict, a JSON string, or a path to a JSON file;
    text that starts with ``{`` or ``[`` is JSON, any other is a path.  Keys
    other than ``A``, ``b`` and ``c`` are ignored."""
    if isinstance(source, StandardLp):
        return source
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith(("{", "[")):
            data = json.loads(text)
        else:
            with open(text) as fh:
                data = json.load(fh)
    missing = {"A", "b", "c"} - set(json_object(data, "problem JSON"))
    if missing:
        raise ValueError(f"problem JSON is missing keys: {sorted(missing)}")
    try:
        return StandardLp(data["A"], data["b"], data["c"])
    except TypeError as exc:  # the keys are there, so a value has the wrong type
        raise ValueError(f"problem JSON: {exc}") from exc
