"""Standard-form linear programs and exhaustive basis enumeration.

A program is ``min <c, x>  subject to  A x = b, x >= 0`` with ``A`` of full
row rank.  Everything here is deliberately desk-scale: bases are enumerated
outright, which is what makes the enumeration usable as an oracle against
iterative solvers.
"""
from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import Infeasible, InstanceTooLarge, NonFiniteData, SingularBasis

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


def solve_lu(lu_piv, rhs, trans: int = 0) -> np.ndarray:
    """``scipy.linalg.lu_solve(lu_piv, rhs, trans, check_finite=False)`` for
    float64 factors, minus the wrapper: the same LAPACK ``getrs`` call on the
    same data, so the same bits."""
    x, _ = _GETRS(lu_piv[0], lu_piv[1], rhs, trans=trans)
    return x


def solve_lu_rows(lu_piv, rhs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``solve_lu`` for each row of the ``(N, k)`` array ``rhs`` that
    ``rows`` names, as the rows of a ``(len(rows), k)`` array, in one
    LAPACK ``getrs`` call.

    OpenBLAS solves a lone column with another kernel than a block, so a
    single row goes in twice: a row's result then does not depend on the
    block it came in.
    """
    block = rhs.take(rows if len(rows) > 1 else rows.tolist() * 2, axis=0)
    # the transpose is the Fortran-ordered block getrs solves in place
    x, _ = _GETRS(lu_piv[0], lu_piv[1], block.T, 0, 1)  # trans=0, overwrite_b=1
    return x.T[:len(rows)]


FEAS_TOL = 1e-9
DEDUP_TOL = 1e-8
ENUM_CAP = 10**6
# entries one basis cache keeps; the oldest is dropped past this
CACHE_SIZE = 512

__all__ = [
    "FEAS_TOL",
    "DEDUP_TOL",
    "ENUM_CAP",
    "StandardLp",
    "Basis",
    "BasicSolution",
    "Polytope",
    "basic_solution",
    "support",
    "iter_bases",
    "program_bases",
    "enumerate_feasible_bases",
    "optimal_vertices",
    "load_lp",
    "lp_to_dict",
]


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
    The two enumeration memos are not entries and are never dropped.
    """

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()
        self.lookups = 0
        self.misses = 0
        # memos of the all-column enumeration, kept apart from the bounded
        # entries: the invertible column sets, one row each in enumeration
        # order (see ``program_bases``), and ``stability_report``'s b-free half
        self.invertible = None
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
        self.rank_tol = _pivot_tol(A)
        if _matrix_rank(A, self.rank_tol) < k:
            raise ValueError("A does not have full row rank")
        self.A = _frozen(A)
        self.b = _frozen(b)
        self.c = _frozen(c)
        self.k = k
        self.m = m
        self.basis_cache = BasisCache()

    def with_rhs(self, b) -> "StandardLp":
        """Same constraint matrix and objective, different right-hand side.

        The new program shares this one's ``A``, ``c``, rank check and basis
        cache, so the rank is not computed again.
        """
        b = np.asarray(b, dtype=float).ravel()
        if b.shape != (self.k,):
            raise ValueError(f"b has length {b.size}, expected {self.k}")
        _check_finite("b", b)
        lp = object.__new__(type(self))
        lp.__dict__.update(self.__dict__)
        lp.b = _frozen(b)
        return lp

    def __repr__(self):
        return f"StandardLp(k={self.k}, m={self.m})"


def _check_finite(name: str, arr: np.ndarray):
    """Raise ``NonFiniteData`` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteData(f"{name} holds NaN or infinity")


def check_support(indices, dim: int):
    """Raise ``ValueError`` unless every entry of ``indices`` (a region's or
    noise law's ``support_indices``, or ``None``) is a row of ``dim`` rows."""
    outside = [i for i in indices or () if not 0 <= i < dim]
    if outside:
        raise ValueError(f"support_indices {outside} are not rows of a {dim}-row program")


def _pivot_tol(A: np.ndarray) -> float:
    """``1e-10 * max|A|``: a block of ``A`` is invertible when every LU pivot
    exceeds this in magnitude."""
    return 1e-10 * np.abs(A).max(initial=0.0)


def _invertible(lu: np.ndarray, tol: float) -> bool:
    return bool(np.abs(np.diagonal(lu)).min() > tol)


def _matrix_rank(A: np.ndarray, tol: float) -> int:
    if A.size == 0:
        return 0
    sv = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sv > max(tol, sv[0] * np.finfo(float).eps * max(A.shape))))


def _independent_rows(A: np.ndarray, b: np.ndarray):
    """Keep a maximal independent row subset; reject inconsistent duplicates."""
    tol = 1e-10 * max(1.0, np.abs(A).max() if A.size else 0.0)
    keep: list[int] = []
    for i in range(A.shape[0]):
        trial = A[keep + [i]]
        if _matrix_rank(trial, tol) == len(keep) + 1:
            keep.append(i)
    dropped = [i for i in range(A.shape[0]) if i not in keep]
    if dropped:
        # each dropped row is a combination of the kept ones; its rhs must match
        coeff, *_ = np.linalg.lstsq(A[keep].T, A[dropped].T, rcond=None)
        implied = coeff.T @ b[keep]
        if not np.allclose(implied, b[dropped], atol=1e-8 * (1 + np.abs(b).max())):
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
    """A finite vertex set; duplicates within ``dedup_tol`` are merged."""

    def __init__(self, vertices, *, dedup_tol: float = DEDUP_TOL):
        arr = np.asarray(vertices, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, arr.shape[-1] if arr.ndim == 2 else 0)
        if arr.ndim != 2:
            raise ValueError("vertices must form a 2-d array")
        kept: list[np.ndarray] = []
        for v in arr:
            if not any(np.max(np.abs(v - u)) <= dedup_tol for u in kept):
                kept.append(v)
        if kept:
            order = np.lexsort(np.array(kept).T[::-1])
            arr = np.array(kept)[order]
        else:
            arr = np.zeros((0, arr.shape[1]))
        self.vertices = _frozen(arr)

    @classmethod
    def single(cls, vertex) -> "Polytope":
        """``Polytope([vertex])`` without the deduplication pass.

        ``vertex`` has shape ``(dim,)`` or ``(1, dim)``; a read-only float
        array is kept as a view, anything else is copied.
        """
        vertices = np.asarray(vertex, dtype=float)
        if vertices.ndim == 1:
            vertices = vertices[None, :]
        if vertices.ndim != 2 or len(vertices) != 1:
            raise ValueError("a single vertex must have shape (dim,) or (1, dim)")
        if vertices.flags.writeable:
            vertices = _frozen(vertices)
        poly = object.__new__(cls)
        poly.vertices = vertices
        return poly

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __len__(self):
        return self.vertices.shape[0]

    def __repr__(self):
        return f"Polytope({len(self)} vertices, dim={self.dim})"


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


def basic_solution(lp: StandardLp, basis: Basis, *, feas_tol: float = FEAS_TOL,
                   cached: bool = False) -> BasicSolution:
    """Solve for the basic point of ``basis``: x_B = A_B^{-1} b, zero elsewhere.

    With ``cached`` the factors come from, and go into, the program's basis
    cache; enumeration leaves it off so the cache holds only visited bases.
    """
    if len(basis) != lp.k:
        raise SingularBasis(f"basis size {len(basis)} != row count {lp.k}")
    lu_piv = (cached_factors if cached else factor_columns)(lp, basis.indices)
    x_b = solve_lu(lu_piv, lp.b)
    x = np.zeros(lp.m)
    x[list(basis.indices)] = x_b
    feasible = bool(x_b.min(initial=0.0) >= -feas_tol)
    degenerate = feasible and bool(np.any(np.abs(x_b) <= feas_tol))
    return BasicSolution(basis=basis, x=x, feasible=feasible, degenerate=degenerate)


def support(x, tol: float = FEAS_TOL) -> frozenset:
    """Indices whose magnitude exceeds ``tol``."""
    x = np.asarray(x, dtype=float)
    return frozenset(int(i) for i in np.flatnonzero(np.abs(x) > tol))


def iter_bases(A, *, fixed=(), enum_cap: int = ENUM_CAP):
    """``(cols, lu_piv)`` for every invertible square block of ``A`` made of
    the ``fixed`` columns plus ``k - len(fixed)`` of the other columns.

    Combinations of the other columns come in lexicographic order, each
    merged with ``fixed`` into the sorted tuple ``cols``.  A block is
    invertible when every LU pivot exceeds ``1e-10 * max|A|`` in magnitude,
    the rule ``factor_columns`` applies.
    Raises ``InstanceTooLarge`` before factoring anything when more than
    ``enum_cap`` blocks would be tried.
    """
    A = np.asarray(A, dtype=float)
    k, m = A.shape
    fixed = sorted(int(j) for j in fixed)
    if len(fixed) > k:
        raise ValueError(f"{len(fixed)} fixed columns exceed the {k} rows")
    others = [j for j in range(m) if j not in fixed]
    _check_cap(math.comb(len(others), k - len(fixed)), enum_cap)
    tol = _pivot_tol(A)
    for extra in itertools.combinations(others, k - len(fixed)):
        cols = tuple(sorted(fixed + list(extra)))
        lu_piv = quiet_lu(A.take(cols, axis=1))
        if _invertible(lu_piv[0], tol):
            yield cols, lu_piv


def _check_cap(total: int, enum_cap: int):
    if total > enum_cap:
        raise InstanceTooLarge(f"{total} candidate bases exceed the cap of {enum_cap}")


def program_bases(lp: StandardLp, enum_cap: int = ENUM_CAP):
    """``iter_bases(lp.A, enum_cap=enum_cap)`` through the program's memo.

    The first pass that runs to its end records the invertible column sets
    in ``lp.basis_cache.invertible`` while it streams their factors; later
    passes, by this program or any program sharing its cache through
    ``with_rhs``, factor only those sets, in the same order, with the same
    bits.  A pass stopped early records nothing.  The cap is checked first
    on every pass.
    """
    memo = lp.basis_cache
    if memo.invertible is None:
        found = []
        for cols, lu_piv in iter_bases(lp.A, enum_cap=enum_cap):
            found.append(cols)
            yield cols, lu_piv
        # an index array: less memory than the tuples, and quicker to take
        memo.invertible = read_only(np.array(found, dtype=np.intp).reshape(len(found), lp.k))[0]
        return
    _check_cap(math.comb(lp.m, lp.k), enum_cap)
    for row in memo.invertible:
        yield tuple(row.tolist()), quiet_lu(lp.A.take(row, axis=1))


def group_rows(keys: np.ndarray, rows: np.ndarray) -> list:
    """``(key, rows with that key)`` for each distinct row of the 2-d
    ``keys``, whose rows label the entries of ``rows`` one for one; groups
    come in order of first appearance, entries in their own order."""
    groups: dict = {}
    for i, key in enumerate(map(bytes, np.ascontiguousarray(keys))):
        groups.setdefault(key, []).append(i)
    return [(keys[at[0]], rows[at]) for at in groups.values()]


def _feasible_points(lp: StandardLp, feas_tol: float, enum_cap: int):
    """``(cols, x_B)`` for every basis whose basic point is nonnegative."""
    for cols, lu_piv in program_bases(lp, enum_cap):
        x_b = solve_lu(lu_piv, lp.b)
        if x_b.min(initial=0.0) >= -feas_tol:
            yield cols, x_b


def enumerate_feasible_bases(
    lp: StandardLp, *, feas_tol: float = FEAS_TOL, enum_cap: int = ENUM_CAP
) -> list[Basis]:
    """All bases whose basic point is nonnegative, in lexicographic order."""
    return [Basis(cols) for cols, _ in _feasible_points(lp, feas_tol, enum_cap)]


def optimal_vertices(
    lp: StandardLp,
    *,
    feas_tol: float = FEAS_TOL,
    dedup_tol: float = DEDUP_TOL,
    enum_cap: int = ENUM_CAP,
) -> tuple[Polytope, list[Basis]]:
    """The optimal vertex set and every basis attaining the optimal value.

    Bases are kept when their objective is within ``1e-8 * (1 + |f|)`` of the
    minimum ``f`` over feasible bases.  Raises ``Infeasible`` when no feasible
    basis exists.
    """
    bases = []
    points = []
    for cols, x_b in _feasible_points(lp, feas_tol, enum_cap):
        x = np.zeros(lp.m)
        x[list(cols)] = x_b
        bases.append(Basis(cols))
        points.append(x)
    if not bases:
        raise Infeasible("no feasible basis")
    objectives = [float(lp.c @ x) for x in points]
    f = min(objectives)
    obj_tol = 1e-8 * (1 + abs(f))
    chosen = [i for i, val in enumerate(objectives) if val - f <= obj_tol]
    poly = Polytope([points[i] for i in chosen], dedup_tol=dedup_tol)
    return poly, [bases[i] for i in chosen]


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
    """Build a program from a dict, a JSON string, or a path to a JSON file."""
    if isinstance(source, StandardLp):
        return source
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text) as fh:
                data = json.load(fh)
    missing = {"A", "b", "c"} - set(data)
    if missing:
        raise ValueError(f"problem JSON is missing keys: {sorted(missing)}")
    return StandardLp(data["A"], data["b"], data["c"])
