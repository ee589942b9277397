"""Target-pose generation and descriptor regression for map densification.

Two target schemes are supported: interpolation targets are the poses a
trajectory subsampling dropped, each between its two bracketing anchors;
extrapolation targets form an x/y grid around each anchor with orientation
and z copied from it. A plan holds its targets as columns. Descriptors at
targets come from one of three regressors: a two-anchor linear blend, a
local least-squares plane fit per feature dimension, or the non-linear
network regressor.

Regressed entries are appended after the originals with deterministic
provenance ids: ``<anchor>#gx<i>y<j>`` for grid targets and
``<a1>~<a2>#k<n>`` for interpolation targets. The ``#`` marker is what makes
an entry regressed (:func:`copr.vpr_map.origin_of`), so a plan refuses a
target id without one.

Grid dedupe rule: candidates are visited anchor by anchor, i-major,
j-minor. A candidate is dropped when it is close to any anchor or to an
earlier kept candidate. Two points are close when, with
cell = max(dedupe_radius, 1e-9) and cell keys floor(v / cell) per axis,
their keys differ by at most 1 on every axis and d @ d <= dedupe_radius**2
for d = candidate - other point (so a point exactly at the radius is
close).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blocks import even_blocks, output_block
from .errors import (
    CoincidentAnchors,
    CountMismatch,
    DimMismatch,
    EmptyMap,
    InvalidConfig,
    MethodPlanMismatch,
    RefusedNonFinite,
    TooFewAnchors,
    TooFewNeighbors,
    UnknownAnchor,
)
from .geometry import pose_blocks, relative_pose_rows, row_dots
from .geometry import RelativePose  # noqa: F401  (perfbench/tracer.py wraps copr.densify.RelativePose)
from .neural.core import MlpModel, regress_nonlinear_batch
from .vpr_map import ReferenceMap, nearest_neighbors

INTERPOLATION = "interpolation"
EXTRAPOLATION = "extrapolation"

METHOD_LIN_INTERP = "lin_interp"
METHOD_LIN_REG = "lin_reg"
METHOD_NONLIN_REG = "nonlin_reg"
METHODS = (METHOD_LIN_INTERP, METHOD_LIN_REG, METHOD_NONLIN_REG)
# Rows per block of the batched plane fit.
_FIT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class DensifyConfig:
    """Densification knobs.

    ``stride`` subsamples the trajectory into anchors, ``grid_step`` and
    ``grid_span`` shape the per-anchor extrapolation grid, ``neighbors``
    is the plane-fit anchor count, and targets closer than
    ``dedupe_radius`` to an anchor or an earlier target are dropped.
    """

    stride: int = 50
    grid_step: float = 0.05
    grid_span: float = 0.05
    neighbors: int = 4
    dedupe_radius: float = 0.025

    def __post_init__(self):
        for name in ("grid_step", "grid_span", "dedupe_radius"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.stride < 2:
            raise InvalidConfig("stride must be at least 2")
        if self.grid_step <= 0:
            raise InvalidConfig("grid_step must be positive")
        if self.grid_span < self.grid_step:
            raise InvalidConfig("grid_span must be at least grid_step")
        if not math.isfinite(self.grid_span / self.grid_step):
            raise InvalidConfig(
                f"grid_span / grid_step must be finite, got grid_span={self.grid_span!r}, grid_step={self.grid_step!r}"
            )
        if self.neighbors < 4:
            raise InvalidConfig("plane fit needs at least 4 neighbors")
        if self.dedupe_radius < 0:
            raise InvalidConfig("dedupe_radius must be non-negative")


@dataclass(frozen=True, eq=False)
class TargetPlan:
    """Poses to regress plus the anchors assigned to each, as columns in plan order.

    ``targets`` holds the target ids, ``translations`` (n, 3) and
    ``quaternions`` (n, 4) their poses, read-only, ``anchors`` the anchor
    map's ids, once, and ``anchor_rows`` a read-only integer block of rows
    into them: (n, 2), the two bracketing anchors of each interpolation
    target, or (n, 1), the grid anchor of each extrapolation target. Every
    target id holds the ``#`` provenance marker of a regressed entry.
    Translations must be finite; quaternions are normalized here, once.
    """

    scheme: str
    targets: tuple[str, ...]
    translations: np.ndarray
    quaternions: np.ndarray
    anchors: tuple[str, ...]
    anchor_rows: np.ndarray

    def __post_init__(self):
        if self.scheme not in (INTERPOLATION, EXTRAPOLATION):
            raise InvalidConfig(f"unknown plan scheme {self.scheme!r}")
        targets, anchors = tuple(self.targets), tuple(self.anchors)
        unmarked = [target for target in targets if "#" not in target]
        if unmarked:
            raise InvalidConfig(f"target id {unmarked[0]!r} lacks the '#' marker of a regressed entry")
        rows = np.asarray(self.anchor_rows)
        width = 2 if self.scheme == INTERPOLATION else 1
        if rows.ndim != 2 or rows.shape[1] != width:
            raise InvalidConfig(f"{self.scheme} anchor rows must be an (n, {width}) block, got shape {rows.shape}")
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(anchors)):
            raise InvalidConfig(f"anchor rows must be integers in [0, {len(anchors)})")
        translations, quaternions = pose_blocks(self.translations, self.quaternions)
        if not len(targets) == len(rows) == len(translations):
            raise CountMismatch(f"{len(targets)} target ids, {len(rows)} anchor rows, {len(translations)} poses")
        rows = rows.astype(np.intp)
        rows.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "anchor_rows", rows)
        object.__setattr__(self, "translations", translations)
        object.__setattr__(self, "quaternions", quaternions)

    def to_json(self) -> str:
        anchor_ids = [[self.anchors[a] for a in row] for row in self.anchor_rows.tolist()]
        rows = zip(self.targets, self.translations.tolist(), self.quaternions.tolist(), anchor_ids)
        doc = {
            "scheme": self.scheme,
            "targets": [{"id": target, "pose": {"t": t, "q": q}, "anchor_ids": ids} for target, t, q, ids in rows],
        }
        # One line: with an indent, json.dumps falls back to its pure-Python encoder.
        return json.dumps(doc)


@dataclass(frozen=True)
class DroppedPoses:
    """The trajectory poses removed by subsampling, in original order.

    ``left_anchors[i]`` indexes into the subsampled anchor map and names the
    anchor immediately before pose i along the original trajectory (clamped
    to the second-to-last anchor for poses past the final one);
    ``translations`` (n, 3) and ``quaternions`` (n, 4) are the poses.
    """

    left_anchors: np.ndarray
    translations: np.ndarray
    quaternions: np.ndarray


def subsample_trajectory(ref_map: ReferenceMap, stride: int) -> tuple[ReferenceMap, DroppedPoses]:
    """Keep every ``stride``-th entry as an anchor, return the rest as targets.

    Anchors sit at indices 0, stride, 2*stride, ...; all other poses are
    returned in original order together with their bracketing segment.
    """
    if len(ref_map) == 0:
        raise EmptyMap("cannot subsample an empty map")
    if stride < 2:
        raise InvalidConfig("stride must be at least 2")
    anchors = ReferenceMap(
        ids=ref_map.ids[::stride],
        descriptors=ref_map.descriptors[::stride],
        translations=ref_map.translations[::stride],
        quaternions=ref_map.quaternions[::stride],
    )
    dropped = np.flatnonzero(np.arange(len(ref_map)) % stride)
    left = np.minimum(dropped // stride, max(len(anchors) - 2, 0))
    return anchors, DroppedPoses(left, ref_map.translations[dropped], ref_map.quaternions[dropped])


def gen_interp_targets(anchors: ReferenceMap, dropped: DroppedPoses) -> TargetPlan:
    """Interpolation targets at the subsampled trajectory's dropped poses.

    Each dropped pose is replayed into its original segment: target id
    ``<a1>~<a2>#k<n>`` for the n-th dropped pose between anchors a1 and a2.
    """
    if len(anchors) < 2:
        raise TooFewAnchors("interpolation needs at least two anchors")
    slots = np.clip(dropped.left_anchors, 0, len(anchors) - 2)
    # k counts the targets of each segment in plan order, from 1.
    order = np.argsort(slots, kind="stable")
    k = np.empty(len(slots), dtype=np.intp)
    k[order] = np.arange(len(slots)) - np.searchsorted(slots[order], slots[order]) + 1
    prefixes = [f"{a1}~{a2}#k" for a1, a2 in zip(anchors.ids, anchors.ids[1:])]
    return TargetPlan(
        scheme=INTERPOLATION,
        targets=[prefixes[slot] + str(n) for slot, n in zip(slots.tolist(), k.tolist())],
        translations=dropped.translations,
        quaternions=dropped.quaternions,
        anchors=anchors.ids,
        anchor_rows=np.column_stack([slots, slots + 1]),
    )


# Odd multipliers that fold a dedupe cell's integer keys into one uint64 code.
# The codes of a cell's 27 neighbors are distinct; codes of far-apart cells
# can collide, so every pair found through a code has its keys compared.
_CELL_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 1], dtype=np.uint64)
_NEIGHBORS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
_NEIGHBOR_SHIFTS = _NEIGHBORS.astype(np.uint64) @ _CELL_MULTIPLIERS
# Shifts named by their rows in _NEIGHBORS: all 27, and the same cell with
# the 13 neighbors lexicographically after it, so that within one point set
# each pair in two different neighbor cells is found once.
_ALL_SHIFTS = np.arange(len(_NEIGHBORS))
_HALF_SHIFTS = np.array([i for i, n in enumerate(map(tuple, _NEIGHBORS)) if n >= (0, 0, 0)])


class _CellTable(NamedTuple):
    """Rows of the deduped block in cell-code order with their codes, and
    per-axis bounds (3,) that hold the cell keys of every row."""

    codes: np.ndarray
    rows: np.ndarray
    key_lo: np.ndarray
    key_hi: np.ndarray

    def take(self, mask: np.ndarray) -> _CellTable:
        """The rows under ``mask``, still in code order; the bounds still hold their keys."""
        return _CellTable(self.codes[mask], self.rows[mask], self.key_lo, self.key_hi)

    def merge(self, new: _CellTable) -> _CellTable:
        """This table with the rows of ``new``, also in code order, inserted."""
        at = np.searchsorted(self.codes, new.codes)
        return _CellTable(
            np.insert(self.codes, at, new.codes),
            np.insert(self.rows, at, new.rows),
            np.minimum(self.key_lo, new.key_lo),
            np.maximum(self.key_hi, new.key_hi),
        )


def _cell_table(keys: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> _CellTable:
    """The table of ``rows`` for (3, n) cell keys and their codes."""
    rows = rows[np.argsort(codes[rows], kind="stable")]
    held = keys[:, rows]
    bounds = np.iinfo(keys.dtype)
    return _CellTable(codes[rows], rows, held.min(axis=1, initial=bounds.max), held.max(axis=1, initial=bounds.min))


def _close_pairs(
    points, keys, queries: _CellTable, others: _CellTable, radius, shifts
) -> tuple[np.ndarray, np.ndarray]:
    """(query, other) rows of the pairs the dedupe calls close, for every
    other point in a cell one of ``shifts`` away from the query's cell;
    ``keys`` are the (3, n) cell keys of ``points``.

    Two points are close when their cell keys differ by at most 1 on every
    axis and d @ d <= radius**2 for their difference d (its sign does not
    change d @ d). A shift is searched only when the query key bounds,
    moved by it, meet the other key bounds on every axis.
    """
    found_query, found_other = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    if not (len(queries.rows) and len(others.rows)):
        return found_query[0], found_other[0]
    moved = _NEIGHBORS[shifts]
    reach = np.all((queries.key_lo + moved <= others.key_hi) & (queries.key_hi + moved >= others.key_lo), axis=1)
    # One entry per occupied cell: its code, first position in ``others`` and size.
    starts = np.flatnonzero(np.r_[True, others.codes[1:] != others.codes[:-1]])
    cells, sizes = others.codes[starts], np.diff(np.r_[starts, len(others.codes)])
    query_points = points[queries.rows]
    r2 = radius * radius
    # Queries in code order let each binary search start where the last one ended.
    for shift in _NEIGHBOR_SHIFTS[shifts[reach]]:
        wanted = queries.codes + shift
        cell = np.minimum(np.searchsorted(cells, wanted), len(cells) - 1)
        counts = np.where(cells[cell] == wanted, sizes[cell], 0)
        total = int(counts.sum())
        if not total:
            continue
        q = np.repeat(np.arange(len(wanted)), counts)
        o = others.rows[np.arange(total) + np.repeat(starts[cell] - (np.cumsum(counts) - counts), counts)]
        d = query_points[q] - points[o]
        close = row_dots(d, d) <= r2
        q, o = queries.rows[q[close]], o[close]
        close = np.all(np.abs(keys[:, q] - keys[:, o]) <= 1, axis=0)
        found_query.append(q[close])
        found_other.append(o[close])
    return np.concatenate(found_query), np.concatenate(found_other)


def _cell_ranks(keys: np.ndarray) -> np.ndarray:
    """Small non-negative integers in place of one axis's cell keys: equal
    keys share a rank and keys 1 apart get ranks 1 apart; any wider gap
    becomes a gap of 2. Neighbor tests on ranks match those on the keys,
    for keys of any magnitude.
    """
    values, inverse = np.unique(keys, return_inverse=True)
    gaps = np.where(np.diff(values) == 1.0, 1, 2)
    return np.r_[0, np.cumsum(gaps)][inverse]


# Candidates are deduped in chunks of this many, in order: a chunk is checked
# against the points kept before it, then resolved within itself. Kept points
# are sparse, so the pairs a chunk enumerates stay few even when the radius
# spans many grid steps.
_DEDUPE_CHUNK = 2048


def _dedupe(points: np.ndarray, first: int, radius: float) -> np.ndarray:
    """Keep mask over ``points[first:]``: greedy, in order, a point is dropped
    when it is close to one of ``points[:first]`` or to an earlier kept point.

    Each search sends a table of queries in cell-code order into another
    table sorted by code (:func:`_close_pairs`). The fixed points search the
    table of all candidates once. Then, chunk by chunk, the chunk's
    candidates search the table of the points kept so far, those left
    search their own table, and the points the chunk keeps are merged into
    the kept table: the kept set is never gathered or sorted again. The
    candidates' table is O(candidates), the kept table O(kept), and a
    chunk's scratch O(chunk x neighbors).
    """
    cell = max(radius, 1e-9)
    with np.errstate(over="ignore"):
        keys = np.stack([_cell_ranks(np.floor(points[:, axis] / cell)) for axis in range(3)])
    codes = keys.T.astype(np.uint64) @ _CELL_MULTIPLIERS
    keep = np.ones(len(points), dtype=bool)
    # Fixed points are always kept, so a point close to one is dropped outright.
    fixed, candidates = (_cell_table(keys, codes, rows) for rows in np.split(np.arange(len(points)), [first]))
    keep[_close_pairs(points, keys, fixed, candidates, radius, _ALL_SHIFTS)[1]] = False
    kept = _cell_table(keys, codes, np.arange(0))
    for lo in range(first, len(points), _DEDUPE_CHUNK):
        hi = min(lo + _DEDUPE_CHUNK, len(points))
        chunk = _cell_table(keys, codes, np.arange(lo, hi)[keep[lo:hi]])
        keep[_close_pairs(points, keys, chunk, kept, radius, _ALL_SHIFTS)[0]] = False
        rest = chunk.take(keep[chunk.rows])
        a, b = _close_pairs(points, keys, rest, rest, radius, _HALF_SHIFTS)
        keep[lo:hi] = _greedy(keep[lo:hi].tolist(), np.maximum(a, b) - lo, np.minimum(a, b) - lo)
        kept = kept.merge(rest.take(keep[rest.rows]))
    return keep[first:]


def _greedy(flags: list, later: np.ndarray, earlier: np.ndarray) -> list:
    """Visit the points with an earlier partner in order; drop each one that
    has a partner still flagged kept. Pairs of a point with itself are ignored.
    """
    pick = later != earlier
    order = np.argsort(later[pick], kind="stable")
    later, earlier = later[pick][order], earlier[pick][order].tolist()
    visit, starts = np.unique(later, return_index=True)
    ends = np.r_[starts[1:], len(later)]
    # Every earlier partner is decided before its later point is visited.
    for point, lo, hi in zip(visit.tolist(), starts.tolist(), ends.tolist()):
        if any(map(flags.__getitem__, earlier[lo:hi])):
            flags[point] = False
    return flags


def gen_extrap_grid(anchors: ReferenceMap, cfg: DensifyConfig) -> TargetPlan:
    """Per-anchor x/y grid targets with orientation and z copied.

    Around each anchor, targets sit at (x + i*step, y + j*step, z) for
    i, j in [-half, +half] minus the center, half = floor(span/step).
    Targets within ``dedupe_radius`` of any anchor or an earlier kept
    target are dropped (the dedupe rule in the module docstring), so
    overlapping grids stay conflict-free.
    """
    if len(anchors) == 0:
        raise EmptyMap("cannot build a grid around an empty anchor map")
    half = int(math.floor(cfg.grid_span / cfg.grid_step + 1e-9))
    steps = [(i, j) for i in range(-half, half + 1) for j in range(-half, half + 1) if (i, j) != (0, 0)]
    offsets = np.array(steps, dtype=np.float64) * cfg.grid_step
    candidates = np.empty((len(anchors), len(steps), 3))
    with np.errstate(over="ignore"):
        candidates[:, :, :2] = anchors.translations[:, None, :2] + offsets
    candidates[:, :, 2] = anchors.translations[:, None, 2]
    candidates = candidates.reshape(-1, 3)
    if not np.all(np.isfinite(candidates)):
        raise RefusedNonFinite("grid target translations must be finite")
    keep = _dedupe(np.concatenate([anchors.translations, candidates]), len(anchors), cfg.dedupe_radius)
    kept = np.flatnonzero(keep)
    owner, slot = np.divmod(kept, len(steps))
    suffixes = [f"#gx{i}y{j}" for i, j in steps]
    return TargetPlan(
        scheme=EXTRAPOLATION,
        targets=[anchors.ids[a] + suffixes[k] for a, k in zip(owner.tolist(), slot.tolist())],
        translations=candidates[kept],
        quaternions=anchors.quaternions[owner],
        anchors=anchors.ids,
        anchor_rows=owner[:, None],
    )


def lin_interp_many(f_a1, f_a2, t_a1, t_a2, t_new) -> np.ndarray:
    """Distance-weighted blend of two anchor descriptors per row of (m, dim)
    descriptors and (m, 3) translations: with b1 = ||t_new - t_a1|| and
    b2 = ||t_new - t_a2||, the weights are 1 - b1/(b1+b2) on the first
    anchor and 1 - b2/(b1+b2) on the second, so a target on an anchor copies it.

    Raises:
        CoincidentAnchors: if a row's two anchors are within 1e-12 m.
    """
    if np.any(np.sqrt(row_dots(t_a1 - t_a2, t_a1 - t_a2)) <= 1e-12):
        raise CoincidentAnchors("interpolation anchors share one translation")
    d1, d2 = t_new - t_a1, t_new - t_a2
    b1 = np.sqrt(row_dots(d1, d1))[:, None]
    b2 = np.sqrt(row_dots(d2, d2))[:, None]
    return (1.0 - b1 / (b1 + b2)) * f_a1 + (1.0 - b2 / (b1 + b2)) * f_a2


def plane_fit_regress(neighbors, t_new) -> np.ndarray:
    """Least-squares plane fit per feature dimension, evaluated at t_new.

    ``neighbors`` is a sequence of (descriptor, translation). Each feature
    dimension is fit as a*x + b*y + c*z + e over the neighbors; rank
    deficient systems (collinear or coplanar anchors) fall back to the
    minimum-norm solution with singular values below 1e-10 of the largest
    treated as zero, so degenerate geometry still yields finite output.
    One row of :func:`plane_fit_many`.
    """
    neighbors = list(neighbors)
    if len(neighbors) < 4:
        raise TooFewNeighbors(f"plane fit needs at least 4 neighbors, got {len(neighbors)}")
    f = np.asarray([np.asarray(d, dtype=np.float64) for d, _ in neighbors])
    t = np.asarray([np.asarray(p, dtype=np.float64) for _, p in neighbors])
    t_new = np.asarray(t_new, dtype=np.float64).reshape(1, 3)
    return plane_fit_many(f, t, np.arange(len(neighbors))[None, :], t_new)[0]


def plane_fit_many(descriptors, translations, neighbor_idx, t_new, out=None) -> np.ndarray:
    """Stacked :func:`plane_fit_regress` over the rows of ``neighbor_idx``.

    Row i fits ``descriptors[neighbor_idx[i]]`` over
    ``translations[neighbor_idx[i]]`` and evaluates the fit at ``t_new[i]``.
    The min-norm solution comes from a batched pseudo-inverse of the
    (m, k, 4) design matrices with the same 1e-10 relative singular-value
    cut as ``lstsq``; the prediction is the weighted sum of the neighbor
    descriptors with weights [t_new, 1] @ pinv(design). Each system is
    factored on its own, so the rows run in even blocks of at most
    ``_FIT_BLOCK_ROWS`` (:func:`copr.blocks.even_blocks`) with the same
    result as one batch, written into ``out`` when given
    (:func:`copr.blocks.output_block`).
    """
    neighbor_idx = np.asarray(neighbor_idx)
    t_new = np.asarray(t_new, dtype=np.float64)
    m, k = neighbor_idx.shape
    out = output_block(out, m, descriptors.shape[1])
    for rows in even_blocks(m, _FIT_BLOCK_ROWS):
        idx = neighbor_idx[rows]
        design = np.ones((len(idx), k, 4))
        design[:, :, :3] = translations[idx]
        x = np.ones((len(idx), 1, 4))
        x[:, 0, :3] = t_new[rows]
        weights = np.matmul(x, np.linalg.pinv(design, rcond=1e-10))[:, 0, :]
        block = np.multiply(weights[:, :1], descriptors[idx[:, 0]], out=out[rows])
        for j in range(1, k):
            block += weights[:, j : j + 1] * descriptors[idx[:, j]]
    return out


def densify_map(
    sparse: ReferenceMap,
    plan: TargetPlan,
    method: str,
    model: MlpModel | None = None,
    neighbors: int = 4,
) -> ReferenceMap:
    """Extend a sparse map with regressed entries at the plan's targets.

    ``lin_interp`` blends each target's two plan anchors and is only valid
    on interpolation plans. ``lin_reg`` plane-fits the ``neighbors``
    nearest sparse entries per target. ``nonlin_reg`` feeds the single
    nearest sparse entry and the relative pose through ``model``. The
    input map is never mutated; regressed entries are appended in plan
    order under their target ids.

    The dense map's (len(sparse) + targets, dim) descriptor block is
    allocated once and the sparse rows are copied into its head.
    ``lin_reg`` and ``nonlin_reg`` read the sparse map's descriptor block in
    place through the targets' neighbor rows, one row block at a time, and
    write their rows straight into its tail, so neither gathers the anchor
    descriptors of every target or builds a block of its rows alone to
    copy; ``lin_interp``'s blend is copied in. Besides its output, a call
    holds the regressors' row-blocked scratch, the targets' neighbor
    indices and, for ``nonlin_reg``, the targets' relative-pose rows.
    """
    if method not in METHODS:
        raise InvalidConfig(f"unknown densification method {method!r}")
    if method == METHOD_LIN_INTERP and plan.scheme != INTERPOLATION:
        raise MethodPlanMismatch("lin_interp requires an interpolation plan")
    if method == METHOD_NONLIN_REG:
        if model is None:
            raise MethodPlanMismatch("nonlin_reg requires a trained regressor model")
        if model.input_dim != sparse.dim + 7 or model.output_dim != sparse.dim:
            raise DimMismatch(
                f"regressor dims ({model.input_dim} -> {model.output_dim}) do not fit map dim {sparse.dim}"
            )
    if not plan.targets:
        return sparse
    if len(sparse) == 0:
        raise EmptyMap("cannot densify an empty map")
    if method == METHOD_LIN_REG and min(neighbors, len(sparse)) < 4:
        raise TooFewNeighbors("sparse map too small for a plane fit")

    n = len(sparse)
    descriptors = np.empty((n + len(plan.targets), sparse.dim))
    descriptors[:n] = sparse.descriptors
    regressed = descriptors[n:]
    target_t = plan.translations
    if method == METHOD_LIN_INTERP:
        row_of = dict(zip(sparse.ids, range(n)))
        pairs = np.array([row_of.get(a, -1) for a in plan.anchors], dtype=np.intp)[plan.anchor_rows]
        if (pairs < 0).any():
            r, c = divmod(int(np.argmax(pairs < 0)), 2)
            missing = plan.anchors[plan.anchor_rows[r, c]]
            raise UnknownAnchor(f"target {plan.targets[r]!r} names anchor {missing!r}, which the map does not hold")
        i1, i2 = pairs.T
        regressed[:] = lin_interp_many(
            sparse.descriptors[i1], sparse.descriptors[i2], sparse.translations[i1], sparse.translations[i2], target_t
        )
    elif method == METHOD_LIN_REG:
        idx = nearest_neighbors(target_t, sparse.translations, neighbors)[0]
        plane_fit_many(sparse.descriptors, sparse.translations, idx, target_t, out=regressed)
    else:
        nearest = nearest_neighbors(target_t, sparse.translations, 1)[0][:, 0]
        dp_rows = relative_pose_rows(
            sparse.translations[nearest], sparse.quaternions[nearest], target_t, plan.quaternions
        )
        regress_nonlinear_batch(model, sparse.descriptors, nearest, dp_rows, out=regressed)

    return ReferenceMap(
        ids=sparse.ids + plan.targets,
        descriptors=descriptors,
        translations=np.concatenate([sparse.translations, target_t]),
        quaternions=np.concatenate([sparse.quaternions, plan.quaternions]),
    )
