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

import numpy as np

from .blocks import even_blocks
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
        if self.neighbors < 4:
            raise InvalidConfig("plane fit needs at least 4 neighbors")
        if self.dedupe_radius < 0:
            raise InvalidConfig("dedupe_radius must be non-negative")


@dataclass(frozen=True, eq=False)
class TargetPlan:
    """Poses to regress plus the anchors assigned to each, as columns in plan order.

    ``targets`` holds the target ids, ``translations`` (n, 3) and
    ``quaternions`` (n, 4) their poses, read-only, and ``anchor_ids`` one
    tuple per target: the two bracketing anchors of an interpolation
    target, or the grid anchor of an extrapolation target. Every target id
    holds the ``#`` provenance marker of a regressed entry. Translations
    must be finite; quaternions are normalized here, once.
    """

    scheme: str
    targets: tuple[str, ...]
    translations: np.ndarray
    quaternions: np.ndarray
    anchor_ids: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.scheme not in (INTERPOLATION, EXTRAPOLATION):
            raise InvalidConfig(f"unknown plan scheme {self.scheme!r}")
        targets, anchor_ids = tuple(self.targets), tuple(map(tuple, self.anchor_ids))
        unmarked = [target for target in targets if "#" not in target]
        if unmarked:
            raise InvalidConfig(f"target id {unmarked[0]!r} lacks the '#' marker of a regressed entry")
        counts = set(map(len, anchor_ids))
        if self.scheme == INTERPOLATION and counts - {2}:
            raise InvalidConfig("interpolation targets carry exactly two anchor ids")
        if self.scheme == EXTRAPOLATION and 0 in counts:
            raise InvalidConfig("extrapolation targets carry at least one anchor id")
        translations, quaternions = pose_blocks(self.translations, self.quaternions)
        if not len(targets) == len(anchor_ids) == len(translations):
            raise CountMismatch(f"{len(targets)} target ids, {len(anchor_ids)} anchor tuples, {len(translations)} poses")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "anchor_ids", anchor_ids)
        object.__setattr__(self, "translations", translations)
        object.__setattr__(self, "quaternions", quaternions)

    def to_json(self) -> str:
        rows = zip(self.targets, self.translations.tolist(), self.quaternions.tolist(), self.anchor_ids)
        doc = {
            "scheme": self.scheme,
            "targets": [
                {"id": target, "pose": {"t": t, "q": q}, "anchor_ids": list(anchors)}
                for target, t, q, anchors in rows
            ],
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
    pairs = list(zip(anchors.ids, anchors.ids[1:]))
    prefixes = [f"{a1}~{a2}#k" for a1, a2 in pairs]
    slots_l = slots.tolist()
    return TargetPlan(
        scheme=INTERPOLATION,
        targets=[prefixes[slot] + str(n) for slot, n in zip(slots_l, k.tolist())],
        translations=dropped.translations,
        quaternions=dropped.quaternions,
        anchor_ids=[pairs[slot] for slot in slots_l],
    )


# Odd multipliers that fold a dedupe cell's integer keys into one uint64 code.
# The codes of a cell's 27 neighbors are distinct; codes of far-apart cells
# can collide, so every pair found through a code has its keys compared.
_CELL_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 1], dtype=np.uint64)
_NEIGHBORS = list(itertools.product((-1, 0, 1), repeat=3))
_NEIGHBOR_SHIFTS = np.array(_NEIGHBORS).astype(np.uint64) @ _CELL_MULTIPLIERS
# The same cell and the 13 neighbors lexicographically after it: within one
# point set, each pair in two different neighbor cells is found once.
_HALF_SHIFTS = _NEIGHBOR_SHIFTS[[i for i, n in enumerate(_NEIGHBORS) if n >= (0, 0, 0)]]


def _close_pairs(points, keys, codes, queries, others, radius, shifts) -> tuple[np.ndarray, np.ndarray]:
    """(query, other) pairs of ``points`` indices that the dedupe calls close,
    for every other point in a cell ``shifts`` away from the query's cell.

    Two points are close when their cell keys differ by at most 1 on every
    axis and d @ d <= radius**2 for their difference d (its sign does not
    change d @ d).
    """
    found_query, found_other = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    if not (len(queries) and len(others)):
        return found_query[0], found_other[0]
    others = others[np.argsort(codes[others], kind="stable")]
    other_codes, other_points, other_keys = codes[others], points[others], keys[others]
    # One entry per occupied cell: its code, first position in ``others`` and size.
    starts = np.flatnonzero(np.r_[True, other_codes[1:] != other_codes[:-1]])
    cells, sizes = other_codes[starts], np.diff(np.r_[starts, len(others)])
    # Queries in code order let each binary search start where the last one ended.
    queries = queries[np.argsort(codes[queries], kind="stable")]
    query_codes, query_points, query_keys = codes[queries], points[queries], keys[queries]
    r2 = radius * radius
    for shift in shifts:
        wanted = query_codes + shift
        cell = np.minimum(np.searchsorted(cells, wanted), len(cells) - 1)
        counts = np.where(cells[cell] == wanted, sizes[cell], 0)
        lo = starts[cell]
        total = int(counts.sum())
        if not total:
            continue
        q = np.repeat(np.arange(len(queries)), counts)
        o = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        d = np.repeat(query_points, counts, axis=0) - other_points[o]
        close = row_dots(d, d) <= r2
        q, o = q[close], o[close]
        close = np.all(np.abs(query_keys[q] - other_keys[o]) <= 1, axis=1)
        found_query.append(queries[q[close]])
        found_other.append(others[o[close]])
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
    """
    cell = max(radius, 1e-9)
    with np.errstate(over="ignore"):
        keys = np.stack([_cell_ranks(np.floor(points[:, axis] / cell)) for axis in range(3)], axis=1)
    codes = keys.astype(np.uint64) @ _CELL_MULTIPLIERS
    keep = np.ones(len(points), dtype=bool)
    # Fixed points are always kept, so a point close to one is dropped outright.
    near_fixed, _ = _close_pairs(
        points, keys, codes, np.arange(first, len(points)), np.arange(first), radius, _NEIGHBOR_SHIFTS
    )
    keep[near_fixed] = False
    kept = np.zeros(0, dtype=np.intp)
    for lo in range(first, len(points), _DEDUPE_CHUNK):
        hi = min(lo + _DEDUPE_CHUNK, len(points))
        chunk = np.arange(lo, hi)
        near_kept, _ = _close_pairs(points, keys, codes, chunk[keep[lo:hi]], kept, radius, _NEIGHBOR_SHIFTS)
        keep[near_kept] = False
        rest = chunk[keep[lo:hi]]
        a, b = _close_pairs(points, keys, codes, rest, rest, radius, _HALF_SHIFTS)
        keep[lo:hi] = _greedy(keep[lo:hi].tolist(), np.maximum(a, b) - lo, np.minimum(a, b) - lo)
        kept = np.concatenate([kept, rest[keep[rest]]])
        # In code order, so the next chunk's sort of it is a merge of two runs.
        kept = kept[np.argsort(codes[kept], kind="stable")]
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
    anchor_ids = [(aid,) for aid in anchors.ids]
    owner_l = owner.tolist()
    return TargetPlan(
        scheme=EXTRAPOLATION,
        targets=[anchors.ids[a] + suffixes[k] for a, k in zip(owner_l, slot.tolist())],
        translations=candidates[kept],
        quaternions=anchors.quaternions[owner],
        anchor_ids=[anchor_ids[a] for a in owner_l],
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


def plane_fit_many(descriptors, translations, neighbor_idx, t_new) -> np.ndarray:
    """Stacked :func:`plane_fit_regress` over the rows of ``neighbor_idx``.

    Row i fits ``descriptors[neighbor_idx[i]]`` over
    ``translations[neighbor_idx[i]]`` and evaluates the fit at ``t_new[i]``.
    The min-norm solution comes from a batched pseudo-inverse of the
    (m, k, 4) design matrices with the same 1e-10 relative singular-value
    cut as ``lstsq``; the prediction is the weighted sum of the neighbor
    descriptors with weights [t_new, 1] @ pinv(design). Each system is
    factored on its own, so the rows run in even blocks of at most
    ``_FIT_BLOCK_ROWS`` (:func:`copr.blocks.even_blocks`) with the same
    result as one batch.
    """
    neighbor_idx = np.asarray(neighbor_idx)
    t_new = np.asarray(t_new, dtype=np.float64)
    m, k = neighbor_idx.shape
    out = np.empty((m, descriptors.shape[1]))
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

    target_t = plan.translations
    if method == METHOD_LIN_INTERP:
        pairs = np.array(plan.anchor_ids)
        names, inverse = np.unique(pairs, return_inverse=True)
        try:
            rows = np.array([sparse.index_of(name) for name in names.tolist()], dtype=np.intp)
        except KeyError as exc:
            r = int(np.argmax((pairs == exc.args[0]).any(axis=1)))
            raise UnknownAnchor(
                f"target {plan.targets[r]!r} names anchor {exc.args[0]!r}, which the map does not hold"
            ) from None
        i1, i2 = rows[inverse].reshape(-1, 2).T
        regressed = lin_interp_many(
            sparse.descriptors[i1], sparse.descriptors[i2], sparse.translations[i1], sparse.translations[i2], target_t
        )
    elif method == METHOD_LIN_REG:
        if min(neighbors, len(sparse)) < 4:
            raise TooFewNeighbors("sparse map too small for a plane fit")
        idx = nearest_neighbors(target_t, sparse.translations, neighbors)[0]
        regressed = plane_fit_many(sparse.descriptors, sparse.translations, idx, target_t)
    else:
        nearest = nearest_neighbors(target_t, sparse.translations, 1)[0][:, 0]
        dp_rows = relative_pose_rows(
            sparse.translations[nearest], sparse.quaternions[nearest], target_t, plan.quaternions
        )
        regressed = regress_nonlinear_batch(model, sparse.descriptors[nearest], dp_rows)

    return sparse.extended(plan.targets, regressed, target_t, plan.quaternions)
