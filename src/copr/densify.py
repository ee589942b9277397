"""Target-pose generation and descriptor regression for map densification.

Two target schemes are supported: interpolation targets sit between
consecutive trajectory anchors, extrapolation targets form an x/y grid
around each anchor with orientation and z copied from it. Descriptors at
targets come from one of three regressors: a two-anchor linear blend, a
local least-squares plane fit per feature dimension, or the non-linear
network regressor.

Regressed entries are appended after the originals with deterministic
provenance ids: ``<anchor>#gx<i>y<j>`` for grid targets and
``<a1>~<a2>#k<n>`` for interpolation targets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoincidentAnchors,
    DimMismatch,
    EmptyMap,
    InvalidConfig,
    MethodPlanMismatch,
    TooFewAnchors,
    TooFewNeighbors,
)
from .geometry import Pose, quat_slerp, relative_pose_rows
from .geometry import RelativePose  # noqa: F401  (perfbench/tracer.py wraps copr.densify.RelativePose)
from .neural.core import MlpModel, regress_nonlinear_batch
from .vpr_map import Origin, ReferenceMap, nearest_neighbors

INTERPOLATION = "interpolation"
EXTRAPOLATION = "extrapolation"

METHOD_LIN_INTERP = "lin_interp"
METHOD_LIN_REG = "lin_reg"
METHOD_NONLIN_REG = "nonlin_reg"
METHODS = (METHOD_LIN_INTERP, METHOD_LIN_REG, METHOD_NONLIN_REG)


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


@dataclass(frozen=True)
class Target:
    id: str
    pose: Pose
    anchor_ids: tuple[str, ...]


@dataclass(frozen=True)
class TargetPlan:
    """Poses to regress plus the anchors assigned to each."""

    scheme: str
    targets: tuple[Target, ...]

    def __post_init__(self):
        if self.scheme not in (INTERPOLATION, EXTRAPOLATION):
            raise InvalidConfig(f"unknown plan scheme {self.scheme!r}")
        for t in self.targets:
            if self.scheme == INTERPOLATION and len(t.anchor_ids) != 2:
                raise InvalidConfig("interpolation targets carry exactly two anchor ids")
            if self.scheme == EXTRAPOLATION and len(t.anchor_ids) < 1:
                raise InvalidConfig("extrapolation targets carry at least one anchor id")
        object.__setattr__(self, "targets", tuple(self.targets))

    def to_json(self) -> str:
        doc = {
            "scheme": self.scheme,
            "targets": [
                {
                    "id": t.id,
                    "pose": {"t": [float(v) for v in t.pose.t], "q": [float(v) for v in t.pose.q]},
                    "anchor_ids": list(t.anchor_ids),
                }
                for t in self.targets
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TargetPlan":
        doc = json.loads(text)
        targets = tuple(
            Target(
                id=t["id"],
                pose=Pose(t=np.asarray(t["pose"]["t"]), q=np.asarray(t["pose"]["q"])),
                anchor_ids=tuple(t["anchor_ids"]),
            )
            for t in doc["targets"]
        )
        return cls(scheme=doc["scheme"], targets=targets)


@dataclass(frozen=True)
class DroppedPose:
    """A trajectory pose removed by subsampling, with its bracketing segment.

    ``left_anchor`` indexes into the subsampled anchor map and names the
    anchor immediately before this pose along the original trajectory
    (clamped to the second-to-last anchor for poses past the final one).
    """

    left_anchor: int
    pose: Pose


def subsample_trajectory(ref_map: ReferenceMap, stride: int) -> tuple[ReferenceMap, list[DroppedPose]]:
    """Keep every ``stride``-th entry as an anchor, return the rest as targets.

    Anchors sit at indices 0, stride, 2*stride, ...; all other poses are
    returned in original order together with their bracketing segment.
    """
    if len(ref_map) == 0:
        raise EmptyMap("cannot subsample an empty map")
    if stride < 2:
        raise InvalidConfig("stride must be at least 2")
    anchor_idx = list(range(0, len(ref_map), stride))
    anchors = ReferenceMap(
        ids=tuple(ref_map.ids[i] for i in anchor_idx),
        descriptors=ref_map.descriptors[anchor_idx],
        translations=ref_map.translations[anchor_idx],
        quaternions=ref_map.quaternions[anchor_idx],
        origins=tuple(ref_map.origins[i] for i in anchor_idx),
    )
    last_slot = max(len(anchor_idx) - 2, 0)
    dropped = []
    for i in range(len(ref_map)):
        if i % stride == 0:
            continue
        dropped.append(DroppedPose(left_anchor=min(i // stride, last_slot), pose=ref_map.pose(i)))
    return anchors, dropped


def gen_interp_targets(
    anchors: ReferenceMap,
    dropped: list[DroppedPose] | None = None,
    subdivisions: int | None = None,
) -> TargetPlan:
    """Interpolation targets between consecutive anchors.

    Exactly one mode must be given: ``dropped`` replays subsampled
    trajectory poses into their original segments; ``subdivisions=n``
    places n equally spaced targets per segment with slerped orientation.
    """
    if len(anchors) < 2:
        raise TooFewAnchors("interpolation needs at least two anchors")
    if (dropped is None) == (subdivisions is None):
        raise InvalidConfig("pass exactly one of dropped or subdivisions")
    targets = []
    if dropped is not None:
        per_segment: dict[int, int] = {}
        for item in dropped:
            slot = min(max(item.left_anchor, 0), len(anchors) - 2)
            k = per_segment.get(slot, 0) + 1
            per_segment[slot] = k
            a1, a2 = anchors.ids[slot], anchors.ids[slot + 1]
            targets.append(Target(id=f"{a1}~{a2}#k{k}", pose=item.pose, anchor_ids=(a1, a2)))
    else:
        if subdivisions < 1:
            raise InvalidConfig("subdivisions must be at least 1")
        for slot in range(len(anchors) - 1):
            a1, a2 = anchors.ids[slot], anchors.ids[slot + 1]
            t1, t2 = anchors.translations[slot], anchors.translations[slot + 1]
            q1, q2 = anchors.quaternions[slot], anchors.quaternions[slot + 1]
            for k in range(1, subdivisions + 1):
                s = k / (subdivisions + 1)
                pose = Pose(t=(1.0 - s) * t1 + s * t2, q=quat_slerp(q1, q2, s))
                targets.append(Target(id=f"{a1}~{a2}#k{k}", pose=pose, anchor_ids=(a1, a2)))
    return TargetPlan(scheme=INTERPOLATION, targets=tuple(targets))


class _SpatialHash:
    """Uniform-grid hash for incremental radius queries during dedupe."""

    def __init__(self, radius: float):
        self.radius = radius
        self.cell = max(radius, 1e-9)
        self.buckets: dict[tuple[int, int, int], list[np.ndarray]] = {}

    def _key(self, p: np.ndarray) -> tuple[int, int, int]:
        return tuple(int(math.floor(v / self.cell)) for v in p)

    def near(self, p: np.ndarray) -> bool:
        kx, ky, kz = self._key(p)
        r2 = self.radius * self.radius
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for other in self.buckets.get((kx + dx, ky + dy, kz + dz), ()):
                        d = p - other
                        if float(d @ d) <= r2:
                            return True
        return False

    def add(self, p: np.ndarray) -> None:
        self.buckets.setdefault(self._key(p), []).append(p)


def gen_extrap_grid(anchors: ReferenceMap, cfg: DensifyConfig) -> TargetPlan:
    """Per-anchor x/y grid targets with orientation and z copied.

    Around each anchor, targets sit at (x + i*step, y + j*step, z) for
    i, j in [-half, +half] minus the center, half = floor(span/step).
    Targets within ``dedupe_radius`` of any anchor or an earlier kept
    target are dropped, so overlapping grids stay conflict-free.
    """
    if len(anchors) == 0:
        raise EmptyMap("cannot build a grid around an empty anchor map")
    half = int(math.floor(cfg.grid_span / cfg.grid_step + 1e-9))
    hash_ = _SpatialHash(cfg.dedupe_radius)
    for t in anchors.translations:
        hash_.add(np.asarray(t, dtype=np.float64))
    targets = []
    for a in range(len(anchors)):
        ax, ay, az = anchors.translations[a]
        q = anchors.quaternions[a]
        aid = anchors.ids[a]
        for i in range(-half, half + 1):
            for j in range(-half, half + 1):
                if i == 0 and j == 0:
                    continue
                p = np.array([ax + i * cfg.grid_step, ay + j * cfg.grid_step, az])
                if hash_.near(p):
                    continue
                hash_.add(p)
                targets.append(
                    Target(id=f"{aid}#gx{i}y{j}", pose=Pose(t=p, q=q), anchor_ids=(aid,))
                )
    return TargetPlan(scheme=EXTRAPOLATION, targets=tuple(targets))


def lin_interp(f_a1, f_a2, t_a1, t_a2, t_new) -> np.ndarray:
    """Distance-weighted linear blend of two anchor descriptors.

    With b1 = ||t_new - t_a1|| and b2 = ||t_new - t_a2||, the weights are
    (1 - b1/(b1+b2)) on the first anchor and (1 - b2/(b1+b2)) on the
    second, so a target sitting on an anchor copies that anchor exactly.
    """
    f_a1 = np.asarray(f_a1, dtype=np.float64)
    f_a2 = np.asarray(f_a2, dtype=np.float64)
    if f_a1.shape != f_a2.shape:
        raise DimMismatch("anchor descriptors must share one dimension")
    t_a1 = np.asarray(t_a1, dtype=np.float64)
    t_a2 = np.asarray(t_a2, dtype=np.float64)
    t_new = np.asarray(t_new, dtype=np.float64)
    if float(np.linalg.norm(t_a1 - t_a2)) <= 1e-12:
        raise CoincidentAnchors("interpolation anchors share one translation")
    b1 = float(np.linalg.norm(t_new - t_a1))
    b2 = float(np.linalg.norm(t_new - t_a2))
    a1 = b1 / (b1 + b2)
    a2 = b2 / (b1 + b2)
    return (1.0 - a1) * f_a1 + (1.0 - a2) * f_a2


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
    The min-norm solution comes from one batched pseudo-inverse of the
    (m, k, 4) design matrices with the same 1e-10 relative singular-value
    cut as ``lstsq``; the prediction is the weighted sum of the neighbor
    descriptors with weights [t_new, 1] @ pinv(design).
    """
    neighbor_idx = np.asarray(neighbor_idx)
    m, k = neighbor_idx.shape
    design = np.ones((m, k, 4))
    design[:, :, :3] = translations[neighbor_idx]
    x = np.ones((m, 1, 4))
    x[:, 0, :3] = t_new
    weights = np.matmul(x, np.linalg.pinv(design, rcond=1e-10))[:, 0, :]
    out = weights[:, :1] * descriptors[neighbor_idx[:, 0]]
    for j in range(1, k):
        out += weights[:, j : j + 1] * descriptors[neighbor_idx[:, j]]
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
    order with origin ``REGRESSED``.
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

    target_t = np.asarray([t.pose.t for t in plan.targets])
    if method == METHOD_LIN_INTERP:
        regressed = np.empty((len(plan.targets), sparse.dim))
        for r, target in enumerate(plan.targets):
            i1 = sparse.index_of(target.anchor_ids[0])
            i2 = sparse.index_of(target.anchor_ids[1])
            regressed[r] = lin_interp(
                sparse.descriptors[i1],
                sparse.descriptors[i2],
                sparse.translations[i1],
                sparse.translations[i2],
                target.pose.t,
            )
    elif method == METHOD_LIN_REG:
        if min(neighbors, len(sparse)) < 4:
            raise TooFewNeighbors("sparse map too small for a plane fit")
        idx = nearest_neighbors(target_t, sparse.translations, neighbors)[0]
        regressed = plane_fit_many(sparse.descriptors, sparse.translations, idx, target_t)
    else:
        nearest = nearest_neighbors(target_t, sparse.translations, 1)[0][:, 0]
        target_q = np.asarray([t.pose.q for t in plan.targets])
        dp_rows = relative_pose_rows(
            sparse.translations[nearest], sparse.quaternions[nearest], target_t, target_q
        )
        regressed = regress_nonlinear_batch(model, sparse.descriptors[nearest], dp_rows)

    new_entries = [
        (target.id, regressed[r], target.pose, Origin.REGRESSED)
        for r, target in enumerate(plan.targets)
    ]
    return sparse.extended(new_entries)

