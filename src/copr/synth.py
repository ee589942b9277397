"""Seeded synthetic worlds: descriptor fields, trajectory layouts, stray cases.

A descriptor field is a smooth deterministic function from pose to an
N-dimensional descriptor; it stands in for a learned image encoder, which
makes ground-truth descriptors available at arbitrary target poses by
construction. Scenes pair a reference trajectory (the ground-truth dense
map) with an offset query trajectory and a viewpoint-varied training
traverse, mirroring the reference/query/training splits of indoor
relocalization benchmarks.

Everything is a pure function of its seeds; generating a scene twice with
the same configs yields bitwise-identical arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigConflict, InsufficientScenes, InvalidConfig, IoError
from .geometry import Pose, poses, quat_from_yaw
from .neural.training import EncoderDataset
from .vpr_map import ReferenceMap, load_map, save_map

LAYOUTS = ("loop", "parallel_lanes", "multi_scene")

# Fixed desk-scale constants in meters; documented rather than configurable.
LANE_SPACING = 0.25
LOOP_WIGGLE_FRACTION = 0.008  # radial jitter of loop trajectories, vs extent
TRAIN_STRIDE = 5  # lane layouts keep every 5th pose of both lanes for training
MULTI_SCENE_RADIUS = 1.0
STRAY_LOCAL_SPACING = 0.5  # arc spacing of a stray case's four honest references


@dataclass(frozen=True)
class FieldConfig:
    """Descriptor-field parameters.

    ``affine`` fields are exactly linear in translation (useful as an
    analytically solvable world); ``random_fourier`` fields superpose
    seeded sine waves plus a small orientation-dependent term.
    """

    dim: int
    kind: str = "random_fourier"
    num_waves: int = 8
    freq_scale: float = 1.0
    orientation_weight: float = 0.1
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidConfig("field dim must be at least 1")
        if self.kind not in ("affine", "random_fourier"):
            raise InvalidConfig(f"unknown field kind {self.kind!r}")
        if self.num_waves < 1:
            raise InvalidConfig("num_waves must be at least 1")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be non-negative")


class AffineField:
    """f(pose) = A @ t + b, ignoring orientation."""

    def __init__(self, matrix: np.ndarray, offset: np.ndarray, noise_sigma: float):
        self.matrix = matrix
        self.offset = offset
        self.noise_sigma = noise_sigma
        self.dim = matrix.shape[0]

    def eval_many(self, translations: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
        return np.asarray(translations, dtype=np.float64) @ self.matrix.T + self.offset

    def eval_one(self, pose: Pose) -> np.ndarray:
        return self.eval_many(pose.t.reshape(1, 3), pose.q.reshape(1, 4))[0]


class RandomFourierField:
    """Superposed sine waves of translation plus an orientation term.

    Per dimension d: sum_w amps[d,w] * sin(omegas[d,w,:] . t + phases[d,w])
    plus orientation_weight * (orient_vecs[d,:] . heading(q)), where
    heading is the rotated +x axis.
    """

    def __init__(self, amps, omegas, phases, orient_vecs, orientation_weight, noise_sigma):
        self.amps = amps  # (dim, waves)
        self.omegas = omegas  # (dim, waves, 3)
        self.phases = phases  # (dim, waves)
        self.orient_vecs = orient_vecs  # (dim, 3)
        self.orientation_weight = orientation_weight
        self.noise_sigma = noise_sigma
        self.dim = amps.shape[0]

    def eval_many(self, translations: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
        t = np.asarray(translations, dtype=np.float64)
        args = np.einsum("nk,dwk->ndw", t, self.omegas) + self.phases
        values = np.einsum("ndw,dw->nd", np.sin(args), self.amps)
        if self.orientation_weight != 0.0:
            headings = _headings(np.asarray(quaternions, dtype=np.float64))
            values = values + self.orientation_weight * (headings @ self.orient_vecs.T)
        return values

    def eval_one(self, pose: Pose) -> np.ndarray:
        return self.eval_many(pose.t.reshape(1, 3), pose.q.reshape(1, 4))[0]

    def gradient_bound(self) -> float:
        """Upper bound on any |df_d/dt| component: sum_w |a| * ||omega||."""
        norms = np.linalg.norm(self.omegas, axis=2)
        return float(np.max(np.sum(np.abs(self.amps) * norms, axis=1)))


def _headings(quaternions: np.ndarray) -> np.ndarray:
    w, x, y, z = quaternions.T
    # First column of the rotation matrix, i.e. R(q) @ [1, 0, 0].
    return np.stack(
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)], axis=1
    )


def make_field(cfg: FieldConfig):
    """Instantiate the seeded descriptor field described by ``cfg``."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind == "affine":
        matrix = rng.standard_normal((cfg.dim, 3))
        offset = rng.standard_normal(cfg.dim)
        return AffineField(matrix, offset, cfg.noise_sigma)
    scale = 1.0 / math.sqrt(cfg.num_waves)
    amps = rng.standard_normal((cfg.dim, cfg.num_waves)) * scale
    omegas = rng.standard_normal((cfg.dim, cfg.num_waves, 3)) * cfg.freq_scale
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.dim, cfg.num_waves))
    orient_vecs = rng.standard_normal((cfg.dim, 3))
    return RandomFourierField(amps, omegas, phases, orient_vecs, cfg.orientation_weight, cfg.noise_sigma)


@dataclass(frozen=True)
class SceneConfig:
    """Trajectory layout parameters.

    loop: ``n_refs`` poses around a circle of diameter ``extent_m`` with a
    small seeded radial wiggle; queries run on a ring pushed out by
    ``query_offset_m``. parallel_lanes: two straight lanes offset by
    ``lane_offset_m`` on x; queries live on the far lane. multi_scene:
    ``n_scenes`` disjoint mini-loops spaced ``scene_spacing_m`` apart.
    """

    layout: str
    n_refs: int = 1000
    extent_m: float = 10.0
    n_per_lane: int = 160
    lane_offset_m: float = 1.8
    n_scenes: int = 3
    scene_spacing_m: float = 40.0
    refs_per_scene: int = 150
    query_offset_m: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise InvalidConfig(f"unknown layout {self.layout!r}")
        if self.layout == "loop":
            if self.n_refs < 2:
                raise InvalidConfig("loop needs at least 2 references")
            if self.extent_m <= 0:
                raise InvalidConfig("extent_m must be positive")
            if self.query_offset_m >= self.extent_m / 2.0:
                raise ConfigConflict("query offset exceeds the loop radius")
        elif self.layout == "parallel_lanes":
            if self.n_per_lane < 2:
                raise InvalidConfig("lanes need at least 2 references each")
            if self.lane_offset_m <= 0:
                raise InvalidConfig("lane_offset_m must be positive")
        else:
            if self.n_scenes < 1:
                raise InvalidConfig("multi_scene needs at least 1 scene")
            if self.refs_per_scene < 2:
                raise InvalidConfig("refs_per_scene must be at least 2")
            if self.scene_spacing_m <= 2.0 * (MULTI_SCENE_RADIUS + self.query_offset_m):
                raise ConfigConflict("scenes would overlap at this spacing")


@dataclass(frozen=True)
class SyntheticScene:
    """A generated world: reference map, queries, training traverse, field."""

    gt_dense: ReferenceMap
    queries: list  # list of (descriptor ndarray, Pose)
    train_refs: ReferenceMap
    field: object
    ref_labels: tuple[int, ...]
    query_labels: tuple[int, ...]
    train_labels: tuple[int, ...]
    scene_cfg: SceneConfig
    field_cfg: FieldConfig

    @property
    def dim(self) -> int:
        return self.gt_dense.dim


def _loop_poses(n: int, radius: float, wiggle: float, phase: float, rng: np.random.Generator | None, center=(0.0, 0.0)):
    poses = []
    for i in range(n):
        theta = 2.0 * math.pi * i / n + phase
        r = radius + (rng.uniform(-wiggle, wiggle) if rng is not None and wiggle > 0 else 0.0)
        t = np.array([center[0] + r * math.cos(theta), center[1] + r * math.sin(theta), 0.0])
        poses.append(Pose(t=t, q=quat_from_yaw(theta + math.pi / 2.0)))
    return poses


def _map_from(field, poses, prefix: str, rng: np.random.Generator) -> ReferenceMap:
    t = np.asarray([p.t for p in poses])
    q = np.asarray([p.q for p in poses])
    desc = field.eval_many(t, q)
    if field.noise_sigma > 0.0:
        desc = desc + rng.normal(0.0, field.noise_sigma, size=desc.shape)
    ids = tuple(f"{prefix}{i:05d}" for i in range(len(poses)))
    return ReferenceMap(
        ids=ids,
        descriptors=desc,
        translations=t.reshape(len(poses), 3),
        quaternions=q.reshape(len(poses), 4),
    )


def gen_scene(scene_cfg: SceneConfig, field_cfg: FieldConfig) -> SyntheticScene:
    """Generate references, queries, and a training traverse from a field."""
    field = make_field(field_cfg)
    seeds = np.random.SeedSequence(scene_cfg.seed).spawn(4)
    ref_rng = np.random.default_rng(seeds[0])
    query_rng = np.random.default_rng(seeds[1])
    train_rng = np.random.default_rng(seeds[2])
    noise_rng = np.random.default_rng(seeds[3])

    if scene_cfg.layout == "loop":
        radius = scene_cfg.extent_m / 2.0
        wiggle = scene_cfg.extent_m * LOOP_WIGGLE_FRACTION
        ref_poses = _loop_poses(scene_cfg.n_refs, radius, wiggle, 0.0, ref_rng)
        ref_labels = tuple(0 for _ in ref_poses)
        n_q = min(200, scene_cfg.n_refs)
        half_step = math.pi / scene_cfg.n_refs
        query_poses = _loop_poses(n_q, radius + scene_cfg.query_offset_m, 0.0, half_step, None)
        query_labels = tuple(0 for _ in query_poses)
        train_poses = _viewpoint_varied_loop(
            scene_cfg.n_refs // 2, radius, 1.25 * scene_cfg.query_offset_m, train_rng
        )
        train_labels = tuple(0 for _ in train_poses)
    elif scene_cfg.layout == "parallel_lanes":
        n = scene_cfg.n_per_lane
        off = scene_cfg.lane_offset_m
        ref_poses = [_lane_pose(0.0, i * LANE_SPACING) for i in range(n)]
        ref_labels = tuple(0 for _ in ref_poses)
        query_poses = [_lane_pose(off, (i + 0.5) * LANE_SPACING) for i in range(n)]
        query_labels = tuple(0 for _ in query_poses)
        train_poses = []
        shift = 0.4 * LANE_SPACING
        for i in range(0, n, TRAIN_STRIDE):
            train_poses.append(_lane_pose(0.0, i * LANE_SPACING + shift))
            train_poses.append(_lane_pose(off, i * LANE_SPACING + shift))
        train_labels = tuple(0 for _ in train_poses)
    else:
        ref_poses, query_poses, train_poses = [], [], []
        ref_labels_l, query_labels_l, train_labels_l = [], [], []
        for s in range(scene_cfg.n_scenes):
            center = (s * scene_cfg.scene_spacing_m, 0.0)
            n = scene_cfg.refs_per_scene
            refs_s = _loop_poses(n, MULTI_SCENE_RADIUS, 0.02, 0.0, ref_rng, center)
            n_q = max(1, n // 5)
            queries_s = _loop_poses(
                n_q, MULTI_SCENE_RADIUS + scene_cfg.query_offset_m, 0.0, math.pi / n, None, center
            )
            train_s = _viewpoint_varied_loop(
                n // 2, MULTI_SCENE_RADIUS, 1.25 * scene_cfg.query_offset_m, train_rng, center
            )
            ref_poses += refs_s
            query_poses += queries_s
            train_poses += train_s
            ref_labels_l += [s] * len(refs_s)
            query_labels_l += [s] * len(queries_s)
            train_labels_l += [s] * len(train_s)
        ref_labels = tuple(ref_labels_l)
        query_labels = tuple(query_labels_l)
        train_labels = tuple(train_labels_l)

    gt_dense = _map_from(field, ref_poses, "r", noise_rng)
    train_refs = _map_from(field, train_poses, "t", noise_rng)
    q_t = np.asarray([p.t for p in query_poses])
    q_q = np.asarray([p.q for p in query_poses])
    q_desc = field.eval_many(q_t, q_q)
    if field.noise_sigma > 0.0:
        q_desc = q_desc + noise_rng.normal(0.0, field.noise_sigma, size=q_desc.shape)
    queries = [(q_desc[i], query_poses[i]) for i in range(len(query_poses))]
    return SyntheticScene(
        gt_dense=gt_dense,
        queries=queries,
        train_refs=train_refs,
        field=field,
        ref_labels=ref_labels,
        query_labels=query_labels,
        train_labels=train_labels,
        scene_cfg=scene_cfg,
        field_cfg=field_cfg,
    )


def _lane_pose(x: float, y: float) -> Pose:
    return Pose(t=np.array([x, y, 0.0]), q=quat_from_yaw(math.pi / 2.0))


def _viewpoint_varied_loop(n: int, radius: float, radial_span: float, rng: np.random.Generator, center=(0.0, 0.0)):
    """A re-traversal of a loop with seeded radial and heading variation."""
    poses = []
    for i in range(max(n, 2)):
        theta = 2.0 * math.pi * i / max(n, 2) + rng.uniform(-0.5, 0.5) * (2.0 * math.pi / max(n, 2))
        r = radius + rng.uniform(-radial_span, radial_span)
        t = np.array([center[0] + r * math.cos(theta), center[1] + r * math.sin(theta), 0.0])
        yaw = theta + math.pi / 2.0 + rng.uniform(-0.3, 0.3)
        poses.append(Pose(t=t, q=quat_from_yaw(yaw)))
    return poses


@dataclass(frozen=True)
class StrayCase:
    """Four local references, one blended stray from a distant scene."""

    query_descriptor: np.ndarray
    query_pose: Pose
    refs: ReferenceMap
    stray_id: str
    stray_descriptor: np.ndarray
    stray_pose: Pose
    similarity: float
    case_seed: int


def make_stray_case(
    scene_cfg: SceneConfig,
    field_cfg: FieldConfig,
    similarity: float,
    case_seed: int = 0,
) -> StrayCase:
    """Construct one perceptual-aliasing failure case.

    Four references are sparsely sampled from the scene's reference ring
    around a query (spaced ``STRAY_LOCAL_SPACING`` meters along the arc, with a
    seeded jitter); a fifth stray reference from a different scene gets
    its descriptor blended toward the query descriptor by ``similarity``,
    so at high similarity the stray outranks every honest local reference.
    """
    if scene_cfg.layout != "multi_scene" or scene_cfg.n_scenes < 2:
        raise InsufficientScenes("stray cases need a multi_scene layout with at least 2 scenes")
    if not (0.0 <= similarity <= 1.0):
        raise InvalidConfig("similarity must lie in [0, 1]")
    field = make_field(field_cfg)
    rng = np.random.default_rng(np.random.SeedSequence([scene_cfg.seed, 977, case_seed]))
    scene_a = case_seed % scene_cfg.n_scenes
    scene_b = (scene_a + 1) % scene_cfg.n_scenes
    center_a = (scene_a * scene_cfg.scene_spacing_m, 0.0)
    center_b = np.array([scene_b * scene_cfg.scene_spacing_m, 0.0, 0.0])

    theta = rng.uniform(0.0, 2.0 * math.pi)
    r_q = MULTI_SCENE_RADIUS + scene_cfg.query_offset_m
    q_t = np.array([center_a[0] + r_q * math.cos(theta), r_q * math.sin(theta), 0.0])
    q_pose = Pose(t=q_t, q=quat_from_yaw(theta + math.pi / 2.0))
    f_query = field.eval_one(q_pose)

    dtheta = STRAY_LOCAL_SPACING / MULTI_SCENE_RADIUS
    entries = []
    for k, step in enumerate((-1.5, -0.5, 0.5, 1.5)):
        ang = theta + step * dtheta * rng.uniform(0.85, 1.15)
        t = np.array(
            [center_a[0] + MULTI_SCENE_RADIUS * math.cos(ang), MULTI_SCENE_RADIUS * math.sin(ang), 0.0]
        )
        pose = Pose(t=t, q=quat_from_yaw(ang + math.pi / 2.0))
        entries.append((f"local{k}", field.eval_one(pose), pose))
    refs = ReferenceMap.from_entries(entries)

    theta_b = rng.uniform(0.0, 2.0 * math.pi)
    s_t = center_b + np.array(
        [MULTI_SCENE_RADIUS * math.cos(theta_b), MULTI_SCENE_RADIUS * math.sin(theta_b), 0.0]
    )
    s_pose = Pose(t=s_t, q=quat_from_yaw(theta_b + math.pi / 2.0))
    f_stray = (1.0 - similarity) * field.eval_one(s_pose) + similarity * f_query
    return StrayCase(
        query_descriptor=f_query,
        query_pose=q_pose,
        refs=refs,
        stray_id="stray",
        stray_descriptor=f_stray,
        stray_pose=s_pose,
        similarity=similarity,
        case_seed=case_seed,
    )


def make_observations(
    field,
    translations: np.ndarray,
    quaternions: np.ndarray,
    rng: np.random.Generator,
    nuisance_sigma: float = 1.0,
) -> np.ndarray:
    """Observation vectors: field values plus seeded nuisance dimensions.

    Output dim is 4x the field dim (one informative block, three noise
    blocks), so an encoder has to learn which subspace carries pose
    information.
    """
    values = field.eval_many(translations, quaternions)
    n, dim = values.shape
    nuisance = rng.normal(0.0, nuisance_sigma, size=(n, 3 * dim))
    return np.hstack([values, nuisance])


def make_encoder_dataset(scene: SyntheticScene, nuisance_sigma: float = 1.0, seed: int = 0) -> EncoderDataset:
    """Encoder training observations from the scene's training traverse."""
    rng = np.random.default_rng(np.random.SeedSequence([scene.scene_cfg.seed, 31, seed]))
    obs = make_observations(
        scene.field, scene.train_refs.translations, scene.train_refs.quaternions, rng, nuisance_sigma
    )
    return EncoderDataset(
        observations=obs,
        translations=scene.train_refs.translations,
        quaternions=scene.train_refs.quaternions,
        labels=scene.train_labels,
        descriptor_dim=scene.dim,
    )


SIDECAR_NAME = "scene.json"
_FILES = {
    "refs": ("refs_poses.csv", "refs_descriptors.bin"),
    "queries": ("query_poses.csv", "query_descriptors.bin"),
    "train": ("train_poses.csv", "train_descriptors.bin"),
}


def save_scene(scene: SyntheticScene, directory) -> None:
    """Export a scene as map files plus a JSON sidecar.

    The sidecar records both configs, the seeds, and per-entry scene
    labels, so experiments can be re-run from disk alone.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create scene directory: {exc}") from exc
    save_map(scene.gt_dense, directory / _FILES["refs"][0], directory / _FILES["refs"][1])
    save_map(scene.train_refs, directory / _FILES["train"][0], directory / _FILES["train"][1])
    query_map = ReferenceMap.from_entries(
        (f"q{i:05d}", desc, pose) for i, (desc, pose) in enumerate(scene.queries)
    )
    save_map(query_map, directory / _FILES["queries"][0], directory / _FILES["queries"][1])
    sidecar = {
        "format_version": 1,
        "field_config": asdict(scene.field_cfg),
        "scene_config": asdict(scene.scene_cfg),
        "labels": {
            "refs": list(scene.ref_labels),
            "queries": list(scene.query_labels),
            "train": list(scene.train_labels),
        },
        "files": {k: list(v) for k, v in _FILES.items()},
    }
    try:
        (directory / SIDECAR_NAME).write_text(json.dumps(sidecar, indent=2), encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write scene sidecar: {exc}") from exc


def load_scene(directory) -> SyntheticScene:
    """Load a scene directory written by :func:`save_scene`.

    Map data comes from the exported files (bit-exact f32); the field
    handle is rebuilt from the sidecar's config so oracle evaluation and
    regressor training stay available.
    """
    directory = Path(directory)
    try:
        sidecar = json.loads((directory / SIDECAR_NAME).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read scene sidecar: {exc}") from exc
    field_cfg = FieldConfig(**sidecar["field_config"])
    scene_cfg = SceneConfig(**sidecar["scene_config"])
    gt_dense = load_map(directory / _FILES["refs"][0], directory / _FILES["refs"][1])
    train_refs = load_map(directory / _FILES["train"][0], directory / _FILES["train"][1])
    query_map = load_map(directory / _FILES["queries"][0], directory / _FILES["queries"][1])
    queries = list(zip(query_map.descriptors, poses(query_map.translations, query_map.quaternions)))
    labels = sidecar["labels"]
    return SyntheticScene(
        gt_dense=gt_dense,
        queries=queries,
        train_refs=train_refs,
        field=make_field(field_cfg),
        ref_labels=tuple(labels["refs"]),
        query_labels=tuple(labels["queries"]),
        train_labels=tuple(labels["train"]),
        scene_cfg=scene_cfg,
        field_cfg=field_cfg,
    )
