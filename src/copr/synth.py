"""Seeded synthetic worlds: descriptor fields, trajectory layouts, stray cases.

A descriptor field is a smooth deterministic function from pose to an
N-dimensional descriptor; it stands in for a learned image encoder, which
makes ground-truth descriptors available at arbitrary target poses by
construction. A scene is three maps: a reference trajectory (the
ground-truth dense map), an offset query trajectory and a viewpoint-varied
training traverse, mirroring the reference/query/training splits of indoor
relocalization benchmarks. Trajectories are built as (n, 3) translation and
(n, 4) quaternion blocks.

Everything is a pure function of its seeds; generating a scene twice with
the same configs yields bitwise-identical arrays. Each map's descriptors
come from one ``eval_many`` call over all its rows: the rows ``eval_many``
returns depend on the batch size, so evaluating the same poses in other
batches can move their last bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigConflict, InsufficientScenes, InvalidConfig, ParseError, VersionUnsupported
from .files import read_json, write_files
from .geometry import Pose, normalize_quat_rows, pose_blocks, poses
from .neural.training import EncoderDataset
# save_map stays bound here: the benchmark tracer wraps copr.synth.save_map.
from .vpr_map import ReferenceMap, load_map, map_files, save_map

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
        for name in ("freq_scale", "orientation_weight", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)!r}")
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
    """A generated world: three maps (references, queries, training
    traverse), their scene labels, and the field they were evaluated on.

    The query map's ids are ``q%05d``, as :func:`save_scene` writes them.
    """

    gt_dense: ReferenceMap
    query_map: ReferenceMap
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

    @property
    def queries(self) -> list:
        """The query map as (descriptor, Pose) pairs, derived on each call:
        :func:`~copr.evaluate.localize_and_summarize` and the benchmark
        take the queries in that form."""
        m = self.query_map
        return list(zip(m.descriptors, poses(m.translations, m.quaternions)))


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each element by libm; numpy's vectorized trig can differ in the last bit."""
    return np.fromiter(map(f, x.tolist()), dtype=np.float64, count=len(x))


def _ring(angles: np.ndarray, radii, center, yaw_jitter=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Poses at ``angles`` on a ring about ``center``, heading along it.

    Returns (n, 3) translations ``center + radii (cos a, sin a, 0)`` and
    (n, 4) quaternions of yaw ``a + pi/2 + yaw_jitter`` about +z, normalized
    once. ``center`` is one (x, y) point or one per angle.
    """
    center = np.asarray(center, dtype=np.float64)
    t = np.zeros((len(angles), 3))
    t[:, 0] = center[..., 0] + radii * _libm(math.cos, angles)
    t[:, 1] = center[..., 1] + radii * _libm(math.sin, angles)
    half = (angles + math.pi / 2.0 + yaw_jitter) / 2.0
    q = np.zeros((len(angles), 4))
    q[:, 0] = _libm(math.cos, half)
    q[:, 3] = _libm(math.sin, half)
    return t, normalize_quat_rows(q)


def _angles(n: int, phase: float = 0.0) -> np.ndarray:
    """``n`` evenly spaced ring angles starting at ``phase``."""
    return 2.0 * math.pi * np.arange(n) / n + phase


def _lane(x, y: np.ndarray):
    """Poses at (x, y, 0) heading along +y."""
    return _ring(np.zeros(len(y)), 0.0, np.column_stack(np.broadcast_arrays(x, y)))


def _loop(n, n_queries, radius, wiggle, query_offset, center, ref_rng, train_rng):
    """Reference, query and training pose blocks of one loop.

    ``n`` references wiggle radially by up to ``wiggle``; ``n_queries``
    queries run on a ring ``query_offset`` further out, phased half a
    reference step; the training traverse re-runs the loop at ``n // 2``
    poses with seeded angle, radius and heading variation.
    """
    refs = _ring(_angles(n), radius + ref_rng.uniform(-wiggle, wiggle, n), center)
    queries = _ring(_angles(n_queries, math.pi / n), radius + query_offset, center)
    m = max(n // 2, 2)
    # Three Generator.uniform(lo, hi) = lo + (hi - lo) * u draws per pose, in pose order.
    lo, hi = np.array([-0.5, -1.25 * query_offset, -0.3]), np.array([0.5, 1.25 * query_offset, 0.3])
    step, dr, dyaw = (lo + (hi - lo) * train_rng.random((m, 3))).T
    train = _ring(_angles(m) + step * (2.0 * math.pi / m), radius + dr, center, dyaw)
    return refs, queries, train


def _map_from(field, t: np.ndarray, q: np.ndarray, prefix: str, rng: np.random.Generator) -> ReferenceMap:
    t, q = pose_blocks(t, q)
    desc = field.eval_many(t, q)
    if field.noise_sigma > 0.0:
        desc = desc + rng.normal(0.0, field.noise_sigma, size=desc.shape)
    ids = tuple(f"{prefix}{i:05d}" for i in range(len(t)))
    return ReferenceMap(ids=ids, descriptors=desc, translations=t, quaternions=q)


def gen_scene(scene_cfg: SceneConfig, field_cfg: FieldConfig) -> SyntheticScene:
    """Generate references, queries, and a training traverse from a field."""
    field = make_field(field_cfg)
    # The second stream once drew for the queries; it stays spawned so the others keep their seeds.
    ref_seed, _, train_seed, noise_seed = np.random.SeedSequence(scene_cfg.seed).spawn(4)
    ref_rng = np.random.default_rng(ref_seed)
    train_rng = np.random.default_rng(train_seed)

    if scene_cfg.layout == "loop":
        n = scene_cfg.n_refs
        radius = scene_cfg.extent_m / 2.0
        wiggle = scene_cfg.extent_m * LOOP_WIGGLE_FRACTION
        parts = [_loop(n, min(200, n), radius, wiggle, scene_cfg.query_offset_m, (0.0, 0.0), ref_rng, train_rng)]
    elif scene_cfg.layout == "parallel_lanes":
        n = scene_cfg.n_per_lane
        off = scene_cfg.lane_offset_m
        ys = np.arange(0, n, TRAIN_STRIDE) * LANE_SPACING + 0.4 * LANE_SPACING
        # Training poses pair up across the two lanes at each kept station.
        train = _lane(np.tile([0.0, off], len(ys)), np.repeat(ys, 2))
        parts = [(_lane(0.0, np.arange(n) * LANE_SPACING), _lane(off, (np.arange(n) + 0.5) * LANE_SPACING), train)]
    else:
        n, off = scene_cfg.refs_per_scene, scene_cfg.query_offset_m
        centers = [(s * scene_cfg.scene_spacing_m, 0.0) for s in range(scene_cfg.n_scenes)]
        parts = [_loop(n, max(1, n // 5), MULTI_SCENE_RADIUS, 0.02, off, c, ref_rng, train_rng) for c in centers]

    # parts[s][j][k]: scene s, split j (refs, queries, train), block k (t, q). Scenes stack in order.
    blocks = [[np.concatenate([part[j][k] for part in parts]) for k in (0, 1)] for j in range(3)]
    labels = [tuple(s for s, part in enumerate(parts) for _ in part[j][0]) for j in range(3)]
    # Noise is drawn in the order refs, train, queries.
    noise_rng = np.random.default_rng(noise_seed)
    gt_dense = _map_from(field, *blocks[0], "r", noise_rng)
    train_refs = _map_from(field, *blocks[2], "t", noise_rng)
    query_map = _map_from(field, *blocks[1], "q", noise_rng)
    return SyntheticScene(
        gt_dense=gt_dense,
        query_map=query_map,
        train_refs=train_refs,
        field=field,
        ref_labels=labels[0], query_labels=labels[1], train_labels=labels[2],
        scene_cfg=scene_cfg,
        field_cfg=field_cfg,
    )


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
    center_b = (scene_b * scene_cfg.scene_spacing_m, 0.0)

    theta = rng.uniform(0.0, 2.0 * math.pi)
    steps = np.array([-1.5, -0.5, 0.5, 1.5]) * (STRAY_LOCAL_SPACING / MULTI_SCENE_RADIUS)
    local_t, local_q = pose_blocks(*_ring(theta + steps * rng.uniform(0.85, 1.15, 4), MULTI_SCENE_RADIUS, center_a))
    theta_b = rng.uniform(0.0, 2.0 * math.pi)
    (q_pose,) = poses(*_ring(np.array([theta]), MULTI_SCENE_RADIUS + scene_cfg.query_offset_m, center_a))
    (s_pose,) = poses(*_ring(np.array([theta_b]), MULTI_SCENE_RADIUS, center_b))

    def value(t, q):  # one pose per field evaluation
        return field.eval_many(t.reshape(1, 3), q.reshape(1, 4))[0]

    f_query = value(q_pose.t, q_pose.q)
    refs = ReferenceMap(
        ids=tuple(f"local{k}" for k in range(4)),
        descriptors=[value(t, q) for t, q in zip(local_t, local_q)],
        translations=local_t,
        quaternions=local_q,
    )
    f_stray = (1.0 - similarity) * value(s_pose.t, s_pose.q) + similarity * f_query
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
# Each key's (pose file, descriptor file) in a scene directory.
SCENE_FILES = {
    "refs": ("refs_poses.csv", "refs_descriptors.bin"),
    "queries": ("query_poses.csv", "query_descriptors.bin"),
    "train": ("train_poses.csv", "train_descriptors.bin"),
}
# The scene fields holding each key's map and labels.
_MAPS = {
    "refs": ("gt_dense", "ref_labels"),
    "queries": ("query_map", "query_labels"),
    "train": ("train_refs", "train_labels"),
}


def save_scene(scene: SyntheticScene, directory) -> None:
    """Export a scene as map files plus a JSON sidecar.

    The sidecar records both configs, the seeds, and per-entry scene
    labels, so experiments can be re-run from disk alone. All seven files
    are replaced together, the sidecar last (see :func:`copr.files.write_files`).
    """
    directory = Path(directory)
    sidecar = {
        "format_version": 1,
        "field_config": asdict(scene.field_cfg),
        "scene_config": asdict(scene.scene_cfg),
        "labels": {key: list(getattr(scene, labels)) for key, (_, labels) in _MAPS.items()},
    }
    files = []
    for key, (pose_name, descriptor_name) in SCENE_FILES.items():
        files += map_files(getattr(scene, _MAPS[key][0]), directory / pose_name, directory / descriptor_name)
    write_files(*files, (directory / SIDECAR_NAME, json.dumps(sidecar, indent=2)), what="scene")


def load_scene(directory) -> SyntheticScene:
    """Load a scene directory written by :func:`save_scene`.

    Map data comes from the exported files (bit-exact f32); the field
    handle is rebuilt from the sidecar's config so oracle evaluation and
    regressor training stay available.

    A sidecar that is not JSON, lacks or mistypes a key, or holds a label
    list whose length is not its map's row count raises ParseError; a
    format_version other than 1, VersionUnsupported. A ``files`` table, which
    earlier versions of :func:`save_scene` wrote, is ignored: the map files
    always have the :data:`SCENE_FILES` names.
    """
    directory = Path(directory)
    path = directory / SIDECAR_NAME
    sidecar = read_json(path, "scene sidecar")
    try:
        version = sidecar["format_version"]
        if version != 1:
            raise VersionUnsupported(f"scene sidecar {path}: format version {version!r} not supported")
        field_cfg = FieldConfig(**sidecar["field_config"])
        scene_cfg = SceneConfig(**sidecar["scene_config"])
        parts = {labels_name: tuple(sidecar["labels"][key]) for key, (_, labels_name) in _MAPS.items()}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scene sidecar {path} is malformed: {type(exc).__name__}: {exc}") from exc
    for key, (map_name, labels_name) in _MAPS.items():
        parts[map_name] = load_map(*(directory / name for name in SCENE_FILES[key]))
        if len(parts[labels_name]) != len(parts[map_name]):
            raise ParseError(
                f"scene sidecar {path}: labels.{key} has {len(parts[labels_name])} entries"
                f" for {len(parts[map_name])} map rows"
            )
    return SyntheticScene(**parts, field=make_field(field_cfg), scene_cfg=scene_cfg, field_cfg=field_cfg)
