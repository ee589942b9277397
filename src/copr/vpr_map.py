"""Reference-map storage, nearest-neighbor retrieval, and file formats.

A reference map is an ordered collection of (id, descriptor, pose) entries.
An entry's provenance is its id: densification gives every regressed entry
an id holding a ``#`` marker, and original anchors have none (see
:func:`origin_of`). Descriptors are held in one contiguous float64 matrix so
retrieval is a single vectorized scan. The pose errors of feature-space
matches come from :func:`match_errors`.

File formats
------------
Pose CSV: UTF-8, LF line endings, header ``id,tx,ty,tz,qw,qx,qy,qz``,
decimal floats (written with shortest round-trip repr). Ids are written
unquoted, so an id may not hold a comma, a double quote, CR or LF. The
``#`` marker in an id is the entry's provenance; no other column records it.
A plain file is the exact header, then rows of 8 unquoted fields, each
line ending in LF, with no blank line and no CR, double quote or U+001C to
U+001F character; save_map writes one unless an id holds U+001C to U+001F.
A plain file is read by numpy's C reader; any other file, or one holding a
value numpy refuses (such as ``1_0`` or a full-width digit), by the csv
module one row at a time. The accepted files and the values read are the
same either way: each value as ``float()`` parses it, and errors name the
file's line.

Descriptor binary: magic bytes ``CPRD``, u32 little-endian version (=1),
u32 LE count, u32 LE dim N, then count*N f32 LE values row-major, rows in
pose-file order.

save_map replaces the descriptor file first and the pose file last, once both
are written (:func:`copr.files.write_files`). A crash between the two renames
can still pair a new descriptor file with an old pose file.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .blocks import even_blocks
from .errors import (
    CountMismatch,
    DimMismatch,
    DuplicateId,
    EmptyMap,
    InvalidConfig,
    NonUnitQuaternion,
    ParseError,
    RefusedNonFinite,
    UnwritableId,
    ZeroQuaternion,
)
from .files import read_bytes, unpack_header, write_files
from .geometry import Pose, angular_error_deg_many, row_block, row_dots

POSE_CSV_HEADER = ["id", "tx", "ty", "tz", "qw", "qx", "qy", "qz"]
_POSE_CSV_HEADER_LINE = ",".join(POSE_CSV_HEADER)
DESCRIPTOR_MAGIC = b"CPRD"
DESCRIPTOR_VERSION = 1
_DESCRIPTOR_HEADER = "<4sIII"  # magic, version, count, dim
# Largest accepted distance of a map quaternion's norm from 1.
_UNIT_QUAT_TOL = 1e-6


class Origin(enum.Enum):
    """Provenance of a map entry."""

    ANCHOR = "anchor"
    REGRESSED = "regressed"


def origin_of(entry_id: str) -> Origin:
    """Provenance of the entry with this id: regressed ids hold a ``#``
    marker, anchor ids hold none."""
    return Origin.REGRESSED if "#" in entry_id else Origin.ANCHOR


@dataclass(frozen=True)
class Match:
    """One retrieval result.

    ``translation_error`` and ``rotation_error`` are only meaningful when
    the query pose was known to the caller; they are NaN otherwise (pure
    feature-space retrieval). ``feature_distance`` is 0.0 for oracle
    retrieval, which never looks at descriptors.
    """

    ref_id: str
    ref_index: int
    feature_distance: float
    translation_error: float = math.nan
    rotation_error: float = math.nan


def _refuse_first(ids, bad: np.ndarray, error, problem: str, part: str) -> None:
    """Raise ``error`` for the first entry flagged in ``bad``, naming its index
    and id; the error's ``entry`` attribute is that index and its ``part``
    the file part that holds the fault (``"pose"`` or ``"descriptor"``)."""
    if bad.any():
        i = int(np.argmax(bad))
        exc = error(f"map entry {i} ({ids[i]!r}): {problem}")
        exc.entry, exc.part = i, part
        raise exc


def _check_poses(ids, t: np.ndarray, q: np.ndarray) -> None:
    """Raise for the first entry whose pose is not finite or whose quaternion
    is not unit (see :func:`_refuse_first`).

    Quaternions are checked, not renormalized: normalizing an already unit
    quaternion again can move its last bit.
    """
    finite = np.isfinite(t).all(axis=1) & np.isfinite(q).all(axis=1)
    norms = np.sqrt(np.einsum("ij,ij->i", q, q))
    _refuse_first(ids, ~finite, RefusedNonFinite, "pose translation and quaternion must be finite", "pose")
    _refuse_first(ids, norms < 1e-12, ZeroQuaternion, "quaternion is zero", "pose")
    _refuse_first(ids, np.abs(norms - 1.0) > _UNIT_QUAT_TOL, NonUnitQuaternion, "quaternion is not unit", "pose")


def _as_matrix(rows, dim=None) -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    if m.ndim != 2:
        raise DimMismatch(f"descriptor block must be 2-D, got shape {m.shape}")
    if dim is not None and m.shape[1] != dim:
        raise DimMismatch(f"descriptor dim {m.shape[1]} does not match map dim {dim}")
    return m


def _pose_block(values, n: int, width: int, what: str) -> np.ndarray:
    """A contiguous (n, width) pose block for a map of n ids."""
    block = row_block(values, width, what)
    if len(block) != n:
        raise CountMismatch(f"{n} ids but {len(block)} {what} rows")
    return np.ascontiguousarray(block)


@dataclass(frozen=True)
class ReferenceMap:
    """Ordered (id, descriptor, pose) collection with a shared dim; each
    entry's provenance is :func:`origin_of` its id.

    Immutable after construction; retrieval over it is pure and can run in
    parallel across queries.
    """

    ids: tuple[str, ...]
    descriptors: np.ndarray  # (n, dim) float64, C-contiguous
    translations: np.ndarray  # (n, 3) float64
    quaternions: np.ndarray  # (n, 4) float64, unit, canonical sign
    _index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        n = len(self.ids)
        if n:
            desc = _as_matrix(self.descriptors)
        else:
            given = np.asarray(self.descriptors, dtype=np.float64)
            desc = np.zeros((0, given.shape[1] if given.ndim == 2 else 0))
        if desc.shape[0] != n:
            raise CountMismatch(f"{n} ids but {desc.shape[0]} descriptor rows")
        finite = np.isfinite(desc).all(axis=1)
        _refuse_first(self.ids, ~finite, RefusedNonFinite, "descriptor must be finite", "descriptor")
        t = _pose_block(self.translations, n, 3, "translation")
        q = _pose_block(self.quaternions, n, 4, "quaternion")
        _check_poses(self.ids, t, q)
        index = dict(zip(self.ids, range(n)))
        if len(index) != n:
            seen = set()
            for i, entry_id in enumerate(self.ids):
                if entry_id in seen:
                    break
                seen.add(entry_id)
            exc = DuplicateId(f"duplicate map id {self.ids[i]!r}")
            exc.entry = i
            raise exc
        for a in (desc, t, q):
            a.setflags(write=False)
        object.__setattr__(self, "descriptors", desc)
        object.__setattr__(self, "translations", t)
        object.__setattr__(self, "quaternions", q)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.descriptors.shape[1])

    def index_of(self, entry_id: str) -> int:
        return self._index[entry_id]

    def pose(self, i: int) -> Pose:
        return Pose(t=self.translations[i], q=self.quaternions[i])

    def extended(self, ids, descriptors, translations, quaternions) -> "ReferenceMap":
        """A new map with the given column blocks appended; this map is left untouched."""
        ids = tuple(ids)
        if not ids:
            return self
        extra = _as_matrix(descriptors, self.dim if len(self) else None)
        return ReferenceMap(
            ids=self.ids + ids,
            descriptors=np.vstack([self.descriptors, extra]) if len(self) else extra,
            translations=np.vstack([self.translations, _pose_block(translations, len(ids), 3, "translation")]),
            quaternions=np.vstack([self.quaternions, _pose_block(quaternions, len(ids), 4, "quaternion")]),
        )


# A block of queries in nearest_neighbors runs against at most about this
# many (query, reference) pairs at once.
_BLOCK_ELEMENTS = 1 << 18
# Searches of at most this dimension are slab-pruned, in blocks of at most
# this many queries, each bounded from a probe of this many refs.
_SLAB_MAX_DIM = 3
_SLAB_BLOCK = 128
_PROBE_REFS = 32


def nearest_neighbors(queries: np.ndarray, refs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest reference rows of each query row, ties by index.

    ``queries`` is (m, dim) and ``refs`` is (n, dim), both finite, with
    n >= 1; k >= 1. Returns (indices, d2), both (m, min(k, n)): row i is
    ``np.argsort(d2_i, kind="stable")[:k]`` and its values, for the squared
    Euclidean distances d2_i from query i in difference form,
    ``einsum("ij,ij->i", refs - q, refs - q)``.

    One GEMM per block of queries gives approximate values
    ||r||^2 - 2 q.r (the FAISS decomposition, Johnson et al.,
    arXiv:1702.08734; the constant ||q||^2 is dropped). The entries within
    ``tol`` of the k-th smallest approximate value form a shortlist, which
    is re-ranked in difference form. With gamma = (dim + 2) u (u = 2^-53),
    both the approximate value (shifted by ||q||^2) and the difference form
    lie within gamma (||q|| + ||r||)^2 of the exact distance, whatever the
    summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1). So the k entries ranked first in difference
    form, and any entry tied with the k-th, lie within
    4 gamma (||q|| + max ||r||)^2 of the k-th approximate value; ``tol``
    is twice that.

    A row whose shortlist holds exactly k entries is ranked within the row,
    by difference form and then by index; only rows with a near-tie at the
    k-th place go through the re-rank of all shortlisted entries. For k = 1
    the cut comes from ``argmin``, and a row whose shortlist holds only that
    entry needs no ranking at all.

    Blocks are even splits (:func:`copr.blocks.even_blocks`), so no block
    holds a single query unless m == 1, and each block's distance matrix
    holds at most about ``_BLOCK_ELEMENTS`` entries. The block size does
    not change any result: every value is ranked exactly.

    When 0 < dim <= 3 and k < n, refs and queries are sorted along the
    refs' widest axis a, and each block of at most ``_SLAB_BLOCK`` queries
    runs only against the slab of refs within R_i of some query's
    coordinate q_a. P_i, the k-th smallest squared distance from query i to
    a probe of max(k, ``_PROBE_REFS``) refs near the block, bounds the k-th
    smallest over all refs. Summed in any order, a squared distance is
    within a factor 1 +- gamma of the exact one, up to an absolute
    eta = (dim + 2) 2^-1074 where products underflow. So any ref ranked
    within the first k, or tied with the k-th, has
    (r_a - q_a)^2 <= (P_i + 3 eta) (1 + gamma) / (1 - gamma)^2. R_i, the
    square root of (P_i + (dim + 2) 2^-1022) (1 + 4 (dim + 2) eps)
    (eps = 2u), exceeds that bound also after rounding the product and the
    root, and the slab ends are rounded outward by one ulp. A block whose
    slab is so wide that (queries x slab refs) exceeds ``_BLOCK_ELEMENTS``
    (on a ring, a block's slab can span half the map) is split further,
    each part against the narrower slab of its own queries' R_i.
    """
    n, dim = refs.shape
    m = len(queries)
    k = min(int(k), n)
    ref_sq = np.einsum("ij,ij->i", refs, refs)
    scale = np.sqrt(np.einsum("ij,ij->i", queries, queries)) + math.sqrt(float(ref_sq.max()))
    tol = 4.0 * (dim + 2) * np.finfo(np.float64).eps * scale * scale
    indices = np.empty((m, k), dtype=np.intp)
    d2 = np.empty((m, k))
    if not (0 < dim <= _SLAB_MAX_DIM and k < n):
        refs_m2 = _minus_two_transposed(refs)
        for rows in even_blocks(m, _BLOCK_ELEMENTS // n):
            indices[rows], d2[rows] = _block_knn(queries[rows], refs, refs_m2, ref_sq, tol[rows], k, None)
        return indices, d2

    axis = int(np.argmax(np.ptp(refs, axis=0)))
    ref_order = np.argsort(refs[:, axis], kind="stable")
    sorted_refs = refs[ref_order]
    xs = np.ascontiguousarray(sorted_refs[:, axis])
    sorted_sq = ref_sq[ref_order]
    refs_m2 = _minus_two_transposed(sorted_refs)
    query_order = np.argsort(queries[:, axis], kind="stable")
    widen = 1.0 + 4.0 * (dim + 2) * np.finfo(np.float64).eps
    floor = (dim + 2) * np.finfo(np.float64).tiny
    probe_size = max(_PROBE_REFS, k)

    def slab(lo_ends, hi_ends):
        s0 = int(np.searchsorted(xs, np.nextafter(np.min(lo_ends), -np.inf), side="left"))
        s1 = int(np.searchsorted(xs, np.nextafter(np.max(hi_ends), np.inf), side="right"))
        return s0, s1

    for block in even_blocks(m, _SLAB_BLOCK):
        rows = query_order[block]
        qb = queries[rows]
        qa = qb[:, axis]
        mid = int(np.searchsorted(xs, qa[len(qa) // 2]))
        p0 = max(0, min(mid - probe_size // 2, n - probe_size))
        probe = sorted_refs[p0 : p0 + probe_size]
        probe_d2 = np.zeros((len(qb), len(probe)))
        for j in range(dim):
            gap = probe[:, j] - qb[:, j, None]
            probe_d2 += gap * gap
        bound = probe_d2.min(axis=1) if k == 1 else np.partition(probe_d2, k - 1, axis=1)[:, k - 1]
        reach = np.sqrt((bound + floor) * widen)
        lo_ends, hi_ends = qa - reach, qa + reach
        s0, s1 = slab(lo_ends, hi_ends)
        parts = even_blocks(len(rows), _BLOCK_ELEMENTS // max(s1 - s0, 1))
        for part in parts:
            if len(parts) > 1:
                s0, s1 = slab(lo_ends[part], hi_ends[part])
            sub = rows[part]
            indices[sub], d2[sub] = _block_knn(
                qb[part], sorted_refs[s0:s1], refs_m2[:, s0:s1], sorted_sq[s0:s1], tol[sub], k, ref_order[s0:s1]
            )
    return indices, d2


def _minus_two_transposed(refs: np.ndarray) -> np.ndarray:
    """-2 refs^T as a C-contiguous (dim, n) array, built in one allocation.
    Scaling by -2 is exact, so one GEMM with it gives -2 q.r."""
    return np.multiply(refs.T, -2.0, out=np.empty(refs.shape[::-1]))


def _block_knn(qb, refs, refs_m2, ref_sq, tol, k, ref_ids):
    """:func:`nearest_neighbors` of one query block over ``refs``; indices
    are positions in ``refs`` or, when given, ``ref_ids`` at them."""
    approx = np.matmul(qb, refs_m2)
    approx += ref_sq
    if k == 1:
        best = approx.argmin(axis=1)
        cut = approx[np.arange(len(qb)), best] + tol
    else:
        cut = np.partition(approx, k - 1, axis=1)[:, k - 1] + tol
    shortlist = approx <= cut[:, None]
    # Non-finite magnitudes void the bound: re-rank the whole row.
    shortlist[~np.isfinite(cut)] = True
    counts = np.count_nonzero(shortlist, axis=1)
    if k == 1:
        diff = refs[best] - qb
        found = (best if ref_ids is None else ref_ids[best])[:, None]
        d2 = np.einsum("ij,ij->i", diff, diff)[:, None]
    else:
        found = np.empty((len(qb), k), dtype=np.intp)
        d2 = np.empty((len(qb), k))
        flat = np.flatnonzero(shortlist)
        full = np.flatnonzero(counts == k)
        cols = flat[(np.cumsum(counts) - counts)[full, None] + np.arange(k)] % approx.shape[1]
        found[full], d2[full] = _rank_rows(qb[full], refs, cols, ref_ids)
    tied = np.flatnonzero(counts > k)
    if len(tied):
        found[tied], d2[tied] = _rerank(qb[tied], refs, shortlist[tied], k, ref_ids)
    return found, d2


def _rank_rows(qb, refs, cols, ref_ids):
    """The refs at positions ``cols`` (rows, k) of each query row, ranked
    within the row in difference form, ties by id."""
    diff = (refs[cols] - qb[:, None, :]).reshape(-1, refs.shape[1])
    exact = np.einsum("ij,ij->i", diff, diff).reshape(cols.shape)
    ids = cols if ref_ids is None else ref_ids[cols]
    pick = (np.arange(len(cols))[:, None], np.lexsort((ids, exact), axis=1))
    return ids[pick], exact[pick]


def _rerank(qb, refs, shortlist, k, ref_ids):
    """The k shortlisted refs of each row ranked first in difference form, ties by id."""
    rows, cols = np.nonzero(shortlist)
    diff = refs[cols] - qb[rows]
    exact = np.einsum("ij,ij->i", diff, diff)
    ids = cols if ref_ids is None else ref_ids[cols]
    order = np.lexsort((ids, exact, rows))
    counts = np.bincount(rows, minlength=len(qb))
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return ids[pick], exact[pick]


def retrieve_many(queries, ref_map: ReferenceMap, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact brute-force nearest neighbors of each query row in feature space.

    Returns (indices, distances), both (m, min(k, len(map))), sorted by
    ascending Euclidean distance with equal distances broken by ascending
    entry index; see :func:`nearest_neighbors`.

    Raises:
        EmptyMap: the map has no entries.
        DimMismatch: queries are not (m, map dim).
        InvalidConfig: k < 1.
        RefusedNonFinite: a query component is not finite.
    """
    if len(ref_map) == 0:
        raise EmptyMap("cannot retrieve from an empty map")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != ref_map.dim:
        raise DimMismatch(f"query block of shape {q.shape} does not match map dim {ref_map.dim}")
    if k < 1:
        raise InvalidConfig("k must be a positive integer")
    if not np.all(np.isfinite(q)):
        raise RefusedNonFinite("queries must be finite")
    indices, d2 = nearest_neighbors(q, ref_map.descriptors, k)
    return indices, np.sqrt(d2)


def match_errors(ref_map: ReferenceMap, rows, query_t, query_q) -> tuple[np.ndarray, np.ndarray]:
    """Translation (m) and rotation (deg) errors of the matches of map rows
    ``rows`` (m,) to the query poses in (m, 3) and (m, 4) blocks, or one query
    row for all: the norm of each translation gap by :func:`row_dots`
    (bit-equal to ``np.linalg.norm``), and :func:`angular_error_deg_many`."""
    diff = ref_map.translations[rows] - query_t
    return np.sqrt(row_dots(diff, diff)), angular_error_deg_many(ref_map.quaternions[rows], query_q)


def retrieve(query, ref_map: ReferenceMap, k: int, query_pose: Pose | None = None) -> list[Match]:
    """Exact nearest neighbors of one ``query``; one row of :func:`retrieve_many`.

    Returns min(k, len(map)) matches sorted by ascending Euclidean
    distance; equal distances are broken by ascending entry index. When
    ``query_pose`` is given, translation and rotation errors against it are
    filled in; otherwise they are NaN.
    """
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    indices, distances = retrieve_many(q, ref_map, k)
    t_err = r_err = [math.nan] * indices.shape[1]
    if query_pose is not None:
        t_err, r_err = (e.tolist() for e in match_errors(ref_map, indices[0], query_pose.t[None], query_pose.q[None]))
    return [
        Match(ref_id=ref_map.ids[i], ref_index=i, feature_distance=d, translation_error=te, rotation_error=re)
        for i, d, te, re in zip(indices[0].tolist(), distances[0].tolist(), t_err, r_err)
    ]


def oracle_retrieve(query_pose: Pose, ref_map: ReferenceMap) -> Match:
    """The physically closest reference (3-D Euclidean, ties by index).

    This is the hypothetical perfect retriever; its translation error lower
    bounds what any feature-space retrieval can achieve on the same map.
    """
    if len(ref_map) == 0:
        raise EmptyMap("cannot retrieve from an empty map")
    diff = ref_map.translations - query_pose.t
    d2 = np.einsum("ij,ij->i", diff, diff)
    i = int(np.argmin(d2))
    return Match(
        ref_id=ref_map.ids[i],
        ref_index=i,
        feature_distance=0.0,
        translation_error=float(math.sqrt(d2[i])),
        rotation_error=float(angular_error_deg_many(ref_map.quaternions[i : i + 1], query_pose.q[None])[0]),
    )


def load_descriptor_block(descriptor_path) -> np.ndarray:
    """Read one descriptor binary into a (count, dim) float64 matrix."""
    blob = read_bytes(descriptor_path, "descriptor file")
    count, dim = unpack_header(blob, _DESCRIPTOR_HEADER, DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, "descriptor")
    expected = 16 + count * dim * 4
    if len(blob) != expected:
        raise ParseError(f"descriptor payload is {len(blob)} bytes, expected {expected}", offset=16)
    # A corrupted word may be a signalling NaN, whose cast warns; the map's
    # finite-descriptor check refuses it with a typed error.
    with np.errstate(invalid="ignore"):
        values = np.frombuffer(blob, dtype="<f4", offset=16).astype(np.float64)
    return values.reshape(count, dim) if count else np.zeros((0, dim))


def _csv_pose_rows(text: str):
    """(ids, (n, 7) pose values, line numbers) of the non-blank rows of any
    pose file, read by the csv module and ``float()``; the first malformed
    row raises ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"malformed pose file: {exc}", line=reader.line_num) from exc
    if not rows or rows[0] != POSE_CSV_HEADER:
        raise ParseError(f"pose file must start with header {_POSE_CSV_HEADER_LINE}", line=1)
    rows = [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]
    values = []
    for lineno, row in rows:
        if len(row) != 8:
            raise ParseError(f"expected 8 fields, got {len(row)}", line=lineno)
        try:
            values.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ParseError(f"bad float in pose row: {exc}", line=lineno) from exc
    values = np.array(values, dtype=np.float64).reshape(len(rows), 7)
    return tuple(row[0] for _, row in rows), values, [lineno for lineno, _ in rows]


# Characters that send a pose file to the csv reader: the quote and CR,
# which csv reads differently from a split on commas and LF, and U+001C to
# U+001F, which numpy strips around a number as whitespace and float()
# refuses.
_CSV_ONLY_CHARS = '"\r\x1c\x1d\x1e\x1f'


def _plain_pose_rows(text: str):
    """(ids, (n, 7) pose values, line numbers) of a plain pose file with at
    least one row, read by numpy's C reader; None for any other file, for a
    line longer than the csv field size limit and for a value numpy refuses."""
    header, _, body = text.partition("\n")
    if header != _POSE_CSV_HEADER_LINE or not body.endswith("\n") or any(c in body for c in _CSV_ONLY_CHARS):
        return None
    lines = body[:-1].split("\n")
    if body.count(",") != 7 * len(lines) or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        # comments=None: regressed ids hold '#'.
        values = np.loadtxt(lines, delimiter=",", usecols=range(1, 8), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    # numpy raises for a row of fewer than 8 fields and skips blank lines.
    # So with 7 commas per line in all and one row per line, every line
    # holds exactly 8 fields.
    if len(values) != len(lines):
        return None
    return tuple([line.partition(",")[0] for line in lines]), values, range(2, len(lines) + 2)


def load_map(pose_path, descriptor_path) -> ReferenceMap:
    """Load a reference map from a pose CSV plus a descriptor binary.

    Row i of the descriptor file pairs with row i of the pose file; entry
    order is file order.
    """
    raw = read_bytes(pose_path, "pose file")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"pose file is not UTF-8: {exc.reason}", line=raw.count(b"\n", 0, exc.start) + 1) from exc
    ids, values, line_numbers = _plain_pose_rows(text) or _csv_pose_rows(text)
    desc = load_descriptor_block(descriptor_path)
    if len(ids) != len(desc):
        raise CountMismatch(f"pose file has {len(ids)} rows but descriptor file declares {len(desc)}")
    try:
        return ReferenceMap(ids=ids, descriptors=desc, translations=values[:, :3], quaternions=values[:, 3:])
    except (RefusedNonFinite, ZeroQuaternion, NonUnitQuaternion, DuplicateId) as exc:
        if not hasattr(exc, "entry"):
            raise
        where = (
            f"{descriptor_path} row {exc.entry}"
            if getattr(exc, "part", "pose") == "descriptor"
            else f"{pose_path} line {line_numbers[exc.entry]}"
        )
        raise type(exc)(f"{where}: {exc}") from exc


# Characters a pose-file id cannot hold: the field separator, the csv
# quote character and the line terminators.
_UNWRITABLE_ID_CHARS = ',"\r\n'


def map_files(ref_map: ReferenceMap, pose_path, descriptor_path) -> tuple[tuple, tuple]:
    """The (path, data) pairs of a map's descriptor binary, then its pose CSV.

    Descriptor payloads are f32; poses are written with shortest
    round-trip float repr so load_map is an exact inverse. Refuses a
    non-finite descriptor component and an id holding a comma, a double
    quote, CR or LF.
    """
    if not np.all(np.isfinite(ref_map.descriptors)):
        raise RefusedNonFinite("map contains non-finite descriptor components")
    # The NUL separator is not one of the refused characters.
    all_ids = "\0".join(ref_map.ids)
    if any(c in all_ids for c in _UNWRITABLE_ID_CHARS):
        bad = next(i for i in ref_map.ids if any(c in i for c in _UNWRITABLE_ID_CHARS))
        raise UnwritableId(f"map id {bad!r} holds a comma, double quote, CR or LF")
    header = struct.pack(_DESCRIPTOR_HEADER, DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, len(ref_map), ref_map.dim)
    descriptor_blob = header + np.ascontiguousarray(ref_map.descriptors, dtype="<f4").tobytes()
    # Each distinct orientation and each distinct translation component is
    # formatted once (grid targets share their coordinates), keyed on its
    # bits so that -0.0 and 0.0 keep their own text.
    quat_keys = ref_map.quaternions.view(np.dtype((np.void, 32))).ravel().tolist()
    distinct = dict.fromkeys(quat_keys)
    quats = np.frombuffer(b"".join(distinct), dtype=np.float64).reshape(-1, 4).tolist()
    quat_text = dict(zip(distinct, [",".join(map(float.__repr__, q)) for q in quats]))
    t_bits, t_slot = np.unique(ref_map.translations.view(np.int64), return_inverse=True)
    t_text = np.array(list(map(float.__repr__, t_bits.view(np.float64).tolist())), dtype=object)
    t_columns = t_text[t_slot.reshape(-1, 3)].T.tolist()
    rows = zip(ref_map.ids, *t_columns, map(quat_text.__getitem__, quat_keys))
    text = "\n".join([_POSE_CSV_HEADER_LINE, *map(",".join, rows)]) + "\n"
    return (descriptor_path, descriptor_blob), (pose_path, text)


def save_map(ref_map: ReferenceMap, pose_path, descriptor_path) -> None:
    """Write a map as :func:`map_files`; a refused map or a failed write leaves both old files."""
    write_files(*map_files(ref_map, pose_path, descriptor_path), what="map")
