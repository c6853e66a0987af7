"""Frame lifting: RGB-D + instance masks into structured observation snapshots.

A frame provides per-pixel depth, an instance mask, a per-instance label
table, and the camera pose in the robot base frame. The pipeline lifts
masked pixels to labeled base-frame points, quantizes each instance by
distance, and emits one observation per instance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidDepthError
from .geometry import (
    GaussianEnvelope,
    PointCloudData,
    PoseSE3,
    envelope_from_points,
)

# Distance bands for geometric abstraction (meters).
DEFAULT_R_NEAR = 0.8
DEFAULT_R_FAR = 2.0
VOXEL_CELL_SIZE = 0.02
# Perpendicular ray tolerance for label assignment (one voxel).
DEFAULT_RAY_EPSILON = 0.01


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass
class Frame:
    """One rendered/captured snapshot. mask value -1 marks unlabeled pixels."""

    depth: np.ndarray
    mask: np.ndarray
    labels: dict[int, tuple[str, float]]
    camera_pose: PoseSE3
    valid: np.ndarray | None = None
    depth_unreliable: bool = False

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float32)
        self.mask = np.asarray(self.mask, dtype=np.int32)
        if self.depth.shape != self.mask.shape:
            raise ValueError("depth and mask dimensions differ")
        if self.valid is not None:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != self.depth.shape:
                raise ValueError("validity channel dimensions differ")

    def validity(self) -> np.ndarray:
        base = self.depth > 0
        if self.valid is not None:
            base = base & self.valid
        return base


@dataclass
class PointsGeom:
    cloud: PointCloudData


@dataclass
class VoxelsGeom:
    cells: np.ndarray  # (N, 3) integer cell indices
    cell_size: float


@dataclass
class BillboardGeom:
    image_ref: str
    view_vector: np.ndarray
    centroid: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.view_vector, dtype=float).reshape(3)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("billboard view vector must be unit norm")
        self.view_vector = v
        self.centroid = np.asarray(self.centroid, dtype=float).reshape(3)


GeomAbstraction = PointsGeom | VoxelsGeom | BillboardGeom


@dataclass
class Observation:
    instance_id: int
    label: str
    geometry: GeomAbstraction
    envelope: GaussianEnvelope
    description: str = ""
    confidence: float = 1.0


@dataclass
class PerceptionConfig:
    r_near: float = DEFAULT_R_NEAR
    r_far: float = DEFAULT_R_FAR
    voxel_size: float = VOXEL_CELL_SIZE
    ray_epsilon: float = DEFAULT_RAY_EPSILON
    # When set, only instances with these labels become observations;
    # the rest are treated as background by the caller.
    target_categories: list[str] | None = None


def back_project(u: float, v: float, d: float, k: CameraIntrinsics) -> np.ndarray:
    """Pixel + depth to a camera-frame point."""
    if not np.isfinite(d) or d <= 0:
        raise InvalidDepthError(f"invalid depth {d} at pixel ({u}, {v})")
    return np.array([(u - k.cx) / k.fx * d, (v - k.cy) / k.fy * d, d])


@dataclass
class LiftedPoints:
    """Base-frame points with per-point instance assignment.

    instance_ids holds -1 for points that failed the ray-distance check
    (present but unlabeled).
    """

    points: np.ndarray
    instance_ids: np.ndarray
    pixels: np.ndarray  # (N, 2) source (u, v), kept for mask fallbacks

    def for_instance(self, instance_id: int) -> np.ndarray:
        return self.points[self.instance_ids == instance_id]


def lift_frame(
    frame: Frame, k: CameraIntrinsics, ray_epsilon: float = DEFAULT_RAY_EPSILON
) -> LiftedPoints:
    """Lift every masked pixel with valid depth into the base frame.

    A point keeps its pixel's instance label only if it lies within
    ray_epsilon of the pixel's viewing ray.
    """
    vv, uu = np.nonzero((frame.mask >= 0) & frame.validity())
    if len(uu) == 0:
        return LiftedPoints(
            np.zeros((0, 3)), np.zeros(0, dtype=np.int32), np.zeros((0, 2), dtype=np.int32)
        )
    d = frame.depth[vv, uu].astype(float)
    rays_c = np.stack(
        [(uu - k.cx) / k.fx, (vv - k.cy) / k.fy, np.ones_like(d)], axis=1
    )
    pts_c = rays_c * d[:, None]
    pts_b = frame.camera_pose.apply(pts_c)

    # Perpendicular distance of each point to its own pixel ray (base frame).
    origin = frame.camera_pose.translation
    dirs_b = pts_c @ frame.camera_pose.rotation.T
    dirs_b /= np.linalg.norm(dirs_b, axis=1, keepdims=True)
    rel = pts_b - origin
    cross = np.cross(dirs_b, rel)
    perp = np.linalg.norm(cross, axis=1)
    ids = frame.mask[vv, uu].astype(np.int32)
    ids[perp >= ray_epsilon] = -1

    return LiftedPoints(pts_b, ids, np.stack([uu, vv], axis=1).astype(np.int32))


def quantize_by_distance(
    points: np.ndarray,
    r_near: float = DEFAULT_R_NEAR,
    r_far: float = DEFAULT_R_FAR,
    voxel_size: float = VOXEL_CELL_SIZE,
    image_ref: str = "",
) -> GeomAbstraction:
    """Pick a geometric abstraction from the centroid's base-frame distance."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("cannot quantize an empty point set")
    if r_near >= r_far:
        raise ValueError("requires r_near < r_far")
    centroid = pts.mean(axis=0)
    dist = float(np.linalg.norm(centroid))
    if dist < r_near:
        return PointsGeom(PointCloudData(pts))
    if dist < r_far:
        cells = np.unique(np.floor(pts / voxel_size).astype(np.int64), axis=0)
        return VoxelsGeom(cells, voxel_size)
    view = centroid / dist
    return BillboardGeom(image_ref=image_ref, view_vector=view, centroid=centroid)


def assemble_snapshot(
    frame: Frame, k: CameraIntrinsics, config: PerceptionConfig | None = None
) -> list[Observation]:
    """One observation per mask instance with enough lifted points."""
    cfg = config or PerceptionConfig()
    lifted = lift_frame(frame, k, cfg.ray_epsilon)
    observations = []
    for instance_id in sorted(frame.labels):
        label, confidence = frame.labels[instance_id]
        if cfg.target_categories is not None and label not in cfg.target_categories:
            continue
        pts = lifted.for_instance(instance_id)
        if len(pts) < 2:
            continue  # entirely invalid depth, or a single stray point
        geometry = quantize_by_distance(
            pts,
            cfg.r_near,
            cfg.r_far,
            cfg.voxel_size,
            image_ref=f"frame/crop/{instance_id}",
        )
        envelope = envelope_from_points(PointCloudData(pts))
        observations.append(
            Observation(
                instance_id=instance_id,
                label=label,
                geometry=geometry,
                envelope=envelope,
                confidence=float(confidence),
            )
        )
    return observations


# --- Frame fixture format ----------------------------------------------------
#
# A frame directory contains:
#   depth.bin  -- uint32 width, uint32 height (LE), then float32 row-major grid
#   mask.bin   -- uint32 width, uint32 height (LE), then int32 row-major grid
#   labels.txt -- lines "id<TAB>label<TAB>confidence"
#   pose.txt   -- 12 floats: rotation row-major (9) then translation (3)
#   valid.bin  -- optional; header as above, then uint8 grid (1 = valid)


def _write_grid(path: Path, grid: np.ndarray, dtype) -> None:
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", w, h))
        fh.write(np.ascontiguousarray(grid, dtype=dtype).tobytes())


def _read_grid(path: Path, dtype) -> np.ndarray:
    raw = path.read_bytes()
    w, h = struct.unpack_from("<II", raw)
    return np.frombuffer(raw[8:], dtype=dtype).reshape(h, w).copy()


def write_frame_dir(frame: Frame, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    _write_grid(path / "depth.bin", frame.depth, np.float32)
    _write_grid(path / "mask.bin", frame.mask, np.int32)
    lines = [
        f"{iid}\t{label}\t{conf:.6f}"
        for iid, (label, conf) in sorted(frame.labels.items())
    ]
    (path / "labels.txt").write_text("\n".join(lines) + ("\n" if lines else ""))
    pose_vals = list(frame.camera_pose.rotation.reshape(-1)) + list(
        frame.camera_pose.translation
    )
    (path / "pose.txt").write_text(
        " ".join(repr(float(v)) for v in pose_vals) + "\n"
    )
    if frame.valid is not None:
        _write_grid(path / "valid.bin", frame.valid.astype(np.uint8), np.uint8)


def read_frame_dir(path: str | Path) -> Frame:
    path = Path(path)
    depth = _read_grid(path / "depth.bin", np.float32)
    mask = _read_grid(path / "mask.bin", np.int32)
    labels = {}
    for line in (path / "labels.txt").read_text().splitlines():
        if not line.strip():
            continue
        iid, label, conf = line.split("\t")
        labels[int(iid)] = (label, float(conf))
    vals = [float(v) for v in (path / "pose.txt").read_text().split()]
    pose = PoseSE3(np.array(vals[:9]).reshape(3, 3), np.array(vals[9:12]))
    valid = None
    if (path / "valid.bin").exists():
        valid = _read_grid(path / "valid.bin", np.uint8).astype(bool)
    return Frame(depth=depth, mask=mask, labels=labels, camera_pose=pose, valid=valid)
