"""Frame lifting: RGB-D + instance masks into structured observation snapshots.

A frame provides per-pixel depth, an instance mask, a per-instance label
table, and the camera pose in the robot base frame. The pipeline lifts
each masked pixel to a base-frame point that keeps its pixel's instance
label, quantizes each instance by distance, and emits one observation per
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    GaussianEnvelope,
    PointCloudData,
    PoseSE3,
    envelope_from_points,
    read_only_view,
)
from .serialization import encode

# Distance bands for geometric abstraction (meters).
DEFAULT_R_NEAR = 0.8
DEFAULT_R_FAR = 2.0
VOXEL_CELL_SIZE = 0.02


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass
class Frame:
    """One rendered/captured snapshot. mask value -1 marks unlabeled pixels."""

    depth: np.ndarray
    mask: np.ndarray
    labels: dict[int, str]
    camera_pose: PoseSE3

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float32)
        self.mask = np.asarray(self.mask, dtype=np.int32)
        if self.depth.shape != self.mask.shape:
            raise ValueError("depth and mask dimensions differ")


class _Geom:
    """A geometry is a frozen value, so what it derives is kept on first
    use: its canonical JSON ``text`` here, and its axis-aligned ``bounds``
    (None when it has no extent) in each kind."""

    @cached_property
    def text(self) -> str:
        return encode(self.doc())


@dataclass(frozen=True)
class PointsGeom(_Geom):
    cloud: PointCloudData

    def doc(self) -> dict:
        return {"kind": "points", "points": self.cloud.points.tolist()}

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        pts = self.cloud.points
        if len(pts) == 0:
            return None
        return read_only_view(pts.min(axis=0)), read_only_view(pts.max(axis=0))


@dataclass(frozen=True)
class VoxelsGeom(_Geom):
    cells: np.ndarray  # (N, 3) integer cell indices
    cell_size: float

    def __post_init__(self):
        object.__setattr__(self, "cells", read_only_view(np.asarray(self.cells)))

    def doc(self) -> dict:
        return {"kind": "voxels", "cells": self.cells.tolist(), "cell_size": self.cell_size}

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        if len(self.cells) == 0:
            return None
        return (read_only_view(self.cells.min(axis=0) * self.cell_size),
                read_only_view((self.cells.max(axis=0) + 1) * self.cell_size))


@dataclass(frozen=True)
class BillboardGeom(_Geom):
    image_ref: str
    view_vector: np.ndarray
    centroid: np.ndarray

    bounds = None  # a billboard has no extent

    def __post_init__(self):
        v = np.asarray(self.view_vector, dtype=float).reshape(3)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("billboard view vector must be unit norm")
        object.__setattr__(self, "view_vector", read_only_view(v))
        object.__setattr__(self, "centroid", read_only_view(
            np.asarray(self.centroid, dtype=float).reshape(3)))

    def doc(self) -> dict:
        return {"kind": "billboard", "image_ref": self.image_ref,
                "view_vector": self.view_vector.tolist(), "centroid": self.centroid.tolist()}


GeomAbstraction = PointsGeom | VoxelsGeom | BillboardGeom


@dataclass(frozen=True)
class Observation:
    label: str
    geometry: GeomAbstraction
    envelope: GaussianEnvelope


@dataclass
class LiftedPoints:
    """Base-frame points with the instance id of each point's pixel."""

    points: np.ndarray
    instance_ids: np.ndarray

    def for_instance(self, instance_id: int) -> np.ndarray:
        return self.points[self.instance_ids == instance_id]


def lift_frame(frame: Frame, k: CameraIntrinsics) -> LiftedPoints:
    """Lift every masked pixel with positive depth into the base frame,
    labeled with its pixel's instance id.

    Each float is computed in a fixed order: the camera-frame point is
    ``((u - cx) / fx * d, (v - cy) / fy * d, d)`` and its base-frame point
    ``p @ R.T + t``. A point lies on its own pixel's ray by construction, so
    no label needs a distance test.
    """
    vv, uu = np.nonzero((frame.mask >= 0) & (frame.depth > 0))
    d = frame.depth[vv, uu].astype(float)
    pts_c = np.empty((len(d), 3))
    pts_c[:, 0] = (uu - k.cx) / k.fx * d
    pts_c[:, 1] = (vv - k.cy) / k.fy * d
    pts_c[:, 2] = d
    pose = frame.camera_pose
    return LiftedPoints(pts_c @ pose.rotation.T + pose.translation,
                        frame.mask[vv, uu].astype(np.int32))


def unique_cells(cells: np.ndarray) -> np.ndarray:
    """``np.unique(cells, axis=0)`` for an (N, 3) integer array: the
    distinct rows in lexicographic order, from one ``lexsort`` and a
    row-change mask. The mask ORs the compare's three columns, since numpy
    reduces an (N, 3) array over its last axis one row at a time."""
    cells = cells[np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))]
    changed = np.ones(len(cells), dtype=bool)
    differ = cells[1:] != cells[:-1]
    changed[1:] = differ[:, 0] | differ[:, 1] | differ[:, 2]
    return cells[changed]


def quantize_by_distance(
    points: np.ndarray, centroid: np.ndarray, image_ref: str = ""
) -> GeomAbstraction:
    """Pick a geometric abstraction from the base-frame distance of
    ``centroid``, the mean of ``points``, which the caller has computed."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("cannot quantize an empty point set")
    dist = float(np.linalg.norm(centroid))
    if dist < DEFAULT_R_NEAR:
        return PointsGeom(PointCloudData(pts))
    if dist < DEFAULT_R_FAR:
        cells = unique_cells(np.floor(pts / VOXEL_CELL_SIZE).astype(np.int64))
        return VoxelsGeom(cells, VOXEL_CELL_SIZE)
    view = centroid / dist
    return BillboardGeom(image_ref=image_ref, view_vector=view, centroid=centroid)


def assemble_snapshot(frame: Frame, k: CameraIntrinsics,
                      memo: dict | None = None) -> list[Observation]:
    """One observation per mask instance with enough lifted points.

    An instance's envelope and geometry are a function of its id and its
    lifted points. ``memo`` maps ``(instance_id, points.tobytes())`` to
    that pair: an entry left there by the previous snapshot is reused, and
    on return the memo holds this snapshot's entries only.
    """
    lifted = lift_frame(frame, k)
    memo = {} if memo is None else memo
    previous = dict(memo)
    memo.clear()
    observations = []
    for instance_id in sorted(frame.labels):
        pts = lifted.for_instance(instance_id)
        if len(pts) < 2:
            continue  # entirely invalid depth, or a single stray point
        key = (instance_id, pts.tobytes())
        parts = previous.get(key)
        if parts is None:
            envelope = envelope_from_points(PointCloudData(pts))
            parts = envelope, quantize_by_distance(pts, envelope.mean,
                                                   image_ref=f"frame/crop/{instance_id}")
        memo[key] = parts
        envelope, geometry = parts
        observations.append(
            Observation(label=frame.labels[instance_id], geometry=geometry, envelope=envelope)
        )
    return observations
