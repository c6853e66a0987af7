"""Frame lifting, geometric abstraction, and the frame fixture format."""

import numpy as np
import pytest

from workcell.errors import InvalidDepthError
from workcell.geometry import PoseSE3
from workcell.perception import (
    BillboardGeom,
    CameraIntrinsics,
    Frame,
    PerceptionConfig,
    PointsGeom,
    VoxelsGeom,
    assemble_snapshot,
    back_project,
    lift_frame,
    quantize_by_distance,
    read_frame_dir,
    write_frame_dir,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=2.0, cy=2.0)


def _flat_frame(depth_value=0.5, label="widget"):
    """5x5 frame, one instance filling the center 3x3 at constant depth."""
    depth = np.zeros((5, 5), dtype=np.float32)
    mask = np.full((5, 5), -1, dtype=np.int32)
    depth[1:4, 1:4] = depth_value
    mask[1:4, 1:4] = 0
    return Frame(depth=depth, mask=mask, labels={0: (label, 0.9)},
                 camera_pose=PoseSE3.identity())


# -- back projection ----------------------------------------------------------


def test_back_project_oracle():
    pt = back_project(102.0, 52.0, 2.0, K)
    assert np.allclose(pt, [(102 - 2) / 100 * 2, (52 - 2) / 100 * 2, 2.0])


def test_back_project_rejects_bad_depth():
    for d in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidDepthError):
            back_project(0, 0, d, K)


# -- lifting ------------------------------------------------------------------


def test_lift_frame_identity_pose_matches_back_projection():
    frame = _flat_frame()
    lifted = lift_frame(frame, K)
    assert len(lifted.points) == 9
    for (u, v), p in zip(lifted.pixels, lifted.points):
        assert np.allclose(p, back_project(u, v, 0.5, K))
    assert set(lifted.instance_ids.tolist()) == {0}


def test_lift_frame_applies_camera_pose():
    frame = _flat_frame()
    pose = PoseSE3(np.eye(3), [1.0, 2.0, 3.0])
    frame.camera_pose = pose
    lifted = lift_frame(frame, K)
    base = lift_frame(_flat_frame(), K)
    assert np.allclose(lifted.points, base.points + np.array([1.0, 2.0, 3.0]))


def test_lift_frame_skips_invalid_depth():
    frame = _flat_frame()
    frame.depth[2, 2] = 0.0
    assert len(lift_frame(frame, K).points) == 8
    frame2 = _flat_frame()
    frame2.valid = np.ones((5, 5), dtype=bool)
    frame2.valid[1, 1] = False
    assert len(lift_frame(frame2, K).points) == 8


def test_lift_frame_empty():
    depth = np.zeros((3, 3), dtype=np.float32)
    mask = np.full((3, 3), -1, dtype=np.int32)
    frame = Frame(depth, mask, {}, PoseSE3.identity())
    assert len(lift_frame(frame, K).points) == 0


def test_frame_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Frame(np.zeros((2, 2)), np.zeros((3, 3), dtype=np.int32), {},
              PoseSE3.identity())


# -- quantization -------------------------------------------------------------


def test_quantize_bands():
    near = np.array([[0.0, 0.0, 0.3], [0.01, 0.0, 0.3]])
    assert isinstance(quantize_by_distance(near), PointsGeom)
    mid = near + np.array([0.0, 0.0, 1.0])
    g = quantize_by_distance(mid)
    assert isinstance(g, VoxelsGeom)
    far = near + np.array([0.0, 0.0, 5.0])
    b = quantize_by_distance(far, image_ref="crop/0")
    assert isinstance(b, BillboardGeom)
    assert b.image_ref == "crop/0"
    assert np.linalg.norm(b.view_vector) == pytest.approx(1.0)


def test_quantize_voxels_dedupe():
    pts = np.array([[0.0, 0.0, 1.0], [0.001, 0.0, 1.0], [0.05, 0.0, 1.0]])
    g = quantize_by_distance(pts, voxel_size=0.02)
    assert isinstance(g, VoxelsGeom)
    assert len(g.cells) == 2  # first two share a cell


def test_quantize_rejects_empty_and_bad_bands():
    with pytest.raises(ValueError):
        quantize_by_distance(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        quantize_by_distance(np.ones((2, 3)), r_near=2.0, r_far=1.0)


# -- snapshot assembly --------------------------------------------------------


def test_assemble_snapshot_one_observation_per_instance():
    frame = _flat_frame()
    obs = assemble_snapshot(frame, K)
    assert len(obs) == 1
    assert obs[0].label == "widget"
    assert obs[0].confidence == pytest.approx(0.9)
    assert isinstance(obs[0].geometry, PointsGeom)
    assert np.allclose(obs[0].envelope.mean,
                       lift_frame(frame, K).points.mean(axis=0))


def test_assemble_snapshot_category_filter():
    frame = _flat_frame(label="scrap")
    cfg = PerceptionConfig(target_categories=["widget"])
    assert assemble_snapshot(frame, K, cfg) == []


def test_assemble_snapshot_drops_starved_instances():
    frame = _flat_frame()
    frame.depth[1:4, 1:4] = 0.0
    frame.depth[2, 2] = 0.5  # single surviving point
    assert assemble_snapshot(frame, K) == []


# -- fixture format -----------------------------------------------------------


def test_frame_dir_roundtrip_bit_exact(tmp_path):
    frame = _flat_frame()
    frame.camera_pose = PoseSE3(np.eye(3), [0.25, -0.5, 1.0])
    frame.valid = np.ones((5, 5), dtype=bool)
    frame.valid[0, 0] = False
    write_frame_dir(frame, tmp_path / "f0")
    back = read_frame_dir(tmp_path / "f0")
    assert np.array_equal(back.depth, frame.depth)
    assert np.array_equal(back.mask, frame.mask)
    assert back.labels == frame.labels
    assert np.array_equal(back.valid, frame.valid)
    assert np.array_equal(back.camera_pose.rotation, frame.camera_pose.rotation)
    assert np.array_equal(back.camera_pose.translation,
                          frame.camera_pose.translation)
