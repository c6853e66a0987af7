"""Frame lifting, geometric abstraction, and snapshot assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from workcell.geometry import PointCloudData, PoseSE3
from workcell.perception import (
    BillboardGeom,
    CameraIntrinsics,
    Frame,
    PointsGeom,
    VoxelsGeom,
    assemble_snapshot,
    lift_frame,
    quantize_by_distance,
    unique_cells,
)
from workcell.serialization import encode
from workcell.world_model import geom_to_dict

from oracles import assemble_snapshot_reference, back_project, lift_frame_reference

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=2.0, cy=2.0)


def _flat_frame(depth_value=0.5, label="widget"):
    """5x5 frame, one instance filling the center 3x3 at constant depth."""
    depth = np.zeros((5, 5), dtype=np.float32)
    mask = np.full((5, 5), -1, dtype=np.int32)
    depth[1:4, 1:4] = depth_value
    mask[1:4, 1:4] = 0
    return Frame(depth=depth, mask=mask, labels={0: label},
                 camera_pose=PoseSE3.identity())


# -- back projection ----------------------------------------------------------


def test_back_project_oracle():
    pt = back_project(102.0, 52.0, 2.0, K)
    assert np.allclose(pt, [(102 - 2) / 100 * 2, (52 - 2) / 100 * 2, 2.0])


# -- lifting ------------------------------------------------------------------


def test_lift_frame_identity_pose_matches_back_projection():
    frame = _flat_frame()
    lifted = lift_frame(frame, K)
    assert len(lifted.points) == 9
    vv, uu = np.nonzero(frame.mask >= 0)  # row-major, the order lift_frame keeps
    for u, v, p in zip(uu, vv, lifted.points):
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
    assert isinstance(quantize_by_distance(near, near.mean(axis=0)), PointsGeom)
    mid = near + np.array([0.0, 0.0, 1.0])
    g = quantize_by_distance(mid, mid.mean(axis=0))
    assert isinstance(g, VoxelsGeom)
    far = near + np.array([0.0, 0.0, 5.0])
    b = quantize_by_distance(far, far.mean(axis=0), image_ref="crop/0")
    assert isinstance(b, BillboardGeom)
    assert b.image_ref == "crop/0"
    assert np.linalg.norm(b.view_vector) == pytest.approx(1.0)


def test_quantize_voxels_dedupe():
    pts = np.array([[0.0, 0.0, 1.0], [0.001, 0.0, 1.0], [0.05, 0.0, 1.0]])
    g = quantize_by_distance(pts, pts.mean(axis=0))
    assert isinstance(g, VoxelsGeom)
    assert len(g.cells) == 2  # first two share a cell


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_unique_cells_matches_np_unique(seed):
    rng = np.random.default_rng(seed)
    n, span = int(rng.integers(1, 60)), int(rng.integers(1, 6))
    cells = rng.integers(-span, span + 1, (n, 3)).astype(np.int64)
    if n > 1:
        cells[rng.integers(0, n, n // 2)] = cells[0]  # guaranteed duplicates
    got, want = unique_cells(cells), np.unique(cells, axis=0)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _geometries():
    pts = np.array([[0.0, -0.5, 0.3], [0.01, 0.2, 0.31], [-0.3, 0.0, 0.25]])
    return [quantize_by_distance(pts, pts.mean(axis=0)),
            quantize_by_distance(pts + [0.0, 0.0, 1.0], (pts + [0.0, 0.0, 1.0]).mean(axis=0)),
            quantize_by_distance(pts + [0.0, 0.0, 5.0], (pts + [0.0, 0.0, 5.0]).mean(axis=0),
                                 image_ref="frame/crop/3")]


def test_geometries_are_frozen_values_with_read_only_arrays():
    points, voxels, billboard = _geometries()
    arrays = [points.cloud.points, voxels.cells, billboard.view_vector, billboard.centroid]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1
    for g, name in ((points, "cloud"), (voxels, "cells"), (billboard, "centroid")):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    # The caller's array is left writable.
    source = np.zeros((2, 3))
    PointsGeom(PointCloudData(source))
    VoxelsGeom(source.astype(np.int64), 0.02)
    source[0, 0] = 1.0


def test_geometry_text_and_bounds_equal_the_uncached_values():
    for g in _geometries():
        assert g.text == encode(geom_to_dict(g))
        assert g.text is g.text  # computed once
    points, voxels, billboard = _geometries()
    lo, hi = points.bounds
    assert lo.tobytes() == points.cloud.points.min(axis=0).tobytes()
    assert hi.tobytes() == points.cloud.points.max(axis=0).tobytes()
    lo, hi = voxels.bounds
    assert lo.tobytes() == (voxels.cells.min(axis=0) * voxels.cell_size).tobytes()
    assert hi.tobytes() == ((voxels.cells.max(axis=0) + 1) * voxels.cell_size).tobytes()
    assert billboard.bounds is None
    assert PointsGeom(PointCloudData(np.zeros((0, 3)))).bounds is None
    assert VoxelsGeom(np.zeros((0, 3), dtype=np.int64), 0.02).bounds is None


def test_quantize_rejects_empty():
    with pytest.raises(ValueError):
        quantize_by_distance(np.zeros((0, 3)), np.zeros(3))


# -- snapshot assembly --------------------------------------------------------


def test_assemble_snapshot_one_observation_per_instance():
    frame = _flat_frame()
    obs = assemble_snapshot(frame, K)
    assert len(obs) == 1
    assert obs[0].label == "widget"
    assert isinstance(obs[0].geometry, PointsGeom)
    assert np.allclose(obs[0].envelope.mean,
                       lift_frame(frame, K).points.mean(axis=0))


def test_assemble_snapshot_drops_starved_instances():
    frame = _flat_frame()
    frame.depth[1:4, 1:4] = 0.0
    frame.depth[2, 2] = 0.5  # single surviving point
    assert assemble_snapshot(frame, K) == []


# Camera-frame depths whose lifted centroids fall in the near, voxel and
# billboard bands when the camera is near the base origin.
_BAND_DEPTHS = (0.3, 1.2, 4.0)


def _snapshot_frame(seed):
    """A frame of 4-8 by 4-8 pixels seen from a camera within 0.2 m of the
    base origin or, in one frame of four, 1e15 m from it. Its label table
    always holds an id with no pixels and an id with one pixel; each band
    depth gets one or two ids of two or more pixels, and a tenth of the
    masked pixels read zero depth. The rest is unlabeled."""
    rng = np.random.default_rng(seed)
    h, w = (int(x) for x in rng.integers(4, 9, 2))
    k = CameraIntrinsics(*rng.uniform(20.0, 120.0, 2), *rng.uniform(0.0, [w, h]))
    offset = rng.uniform(-0.1, 0.1, 3)
    if rng.random() < 0.25:
        offset += 1e15 * Rotation.random(random_state=rng).as_matrix()[0]
    pose = PoseSE3(Rotation.random(random_state=rng).as_matrix(), offset)
    depth_of = [d for d in _BAND_DEPTHS for _ in range(rng.integers(1, 3))]
    ids = rng.permutation(30)[:len(depth_of) + 2].tolist()
    single, banded = ids[1], ids[2:]  # ids[0] gets no pixels
    pixels = rng.permutation(h * w).tolist()
    mask = np.full(h * w, -1, dtype=np.int32)
    depth = np.zeros(h * w, dtype=np.float32)
    mask[pixels.pop()] = single
    depth[mask == single] = 0.5
    share = len(pixels) // len(banded)
    for instance, d in zip(banded, depth_of):
        for _ in range(int(rng.integers(2, share + 1))):
            p = pixels.pop()
            mask[p] = instance
            depth[p] = d * rng.uniform(0.95, 1.05)
    depth[(mask >= 0) & (rng.random(h * w) < 0.1)] = 0.0
    labels = {i: f"part{i % 4}" for i in ids}
    return Frame(depth.reshape(h, w), mask.reshape(h, w), labels, pose), k


def _snapshot_outcome(assemble, frame, k):
    """Every stored byte of a snapshot: per observation, its label and
    geometry kind, and the dtype, shape and bytes of each array or the value
    of each other field; or the type and message of the error raised."""
    try:
        observations = assemble(frame, k)
    except ValueError as exc:
        return type(exc).__name__, str(exc)

    def fields(g):
        if isinstance(g, PointsGeom):
            return [g.cloud.points]
        if isinstance(g, VoxelsGeom):
            return [g.cells, g.cell_size]
        return [g.image_ref, g.view_vector, g.centroid]

    return [
        (o.label, type(o.geometry).__name__,
         [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
          for a in [o.envelope.mean, o.envelope.covariance, *fields(o.geometry)]])
        for o in observations
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_snapshot_matches_reference(seed):
    frame, k = _snapshot_frame(seed)
    assert (_snapshot_outcome(assemble_snapshot, frame, k)
            == _snapshot_outcome(assemble_snapshot_reference, frame, k))


def test_snapshot_frames_cover_the_edge_cases():
    seen = set()
    for seed in range(100):
        frame, k = _snapshot_frame(seed)
        lifted = lift_frame(frame, k)
        counts = {i: int((lifted.instance_ids == i).sum()) for i in frame.labels}
        seen.update(
            {"no pixels"} if 0 in counts.values() else set(),
            {"one point"} if 1 in counts.values() else set(),
            {"zero depth"} if ((frame.mask >= 0) & (frame.depth == 0)).any() else set(),
            {type(o.geometry).__name__ for o in assemble_snapshot(frame, k)},
        )
    assert seen == {"no pixels", "one point", "zero depth",
                    "PointsGeom", "VoxelsGeom", "BillboardGeom"}


def _far_frame(seed, reach):
    """``_snapshot_frame(seed)`` seen from a camera ``reach`` metres from the
    base origin. At 3e14 m, rounding moves lifted points centimetres off
    their pixel rays; each still keeps its pixel's label."""
    frame, k = _snapshot_frame(seed)
    direction = Rotation.random(random_state=np.random.default_rng(seed + 1)).as_matrix()[0]
    pose = PoseSE3(frame.camera_pose.rotation, frame.camera_pose.translation + reach * direction)
    return Frame(frame.depth, frame.mask, frame.labels, pose), k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 3e14]))
def test_lift_frame_matches_its_reference_bit_for_bit(seed, reach):
    frame, k = _far_frame(seed, reach)
    lifted, reference = lift_frame(frame, k), lift_frame_reference(frame, k)
    for got, want in ((lifted.points, reference.points),
                      (lifted.instance_ids, reference.instance_ids)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _moved(frame, k, instance, shift):
    """The frame with one instance's depth scaled, so its points move."""
    depth = frame.depth.copy()
    depth[frame.mask == instance] *= shift
    return Frame(depth, frame.mask, frame.labels, frame.camera_pose), k


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_memoized_snapshot_matches_a_fresh_one(seed):
    """A sequence of frames in which one instance at a time moves: each
    snapshot assembled with the memo equals ``assemble_snapshot(frame, k)``
    bit for bit, an instance whose points did not change keeps its
    envelope and geometry objects, and the memo holds the last snapshot's
    instances only."""
    frame, k = _snapshot_frame(seed)
    rng = np.random.default_rng(seed)
    memo: dict = {}
    previous: dict = {}
    for step in range(4):
        observations = assemble_snapshot(frame, k, memo)
        assert (_snapshot_outcome(lambda *_: observations, frame, k)
                == _snapshot_outcome(assemble_snapshot, frame, k))
        lifted = lift_frame(frame, k)
        kept = 0
        for (instance, data), (envelope, geometry) in memo.items():
            assert data == lifted.for_instance(instance).tobytes()
            assert any(o.envelope is envelope and o.geometry is geometry for o in observations)
            if (instance, data) in previous:
                old_envelope, old_geometry = previous[instance, data]
                assert old_envelope is envelope and old_geometry is geometry
                kept += 1
        assert len(memo) == len(observations)
        # Only the moved instance can be lifted again.
        assert step == 0 or kept >= len(observations) - 1
        previous = dict(memo)
        frame, k = _moved(frame, k, int(rng.choice(sorted(frame.labels))), 1.01)
