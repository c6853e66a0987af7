"""Deterministic simulator: rendering, abstract skills, injections, and
ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from workcell.errors import ScenarioError, WorkcellError
from workcell.geometry import OrientedBox, PoseSE3
from workcell.perception import CameraIntrinsics
from workcell.simulator import (
    FailureInjection,
    SimCamera,
    SimObject,
    SimWorld,
    SimZone,
    render_frame,
    visible_pixel_counts,
)
from workcell.transactions import FTSignal

from oracles import render_frame_reference

TOPDOWN = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])


def _zone(zid, cx, cy):
    return SimZone(zid, zid, OrientedBox([cx, cy, 0.1], [0.3, 0.3, 0.1]))


def _obj(oid, pos, he=(0.02, 0.02, 0.015), zone="z1", support=None, label=None):
    return SimObject(oid, label or oid, np.array(he),
                     PoseSE3(np.eye(3), np.asarray(pos, float)), zone,
                     support=support)


def _camera(x, y):
    return SimCamera(
        intrinsics=CameraIntrinsics(60.0, 60.0, 32.0, 24.0),
        pose=PoseSE3(TOPDOWN, [x, y, 1.0]),
    )


def make_world(**kw):
    return SimWorld(
        zones=[_zone("z1", 0.5, 0.0), _zone("z2", 1.2, 0.0)],
        objects=[_obj("part", [0.5, 0.0, 0.015]),
                 _obj("plate", [1.2, 0.0, 0.015], he=(0.05, 0.05, 0.015),
                      zone="z2")],
        robot_zone="z1",
        robot_position=np.array([0.5, 0.0, 0.1]),
        **kw,
    )


# -- construction invariants --------------------------------------------------


def test_support_consistency_checked():
    stack = [
        _obj("base", [0.5, 0.0, 0.015]),
        _obj("top", [0.5, 0.0, 0.045], support="base"),
    ]
    SimWorld([_zone("z1", 0.5, 0.0)], stack, "z1", [0.5, 0, 0.1])
    floating = [
        _obj("base", [0.5, 0.0, 0.015]),
        _obj("top", [0.5, 0.0, 0.2], support="base"),
    ]
    with pytest.raises(WorkcellError):
        SimWorld([_zone("z1", 0.5, 0.0)], floating, "z1", [0.5, 0, 0.1])
    with pytest.raises(ScenarioError):
        SimWorld([_zone("z1", 0.5, 0.0)],
                 [_obj("top", [0.5, 0, 0.045], support="ghost")],
                 "z1", [0.5, 0, 0.1])


def test_injection_kind_validated():
    with pytest.raises(ScenarioError):
        FailureInjection(kind="Earthquake")


# -- rendering ----------------------------------------------------------------


def test_render_depth_oracle_center_pixel():
    world = make_world()
    cam = _camera(0.5, 0.0)
    frame = render_frame(world, cam)
    # The camera looks straight down from z=1.0 at the part whose top face
    # is at z=0.03: principal-ray depth is 0.97.
    u, v = int(cam.intrinsics.cx), int(cam.intrinsics.cy)
    assert frame.depth[v, u] == pytest.approx(0.97, abs=1e-6)
    iid = frame.mask[v, u]
    assert frame.labels[iid] == ("part", 1.0)


def test_render_occlusion_nearest_wins():
    world = SimWorld(
        [_zone("z1", 0.5, 0.0)],
        [_obj("low", [0.5, 0.0, 0.015]),
         _obj("high", [0.5, 0.0, 0.08], he=(0.01, 0.01, 0.01))],
        "z1", [0.5, 0, 0.1],
    )
    frame = render_frame(world, _camera(0.5, 0.0))
    u, v = 32, 24
    assert frame.depth[v, u] == pytest.approx(1.0 - 0.09, abs=1e-6)
    assert frame.labels[frame.mask[v, u]][0] == "high"


def test_visible_pixel_counts_and_oov():
    world = make_world()
    counts = visible_pixel_counts(world, render_frame(world, _camera(0.5, 0.0)))
    assert counts["part"] > 0
    assert counts["plate"] == 0  # other zone: out of view
    labels = render_frame(world, _camera(0.5, 0.0)).labels
    assert all(name != "plate" for name, _c in labels.values())


def _rotation(rnd, family) -> np.ndarray:
    """The identity, the top-down camera rotation of the scenarios, or a
    uniformly random rotation."""
    if family == "random":
        return Rotation.random(random_state=rnd.getrandbits(32)).as_matrix()
    return {"identity": np.eye(3), "topdown": TOPDOWN}[family]


_families = st.sampled_from(["identity", "topdown", "random"])


@st.composite
def _scenes(draw):
    """A camera at a random pose and image size, and 0-8 boxes placed in
    its frame: in front (aimed at a pixel that may lie off-screen), behind
    the image plane, straddling it, around the camera, aligned with the
    camera axes with a corner on a pixel's ray (so rounding decides that
    pixel), or an exact copy of the previous box.

    Hypothesis draws the structure; real numbers come from a seeded
    ``random.Random``, because Hypothesis favours round floats, whose
    arithmetic is exact and never lands a corner on the wrong side of a
    pixel."""
    rnd = draw(st.randoms(use_true_random=True))
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    k = CameraIntrinsics(rnd.uniform(5.0, 120.0), rnd.uniform(5.0, 120.0),
                         rnd.uniform(-5.0, w + 5.0), rnd.uniform(-5.0, h + 5.0))
    cam = SimCamera(k, PoseSE3(_rotation(rnd, draw(_families)),
                               [rnd.uniform(-1.0, 1.0) for _ in range(3)]), w, h)
    objects = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["front", "behind", "straddle", "around", "corner", "corner", "copy"]))
        if kind == "copy" and objects:
            last = objects[-1]
            objects.append(SimObject(f"o{i}", f"l{i}", last.half_extents,
                                     last.pose, "z1"))
            continue
        he = [rnd.uniform(0.01, 0.4) for _ in range(3)]
        rotation = _rotation(rnd, draw(_families))
        if kind == "around":  # the camera sits inside the box
            local = [rnd.uniform(-0.005, 0.005) for _ in range(3)]
            he = [x + 0.01 for x in he]
        else:
            z = rnd.uniform(*{"behind": (-3.0, -0.5),
                              "straddle": (-0.3, 0.3)}.get(kind, (0.1, 3.0)))
            if kind == "corner":
                u, v = rnd.randrange(w), rnd.randrange(h)
            else:
                u, v = rnd.uniform(-0.25 * w, 1.25 * w), rnd.uniform(-0.25 * h, 1.25 * h)
            local = [(u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z]
            if kind == "corner":
                # The box reaches back from its near corner and inward
                # towards the principal ray, so the corner is the
                # outermost point of its silhouette.
                signs = [-np.sign(local[0]), -np.sign(local[1]), 1.0]
                local = [c + s * e for c, s, e in zip(local, signs, he)]
                rotation = cam.pose.rotation
        center = cam.pose.apply(np.array(local)[None, :])[0]
        objects.append(SimObject(f"o{i}", f"l{i}", np.array(he),
                                 PoseSE3(rotation, center), "z1"))
    world = SimWorld([_zone("z1", 0.0, 0.0)], objects, "z1", [0.0, 0.0, 0.0])
    return world, cam


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scenes())
def test_render_matches_full_frame_reference(scene):
    world, cam = scene
    frame = render_frame(world, cam)
    depth, mask, labels = render_frame_reference(world, cam)
    assert frame.depth.tobytes() == depth.tobytes()
    assert np.array_equal(frame.mask, mask)
    assert frame.labels == labels


def test_render_depth_tie_goes_to_earlier_id():
    box = dict(he=(0.05, 0.05, 0.015))
    world = SimWorld([_zone("z1", 0.5, 0.0)],
                     [_obj("b", [0.5, 0.0, 0.015], **box),
                      _obj("a", [0.5, 0.0, 0.015], **box)], "z1", [0.5, 0, 0.1])
    frame = render_frame(world, _camera(0.5, 0.0))
    assert set(np.unique(frame.mask)) == {-1, world.instance_ids["a"]}


def test_camera_rays_are_fixed_at_construction():
    cam = _camera(0.5, 0.0)
    with pytest.raises(AttributeError):
        cam.pose = PoseSE3(np.eye(3), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        cam.rays[0, 0] = 1.0


# -- skills -------------------------------------------------------------------


def test_pick_miss_emits_slip_signature():
    world = make_world()
    out = world.execute_skill("Pick", {"object": "part",
                                       "position": [0.6, 0.0, 0.015]})
    assert not out.success
    ev = out.ft_events[0]
    assert ev.signal == FTSignal.GRIPPER_FORCE and ev.value < 5.0
    assert world.gripper is None


def test_pick_success_attaches_and_move_carries():
    world = make_world()
    out = world.execute_skill("Pick", {"object": "part"})
    assert out.success and world.gripper == "part"
    assert np.allclose(world.objects["part"].pose.translation,
                       world.robot_position)
    world.execute_skill("Move", {"zone": "z2", "position": [1.2, 0.0, 0.1]})
    assert world.robot_zone == "z2"
    assert np.allclose(world.objects["part"].pose.translation, [1.2, 0.0, 0.1])
    assert world.objects["part"].zone == "z2"


def test_place_snaps_onto_destination():
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    world.execute_skill("Move", {"zone": "z2", "position": [1.2, 0.0, 0.1]})
    out = world.execute_skill("Place", {"destination": "plate",
                                        "position": [1.2, 0.0, 0.5]})
    assert out.success and world.gripper is None
    part = world.objects["part"]
    assert part.support == "plate"
    # Bottom of the part rests on the plate's top face.
    assert part.bottom_z == pytest.approx(world.objects["plate"].top_z)
    ev = out.ft_events[0]
    assert ev.signal == FTSignal.VERTICAL_FORCE
    assert ev.value > 10.0 and ev.sustained_s >= 0.5


def test_obstacle_injection_blocks_move():
    world = make_world(injections=[FailureInjection("Obstacle",
                                                    trigger_phase="Move")])
    out = world.execute_skill("Move", {"zone": "z2"})
    assert not out.success
    assert out.ft_events[0].signal == FTSignal.EXTERNAL_FORCE
    assert abs(out.ft_events[0].value) > 15.0
    assert world.robot_zone == "z1"  # the move never happened
    # The injection is one-shot: the retry goes through.
    assert world.execute_skill("Move", {"zone": "z2"}).success


def test_partslip_injection_drops_held_object():
    world = make_world(injections=[FailureInjection(
        "PartSlip", trigger_phase="Move",
        params={"drop_offset": [0.05, 0.05, 0.0]},
    )])
    world.execute_skill("Pick", {"object": "part"})
    out = world.execute_skill("Move", {"zone": "z2"})
    assert not out.success and world.gripper is None
    dropped = world.objects["part"]
    assert np.allclose(dropped.pose.translation[:2], [0.55, 0.05])
    assert dropped.pose.translation[2] == pytest.approx(0.015)  # on the surface
    assert out.ft_events[0].value < 5.0


def test_target_moved_fires_on_step():
    world = make_world(injections=[FailureInjection(
        "TargetMoved", trigger_step=2,
        params={"target": "part", "move_delta": [0.15, 0.0, 0.0]},
    )])
    world.step()
    assert np.allclose(world.objects["part"].pose.translation,
                       [0.5, 0.0, 0.015])
    world.step()
    assert np.allclose(world.objects["part"].pose.translation,
                       [0.65, 0.0, 0.015])


def test_unknown_action_and_zone_rejected():
    world = make_world()
    with pytest.raises(WorkcellError):
        world.execute_skill("Fly", {})
    with pytest.raises(WorkcellError):
        world.execute_skill("Move", {"zone": "zX"})


# -- ground truth -------------------------------------------------------------


def test_ground_truth_relations():
    world = SimWorld(
        [_zone("z1", 0.5, 0.0)],
        [_obj("base", [0.5, 0.0, 0.015]),
         _obj("top", [0.5, 0.0, 0.045], support="base"),
         _obj("nearby", [0.6, 0.0, 0.015])],
        "z1", [0.5, 0, 0.1],
    )
    rels = world.ground_truth_relations()
    assert ("On", "top", "base") in rels
    assert ("Near", "base", "nearby") in rels and ("Near", "nearby", "base") in rels
    world.execute_skill("Pick", {"object": "top"})
    rels = world.ground_truth_relations()
    assert ("Holding", "robot", "top") in rels
    assert all(r[0] != "On" or r[1] != "top" for r in rels)


def test_true_positions_are_copies():
    world = make_world()
    pos = world.true_positions()
    pos["part"][0] = 99.0
    assert world.objects["part"].pose.translation[0] == 0.5
