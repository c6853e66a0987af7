"""Deterministic simulator: rendering, abstract skills, injections, and
ground truth."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from workcell.errors import ScenarioError, WorkcellError
from workcell.geometry import PoseSE3
from workcell.perception import CameraIntrinsics
from workcell.simulator import (
    PRIMITIVE_SECONDS,
    FailureInjection,
    SimCamera,
    SimObject,
    SimWorld,
    render_frame,
    visible_pixel_counts,
)
from workcell.transactions import FTSignal, map_ft_event

from oracles import (
    on_relations_reference,
    render_frame_reference,
    visible_pixel_counts_reference,
)

TOPDOWN = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])


def _obj(oid, pos, he=(0.02, 0.02, 0.015), zone="z1", label=None):
    return SimObject(oid, label or oid, np.array(he),
                     PoseSE3(np.eye(3), np.asarray(pos, float)), zone)


def _camera(x, y):
    return SimCamera(
        intrinsics=CameraIntrinsics(60.0, 60.0, 32.0, 24.0),
        pose=PoseSE3(TOPDOWN, [x, y, 1.0]),
    )


def make_world(**kw):
    return SimWorld(
        zones=["z1", "z2"],
        objects=[_obj("part", [0.5, 0.0, 0.015]),
                 _obj("plate", [1.2, 0.0, 0.015], he=(0.05, 0.05, 0.015),
                      zone="z2")],
        robot_zone="z1",
        robot_position=np.array([0.5, 0.0, 0.1]),
        **kw,
    )


# -- construction invariants --------------------------------------------------


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
    assert frame.labels[iid] == "part"


def test_render_occlusion_nearest_wins():
    world = SimWorld(
        ["z1"],
        [_obj("low", [0.5, 0.0, 0.015]),
         _obj("high", [0.5, 0.0, 0.08], he=(0.01, 0.01, 0.01))],
        "z1", [0.5, 0, 0.1],
    )
    frame = render_frame(world, _camera(0.5, 0.0))
    u, v = 32, 24
    assert frame.depth[v, u] == pytest.approx(1.0 - 0.09, abs=1e-6)
    assert frame.labels[frame.mask[v, u]] == "high"


def test_visible_pixel_counts_and_oov():
    world = make_world()
    counts = visible_pixel_counts(world, render_frame(world, _camera(0.5, 0.0)))
    assert counts["part"] > 0
    assert counts["plate"] == 0  # other zone: out of view
    labels = render_frame(world, _camera(0.5, 0.0)).labels
    assert "plate" not in labels.values()


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
        center = (np.array(local)[None, :] @ cam.pose.rotation.T + cam.pose.translation)[0]
        objects.append(SimObject(f"o{i}", f"l{i}", np.array(he),
                                 PoseSE3(rotation, center), "z1"))
    world = SimWorld(["z1"], objects, "z1", [0.0, 0.0, 0.0])
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
    assert visible_pixel_counts(world, frame) == visible_pixel_counts_reference(world, frame)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scenes(), st.randoms(use_true_random=True))
def test_a_camera_that_renders_again_matches_a_fresh_one(scene, rnd):
    """One camera renders four scenes in turn, each of the same boxes moved
    and given rotations from a pool of three, so that every scene holds two
    rotations or more and the last one brings back the rotations of the
    first. Each frame equals the full-frame reference and a fresh camera's
    render, bit for bit, whatever the camera kept from earlier renders."""
    world, cam = scene
    assume(len(world.objects) >= 2)
    pool = [np.eye(3), TOPDOWN, _rotation(rnd, "random")]
    for step, turn in enumerate((0, 1, 2, 0)):
        shift = 0.01 * step * np.array([1.0, -1.0, 0.5])
        objects = [SimObject(o.object_id, o.label, o.half_extents,
                             PoseSE3(pool[(i + turn) % 3], o.pose.translation + shift), "z1")
                   for i, o in enumerate(world.objects.values())]
        moved = SimWorld(["z1"], objects, "z1", [0.0, 0.0, 0.0])
        frame = render_frame(moved, cam)
        depth, mask, labels = render_frame_reference(moved, cam)
        fresh = render_frame(moved, SimCamera(cam.intrinsics, cam.pose, cam.width, cam.height))
        for other_depth, other_mask, other_labels in (
                (depth, mask, labels), (fresh.depth, fresh.mask, fresh.labels)):
            assert frame.depth.tobytes() == other_depth.tobytes()
            assert np.array_equal(frame.mask, other_mask)
            assert frame.labels == other_labels


def test_render_depth_tie_goes_to_earlier_id():
    box = dict(he=(0.05, 0.05, 0.015))
    world = SimWorld(["z1"],
                     [_obj("b", [0.5, 0.0, 0.015], **box),
                      _obj("a", [0.5, 0.0, 0.015], **box)], "z1", [0.5, 0, 0.1])
    frame = render_frame(world, _camera(0.5, 0.0))
    assert set(np.unique(frame.mask)) == {-1, world.instance_ids["a"]}


def test_camera_is_frozen_and_its_rays_read_only():
    cam = _camera(0.5, 0.0)
    with pytest.raises(AttributeError):
        cam.pose = PoseSE3(np.eye(3), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        cam.rays[0, 0] = 1.0


# -- skills -------------------------------------------------------------------


def test_pick_miss_emits_slip_signature():
    world = make_world()
    events = world.execute_skill("Pick", {"object": "part",
                                          "position": [0.6, 0.0, 0.015]})
    [ev] = events
    assert ev.signal == FTSignal.GRIPPER_FORCE and ev.value < 5.0
    assert world.gripper is None
    assert world.sim_time == PRIMITIVE_SECONDS


def _poses(world):
    return {oid: (o.pose.rotation.tobytes(), o.pose.translation.tobytes())
            for oid, o in world.objects.items()}


def test_pick_of_an_id_the_world_lacks_closes_on_air():
    world = make_world()
    before = _poses(world)
    [ev] = world.execute_skill("Pick", {"object": "spacer_1"})
    assert ev.signal == FTSignal.GRIPPER_FORCE and ev.value < 5.0
    assert world.gripper is None and _poses(world) == before


@pytest.mark.parametrize("action, args", [
    ("Insert", {"part": "part", "receptacle": "spacer_1"}),
    ("Rotate", {"object": "spacer_1", "rotation": np.eye(3).tolist()}),
])
def test_insert_or_rotate_of_an_id_the_world_lacks_changes_nothing(action, args):
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    before = _poses(world)
    assert world.execute_skill(action, args) == []
    assert world.gripper == "part" and _poses(world) == before


def test_pick_success_attaches_and_move_carries():
    world = make_world()
    [ev] = world.execute_skill("Pick", {"object": "part"})
    assert ev.signal == FTSignal.GRIPPER_FORCE and ev.value > 5.0
    assert world.gripper == "part"
    assert np.allclose(world.objects["part"].pose.translation,
                       world.robot_position)
    assert world.execute_skill("Move", {"zone": "z2", "position": [1.2, 0.0, 0.1]}) == []
    assert world.robot_zone == "z2"
    assert np.allclose(world.objects["part"].pose.translation, [1.2, 0.0, 0.1])
    assert world.objects["part"].zone == "z2"


def test_rotate_turns_the_held_part_in_place():
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    at = world.objects["part"].pose.translation.copy()
    turn = Rotation.from_euler("z", 90, degrees=True).as_matrix()
    assert world.execute_skill("Rotate", {"object": "part", "rotation": turn.tolist()}) == []
    pose = world.objects["part"].pose
    assert np.allclose(pose.rotation, turn) and np.array_equal(pose.translation, at)
    assert world.gripper == "part"


def test_open_gripper_drops_the_part_onto_the_floor_below():
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    world.execute_skill("Move", {"position": [0.7, 0.1, 0.3]})
    assert world.execute_skill("OpenGripper", {}) == []
    part = world.objects["part"]
    x, y, z = part.pose.translation
    assert (x, y, z - part.half_extents[2]) == (0.7, 0.1, 0.0)
    assert world.gripper is None


def test_insert_seats_the_held_part_on_the_receptacle():
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    turn = Rotation.from_euler("z", 30, degrees=True).as_matrix()
    world.execute_skill("Rotate", {"object": "part", "rotation": turn.tolist()})
    [ev] = world.execute_skill("Insert", {"part": "part", "receptacle": "plate",
                                          "mating_offset": [0.0, 0.0, 0.03]})
    part, plate = world.objects["part"], world.objects["plate"]
    assert np.array_equal(part.pose.rotation, plate.pose.rotation)
    assert np.array_equal(part.pose.translation, plate.pose.translation + [0.0, 0.0, 0.03])
    assert part.zone == plate.zone == "z2" != world.robot_zone
    assert world.gripper is None
    # Nominal seating torque: the controller maps it to no event.
    assert ev.signal == FTSignal.EXTERNAL_TORQUE and map_ft_event(ev, "insert") is None


def test_insert_of_a_part_other_than_the_held_one_changes_nothing():
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    before = _poses(world)
    assert world.execute_skill("Insert", {"part": "plate", "receptacle": "part"}) == []
    assert world.gripper == "part" and _poses(world) == before
    assert world.objects["plate"].zone == "z2"


def test_place_snaps_onto_destination():
    world = make_world()
    world.execute_skill("Pick", {"object": "part"})
    world.execute_skill("Move", {"zone": "z2", "position": [1.2, 0.0, 0.1]})
    events = world.execute_skill("Place", {"destination": "plate",
                                           "position": [1.2, 0.0, 0.5]})
    assert world.gripper is None
    assert world.on_relations() == {("On", "part", "plate")}
    # Bottom of the part rests on the plate's top face.
    part = world.objects["part"]
    assert part.pose.translation[2] - part.half_extents[2] == pytest.approx(
        world.objects["plate"].top_z)
    [ev] = events
    assert ev.signal == FTSignal.VERTICAL_FORCE
    assert ev.value > 10.0 and ev.sustained_s >= 0.5


def test_obstacle_injection_blocks_move():
    world = make_world(injections=[FailureInjection("Obstacle",
                                                    trigger_phase="Move")])
    [ev] = world.execute_skill("Move", {"zone": "z2"})
    assert ev.signal == FTSignal.EXTERNAL_FORCE
    assert abs(ev.value) > 15.0
    assert world.robot_zone == "z1"  # the move never happened
    # The injection is one-shot: the retry goes through.
    assert world.execute_skill("Move", {"zone": "z2"}) == []
    assert world.robot_zone == "z2"
    assert world.sim_time == 2 * PRIMITIVE_SECONDS


def test_partslip_injection_drops_held_object():
    world = make_world(injections=[FailureInjection(
        "PartSlip", trigger_phase="Move",
        params={"drop_offset": [0.05, 0.05, 0.0]},
    )])
    world.execute_skill("Pick", {"object": "part"})
    [ev] = world.execute_skill("Move", {"zone": "z2"})
    assert world.gripper is None
    dropped = world.objects["part"]
    assert np.allclose(dropped.pose.translation[:2], [0.55, 0.05])
    assert dropped.pose.translation[2] == pytest.approx(0.015)  # on the surface
    assert ev.signal == FTSignal.GRIPPER_FORCE and ev.value < 5.0


def test_target_moved_fires_on_step():
    world = make_world(injections=[FailureInjection(
        "TargetMoved", trigger_step=2,
        params={"target": "part", "move_delta": [0.15, 0.0, 0.0]},
    )])
    world.execute_skill("CloseGripper", {})
    assert np.allclose(world.objects["part"].pose.translation,
                       [0.5, 0.0, 0.015])
    world.execute_skill("CloseGripper", {})
    assert world.step_count == 2
    assert np.allclose(world.objects["part"].pose.translation,
                       [0.65, 0.0, 0.015])


def test_every_displacement_due_at_a_step_lands():
    world = make_world(injections=[
        FailureInjection("TargetMoved", trigger_step=1,
                         params={"target": oid, "move_delta": [0.0, 0.1, 0.0]})
        for oid in ("part", "plate")])
    world.execute_skill("CloseGripper", {})
    assert [float(o.pose.translation[1]) for o in world.objects.values()] == [0.1, 0.1]


def test_target_moved_with_phase_and_step_fires_when_both_match():
    """Armed on a Pick at step 2: a Pick at step 1 or 4 and a Move at
    step 2 leave the plate where it is; a Pick at step 2 lifts it."""
    def world():
        return make_world(injections=[FailureInjection(
            "TargetMoved", trigger_phase="Pick", trigger_step=2,
            params={"target": "plate", "move_delta": [0.0, 0.0, 0.05]},
        )])

    def plate_z(w):
        return float(w.objects["plate"].pose.translation[2])

    missed = world()
    for action, args in [("Pick", {"object": "part"}), ("Move", {"zone": "z1"}),
                         ("OpenGripper", {}), ("Pick", {"object": "part"})]:
        missed.execute_skill(action, args)
        assert plate_z(missed) == pytest.approx(0.015)
    fired = world()
    for action, args in [("CloseGripper", {}), ("Pick", {"object": "part"})]:
        fired.execute_skill(action, args)
    assert plate_z(fired) == pytest.approx(0.065)


def test_unknown_action_and_zone_rejected():
    world = make_world()
    with pytest.raises(WorkcellError):
        world.execute_skill("Fly", {})
    with pytest.raises(WorkcellError):
        world.execute_skill("Move", {"zone": "zX"})


# -- ground truth -------------------------------------------------------------


def test_ground_truth_relations():
    world = SimWorld(
        ["z1"],
        [_obj("base", [0.5, 0.0, 0.015]),
         _obj("top", [0.5, 0.0, 0.045]),
         _obj("nearby", [0.6, 0.0, 0.015])],
        "z1", [0.5, 0, 0.1],
    )
    assert world.on_relations() == {("On", "top", "base")}
    world.execute_skill("Pick", {"object": "top"})
    assert world.on_relations() == set()


def test_on_is_read_from_the_poses():
    """A box counts as resting on another when its bottom face meets the
    other's top face and its centre lies over the other's footprint; the
    held object rests on nothing, and nothing rests on it."""
    stack = {
        "resting": [0.52, 0.03, 0.045],
        "lifted": [0.5, 0.0, 0.075],  # 0.03 m above the base's top face
        "off_footprint": [0.56, 0.0, 0.045],
    }

    def world_with(name):
        base = _obj("base", [0.5, 0.0, 0.015], he=(0.05, 0.05, 0.015))
        return SimWorld(["z1"], [base, _obj(name, stack[name])], "z1", [0.5, 0.0, 0.1])

    assert world_with("resting").on_relations() == {("On", "resting", "base")}
    assert world_with("lifted").on_relations() == set()
    assert world_with("off_footprint").on_relations() == set()

    held = world_with("resting")
    held.execute_skill("Pick", {"object": "resting"})
    assert held.on_relations() == set()  # the held object rests on nothing
    # The base, lifted onto the held box's top face:
    held.objects["base"].pose = PoseSE3(
        np.eye(3), [0.5, 0.0, held.objects["resting"].top_z + 0.015])
    assert held.on_relations() == set()  # and nothing rests on it


# Dyadic sizes and places, so that a footprint edge meeting a centre, and a
# face meeting a face, are exact.
_HALF = st.sampled_from([1 / 64, 1 / 32, 1 / 16])
_STEP = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])  # in the base's half-extents
_GAP = st.sampled_from([-1 / 32, -1 / 64, 0.0, 1 / 64, 1 / 32])  # 1/64 is within 2 * EPS_CONTACT


@st.composite
def _stacks(draw):
    """0-5 boxes: each on the floor or resting, up to a small gap, on an
    earlier box, with its centre at a multiple of half the earlier box's
    half-extents from that box's centre (so some centres lie exactly on a
    footprint edge); and maybe one of them held."""
    objects = []
    for i in range(draw(st.integers(0, 5))):
        he = np.array([draw(_HALF), draw(_HALF), draw(_HALF)])
        if objects and draw(st.booleans()):
            base = objects[draw(st.integers(0, len(objects) - 1))]
            centre = base.pose.translation + [draw(_STEP) * base.half_extents[0],
                                              draw(_STEP) * base.half_extents[1], 0.0]
            centre[2] = base.top_z + he[2] + draw(_GAP)
        else:
            centre = np.array([draw(_STEP) / 8, draw(_STEP) / 8, he[2]])
        objects.append(SimObject(f"o{i}", "box", he, PoseSE3(np.eye(3), centre), "z1"))
    world = SimWorld(["z1"], objects, "z1", [0.0, 0.0, 0.5])
    world.gripper = draw(st.sampled_from([None, *world.objects]))
    return world


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stacks())
def test_on_relations_match_the_pairwise_reference(world):
    assert world.on_relations() == on_relations_reference(world)


def test_true_positions_are_copies():
    world = make_world()
    pos = world.true_positions()
    pos["part"][0] = 99.0
    assert world.objects["part"].pose.translation[0] == 0.5
