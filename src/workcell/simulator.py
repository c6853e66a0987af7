"""Deterministic multi-zone workcell simulator.

Ground-truth object states live here, never in the engine's store. Skills
execute abstractly (no dynamics) and report back only the force-torque
events a controller senses, so whether a skill worked is for the engine to
find out; frames render from oriented-box proxies with perfect masks, and
failure injections synthesize exactly the force-torque signatures the
transaction layer watches for.

Rendering ray-casts each object's box against the camera's pixel rays, which
the frozen ``SimCamera`` computes once. Each box is tested only against the
pixels its projected corners can cover; the frame is the same, bit for bit,
as a full-frame test of every box would give. The simulator keeps no frame:
tests move ``SimObject`` poses directly, so a caller that reuses a frame
keys it on what ``render_frame`` reads (``harness.TrialRuntime.frame``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, WorkcellError
from .geometry import CORNER_SIGNS, PoseSE3
from .perception import CameraIntrinsics, Frame
from .transactions import FTEvent, FTSignal
from .world_model import EPS_CONTACT

GRASP_TOLERANCE = 0.02
PRIMITIVE_SECONDS = 1.0

# Nominal and failure force readings (N / Nm).
_NOMINAL_GRIP = 20.0
_SLIP_GRIP = 3.0
_COLLISION_FORCE = 16.0
_CONTACT_FORCE = 11.0
_CONTACT_SUSTAIN = 0.6
_NOMINAL_TORQUE = 0.5


@dataclass
class SimObject:
    object_id: str
    label: str
    half_extents: np.ndarray
    pose: PoseSE3
    zone: str
    support: str | None = None  # object id, or None for the work surface

    def __post_init__(self):
        self.half_extents = np.asarray(self.half_extents, dtype=float).reshape(3)
        if not np.all(self.half_extents > 0):
            raise ScenarioError(f"{self.object_id}: half extents must be positive")

    @property
    def top_z(self) -> float:
        return float(self.pose.translation[2] + self.half_extents[2])

    @property
    def bottom_z(self) -> float:
        return float(self.pose.translation[2] - self.half_extents[2])


@dataclass
class FailureInjection:
    kind: str  # PartSlip | Obstacle | TargetMoved
    trigger_phase: str | None = None  # action name
    trigger_step: int | None = None
    params: dict = field(default_factory=dict)
    consumed: bool = False

    def __post_init__(self):
        if self.kind not in ("PartSlip", "Obstacle", "TargetMoved"):
            raise ScenarioError(f"unknown injection kind {self.kind!r}")


@dataclass(frozen=True)
class SimCamera:
    """A pinhole camera. ``rays`` holds one base-frame direction per pixel,
    row-major, scaled so its camera-frame z component is 1; it is computed
    once here, and the camera is frozen so it cannot go stale."""

    intrinsics: CameraIntrinsics
    pose: PoseSE3  # camera-to-base
    width: int = 64
    height: int = 48
    rays: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, w, h = self.intrinsics, self.width, self.height
        uu, vv = np.meshgrid(np.arange(w), np.arange(h))
        rays_c = np.stack(
            [(uu.ravel() - k.cx) / k.fx, (vv.ravel() - k.cy) / k.fy,
             np.ones(w * h)], axis=1,
        )
        rays = rays_c @ self.pose.rotation.T
        rays.flags.writeable = False
        object.__setattr__(self, "rays", rays)


class SimWorld:
    def __init__(
        self,
        zones: list[str],
        objects: list[SimObject],
        robot_zone: str,
        robot_position: np.ndarray,
        injections: list[FailureInjection] | None = None,
        seed: int = 0,
    ):
        self.zones = set(zones)
        self.objects = {o.object_id: o for o in objects}
        self.robot_zone = robot_zone
        self.robot_position = np.asarray(robot_position, dtype=float).reshape(3)
        self.gripper: str | None = None
        self.injections = list(injections or [])
        self.step_count = 0
        self.sim_time = 0.0
        self.rng = np.random.default_rng(seed)
        # Stable instance ids for rendering, fixed at construction.
        self.instance_ids = {oid: i for i, oid in enumerate(sorted(self.objects))}
        self.validate_supports()

    # -- invariants ---------------------------------------------------------

    def validate_supports(self):
        for obj in self.objects.values():
            if obj.object_id == self.gripper:
                continue
            if obj.support is not None:
                sup = self.objects.get(obj.support)
                if sup is None:
                    raise ScenarioError(
                        f"{obj.object_id} supported by missing {obj.support}"
                    )
                if abs(obj.bottom_z - sup.top_z) > 2 * EPS_CONTACT:
                    raise WorkcellError(
                        f"{obj.object_id} floats above its supporter {obj.support}"
                    )

    # -- injections ---------------------------------------------------------

    def _pending_injection(self, kind: str, action: str) -> FailureInjection | None:
        for inj in self.injections:
            if inj.consumed or inj.kind != kind:
                continue
            if inj.trigger_phase is not None and inj.trigger_phase != action:
                continue
            if inj.trigger_step is not None and inj.trigger_step != self.step_count:
                continue
            return inj
        return None

    def step(self) -> "SimWorld":
        """Advance the counter and fire any step-triggered displacement."""
        self.step_count += 1
        for inj in self.injections:
            if inj.consumed or inj.kind != "TargetMoved":
                continue
            if inj.trigger_step is not None and inj.trigger_step == self.step_count:
                self._apply_target_moved(inj)
        return self

    def _apply_target_moved(self, inj: FailureInjection):
        target = inj.params["target"]
        delta = np.asarray(inj.params["move_delta"], dtype=float).reshape(3)
        obj = self.objects[target]
        obj.pose = PoseSE3(obj.pose.rotation, obj.pose.translation + delta)
        obj.support = None if float(np.linalg.norm(delta[:2])) > 0 else obj.support
        inj.consumed = True

    # -- skills -------------------------------------------------------------

    def execute_skill(self, action: str, args: dict) -> list[FTEvent]:
        """Run one skill for ``PRIMITIVE_SECONDS``; what the controller
        reports back is the force-torque events it sensed."""
        args = dict(args or {})
        handler = {
            "Pick": self._do_pick,
            "Place": self._do_place,
            "Insert": self._do_insert,
            "Move": self._do_move,
            "Rotate": self._do_rotate,
            "OpenGripper": self._do_open,
            "CloseGripper": self._do_close,
        }.get(action)
        if handler is None:
            raise WorkcellError(f"unknown action {action!r}")
        # A movement-phase displacement can also be armed on the action itself.
        inj = self._pending_injection("TargetMoved", action)
        if inj is not None:
            self._apply_target_moved(inj)
        events = handler(args)
        self.sim_time += PRIMITIVE_SECONDS
        self.validate_supports()
        return events

    def _do_pick(self, args: dict) -> list[FTEvent]:
        if self.gripper is not None:
            return []  # the gripper is occupied
        obj = self.objects.get(args["object"])
        if obj is None or float(np.linalg.norm(obj.pose.translation - np.asarray(
                args.get("position", obj.pose.translation), dtype=float))) > GRASP_TOLERANCE:
            # Fingers close on air, where nothing is or off the object:
            # grip force never builds up.
            return [FTEvent(FTSignal.GRIPPER_FORCE, _SLIP_GRIP, "N")]
        self.gripper = obj.object_id
        obj.support = None
        obj.pose = PoseSE3(obj.pose.rotation, self.robot_position.copy())
        return [FTEvent(FTSignal.GRIPPER_FORCE, _NOMINAL_GRIP, "N")]

    def _do_move(self, args: dict) -> list[FTEvent]:
        inj = self._pending_injection("Obstacle", "Move")
        if inj is not None:
            inj.consumed = True  # collision with the injected obstacle
            return [FTEvent(FTSignal.EXTERNAL_FORCE, _COLLISION_FORCE, "N")]
        if self.gripper is not None:
            slip = self._pending_injection("PartSlip", "Move")
            if slip is not None:
                slip.consumed = True
                dropped = self.objects[self.gripper]
                offset = np.asarray(
                    slip.params.get("drop_offset", [0.0, 0.0, 0.0]), dtype=float
                ).reshape(3)
                drop_pos = self.robot_position + offset
                dropped.pose = PoseSE3(
                    dropped.pose.rotation,
                    np.array([drop_pos[0], drop_pos[1],
                              float(dropped.half_extents[2])]),
                )
                dropped.support = None
                dropped.zone = self.robot_zone
                self.gripper = None  # the part slipped during transport
                return [FTEvent(FTSignal.GRIPPER_FORCE, _SLIP_GRIP, "N")]
        if "position" in args:
            self.robot_position = np.asarray(args["position"], dtype=float).reshape(3)
        if "zone" in args:
            if args["zone"] not in self.zones:
                raise WorkcellError(f"unknown zone {args['zone']!r}")
            self.robot_zone = args["zone"]
        if self.gripper is not None:
            held = self.objects[self.gripper]
            held.pose = PoseSE3(held.pose.rotation, self.robot_position.copy())
            held.zone = self.robot_zone
        return []

    def _do_place(self, args: dict) -> list[FTEvent]:
        if self.gripper is None:
            return []  # nothing in the gripper
        obj = self.objects[self.gripper]
        pos = np.asarray(
            args.get("position", self.robot_position), dtype=float
        ).reshape(3)
        dest = args.get("destination")
        support = None
        if dest in self.objects:
            sup = self.objects[dest]
            support = dest
            pos = np.array([pos[0], pos[1], sup.top_z + float(obj.half_extents[2])])
        obj.pose = PoseSE3(obj.pose.rotation, pos)
        obj.support = support
        obj.zone = args.get("zone", self.robot_zone)
        self.gripper = None
        return [FTEvent(FTSignal.VERTICAL_FORCE, _CONTACT_FORCE, "N", _CONTACT_SUSTAIN)]

    def _do_insert(self, args: dict) -> list[FTEvent]:
        receptacle = self.objects.get(args["receptacle"])
        if self.gripper is None or self.gripper != args["part"] or receptacle is None:
            return []  # the part is not in the gripper, or nothing receives it
        part = self.objects[args["part"]]
        mating = args.get("mating_offset", [0.0, 0.0, 0.0])
        part.pose = PoseSE3(
            receptacle.pose.rotation,
            receptacle.pose.translation + np.asarray(mating, dtype=float),
        )
        part.support = receptacle.object_id
        part.zone = receptacle.zone
        self.gripper = None
        return [FTEvent(FTSignal.EXTERNAL_TORQUE, _NOMINAL_TORQUE, "Nm")]

    def _do_rotate(self, args: dict) -> list[FTEvent]:
        obj = self.objects.get(args["object"])
        if obj is not None:
            rot = np.asarray(args["rotation"], dtype=float).reshape(3, 3)
            obj.pose = PoseSE3(rot, obj.pose.translation)
        return []

    def _do_open(self, _args: dict) -> list[FTEvent]:
        if self.gripper is not None:
            obj = self.objects[self.gripper]
            obj.pose = PoseSE3(
                obj.pose.rotation,
                np.array([self.robot_position[0], self.robot_position[1],
                          float(obj.half_extents[2])]),
            )
            obj.support = None
            self.gripper = None
        return []

    def _do_close(self, _args: dict) -> list[FTEvent]:
        return [FTEvent(FTSignal.GRIPPER_FORCE, _NOMINAL_GRIP, "N")]

    # -- ground truth -------------------------------------------------------

    def on_relations(self) -> set[tuple[str, str, str]]:
        """("On", object, supporter) for each object resting on another."""
        return {("On", obj.object_id, obj.support)
                for obj in self.objects.values() if obj.support is not None}

    def true_positions(self) -> dict[str, np.ndarray]:
        return {oid: o.pose.translation.copy() for oid, o in self.objects.items()}


# -- rendering ---------------------------------------------------------------

# Camera-frame depth band around the image plane. A box wholly behind the
# band is skipped; a box with a corner inside or behind it is tested against
# every pixel, since its corners do not project to a usable rectangle.
_NEAR_PLANE = 1e-6


def _ray_box_depth(
    d_local: np.ndarray, o_local: np.ndarray, half_extents: np.ndarray
) -> np.ndarray:
    """Slab-test depth (distance along each unit-z camera ray) of a box.

    Row i tests ray direction d_local[i] against the box whose frame it is
    given in, from the camera origin o_local[i] in that frame, with
    half-extents half_extents[i]. Directions are scaled so the camera-frame
    z component is 1; rays with no hit come back as +inf.
    """
    t_near = np.full(len(d_local), -np.inf)
    t_far = np.full(len(d_local), np.inf)
    hit = np.ones(len(d_local), dtype=bool)
    for axis in range(3):
        d = d_local[:, axis]
        o = o_local[:, axis]
        h = half_extents[:, axis]
        parallel = np.abs(d) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-h - o) / d
            t2 = (h - o) / d
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        t_near = np.where(parallel, t_near, np.maximum(t_near, lo))
        t_far = np.where(parallel, t_far, np.minimum(t_far, hi))
        hit &= ~(parallel & (np.abs(o) > h))
    hit &= (t_far >= t_near) & (t_far > 0)
    t_enter = np.where(t_near > 0, t_near, t_far)
    return np.where(hit, t_enter, np.inf)


def _screen_windows(camera: SimCamera, objects: list[SimObject]) -> list:
    """Per box, the pixel rows and columns it can cover, or None.

    The rectangle holds the pixel centres inside the bounding box of the
    projected corners, widened by one pixel so that rounding cannot put a
    ray the slab test hits outside it, and clipped to the image. A box
    reaching the near-plane band gets the whole image.
    """
    rotations = np.array([o.pose.rotation for o in objects]).reshape(-1, 3, 3)
    extents = np.array([o.half_extents for o in objects]).reshape(-1, 3)
    centres = np.array([o.pose.translation for o in objects]).reshape(-1, 3)
    corners = (centres[:, None]
               + (CORNER_SIGNS * extents[:, None]) @ rotations.transpose(0, 2, 1))
    cam = (corners - camera.pose.translation) @ camera.pose.rotation
    z = cam[..., 2]
    k = camera.intrinsics
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = k.fx * cam[..., 0] / z + k.cx  # used only where every z is in front
        v = k.fy * cam[..., 1] / z + k.cy
        u0 = np.maximum(np.ceil(u.min(axis=1)) - 1, 0)
        u1 = np.minimum(np.floor(u.max(axis=1)) + 1, camera.width - 1)
        v0 = np.maximum(np.ceil(v.min(axis=1)) - 1, 0)
        v1 = np.minimum(np.floor(v.max(axis=1)) + 1, camera.height - 1)
    near = (z <= _NEAR_PLANE).any(axis=1)
    skip = (z < -_NEAR_PLANE).all(axis=1) | (~near & ((u0 > u1) | (v0 > v1)))
    windows = []
    for skip_i, near_i, (r0, r1, c0, c1) in zip(
            skip.tolist(), near.tolist(), np.stack([v0, v1, u0, u1], axis=1).tolist()):
        if skip_i:
            windows.append(None)
        elif near_i:
            windows.append((slice(None), slice(None)))
        else:
            windows.append((slice(int(r0), int(r1) + 1), slice(int(c0), int(c1) + 1)))
    return windows


def render_frame(world: SimWorld, camera: SimCamera) -> Frame:
    """Depth + exact instance mask from oriented-box proxies.

    The rays of every box's window, each in its box's frame, go through one
    slab test; the rays are turned into each distinct box rotation once.
    Each pixel then keeps its nearest hit, a depth tie going to the earlier
    id: the frame that drawing the boxes in id order, with a pixel changing
    owner only on a strictly nearer hit, would leave.
    """
    h, w = camera.height, camera.width
    ids = sorted(world.objects)
    objects = [world.objects[oid] for oid in ids]
    drawn = [(world.instance_ids[oid], obj, window) for oid, obj, window
             in zip(ids, objects, _screen_windows(camera, objects)) if window is not None]

    depth = np.zeros(h * w)
    mask = np.full(h * w, -1, dtype=np.int32)
    if drawn:
        pixel_index = np.arange(h * w).reshape(h, w)
        local_rays: dict[bytes, np.ndarray] = {}
        d_local, o_local, extents, pixels, owners = [], [], [], [], []
        for instance, obj, window in drawn:
            rotation = obj.pose.rotation
            key = rotation.tobytes()
            if key not in local_rays:
                # Row-wise R^T @ d over every ray: the floats a full-frame
                # slab test would use.
                local_rays[key] = (camera.rays @ rotation).reshape(h, w, 3)
            rays = local_rays[key]
            d_local.append(rays[window].reshape(-1, 3))
            pixels.append(pixel_index[window].ravel())
            o_local.append(rotation.T @ (camera.pose.translation - obj.pose.translation))
            extents.append(obj.half_extents)
            owners.append(instance)
        sizes = [len(p) for p in pixels]
        t = _ray_box_depth(np.concatenate(d_local), np.repeat(o_local, sizes, axis=0),
                           np.repeat(extents, sizes, axis=0))
        pixel = np.concatenate(pixels)
        owner = np.repeat(np.array(owners, dtype=np.int32), sizes)
        hit = np.isfinite(t)
        t, pixel, owner = t[hit], pixel[hit], owner[hit]
        order = np.lexsort((owner, t, pixel))
        pixel, t, owner = pixel[order], t[order], owner[order]
        first = np.ones(len(pixel), dtype=bool)
        first[1:] = pixel[1:] != pixel[:-1]
        depth[pixel[first]] = t[first]
        mask[pixel[first]] = owner[first]

    in_view = np.bincount(mask + 1, minlength=len(ids) + 1).tolist()
    labels = {
        world.instance_ids[oid]: world.objects[oid].label
        for oid in ids
        if in_view[world.instance_ids[oid] + 1]
    }
    return Frame(
        depth=depth.reshape(h, w).astype(np.float32),
        mask=mask.reshape(h, w),
        labels=labels,
        camera_pose=camera.pose,
    )


def visible_pixel_counts(world: SimWorld, frame: Frame) -> dict[str, int]:
    """Pixel count per object id in a frame rendered from ``world``; zero
    means out of view."""
    tallies = np.bincount(frame.mask.ravel() + 1,
                          minlength=len(world.instance_ids) + 1).tolist()
    return {oid: tallies[world.instance_ids[oid] + 1] for oid in world.objects}
