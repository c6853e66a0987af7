"""Deterministic multi-zone workcell simulator.

Ground-truth object states live here, never in the engine's store: the
poses, the zones and what the gripper holds. What rests on what is not
kept but read from the poses (``SimWorld.on_relations``). Skills execute
abstractly (no dynamics), one a step, and report back only the
force-torque events a controller senses, so whether a skill worked is for
the engine to find out; frames render from oriented-box proxies with
perfect masks. A failure injection fires at the first skill that matches
each trigger it sets, its action and its step, and synthesizes exactly
the force-torque signature the transaction layer watches for. Nothing
draws random numbers.

Rendering ray-casts each object's box against the camera's pixel rays, which
the frozen ``SimCamera`` computes on first use and turns into each box
rotation once. Each box is tested only against the pixels its projected
corners can cover; the frame is the same, bit for bit, as a full-frame test
of every box would give. The simulator keeps no frame:
tests move ``SimObject`` poses directly, so a caller that reuses a frame
keys it on what ``render_frame`` reads (``harness.TrialRuntime.frame``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ScenarioError, WorkcellError
from .geometry import CORNER_SIGNS, PoseSE3, read_only_view
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

    def __post_init__(self):
        self.half_extents = np.asarray(self.half_extents, dtype=float).reshape(3)
        if not np.all(self.half_extents > 0):
            raise ScenarioError(f"{self.object_id}: half extents must be positive")

    @property
    def top_z(self) -> float:
        return float(self.pose.translation[2] + self.half_extents[2])


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
    row-major, scaled so its camera-frame z component is 1. What the camera
    derives is computed on first use and kept, read-only: the camera is
    frozen, so none of it can go stale."""

    intrinsics: CameraIntrinsics
    pose: PoseSE3  # camera-to-base
    width: int = 64
    height: int = 48

    @cached_property
    def rays(self) -> np.ndarray:
        k, w, h = self.intrinsics, self.width, self.height
        uu, vv = np.meshgrid(np.arange(w), np.arange(h))
        rays_c = np.stack(
            [(uu.ravel() - k.cx) / k.fx, (vv.ravel() - k.cy) / k.fy,
             np.ones(w * h)], axis=1,
        )
        return read_only_view(rays_c @ self.pose.rotation.T)

    @cached_property
    def pixel_index(self) -> np.ndarray:
        """Each pixel's row-major index, as an (height, width) grid."""
        return read_only_view(np.arange(self.height * self.width).reshape(self.height, self.width))

    @cached_property
    def _turned(self) -> dict[bytes, np.ndarray]:
        """``turned_rays`` by the bytes of each rotation asked for."""
        return {}

    def turned_rays(self, rotation: np.ndarray) -> np.ndarray:
        """``(rays @ rotation).T``: column i is ray i in the frame of a box
        with that rotation, ``R^T @ d``. Computed once per rotation."""
        key = rotation.tobytes()
        turned = self._turned.get(key)
        if turned is None:
            turned = self._turned[key] = read_only_view((self.rays @ rotation).T.copy())
        return turned


class SimWorld:
    def __init__(
        self,
        zones: list[str],
        objects: list[SimObject],
        robot_zone: str,
        robot_position: np.ndarray,
        injections: list[FailureInjection] | None = None,
    ):
        self.zones = set(zones)
        self.objects = {o.object_id: o for o in objects}
        self.robot_zone = robot_zone
        self.robot_position = np.asarray(robot_position, dtype=float).reshape(3)
        self.gripper: str | None = None
        self.injections = list(injections or [])
        self.step_count = 0
        self.sim_time = 0.0
        # Stable instance ids for rendering, fixed at construction.
        self.instance_ids = {oid: i for i, oid in enumerate(sorted(self.objects))}

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

    def _apply_target_moved(self, inj: FailureInjection):
        target = inj.params["target"]
        delta = np.asarray(inj.params["move_delta"], dtype=float).reshape(3)
        obj = self.objects[target]
        obj.pose = PoseSE3(obj.pose.rotation, obj.pose.translation + delta)
        inj.consumed = True

    # -- skills -------------------------------------------------------------

    def execute_skill(self, action: str, args: dict) -> list[FTEvent]:
        """Run one skill, the next step, for ``PRIMITIVE_SECONDS``; what
        the controller reports back is the force-torque events it sensed.
        Every displacement armed on this step or action lands first."""
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
        self.step_count += 1
        while (inj := self._pending_injection("TargetMoved", action)) is not None:
            self._apply_target_moved(inj)
        events = handler(args)
        self.sim_time += PRIMITIVE_SECONDS
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
        dest = self.objects.get(args.get("destination"))
        if dest is not None:
            pos = np.array([pos[0], pos[1], dest.top_z + float(obj.half_extents[2])])
        obj.pose = PoseSE3(obj.pose.rotation, pos)
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
            self.gripper = None
        return []

    def _do_close(self, _args: dict) -> list[FTEvent]:
        return [FTEvent(FTSignal.GRIPPER_FORCE, _NOMINAL_GRIP, "N")]

    # -- ground truth -------------------------------------------------------

    def on_relations(self) -> set[tuple[str, str, str]]:
        """("On", a, b) for each box a resting on a box b, read from the
        poses: neither is in the gripper, a's bottom face lies within
        ``2 * EPS_CONTACT`` of b's top face, and a's centre lies within b's
        half-extents in x and y."""
        boxes = [(oid, o.pose.translation, o.half_extents)
                 for oid, o in self.objects.items() if oid != self.gripper]
        if not boxes:
            return set()
        ids, centres, halves = zip(*boxes)
        centre, half = np.array(centres), np.array(halves)
        bottom, top = centre[:, 2] - half[:, 2], centre[:, 2] + half[:, 2]
        a, b = np.nonzero(np.abs(bottom[:, None] - top[None, :]) <= 2 * EPS_CONTACT)
        if len(a) == 0:
            return set()
        over = (np.abs(centre[a, :2] - centre[b, :2]) <= half[b, :2]).all(axis=1)
        return {("On", ids[i], ids[j]) for i, j in zip(a[over].tolist(), b[over].tolist())
                if i != j}

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

    Column i tests ray direction d_local[:, i] against the box whose frame
    it is given in, from the camera origin o_local[:, i] in that frame, with
    half-extents half_extents[:, i]. Directions are scaled so the
    camera-frame z component is 1; rays with no hit come back as +inf. A ray
    parallel to an axis's slabs enters at -inf and leaves at +inf on that
    axis, and misses if its origin lies outside them. The three axes are the
    rows of one pass: numpy reduces a (3, n) array over its first axis with
    n-long inner loops, where it would reduce an (n, 3) one row by row.
    """
    parallel = np.abs(d_local) < 1e-12
    d = np.where(parallel, 1.0, d_local)  # a parallel axis's quotients are unused
    t1 = (-half_extents - o_local) / d
    t2 = (half_extents - o_local) / d
    t_near = np.where(parallel, -np.inf, np.minimum(t1, t2)).max(axis=0)
    t_far = np.where(parallel, np.inf, np.maximum(t1, t2)).min(axis=0)
    hit = (t_far >= t_near) & (t_far > 0)
    hit &= ~(parallel & (np.abs(o_local) > half_extents)).any(axis=0)
    return np.where(hit, np.where(t_near > 0, t_near, t_far), np.inf)


def _screen_windows(camera: SimCamera, objects: list[SimObject]) -> list:
    """Per box, the pixel columns c0..c1 and rows r0..r1 it can cover, as
    ``(c0, r0, c1, r1)``, or None.

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
    # Corner-major, (8, boxes, 3): each reduction over the corners then runs
    # over whole rows of boxes.
    cam = ((corners - camera.pose.translation) @ camera.pose.rotation).transpose(1, 0, 2).copy()
    z = cam[..., 2]
    near = (z <= _NEAR_PLANE).any(axis=0)
    k = camera.intrinsics
    last = [camera.width - 1, camera.height - 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (u, v) = (fx * x / z + cx, fy * y / z + cy), used only where every
        # z is in front; a skipped box's window may not be finite.
        uv = np.array([k.fx, k.fy]) * cam[..., :2] / z[..., None] + np.array([k.cx, k.cy])
        lo = np.maximum(np.ceil(uv.min(axis=0)) - 1, 0)
        hi = np.minimum(np.floor(uv.max(axis=0)) + 1, last)
        windows = np.where(near[:, None], [0, 0, *last],
                           np.concatenate([lo, hi], axis=1)).astype(np.intp)
    skip = (z < -_NEAR_PLANE).all(axis=0) | (~near & (lo > hi).any(axis=1))
    return [None if skip_i else window
            for skip_i, window in zip(skip.tolist(), windows.tolist())]


def render_frame(world: SimWorld, camera: SimCamera) -> Frame:
    """Depth + exact instance mask from oriented-box proxies.

    The rays of every box's window, each in its box's frame, go through one
    slab test. The floats are those a full-frame test of each box would
    use: a ray in the frame of a box of rotation R is its column of
    ``camera.turned_rays(R)``, computed over every ray as ``(rays @ R).T``,
    and the camera origin is ``R.T @ (camera translation - box
    translation)``, one box at a time. Each pixel then keeps its nearest
    hit, a depth tie going to the earlier id: the frame that drawing the
    boxes in id order, with a pixel changing owner only on a strictly
    nearer hit, would leave. That sort decides every pixel, so the order
    the rays are tested in does not matter.
    """
    h, w = camera.height, camera.width
    ids = sorted(world.objects)
    objects = [world.objects[oid] for oid in ids]
    depth = np.zeros(h * w)
    mask = np.full(h * w, -1, dtype=np.int32)
    labels = {}
    o_local, extents, pixels, owners = [], [], [], []
    runs = []  # (turned rays, pixels) for each run of boxes of one rotation
    origin = camera.pose.translation
    for oid, obj, window in zip(ids, objects, _screen_windows(camera, objects)):
        if window is None:
            continue
        c0, r0, c1, r1 = window
        rotation = obj.pose.rotation
        pixels.append(camera.pixel_index[r0:r1 + 1, c0:c1 + 1].ravel())
        turned = camera.turned_rays(rotation)
        if not runs or runs[-1][0] is not turned:
            runs.append((turned, []))
        runs[-1][1].append(pixels[-1])
        o_local.append(rotation.T @ (origin - obj.pose.translation))
        extents.append(obj.half_extents)
        owners.append(world.instance_ids[oid])
    if owners:
        sizes = [len(p) for p in pixels]
        d_local = [turned[:, np.concatenate(run)] for turned, run in runs]
        t = _ray_box_depth(np.concatenate(d_local, axis=1),
                           np.repeat(np.transpose(o_local), sizes, axis=1),
                           np.repeat(np.transpose(extents), sizes, axis=1))
        pixel = np.concatenate(pixels)
        owner = np.repeat(np.array(owners, dtype=np.int32), sizes)
        hit = np.isfinite(t)
        t, pixel, owner = t[hit], pixel[hit], owner[hit]
        order = np.lexsort((owner, t, pixel))
        pixel, t, owner = pixel[order], t[order], owner[order]
        first = np.ones(len(pixel), dtype=bool)
        first[1:] = pixel[1:] != pixel[:-1]
        owner = owner[first]
        depth[pixel[first]] = t[first]
        mask[pixel[first]] = owner
        in_view = set(owner.tolist())
        labels = {world.instance_ids[oid]: world.objects[oid].label
                  for oid in ids if world.instance_ids[oid] in in_view}
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
