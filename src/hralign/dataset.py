"""Procedurally generated paired human/robot demonstration clips.

Each pair shares one latent effector trajectory, rendered twice: a "human"
render (round effector, warm palette, textured background) and a "robot"
render (angular effector, cool palette, grid background). The ``gap`` knob
scales how far each render diverges from a common neutral appearance, so
gap=0 makes the two clips of a pair identical elementwise and larger gaps
grow the pixel difference monotonically.

On disk, a dataset is a JSON manifest plus one serialized frame tensor per
clip, so externally produced paired videos can replace the generator by
writing the same layout.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TypeVar

import numpy as np

from .rng import RngState
from .task_query import TaskDescription
from .tensor import from_bytes, to_bytes

FRAME_H = 16
FRAME_W = 16
FRAME_C = 3
CLIP_LEN_MIN = 8
CLIP_LEN_MAX = 24
# Frames sampled from a clip to encode it in training, in the classification
# head and in the retrieval embeddings.
FRAMES_PER_CLIP = 5
# The held-out share of each task's pairs: every command and script splits
# a manifest by this one fraction, so adaptation never sees a scored pair.
HELDOUT_FRAC = 0.25
MANIFEST_VERSION = 1
# The manifest, in the spec language of ``_check_json``. An entry's optional
# ``latent`` is absent, null or an object matching ``LATENT_SPEC``.
MANIFEST_SPEC = {
    "version": int,
    "frame_shape": [int],
    "pairs": [{
        "pair_id": int, "task_id": int, "description": str, "human_file": str, "robot_file": str,
        "human_len": int, "robot_len": int, "human_sha256": str, "robot_sha256": str,
    }],
}
LATENT_SPEC = ({"positions": [[float]], "gripper": [int]}, None)

_MARGIN = 0.15
_GOLDEN_ANGLE = 2.399963229728653

_VERBS = ("push", "lift", "slide", "stack", "open", "close",
          "pick", "place", "turn", "drop", "sweep", "pull")
_NOUNS = ("block", "cup", "drawer", "ball", "lever", "ring",
          "box", "peg", "plate", "knob", "switch", "tray")
_TEMPLATES = (
    "{verb} the {noun}",
    "{verb} {noun}",
    "slowly {verb} the {noun}",
    "{verb} the small {noun}",
)


class ManifestError(RuntimeError):
    """A dataset manifest or one of its referenced files is unusable."""


def _in_unit_range(values: np.ndarray) -> bool:
    """Every value in [0, 1]; written so that NaN fails too."""
    return bool(((values >= 0.0) & (values <= 1.0)).all())


@dataclass
class LatentTrajectory:
    """The shared semantics both renders depict: effector path + gripper."""

    positions: np.ndarray  # (T, 2) in the unit square
    gripper: np.ndarray  # (T,) uint8, 1 = closed
    task_id: int

    def __post_init__(self):
        if len(self.positions) < 2:
            raise ValueError("trajectory needs at least two steps")
        if not _in_unit_range(self.positions):
            raise ValueError("trajectory positions must lie inside the unit square")


@dataclass
class SceneProps:
    """Static per-pair scene objects, shared by both renders of a pair.

    Real paired demonstrations show one workspace from two embodiments, so
    scene identity is a pair-level invariant; these stand in for it.
    """

    centers: np.ndarray  # (K, 2) in the unit square
    radii: np.ndarray  # (K,) in pixels
    colors: np.ndarray  # (K, 3) base colors before domain palette


@dataclass
class VideoClip:
    frames: np.ndarray  # (T, H, W, C) float64 in [0, 1]
    domain: str  # "human" | "robot"
    task_id: int
    pair_id: int
    positions: np.ndarray | None = field(default=None, repr=False)
    gripper: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.domain not in ("human", "robot"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.frames.ndim != 4 or self.frames.shape[0] < 1:
            raise ValueError(f"clip frames must be (T, H, W, C), got {self.frames.shape}")
        if not _in_unit_range(self.frames):
            raise ValueError("clip frame values must lie in [0, 1]")
        if self.positions is not None and self.positions.shape != (self.length, 2):
            raise ValueError(
                f"latent positions have shape {self.positions.shape}, "
                f"not one [x, y] row per frame {(self.length, 2)}"
            )
        if self.positions is not None and not _in_unit_range(self.positions):
            raise ValueError("latent positions must lie inside the unit square")
        if self.gripper is not None and not (
            self.gripper.shape == (self.length,) and ((self.gripper == 0) | (self.gripper == 1)).all()
        ):
            raise ValueError(f"latent gripper must hold one value in {{0, 1}} per frame ({self.length})")

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass
class PairedDemo:
    human: VideoClip
    robot: VideoClip
    description: TaskDescription

    def __post_init__(self):
        if self.human.pair_id != self.robot.pair_id:
            raise ValueError("pair ids disagree between the two clips")
        if len({self.human.task_id, self.robot.task_id, self.description.task_id}) != 1:
            raise ValueError("task ids disagree within the pair")
        if self.human.domain != "human" or self.robot.domain != "robot":
            raise ValueError("pair must hold one human and one robot clip")

    @property
    def pair_id(self) -> int:
        return self.human.pair_id

    @property
    def task_id(self) -> int:
        return self.human.task_id


# ---------------------------------------------------------------------------
# task archetypes and trajectories


def task_phrase(task_id: int) -> tuple[str, str]:
    verb = _VERBS[task_id % len(_VERBS)]
    noun = _NOUNS[(task_id + task_id // len(_VERBS)) % len(_NOUNS)]
    return verb, noun


def _task_endpoints(task_id: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Fixed start, goal and path bend per task."""
    angle = (task_id * _GOLDEN_ANGLE) % (2.0 * np.pi)
    radius = 0.30
    center = np.array([0.5, 0.5])
    start = center + radius * np.array([np.cos(angle), np.sin(angle)])
    goal = center - radius * np.array([np.cos(angle + 0.5), np.sin(angle + 0.5)])
    style = task_id % 4  # 0 line, 1 arc one way, 2 arc other way, 3 zigzag
    bend = {0: 0.0, 1: 0.25, 2: -0.25, 3: 0.0}[style]
    return start, goal, bend


def sample_trajectory(task_id: int, rng: RngState) -> LatentTrajectory:
    """One instance of a task: jittered endpoints, bend, pace and grasp
    window make same-task instances clearly distinguishable on a 16x16
    canvas while keeping the task archetype recognizable."""
    start, goal, bend = _task_endpoints(task_id)
    t_len = CLIP_LEN_MIN + rng.randint(CLIP_LEN_MAX - CLIP_LEN_MIN + 1)
    # start and goal jitter, bend, pace and grasp window, in one call
    lo = np.array([-0.10, -0.10, -0.10, -0.10, -0.30, 0.55, 0.20, 0.55])
    hi = np.array([0.10, 0.10, 0.10, 0.10, 0.30, 1.80, 0.45, 0.80])
    draws = lo + (hi - lo) * rng.uniform(8)
    start = start + draws[0:2]
    goal = goal + draws[2:4]
    bend = bend + draws[4]
    pace = draws[5]  # progress exponent along the path
    zigzag = 0.12 if task_id % 4 == 3 else 0.0
    direction = goal - start
    perp = np.array([-direction[1], direction[0]])
    norm = np.linalg.norm(perp)
    perp = perp / norm if norm > 1e-9 else np.array([0.0, 1.0])
    ts = np.linspace(0.0, 1.0, t_len)[:, None] ** pace
    control = (start + goal) / 2.0 + bend * perp
    pos = (1 - ts) ** 2 * start + 2 * ts * (1 - ts) * control + ts**2 * goal
    if zigzag:
        pos = pos + zigzag * np.sin(3.0 * np.pi * ts) * perp
    pos = np.clip(pos, _MARGIN, 1.0 - _MARGIN)
    frac = np.linspace(0.0, 1.0, t_len)
    gripper = ((frac >= draws[6]) & (frac < draws[7])).astype(np.uint8)
    return LatentTrajectory(pos, gripper, task_id)


# ---------------------------------------------------------------------------
# rendering


@lru_cache(maxsize=1)
def _grids() -> tuple[np.ndarray, np.ndarray]:
    ys, xs = np.mgrid[0:FRAME_H, 0:FRAME_W].astype(np.float64)
    return xs, ys


@lru_cache(maxsize=1)
def _warm_background() -> np.ndarray:
    """Soft blotchy texture, red-heavy; the human-domain look at gap=1.

    Kept low-contrast so the moving effector, not the static backdrop,
    dominates pooled features.
    """
    xs, ys = _grids()
    wave = 0.5 + 0.5 * np.sin(xs * 0.8 + 1.3) * np.cos(ys * 0.6 + 0.4)
    bg = np.empty((FRAME_H, FRAME_W, 3))
    bg[..., 0] = 0.50 + 0.14 * wave
    bg[..., 1] = 0.40 + 0.10 * wave
    bg[..., 2] = 0.30 + 0.05 * wave
    return bg


@lru_cache(maxsize=1)
def _cool_background() -> np.ndarray:
    """Dim grid pattern, blue-heavy; the robot-domain look at gap=1."""
    xs, ys = _grids()
    line = ((xs % 4 == 0) | (ys % 4 == 0)).astype(np.float64)
    bg = np.empty((FRAME_H, FRAME_W, 3))
    bg[..., 0] = 0.28 + 0.04 * line
    bg[..., 1] = 0.35 + 0.12 * line
    bg[..., 2] = 0.48 + 0.17 * line
    return bg


_BASE_BG = 0.45
_BASE_COLOR = np.array([0.85, 0.85, 0.85])
_WARM_COLOR = np.array([0.95, 0.55, 0.20])
_COOL_COLOR = np.array([0.20, 0.55, 0.95])
_WARM_TINT = np.array([1.00, 0.75, 0.45])
_COOL_TINT = np.array([0.45, 0.75, 1.00])
_EFFECTOR_RADIUS = 2.1


def _shape_mask(center: np.ndarray, radius: float, domain: str, gap: float) -> np.ndarray:
    """Soft footprint: round in the human render, morphing to square in
    the robot render as the gap grows."""
    xs, ys = _grids()
    px = center[0] * (FRAME_W - 1)
    py = center[1] * (FRAME_H - 1)
    mask_round = np.clip(radius - np.hypot(xs - px, ys - py), 0.0, 1.0)
    if domain == "human":
        return mask_round
    d_square = np.maximum(np.abs(xs - px), np.abs(ys - py))
    mask_square = np.clip(radius - d_square, 0.0, 1.0)
    return (1.0 - gap) * mask_round + gap * mask_square


def _domain_color(base: np.ndarray, domain: str, gap: float) -> np.ndarray:
    tint = _WARM_TINT if domain == "human" else _COOL_TINT
    return (1.0 - gap) * base + gap * (base * tint)


def _paint(frame: np.ndarray, mask: np.ndarray, color: np.ndarray) -> np.ndarray:
    return frame * (1.0 - mask[..., None]) + color * mask[..., None]


def sample_props(rng: RngState) -> SceneProps:
    # kept smaller and dimmer than the effector so scene identity aids
    # pair matching without drowning the motion signal
    n = 2 + rng.randint(2)
    centers = rng.uniform((n, 2), 0.12, 0.88)
    radii = rng.uniform((n,), 0.9, 1.7)
    colors = rng.uniform((n, 3), 0.30, 0.70)
    return SceneProps(centers, radii, colors)


def render_clip(
    traj: LatentTrajectory, props: SceneProps, domain: str, gap: float, pair_id: int
) -> VideoClip:
    """Compose the static scene (background, then props) once, then paint
    the effector on all T frames in one broadcast."""
    if domain == "human":
        scene = (1.0 - gap) * _BASE_BG + gap * _warm_background()
        effector_color = (1.0 - gap) * _BASE_COLOR + gap * _WARM_COLOR
    else:
        scene = (1.0 - gap) * _BASE_BG + gap * _cool_background()
        effector_color = (1.0 - gap) * _BASE_COLOR + gap * _COOL_COLOR
    for k in range(len(props.centers)):
        mask = _shape_mask(props.centers[k], float(props.radii[k]), domain, gap)
        scene = _paint(scene, mask, _domain_color(props.colors[k], domain, gap))
    centers = traj.positions.T[:, :, None, None]  # x and y each (T, 1, 1)
    brightness = np.where(traj.gripper[:, None] != 0, 0.72, 1.0)  # (T, 1), dimmer if closed
    # allocated before the mask temporaries, so freeing those leaves no heap
    # holes between the clips a dataset keeps
    frames = np.empty((len(traj.positions), FRAME_H, FRAME_W, FRAME_C))
    mask = _shape_mask(centers, _EFFECTOR_RADIUS, domain, gap)[..., None]  # (T, H, W, 1)
    np.multiply(scene, 1.0 - mask, out=frames)  # _paint, written into the kept array
    frames += (effector_color * brightness)[:, None, None, :] * mask
    return VideoClip(
        frames=frames,
        domain=domain,
        task_id=traj.task_id,
        pair_id=pair_id,
        positions=traj.positions.copy(),
        gripper=traj.gripper.copy(),
    )


def generate_paired_set(
    rng: RngState, n_tasks: int, pairs_per_task: int, gap: float
) -> list[PairedDemo]:
    """Deterministic paired dataset: same rng state, same bytes out."""
    if n_tasks < 2:
        raise ValueError(f"need at least 2 tasks, got {n_tasks}")
    if pairs_per_task < 1:
        raise ValueError(f"need at least 1 pair per task, got {pairs_per_task}")
    if not 0.0 <= gap <= 1.0:
        raise ValueError(f"gap must lie in [0, 1], got {gap}")
    pairs: list[PairedDemo] = []
    pair_id = 0
    for task_id in range(n_tasks):
        verb, noun = task_phrase(task_id)
        for _ in range(pairs_per_task):
            traj = sample_trajectory(task_id, rng)
            props = sample_props(rng)
            template = _TEMPLATES[rng.randint(len(_TEMPLATES))]
            text = template.format(verb=verb, noun=noun)
            human = render_clip(traj, props, "human", gap, pair_id)
            robot = render_clip(traj, props, "robot", gap, pair_id)
            pairs.append(PairedDemo(human, robot, TaskDescription(text, task_id)))
            pair_id += 1
    return pairs


# ---------------------------------------------------------------------------
# frame sampling


def sample_frame_indices(t_len: int, t: int, rng: RngState) -> list[int]:
    """T ascending indices: without replacement when the clip is long
    enough, with replacement otherwise."""
    if t < 1:
        raise ValueError(f"frame count must be >= 1, got {t}")
    if t_len >= t:
        idx = sorted(int(i) for i in rng.permutation(t_len)[:t])
    else:
        idx = sorted(rng.randint(t_len) for _ in range(t))
    return idx


def sample_frames(clip: VideoClip, t: int, rng: RngState) -> np.ndarray:
    """Randomly sampled frames in temporal order, shape (t, H, W, C)."""
    idx = sample_frame_indices(clip.length, t, rng)
    return clip.frames[idx]  # fancy indexing copies


# ---------------------------------------------------------------------------
# splits


_Item = TypeVar("_Item", PairedDemo, VideoClip)


def split_pairs(
    pairs: list[_Item], heldout_frac: float = HELDOUT_FRAC
) -> tuple[list[_Item], list[_Item]]:
    """Per-task split of pairs, or of clips: the trailing ``heldout_frac``
    of each task's items by pair id is held out; every task keeps at least
    one training item. Every command, the reference script and
    ``eval_downstream`` split at the default, ``HELDOUT_FRAC``."""
    if not (math.isfinite(heldout_frac) and 0.0 <= heldout_frac < 1.0):
        raise ValueError(f"heldout_frac must be finite and in [0, 1), got {heldout_frac}")
    by_task: dict[int, list[_Item]] = {}
    for pair in pairs:
        by_task.setdefault(pair.task_id, []).append(pair)
    train, heldout = [], []
    for task_id in sorted(by_task):
        group = sorted(by_task[task_id], key=lambda p: p.pair_id)
        n_held = min(int(round(heldout_frac * len(group))), len(group) - 1)
        cut = len(group) - n_held
        train.extend(group[:cut])
        heldout.extend(group[cut:])
    return train, heldout


# ---------------------------------------------------------------------------
# manifest I/O


def _atomic_write(path: str, data: bytes) -> None:
    """Write a temp file, then rename it over ``path``: a failed write
    leaves the previous file whole and no temp file behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _check_json(prefix: str, error: type[Exception], node, spec, key: str = "") -> None:
    """Raise ``error`` naming the first key of the JSON value ``node`` that
    ``spec`` rejects; messages start with ``prefix``.

    A leaf spec is a JSON type (``float`` takes ints too; a bool is never an
    int or a float); ``[t]`` is a list of t, a dict an object with at least
    these keys, and ``(spec, None)`` either spec or null.
    """
    if isinstance(spec, tuple):
        if node is None:
            return
        spec = spec[0]
    kind = {float: (int, float)}.get(spec, spec) if isinstance(spec, type) else type(spec)
    if not isinstance(node, kind) or (isinstance(node, bool) and spec is not bool):
        raise error(f"{prefix} key {key!r} has the wrong type {type(node).__name__}")
    if isinstance(spec, list):
        for i, item in enumerate(node):
            _check_json(prefix, error, item, spec[0], f"{key}[{i}]")
    elif isinstance(spec, dict):
        for name, sub in spec.items():
            where = f"{key}.{name}" if key else name
            if name not in node:
                raise error(f"{prefix} lacks key {where!r}")
            _check_json(prefix, error, node[name], sub, where)


def _atomic_write_csv(path: str, header: list, rows) -> None:
    """``csv.writer`` text of ``header`` then ``rows``, written atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _atomic_write_json(path: str, value) -> None:
    """Indented JSON of ``value``, written atomically; a NaN or infinite
    number raises ValueError, since strict JSON readers refuse it."""
    _atomic_write(path, json.dumps(value, indent=2, allow_nan=False).encode("utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_manifest(pairs: list[PairedDemo], path: str) -> None:
    """Write manifest JSON plus one serialized clip file per video.

    Clip files live under ``clips/`` next to the manifest; all paths in the
    manifest are relative to it. Writes are atomic (temp file + rename).
    """
    root = os.path.dirname(os.path.abspath(path))
    clips_dir = os.path.join(root, "clips")
    os.makedirs(clips_dir, exist_ok=True)
    entries = []
    for pair in pairs:
        human_rel = f"clips/p{pair.pair_id:04d}_h.bin"
        robot_rel = f"clips/p{pair.pair_id:04d}_r.bin"
        human_bytes = to_bytes(pair.human.frames)
        robot_bytes = to_bytes(pair.robot.frames)
        _atomic_write(os.path.join(root, human_rel), human_bytes)
        _atomic_write(os.path.join(root, robot_rel), robot_bytes)
        entry = {
            "pair_id": pair.pair_id,
            "task_id": pair.task_id,
            "description": pair.description.text,
            "human_file": human_rel,
            "robot_file": robot_rel,
            "human_len": pair.human.length,
            "robot_len": pair.robot.length,
            "human_sha256": _sha256(human_bytes),
            "robot_sha256": _sha256(robot_bytes),
        }
        if pair.human.positions is not None:
            entry["latent"] = {
                "positions": [[float(x), float(y)] for x, y in pair.human.positions],
                "gripper": [int(g) for g in pair.human.gripper],
            }
        entries.append(entry)
    doc = {
        "version": MANIFEST_VERSION,
        "frame_shape": [FRAME_H, FRAME_W, FRAME_C],
        "pairs": entries,
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))


def load_manifest(path: str) -> list[PairedDemo]:
    """Load a manifest, checking it against ``MANIFEST_SPEC``; errors name
    the offending key, entry or file."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except FileNotFoundError as e:
        raise ManifestError(f"manifest not found: {path}") from e
    except OSError as e:  # a directory, or no read permission
        raise ManifestError(f"manifest cannot be read: {path}: {e.strerror}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ManifestError(f"manifest is not valid JSON: {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest is not a JSON object: {path}")
    prefix = f"{path}: manifest"
    _check_json(prefix, ManifestError, doc, MANIFEST_SPEC)
    if doc["version"] != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {doc['version']!r} in {path}")
    frame_shape = tuple(doc["frame_shape"])
    if len(frame_shape) != 3:
        raise ManifestError(f"manifest frame_shape malformed in {path}")
    root = os.path.dirname(os.path.abspath(path))
    index_of: dict[int, int] = {}
    pairs: list[PairedDemo] = []
    for i, entry in enumerate(doc["pairs"]):
        pid = entry["pair_id"]
        if index_of.setdefault(pid, i) != i:
            raise ManifestError(
                f"{prefix} key 'pairs[{i}].pair_id' repeats {pid}, the pair_id of pairs[{index_of[pid]}]"
            )
        latent = entry.get("latent")
        _check_json(prefix, ManifestError, latent, LATENT_SPEC, f"pairs[{i}].latent")
        try:
            description = TaskDescription(entry["description"], entry["task_id"])
        except ValueError as e:
            raise ManifestError(f"{prefix} key 'pairs[{i}].description': {e}") from e
        clips = {}
        for side in ("human", "robot"):
            rel = entry[f"{side}_file"]
            file_path = os.path.join(root, rel)
            try:
                with open(file_path, "rb") as fh:
                    blob = fh.read()
            except OSError as e:
                raise ManifestError(f"pair {pid}: cannot read clip file {file_path}: {e.strerror}") from e
            digest = _sha256(blob)
            if digest != entry[f"{side}_sha256"]:
                raise ManifestError(
                    f"pair {pid}: checksum mismatch for {rel} "
                    f"(expected {entry[f'{side}_sha256']}, got {digest})"
                )
            try:
                frames, _ = from_bytes(blob)
            except (struct.error, ValueError) as e:
                raise ManifestError(f"pair {pid}: clip {rel} is not a serialized tensor: {e}") from e
            expected = (entry[f"{side}_len"],) + frame_shape
            if frames.shape != expected:
                raise ManifestError(
                    f"pair {pid}: clip {rel} has shape {frames.shape}, manifest says {expected}"
                )
            try:
                if latent is not None:
                    positions = np.array(latent["positions"], dtype=np.float64)
                    gripper = np.array(latent["gripper"])
                else:
                    positions = gripper = None
                clips[side] = VideoClip(frames, side, entry["task_id"], pid, positions, gripper)
            except (ValueError, OverflowError) as e:  # OverflowError: an int too large for a float
                raise ManifestError(f"pair {pid}: clip {rel}: {e}") from e
        pairs.append(PairedDemo(clips["human"], clips["robot"], description))
    return pairs
