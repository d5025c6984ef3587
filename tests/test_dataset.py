import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hralign.dataset import (
    CLIP_LEN_MAX,
    CLIP_LEN_MIN,
    HELDOUT_FRAC,
    LatentTrajectory,
    ManifestError,
    PairedDemo,
    VideoClip,
    generate_paired_set,
    load_manifest,
    sample_frame_indices,
    sample_frames,
    sample_trajectory,
    save_manifest,
    split_pairs,
    task_phrase,
)
from hralign.rng import RngState
from hralign.tensor import from_bytes, to_bytes
from hralign.task_query import TaskDescription


def mean_pair_pixel_diff(pairs):
    return float(
        np.mean([np.abs(p.human.frames - p.robot.frames).mean() for p in pairs])
    )


def test_gap_zero_renders_identical():
    pairs = generate_paired_set(RngState(7), 3, 4, 0.0)
    for p in pairs:
        assert np.array_equal(p.human.frames, p.robot.frames)


def test_same_seed_bitwise_identical():
    a = generate_paired_set(RngState(7), 3, 4, 0.7)
    b = generate_paired_set(RngState(7), 3, 4, 0.7)
    for x, y in zip(a, b):
        assert np.array_equal(x.human.frames, y.human.frames)
        assert np.array_equal(x.robot.frames, y.robot.frames)
        assert x.description.text == y.description.text
        assert np.array_equal(x.human.positions, y.human.positions)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((7, 8, 32, 0.7), "b9b27d877d178714bac962c869f5f5b59914468d4c4b7ff7f5b929752cfa25c0"),
        ((3, 4, 3, 1.0), "cc65091fca49c7d9e1036be2ffba071723ed6bc62bd18e91d9456a5e5bdffae1"),
        ((7, 3, 4, 0.0), "402e19d13ae4f8772d3a980c962ec93116db0a5adb3de000517eb719c3d9a31f"),
    ],
    ids=["reference", "gap_1", "gap_0"],
)
def test_generated_frames_match_pinned_digest(args, digest):
    """The generator's frame bytes are pinned: any change to rendering
    that moves a single bit changes the digest."""
    seed, n_tasks, pairs_per_task, gap = args
    h = hashlib.sha256()
    for p in generate_paired_set(RngState(seed), n_tasks, pairs_per_task, gap):
        for clip in (p.human, p.robot):
            assert clip.frames.dtype == np.float64 and clip.frames.flags.c_contiguous
            h.update(clip.frames.tobytes())
    assert h.hexdigest() == digest


def test_gap_monotone_in_pixel_difference():
    lo = generate_paired_set(RngState(7), 8, 32, 0.2)
    hi = generate_paired_set(RngState(7), 8, 32, 0.7)
    assert mean_pair_pixel_diff(hi) > mean_pair_pixel_diff(lo)


def test_values_in_unit_interval():
    pairs = generate_paired_set(RngState(3), 4, 3, 1.0)
    for p in pairs:
        for clip in (p.human, p.robot):
            assert clip.frames.min() >= 0.0
            assert clip.frames.max() <= 1.0


def test_pair_invariants():
    pairs = generate_paired_set(RngState(5), 3, 5, 0.6)
    for p in pairs:
        assert p.human.pair_id == p.robot.pair_id
        assert p.human.task_id == p.robot.task_id == p.description.task_id
        assert p.human.domain == "human" and p.robot.domain == "robot"
        assert p.human.length == p.robot.length
        assert CLIP_LEN_MIN <= p.human.length <= CLIP_LEN_MAX


@pytest.mark.parametrize("human,robot,text", [(0, 0, 1), (0, 1, 1), (1, 0, 1), (0, 1, 2)])
def test_pair_rejects_any_task_id_disagreement(human, robot, text):
    frames = np.zeros((2, 16, 16, 3))
    with pytest.raises(ValueError, match="task ids"):
        PairedDemo(
            VideoClip(frames, "human", human, 0),
            VideoClip(frames, "robot", robot, 0),
            TaskDescription("push the block", text),
        )


def test_clip_lengths_vary():
    pairs = generate_paired_set(RngState(5), 4, 8, 0.6)
    assert len({p.human.length for p in pairs}) > 1


def test_argument_validation():
    rng = RngState(1)
    with pytest.raises(ValueError):
        generate_paired_set(rng, 1, 4, 0.5)
    with pytest.raises(ValueError):
        generate_paired_set(rng, 2, 0, 0.5)
    with pytest.raises(ValueError):
        generate_paired_set(rng, 2, 2, 1.5)


def test_task_phrases_distinct():
    phrases = {task_phrase(k) for k in range(16)}
    assert len(phrases) == 16


def test_trajectory_inside_unit_square():
    for task in range(8):
        traj = sample_trajectory(task, RngState(task))
        assert traj.positions.min() >= 0.0
        assert traj.positions.max() <= 1.0
        assert len(traj.positions) >= 2
        assert set(np.unique(traj.gripper)) <= {0, 1}


# frame sampling --------------------------------------------------------------


def test_sample_all_frames_in_order():
    pairs = generate_paired_set(RngState(2), 2, 1, 0.5)
    clip = pairs[0].human
    t = clip.length
    out = sample_frames(clip, t, RngState(3))
    assert np.array_equal(out, clip.frames)


def test_sample_with_replacement_repeats_single_frame():
    idx = sample_frame_indices(1, 5, RngState(4))
    assert idx == [0, 0, 0, 0, 0]


def test_sample_indices_match_independent_reimplementation():
    # without replacement: first T of a Fisher-Yates shuffle, sorted
    rng = RngState(55)
    idx = sample_frame_indices(100, 5, rng)
    rng2 = RngState(55)
    arr = list(range(100))
    for i in range(99, 0, -1):
        j = (rng2.next_u64() * (i + 1)) >> 64
        arr[i], arr[j] = arr[j], arr[i]
    expected = sorted(arr[:5])
    assert idx == expected
    assert idx == sorted(idx)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
def test_sample_indices_properties(t_len, t, seed):
    idx = sample_frame_indices(t_len, t, RngState(seed))
    assert len(idx) == t
    assert all(0 <= i < t_len for i in idx)
    assert idx == sorted(idx)
    if t_len >= t:
        assert len(set(idx)) == t  # distinct when possible


def test_sample_frames_requires_positive_t():
    pairs = generate_paired_set(RngState(2), 2, 1, 0.5)
    with pytest.raises(ValueError):
        sample_frames(pairs[0].human, 0, RngState(1))


# splits ----------------------------------------------------------------------


def test_split_disjoint_and_complete():
    pairs = generate_paired_set(RngState(9), 4, 8, 0.5)
    train, heldout = split_pairs(pairs, 0.25)
    assert len(train) + len(heldout) == len(pairs)
    assert {p.pair_id for p in train}.isdisjoint({p.pair_id for p in heldout})
    for task in range(4):
        assert sum(p.task_id == task for p in heldout) == 2


@pytest.mark.parametrize("frac", [float("nan"), float("inf"), -0.25, 1.0, 5.0])
def test_split_rejects_heldout_frac_outside_unit_interval(frac):
    pairs = generate_paired_set(RngState(9), 2, 2, 0.5)
    with pytest.raises(ValueError, match="heldout_frac"):
        split_pairs(pairs, frac)


def test_benchmark_splits_at_the_library_fraction():
    # perfbench names the fraction it passes to split_pairs; it must hold
    # out the pairs every command and the reference script hold out
    from perfbench import workloads

    assert workloads.HELDOUT_FRAC == HELDOUT_FRAC
    pairs = generate_paired_set(RngState(9), 4, 8, 0.5)
    ids = lambda split: [[p.pair_id for p in part] for part in split]  # noqa: E731
    assert ids(split_pairs(pairs, workloads.HELDOUT_FRAC)) == ids(split_pairs(pairs))


# manifest --------------------------------------------------------------------


def test_manifest_empty_roundtrip(tmp_path):
    path = str(tmp_path / "manifest.json")
    save_manifest([], path)
    assert load_manifest(path) == []


def test_manifest_roundtrip_bitwise(tmp_path):
    pairs = generate_paired_set(RngState(6), 3, 3, 0.7)
    path = str(tmp_path / "manifest.json")
    save_manifest(pairs, path)
    loaded = load_manifest(path)
    assert len(loaded) == len(pairs)
    for a, b in zip(pairs, loaded):
        assert np.array_equal(a.human.frames, b.human.frames)
        assert np.array_equal(a.robot.frames, b.robot.frames)
        assert np.array_equal(a.human.positions, b.human.positions)
        assert np.array_equal(a.human.gripper, b.human.gripper)
        assert a.description.text == b.description.text
        assert a.pair_id == b.pair_id and a.task_id == b.task_id


def test_manifest_missing_file_names_path(tmp_path):
    pairs = generate_paired_set(RngState(6), 2, 2, 0.5)
    path = str(tmp_path / "manifest.json")
    save_manifest(pairs, path)
    victim = tmp_path / "clips" / "p0001_r.bin"
    os.remove(victim)
    with pytest.raises(ManifestError, match="p0001_r.bin"):
        load_manifest(path)


def test_manifest_checksum_failure_names_entry(tmp_path):
    pairs = generate_paired_set(RngState(6), 2, 2, 0.5)
    path = str(tmp_path / "manifest.json")
    save_manifest(pairs, path)
    victim = tmp_path / "clips" / "p0002_h.bin"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(ManifestError, match="checksum"):
        load_manifest(path)


@pytest.mark.parametrize("bad", [1.5, np.nan], ids=["1.5", "nan"])
def test_manifest_clip_values_outside_unit_range_name_pair_and_file(tmp_path, bad):
    pairs = generate_paired_set(RngState(6), 2, 2, 0.5)
    path = tmp_path / "manifest.json"
    save_manifest(pairs, str(path))
    doc = json.loads(path.read_text())
    entry = doc["pairs"][2]
    victim = tmp_path / entry["human_file"]
    frames, _ = from_bytes(victim.read_bytes())
    frames[3, 5, 7, 1] = bad
    blob = to_bytes(frames)
    victim.write_bytes(blob)
    entry["human_sha256"] = hashlib.sha256(blob).hexdigest()  # the checksum still holds
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as info:
        load_manifest(str(path))
    message = str(info.value)
    assert f"pair {entry['pair_id']}: clip {entry['human_file']}" in message
    assert "[0, 1]" in message


def test_manifest_clip_that_is_no_tensor_names_pair_and_file(tmp_path):
    pairs = generate_paired_set(RngState(6), 2, 1, 0.5)
    path = tmp_path / "manifest.json"
    save_manifest(pairs, str(path))
    doc = json.loads(path.read_text())
    victim = tmp_path / doc["pairs"][1]["robot_file"]
    victim.write_bytes(victim.read_bytes()[:-8])
    doc["pairs"][1]["robot_sha256"] = hashlib.sha256(victim.read_bytes()).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="^pair 1: clip clips/p0001_r.bin is not a serialized tensor"):
        load_manifest(str(path))


def test_manifest_shape_mismatch_detected(tmp_path):
    pairs = generate_paired_set(RngState(6), 2, 1, 0.5)
    path = str(tmp_path / "manifest.json")
    save_manifest(pairs, path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["pairs"][0]["human_len"] = 999
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="shape"):
        load_manifest(path)


def test_manifest_unknown_version_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": 99, "frame_shape": [16, 16, 3], "pairs": []}))
    with pytest.raises(ManifestError, match="version"):
        load_manifest(str(path))


@pytest.mark.parametrize(
    "key", ["robot_sha256", "human_file", "task_id", "description", "pair_id", "robot_len"]
)
def test_manifest_entry_missing_key_names_pair_and_key(tmp_path, key):
    pairs = generate_paired_set(RngState(6), 2, 1, 0.5)
    path = tmp_path / "manifest.json"
    save_manifest(pairs, str(path))
    doc = json.loads(path.read_text())
    del doc["pairs"][1][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(f"{path}: manifest lacks key 'pairs[1].{key}'")):
        load_manifest(str(path))


@pytest.mark.parametrize("where", ["document", "entry"])
def test_manifest_non_object_rejected(tmp_path, where):
    pairs = generate_paired_set(RngState(6), 2, 1, 0.5)
    path = tmp_path / "manifest.json"
    save_manifest(pairs, str(path))
    doc = json.loads(path.read_text())
    if where == "document":
        doc, message = [doc], f"manifest is not a JSON object: {path}"
    else:
        doc["pairs"][0] = ["not", "an", "object"]
        message = f"{path}: manifest key 'pairs[0]' has the wrong type list"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(str(path))


def test_manifest_latent_missing_field_rejected(tmp_path):
    pairs = generate_paired_set(RngState(6), 2, 1, 0.5)
    path = tmp_path / "manifest.json"
    save_manifest(pairs, str(path))
    doc = json.loads(path.read_text())
    del doc["pairs"][0]["latent"]["gripper"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="latent"):
        load_manifest(str(path))


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


# Each edit of a saved 2-task x 1-pair manifest and the start of the error it
# must raise: after "<path>: ", unless the error names a pair's clip file.
MANIFEST_PROBES = {
    "human_file=5": (lambda d: _set(d, ["pairs", 0, "human_file"], 5),
                     "manifest key 'pairs[0].human_file' has the wrong type int"),
    "description=5": (lambda d: _set(d, ["pairs", 0, "description"], 5),
                      "manifest key 'pairs[0].description' has the wrong type int"),
    "task_id=a": (lambda d: _set(d, ["pairs", 0, "task_id"], "a"),
                  "manifest key 'pairs[0].task_id' has the wrong type str"),
    "task_id=true": (lambda d: _set(d, ["pairs", 1, "task_id"], True),
                     "manifest key 'pairs[1].task_id' has the wrong type bool"),
    "pair_id=[1]": (lambda d: _set(d, ["pairs", 0, "pair_id"], [1]),
                    "manifest key 'pairs[0].pair_id' has the wrong type list"),
    "pairs={}": (lambda d: _set(d, ["pairs"], {}), "manifest key 'pairs' has the wrong type dict"),
    "no pairs": (lambda d: d.pop("pairs"), "manifest lacks key 'pairs'"),
    "frame_shape=5": (lambda d: _set(d, ["frame_shape"], 5),
                      "manifest key 'frame_shape' has the wrong type int"),
    "repeated pair_id": (lambda d: _set(d, ["pairs", 1, "pair_id"], 0),
                         "manifest key 'pairs[1].pair_id' repeats 0, the pair_id of pairs[0]"),
    "gripper=300": (lambda d: _set(d, ["pairs", 0, "latent", "gripper", 0], 300),
                    "pair 0: clip clips/p0000_h.bin: latent gripper must hold one value in {0, 1}"),
    "positions truncated": (lambda d: d["pairs"][0]["latent"]["positions"].pop(),
                            "pair 0: clip clips/p0000_h.bin: latent positions have shape"),
    "position=10**400": (lambda d: _set(d, ["pairs", 0, "latent", "positions", 0, 0], 10**400),
                         "pair 0: clip clips/p0000_h.bin: int too large to convert to float"),
    "description empty": (lambda d: _set(d, ["pairs", 0, "description"], ""),
                          "manifest key 'pairs[0].description': task description text must be non-empty"),
    "human_file empty": (lambda d: _set(d, ["pairs", 0, "human_file"], ""), "pair 0: cannot read clip file"),
    # json writes and reads these as the NaN / Infinity literals
    "position=NaN": (lambda d: _set(d, ["pairs", 0, "latent", "positions", 0, 0], float("nan")),
                     "pair 0: clip clips/p0000_h.bin: latent positions must lie inside the unit square"),
    "position=Infinity": (lambda d: _set(d, ["pairs", 1, "latent", "positions", 2, 1], float("inf")),
                          "pair 1: clip clips/p0001_h.bin: latent positions must lie inside the unit square"),
    "position=-0.5": (lambda d: _set(d, ["pairs", 0, "latent", "positions", 0, 1], -0.5),
                      "pair 0: clip clips/p0000_h.bin: latent positions must lie inside the unit square"),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_trajectory_and_clip_refuse_positions_outside_unit_square(bad):
    positions = np.full((3, 2), 0.5)
    positions[1, 0] = bad
    with pytest.raises(ValueError, match="unit square"):
        LatentTrajectory(positions, np.zeros(3, dtype=np.uint8), 0)
    with pytest.raises(ValueError, match="unit square"):
        VideoClip(np.zeros((3, 16, 16, 3)), "robot", 0, 0, positions)


def _saved_manifest(tmp_path):
    """A saved 2-task x 1-pair manifest's path and its parsed document."""
    path = tmp_path / "manifest.json"
    save_manifest(generate_paired_set(RngState(6), 2, 1, 0.5), str(path))
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("edit, message", MANIFEST_PROBES.values(), ids=MANIFEST_PROBES.keys())
def test_manifest_probe_names_its_key_or_pair(tmp_path, edit, message):
    path, doc = _saved_manifest(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    prefix = "" if message.startswith("pair ") else f"{path}: "
    with pytest.raises(ManifestError, match="^" + re.escape(prefix + message)):
        load_manifest(str(path))


def _key_paths(node, keys=()):
    """Every key of a JSON document, descending into the first element of
    each list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:1])
    else:
        return
    for key, child in children:
        yield keys + (key,)
        yield from _key_paths(child, keys + (key,))


def test_manifest_substitution_sweep_raises_only_manifest_errors(tmp_path):
    path, doc = _saved_manifest(tmp_path)
    text = json.dumps(doc)
    paths = list(_key_paths(doc))
    assert ("pairs", 0, "latent", "positions", 0, 0) in paths and len(paths) == 20
    for keys in paths:
        for value in (None, True, 0, 1.5, "x", [], {}):
            edited = json.loads(text)
            _set(edited, keys, value)
            path.write_text(json.dumps(edited))
            try:
                load_manifest(str(path))
            except ManifestError:
                pass


def test_manifest_path_that_is_a_directory_names_it(tmp_path):
    with pytest.raises(ManifestError, match=re.escape(f"cannot be read: {tmp_path}")):
        load_manifest(str(tmp_path))


def test_manifest_not_found():
    with pytest.raises(ManifestError, match="no/such"):
        load_manifest("no/such/manifest.json")


def test_manifest_save_is_deterministic(tmp_path):
    pairs = generate_paired_set(RngState(6), 2, 2, 0.5)
    p1 = str(tmp_path / "a" / "manifest.json")
    p2 = str(tmp_path / "b" / "manifest.json")
    os.makedirs(tmp_path / "a"), os.makedirs(tmp_path / "b")
    save_manifest(pairs, p1)
    save_manifest(pairs, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
