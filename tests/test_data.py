import dataclasses
import os

import numpy as np
import pytest

from skgedrive.controller import global_to_local
from skgedrive.data import (CLASS_NAMES, MANIFEST_NAME, SceneConfig, class_index,
                            decode_depth, encode_depth, load_dataset,
                            read_manifest, save_dataset, synth_scene,
                            validate_sample)
from skgedrive.errors import CorruptDataError, DataError
from skgedrive.heads import NUM_CLASSES

from oracles import depth_decode_reference


def test_class_table_has_23_entries():
    assert len(CLASS_NAMES) == NUM_CLASSES == 23
    assert CLASS_NAMES[0] == "Unlabeled"
    assert CLASS_NAMES[7] == "Road"
    assert CLASS_NAMES[18] == "Traffic light"
    assert CLASS_NAMES[12] == "Traffic sign"
    assert len(set(CLASS_NAMES)) == 23


def test_class_name_index_roundtrip():
    for i, name in enumerate(CLASS_NAMES):
        assert class_index(name) == i
    with pytest.raises(DataError):
        class_index("Spaceship")


def test_depth_endpoints_exact():
    black = np.zeros((3, 1, 1))
    white = np.full((3, 1, 1), 255.0)
    assert decode_depth(black)[0, 0] == 0.0
    assert decode_depth(white)[0, 0] == 1000.0


def test_depth_matches_channel_formula(rng):
    trip = rng.integers(0, 256, size=(3, 4, 4)).astype(np.float64)
    want = depth_decode_reference(trip[0], trip[1], trip[2])
    np.testing.assert_allclose(decode_depth(trip), want, atol=1e-9)


def test_depth_monotone_in_code(rng):
    """Larger 24-bit codes always decode to larger distances."""
    codes = rng.integers(0, 256 ** 3, size=500)
    r, g, b = codes % 256, (codes // 256) % 256, codes // 65536
    trip = np.stack([r, g, b]).astype(np.float64).reshape(3, -1, 1)
    meters = decode_depth(trip).reshape(-1)
    order = np.argsort(codes)
    assert np.all(np.diff(meters[order]) >= 0)


def test_depth_encode_decode_roundtrip(rng):
    meters = rng.uniform(0.0, 1000.0, (5, 5))
    again = decode_depth(encode_depth(meters))
    step = 1000.0 / (256 ** 3 - 1)
    np.testing.assert_allclose(again, meters, atol=step)


def test_depth_rejects_out_of_range():
    with pytest.raises(DataError):
        decode_depth(np.full((3, 1, 1), 256.0))
    with pytest.raises(DataError):
        decode_depth(np.full((3, 1, 1), -1.0))
    with pytest.raises(DataError):
        decode_depth(np.array([[[np.nan]], [[0.0]], [[0.0]]]))


@pytest.mark.parametrize("field", ["rgb", "depth_rgb", "lidar"])
def test_validate_sample_rejects_nan(field):
    s = synth_scene(0, SceneConfig(with_lidar=True))
    validate_sample(s)
    arr = getattr(s, field).copy()
    arr[0, 0] = np.nan
    with pytest.raises(DataError):
        validate_sample(dataclasses.replace(s, **{field: arr}))


@pytest.mark.parametrize("field, value", [("route_point", np.array([np.nan, 1.0])),
                                          ("ego_pos", np.array([np.inf, 0.0])),
                                          ("ego_heading_deg", float("nan"))])
def test_validate_sample_rejects_non_finite_pose(field, value):
    with pytest.raises(DataError):
        validate_sample(dataclasses.replace(synth_scene(0), **{field: value}))


@pytest.mark.parametrize("seed", range(12))
def test_synth_scene_satisfies_all_invariants(seed):
    validate_sample(synth_scene(seed))


def test_synth_scene_deterministic():
    a, b = synth_scene(42), synth_scene(42)
    np.testing.assert_array_equal(a.rgb, b.rgb)
    np.testing.assert_array_equal(a.seg_gt, b.seg_gt)
    np.testing.assert_array_equal(a.waypoints_gt, b.waypoints_gt)
    assert a.speed == b.speed
    c = synth_scene(43)
    assert not np.array_equal(a.rgb, c.rgb)


def test_synth_scene_flags_match_segmentation():
    for seed in range(12):
        s = synth_scene(seed)
        assert s.tl_gt == float(s.seg_gt[class_index("Traffic light")].any())
        assert s.ss_gt == float(s.seg_gt[class_index("Traffic sign")].any())


def test_synth_scene_route_point_is_ahead():
    """Recovered local route point sits 8-20 m ahead along the travel axis."""
    for seed in range(8):
        s = synth_scene(seed)
        local = global_to_local(s.route_point, s.ego())
        assert -20.0 - 1e-6 <= local[1] <= -8.0 + 1e-6, (seed, local)
        # waypoints are local already and also run forward
        assert np.all(s.waypoints_gt[:, 1] < 0)


def test_synth_scene_lidar_option():
    s = synth_scene(0, SceneConfig(with_lidar=True))
    assert s.lidar is not None and s.lidar.shape[0] == 4
    assert synth_scene(0).lidar is None


def test_synth_scene_size_option():
    s = synth_scene(1, SceneConfig(size=32))
    assert s.rgb.shape == (3, 32, 32)
    validate_sample(s)


def test_dataset_roundtrip_bit_identical(tmp_path, small_samples):
    save_dataset(tmp_path, small_samples, list(range(len(small_samples))))
    loaded = load_dataset(tmp_path)
    assert len(loaded) == len(small_samples)
    for a, b in zip(small_samples, loaded):
        np.testing.assert_array_equal(a.rgb, b.rgb)
        np.testing.assert_array_equal(a.depth_rgb, b.depth_rgb)
        np.testing.assert_array_equal(a.seg_gt, b.seg_gt)
        np.testing.assert_array_equal(a.waypoints_gt, b.waypoints_gt)
        np.testing.assert_array_equal(a.controls_gt, b.controls_gt)
        assert a.speed == b.speed
        assert a.tl_gt == b.tl_gt and a.ss_gt == b.ss_gt


def test_labels_are_uint8_and_a_soft_stored_label_still_fails_loading(tmp_path):
    s = synth_scene(0)
    assert s.seg_gt.dtype == np.uint8
    soft = s.seg_gt.astype(np.float32)
    soft[:, 0, 0] = 0.0
    soft[:2, 0, 0] = 0.5  # sums to one, but is not one-hot
    save_dataset(tmp_path / "ok", [s], [0])
    save_dataset(tmp_path / "soft", [dataclasses.replace(s, seg_gt=soft)], [0])
    assert load_dataset(tmp_path / "ok")[0].seg_gt.dtype == np.uint8
    with pytest.raises(DataError):
        load_dataset(tmp_path / "soft")


def test_manifest_lists_indices_and_seeds(dataset_dir):
    entries = read_manifest(dataset_dir)
    assert [e[0] for e in entries] == list(range(8))
    assert [e[2] for e in entries] == list(range(8))


def test_manifest_with_cr_line_endings_reads_the_same(dataset_dir, tmp_path):
    text = (dataset_dir / MANIFEST_NAME).read_bytes()
    (tmp_path / MANIFEST_NAME).write_bytes(text.replace(b"\n", b"\r"))
    assert read_manifest(tmp_path) == read_manifest(dataset_dir)


def test_missing_manifest(tmp_path):
    with pytest.raises(CorruptDataError):
        load_dataset(tmp_path)


def test_bad_manifest_header(tmp_path, small_samples):
    save_dataset(tmp_path, small_samples[:1], [0])
    mpath = os.path.join(tmp_path, os.listdir(tmp_path)[0])
    manifest = [p for p in os.listdir(tmp_path) if not p.endswith(".rec")][0]
    mpath = os.path.join(tmp_path, manifest)
    with open(mpath) as fh:
        lines = fh.read().splitlines()
    lines[0] = "other-format 9 1 classtable=1"
    with open(mpath, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CorruptDataError):
        load_dataset(tmp_path)


def test_truncated_record_names_the_file(tmp_path, small_samples):
    save_dataset(tmp_path, small_samples[:2], [0, 1])
    rec = sorted(p for p in os.listdir(tmp_path) if p.endswith(".rec"))[1]
    full = os.path.join(tmp_path, rec)
    blob = open(full, "rb").read()
    with open(full, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    with pytest.raises(CorruptDataError) as exc:
        load_dataset(tmp_path)
    assert rec in str(exc.value)


def test_missing_record_file(tmp_path, small_samples):
    save_dataset(tmp_path, small_samples[:2], [0, 1])
    rec = sorted(p for p in os.listdir(tmp_path) if p.endswith(".rec"))[0]
    os.remove(os.path.join(tmp_path, rec))
    with pytest.raises(CorruptDataError):
        load_dataset(tmp_path)


def test_count_mismatch_detected(tmp_path, small_samples):
    save_dataset(tmp_path, small_samples[:3], [0, 1, 2])
    manifest = [p for p in os.listdir(tmp_path) if not p.endswith(".rec")][0]
    mpath = os.path.join(tmp_path, manifest)
    lines = open(mpath).read().splitlines()
    with open(mpath, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")  # drop one entry, keep the count
    with pytest.raises(CorruptDataError):
        read_manifest(tmp_path)


def test_failed_manifest_write_keeps_previous_manifest(tmp_path, small_samples,
                                                       monkeypatch):
    save_dataset(tmp_path, small_samples[:3], [0, 1, 2])
    manifest = tmp_path / MANIFEST_NAME
    before = manifest.read_bytes()
    real_replace = os.replace

    def replace_failing_on_manifest(src, dst):
        if os.fspath(dst).endswith(MANIFEST_NAME):
            raise OSError("injected failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_on_manifest)
    with pytest.raises(OSError, match="injected failure"):
        save_dataset(tmp_path, small_samples[:1], [7])
    assert manifest.read_bytes() == before
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_an_interrupted_save_over_a_dataset_leaves_no_mix(tmp_path, small_samples,
                                                          monkeypatch):
    import skgedrive.data as data_mod

    save_dataset(tmp_path, small_samples[:4], [0, 1, 2, 3])
    real_write = data_mod.write_records
    calls = []

    def write_interrupted_on_third(path, arrays):
        calls.append(path)
        if len(calls) == 3:
            raise KeyboardInterrupt
        real_write(path, arrays)

    monkeypatch.setattr(data_mod, "write_records", write_interrupted_on_third)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(tmp_path, small_samples[4:8], [4, 5, 6, 7])
    with pytest.raises(CorruptDataError, match="listed in manifest but missing"):
        load_dataset(tmp_path)

    monkeypatch.setattr(data_mod, "write_records", real_write)
    save_dataset(tmp_path, small_samples[4:6], [4, 5])
    back = load_dataset(tmp_path)
    assert [e[2] for e in read_manifest(tmp_path)] == [4, 5]
    for got, want in zip(back, small_samples[4:6]):
        np.testing.assert_array_equal(got.rgb, want.rgb)
    assert sorted(os.listdir(tmp_path)) == ["000000.rec", "000001.rec", MANIFEST_NAME]
