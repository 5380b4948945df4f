import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import skgedrive
from skgedrive.checkpoint import (MAGIC, MAX_RANK, VERSION, load_model, read_config,
                                  read_records, save_model, write_records)
from skgedrive.config import RunConfig
from skgedrive.errors import ConfigError, CorruptDataError
from skgedrive.model import build_model


def _arrays(rng):
    return {
        "a/weight": rng.standard_normal((3, 5)).astype(np.float32),
        "a/bias": rng.standard_normal((5,)).astype(np.float32),
        "scalar": np.float32(rng.standard_normal()).reshape(()),
        "deep/nested/x": rng.standard_normal((2, 2, 2)).astype(np.float32),
    }


@pytest.mark.parametrize("seed", range(5))
def test_records_roundtrip_bit_identical(tmp_path, seed):
    arrays = _arrays(np.random.default_rng(seed))
    path = tmp_path / "t.rec"
    write_records(path, arrays)
    back = read_records(path)
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == np.ascontiguousarray(
            arr, dtype="<f4").tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.rec"
    write_records(path, {"x": np.ones((2,), dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"SKGE"
    assert struct.unpack("<I", raw[4:8])[0] == VERSION == 1
    # name record: len=1, "x", rank=1, extent=2, payload 2 floats
    assert struct.unpack("<I", raw[8:12])[0] == 1
    assert raw[12:13] == b"x"
    assert struct.unpack("<I", raw[13:17])[0] == 1
    assert struct.unpack("<I", raw[17:21])[0] == 2
    assert len(raw) == 21 + 8


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.rec"
    path.write_bytes(b"NOPE" + struct.pack("<I", 1))
    with pytest.raises(CorruptDataError):
        read_records(path)
    path.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(CorruptDataError):
        read_records(path)


def test_truncation_raises_at_every_boundary(tmp_path):
    full = tmp_path / "full.rec"
    write_records(full, {"ab": np.arange(6, dtype=np.float32).reshape(2, 3)})
    raw = full.read_bytes()
    cut = tmp_path / "cut.rec"
    # header, name length, name, rank, extents, payload: all get a cut
    for stop in (3, 6, 10, 13, 16, 20, len(raw) - 1):
        cut.write_bytes(raw[:stop])
        with pytest.raises(CorruptDataError):
            read_records(cut)


def test_a_record_name_written_twice_is_corruption(tmp_path):
    path = tmp_path / "dup.rec"
    write_records(path, {"w": np.ones(2, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw + raw[8:])
    with pytest.raises(CorruptDataError, match="dup.rec: record 'w' appears twice"):
        read_records(path)


def test_empty_payload_file_is_just_header(tmp_path):
    path = tmp_path / "none.rec"
    write_records(path, {})
    assert read_records(path) == {}


def test_model_save_load_roundtrip(tmp_path):
    cfg = RunConfig()
    model = build_model(cfg, np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_model(path, model, {"epoch": 3.0, "route_code": 74.0})
    fresh = build_model(cfg, np.random.default_rng(99))
    before = {n: p.data.copy() for n, p in fresh.named_parameters()}
    meta = load_model(path, fresh)
    assert meta == {"epoch": 3.0, "route_code": 74.0}
    changed = 0
    for name, p in fresh.named_parameters():
        want = dict(model.named_parameters())[name].data
        np.testing.assert_array_equal(p.data, want.astype(np.float32))
        if not np.array_equal(before[name], p.data):
            changed += 1
    assert changed > 0


def test_load_model_shape_mismatch(tmp_path):
    cfg = RunConfig()
    model = build_model(cfg, np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    other = RunConfig()
    other.set("backbone.embed_dim", 12)
    small = build_model(other, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        load_model(path, small)


def test_load_model_missing_record(tmp_path):
    cfg = RunConfig()
    model = build_model(cfg, np.random.default_rng(0))
    arrays = {n: p.data for n, p in model.named_parameters()}
    first = next(iter(arrays))
    del arrays[first]
    path = tmp_path / "partial.ckpt"
    write_records(path, arrays)
    with pytest.raises(CorruptDataError):
        load_model(path, model)


def _corrupted(arrays, case):
    """arrays with its last parameter record dropped or reshaped, or one added."""
    arrays = dict(arrays)
    last = list(arrays)[-1]
    if case == "missing":
        del arrays[last]
    elif case == "shape":
        arrays[last] = np.ones(arrays[last].size + 1, dtype=np.float32)
    else:
        arrays["stray.weight"] = np.ones(3, dtype=np.float32)
    return arrays


@pytest.mark.parametrize("case, error", [("missing", CorruptDataError),
                                         ("shape", ConfigError), ("extra", ConfigError)])
def test_a_failed_load_changes_no_parameter(tmp_path, case, error):
    cfg = RunConfig()
    source = build_model(cfg, np.random.default_rng(1))
    path = tmp_path / "bad.ckpt"
    write_records(path, _corrupted({n: p.data for n, p in source.named_parameters()}, case))
    model = build_model(cfg, np.random.default_rng(0))
    before = {n: (p.data, p.data.copy()) for n, p in model.named_parameters()}
    with pytest.raises(error):
        load_model(path, model)
    for name, p in model.named_parameters():
        assert p.data is before[name][0]
        np.testing.assert_array_equal(p.data, before[name][1])


def test_load_model_holds_one_copy_of_the_weights(tmp_path):
    """Each payload goes from the file into its own array, and a float32
    model takes that array as it is."""
    cfg = RunConfig()
    path = tmp_path / "m.ckpt"
    save_model(path, build_model(cfg, np.random.default_rng(1)), {"epoch": 1.0}, cfg=cfg)
    model = build_model(cfg, np.random.default_rng(0))
    tracemalloc.start()
    try:
        load_model(path, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * path.stat().st_size


def test_a_rank_beyond_the_limit_is_corruption(tmp_path):
    path = tmp_path / "deep.rec"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 1) + b"w"
                     + struct.pack(f"<{MAX_RANK + 2}I", MAX_RANK + 1, *[1] * (MAX_RANK + 1))
                     + struct.pack("<f", 1.0))
    with pytest.raises(CorruptDataError, match=f"record 'w' has rank {MAX_RANK + 1}"):
        read_records(path)


@pytest.mark.parametrize("value", [[2.0], [], [1.0, 2.0]])
def test_a_meta_record_is_one_value(tmp_path, value):
    model = build_model(RunConfig(), np.random.default_rng(0))
    arrays = {n: p.data for n, p in model.named_parameters()}
    arrays["meta/epoch"] = np.array(value, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    write_records(path, arrays)
    if len(value) == 1:
        assert load_model(path, model) == {"epoch": 2.0}
    else:
        with pytest.raises(CorruptDataError, match="record meta/epoch has shape"):
            load_model(path, model)


def test_config_record_roundtrip(tmp_path):
    cfg = RunConfig()
    cfg.set("skge.route_b", "1,2,3->4")
    model = build_model(cfg, np.random.default_rng(1))
    path = tmp_path / "m.ckpt"
    save_model(path, model, {"epoch": 7.0}, cfg=cfg)
    arrays = read_records(path)
    text = cfg.dumps()
    assert arrays["config"].shape == (len(text.encode("utf-8")),)
    assert read_config(path).dumps() == text
    # load_model skips the config record in its extra-record check
    assert load_model(path, build_model(cfg, np.random.default_rng(2))) == {"epoch": 7.0}


def test_missing_config_record_is_config_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(path, build_model(RunConfig(), np.random.default_rng(1)))
    with pytest.raises(ConfigError, match="'config' record"):
        read_config(path)


def test_a_config_record_that_is_not_utf8_is_corrupt_data(tmp_path):
    path = tmp_path / "m.ckpt"
    write_records(path, {"config": np.array([0xFF, 0xFE], dtype=np.uint8)})
    with pytest.raises(CorruptDataError, match="'config' record is not UTF-8"):
        read_config(path)


@pytest.mark.parametrize("value", [256.0, -1.0, 65.5, float("nan"), float("inf")])
def test_a_config_record_value_that_is_not_a_byte_is_corrupt_data(tmp_path, value):
    path = tmp_path / "m.ckpt"
    write_records(path, {"config": np.array([65.0, value], dtype=np.float32)})
    with pytest.raises(CorruptDataError, match="'config' record holds a value that is not a byte"):
        read_config(path)


def test_only_checkpoint_and_data_read_or_write_record_files():
    """Everything else goes through read_config, load_model and save_model,
    so one module decides how a checkpoint is encoded."""
    package = Path(skgedrive.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py")
                    if re.search(r"\b(read_records|write_records|CONFIG_RECORD)\b",
                                 p.read_text()))
    assert naming == ["checkpoint.py", "data.py"]


class _FailingArray:
    """Stands in for an array whose conversion fails part-way through a write."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("injected failure")


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    write_records(path, _arrays(np.random.default_rng(0)))
    before = path.read_bytes()
    arrays = _arrays(np.random.default_rng(1))
    arrays["late"] = _FailingArray()
    with pytest.raises(RuntimeError, match="injected failure"):
        write_records(path, arrays)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        write_records(tmp_path / "new.ckpt", {"a": np.ones(2), "b": _FailingArray()})
    assert list(tmp_path.iterdir()) == []


def test_default_model_parameters_are_pinned():
    """Names and shapes decide whether a checkpoint loads; the checksum of
    the float32 initial values pins every random draw of the constructors."""
    pinned = json.loads((Path(__file__).parent / "default_model_params.json").read_text())
    params = list(build_model(RunConfig(), np.random.default_rng(0)).named_parameters())
    assert [[name, list(p.shape)] for name, p in params] == pinned["parameters"]
    digest = hashlib.sha256()
    for _, p in params:
        digest.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    assert digest.hexdigest() == pinned["sha256"]
