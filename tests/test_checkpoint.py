import struct

import numpy as np
import pytest

from skgedrive.checkpoint import (MAGIC, VERSION, load_model, read_meta,
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


def test_read_meta_without_model(tmp_path):
    path = tmp_path / "m.ckpt"
    cfg = RunConfig()
    model = build_model(cfg, np.random.default_rng(1))
    save_model(path, model, {"epoch": 7.0})
    assert read_meta(path) == {"epoch": 7.0}


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
