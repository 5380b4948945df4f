"""Seeded fuzz of every file the package reads: a checkpoint, a sample
record, a dataset manifest and a drive log.

Each case truncates a valid file, flips a few of its bytes, or (for the
record files) overwrites one of its u32 name-length, rank or extent
fields. Every outcome must be a clean load or a DataError/ConfigError,
and no load may allocate more than a small multiple of the file it reads:
a reader that sized an allocation by a corrupt extent would break that.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from skgedrive.checkpoint import load_model, read_config, save_model
from skgedrive.config import RunConfig
from skgedrive.data import MANIFEST_NAME, SceneConfig, load_dataset, save_dataset, synth_scene
from skgedrive.errors import ConfigError, DataError
from skgedrive.model import build_model
from skgedrive.scoring import DriveLog, read_drive_log, score_routes, write_drive_log

SPECIAL_U32 = (0, 1, 2, 3, 255, 2 ** 16, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1)


def _u32_fields(raw: bytes) -> list:
    """Offsets of the version and of every name-length, rank and extent field."""
    fields, off = [4], 8
    while off < len(raw):
        fields.append(off)
        off += 4 + struct.unpack_from("<I", raw, off)[0]
        fields.append(off)
        rank = struct.unpack_from("<I", raw, off)[0]
        shape = struct.unpack_from(f"<{rank}I", raw, off + 4)
        fields += [off + 4 + 4 * i for i in range(rank)]
        off += 4 + 4 * rank + 4 * int(np.prod(shape, dtype=np.int64))
    return fields


def _mutate(raw: bytes, fields: list, rng) -> tuple:
    kinds = ("truncate", "flip", "u32") if fields else ("truncate", "flip")
    kind = kinds[int(rng.integers(len(kinds)))]
    out = bytearray(raw)
    if kind == "truncate":
        stop = int(rng.integers(len(raw)))
        return f"truncate at {stop}", bytes(out[:stop])
    if kind == "flip":
        where = rng.integers(len(raw), size=int(rng.integers(1, 5)))
        for i in where:
            out[i] ^= int(rng.integers(1, 256))
        return f"flip bytes {sorted(int(i) for i in where)}", bytes(out)
    off = int(fields[int(rng.integers(len(fields)))])
    old = struct.unpack_from("<I", raw, off)[0]
    choices = SPECIAL_U32 + (old + 1, max(old - 1, 0), int(rng.integers(2 ** 32)))
    value = int(choices[int(rng.integers(len(choices)))]) % 2 ** 32
    struct.pack_into("<I", out, off, value)
    return f"u32 at {off}: {old} -> {value}", bytes(out)


def _fuzz(path, load, seed: int, record_file: bool, cases: int = 250) -> dict:
    """Run mutations of path's file through load; count the outcomes."""
    raw = path.read_bytes()
    fields = _u32_fields(raw) if record_file else []
    rng = np.random.default_rng(seed)
    limit = 4 * len(raw) + 2 ** 20
    outcomes = {}
    for case in range(cases):
        what, blob = _mutate(raw, fields, rng)
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            load()
            outcome = "ok"
        except (DataError, ConfigError) as e:
            outcome = type(e).__name__
        except Exception as e:  # noqa: BLE001 - any other type is the failure
            pytest.fail(f"case {case} ({what}): {type(e).__name__}: {e}")
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= limit, f"case {case} ({what}): allocated {peak} B " \
                              f"reading a {len(blob)} B file"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes.get("CorruptDataError", 0) > cases // 4, outcomes
    return outcomes


def _small_config() -> RunConfig:
    cfg = RunConfig()
    for key, value in (("backbone.input_size", 32), ("backbone.embed_dim", 8),
                       ("backbone.depths", "1,1,1,1"), ("backbone.heads", "1,1,1,1"),
                       ("bev.size", 32)):
        cfg.set(key, value)
    return cfg


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("reader", ["load_model", "read_config"])
def test_fuzzed_checkpoint(tmp_path, reader, seed):
    cfg = _small_config()
    model = build_model(cfg, np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_model(path, model, {"epoch": 2.0, "val_loss": 0.5}, cfg=cfg)
    load = (lambda: load_model(path, model)) if reader == "load_model" \
        else (lambda: read_config(path))
    # each load reads the whole 0.76 MB file, so fewer cases
    _fuzz(path, load, seed, record_file=True, cases=150)


@pytest.fixture
def dataset(tmp_path):
    size = SceneConfig(size=16, with_lidar=True)
    save_dataset(tmp_path, [synth_scene(s, size) for s in (0, 1)], [0, 1])
    return tmp_path


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_sample_record(dataset, seed):
    _fuzz(dataset / "000001.rec", lambda: load_dataset(dataset), seed, record_file=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_manifest(dataset, seed):
    _fuzz(dataset / MANIFEST_NAME, lambda: load_dataset(dataset), seed, record_file=False)


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_drive_log(tmp_path, seed):
    path = tmp_path / "route.ndjson"
    write_drive_log(path, DriveLog(route_id="rué-7", total_route_length=40.0,
                                   steps=[(0.0, 0.0, True), (3.5, -1.25, True),
                                          (7.0, -2.0, False), (12.0, 1e-3, True)],
                                   infractions=["ped", "red_light"]))
    _fuzz(path, lambda: score_routes([read_drive_log(path)]), seed, record_file=False)
