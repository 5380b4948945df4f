"""Named-tensor record files.

Layout: magic b"SKGE" + format version 1 (4-byte little-endian), then one
record per tensor: name length (u32 LE), UTF-8 name, rank (u32 LE), one
u32 LE extent per axis, then the float32 LE payload, row-major. Records
run until end of file; anything short of a whole record, and a name
written twice, is corruption. The same container stores model
checkpoints and dataset samples.

A checkpoint holds one record per parameter, scalar metadata under meta/
names, and, when written by training, a rank-1 `config` record: the run
config's text (RunConfig.dumps), one UTF-8 byte per element (0..255, which
float32 stores exactly). Only this module encodes or decodes a checkpoint.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from typing import Dict

import numpy as np

from .config import RunConfig
from .errors import ConfigError, CorruptDataError

MAGIC = b"SKGE"
VERSION = 1
CONFIG_RECORD = "config"


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """Open a temporary sibling of path that is renamed over path on success.

    A failure or kill part-way through the write leaves any previous file
    at path untouched; the temporary file is removed on failure.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_records(path, arrays: Dict[str, np.ndarray]) -> None:
    """Write arrays to path, replacing any previous file only once complete."""
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in arrays.items():
            # asarray keeps rank-0 inputs rank 0; ascontiguousarray would not
            arr = np.asarray(arr, dtype="<f4", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(arr.tobytes())


def _take(buf: memoryview, offset: int, n: int, path, what: str) -> tuple:
    if offset + n > len(buf):
        raise CorruptDataError(f"{path}: truncated while reading {what}")
    return buf[offset:offset + n], offset + n


def read_records(path) -> Dict[str, np.ndarray]:
    """Read every record, in file order; truncation raises CorruptDataError."""
    with open(path, "rb") as fh:
        # slices of a memoryview share the file's bytes, so each payload is
        # copied once, into its own array
        buf = memoryview(fh.read())
    chunk, off = _take(buf, 0, 8, path, "header")
    if chunk[:4] != MAGIC:
        raise CorruptDataError(f"{path}: bad magic {bytes(chunk[:4])!r}")
    version = struct.unpack("<I", chunk[4:])[0]
    if version != VERSION:
        raise CorruptDataError(f"{path}: unsupported format version {version}")

    out: Dict[str, np.ndarray] = {}
    while off < len(buf):
        chunk, off = _take(buf, off, 4, path, "name length")
        name_len = struct.unpack("<I", chunk)[0]
        chunk, off = _take(buf, off, name_len, path, "name")
        try:
            name = bytes(chunk).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptDataError(f"{path}: record name at byte {off - name_len} "
                                   f"is not UTF-8") from None
        if name in out:
            raise CorruptDataError(f"{path}: record {name!r} appears twice")
        chunk, off = _take(buf, off, 4, path, "rank")
        rank = struct.unpack("<I", chunk)[0]
        chunk, off = _take(buf, off, 4 * rank, path, f"extents of {name}")
        shape = struct.unpack(f"<{rank}I", chunk) if rank else ()
        # exact: np.prod wraps around in int64, and a wrapped count could
        # pass the size check below
        count = math.prod(shape)
        chunk, off = _take(buf, off, 4 * count, path, f"payload of {name}")
        out[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
    return out


def save_model(path, model, meta: Dict[str, float] | None = None,
               cfg: RunConfig | None = None) -> None:
    """Store model parameters, scalar metadata under meta/ names, and the
    run config's text as the `config` record."""
    arrays: Dict[str, np.ndarray] = {}
    if cfg is not None:
        arrays[CONFIG_RECORD] = np.frombuffer(cfg.dumps().encode("utf-8"), dtype=np.uint8)
    for key, value in (meta or {}).items():
        arrays[f"meta/{key}"] = np.asarray([float(value)], dtype=np.float32)
    for name, p in model.named_parameters():
        arrays[name] = p.data
    write_records(path, arrays)


def read_config(path) -> RunConfig:
    """The run config a checkpoint's `config` record carries."""
    codes = read_records(path).get(CONFIG_RECORD)
    if codes is None:
        raise ConfigError(f"{path}: checkpoint has no {CONFIG_RECORD!r} record, "
                          f"so the model it holds cannot be rebuilt")
    try:
        text = codes.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptDataError(f"{path}: {CONFIG_RECORD!r} record is not UTF-8") from None
    return RunConfig().loads(text, f"{path}:{CONFIG_RECORD}")


def load_model(path, model) -> Dict[str, float]:
    """Load parameters by name into model; returns the meta/ scalars."""
    arrays = read_records(path)
    meta = {k[len("meta/"):]: float(v[0]) for k, v in arrays.items()
            if k.startswith("meta/")}
    params = dict(model.named_parameters())
    for name, p in params.items():
        if name not in arrays:
            raise CorruptDataError(f"{path}: missing parameter record {name}")
        arr = arrays[name]
        if tuple(arr.shape) != tuple(p.shape):
            raise ConfigError(f"{path}: shape {tuple(arr.shape)} for {name} does not "
                              f"match model shape {tuple(p.shape)}")
        p.data = arr.astype(p.data.dtype)
        p.grad = None
    extra = [k for k in arrays if not k.startswith("meta/") and k != CONFIG_RECORD
             and k not in params]
    if extra:
        raise ConfigError(f"{path}: checkpoint has records the model does not: {extra[:3]}")
    return meta
