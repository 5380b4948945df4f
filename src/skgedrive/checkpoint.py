"""Named-tensor record files.

Layout: magic b"SKGE" + format version 1 (4-byte little-endian), then one
record per tensor: name length (u32 LE), UTF-8 name, rank (u32 LE), one
u32 LE extent per axis, then the float32 LE payload, row-major. Records
run until end of file; anything short of a whole record is corruption.
The same container stores model checkpoints and dataset samples.
"""

from __future__ import annotations

import os
import struct
from typing import Dict

import numpy as np

from .errors import CorruptDataError

MAGIC = b"SKGE"
VERSION = 1


def write_records(path, arrays: Dict[str, np.ndarray]) -> None:
    """Write arrays to path, replacing any previous file only once complete.

    The records go to a temporary sibling that is renamed over path, so a
    failure or kill part-way through leaves the previous file untouched.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
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
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _take(buf: bytes, offset: int, n: int, path, what: str) -> tuple:
    if offset + n > len(buf):
        raise CorruptDataError(f"{path}: truncated while reading {what}")
    return buf[offset:offset + n], offset + n


def read_records(path) -> Dict[str, np.ndarray]:
    """Read every record, in file order; truncation raises CorruptDataError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    chunk, off = _take(buf, 0, 8, path, "header")
    if chunk[:4] != MAGIC:
        raise CorruptDataError(f"{path}: bad magic {chunk[:4]!r}")
    version = struct.unpack("<I", chunk[4:])[0]
    if version != VERSION:
        raise CorruptDataError(f"{path}: unsupported format version {version}")

    out: Dict[str, np.ndarray] = {}
    while off < len(buf):
        chunk, off = _take(buf, off, 4, path, "name length")
        name_len = struct.unpack("<I", chunk)[0]
        chunk, off = _take(buf, off, name_len, path, "name")
        name = chunk.decode("utf-8")
        chunk, off = _take(buf, off, 4, path, "rank")
        rank = struct.unpack("<I", chunk)[0]
        chunk, off = _take(buf, off, 4 * rank, path, f"extents of {name}")
        shape = struct.unpack(f"<{rank}I", chunk) if rank else ()
        count = int(np.prod(shape)) if rank else 1
        chunk, off = _take(buf, off, 4 * count, path, f"payload of {name}")
        out[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
    return out


def save_model(path, model, meta: Dict[str, float] | None = None) -> None:
    """Store model parameters plus scalar metadata under meta/ names."""
    arrays: Dict[str, np.ndarray] = {}
    for key, value in (meta or {}).items():
        arrays[f"meta/{key}"] = np.asarray([float(value)], dtype=np.float32)
    for name, p in model.named_parameters():
        arrays[name] = p.data
    write_records(path, arrays)


def load_model(path, model) -> Dict[str, float]:
    """Load parameters by name into model; returns the meta/ scalars."""
    from .errors import ConfigError

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
    extra = [k for k in arrays if not k.startswith("meta/") and k not in params]
    if extra:
        raise ConfigError(f"{path}: checkpoint has records the model does not: {extra[:3]}")
    return meta


def read_meta(path) -> Dict[str, float]:
    arrays = read_records(path)
    return {k[len("meta/"):]: float(v[0]) for k, v in arrays.items()
            if k.startswith("meta/")}
