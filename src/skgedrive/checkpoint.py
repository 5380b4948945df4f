"""Named-tensor record files.

Layout: magic b"SKGE" + format version 1 (4-byte little-endian), then one
record per tensor: name length (u32 LE), UTF-8 name, rank (u32 LE), one
u32 LE extent per axis, then the float32 LE payload, row-major. Records
run until end of file; anything short of a whole record, a rank above
MAX_RANK, and a name written twice, is corruption. The same container
stores model checkpoints and dataset samples.

A file is read in one pass: each length is checked against the bytes
left before anything is allocated for it, and each payload is read from
the file straight into its own array, so reading a file costs one copy
of its payloads.

A checkpoint holds one record per parameter, scalar metadata under meta/
names, and, when written by training, a rank-1 `config` record: the run
config's text (RunConfig.dumps), one UTF-8 byte per element (0..255, which
float32 stores exactly). Only this module encodes or decodes a checkpoint.
load_model checks every record against the model before it rebinds any
parameter, so a load that fails leaves the model as it was.
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
MAX_RANK = 32  # the most axes every supported numpy release allows an array


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


class _Reader:
    """Reads a record file front to back, checking each length against the
    bytes left before reading or allocating anything for it."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.pos, self.size = 0, os.fstat(fh.fileno()).st_size

    def truncated(self, what: str) -> CorruptDataError:
        return CorruptDataError(f"{self.path}: truncated while reading {what}")

    def need(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise self.truncated(what)
        self.pos += n

    def read(self, n: int, what: str) -> bytes:
        self.need(n, what)
        chunk = self.fh.read(n)
        if len(chunk) != n:  # the file shrank while it was read
            raise self.truncated(what)
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.read(4, what))[0]

    def payload(self, shape: tuple, name: str) -> np.ndarray:
        # exact: np.prod wraps around in int64, and a wrapped count could
        # pass the size check
        nbytes = 4 * math.prod(shape)
        self.need(nbytes, f"payload of {name}")
        arr = np.empty(shape, dtype="<f4")
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise self.truncated(f"payload of {name}")
        return arr


def read_records(path) -> Dict[str, np.ndarray]:
    """Read every record, in file order; truncation raises CorruptDataError."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        header = reader.read(8, "header")
        if header[:4] != MAGIC:
            raise CorruptDataError(f"{path}: bad magic {header[:4]!r}")
        version = struct.unpack("<I", header[4:])[0]
        if version != VERSION:
            raise CorruptDataError(f"{path}: unsupported format version {version}")
        out: Dict[str, np.ndarray] = {}
        while reader.pos < reader.size:
            name_len = reader.u32("name length")
            start = reader.pos
            try:
                name = reader.read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CorruptDataError(f"{path}: record name at byte {start} "
                                       f"is not UTF-8") from None
            if name in out:
                raise CorruptDataError(f"{path}: record {name!r} appears twice")
            rank = reader.u32("rank")
            if rank > MAX_RANK:
                raise CorruptDataError(f"{path}: record {name!r} has rank {rank}, "
                                       f"more than {MAX_RANK}")
            extents = reader.read(4 * rank, f"extents of {name}")
            out[name] = reader.payload(struct.unpack(f"<{rank}I", extents), name)
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
    if not ((codes >= 0) & (codes <= 255) & (np.floor(codes) == codes)).all():
        raise CorruptDataError(f"{path}: {CONFIG_RECORD!r} record holds a value "
                               f"that is not a byte")
    try:
        text = codes.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptDataError(f"{path}: {CONFIG_RECORD!r} record is not UTF-8") from None
    return RunConfig().loads(text, f"{path}:{CONFIG_RECORD}")


def load_model(path, model) -> Dict[str, float]:
    """Load parameters by name into model; returns the meta/ scalars.

    Every record is checked against the model before any parameter is
    rebound, so a load that raises leaves the model as it was."""
    arrays = read_records(path)
    params = dict(model.named_parameters())
    for name, p in params.items():
        if name not in arrays:
            raise CorruptDataError(f"{path}: missing parameter record {name}")
        arr = arrays[name]
        if arr.shape != tuple(p.shape):
            raise ConfigError(f"{path}: shape {arr.shape} for {name} does not "
                              f"match model shape {tuple(p.shape)}")
    extra = [k for k in arrays if not k.startswith("meta/") and k != CONFIG_RECORD
             and k not in params]
    if extra:
        raise ConfigError(f"{path}: checkpoint has records the model does not: {extra[:3]}")
    meta = {}
    for key, value in arrays.items():
        if key.startswith("meta/"):
            if value.shape != (1,):
                raise CorruptDataError(f"{path}: record {key} has shape {value.shape}, "
                                       f"expected (1,)")
            meta[key[len("meta/"):]] = float(value[0])
    for name, p in params.items():
        p.data = arrays[name].astype(p.data.dtype, copy=False)
        p.grad = None
    return meta
