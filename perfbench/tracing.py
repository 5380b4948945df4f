"""Span tracer that instruments skgedrive from the outside.

install() wraps each traced function or method at every place it is
bound: a function imported by name into another module (``build_sdc``
into ``model``, ``bilinear_resize`` into ``heads``, ``make_batch`` into
``training``) is replaced there too, so the program carries no timing
code of its own. Spans are kept in memory as parallel arrays (name,
start, end, parent, run id) and written out by save(). A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute) of every traced layer boundary. On top of
# these, every public function of skgedrive.autodiff is traced as
# autodiff.<name>, so op time is never charged to the layer that called it.
TARGETS = (
    ("nn.linear", "nn", "Linear.forward"),
    ("nn.layer_norm", "nn", "LayerNorm.forward"),
    ("nn.mlp", "nn", "Mlp.forward"),
    ("nn.gru", "nn", "GRUCell.forward"),
    ("backbone.patch_embed", "backbone", "PatchEmbed.forward"),
    ("backbone.block", "backbone", "SwinBlock.forward"),
    ("backbone.attention", "backbone", "WindowAttention.forward"),
    ("backbone.merge", "backbone", "PatchMerging.forward"),
    ("skge.fuse", "skge", "SkipFusion.fuse"),
    ("skge.bilinear_resize", "skge", "bilinear_resize"),
    ("heads.decoder", "heads", "SegDecoder.forward"),
    ("heads.build_sdc", "heads", "build_sdc"),
    ("controller.forward", "controller", "Controller.forward"),
    ("model.make_batch", "model", "make_batch"),
    ("model.forward", "model", "DrivingModel.forward"),
    ("model.build_model", "model", "build_model"),
    ("data.decode_depth", "data", "decode_depth"),
    ("data.load_dataset", "data", "load_dataset"),
    ("training.losses", "training", "compute_task_losses"),
    ("training.total_loss", "training", "total_loss"),
    ("training.adamw_step", "training", "AdamW.step"),
    ("training.mgn_update", "training", "mgn_update"),
    ("training.evaluate", "training", "evaluate"),
    ("training.fit", "training", "fit"),
    ("checkpoint.save_model", "checkpoint", "save_model"),
    ("checkpoint.load_model", "checkpoint", "load_model"),
    ("autodiff.backward", "autodiff", "Tape.backward"),
)

# autodiff functions that are not ops: active_tape runs inside every op
NOT_OPS = {"active_tape"}


class Tracer:
    """In-memory span recorder; spans are taken only while enabled."""

    def __init__(self):
        self.enabled = False
        self.run_id = -1          # -1 during set-up, else the operation index
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        # (run id, counter) -> count, taken at the same boundaries as the spans
        self._counts: collections.Counter = collections.Counter()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid(args) if callable(nid) else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args)
            return result

        return traced

    def counts_of(self, run_id: int) -> collections.Counter:
        """Counters of one run id: tapes, tape_records, backward_records,
        backward_useful and bytes_written."""
        return collections.Counter({key: n for (run, key), n in self._counts.items()
                                    if run == run_id})

    def _count(self, key: str, n: int) -> None:
        self._counts[self.run_id, key] += n

    def _count_backward(self, args) -> None:
        records = args[0].records
        self._count("backward_records", len(records))
        self._count("backward_useful", sum(1 for r in records if r.out.grad is not None))

    def _count_save(self, args) -> None:
        self._count("bytes_written", os.path.getsize(args[0]))

    def install(self) -> None:
        """Wrap every target in the loaded skgedrive package."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "skgedrive" or name.startswith("skgedrive.")}
        ad = importlib.import_module("skgedrive.autodiff")
        targets = list(TARGETS)
        for name, fn in vars(ad).items():
            if (inspect.isfunction(fn) and fn.__module__ == ad.__name__
                    and not name.startswith("_") and name not in NOT_OPS):
                targets.append((f"autodiff.{name}", "autodiff", name))
        after = {"autodiff.backward": self._count_backward,
                 "checkpoint.save_model": self._count_save}
        for span, module, attr in targets:
            mod = importlib.import_module(f"skgedrive.{module}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, member)
            wrapped = self._wrap(orig, self._intern(span), after.get(span))
            setattr(owner, member, wrapped)
            if not owner_name:
                for other in pkg.values():
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)
        self._install_encoder(importlib.import_module("skgedrive.backbone"))
        self._install_tape_count(ad.Tape)

    def _install_encoder(self, backbone) -> None:
        # the two encoders share a class; the RGB one (3 input channels) is
        # encoder A, the one reading the top-down grid is encoder B
        enc_a = self._intern("backbone.enc_a")
        enc_b = self._intern("backbone.enc_b")
        cls = backbone.SwinEncoder
        cls.forward_stages = self._wrap(
            cls.forward_stages, lambda args: enc_a if args[1].shape[1] == 3 else enc_b)

    def _install_tape_count(self, tape_cls) -> None:
        orig_exit = tape_cls.__exit__
        tracer = self

        def counted_exit(tape, *exc):
            if tracer.enabled:
                tracer._count("tapes", 1)
                tracer._count("tape_records", len(tape.records))
            return orig_exit(tape, *exc)

        tape_cls.__exit__ = counted_exit

    def summary(self) -> dict:
        """Per span name: calls, self and inclusive seconds, split by phase.

        Returns {"step": {name: (calls, self_s, incl_s)}, "first": {...},
        "setup": {...}, "roots_s": ..., "self_s": ...}. "step" holds every
        operation, "first" the first one (run id 0) and "setup" run id -1;
        the last two are the root-span and the self seconds summed over the
        step phase.
        """
        name, parent, run, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        out = {"roots_s": float(dur[(~has_parent) & (run >= 0)].sum()),
               "self_s": float(self_t[run >= 0].sum())}
        n = len(self.names)
        for phase, sel in (("step", run >= 0), ("first", run == 0), ("setup", run < 0)):
            calls = np.bincount(name[sel], minlength=n)
            selfs = np.bincount(name[sel], weights=self_t[sel], minlength=n)
            incl = np.bincount(name[sel], weights=dur[sel], minlength=n)
            out[phase] = {nm: (int(calls[i]), float(selfs[i]), float(incl[i]))
                          for i, nm in enumerate(self.names)}
        return out

    def _arrays(self) -> tuple:
        # copies, so the arrays can keep growing after this call
        return (np.frombuffer(self._name, dtype=np.int32).copy(),
                np.frombuffer(self._parent, dtype=np.int32).copy(),
                np.frombuffer(self._run, dtype=np.int32).copy(),
                np.frombuffer(self._start).copy(), np.frombuffer(self._end).copy())

    def save(self, path) -> None:
        name, parent, run, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, run=run, start=start, end=end)
