"""Benchmark of the skgedrive pipeline; run from the root of a checkout.

    python3 perfbench/run.py --workload drive_b1 --seed 0 --seconds 30 --trace 0

Runs one workload (drive_b1, train_b8 or verify_f64) in this process
against the package under src/ and prints one JSON object as the last
line of standard output: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
run is split into an untraced half and a traced half, and the metrics are
the per-layer ones; the spans are written to perfbench/work/. See
perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"

# One BLAS thread ran the workloads faster than two on the 2-core machine
# the benchmark was tuned on, and it keeps the load on one core.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The machine's speed switches between a fast and a slow state every few
# seconds, so the set-ups are spread over the run like the steps are.
SETUP_REPEATS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

OPS = ("matmul", "gelu", "softmax_lastdim", "layer_norm", "sigmoid", "add", "mul",
       "slice_", "reshape", "transpose", "gather_rows", "concat", "roll2d", "pad2d")
# spans reported by their self time per step
SELF_SPANS = (("autodiff.backward", "nn.linear", "nn.mlp", "nn.gru",
               "backbone.patch_embed", "backbone.block", "backbone.attention",
               "backbone.merge", "skge.fuse", "skge.bilinear_resize",
               "heads.decoder", "heads.build_sdc", "controller.forward",
               "model.make_batch", "model.forward", "data.decode_depth",
               "training.losses", "training.adamw_step", "training.mgn_update",
               "checkpoint.save_model")
              + tuple(f"autodiff.{op}" for op in OPS))
# spans reported by their inclusive time: per step, or per call in set-up
STEP_SPANS = ("backbone.enc_a", "backbone.enc_b", "training.evaluate")
SETUP_SPANS = ("data.load_dataset", "checkpoint.load_model")
CALL_SPANS = tuple(f"autodiff.{op}" for op in OPS) + ("nn.linear", "checkpoint.save_model")

PER_LAYER = (
    tuple((f"{s}.calls", "count/step") for s in CALL_SPANS)
    + tuple((f"{s}.self_ms", "ms/step") for s in SELF_SPANS)
    + tuple((f"{s}.ms", "ms/step") for s in STEP_SPANS)
    + tuple((f"{s}.ms", "ms/call") for s in SETUP_SPANS)
    + (("autodiff.tape_records", "count/tape"),
       ("autodiff.tape_useful_frac", "fraction"),
       ("training.backward_calls_per_step", "count/step"),
       ("checkpoint.bytes_written", "B/step"),
       ("trace.step_ms", "ms/step"),
       ("trace.untraced_step_ms", "ms/step"),
       ("trace.overhead_ms", "ms/step"),
       ("trace.unlisted_self_ms", "ms/step"),
       ("trace.outside_ms", "ms/step"))
)


class Stats:
    """Totals of the operations one measuring phase ran."""

    def __init__(self):
        self.ops = self.steps = self.work = self.attempted = self.failed = 0
        self.first_steps = 0          # steps of the first operation, 0 if it raised
        self.seconds = 0.0
        self.latencies_ms: list = []
        self.setup_s: list = []


def measure(wl, seconds: float, tracer=None, setups: int = 0) -> Stats:
    """Repeat wl's operation while the next one still fits in seconds.

    With setups > 0, wl is set up that many times, at even intervals of
    the run and before the first operation, and each set-up is timed.
    """
    st = Stats()
    begin = perf_counter()
    last = 0.0
    while st.ops == 0 or perf_counter() - begin + last <= seconds:
        t = perf_counter()
        while (len(st.setup_s) < setups
               and t - begin >= len(st.setup_s) * seconds / setups):
            st.setup_s.append(timed_setup(wl))
        if tracer is not None:
            tracer.run_id = st.ops
            tracer.enabled = True
        # a failed operation or check is counted, and the run goes on
        op, attempted, failed = None, 1, 1
        try:
            op = wl.run()
        except Exception:
            _report(st)
        finally:
            if tracer is not None:
                tracer.enabled = False
        if op is not None:
            try:
                attempted, failed = wl.check(op)
            except Exception:
                _report(st)
                op = None
        st.ops += 1
        st.attempted += attempted
        st.failed += failed
        if op is not None:
            if st.ops == 1:
                st.first_steps = op.steps
            st.seconds += op.seconds
            st.steps += op.steps
            st.work += op.work
            st.latencies_ms.extend(op.latencies_ms)
        last = perf_counter() - t
    while len(st.setup_s) < setups:
        st.setup_s.append(timed_setup(wl))
    return st


def _report(st: Stats) -> None:
    if st.failed == 0:
        traceback.print_exc()


def timed_setup(wl) -> float:
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0


def finish(wl) -> tuple:
    """wl's end-of-run check as (attempted, failed); raising fails it once."""
    try:
        return wl.finish()
    except Exception:
        traceback.print_exc()
        return 1, 1


def end_to_end(st: Stats) -> dict:
    import numpy as np
    p50, p90 = np.percentile(st.latencies_ms, (50, 90))
    return {
        "setup_s": statistics.median(st.setup_s),
        "step_ms_p50": float(p50),
        "step_ms_p90": float(p90),
        "throughput_per_s": st.work / st.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Stats, base: Stats) -> tuple:
    """Per-layer metrics of the traced phase, and whether the spans cover it.

    Times are per step over the whole traced phase. Counts are per step
    of its first operation, which is the same in every run with the seed,
    however many operations the machine's speed lets the phase run.
    """
    summary = tracer.summary()
    step, first, setup = summary["step"], summary["first"], summary["setup"]
    n, n0 = traced.steps, traced.first_steps
    counts = tracer.counts_of(0)
    zero = (0, 0.0, 0.0)
    out = {}
    for s in CALL_SPANS:
        out[f"{s}.calls"] = first.get(s, zero)[0] / n0
    for s in SELF_SPANS:
        out[f"{s}.self_ms"] = step.get(s, zero)[1] * 1e3 / n
    for s in STEP_SPANS:
        out[f"{s}.ms"] = step.get(s, zero)[2] * 1e3 / n
    for s in SETUP_SPANS:
        calls, _, incl = setup.get(s, zero)
        out[f"{s}.ms"] = incl * 1e3 / calls if calls else 0.0
    out["autodiff.tape_records"] = (counts["tape_records"] / counts["tapes"]
                                    if counts["tapes"] else 0.0)
    out["autodiff.tape_useful_frac"] = (counts["backward_useful"] / counts["backward_records"]
                                        if counts["backward_records"] else 0.0)
    out["training.backward_calls_per_step"] = first.get("autodiff.backward", zero)[0] / n0
    out["checkpoint.bytes_written"] = counts["bytes_written"] / n0
    traced_ms = traced.seconds * 1e3 / n
    out["trace.step_ms"] = traced_ms
    out["trace.untraced_step_ms"] = base.seconds * 1e3 / base.steps
    out["trace.overhead_ms"] = traced_ms - out["trace.untraced_step_ms"]
    listed = sum(v[1] for k, v in step.items() if k in SELF_SPANS)
    out["trace.unlisted_self_ms"] = (summary["self_s"] - listed) * 1e3 / n
    out["trace.outside_ms"] = (traced.seconds - summary["roots_s"]) * 1e3 / n
    # the root spans cover the timed step time, up to the benchmark's own calls
    covered = -1e-6 * traced_ms <= out["trace.outside_ms"] <= 0.01 * traced_ms
    return out, covered


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def run(args, work: Path) -> dict:
    import workloads

    env = environment()
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    if not args.trace:
        st = measure(wl, args.seconds, setups=SETUP_REPEATS)
        checks = [finish(wl)]
        measured = st.steps > 0
        metrics = end_to_end(st) if measured else {}
        units = dict(END_TO_END)
        covered = True
    else:
        import tracing
        base = measure(wl, args.seconds / 2, setups=1)
        # the traced half starts from fresh inputs, so that its first
        # operation, and with it the counts, is the same in every run
        checks = [(base.attempted, base.failed), finish(wl)]
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        wl.setup()
        tracer.enabled = False
        st = measure(wl, args.seconds / 2, tracer)
        checks.append(finish(wl))
        measured = base.steps > 0 and st.first_steps > 0
        metrics, covered = per_layer(tracer, st, base) if measured else ({}, True)
        units = dict(PER_LAYER)
        spans = WORK / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        print(f"spans written to {spans.relative_to(ROOT)}; "
              f"spans cover the step time: {covered}")

    attempted = st.attempted + sum(a for a, _ in checks)
    failed = st.failed + sum(f for _, f in checks)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {st.ops} operations, "
          f"{st.steps} steps ({wl.step_unit}), {st.work} {wl.work_unit} "
          f"in {st.seconds:.3f} s timed; {len(st.latencies_ms)} latency samples")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6f}")
    if not measured:
        print("no metrics: the operations they are measured on raised")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {"correct": measured and failed == 0 and covered, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("drive_b1", "train_b8", "verify_f64"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "skgedrive" / "__init__.py").is_file():
        print(f"error: no skgedrive package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:   # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    # without metrics the result is a report of the failures, not a measurement
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
