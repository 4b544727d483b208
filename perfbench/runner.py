"""Benchmark runner process: set up one workload, then run it on command.

Started by ``run.py``, which times set-up from process start to the
``ready`` line and enforces every deadline by killing this process group.
Protocol: one JSON object per line.  Requests on stdin:
``{"cmd": "run", "traced": bool}``, ``{"cmd": "shift"}`` (the
``t_shift_err`` leg against the last run) and ``{"cmd": "exit"}``.
Replies go to the original stdout; the program's own prints are sent to
stderr so they cannot corrupt the protocol.

With ``--trace 1`` the layer wrappers are installed for set-up and traced
runs, and every span is exported as ``repro_obs_trace/v1`` JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.obs import disable_tracing, enable_tracing, metrics, trace  # noqa: E402
from repro.obs.export import write_jsonl  # noqa: E402

SPAN_CAPACITY = 1 << 20


def _rss_kib() -> dict:
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(**msg):
        proto.write(json.dumps(msg) + "\n")

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    exported = []
    tracer = None
    if args.trace:
        layers.install()
        tracer = enable_tracing(capacity=SPAN_CAPACITY)
    before = metrics.snapshot()
    wl.setup()
    setup_diff = metrics.snapshot().diff(before).as_dict()
    ready = {
        "compiles": layers.schedule_compiles(setup_diff),
        "ops_per_run": wl.ops_per_run,
        "pool_workers": wl.pool_workers,
    }
    if tracer is not None:
        spans = tracer.drain()
        exported += spans
        ready["layers"] = layers.setup_metrics(spans)
    send(event="ready", **ready)

    last = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            break
        if cmd["cmd"] == "shift":
            # a runner restarted after a missed deadline may have no run yet
            send(event="shift", t_shift_err=wl.shift_leg(last.result) if last else None)
            continue
        traced = bool(cmd.get("traced"))
        if not traced:
            layers.uninstall()
            disable_tracing()
            tracer = None
        elif tracer is None:
            # one tracer per process: a fresh one would reuse span ids
            layers.install()
            tracer = enable_tracing(capacity=SPAN_CAPACITY)
        before = metrics.snapshot()
        cpu0 = _cpu_s()
        with trace(layers.ROOT_SPAN, workload=wl.name, seed=args.seed):
            last = wl.run()
        cpu_s = _cpu_s() - cpu0
        diff = metrics.snapshot().diff(before).as_dict()
        reply = {
            "wall_s": last.wall_s,
            "cpu_s": cpu_s,
            "items": last.items,
            "ops": last.ops,
            "rss_kib": _rss_kib(),
        }
        if traced:
            spans = tracer.drain()
            exported += spans
            reply["layers"] = {
                **layers.run_metrics(spans, max(1, wl.pool_workers)),
                **layers.counter_metrics(diff),
                "compile.ge_total": wl.ge_total(last),
            }
        reply["failed_ops"], reply["failures"] = wl.check(last)
        send(event="run", **reply)

    if args.trace_out and exported:
        write_jsonl(exported, args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
