#!/usr/bin/env python3
"""Repo benchmark: one workload, timed from outside, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des_ff_tvla --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and exports its spans as
``perfbench/out/trace-<workload>-seed<seed>.jsonl``, readable by
``python -m repro obs summary``).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every run happens in a runner process (``runner.py``) under a deadline.
A run that misses it is killed with its process group (pool workers
included) and counted as failed; a fresh runner then continues.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up, runs and checks of one invocation; with the runner's final
#: exit (``Runner.close``) it stays under the 180 s an invocation may take.
BUDGET_S = 160.0


@dataclass(frozen=True)
class Plan:
    setups: int  # fresh-process set-ups whose median is setup_s
    setup_deadline_s: float
    run_deadline_s: float


PLANS = {
    "des_ff_tvla": Plan(1, 60.0, 60.0),
    "des_pd_coupling_tvla": Plan(1, 60.0, 60.0),
    "seq_tvla_paperscale": Plan(5, 20.0, 15.0),
    "compile_paper": Plan(5, 30.0, 45.0),
}

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Deadline(Exception):
    pass


#: Runners not yet reaped; every exit path kills what is left here.
_LIVE: "set[Runner]" = set()


class Runner:
    """One runner process in its own process group."""

    def __init__(self, args, workdir: str, trace_out):
        cmd = [
            sys.executable, os.path.join(HERE, "runner.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--workdir", workdir,
        ]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.t_start = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True, cwd=ROOT,
        )
        _LIVE.add(self)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self._buf = b""

    def recv(self, timeout: float) -> dict:
        end = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                raise Deadline(f"no reply within {timeout:.0f} s")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise Deadline(f"runner exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, timeout: float, **cmd) -> dict:
        try:
            self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise Deadline(f"runner exited with code {self.proc.wait()}") from None
        return self.recv(timeout)

    def close(self, timeout: float = 15.0) -> str:
        """Ask the runner to exit; kill its group if it does not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"cmd": "exit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        return self.kill()

    def kill(self) -> str:
        """SIGKILL the whole group, reap it, report what was left behind."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        _LIVE.discard(self)
        self._sel.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        end = time.monotonic() + 5.0
        while time.monotonic() < end:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            return "processes of the killed group still alive"
        return ""


def _scavenge(pid: int) -> list:
    """Unlink shared-memory segments a killed runner's campaign left."""
    sys.path.insert(0, SRC)
    from repro.leakage.transport import SEGMENT_PREFIX_ROOT, scavenge_orphans

    return scavenge_orphans(prefix=f"{SEGMENT_PREFIX_ROOT}-{pid}-")


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still takes its runners down (see finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    plan = PLANS[args.workload]
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    trace_out = (
        os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        if args.trace else None
    )

    def left() -> float:
        return BUDGET_S - (time.monotonic() - t_begin)

    setups, runs, notes = [], [], []
    attempted = failed = 0
    ops_per_run = 1
    ready = shift = baseline = None
    runner = None

    def retire(r: "Runner", kill: bool = False) -> None:
        leftover = r.kill() if kill else r.close()
        if leftover:
            notes.append(leftover)

    def fresh_runner():
        """A set-up runner; a set-up that misses its deadline counts as a
        failed operation and is retried while the budget allows."""
        nonlocal attempted, failed
        while True:
            r = Runner(args, workdir, trace_out)
            try:
                msg = r.recv(min(plan.setup_deadline_s, left()))
                return r, msg, time.monotonic() - r.t_start
            except Deadline as exc:
                retire(r, kill=True)
                notes.append(f"set-up missed its deadline ({exc})")
                attempted += 1
                failed += 1
                if left() < plan.setup_deadline_s + plan.run_deadline_s:
                    raise

    def do_run(traced: bool):
        """One run under its deadline; a missed deadline restarts the runner."""
        nonlocal runner, attempted, failed
        t0 = time.monotonic()
        try:
            reply = runner.request(min(plan.run_deadline_s, left() - 5), cmd="run", traced=traced)
        except Deadline as exc:
            pid = runner.proc.pid
            retire(runner, kill=True)
            runner = None
            shm = _scavenge(pid)
            attempted += ops_per_run
            failed += ops_per_run
            notes.append(
                f"run missed its deadline ({exc}); killed runner {pid}"
                + (f"; scavenged {len(shm)} shm segment(s)" if shm else "")
            )
            if left() > plan.setup_deadline_s + plan.run_deadline_s:
                runner, _, _ = fresh_runner()
            return None, time.monotonic() - t0
        attempted += reply["ops"]
        failed += reply["failed_ops"]
        notes.extend(reply["failures"])
        return reply, time.monotonic() - t0

    try:
        for _ in range(1 if args.trace else plan.setups):
            if runner is not None:
                retire(runner)
            runner, ready, seconds = fresh_runner()
            setups.append(seconds)
        ops_per_run = ready["ops_per_run"]
        # The window counts completed runs only: a run killed at its
        # deadline costs budget, not measurement time.
        costs = []
        while runner is not None:
            if runs and sum(costs) + _median(costs) > args.seconds:
                break
            if left() < min(plan.run_deadline_s, 2 * _median(costs)) + 10:
                break
            reply, cost = do_run(traced=bool(args.trace))
            if reply is not None:
                costs.append(cost)
                runs.append(reply)
                print(f"run.py: run {len(runs)}: wall {reply['wall_s']:.3f} s, "
                      f"cpu {reply['cpu_s']:.3f} s", file=sys.stderr)
        if args.trace and runs and runner is not None:
            # untraced baseline for the tracing overhead, after the traced
            # runs so one tracer covers set-up and every traced run
            baseline, _ = do_run(traced=False)
        if args.trace and runs and runner is not None and args.workload != "compile_paper":
            try:
                shift = runner.request(min(plan.run_deadline_s, left() - 5), cmd="shift")
            except Deadline as exc:
                notes.append(f"t_shift_err leg missed its deadline ({exc})")
                attempted += 1
                failed += 1
    except Deadline:
        pass  # budget exhausted; the reason is in notes
    finally:
        if runner is not None:
            retire(runner)
        for r in list(_LIVE):
            retire(r, kill=True)
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes:
        print(f"run.py: {note}", file=sys.stderr)
    if not runs:
        print("run.py: no run completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_report(runs, ready, baseline, shift, attempted, failed)
        units = LAYER_UNITS
    else:
        metrics = end_to_end_report(runs, setups, ready)
        units = END_TO_END_UNITS
    correct = not any(
        r["failed_ops"] for r in runs
    ) and (baseline is None or not baseline["failed_ops"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def end_to_end_report(runs, setups, ready) -> dict:
    rss = runs[-1]["rss_kib"]
    return {
        "items_per_s": _median([r["items"] / r["wall_s"] for r in runs]),
        "wall_s": _median([r["wall_s"] for r in runs]),
        "setup_s": _median(setups),
        "peak_rss_mb": (rss["self"] + ready["pool_workers"] * rss["children"]) / 1024.0,
    }


def layer_report(runs, ready, baseline, shift, attempted, failed) -> dict:
    per_run = [r["layers"] for r in runs]
    first = per_run[0]
    out = {k: statistics.median(r[k] for r in per_run) for k in first}
    # exact program counts come from the first run, not a median
    for k in COUNT_METRICS:
        out[k] = first[k]
    out.update(ready.get("layers", {}))
    out["sim.schedule_compiles_setup"] = ready["compiles"]
    out["failed_frac"] = failed / attempted if attempted else 0.0
    out["t_shift_err"] = (shift or {}).get("t_shift_err") or 0.0
    out["trace.overhead_frac"] = (
        out["trace.wall_s"] / baseline["wall_s"] - 1.0 if baseline else 0.0
    )
    return out


COUNT_METRICS = (
    "clocking.step_calls", "sim.settle_calls", "sim.gate_evals",
    "sim.schedule_compiles_run", "sim.schedule_hits", "power.acc_add_calls",
    "power.record_wire_calls", "power.max_planes", "power.overflow_bins",
    "power.clamped_events", "transport.pipe_bytes", "campaign.checkpoints",
    "compile.ge_total",
)

LAYER_UNITS = {
    "des.build_s": "s",
    "des.run_batch_s": "s",
    "clocking.step_calls": "count",
    "clocking.step_self_s": "s",
    "sim.settle_calls": "count",
    "sim.settle_self_s": "s",
    "sim.replay_s": "s",
    "sim.gate_evals": "count",
    "sim.replay_ns_per_gate_lane": "ns",
    "sim.schedule_compiles_setup": "count",
    "sim.schedule_compiles_run": "count",
    "sim.schedule_compile_s": "s",
    "sim.schedule_hits": "count",
    "power.acc_add_calls": "count",
    "power.acc_add_s": "s",
    "power.flush_s": "s",
    "power.record_wire_calls": "count",
    "power.record_wire_s": "s",
    "power.max_planes": "count",
    "power.overflow_bins": "count",
    "power.clamped_events": "count",
    "batch.noise_s": "s",
    "tvla.update_s": "s",
    "tvla.update_ns_per_trace_sample": "ns",
    "tvla.merge_s": "s",
    "tvla.t_stats_s": "s",
    "campaign.batch_p50_s": "s",
    "campaign.batch_p95_s": "s",
    "campaign.pool_setup_s": "s",
    "campaign.await_s": "s",
    "campaign.worker_busy_frac": "ratio",
    "transport.pipe_bytes": "bytes",
    "transport.pack_s": "s",
    "transport.unpack_s": "s",
    "campaign.checkpoints": "count",
    "campaign.checkpoint_s": "s",
    "compile.anf_s": "s",
    "compile.lower_s": "s",
    "compile.refresh_s": "s",
    "compile.schedule_s": "s",
    "compile.emit_s": "s",
    "certify.functional_s": "s",
    "certify.static_s": "s",
    "certify.exact_s": "s",
    "compile.ge_total": "GE",
    "failed_frac": "ratio",
    "t_shift_err": "abs_t",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
