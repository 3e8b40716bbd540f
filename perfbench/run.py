#!/usr/bin/env python3
"""The repository benchmark: campaign workloads end to end, layers traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smt_predictors --seed 3 --seconds 20 --trace 0

It builds the `perfbench` package beside this file (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one end-to-end pass
after another, each in a fresh process, until --seconds is spent. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes, times every layer's public functions
(`perfbench probe`) and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Every pass checks its outputs: the campaign's standard output and the
canonical stores must match the digests pinned in digests.json (default
seed) or the first pass of the run (any other seed), the `conformance:`
rollup must pass, and a resume pass over the same stores must execute no
job.
See README.md beside this file for the metrics and workloads.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("smt_predictors", "replay_sharded")
# A pass prints these lines before the campaign's standard output and
# before its resume pass's (src/pass.rs).
RUN_MARKER = b"==perfbench run==\n"
RESUME_MARKER = b"==perfbench resume==\n"
CONFORMANCE = re.compile(
    r"^conformance: .* — \d+ entr(?:y|ies), (\d+) pass, (\d+) fail, (\d+) missing$",
    re.MULTILINE)
MIN_PASSES = 3
# A pass that runs this long is stuck; it is killed and counted as failed.
PASS_TIMEOUT_S = 120
# Seconds of one run of the host kernel (src/host.rs) on the 2-vCPU
# development box at its usual speed; end-to-end times are scaled to this
# speed (README.md, "Host speed").
HOST_REFERENCE_S = 0.0006


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    raw = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return raw if os.path.isabs(raw) else os.path.join(ROOT, raw)


def build():
    """Builds the measuring binary; exits non-zero without a result if the
    sources are missing or do not compile."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def child_env():
    # The binary sets every simulator knob itself; inherited ones could
    # only change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("SBP_")}


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def sections(out):
    """Splits a pass's standard output, up to its last line, into the
    campaign output of its run and that of its resume pass (None without
    one)."""
    body = out[out.find(RUN_MARKER) + len(RUN_MARKER):] if RUN_MARKER in out else b""
    cut = body.rstrip(b"\n").rfind(b"\n") + 1
    run, sep, resume = body[:cut].partition(RESUME_MARKER)
    return run, (resume if sep else None)


def run_child(cmd, log_path):
    """Runs one measuring process to completion. Returns its standard
    output, last line, exit code, and the CPU seconds and peak resident MB
    of it and every child it reaped (wait4 rusage)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=log, start_new_session=True,
        )

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(PASS_TIMEOUT_S, kill)
        timer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # Workers the pass left behind (it crashed or was killed) share its
    # process group: stop them and wait until they are gone.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    lines = out.decode(errors="replace").strip().splitlines()
    return {
        "out": out,
        "line": lines[-1] if lines else "",
        "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self, pinned):
        # Expected digests by output; a re-seeded run adopts each from the
        # first pass that has it.
        self.expected = dict(pinned or {})
        self.adopt = pinned is None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def miss(self, count, reason):
        self.failed += count
        self.reasons.append(reason)

    def check_digest(self, what, digest):
        if digest is None:
            return True
        if self.adopt:
            self.expected.setdefault(what, digest)
        return self.expected.get(what) == digest

    def check_pass(self, result, log_path):
        """Counts one pass's operations: its jobs, its verdict rows, the
        output check and, where it has one, the resume check."""
        if result["code"] != 0 or not result["line"].startswith("{"):
            self.attempted += 1
            self.miss(1, f"pass exited {result['code']} (see {log_path})")
            return None
        p = json.loads(result["line"])
        jobs = p["jobs"]
        if p.get("error"):
            self.attempted += jobs + 2
            self.miss(jobs + 2, f"run failed: {p['error']}")
            return None
        run_out, resume_out = sections(result["out"])
        rollup = CONFORMANCE.findall(run_out.decode(errors="replace"))
        if len(rollup) != 1:
            self.attempted += jobs + 1
            self.miss(jobs + 1, f"no conformance rollup in the output (see {log_path})")
            return None
        passed, failed, missing = (int(v) for v in rollup[0])
        resumed = p["resume_executed"] is not None
        self.attempted += jobs + passed + failed + missing + 1 + resumed
        if p["executed"] != jobs:
            self.miss(abs(jobs - p["executed"]), f"executed {p['executed']} of {jobs} jobs")
        if failed or missing:
            self.miss(failed + missing, "conformance rollup failed")
        stdout = fnv1a64(run_out)
        if not (self.check_digest("stdout", stdout)
                and self.check_digest("stores", p["store_digest"])):
            self.miss(1, f"output digests stdout {stdout}, stores {p['store_digest']} "
                      f"!= expected {self.expected}")
        if resumed:
            same = (p["resume_store_digest"] == p["store_digest"]
                    and (resume_out is None or fnv1a64(resume_out) == stdout))
            if p["resume_executed"] or not same:
                self.miss(1, f"resume pass executed {p['resume_executed']} jobs "
                          "or changed outputs")
        return p


def tail_label(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    p = math.floor(100 * (n - 10) / n)
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1] if p >= 1 else min(values)
    return f"p{p} {q:.4f} (n={n})"


def measure(binary, args, work, ledger, traced):
    """Runs passes until the time budget is spent. With `traced`, passes
    alternate untraced and traced. Returns (untraced, traced) results."""
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    budget = args.seconds * (0.55 if traced else 1.0)
    start = time.monotonic()
    plain, spanned, walls = [], [], []
    while True:
        for with_spans in ([False, True] if traced else [False]):
            cmd = [binary, "pass", "--workload", args.workload, "--dir", work] + seed
            if with_spans:
                cmd.append("--traced")
            log_path = os.path.join(work, "pass.log")
            t = time.monotonic()
            result = run_child(cmd, log_path)
            walls.append(time.monotonic() - t)
            p = ledger.check_pass(result, log_path)
            if p is None:
                return plain, spanned
            # The pass repeats set-up for a steady setup_s; the program
            # sets up once, inside the run.
            p["cpu_s"] = result["cpu_s"] - p["setup_cpu_s"]
            p["rss_mb"] = result["rss_mb"]
            (spanned if with_spans else plain).append(p)
        elapsed = time.monotonic() - start
        step = statistics.median(walls) * (2 if traced else 1)
        enough = len(plain) >= (1 if traced else MIN_PASSES)
        if enough and elapsed + step > budget:
            return plain, spanned


def trimmed_mean(values):
    """The mean of the values without the highest and lowest tenth (at
    least one of each from five values on). On a shared host a pass runs
    at one of two speeds, most likely as neighbours leave the shared
    cache to it or take it, so pass times are bimodal: a median jumps from
    one mode to the other from run to run, a mean moves with the share of
    each (README.md, "End-to-end metrics")."""
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10) if len(ordered) >= 5 else 0
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(plain):
    """Times are scaled to the host's usual speed (README.md, "Host
    speed"); the text output also gives them as measured."""
    host = [p["host_s"] for p in plain]
    scale = HOST_REFERENCE_S / trimmed_mean(host)
    series = {
        "run_s": ("s", [p["run_s"] for p in plain], scale),
        "setup_s": ("s", [p["setup_s"] for p in plain], scale),
        "cpu_s": ("s", [p["cpu_s"] for p in plain], scale),
        "peak_rss_mb": ("MB", [p["rss_mb"] for p in plain], 1.0),
    }
    lines = [f"  {'host kernel':<16} {trimmed_mean(host):12.9f} s   trimmed mean; "
             f"scale {scale:.6f}; passes: {' '.join(f'{v:.6g}' for v in host)}"]
    metrics = {}
    for name, (unit, values, factor) in series.items():
        value = trimmed_mean(values) * factor
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<16} {value:12.6f} {unit:<3} trimmed mean"
                     f"{' scaled' if factor != 1.0 else ''}; as measured: trimmed mean "
                     f"{trimmed_mean(values):.6f}, median {statistics.median(values):.6f}; "
                     f"{tail_label(values)}")
        lines.append(f"  {'':<16} passes: {' '.join(f'{v:.6g}' for v in values)}")
    return metrics, lines


def per_layer(plain, spanned, probe, workload):
    """Per-layer metrics from the traced passes' spans and the probes."""
    layers = [p["layers"] for p in spanned]

    def med(key):
        return statistics.median(layer[key] for layer in layers)

    m = dict(probe["metrics"])
    m["sweep.plan_s"] = med("plan_s")
    m["sweep.exec.job_s.p50"] = med("job_s_p50")
    m["sweep.exec.job_s.max"] = med("job_s_max")
    m["sweep.store.append_us"] = med("append_us")
    m["sweep.store.open_s"] = med("open_s")
    m["sweep.run.merge_s"] = med("merge_s")
    m["sweep.build_report_s"] = med("build_report_s")
    m["sweep.verdict_s"] = med("verdict_s")
    m["campaign.worker_busy.max_over_mean"] = med("busy_max_over_mean")
    m["campaign.resume_s"] = statistics.median(p["resume_s"] for p in spanned)
    # Per-cell and per-trial figures from the run itself where the
    # workload has such cells; the probe's otherwise.
    if all(layer["sampled_jobs"] for layer in layers):
        m["sim.sampling.run_sampled_s"] = med("sampled_s") / med("sampled_jobs")
    if all(layer["attack_jobs"] for layer in layers):
        m["attack.trials_per_s"] = med("attack_trials") / med("attack_s")

    traced_run = trimmed_mean([p["run_s"] for p in spanned])
    untraced_run = trimmed_mean([p["run_s"] for p in plain])
    m["tracing.overhead_s"] = traced_run - untraced_run
    m["traced.run_s"] = traced_run

    # Coverage at cell level: the probed cost of the plan's cells spread
    # over the executors that ran them, plus the run's serial layers,
    # against the traced run_s. It is not a sum of the per-layer unit
    # costs above times work counts, so it cannot name a layer inside a
    # cell that nothing measures (README.md, "Coverage").
    width = max(1, round(med("executors")))
    cells = probe["cells"]["estimate_s"] / width
    appends = med("append_us") * 1e-6 * med("appends") / width
    serial = med("run_serial_s")
    coverage = (cells + appends + serial) / traced_run
    m["attribution.coverage"] = coverage
    busy = med("job_s_sum")
    idle = max(0.0, traced_run * width - busy) / width
    notes = [
        f"  cell-level coverage: cells {cells:.3f} s + store appends {appends:.4f} s + "
        f"merge/report/verdict/gc {serial:.4f} s over {width} executor(s) = "
        f"{coverage:.3f} of traced run_s {traced_run:.3f} s "
        f"({probe['cells']['sampled']} of {probe['cells']['planned']} cells probed)",
    ]
    if coverage < 0.9:
        rest = ("worker spawn and exit, store reads" if workload == "replay_sharded"
                else "cells running slower beside each other than alone")
        notes.append(
            f"  coverage shortfall {1 - coverage:.3f}: executors sat idle {idle:.3f} s "
            f"each (busy max/mean {med('busy_max_over_mean'):.3f}); the rest is "
            f"unmeasured: {rest}"
        )
    notes.append(
        f"  tracing overhead: traced run_s {traced_run:.4f} s - untraced {untraced_run:.4f} s "
        f"= {traced_run - untraced_run:+.4f} s"
    )
    return m, notes


def load_pins(workload):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)[workload]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; omitted, the catalog master seeds "
                        "and the pinned output digests are used")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work = os.path.join(target_dir(), "perfbench-work", args.workload)
    os.makedirs(work, exist_ok=True)
    ledger = Ledger(load_pins(args.workload) if args.seed is None else None)
    plain, spanned = measure(binary, args, work, ledger, traced=args.trace == 1)

    seed = "catalog" if args.seed is None else args.seed
    print(f"perfbench {args.workload} seed={seed}: {len(plain)} untraced and "
          f"{len(spanned)} traced pass(es)")
    metrics = {}
    if args.trace == 0 and plain:
        metrics, lines = end_to_end(plain)
        print("\n".join(lines))
    elif args.trace == 1 and plain and spanned:
        cmd = [binary, "probe", "--workload", args.workload, "--dir", work]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        log_path = os.path.join(work, "probe.log")
        result = run_child(cmd, log_path)
        ledger.attempted += 1
        if result["code"] != 0 or not result["line"].startswith("{"):
            ledger.miss(1, f"probe exited {result['code']} (see {log_path})")
        else:
            values, notes = per_layer(plain, spanned, json.loads(result["line"]),
                                      args.workload)
            units = {}
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                for spec in json.load(f)["per_layer"]:
                    units[spec["name"]] = spec["unit"]
            missing = sorted(set(units) - set(values))
            if missing:
                fail(f"per-layer metrics not measured: {', '.join(missing)}")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}
            for name, v in metrics.items():
                print(f"  {name:<44} {v['value']:16.6f} {v['unit']}")
            print("\n".join(notes))
    # Deleting the replay traces drops their pages not yet written back,
    # so the disk does not write a few hundred MB into the next run.
    shutil.rmtree(os.path.join(work, "traces"), ignore_errors=True)
    fraction = ledger.failed / max(1, ledger.attempted)
    print(f"  {'ops_failed_frac':<16} {fraction:12.6f} frac ({ledger.failed} of "
          f"{ledger.attempted} operations failed)")
    for reason in ledger.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
