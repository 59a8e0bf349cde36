#!/usr/bin/env python3
"""End-to-end benchmark for dctcpp.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload incast40|incast1400|churn \
        --seed N --seconds T --trace 0|1 [--quick]

Builds perfbench/harness.cc against the simulator sources in src/ (plain
and DCTCPP_PROFILE=ON flavours, both RelWithDebInfo + LTO) under
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks the
simulated results, prints a human-readable report and, as the last line
of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from the plain
build and cross-checks the traced build's results. --trace 1 reports the
per-layer metrics from the traced build. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("incast40", "incast1400", "churn")
# Full passes over a workload's distinct calls that a measured run makes at
# least. The fastest-repeat estimators use exactly these first passes, so
# the number of repeats they see does not grow with the program's speed.
# Each fits in a 25 s run on a 4-vCPU Xeon VM even in its slow spells.
PASSES = {"incast40": 8, "incast1400": 7, "churn": 7}
QUICK_PASSES = 2
# Host-speed calibration (harness.cc, Calibrator): a chunk's wall time when
# the host runs at full speed, and how many chunks on each side of a call
# give the host speed around it.
CHUNK_NOMINAL_NS = 2.0e6
NEIGHBOURS = 8
# Wall-clock guard for everything after the build: the whole run must end
# well inside three minutes.
RUN_DEADLINE_S = 165.0
PHASE_METRIC = {
    "wheel_pop": "sim.wheel_pop",
    "demux": "net.demux",
    "enqueue": "net.enqueue",
    "socket_ack": "tcp.socket_ack",
    "cwnd_update": "core.cwnd_update",
}


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------------


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target).resolve()


def build(flavour, profile):
    """Configures and builds one flavour of the harness; returns its path."""
    out = build_root() / flavour
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as logf:
            steps = [
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DDCTCPP_PROFILE=" + ("ON" if profile else "OFF")],
                ["cmake", "--build", str(out), "--target", "perfbench_harness",
                 "-j", str(os.cpu_count() or 1)],
            ]
            for cmd in steps:
                if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    tail = log.read_text(errors="replace")[-3000:]
                    raise BenchError(f"build of {flavour} failed:\n{tail}")
    return out / "perfbench_harness"


# --- running the harness -----------------------------------------------------


def run_harness(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before " + binary.parent.name)
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{binary.parent.name} harness timed out")
    if proc.returncode != 0:
        raise BenchError(f"{binary.parent.name} harness exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


# --- statistics --------------------------------------------------------------


def ratio(num, den):
    return num / den if den else 0.0


def calibrate(calls):
    """Sets each timed call's `scale`, the host's speed around it relative to
    full speed, and `cal_ns`, its wall time times that scale. The speed is
    read from the median calibration chunk of the call and its NEIGHBOURS
    neighbours on each side, in the order the calls ran."""
    refs = [c["ref_ns"] for c in calls]
    for i, c in enumerate(calls):
        near = refs[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        c["scale"] = CHUNK_NOMINAL_NS / statistics.median(near)
        c["cal_ns"] = c["wall_ns"] * c["scale"]


def setup_scale(refs):
    """The host speed just before a set-up, from the calibration chunks the
    harness ran there. Set-up is too short to interleave chunks with."""
    return CHUNK_NOMINAL_NS / statistics.median(refs)


def combine_digests(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


# --- per-workload views ------------------------------------------------------
#
# Both views reduce the harness's raw output to the same shape:
#   calls      every timed call: wall_ns, run_ns (wall_ns without the
#              checkpoint save, which the profiler does not see), ref_ns
#              (the calibration chunk after it), scale and cal_ns (see
#              calibrate; measure mode only), packets, profile
#   groups     the timed calls of the first `passes` passes grouped by
#              distinct call (incast: seed; churn: window index), each
#              group holding its repeats
#   first      the calls of the first pass (deterministic for a seed)
#   failures   list of check-failure strings
#   operations()   attempted / failed, the contract's failure channel


class IncastView:
    def __init__(self, raw, passes):
        self.raw = raw
        self.passes = passes
        self.calls = raw["calls"]
        k = raw["distinct_seeds"]
        self.first = self.calls[:k]
        self.failures = []
        first_digest = {}
        for c in self.calls:
            c["run_ns"] = c["wall_ns"]
            if c["violations"]:
                self.failures.append(f"seed {c['seed']}: {c['violations']} "
                                     "invariant violations")
            if not c["ledger_ok"]:
                self.failures.append(f"seed {c['seed']}: inconsistent ledger")
            if first_digest.setdefault(c["seed"], c["digest"]) != c["digest"]:
                self.failures.append(f"seed {c['seed']}: repeat call diverged")
        if raw["mode"] == "measure":
            calibrate(self.calls)
        self.passes_run = [self.calls[i:i + k]
                           for i in range(0, len(self.calls), k)][:passes]
        self.groups = [list(g) for g in zip(*self.passes_run)]

    def digests(self):
        return [c["digest"] for c in self.first]

    def operations(self):
        attempted = failed = 0
        for c in self.calls:
            attempted += c["rounds"]
            bad = c["violations"] or not c["ledger_ok"]
            failed += (c["rounds"] if bad else
                       c["rounds"] - c["rounds_completed"])
        return attempted, failed

    def setup_s(self):
        """Median over the first `passes` passes of the set-up-only calls'
        summed time, each scaled by the host speed just before it."""
        return statistics.median(
            sum(ns) * setup_scale(refs) for ns, refs in
            zip(self.raw["setup_ns"][: self.passes],
                self.raw["setup_ref_ns"])) / 1e9

    def goodput_mbps(self):
        return statistics.fmean(c["goodput_mbps"] for c in self.first)

    def counts(self):
        f = self.first
        pkts = sum(c["packets"] for c in f)
        timeouts = sum(c["timeouts"] for c in f)
        n = len(f)
        return {
            "sim.events_per_pkt": ratio(sum(c["events"] for c in f), pkts),
            "net.drops_per_kpkt":
                1000 * ratio(sum(c["drops"] for c in f), pkts),
            "net.ecn_marks_per_kpkt":
                1000 * ratio(sum(c["bottleneck_marks"] for c in f), pkts),
            "net.max_queue_kb": max(c["max_queue_bytes"] for c in f) / 1024,
            "net.duplicates": sum(c["duplicates"] for c in f),
            "net.checksum_discards": sum(c["checksum_discards"] for c in f),
            "tcp.timeouts_per_call": ratio(timeouts, n),
            "tcp.floss_share": ratio(sum(c["floss_timeouts"] for c in f),
                                     timeouts),
            "tcp.fast_retransmits_per_call":
                ratio(sum(c["fast_retransmits"] for c in f), n),
            "core.tracked_rounds_at_min_ece":
                ratio(sum(c["tracked_rounds_at_min_ece"] for c in f), n),
        }


class ChurnView:
    def __init__(self, raw, passes):
        self.raw = raw
        self.episodes = raw["episodes"]
        self.timed = [e for e in self.episodes if e["timed"]]
        self.measured = self.timed[:passes]
        self.calls = [w for e in self.timed for w in e["windows"]]
        self.first = self.episodes[0]["windows"]
        self.groups = [list(g) for g in
                       zip(*(e["windows"] for e in self.measured))]
        if self.calls:
            calibrate(self.calls)
        self.failures = []
        for c in self.episodes[0]["windows"] + self.calls:
            c["run_ns"] = c["wall_ns"] - c["save_ns"]
            if c["violations"]:
                self.failures.append(f"{c['violations']} invariant violations")
            if not c["ledger_ok"]:
                self.failures.append("inconsistent merged ledger")
        for i, e in enumerate(self.episodes):
            if not e["restore_equal"]:
                self.failures.append(
                    f"episode {i}: restored fingerprint differs")
            ep0 = self.episodes[0]
            if (e["digest"], e["fingerprint"]) != (ep0["digest"],
                                                   ep0["fingerprint"]):
                self.failures.append(f"episode {i}: diverged from episode 0")

    def digests(self):
        return [self.episodes[0]["digest"]]

    def operations(self):
        attempted = failed = 0
        for c in self.calls:
            attempted += c["arrivals"]
            bad = c["violations"] or not c["ledger_ok"]
            failed += (c["arrivals"] if bad else
                       c["arrivals_dropped"] + c["accepts_dropped"])
        return attempted, failed

    def setup_s(self):
        """Median build time (construction + Start) over the first `passes`
        timed episodes, each scaled by the host speed just before it."""
        return statistics.median(e["setup_s"] * setup_scale(e["setup_ref_ns"])
                                 for e in self.measured)

    def goodput_mbps(self):
        e = self.episodes[0]
        bits = 8 * sum(c["bytes_received"] for c in e["windows"])
        return bits / (e["sim_ms"] / 1000) / 1e6

    def counts(self):
        e = self.episodes[0]
        f = self.first
        pkts = sum(c["packets"] for c in f)
        shard_events = e["shard_events"]
        saves = [c["save_ns"] / 1e6 for c in self.calls if c["save_ns"]]
        restores = [x["restore_ms"] for x in self.timed]
        return {
            "sim.events_per_pkt": ratio(sum(c["events"] for c in f), pkts),
            "sim.checkpoint_save_ms":
                statistics.median(saves) if saves else 0.0,
            "sim.checkpoint_mb": e["checkpoint_mb"],
            "sim.checkpoint_restore_ms": statistics.median(restores),
            "net.drops_per_kpkt": 1000 * ratio(e["drops"], pkts),
            "net.duplicates": e["duplicates"],
            "net.checksum_discards": e["checksum_discards"],
            "net.parallel_sync_rounds_per_ms":
                ratio(e["sync_rounds"], e["sim_ms"]),
            "net.parallel_windows_per_ms":
                ratio(e["parallel_windows"], e["sim_ms"]),
            "net.parallel_cross_shard_frac":
                ratio(e["cross_shard_handoffs"], e["calendar_deliveries"]),
            "net.parallel_balance_bound":
                ratio(sum(shard_events), max(shard_events)),
            "workload.bytes_per_flow": e["bytes_per_flow"],
            "workload.peak_live": e["peak_live"],
            "workload.arrivals_dropped":
                sum(c["arrivals_dropped"] for c in f),
        }


def view_of(raw, passes):
    view = ChurnView if raw["workload"] == "churn" else IncastView
    return view(raw, passes)


def fastest(view, key="cal_ns"):
    """Each distinct call's fastest calibrated repeat over the first
    `passes` passes. The host's speed drifts by up to 1.6x over minutes and
    flips faster within them (other tenants of a shared VM); calibration
    removes the drift and the minimum over repeats the flips
    (perfbench/README.md, Steadiness)."""
    return [min(g, key=lambda c: c[key]) for g in view.groups]


def pkts_per_s(view, key="cal_ns"):
    best = fastest(view, key)
    return ratio(sum(c["packets"] for c in best),
                 sum(c[key] for c in best) / 1e9)


def end_to_end(view):
    # The median and the p90 are taken over the distinct calls, each at its
    # fastest repeat, like pkts_per_s. With 100 distinct calls, ten lie
    # beyond the p90. On churn it lands among the checkpoint windows.
    best_ms = [c["cal_ns"] / 1e6 for c in fastest(view)]
    attempted, failed = view.operations()
    return {
        "pkts_per_s": pkts_per_s(view),
        "call_ms_p50": statistics.median(best_ms),
        "call_ms_p90":
            statistics.quantiles(best_ms, n=10, method="inclusive")[8],
        "setup_s": view.setup_s(),
        "peak_rss_mb": view.raw["peak_rss_mb"],
        "sim_goodput_mbps": view.goodput_mbps(),
    }, attempted, failed


def per_layer(traced, plain):
    """Traced self time per forwarded packet, plus exact counts."""
    names = traced.raw["phase_names"]
    calls = traced.calls
    cycles = [sum(c["cycles"][p] for c in calls) for p in range(len(names))]
    ns_per_cycle = ratio(sum(c["run_ns"] for c in calls), sum(cycles))
    pkts = sum(c["packets"] for c in calls)
    # Hits are exact counts: take them from one repeat of each distinct call
    # so they repeat across runs of a seed.
    once = [g[0] for g in traced.groups]
    once_pkts = sum(c["packets"] for c in once)
    values = {}
    for p, name in enumerate(names):
        hits = sum(c["hits"][p] for c in once)
        prefix = PHASE_METRIC.get(name)
        if prefix is None:  # "other": everything outside a profiler scope
            values["workload.other_ns_per_pkt"] = ratio(
                cycles[p] * ns_per_cycle, pkts)
            continue
        values[prefix + "_ns_per_pkt"] = ratio(cycles[p] * ns_per_cycle, pkts)
        values[prefix + "_hits_per_pkt"] = ratio(hits, once_pkts)
    values.update(traced.counts())
    values["trace.overhead"] = ratio(pkts_per_s(plain), pkts_per_s(traced))
    return values


# --- environment header ------------------------------------------------------


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_state():
    """Commit and dirty flag when the checkout is a git tree, plus a hash
    of the simulator and benchmark sources that works either way."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    commit, dirty = "none (not a git checkout)", "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, cwd=ROOT)
            st = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True, cwd=ROOT)
        except OSError:  # git not installed
            rev = None
        if rev is not None and rev.returncode == 0:
            commit = rev.stdout.strip()
            dirty = "yes" if st.stdout.strip() else "no"
    return commit, dirty, h.hexdigest()[:16]


def print_header(args, plain_raw, traced_raw):
    commit, dirty, src_hash = source_state()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          + (" quick" if args.quick else ""))
    print(f"# nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"cpu={cpu_model()!r}")
    for flavour, raw in (("plain", plain_raw), ("traced", traced_raw)):
        print(f"# {flavour} {raw['mode']}: build_type={raw['build_type']} "
              f"lto={raw['lto']} profiler={raw['profiler']} "
              f"threads={raw['threads']}")
    print(f"# commit={commit} dirty={dirty} source_sha256={src_hash}")


# --- main --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size workloads (the benchmark's own test)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain_bin = build("plain", profile=False)
    traced_bin = build("traced", profile=True)

    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        base.append("--quick")
    # The traced build runs churn's shards inline (pool = nullptr), since
    # the profiler counts per thread; the results must not depend on it.
    if args.trace:
        # The plain run only supplies trace.overhead and the digest check.
        # trace.overhead compares the first pass of each.
        passes = 1
        measure = base + ["--mode", "measure", "--passes", "1", "--seconds"]
        traced_raw = run_harness(
            traced_bin, measure + [str(args.seconds)], deadline)
        plain_raw = run_harness(
            plain_bin, measure + [str(args.seconds / 4)], deadline)
    else:
        passes = QUICK_PASSES if args.quick else PASSES[args.workload]
        plain_raw = run_harness(plain_bin, base + [
            "--mode", "measure", "--passes", str(passes),
            "--seconds", str(args.seconds)], deadline)
        traced_raw = run_harness(traced_bin, base + [
            "--mode", "check", "--seconds", "1"], deadline)
    plain, traced = view_of(plain_raw, passes), view_of(traced_raw, passes)

    failures = plain.failures + traced.failures
    n = min(len(plain.digests()), len(traced.digests()))
    if n == 0 or plain.digests()[:n] != traced.digests()[:n]:
        failures.append("traced build diverged from the plain build")
    if (not plain_raw["lto"] or plain_raw["profiler"]
            or not traced_raw["profiler"]):
        failures.append("unexpected build flavour")

    e2e, attempted, failed = end_to_end(plain)
    layer = {}
    if args.trace:
        # A layer the workload bypasses reports 0 (e.g. checkpoints and the
        # shard engine on incast, per-socket TCP counters on churn).
        measured_layer = per_layer(traced, plain)
        layer = {m["name"]: measured_layer.get(m["name"], 0.0)
                 for m in spec["per_layer"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    print_header(args, plain_raw, traced_raw)
    print(f"calls={len(plain.groups)} distinct, {len(plain.calls)} timed "
          f"(pkts_per_s, p50 and p90 use each distinct call's fastest "
          f"calibrated repeat over the first {passes} pass(es), setup_s "
          f"the median calibrated set-up)")
    scales = [c["scale"] for c in plain.calls]
    print(f"host speed (calibration chunk {CHUNK_NOMINAL_NS / 1e6:g} ms at "
          f"1.0): median {statistics.median(scales):.3f}, range "
          f"{min(scales):.3f}-{max(scales):.3f}; pkts_per_s at the fastest "
          f"uncalibrated repeats = {pkts_per_s(plain, key='wall_ns'):.6g} 1/s")
    print(f"digest={combine_digests(plain.digests())} "
          f"(traced build agrees on the first {n})")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in layer.items():
        note = "" if name in measured_layer else "  (layer not exercised)"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_ratio = {ratio(failed, attempted):.6g} "
          f"({failed} of {attempted} operations)")
    for f in failures:
        print("CHECK FAILED: " + f)
    print("checks: " +
          (f"{len(failures)} failed" if failures else "all passed"))

    values = layer if args.trace else e2e
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in section}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
