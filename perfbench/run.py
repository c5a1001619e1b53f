#!/usr/bin/env python3
"""Wall-clock benchmark of parsyrk SYRK requests.

    python3 perfbench/run.py --workload skinny_planned --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the driver from
source into .bench_build/perfbench (CMake, Release); later runs reuse it.
The driver executes one workload for --seconds and checks every result
against a syrk_reference oracle; this script reduces its raw samples with
stats.py, prints every metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.

Exit status: 0 when every request was correct, 1 when any was not, 2 when
the driver could not be built or run (no JSON line is printed then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout as found

import stats  # noqa: E402

WORKLOADS = ("skinny_planned", "wide_1d", "service_mix")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures (once) and builds the driver; returns its path."""
    build_dir = root / ".bench_build" / "perfbench"
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        cwd=root, timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return build_dir / "perfbench_driver"


def run_driver(driver, args, root):
    env = dict(os.environ)
    # Verification and tracing stay off in every timed run, and the
    # micro-kernel is the build's default choice.
    for var in ("PARSYRK_VERIFY", "PARSYRK_UKERNEL"):
        env.pop(var, None)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                                env=env, timeout=DRIVER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"driver did not finish: {e}")
    if result.stderr:
        print(result.stderr, file=sys.stderr, end="")
    lines = result.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"driver exited {result.returncode} without a report")
    return raw, result.returncode


def load_record():
    with open(HERE / "workloads.json") as f:
        return json.load(f)


def end_to_end(raw):
    """name -> (value, unit, note)."""
    out = {}
    out["setup_s"] = (stats.median(raw["setup_s"]), "s",
                      f"median of {len(raw['setup_s'])} setups")
    lat_ms = [x * 1e3 for x in raw["latency_s"]]
    rounds = raw["latency_round"]
    per_round = stats.group_medians(lat_ms, rounds)
    out["latency_p50_ms"] = (stats.median(per_round), "ms",
                             f"median over {len(per_round)} rounds of the "
                             f"round's p50, n={len(lat_ms)}")
    bursts = raw["bursts"]
    done = sum(b[0] for b in bursts)
    note = f"median of {len(bursts)} bursts, {done:g} requests"
    out["gmacs_per_s"] = (stats.median([b[1] / b[2] / 1e9 for b in bursts]),
                          "GMAC/s", note)
    out["throughput_rps"] = (stats.median([b[0] / b[2] for b in bursts]),
                             "req/s", note)
    out["words_per_request"] = (raw["words_per_request"], "words",
                                "critical-path ledger words")
    out["peak_rss_mb"] = (raw["peak_rss_mb"], "MiB", "ru_maxrss")
    return out


def per_layer(raw, problems):
    """name -> (value, unit, note). Appends failed checks to `problems`."""
    series = raw["series"]
    pos = series["position"]

    def cyc(name):
        return stats.cycle_mean(series[name], pos)

    out = {}
    out["matrix.kernel_1core_ms"] = (cyc("matrix.kernel_1core_s") * 1e3, "ms",
                                     "syrk_lower on all of A, one core")
    kernel_s = cyc("matrix.kernel_rank_s")
    out["matrix.kernel_rank_ms"] = (kernel_s * 1e3, "ms", "busiest rank")
    out["matrix.kernel_gmacs_per_s"] = (
        cyc("matrix.kernel_macs") / kernel_s / 1e9, "GMAC/s",
        "executed MACs, all ranks / busiest rank's kernel time")
    out["matrix.pack_bytes"] = (cyc("matrix.pack_bytes"), "bytes",
                                "all ranks")
    out["simmpi.dispatch_us"] = (cyc("simmpi.dispatch_s") * 1e6, "us",
                                 "empty World::run")
    out["simmpi.collective_ms"] = (cyc("simmpi.collective_s") * 1e3, "ms",
                                   "last exit - last entry, per phase")
    out["simmpi.imbalance_ms"] = (cyc("simmpi.imbalance_s") * 1e3, "ms",
                                  "last entry - first entry, per phase")
    for phase in ("gather_A", "reduce_C"):
        for kind, unit in (("words", "words"), ("messages", "count")):
            name = f"simmpi.{phase}.{kind}"
            out[name] = (cyc(name), unit, "replayed, busiest rank")
    out["core.plan_us"] = (cyc("core.plan_s") * 1e6, "us",
                           "resolve_plan_report")
    out["core.syrk_ms"] = (cyc("core.syrk_s") * 1e3, "ms", "core::syrk span")
    self_ms = cyc("core.self_s") * 1e3
    self_spread_ms = stats.cycle_spread(series["core.self_s"], pos) * 1e3
    out["core.self_ms"] = (self_ms, "ms",
                           f"syrk - dispatch - kernel - collective; "
                           f"quartile distance {self_spread_ms:.4f} ms")
    if self_ms < 0 and -self_ms > self_spread_ms:
        problems.append(f"core.self_ms = {self_ms:.4f} ms is negative beyond "
                        f"its spread ({self_spread_ms:.4f} ms)")

    sc = raw["scalars"]

    def share(part, base, unit_of_base):
        # A ratio over an empty base (e.g. no plan-cache lookups when the
        # plan is pinned) reads 0, with the base saying why.
        r = stats.ratio(part, base)
        return (r.value if r.value is not None else 0.0, "ratio",
                f"base {r.base:g} {unit_of_base}")

    out["service.queue_ms"] = (stats.median(series["service.queue_s"]) * 1e3,
                               "ms", "p50 RequestLatency::queue_seconds")
    out["service.exec_ms"] = (stats.median(series["service.exec_s"]) * 1e3,
                              "ms", "p50 RequestLatency::service_seconds")
    out["service.submit_us"] = (stats.median(series["service.submit_s"]) * 1e6,
                                "us", "p50 SyrkService::submit span")
    gap = share(sc["service.gap_s"] * 1e3, sc["service.jobs"], "jobs")
    out["service.gap_ms_per_request"] = (gap[0], "ms", gap[2])
    out["service.utilisation"] = share(sc["service.busy_rank_s"],
                                       sc["service.window_rank_s"],
                                       "rank-seconds")
    out["service.plan_cache_hit_ratio"] = share(
        sc["service.plan_cache_hits"], sc["service.plan_cache_lookups"],
        "lookups")
    out["service.interleaved_ratio"] = share(
        sc["service.interleaved_jobs"], sc["service.rounds"], "dispatches")
    late = series["service.generator_late_s"]
    late_tail = stats.tail([x * 1e3 for x in late])
    note = "p50 submit - due"
    if late_tail is not None:
        note += (f"; p{late_tail.percentile:g} {late_tail.value:.4f} ms "
                 f"({late_tail.beyond} beyond)")
    out["service.generator_late_ms"] = (stats.median(late) * 1e3, "ms", note)
    backlog = series["service.outstanding"]
    quarter = max(1, len(backlog) // 4)
    first = sum(backlog[:quarter]) / quarter
    last = sum(backlog[-quarter:]) / quarter
    growing = last - first > 4 and last > 2 * first
    out["service.backlog_growth"] = (
        last - first, "requests",
        f"outstanding at submit, last vs first quarter "
        f"({last:.2f} vs {first:.2f}){'; GROWING' if growing else ''}")

    lat_ms = [x * 1e3 for x in raw["latency_s"]]
    t = stats.tail(lat_ms)
    if t is None:
        raise ValueError(f"{len(lat_ms)} latency samples leave no tail")
    out["request.latency_tail_ms"] = (
        t.value, "ms", f"p{t.percentile:g}, {t.beyond} samples beyond, "
        f"n={t.count}; untraced half")

    traced = stats.median(series["trace.latency_s"])
    untraced = stats.median(raw["latency_s"])
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio",
                                  f"traced p50 {traced * 1e3:.4f} ms vs "
                                  f"untraced {untraced * 1e3:.4f} ms")
    return out


def check_record(raw, workload, problems):
    """Compares the chosen plan and words with the committed record. A
    changed plan is reported, not failed; changed words under the same plan
    are a failure."""
    record = load_record()["workloads"][workload]
    plan = raw["info"].get("plan")
    if plan != record["plan"]:
        print(f"plan changed: {plan!r} (recorded: {record['plan']!r})")
        return
    if raw["words_per_request"] != record["words_per_request"]:
        problems.append(f"words_per_request {raw['words_per_request']} != "
                        f"recorded {record['words_per_request']} under the "
                        f"same plan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    driver = build(root)
    raw, code = run_driver(driver, args, root)

    for key in ("workload", "seed", "shape", "ranks", "arrival", "plan",
                "nproc", "ukernel", "build_type"):
        if key in raw["info"]:
            print(f"{key}: {raw['info'][key]}")
    problems = [f"request failed: {e}" for e in raw["errors"]]
    if code != 0 and not problems:
        problems.append(f"driver exited {code}")
    check_record(raw, args.workload, problems)

    attempted = raw["attempted"]
    failed = raw["failed"]
    print(f"{'error_rate':28s} {failed / max(attempted, 1):<14.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")
    try:
        metrics = per_layer(raw, problems) if args.trace else end_to_end(raw)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        for p in problems:
            print(f"CHECK FAILED: {p}")
        fail(f"no metrics from the driver's report ({e!r})")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:<14.6g} {unit:8s} ({note})")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
