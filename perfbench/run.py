#!/usr/bin/env python3
"""The repo benchmark: `ic_sched run` and `ic_sched serve` end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds `ic_sched` and `perfbench/icbench` from source with dune, runs one
workload for about S seconds of measurement, checks every output, prints
a per-layer breakdown (with --trace 1), and ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the workloads, metrics and hazards.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
IC_SCHED = os.path.join(ROOT, "_build", "default", "bin", "ic_sched.exe")
ICBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "icbench.exe")

# Every workload is a closed loop using at most 2 domains or 2 client
# connections. `tiny` sizes are the self-test's.
WORKLOADS = {
    "run_wavefront_ic": dict(kind="run", family="wavefront", size=700,
                             tiny=30, order="ic"),
    "run_fft_steal": dict(kind="run", family="fft", size=13, tiny=6,
                          order="steal"),
    "serve_mesh": dict(kind="serve", spec="mesh:512", tiny="mesh:40",
                       journal=False, live=True),
    "serve_butterfly_durable": dict(kind="serve", spec="butterfly:14",
                                    tiny="butterfly:7", journal=True,
                                    live=False),
}

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cpu_us_per_task", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# A layer a workload does not run reports 0 there.
PER_LAYER = [
    ("payload.make_s", "s", "lower"),
    ("dag.build_s", "s", "lower"),
    ("server.create_s", "s", "lower"),
    ("engine.seq_ns_per_task", "ns", "lower"),
    ("par.ns_per_task", "ns", "lower"),
    ("par.tasks_per_s", "1/s", "higher"),
    ("par.speedup", "ratio", "higher"),
    ("par.steal_hit_ratio", "ratio", "higher"),
    ("par.steal_attempts_per_task", "count", "lower"),
    ("par.overflows_per_task", "count", "lower"),
    ("par.parks_per_task", "count", "lower"),
    ("par.imbalance", "ratio", "lower"),
    ("wire.decode_ns", "ns", "lower"),
    ("wire.encode_ns", "ns", "lower"),
    ("wire.bytes_per_task", "B", "lower"),
    ("server.handle_lease_ns", "ns", "lower"),
    ("server.handle_complete_ns", "ns", "lower"),
    ("server.alloc_words_per_task", "words", "lower"),
    ("live.mirror_ns_per_task", "ns", "lower"),
    ("shards.pop_batch_ns", "ns", "lower"),
    ("shard_view.complete_ns", "ns", "lower"),
    ("journal.append_ns", "ns", "lower"),
    ("journal.bytes_per_task", "B", "lower"),
    ("journal.checkpoint_ms", "ms", "lower"),
    ("server.tasks_per_lease", "count", "higher"),
    ("server.retry_afters_per_lease", "count", "lower"),
    ("server.reissues", "count", "lower"),
    ("server.duplicates", "count", "lower"),
    ("server.protocol_errors", "count", "lower"),
    ("server.writes_per_task", "count", "lower"),
    ("server.reads_per_task", "count", "lower"),
    ("server.sys_frac", "ratio", "lower"),
    ("server.ctx_switches_per_task", "count", "lower"),
    ("server.cpu_us_per_task", "us", "lower"),
    ("replay.us_per_task", "us", "lower"),
    ("tcp.residual_us_per_task", "us", "lower"),
    ("client.tasks_per_s", "1/s", "higher"),
    ("client.cpu_us_per_task", "us", "lower"),
    ("client.lease_p50_us", "us", "lower"),
    ("client.lease_p99_us", "us", "lower"),
    ("client.reconnects", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

DOMAINS = 2
CONNECTIONS = 2
WORKERS = 64
K = 16
MEAN_SERVICE_S = 1e-6  # near-zero: the server, not the workers, is measured
MIN_CYCLES = 3
SETUP_SECONDS = 3  # run workloads: Payload.make repeated for this long


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def last_json(text, what):
    lines = [ln for ln in text.strip().splitlines() if ln.startswith("{")]
    if not lines:
        raise BenchError(f"{what}: no JSON result in output:\n{text[-2000:]}")
    return json.loads(lines[-1])


def build():
    """Build both executables from source; the first build of a checkout
    is the slow one."""
    # the compiler's temporary files and dune's cache stay in the checkout
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(OUT, "cache"))
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/ic_sched.exe",
             "./perfbench/icbench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0 or not (os.path.exists(IC_SCHED)
                                 and os.path.exists(ICBENCH)):
        raise BenchError("build failed:\n" + (r.stdout + r.stderr)[-4000:])


# ------------------------------------------------------------------ run


def run_workload(w, seconds, trace, tiny):
    cmd = [ICBENCH, "run", "--family", w["family"],
           "--size", str(w["tiny"] if tiny else w["size"]),
           "--order", w["order"], "--domains", str(DOMAINS),
           "--seconds", str(seconds),
           "--setup-seconds", "0" if tiny else str(SETUP_SECONDS),
           "--trace", "1" if trace else "0",
           "--spans", os.path.join(OUT, f"spans-{w['name']}.jsonl")]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"icbench run exited {r.returncode}:\n{r.stderr}")
    res = last_json(r.stdout, "icbench run")
    metrics = {name: res.get(name, 0.0) for name, _, _ in PER_LAYER}
    metrics.update({name: res[name] for name, _, _ in END_TO_END})
    if trace:
        print(f"{w['name']}: {res['tasks']} tasks, {res['reps']} parallel "
              f"executions on {DOMAINS} domains")
        print(f"  payload.make        {res['payload.make_s']:.3f} s (median of "
              f"{res['makes']})")
        print(f"  sequential engine   {res['engine.seq_ns_per_task']:.1f} ns/task")
        print(f"  parallel runtime    {res['par.ns_per_task']:.1f} ns/task = "
              f"{res['par.tasks_per_s']:.0f} tasks/s, speedup "
              f"{res['par.speedup']:.2f}x, imbalance {res['par.imbalance']:.2f}")
        print(f"  runtime counters    steal hit {res['par.steal_hit_ratio']:.3f}, "
              f"{res['par.steal_attempts_per_task']:.4f} attempts/task, "
              f"{res['par.overflows_per_task']:.4f} overflows/task, "
              f"{res['par.parks_per_task']:.6f} parks/task")
        print(f"  trace.overhead      {res['trace.overhead']:+.4f}")
    return res["correct"], res["attempted"], res["failed"], metrics


# ---------------------------------------------------------------- serve


def proc_stat_cpu(pid):
    """(utime, stime) in seconds from /proc/<pid>/stat (10 ms ticks)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def proc_kv(path):
    out = {}
    with open(path) as f:
        for line in f:
            k, _, v = line.partition(":")
            parts = v.split()
            if parts and parts[0].isdigit():
                out[k.strip()] = int(parts[0])
    return out


def serve_cycle(w, seed, tiny, tag):
    """One `ic_sched serve --once` child drained by the hammer. Server
    resources are read from outside its process: /proc at the listening
    line, /proc/<pid>/io before reaping, rusage from wait4."""
    spec = w["tiny"] if tiny else w["spec"]
    metrics_out = os.path.join(OUT, f"metrics-{tag}.json")
    journal = os.path.join(OUT, f"journal-{tag}.wal")
    for path in (metrics_out, journal):
        if os.path.exists(path):
            os.remove(path)
    cmd = [IC_SCHED, "serve", spec, "--port", "0", "--once",
           "--metrics-out", metrics_out]
    if w["live"]:
        cmd += ["--telemetry-port", "0"]
    if w["journal"]:
        cmd += ["--journal", journal]
    with open(os.path.join(OUT, f"serve-{tag}.log"), "w") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=err, text=True)
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    reaped = False
    try:
        line = child.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not line.startswith("serving "):
            raise BenchError(f"serve did not start: {line!r}")
        port = int(line.split("127.0.0.1:")[1].split()[0])
        utime0, stime0 = proc_stat_cpu(child.pid)
        io0 = proc_kv(f"/proc/{child.pid}/io")
        st0 = proc_kv(f"/proc/{child.pid}/status")
        t_hammer = time.perf_counter()
        h = subprocess.run(
            [ICBENCH, "hammer", "--port", str(port),
             "--workers", str(WORKERS), "--connections", str(CONNECTIONS),
             "--k", str(K), "--mean-service-s", str(MEAN_SERVICE_S),
             "--think-s", "0", "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if h.returncode != 0:
            raise BenchError(f"hammer exited {h.returncode}:\n{h.stderr}")
        hammer = last_json(h.stdout, "icbench hammer")
        t_drained = time.perf_counter()
        # the server is a zombie after this, not yet reaped
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        io1 = proc_kv(f"/proc/{child.pid}/io")
        _, status, ru = os.wait4(child.pid, 0)
        t_reaped = time.perf_counter()
        reaped = True
        child.returncode = os.waitstatus_to_exitcode(status)
        child.stdout.read()
    finally:
        watchdog.cancel()
        if not reaped:
            child.kill()
            child.wait()
        child.stdout.close()
    with open(metrics_out) as f:
        sm = json.load(f)
    counters, gauges = sm["counters"], sm["gauges"]
    n = int(gauges["served.n_tasks"])
    cpu = ru.ru_utime + ru.ru_stime - utime0 - stime0
    return dict(
        n=n,
        exit_code=child.returncode,
        setup_s=setup_s,
        cpu_s=cpu,
        sys_s=ru.ru_stime - stime0,
        maxrss_mb=ru.ru_maxrss / 1024.0,
        ctx_switches=(ru.ru_nvcsw + ru.ru_nivcsw
                      - st0["voluntary_ctxt_switches"]
                      - st0["nonvoluntary_ctxt_switches"]),
        writes=io1["syscw"] - io0["syscw"],
        reads=io1["syscr"] - io0["syscr"],
        completions=counters["served.completions"],
        leases=counters["served.leases"],
        leased_tasks=counters["served.leased_tasks"],
        retry_afters=counters["served.retry_afters"],
        reissues=counters["served.reissues"],
        duplicates=counters["served.duplicate_completes"],
        protocol_errors=counters["served.protocol_errors"],
        inflight=int(gauges["served.inflight"]),
        hammer=hammer,
        # (name, start, end) of the cycle's phases, for the span dump
        spans=[("serve.setup", t0, t0 + setup_s),
               ("tcp.hammer", t_hammer, t_drained),
               ("serve.exit", t_drained, t_reaped)],
    )


def write_cycle_spans(path, cycles):
    """One `cycle` span per served drain, its phases as children; the
    span id is the cycle's index."""
    with open(path, "w") as f:
        span = 0
        for i, c in enumerate(cycles):
            parent = span
            phases = c["spans"]
            rows = [("cycle", -1, phases[0][1], phases[-1][2])]
            rows += [(name, parent, t0, t1) for name, t0, t1 in phases]
            for name, par, t0, t1 in rows:
                f.write(json.dumps({"span": span, "name": name, "id": i,
                                    "parent": par, "start_s": t0,
                                    "end_s": t1}) + "\n")
                span += 1


def serve_workload(w, seed, seconds, trace, tiny):
    cycles = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(cycles) < MIN_CYCLES:
        cycles.append(serve_cycle(w, seed + len(cycles), tiny,
                                  f"{w['name']}-{len(cycles)}"))
    correct, attempted, failed = True, 0, 0
    for c in cycles:
        hm = c["hammer"]
        attempted += hm["completes_sent"] + c["leases"] + c["retry_afters"]
        # requests left without a valid reply, and tasks not applied
        # exactly once
        failed += (hm["reconnects"] + c["protocol_errors"]
                   + abs(c["n"] - c["completions"]) + c["inflight"])
        correct &= (c["exit_code"] == 0 and hm["done_seen"]
                    and hm["crashed"] == 0 and c["completions"] == c["n"]
                    and c["inflight"] == 0 and c["protocol_errors"] == 0
                    and hm["reconnects"] == 0)
    n = cycles[0]["n"]

    def med(f):
        return median([f(c) for c in cycles])

    cpu_us = med(lambda c: c["cpu_s"] / c["n"] * 1e6)
    metrics = {
        "setup_s": med(lambda c: c["setup_s"]),
        "cpu_us_per_task": cpu_us,
        "peak_rss_mb": med(lambda c: c["maxrss_mb"]),
    }
    if not trace:
        return correct and failed == 0, attempted, failed, metrics
    write_cycle_spans(os.path.join(OUT, f"spans-{w['name']}-cycles.jsonl"),
                      cycles)
    spec = w["tiny"] if tiny else w["spec"]
    cmd = [ICBENCH, "replay", "--spec", spec, "--workers", str(WORKERS),
           "--k", str(K), "--live", "1" if w["live"] else "0",
           "--passes", "1" if tiny else "3",
           "--spans", os.path.join(OUT, f"spans-{w['name']}.jsonl")]
    if w["journal"]:
        cmd += ["--journal", os.path.join(OUT, f"replay-{w['name']}.wal")]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"icbench replay exited {r.returncode}:\n{r.stderr}")
    rp = last_json(r.stdout, "icbench replay")
    correct &= rp["ok"]
    layers = {name: 0.0 for name, _, _ in PER_LAYER}
    layers.update({k: v for k, v in rp.items() if k in layers})
    layers.update({
        "server.tasks_per_lease": med(lambda c: c["leased_tasks"] / c["leases"]),
        "server.retry_afters_per_lease":
            med(lambda c: c["retry_afters"] / c["leases"]),
        "server.reissues": sum(c["reissues"] for c in cycles),
        "server.duplicates": sum(c["duplicates"] for c in cycles),
        "server.protocol_errors": sum(c["protocol_errors"] for c in cycles),
        "server.writes_per_task": med(lambda c: c["writes"] / c["n"]),
        "server.reads_per_task": med(lambda c: c["reads"] / c["n"]),
        "server.sys_frac": med(lambda c: c["sys_s"] / c["cpu_s"]),
        "server.ctx_switches_per_task": med(lambda c: c["ctx_switches"] / c["n"]),
        "server.cpu_us_per_task": cpu_us,
        "tcp.residual_us_per_task": cpu_us - rp["replay.us_per_task"],
        "client.tasks_per_s": med(lambda c: c["n"] / c["hammer"]["wall_s"]),
        "client.cpu_us_per_task": med(lambda c: c["hammer"]["cpu_s"] / c["n"] * 1e6),
        "client.lease_p50_us":
            med(lambda c: c["hammer"]["lease_grant_p50_s"] * 1e6),
        "client.lease_p99_us":
            med(lambda c: c["hammer"]["lease_grant_p99_s"] * 1e6),
        "client.reconnects": sum(c["hammer"]["reconnects"] for c in cycles),
    })
    journal_us = rp["journal.append_ns"] / 1e3
    print(f"{w['name']}: {n} tasks, {len(cycles)} served drains, replay of "
          f"{rp['requests']} requests ({rp['retry_afters']} Retry_after; "
          f"the TCP drains had {med(lambda c: c['retry_afters']):.0f})")
    print(f"  set-up              dag build {rp['dag.build_s']:.3f} s, "
          f"Server.create {rp['server.create_s']:.4f} s")
    print("  server CPU per task, replayed layers + residual:")
    rows = [
        ("wire.decode", rp["wire.decode_ns"] / 1e3),
        ("server.handle lease", rp["server.handle_lease_ns"] / 1e3),
        ("server.handle complete", rp["server.handle_complete_ns"] / 1e3),
        ("wire.encode", rp["wire.encode_ns"] / 1e3),
        ("tcp.residual", layers["tcp.residual_us_per_task"]),
    ]
    for name, us in rows:
        print(f"    {name:24s} {us:8.3f} us")
    print(f"    {'= server.cpu_us_per_task':24s} {cpu_us:8.3f} us "
          f"(measured, median of {len(cycles)})")
    print(f"  inside handle       journal.append {journal_us:.3f} us/task, "
          f"checkpoint {rp['journal.checkpoint_ms']:.2f} ms each, "
          f"live mirror {rp['live.mirror_ns_per_task'] / 1e3:.3f} us/task")
    print(f"  direct              Shards.pop_batch {rp['shards.pop_batch_ns']:.1f} "
          f"ns/task, Shard_view.complete {rp['shard_view.complete_ns']:.1f} ns/task")
    print(f"  syscalls per task   {layers['server.writes_per_task']:.3f} writes, "
          f"{layers['server.reads_per_task']:.3f} reads; sys share "
          f"{layers['server.sys_frac']:.3f}")
    print(f"  client              {layers['client.tasks_per_s']:.0f} tasks/s, "
          f"{layers['client.cpu_us_per_task']:.2f} us CPU/task, lease p50 "
          f"{layers['client.lease_p50_us']:.0f} us, p99 "
          f"{layers['client.lease_p99_us']:.0f} us")
    print(f"  trace.overhead      {rp['trace.overhead']:+.4f} (replay with "
          f"per-call spans vs without)")
    return correct and failed == 0, attempted, failed, layers


# ------------------------------------------------------------------ main


def run_one(name, seed, seconds, trace, tiny):
    w = dict(WORKLOADS[name], name=name)
    os.makedirs(OUT, exist_ok=True)
    if w["kind"] == "run":
        correct, attempted, failed, values = run_workload(w, seconds, trace,
                                                          tiny)
    else:
        correct, attempted, failed, values = serve_workload(
            w, seed, seconds, trace, tiny)
    table = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _ in table}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def selftest():
    """Every workload at a tiny size, untraced and traced: every metric
    is printed with its unit, every check passes, and BENCHMARK.json
    (when present) names the same workloads and metrics."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            assert got == table, f"BENCHMARK.json {key} differs from run.py"
    for name in WORKLOADS:
        for trace in (0, 1):
            r = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, timeout=170)
            assert r.returncode == 0, f"{name} trace {trace}: {r.stderr}"
            res = json.loads(r.stdout.strip().splitlines()[-1])
            assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
            assert res["correct"] is True and res["failed"] == 0, res
            assert res["attempted"] >= 1
            table = PER_LAYER if trace else END_TO_END
            assert sorted(res["metrics"]) == sorted(n for n, _, _ in table)
            for mname, unit, _ in table:
                m = res["metrics"][mname]
                assert m["unit"] == unit, (mname, m)
                assert isinstance(m["value"], float), (mname, m)
                if not trace:
                    assert m["value"] > 0, (name, mname, m)
            print(f"ok {name} trace={trace} attempted={res['attempted']}")
    print("selftest passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: seconds instead of minutes")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload or --selftest is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        if a.selftest:
            selftest()
            return 0
        result = run_one(a.workload, a.seed, a.seconds, a.trace == 1, a.tiny)
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
