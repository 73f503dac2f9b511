#!/usr/bin/env python3
"""The dmpb benchmark: one command per workload.

    python3 perfbench/run.py --workload generate-quick [--seed 99]
                             [--seconds 20] [--trace 0|1]

Run it from anywhere inside a checkout of the repository. It builds the
library, the dmpb CLI and perfbench_driver into .bench_build/perfbench
(cmake skips up-to-date targets after the first run), runs the named
workload, checks its outputs and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The environment is printed on the line
before it. Exit code 0 only when every output check passed.

Workloads, metrics and the reasons behind them: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from stats import percentile, summarize  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".perfbench"
RUN_DIR = WORK / "run"
DRIVER = BUILD / "perfbench_driver"
DMPB = BUILD / "dmpb" / "dmpb"

WORKLOADS = ("generate-quick", "serve-warm", "colocate-llc")
# Measured work per --seconds, from the nominal cost of one unit on a
# 4-vCPU host: a cold quick pass over the eight workloads takes ~20 s,
# one co-location ~22 s, and the daemon serves ~8 warm requests/s.
GENERATE_PASS_S = 20.0
COLOCATE_S = 22.0
SERVE_REQUESTS_PER_S = 8.0
MIN_SERVE_REQUESTS = 200      # traced p95 needs 10 samples beyond it
SERVE_CONNECTIONS = 2         # closed loop, one request in flight each
SETUP_REPEATS = 10            # extra set-ups timed per run (median)
DAEMON_STARTS = 3             # daemon start-to-ready samples per run
RUN_BUDGET_S = 170.0          # everything after the build


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------- build

def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(WORK / "build.log", "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError(f"build failed, see {out.name}")


# ------------------------------------------------------- environment

def read_status(pid):
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = value.split()
    return fields


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        data = f.read()
    rest = data[data.rindex(")") + 2:].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


def steal_s():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK")


class ThreadSampler:
    """Polls a process's thread count until stopped; keeps the peak."""

    def __init__(self, pid):
        self.pid = pid
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.is_set():
            try:
                self.peak = max(self.peak,
                                int(read_status(self.pid)["Threads"][0]))
            except (OSError, KeyError, IndexError, ValueError):
                pass
            self._stop.wait(0.02)

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.peak


def source_digest():
    """Identity of the program under test: its sources and its path
    (results depend on where the repository is built)."""
    h = hashlib.sha256(str(ROOT).encode())
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt",
             HERE / "driver.cc"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(f.relative_to(ROOT).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def toolchain():
    """Compiler and build type of the benchmark build tree."""
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for f in (BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        for field in ("CMAKE_CXX_COMPILER_ID ", "CMAKE_CXX_COMPILER_VERSION "):
            start = text.find(field)
            if start >= 0:
                compiler += " " + text[start:].split('"')[1]
    return compiler, cache.get("CMAKE_BUILD_TYPE", "unknown")


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "none"
    return lines[1]


# ------------------------------------------------------------ checks

class Record:
    """Checksums that runs of the same program and seed recorded in this
    checkout. Nothing is pinned in the repository."""

    def __init__(self, name, seed, digest):
        self.path = WORK / "records" / f"{name}-seed{seed}.json"
        self.digest = digest
        self.sums = {}
        if self.path.is_file():
            data = json.loads(self.path.read_text())
            if data.get("digest") == digest:
                self.sums = data["checksums"]

    def agrees(self, key, checksum):
        """False when an earlier pass or run recorded another checksum
        for key; the first one seen is kept."""
        return self.sums.setdefault(key, checksum) == checksum

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps({"digest": self.digest,
                                         "checksums": self.sums}))


class Outcome:
    """Operations attempted, operations failed and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def problem(self, what):
        self.problems.append(what)

    @property
    def correct(self):
        return self.attempted > 0 and not self.problems


# ------------------------------------------------------ driver runs

def run_driver(args, deadline):
    """Run perfbench_driver; returns (result object, peak threads)."""
    timeout = deadline.left()
    proc = subprocess.Popen([str(DRIVER)] + args + ["--work", str(RUN_DIR)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sampler = ThreadSampler(proc.pid)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        proc.kill()
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"driver {args[0]} ran out of time") from e
        raise
    finally:
        threads = sampler.stop()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"driver {args[0]} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), threads


def driver_phase(mode, seed, passes, spans, deadline):
    """Time SETUP_REPEATS set-ups, then run the measured phase; the
    set-up figure is launch-to-ready, median over all launches."""
    common = [mode, "--seed", str(seed), "--passes", str(passes)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.monotonic()
        ready, _ = run_driver(common + ["--ready-only", "1"], deadline)
        setups.append(ready["ready_mono"] - t)
    t = time.monotonic()
    extra = ["--spans", str(spans)] if spans else []
    out, threads = run_driver(common + extra, deadline)
    setups.append(out["ready_mono"] - t)
    return out, statistics.median(setups), threads


def probe_layers(seed, deadline, outcome, digest):
    """Per-layer probes shared by every traced run (driver probe mode)."""
    spans_path = RUN_DIR / "probe-spans.json"
    out, _ = run_driver(["probe", "--seed", str(seed),
                         "--spans", str(spans_path)], deadline)
    record = Record("probe", seed, digest)
    for p in out["proxies"]:
        outcome.op(record.agrees(p["workload"], p["checksum"]),
                   f"probe {p['workload']}: {p['checksum']} changed")
    if not record.agrees("motifs", out["motif_checksum"]):
        outcome.problem("probe motif checksum changed")
    record.save()
    if out["failures"]:
        outcome.problem(f"probe: {out['error']}")
    t = summarize(json.loads(spans_path.read_text()))
    motifs, replay = t["motifs.run"], t["sim.replay"]
    events = motifs["count"]

    def mean(name, scale):
        return t[name]["total_s"] * scale / t[name]["calls"]

    return {
        "core.proxy_exec_ms": mean("core.proxy_exec", 1e3),
        "core.refcache_hit_us": mean("core.refcache_hit", 1e6),
        "core.refcache_disk_hit_ms": mean("core.refcache_disk_hit", 1e3),
        "core.tunercache_hit_ms": mean("core.tunercache_hit", 1e3),
        "motifs.emit_ns_per_event": motifs["self_s"] * 1e9 / events,
        "sim.replay_ns_per_event": replay["total_s"] * 1e9 / events,
        "sim.replay_events": events,
        "sim.replay_share": replay["total_s"] / motifs["total_s"],
    }


# ---------------------------------------------------- generate-quick

def generate_quick(args, deadline, digest, outcome, report):
    passes = max(1, round(args.seconds / GENERATE_PASS_S))
    spans_path = RUN_DIR / "generate-spans.json" if args.trace else None
    out, setup, threads = driver_phase("generate", args.seed, passes,
                                       spans_path, deadline)
    record = Record("generate-quick", args.seed, digest)
    for op in out["ops"]:
        name = op["workload"]
        ok = op["status"] == "ok" and record.agrees(name, op["checksum"])
        outcome.op(ok, f"{name} pass {op['pass']}: {op['status']} "
                       f"{op['error']} {op['checksum']}")
    record.save()
    report["checksums"] = {op["workload"]: op["checksum"]
                           for op in out["ops"]}
    report["pipelines"] = len(out["ops"])
    report["wall_s"] = out["wall_s"]
    metrics = {
        "setup_s": setup,
        "cpu_s": out["cpu_s"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    if not args.trace:
        return metrics, threads

    for r in out["recompose"]:
        outcome.op(r["match"], f"recomposed {r['workload']} differs from "
                               "PipelineService::execute")
    t = summarize(json.loads(spans_path.read_text()))
    recomposed = out["recompose"]
    evals = t["core.tune"]["count"]
    pass_wall = out["wall_s"] / passes
    first = out["ops"][:len(recomposed)]
    layers = {
        "runner.execute_s": t["runner.execute"]["total_s"] / passes,
        "workloads.run_s": t["workloads.run"]["total_s"],
        "workloads.run_share": (t["workloads.run"]["total_s"] /
                                t["runner.pipeline"]["total_s"]),
        "core.tune_s": t["core.tune"]["total_s"],
        "core.tune_evals": evals,
        "core.tune_iters": sum(r["iterations"] for r in recomposed),
        "core.tune_ms_per_eval": t["core.tune"]["total_s"] * 1e3 / evals,
        "core.tune_qualified_ratio": (sum(r["qualified"] for r in recomposed)
                                      / len(recomposed)),
        "core.decompose_s": t["core.decompose"]["total_s"],
        "core.avg_accuracy": statistics.fmean(o["avg_accuracy"]
                                              for o in first),
        "env.tracing_overhead": out["traced_wall_s"] / pass_wall,
    }
    return layers, threads


# -------------------------------------------------------- serve-warm

class Conn:
    """One persistent NDJSON connection to the daemon."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")

    def call(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """A `dmpb --serve` process with the benchmark's thread knobs."""

    def __init__(self, sock, cache_dir, logfile):
        if os.path.exists(sock):
            os.unlink(sock)
        self.sock = sock
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [str(DMPB), "--serve", sock, "--serve-workers", "1",
             "--tuner-jobs", "2", "--sim-shards", "1",
             "--cache-dir", cache_dir],
            stdout=logfile, stderr=subprocess.STDOUT, cwd=ROOT)

    def wait_ready(self, deadline):
        """Seconds from launch until the daemon answers a ping."""
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited {self.proc.returncode}")
            try:
                conn = Conn(self.sock, 5.0)
            except OSError:
                deadline.left()
                time.sleep(0.002)
                continue
            try:
                if conn.call({"cmd": "ping", "id": 1}).get("pong"):
                    return time.monotonic() - self.started
            finally:
                conn.close()

    def stop(self):
        if self.proc.poll() is None:
            try:
                conn = Conn(self.sock, 30.0)
                conn.call({"cmd": "shutdown", "id": 1})
                conn.close()
                self.proc.wait(timeout=30)
            except (OSError, ValueError, BenchError,
                    subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()


def serve_phase(daemon, order, n, seed, warm, deadline, outcome):
    """Closed loop: SERVE_CONNECTIONS clients, one request in flight
    each, n requests cycling through order. Returns the samples."""
    pid = daemon.proc.pid
    stats0 = stats_call(daemon, deadline)
    cpu0 = proc_cpu_s(pid)
    sampler = ThreadSampler(pid)
    lock = threading.Lock()
    cursor = [0]
    samples = [None] * n
    timeout = deadline.left()

    def client():
        try:
            conn = Conn(daemon.sock, timeout)
        except OSError:
            return      # its share of the requests goes to the others
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                name = order[i % len(order)]
                start = time.monotonic_ns()
                try:
                    resp = conn.call({"cmd": "run", "workload": name,
                                      "scale": "quick", "seed": seed,
                                      "id": i + 1})
                except (OSError, ValueError, BenchError) as e:
                    resp = {"error": str(e)}
                samples[i] = (name, start, time.monotonic_ns(), resp)
        finally:
            conn.close()

    t0 = time.monotonic()
    clients = [threading.Thread(target=client)
               for _ in range(SERVE_CONNECTIONS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    wall = time.monotonic() - t0
    cpu = proc_cpu_s(pid) - cpu0
    threads = sampler.stop()
    stats1 = stats_call(daemon, deadline)

    rows = []
    for sample in samples:
        if sample is None:
            outcome.op(False, "request never sent")
            continue
        name, start, end, resp = sample
        result = resp.get("result", {})
        checksum = result.get("proxy", {}).get("checksum")
        ok = (resp.get("ok") is True and result.get("status") == "ok"
              and checksum == warm.get(name))
        outcome.op(ok, f"served {name}: {resp.get('error', '')} "
                       f"{result.get('status')} {checksum}")
        rows.append({"name": name, "start_ns": start, "end_ns": end,
                     "latency_s": (end - start) * 1e-9,
                     "queue_s": resp.get("queue_s", 0.0),
                     "service_s": result.get("elapsed_s", 0.0)})
    return {"wall_s": wall, "cpu_s": cpu, "threads": threads, "rows": rows,
            "stats0": stats0, "stats1": stats1}


def stats_call(daemon, deadline):
    conn = Conn(daemon.sock, deadline.left())
    try:
        return conn.call({"cmd": "stats", "id": 1})["stats"]
    finally:
        conn.close()


def serve_layers(phase, daemon):
    rows = phase["rows"]
    ms = [r["latency_s"] * 1e3 for r in rows]
    p95, n = percentile(ms, 95)
    if p95 is None:
        raise BenchError(f"p95 needs >= 10 samples beyond it, have n={n}")
    s0, s1 = phase["stats0"], phase["stats1"]

    def delta(cache, key):
        return s1[cache][key] - s0[cache][key]

    hits = delta("ref_cache", "hits") + delta("tuner_cache", "hits")
    lookups = hits + delta("ref_cache", "misses") + delta("tuner_cache",
                                                          "misses")
    pid = daemon.proc.pid
    return {
        "serve.req_p50_ms": statistics.median(ms),
        "serve.req_p95_ms": p95,
        "serve.req_per_s": len(rows) / phase["wall_s"],
        "serve.req_n": n,
        "serve.queue_ms_p50": statistics.median(r["queue_s"] * 1e3
                                                for r in rows),
        "serve.service_ms_p50": statistics.median(r["service_s"] * 1e3
                                                  for r in rows),
        "serve.transport_ms_p50": statistics.median(
            (r["latency_s"] - r["queue_s"] - r["service_s"]) * 1e3
            for r in rows),
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.rejected": s1["rejected"] - s0["rejected"],
        "serve.errors": s1["errors"] - s0["errors"],
        "serve.fds_after": len(os.listdir(f"/proc/{pid}/fd")),
        "serve.threads_after": int(read_status(pid)["Threads"][0]),
    }


def serve_warm(args, deadline, digest, outcome, report):
    n = max(1, round(args.seconds * SERVE_REQUESTS_PER_S))
    sock = os.path.relpath(RUN_DIR / "d.sock", ROOT)
    cache_dir = os.path.relpath(RUN_DIR / "serve-cache", ROOT)
    starts = []
    record = Record("serve-warm", args.seed, digest)
    with open(RUN_DIR / "daemon.log", "w") as logfile:
        daemon = None
        try:
            for k in range(DAEMON_STARTS):
                daemon = Daemon(sock, cache_dir, logfile)
                starts.append(daemon.wait_ready(deadline))
                if k + 1 < DAEMON_STARTS:
                    daemon.stop()
            # Warm pass: one cold request per workload fills both caches.
            t0 = time.monotonic()
            conn = Conn(sock, deadline.left())
            names = conn.call({"cmd": "list", "id": 1})["workloads"]
            warm = {}
            for i, name in enumerate(names):
                resp = conn.call({"cmd": "run", "workload": name,
                                  "scale": "quick", "seed": args.seed,
                                  "id": i + 1})
                result = resp.get("result", {})
                warm[name] = result.get("proxy", {}).get("checksum")
                ok = (resp.get("ok") is True and result.get("status") == "ok"
                      and record.agrees(name, warm[name]))
                outcome.op(ok, f"warm {name}: {resp}")
            conn.close()
            setup = statistics.median(starts) + time.monotonic() - t0
            record.save()
            report["checksums"] = warm

            order = list(names)
            random.Random(args.seed).shuffle(order)
            report["order"] = order
            phase = serve_phase(daemon, order, n, args.seed, warm, deadline,
                                outcome)
            report["requests"] = len(phase["rows"])
            threads = phase["threads"]
            report["wall_s"] = phase["wall_s"]
            if not args.trace:
                metrics = {
                    "setup_s": setup,
                    "cpu_s": phase["cpu_s"],
                    "peak_rss_mb": int(read_status(daemon.proc.pid)
                                       ["VmHWM"][0]) / 1024.0,
                }
                return metrics, threads
            traced = serve_phase(daemon, order, max(n, MIN_SERVE_REQUESTS),
                                 args.seed, warm, deadline, outcome)
            spans = [{"name": "serve.request", "start_ns": r["start_ns"],
                      "end_ns": r["end_ns"], "parent": -1,
                      "request": i + 1, "workload": r["name"]}
                     for i, r in enumerate(traced["rows"])]
            (RUN_DIR / "serve-spans.json").write_text(json.dumps(spans))
            layers = serve_layers(traced, daemon)
            layers["env.tracing_overhead"] = (
                (traced["wall_s"] / len(traced["rows"])) /
                (phase["wall_s"] / len(phase["rows"])))
            return layers, max(threads, traced["threads"])
        finally:
            if daemon is not None:
                daemon.stop()


# ------------------------------------------------------ colocate-llc

def colocate_llc(args, deadline, digest, outcome, report):
    passes = max(1, round(args.seconds / COLOCATE_S))
    spans_path = RUN_DIR / "colocate-spans.json" if args.trace else None
    out, setup, threads = driver_phase("colocate", args.seed, passes,
                                       spans_path, deadline)
    record = Record("colocate-llc", args.seed, digest)
    for op in out["ops"] + ([out["traced"]] if args.trace else []):
        ok = op["status"] == "ok" and record.agrees("outcome", op["checksum"])
        outcome.op(ok, f"colocation: {op['status']} {op['error']} "
                       f"{op['checksum']}")
    record.save()
    report["checksums"] = {"outcome": out["ops"][0]["checksum"]}
    report["wall_s"] = out["wall_s"]
    metrics = {
        "setup_s": setup,
        "cpu_s": out["cpu_s"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    if not args.trace:
        return metrics, threads
    t = summarize(json.loads(spans_path.read_text()))
    colocate_s = t["core.colocate"]["total_s"]
    events = t["core.colocate"]["count"]
    layers = {
        "core.colocate_s": colocate_s,
        "core.colocate_events": events,
        "core.colocate_bytes_per_event": (out["traced"]["compressed_bytes"]
                                          / events),
        "core.colocate_mevents_per_s": events / colocate_s / 1e6,
        "env.tracing_overhead": out["traced_wall_s"] / (out["wall_s"]
                                                        / passes),
    }
    return layers, threads


# -------------------------------------------------------------- main

RUNNERS = {"generate-quick": generate_quick, "serve-warm": serve_warm,
           "colocate-llc": colocate_llc}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so the finally blocks stop children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    try:
        if not ((ROOT / "CMakeLists.txt").is_file()
                and (ROOT / "src").is_dir()):
            raise BenchError(f"no repository sources next to {HERE.name}/ "
                             "(need CMakeLists.txt and src/)")
        units = declared_metrics(args.trace)
        WORK.mkdir(parents=True, exist_ok=True)
        build()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        RUN_DIR.mkdir(parents=True)
        deadline = Deadline(RUN_BUDGET_S)
        digest = source_digest()
        outcome = Outcome()
        report = {}
        load0, steal0 = os.getloadavg(), steal_s()
        compiler, build_type = toolchain()
        values, threads = RUNNERS[args.workload](
            args, deadline, digest, outcome, report)
        if args.trace:
            values.update(probe_layers(args.seed, deadline, outcome, digest))
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log(f"error: {type(e).__name__}: {e}")
        return 2

    steal = steal_s() - steal0
    if args.trace:
        values.update({"env.steal_s": steal, "env.threads_peak": threads,
                       "env.wall_s": report["wall_s"]})
    else:
        values["success_rate"] = ((outcome.attempted - outcome.failed)
                                  / max(1, outcome.attempted))
    missing = sorted(set(units) - set(values))
    if args.trace:
        # Layers this workload does not call into directly read zero.
        for name in missing:
            values[name] = 0
    elif missing:
        log(f"error: metrics not measured: {missing}")
        return 2

    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "compiler": compiler,
        "build_type": build_type,
        "git_sha": git_sha(), "source_digest": digest,
        "loadavg_start": load0, "loadavg_end": os.getloadavg(),
        "steal_s": steal, "threads_peak": threads,
        "kernel": os.uname().release, **report,
    }
    for problem in outcome.problems[:20]:
        log(f"check failed: {problem}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{stamp}.json").write_text(
        json.dumps({"env": env, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
