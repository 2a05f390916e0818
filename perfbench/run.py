#!/usr/bin/env python3
"""The mtlscope repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the real `mtlscope` CLI and the
benchmark helper `mtlbench` from source (perfbench/CMakeLists.txt, build
tree under $CARGO_TARGET_DIR or .bench_build/), prepares seeded inputs
outside the timed region, runs one workload, checks its outputs, and
prints one JSON object as the last line of stdout:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured around untraced CLI processes; with --trace 1 they are the
per-layer metrics of a separate traced run. README.md gives each
workload's rationale and the layer -> metric map.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)

WORKLOADS = ("batch_tsv", "batch_mtlc", "paper_repro")
# The ingest-fixture model: ~107 MB of TSV, 892 k ssl rows, 6.2 k certs.
FIXTURE_CERT_SCALE = 2000
FIXTURE_CONN_SCALE = 25000
# Paper reproduction at the registry's calibrated scales: two passes
# (the pristine model shared by the six tables, and interception's own).
PAPER_EXPERIMENTS = ("table1", "table7", "table8", "table9", "table13",
                     "table14", "interception")
GOLDEN_SEED = 20240504
# What the traced watch replay publishes (run in batch_tsv's traced run).
WATCH_EXPERIMENTS = ("table1", "fig1", "serials")
# Cold set-up probes run in bursts between the jobs of a run, so their
# median samples the host over the whole run rather than one instant of
# it: up to SETUP_BURST probes per burst, stopping early once a burst has
# taken SETUP_BURST_S (the .mtlc probe reads the whole container).
SETUP_BURST = 8
SETUP_BURST_S = 0.25
INPUT_CACHE_SEEDS = 12


class BenchError(Exception):
    """Set-up could not complete; no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def rel(*parts):
    """A path relative to the checkout root (the cwd of every process)."""
    return os.path.join(build_dir(), *parts)


# --------------------------------------------------------------------------
# Build


def build():
    """Configures (once) and builds the CLI and mtlbench; returns paths."""
    for needed in ("src/CMakeLists.txt", "include/mtlscope",
                   "bench/mtlscope.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("mtlscope sources missing: %s" % needed)
    cmake_dir = rel("cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = rel("build.log")
    with open(log_path, "ab") as out:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=out, cwd=ROOT) != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                raise BenchError("cmake configure failed; see %s" % log_path)
        cmd = ["cmake", "--build", cmake_dir, "-j", str(nproc()),
               "--target", "mtlscope_cli", "mtlbench"]
        if subprocess.call(cmd, stdout=out, stderr=out, cwd=ROOT) != 0:
            raise BenchError("build failed; see %s" % log_path)
    bins = {"mtlscope": os.path.join(cmake_dir, "bin", "mtlscope"),
            "mtlbench": os.path.join(cmake_dir, "bin", "mtlbench")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("missing build product %s" % path)
    return bins


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest():
    """SHA-256 over the sources the benchmark builds (a checkout may not
    be a git repository, so this identifies the code either way)."""
    digest = hashlib.sha256()
    for top in ("src", "include", "bench/mtlscope.cpp", BENCH_DIR):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            digest.update(file_sha256(name).encode())
    return digest.hexdigest()


def refusal(info):
    """Why a build must not be recorded (Debug or sanitized), or None."""
    if info["build_type"].lower() == "debug":
        return "refusing to record from a Debug build"
    if info["sanitize"]:
        return "refusing to record from an MTLSCOPE_SANITIZE=%s build" % (
            info["sanitize"])
    return None


def stamp(bins, seed):
    """Host, build and code identity recorded with every result."""
    info = json.loads(subprocess.check_output([bins["mtlbench"], "stamp"]))
    if refusal(info):
        raise BenchError(refusal(info))
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git_sha = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = None
    info.update({"nproc": nproc(), "cpu_model": cpu_model,
                 "git_sha": git_sha, "source_sha256": source_digest(),
                 "seed": seed})
    return info


# --------------------------------------------------------------------------
# Seeded inputs (outside the timed region, cached per seed)


def prepare_inputs(bins, seed, cert_scale, conn_scale):
    """TSV pair, time-sorted ssl copy and .mtlc for `seed`; returns the
    statistics mtlbench recorded for them."""
    root = rel("inputs")
    key = "seed-%d" % seed
    if (cert_scale, conn_scale) != (FIXTURE_CERT_SCALE, FIXTURE_CONN_SCALE):
        key += "-scale-%g-%g" % (cert_scale, conn_scale)
    directory = os.path.join(root, key)
    marker = os.path.join(directory, "inputs.json")
    if os.path.exists(marker):
        os.utime(marker)
        with open(marker) as handle:
            return directory, json.load(handle)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    # Bounded disk: keep the most recently used seeds only.
    cached = sorted(
        (os.path.getmtime(os.path.join(root, d, "inputs.json")), d)
        for d in os.listdir(root)
        if os.path.exists(os.path.join(root, d, "inputs.json")))
    for _, stale in cached[:max(0, len(cached) - INPUT_CACHE_SEEDS + 1)]:
        shutil.rmtree(os.path.join(root, stale), ignore_errors=True)
    start = time.monotonic()
    out = subprocess.run(
        [bins["mtlbench"], "prepare", "--seed=%d" % seed,
         "--dir=" + directory, "--cert-scale=%g" % cert_scale,
         "--conn-scale=%g" % conn_scale],
        stdout=subprocess.PIPE, check=False)
    if out.returncode != 0:
        shutil.rmtree(directory, ignore_errors=True)
        raise BenchError("input preparation failed for seed %d" % seed)
    stats = json.loads(out.stdout.decode().strip().splitlines()[-1])
    stats["prepare_s"] = time.monotonic() - start
    with open(marker + ".tmp", "w") as handle:
        json.dump(stats, handle)
    os.replace(marker + ".tmp", marker)
    # Flush the freshly written inputs now, so their writeback does not
    # compete with the fsyncs of the measured run.
    os.sync()
    return directory, stats


# --------------------------------------------------------------------------
# Running the CLI


class Job:
    """One CLI process: wall time, peak RSS and CPU seconds (wait4)."""

    def __init__(self, args, out_dir=None, stdout_path=None):
        self.args = args
        self.out_dir = out_dir
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=stdout, stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
        self.wall = time.monotonic() - start
        if stdout_path:
            stdout.close()
        self.code = proc.returncode
        self.stderr = stderr.decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_user = usage.ru_utime
        self.cpu_sys = usage.ru_stime

    @property
    def ok(self):
        return self.code == 0


def out_docs(out_dir):
    """{file name: bytes} of a --out directory."""
    docs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            docs[name] = handle.read()
    return docs


def docs_digest(docs):
    digest = hashlib.sha256()
    for name, data in sorted(docs.items()):
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def quarantined(docs):
    """Rows a run quarantined: the canonical data-quality block, which
    every document of one pipeline pass carries alike."""
    first = json.loads(next(iter(docs.values()))) if docs else {}
    quality = first.get("data_quality")
    if not quality:
        return 0
    return quality["quarantined"]["ssl"] + quality["quarantined"]["x509"]


def check_batch_output(job, reference_digest, expected_files):
    """(ok, quarantined rows, message) for one batch job's --out dir."""
    if not job.ok:
        return False, 0, "exit %d: %s" % (job.code, job.stderr.strip()[-300:])
    docs = out_docs(job.out_dir)
    if sorted(docs) != sorted(expected_files):
        return False, 0, "published %d files, expected %d" % (
            len(docs), len(expected_files))
    if docs_digest(docs) != reference_digest:
        return False, quarantined(docs), "canonical output differs"
    return True, quarantined(docs), ""


def blocks_equal(replica_dir, cli_dir):
    """The traced replica reports the same tables as the CLI."""
    cli = out_docs(cli_dir)
    replica = out_docs(replica_dir)
    if sorted(cli) != sorted(replica):
        return False
    return all(json.loads(cli[n]).get("blocks") ==
               json.loads(replica[n]).get("blocks") for n in cli)


def batch_input_args(workload, inputs):
    if workload == "batch_mtlc":
        return ["--ssl-log=" + os.path.join(inputs, "fixture.mtlc")]
    return ["--ssl-log=" + os.path.join(inputs, "ssl.log"),
            "--x509-log=" + os.path.join(inputs, "x509.log")]


def batch_experiments(bins):
    listing = subprocess.check_output([bins["mtlscope"], "list"]).decode()
    names = [line.split()[0] for line in listing.splitlines() if line.strip()]
    # ablation_interception ignores the logs and generates its own trace.
    return [n for n in names if n != "ablation_interception"]


def batch_reference(bins, inputs, experiments):
    """Canonical digest of a one-thread TSV run over the seed's inputs —
    the side every batch job (TSV or .mtlc, any thread count) must
    reproduce byte for byte. Cached per seed and CLI binary."""
    binary = file_sha256(bins["mtlscope"])[:16]
    path = os.path.join(inputs, "reference-%s.json" % binary)
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    out_dir = rel("work", "reference")
    job = Job([bins["mtlscope"], "run", *experiments,
               *batch_input_args("batch_tsv", inputs), "--threads=1",
               "--format=json", "--stable-output", "--on-error=skip",
               "--out=" + out_dir], out_dir=out_dir)
    if not job.ok:
        raise BenchError("reference run failed: " + job.stderr[-500:])
    docs = out_docs(out_dir)
    reference = {"digest": docs_digest(docs), "files": sorted(docs)}
    with open(path, "w") as handle:
        json.dump(reference, handle)
    shutil.rmtree(out_dir, ignore_errors=True)
    return reference


def median(values):
    return statistics.median(values)


class SetupProbe:
    """Cold set-ups, each timed inside a fresh mtlbench process."""

    def __init__(self, bins, args):
        self.cmd = [bins["mtlbench"], "setup", *args]
        self.values = []

    def burst(self):
        start = time.monotonic()
        for _ in range(SETUP_BURST):
            out = subprocess.run(self.cmd, stdout=subprocess.PIPE, check=False)
            if out.returncode != 0:
                raise BenchError("set-up probe failed: %s" % " ".join(
                    self.cmd[2:]))
            self.values.append(json.loads(out.stdout)["setup_s"])
            if time.monotonic() - start >= SETUP_BURST_S:
                break

    def median(self):
        return median(self.values)


def cpu_steal():
    """(steal, total) jiffies of the host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def room_for_another(busy, count, seconds):
    """Whether one more job (or pair) of the mean length so far still
    fits in `seconds` of job time."""
    return busy + busy / count <= seconds


class Tally:
    """attempted / failed operations (records) and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, records, ok, failed_records=0, problem=""):
        self.attempted += records
        self.failed += records if not ok else failed_records
        if not ok:
            self.problems.append(problem)


# --------------------------------------------------------------------------
# Workloads, untraced (--trace 0)


def run_batch(bins, workload, inputs, stats, seconds, probe, tally):
    """Closed loop: alternate --threads=nproc and --threads=1 jobs over
    the same input while another job fits in `seconds` (at least one of
    each), with a burst of set-up probes before each job and at the end."""
    experiments = batch_experiments(bins)
    reference = batch_reference(bins, inputs, experiments)
    rows = int(stats["ssl_rows"])
    jobs = {nproc(): [], 1: []}
    busy = 0.0
    index = 0
    while not all(jobs.values()) or room_for_another(busy, index, seconds):
        probe.burst()
        threads = nproc() if index % 2 == 0 else 1
        out_dir = rel("work", workload, "job")
        job = Job([bins["mtlscope"], "run", *experiments,
                   *batch_input_args(workload, inputs),
                   "--threads=%d" % threads, "--format=json",
                   "--stable-output", "--on-error=skip", "--out=" + out_dir],
                  out_dir=out_dir)
        ok, bad_rows, problem = check_batch_output(
            job, reference["digest"], reference["files"])
        tally.add(rows, ok, bad_rows, "job %d (threads=%d): %s" % (
            index, threads, problem))
        jobs[threads].append(job)
        busy += job.wall
        index += 1
    probe.burst()
    nt = jobs[nproc()]
    return {
        "records_per_s": median([rows / j.wall for j in nt]),
        "records_per_s_1t": median([rows / j.wall for j in jobs[1]]),
        "peak_rss_mb": median([j.rss_mb for j in nt]),
    }, cpu_details(jobs)


def cpu_details(jobs):
    """Median wall and CPU seconds of the CLI jobs per thread count: the
    real-vs-CPU gap of the job as a user runs it."""
    details = {}
    for threads, runs in jobs.items():
        tag = "1t" if threads == 1 else "nt"
        details["jobs_" + tag] = len(runs)
        details["wall_s_" + tag] = median([j.wall for j in runs])
        details["cpu_user_s_" + tag] = median([j.cpu_user for j in runs])
        details["cpu_sys_s_" + tag] = median([j.cpu_sys for j in runs])
    return details


def paper_args(scales):
    args = [*PAPER_EXPERIMENTS]
    if scales:
        args += ["--cert-scale=%g" % scales[0], "--conn-scale=%g" % scales[1]]
    return args


def paper_records(docs):
    """Generated connections over the distinct pipeline passes."""
    passes = {}
    for name, data in docs.items():
        doc = json.loads(data)
        config = doc["config"]
        passes[(config["cert_scale"], config["conn_scale"])] = doc["records"]
    return sum(passes.values())


def check_golden(bins, seed, scales, tally):
    """At the golden seed, the --stable-output text must equal the
    committed goldens (the calibrated-scale reproduction)."""
    if seed != GOLDEN_SEED or scales:
        return
    out_dir = rel("work", "paper_repro", "golden")
    job = Job([bins["mtlscope"], "run", *paper_args(None),
               "--seed=%d" % seed, "--threads=%d" % nproc(),
               "--stable-output", "--out=" + out_dir], out_dir=out_dir)
    for name in PAPER_EXPERIMENTS:
        golden = os.path.join(ROOT, "tests", "golden", name + ".txt")
        produced = os.path.join(out_dir, name + ".txt")
        ok = job.ok and os.path.exists(produced) and open(
            produced, "rb").read() == open(golden, "rb").read()
        tally.add(1, ok, 0, "%s differs from tests/golden" % name)


def run_paper(bins, seed, seconds, scales, probe, tally):
    """Closed loop of (--threads=nproc, --threads=1) job pairs while
    another pair fits in `seconds` (at least one); the two canonical
    outputs of every pair must be byte-identical. Set-up probes run
    between the jobs."""
    jobs = {nproc(): [], 1: []}
    busy = 0.0
    first_digest = None
    records = 0
    while not all(jobs.values()) or room_for_another(
            busy, len(jobs[1]), seconds):
        for threads in (nproc(), 1):
            probe.burst()
            out_dir = rel("work", "paper_repro", "job-%d" % threads)
            job = Job([bins["mtlscope"], "run", *paper_args(scales),
                       "--seed=%d" % seed, "--threads=%d" % threads,
                       "--format=json", "--stable-output", "--out=" + out_dir],
                      out_dir=out_dir)
            jobs[threads].append(job)
            busy += job.wall
            docs = out_docs(out_dir) if job.ok else {}
            ok = job.ok and len(docs) == len(PAPER_EXPERIMENTS)
            if ok:
                records = paper_records(docs)
                first_digest = first_digest or docs_digest(docs)
                ok = docs_digest(docs) == first_digest
            job.records = records
            tally.add(records or 1, ok, 0, "paper job (threads=%d): %s" % (
                threads, job.stderr.strip()[-300:] if not job.ok
                else "output differs across thread counts"))
    probe.burst()
    check_golden(bins, seed, scales, tally)
    nt = jobs[nproc()]
    return {
        "records_per_s": median([j.records / j.wall for j in nt]),
        "records_per_s_1t": median([j.records / j.wall for j in jobs[1]]),
        "peak_rss_mb": median([j.rss_mb for j in nt]),
    }, dict(cpu_details(jobs), records=records)


def watch_reference(bins, final_log, x509, out_path):
    """Batch run over the logs the watch replay read."""
    job = Job([bins["mtlscope"], "run", *WATCH_EXPERIMENTS,
               "--ssl-log=" + final_log, "--x509-log=" + x509,
               "--threads=%d" % nproc(), "--format=json", "--stable-output",
               "--on-error=skip"], stdout_path=out_path)
    if not job.ok:
        raise BenchError("watch batch reference failed: " + job.stderr[-500:])
    with open(out_path, "rb") as handle:
        return handle.read()


def check_watch(bins, inputs, replay, layers, rows, tally):
    """The replay's cumulative.json equals a batch run over the log it
    read; every day's window was published; nothing late or held; every
    row was read."""
    # Every row is fed, so the log as read equals the sorted input.
    final_log = os.path.join(replay, "final_ssl.log")
    shutil.copyfile(os.path.join(inputs, "ssl_sorted.log"), final_log)
    reference = watch_reference(bins, final_log,
                                os.path.join(inputs, "x509.log"),
                                os.path.join(replay, "batch.json"))
    cumulative = os.path.join(replay, "out", "cumulative.json")
    problems = []
    if not os.path.exists(cumulative) or open(
            cumulative, "rb").read() != reference:
        problems.append("cumulative.json differs from the batch run")
    for key in ("watch.missing_windows", "watch.late", "watch.held"):
        if layers.get(key, 0) != 0:
            problems.append("%s = %g" % (key, layers[key]))
    if layers.get("watch.ssl_records") != rows:
        problems.append("replay read %s of %d records" % (
            layers.get("watch.ssl_records"), rows))
    tally.add(rows, not problems, int(layers.get("watch.quarantined", 0)),
              "watch replay: " + "; ".join(problems))


def mtlbench_json(bins, args):
    """Runs one mtlbench subcommand; returns its last stdout line."""
    out = subprocess.run([bins["mtlbench"], *args], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, check=False)
    if out.returncode != 0:
        raise BenchError("mtlbench %s failed: %s" % (
            args[0], out.stderr.decode()[-800:]))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def trace_watch(bins, inputs, stats, work, trace_file, tally):
    """The traced watch daemon replay over the seed's time-sorted log;
    returns its watch.* metrics after checking its output."""
    replay = os.path.join(work, "watch")
    layers = mtlbench_json(bins, [
        "trace-watch", "--sorted=" + os.path.join(inputs, "ssl_sorted.log"),
        "--x509=" + os.path.join(inputs, "x509.log"), "--work=" + replay,
        "--threads=%d" % nproc(), "--trace-out=" + trace_file])
    check_watch(bins, inputs, replay, layers, int(stats["ssl_rows"]), tally)
    return layers


def run_traced(bins, workload, inputs, stats, seed, scales, tally):
    """An untraced CLI job, then the traced run of the same job in
    mtlbench (checked against the job's output); batch_tsv adds the
    traced watch replay. Returns the per-layer metrics."""
    trace_dir = rel("traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    work = rel("work", workload + "-trace")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    if workload == "paper_repro":
        cli = [*paper_args(scales), "--seed=%d" % seed]
        cmd = ["trace", "--experiments=" + ",".join(PAPER_EXPERIMENTS),
               "--seed=%d" % seed]
        if scales:
            cmd += ["--cert-scale=%g" % scales[0],
                    "--conn-scale=%g" % scales[1]]
    else:
        experiments = batch_experiments(bins)
        cli = [*experiments, *batch_input_args(workload, inputs),
               "--on-error=skip"]
        if workload == "batch_mtlc":
            traced_input = ["--mtlc=" + os.path.join(inputs, "fixture.mtlc")]
        else:
            traced_input = batch_input_args(workload, inputs)
        cmd = ["trace", "--experiments=" + ",".join(experiments),
               *traced_input]
    cli_out = os.path.join(work, "cli")
    replica_out = os.path.join(work, "replica")
    job = Job([bins["mtlscope"], "run", *cli, "--threads=%d" % nproc(),
               "--format=json", "--stable-output", "--out=" + cli_out],
              out_dir=cli_out)
    layers = mtlbench_json(bins, [
        *cmd, "--workload=" + workload, "--threads=%d" % nproc(),
        "--out-dir=" + replica_out, "--trace-out=" + trace_file])
    print("chrome trace: %s" % trace_file)

    if workload == "paper_repro":
        rows = int(layers["gen.generate.connections"])
        parsed = rows
    else:
        rows = int(stats["ssl_rows"])
        parsed = (layers["zeek.parse_ssl.records"] +
                  layers["colfmt.scan_ssl.records"])
    tally.add(rows, job.ok, 0, "untraced job failed: " + job.stderr[-300:])
    tally.add(rows, job.ok and blocks_equal(replica_out, cli_out), 0,
              "traced replica tables differ from the CLI's")
    tally.add(rows, parsed == rows, int(layers["zeek.parse_ssl.quarantined"]),
              "traced decomposition read %g of %d rows" % (parsed, rows))

    if workload == "batch_tsv":
        watch_file = os.path.join(trace_dir, "watch-seed%d.json" % seed)
        layers.update(trace_watch(bins, inputs, stats, work, watch_file,
                                  tally))
        print("chrome trace: %s" % watch_file)
    return layers


# --------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Input scale overrides, for the tiny-scale self-test only.
    parser.add_argument("--cert-scale", type=float, default=FIXTURE_CERT_SCALE,
                        help=argparse.SUPPRESS)
    parser.add_argument("--conn-scale", type=float, default=FIXTURE_CONN_SCALE,
                        help=argparse.SUPPRESS)
    parser.add_argument("--paper-scales", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    paper_scales = (tuple(float(x) for x in args.paper_scales.split(","))
                    if args.paper_scales else None)

    try:
        spec = load_spec()
        bins = build()
        info = stamp(bins, args.seed)
        print("stamp: " + json.dumps(info, sort_keys=True))
        inputs, stats = None, {}
        if args.workload != "paper_repro":
            inputs, stats = prepare_inputs(bins, args.seed, args.cert_scale,
                                           args.conn_scale)
            print("inputs: " + json.dumps(stats, sort_keys=True))
        tally = Tally()
        if args.trace:
            values = run_traced(bins, args.workload, inputs, stats, args.seed,
                                paper_scales, tally)
            wanted = spec["per_layer"]
        else:
            if args.workload == "batch_tsv":
                setup = ["--ssl-log=" + os.path.join(inputs, "ssl.log"),
                         "--x509-log=" + os.path.join(inputs, "x509.log")]
            elif args.workload == "batch_mtlc":
                setup = ["--mtlc=" + os.path.join(inputs, "fixture.mtlc")]
            else:
                setup = ["--seed=%d" % args.seed,
                         "--experiments=" + ",".join(PAPER_EXPERIMENTS)]
            steal0, total0 = cpu_steal()
            probe = SetupProbe(bins, ["--workload=" + args.workload,
                                      "--threads=%d" % nproc(), *setup])
            if args.workload in ("batch_tsv", "batch_mtlc"):
                values, extra = run_batch(bins, args.workload, inputs, stats,
                                          args.seconds, probe, tally)
            else:
                values, extra = run_paper(bins, args.seed, args.seconds,
                                          paper_scales, probe, tally)
            values["setup_s"] = probe.median()
            extra["setup_probes"] = len(probe.values)
            steal1, total1 = cpu_steal()
            extra["cpu_steal_share"] = (steal1 - steal0) / max(
                1, total1 - total0)
            print("details: " + json.dumps(extra, sort_keys=True))
            wanted = spec["end_to_end"]
    except BenchError as error:
        log("perfbench: %s" % error)
        return 1

    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("%-44s %18.6f %s" % (metric["name"], value, metric["unit"]))
    # Measured values BENCHMARK.json does not list (helper fields of the
    # traced runs) are shown, not scored.
    for name in sorted(set(values) - set(metrics)):
        if isinstance(values[name], (int, float)):
            print("%-44s %18.6f (not in BENCHMARK.json)" % (name, values[name]))
    for problem in tally.problems:
        print("FAILED CHECK: " + problem)
    print("failed_ratio: %.6f (%d of %d records)" % (
        tally.failed / max(1, tally.attempted), tally.failed, tally.attempted))
    print(json.dumps({"correct": tally.failed == 0 and not tally.problems,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
