#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at a tiny input
scale for one second. Checks that the last stdout line is the result
object with every end-to-end (or per-layer) metric, each with its unit
and a numeric value. Then checks that a corrupted output is counted as a
failure (batch --out documents, the watch replay's cumulative document)
and that Debug and sanitizer builds are refused. Exits non-zero on any
failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEED = 7
CERT_SCALE, CONN_SCALE = 20000, 250000  # ~89 k ssl rows
PAPER_SCALES = "2000,2000000"

failures = []


def expect(condition, message):
    print("%s %s" % ("ok  " if condition else "FAIL", message), flush=True)
    if not condition:
        failures.append(message)


def check_result(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--cert-scale", str(CERT_SCALE),
           "--conn-scale", str(CONN_SCALE), "--paper-scales", PAPER_SCALES]
    out = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, check=False)
    label = "%s --trace %d" % (workload, trace)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        expect(False, "%s exited %d: %s" % (
            label, out.returncode, out.stderr.decode()[-500:]))
        return
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + ": result keys")
    expect(result["correct"] is True and result["failed"] == 0,
           label + ": correct with no failures")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           label + ": attempted is a positive integer")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
           label + ": exactly the BENCHMARK.json metrics")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        value = got.get("value")
        expect(got.get("unit") == metric["unit"] and
               isinstance(value, (int, float)) and math.isfinite(value),
               "%s: %s printed in %s" % (label, metric["name"],
                                         metric["unit"]))
    # Every end-to-end metric, and the watch replay's layers, which only
    # batch_tsv's traced run measures.
    for metric in wanted:
        if not trace or (workload == "batch_tsv" and
                         metric["name"].startswith("watch.")):
            expect(result["metrics"][metric["name"]]["value"] > 0,
                   "%s: %s is non-zero" % (label, metric["name"]))


def flip_byte(path):
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        data[len(data) // 2] ^= 0x01
        handle.seek(0)
        handle.write(data)


def check_corruption(bins):
    os.chdir(bench.ROOT)
    inputs, stats = bench.prepare_inputs(bins, SEED, CERT_SCALE, CONN_SCALE)
    experiments = bench.batch_experiments(bins)
    reference = bench.batch_reference(bins, inputs, experiments)
    out_dir = bench.rel("work", "selftest", "job")
    job = bench.Job([bins["mtlscope"], "run", *experiments,
                     *bench.batch_input_args("batch_mtlc", inputs),
                     "--threads=2", "--format=json", "--stable-output",
                     "--out=" + out_dir], out_dir=out_dir)
    ok, _, _ = bench.check_batch_output(job, reference["digest"],
                                        reference["files"])
    expect(ok, "untouched batch output matches the reference")
    flip_byte(os.path.join(out_dir, "table1.json"))
    ok, _, problem = bench.check_batch_output(job, reference["digest"],
                                              reference["files"])
    tally = bench.Tally()
    tally.add(int(stats["ssl_rows"]), ok, 0, problem)
    expect(not ok and tally.failed == int(stats["ssl_rows"]),
           "corrupted batch output counts every record as failed")

    work = bench.rel("work", "selftest")
    trace = os.path.join(work, "watch-trace.json")
    tally = bench.Tally()
    layers = bench.trace_watch(bins, inputs, stats, work, trace, tally)
    expect(tally.failed == 0 and not tally.problems,
           "untouched watch replay output passes its checks")
    replay = os.path.join(work, "watch")
    flip_byte(os.path.join(replay, "out", "cumulative.json"))
    tally = bench.Tally()
    bench.check_watch(bins, inputs, replay, layers, int(stats["ssl_rows"]),
                      tally)
    expect(tally.failed > 0 and tally.problems,
           "corrupted cumulative.json counts as failed")


def main():
    spec = bench.load_spec()
    os.chdir(bench.ROOT)
    bins = bench.build()
    expect(bench.refusal({"build_type": "Debug", "sanitize": ""}) is not None,
           "Debug builds are refused")
    expect(bench.refusal({"build_type": "RelWithDebInfo",
                          "sanitize": "address"}) is not None,
           "MTLSCOPE_SANITIZE builds are refused")
    expect(bench.refusal(json.loads(subprocess.check_output(
        [bins["mtlbench"], "stamp"]))) is None,
        "the benchmark's own build is accepted")
    check_corruption(bins)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace, spec)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
