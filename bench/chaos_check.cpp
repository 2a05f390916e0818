// chaos_check: deterministic crash/fault campaign over the durable
// write path (DESIGN §16). It builds a small self-contained fixture
// (generated logs, no external data), records two references — a batch
// `mtlscope run` and an uninterrupted `mtlscope watch` to idle exit —
// then replays the same watch under a seeded schedule of injected
// faults (FaultVfs, configured through the MTLSCOPE_* environment):
//
//   * crash-point kills at every labeled publication boundary
//     (watch.publish / watch.checkpoint × after_write / after_fsync /
//     after_rename, each at two hit counts) — the child must die with
//     the injector's exit code, proving the site routes through the
//     instrumented path; every surviving published file must be
//     byte-identical to the uninterrupted run; the resumed daemon must
//     reproduce the reference output set exactly;
//   * torn renames (rename lands, bytes truncated, process dies) on
//     checkpoint generations and on published documents — a torn
//     newest checkpoint must resume from generation N-1, never a cold
//     re-read when an older generation verifies;
//   * finite ENOSPC/EIO storms — the daemon must enter degraded mode
//     (last-good outputs retained), recover when the storm passes, and
//     exit 0 with reference-identical outputs;
//   * post-hoc checkpoint corruption (truncated newest, bit-flipped
//     newest, all generations destroyed) — resume degrades one
//     generation or starts fresh, and still converges byte-identically;
//   * single-shot crash audits of the non-daemon publication sites
//     (cli.out, state.save, compact.finish).
//
// Every schedule is a pure function of the campaign seed list — no
// clocks, no randomness — so a failure replays exactly.
//
// Usage: chaos_check --mtlscope=PATH --work-dir=DIR [--seeds=N1,N2,...]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check_util.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace check;

namespace {

namespace fs = std::filesystem;

constexpr const char* kExperiments = "table1,fig1";
constexpr int kCrashExit = mtlscope::ingest::kCrashPointExitCode;
constexpr int kTornExit = mtlscope::ingest::kTornRenameExitCode;

int g_schedules = 0;  // every injected schedule counts toward the floor

/// Runs a child to exit with stdout+stderr captured fresh in
/// `capture_path` and extra environment ("K=V" strings — the FaultVfs
/// schedule). Exit code, or -1 when it died to a signal.
int run_to_exit(const std::string& binary,
                const std::vector<std::string>& args,
                const std::string& capture_path,
                const std::vector<std::string>& env = {}) {
  std::error_code ec;
  fs::remove(capture_path, ec);
  const pid_t pid =
      spawn_child(binary, args, capture_path, capture_path, env);
  if (pid < 0) return -1;
  return wait_child(pid);
}

/// Visible (non-dot) files in a directory: name → bytes. Temp siblings
/// are dot-prefixed by design, so their appearance here is itself a bug.
std::map<std::string, std::string> read_outputs(const std::string& dir) {
  std::map<std::string, std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.empty() || name[0] == '.') continue;
    out[name] = slurp(it->path().string());
  }
  return out;
}

std::uint64_t newest_checkpoint_gen(const std::string& dir,
                                    std::string* path = nullptr) {
  std::uint64_t best = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("watch.ckpt.", 0) != 0) continue;
    const std::uint64_t gen =
        std::strtoull(name.c_str() + std::strlen("watch.ckpt."), nullptr, 10);
    if (gen >= best) {
      best = gen;
      if (path != nullptr) *path = it->path().string();
    }
  }
  return best;
}

struct Campaign {
  std::string mtlscope;
  fs::path dir;
  std::string ssl_log, x509_log;
  std::map<std::string, std::string> reference;  // uninterrupted watch
  int failures = 0;

  std::vector<std::string> watch_args(const std::string& out_dir,
                                      const std::string& ckpt_dir) const {
    return {"watch",
            "--ssl-log=" + ssl_log,
            "--x509-log=" + x509_log,
            "--out-dir=" + out_dir,
            "--checkpoint-dir=" + ckpt_dir,
            "--run=" + std::string(kExperiments),
            "--window=week",
            "--rollup=4",
            "--stable-output",
            "--threads=1",
            "--poll-ms=10",
            "--checkpoint-every=0",
            "--checkpoint-keep=3",
            "--exit-idle-ms=1500"};
  }

  void fail(const std::string& what) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }

  /// Every visible window/roll-up file the faulted run published must
  /// byte-match the reference file of the same name (they are written
  /// once per name, deterministically). cumulative.json is re-published
  /// with an evolving fold, so a mid-run survivor holds an interim
  /// value: for it the audit is atomicity — a complete JSON document,
  /// never a torn prefix — and check_complete pins the final bytes
  /// after resume. `exclude` names the one file a torn rename
  /// legitimately corrupted.
  bool check_survivors(const std::string& out_dir, const std::string& label,
                      const std::string& exclude = {}) {
    bool ok = true;
    for (const auto& [name, bytes] : read_outputs(out_dir)) {
      if (name == exclude) continue;
      if (name == "cumulative.json") {
        const std::size_t last = bytes.find_last_not_of(" \t\r\n");
        if (bytes.empty() || bytes[0] != '{' || last == std::string::npos ||
            (bytes[last] != '}' && bytes[last] != ']')) {
          fail(label + ": surviving cumulative.json is torn");
          ok = false;
        }
        continue;
      }
      const auto it = reference.find(name);
      if (it == reference.end()) {
        fail(label + ": published unknown file " + name);
        ok = false;
      } else if (it->second != bytes) {
        fail(label + ": surviving " + name + " differs from reference");
        ok = false;
      }
    }
    return ok;
  }

  /// The resumed run must reproduce the reference set exactly: same
  /// names, same bytes, nothing extra.
  bool check_complete(const std::string& out_dir, const std::string& label) {
    const auto got = read_outputs(out_dir);
    bool ok = true;
    for (const auto& [name, bytes] : reference) {
      const auto it = got.find(name);
      if (it == got.end()) {
        fail(label + ": never published " + name);
        ok = false;
      } else if (it->second != bytes) {
        fail(label + ": " + name + " differs from reference");
        ok = false;
      }
    }
    if (got.size() != reference.size()) {
      fail(label + ": published " + std::to_string(got.size()) +
           " files, reference has " + std::to_string(reference.size()));
      ok = false;
    }
    return ok;
  }

  /// One faulted watch + resume cycle. `env` configures the injector;
  /// `expect_exit` is the injector's exit code (the schedule must fire —
  /// a schedule that never fires is a harness bug or a site that
  /// bypassed the instrumented path). Returns the faulted run's stderr.
  std::string crash_and_resume(const std::string& tag,
                               const std::vector<std::string>& env,
                               int expect_exit,
                               const std::string& exclude_survivor = {}) {
    ++g_schedules;
    const std::string out_dir = (dir / ("out_" + tag)).string();
    const std::string ckpt_dir = (dir / ("ckpt_" + tag)).string();
    const std::string log = (dir / ("log_" + tag + ".txt")).string();
    fs::remove_all(out_dir);
    fs::remove_all(ckpt_dir);

    const int code =
        run_to_exit(mtlscope, watch_args(out_dir, ckpt_dir), log, env);
    const std::string faulted_stderr = slurp(log);
    if (code != expect_exit) {
      fail(tag + ": expected exit " + std::to_string(expect_exit) + ", got " +
           std::to_string(code) + " (schedule never fired?)\n" +
           faulted_stderr);
      return faulted_stderr;
    }
    check_survivors(out_dir, tag, exclude_survivor);

    const std::string resume_log = (dir / ("log_" + tag + "_resume.txt")).string();
    const int resumed =
        run_to_exit(mtlscope, watch_args(out_dir, ckpt_dir), resume_log);
    if (resumed != 0) {
      fail(tag + ": resume exited " + std::to_string(resumed) + "\n" +
           slurp(resume_log));
      return faulted_stderr;
    }
    check_complete(out_dir, tag + " (resumed)");
    return faulted_stderr;
  }
};

/// "a,b,c" → numbers; empty string → empty list.
std::vector<std::uint64_t> parse_seeds(const std::string& list) {
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (start <= list.size() && !list.empty()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Campaign c;
  std::string work_dir;
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mtlscope=", 11) == 0) {
      c.mtlscope = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--work-dir=", 11) == 0) {
      work_dir = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds = parse_seeds(argv[i] + 8);
    }
  }
  if (c.mtlscope.empty() || work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s --mtlscope=PATH --work-dir=DIR [--seeds=N,...]\n",
                 argv[0]);
    return 2;
  }
  c.dir = work_dir;
  fs::create_directories(c.dir);

  // --- fixture: small generated log pair, ssl time-sorted so windows
  // close progressively and publications happen mid-stream ---
  {
    using namespace mtlscope;
    gen::TraceGenerator generator(gen::paper_model(4'000, 400'000));
    const auto dataset = generator.generate_dataset();
    std::string ssl_text = zeek::ssl_log_to_string(dataset.ssl());
    std::string header;
    std::vector<std::string> rows;
    std::size_t pos = 0;
    while (pos < ssl_text.size()) {
      std::size_t eol = ssl_text.find('\n', pos);
      if (eol == std::string::npos) eol = ssl_text.size() - 1;
      const std::string line = ssl_text.substr(pos, eol - pos + 1);
      pos = eol + 1;
      if (!line.empty() && line[0] == '#' && rows.empty()) {
        header += line;
      } else {
        rows.push_back(line);
      }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const std::string& a, const std::string& b) {
                       return std::atof(a.c_str()) < std::atof(b.c_str());
                     });
    std::string sorted = header;
    for (const auto& row : rows) sorted += row;
    c.ssl_log = (c.dir / "ssl.log").string();
    c.x509_log = (c.dir / "x509.log").string();
    write_file(c.ssl_log, sorted);
    write_file(c.x509_log, zeek::x509_log_to_string(dataset));
    if (rows.size() < 100) {
      std::fprintf(stderr, "fixture implausibly small: %zu ssl rows\n",
                   rows.size());
      return 2;
    }
    std::printf("fixture: %zu ssl rows, %zu certificates\n", rows.size(),
                dataset.certificate_count());
  }

  // --- batch reference ---
  const std::string batch_path = (c.dir / "batch.json").string();
  {
    const int code = run_to_exit(
        c.mtlscope,
        {"run", "--format=json", "--stable-output", "--threads=1",
         "--ssl-log=" + c.ssl_log, "--x509-log=" + c.x509_log, "table1",
         "fig1"},
        batch_path);
    if (code != 0) {
      std::fprintf(stderr, "FAIL: batch reference exited %d\n", code);
      return 1;
    }
  }

  // --- uninterrupted watch reference ---
  const std::string out_ref = (c.dir / "out_ref").string();
  const std::string ckpt_ref = (c.dir / "ckpt_ref").string();
  {
    const int code = run_to_exit(c.mtlscope, c.watch_args(out_ref, ckpt_ref),
                                 (c.dir / "log_ref.txt").string());
    if (code != 0) {
      std::fprintf(stderr, "FAIL: reference watch exited %d\n%s\n", code,
                   slurp((c.dir / "log_ref.txt").string()).c_str());
      return 1;
    }
  }
  c.reference = read_outputs(out_ref);
  if (c.reference.size() < 3 ||
      c.reference.find("cumulative.json") == c.reference.end()) {
    std::fprintf(stderr, "FAIL: reference watch published %zu files\n",
                 c.reference.size());
    return 1;
  }
  if (c.reference["cumulative.json"] != slurp(batch_path)) {
    std::fprintf(stderr,
                 "FAIL: reference cumulative.json differs from batch run\n");
    return 1;
  }
  const std::uint64_t ref_gens = newest_checkpoint_gen(ckpt_ref);
  if (ref_gens < 2) {
    std::fprintf(stderr, "FAIL: reference wrote only %llu checkpoint gens\n",
                 static_cast<unsigned long long>(ref_gens));
    return 1;
  }
  std::printf("reference: %zu published files, checkpoint generation %llu, "
              "cumulative == batch\n",
              c.reference.size(), static_cast<unsigned long long>(ref_gens));

  // --- crash-point kills: every label × two hit counts. The exit-code
  // requirement doubles as the bypass audit — a label that never fires
  // means a publication site stopped routing through durable_io. ---
  const char* kLabels[] = {
      "watch.publish.after_write",    "watch.publish.after_fsync",
      "watch.publish.after_rename",   "watch.checkpoint.after_write",
      "watch.checkpoint.after_fsync", "watch.checkpoint.after_rename",
  };
  int tag_n = 0;
  for (const char* label : kLabels) {
    for (int k = 1; k <= 2; ++k) {
      const std::string tag = "crash" + std::to_string(tag_n++);
      c.crash_and_resume(
          tag + "_" + label + ":" + std::to_string(k),
          {"MTLSCOPE_CRASH_AT=" + std::string(label) + ":" +
           std::to_string(k)},
          kCrashExit);
    }
  }
  std::printf("crash-point kills: 12 schedules done (%d failures so far)\n",
              c.failures);

  // --- torn checkpoint renames ---
  {
    // K=1: the very first checkpoint generation tears; nothing older
    // verifies, so the resume must say it is starting fresh.
    const std::string err = c.crash_and_resume(
        "tear_ckpt1", {"MTLSCOPE_TEAR_RENAME=1:watch.ckpt"}, kTornExit);
    const std::string resume_log =
        slurp((c.dir / "log_tear_ckpt1_resume.txt").string());
    if (resume_log.find("ignoring checkpoint") == std::string::npos) {
      c.fail("tear_ckpt1: resume did not report the unreadable checkpoint\n" +
             resume_log);
    }
  }
  {
    // K=2: generation 1 is intact, generation 2 tears. The resume must
    // restore generation 1 — one generation back, not a cold re-read.
    const std::string err = c.crash_and_resume(
        "tear_ckpt2", {"MTLSCOPE_TEAR_RENAME=2:watch.ckpt"}, kTornExit);
    const std::string resume_log =
        slurp((c.dir / "log_tear_ckpt2_resume.txt").string());
    if (resume_log.find("restored checkpoint generation 1 (skipped 1 torn)") ==
        std::string::npos) {
      c.fail("tear_ckpt2: resume did not restore generation N-1\n" +
             resume_log);
    }
  }

  // --- torn published documents: the destination is legitimately
  // corrupt after the tear (excluded from the survivor audit); the
  // resume must republish it byte-identically. ---
  for (int k = 1; k <= 2; ++k) {
    const std::string tag = "tear_pub" + std::to_string(k);
    // Run the fault leg manually first to learn which file tore.
    ++g_schedules;
    const std::string out_dir = (c.dir / ("out_" + tag)).string();
    const std::string ckpt_dir = (c.dir / ("ckpt_" + tag)).string();
    const std::string log = (c.dir / ("log_" + tag + ".txt")).string();
    fs::remove_all(out_dir);
    fs::remove_all(ckpt_dir);
    const int code = run_to_exit(
        c.mtlscope, c.watch_args(out_dir, ckpt_dir), log,
        {"MTLSCOPE_TEAR_RENAME=" + std::to_string(k) + ":.json"});
    if (code != kTornExit) {
      c.fail(tag + ": expected exit " + std::to_string(kTornExit) + ", got " +
             std::to_string(code));
      continue;
    }
    std::string torn_name;
    const std::string err = slurp(log);
    const std::size_t at = err.find("torn rename of ");
    if (at != std::string::npos) {
      const std::size_t from = at + std::strlen("torn rename of ");
      const std::size_t to = err.find(';', from);
      torn_name =
          fs::path(err.substr(from, to - from)).filename().string();
    }
    if (torn_name.empty()) {
      c.fail(tag + ": could not identify the torn file\n" + err);
      continue;
    }
    c.check_survivors(out_dir, tag, torn_name);
    const std::string resume_log = (c.dir / ("log_" + tag + "_r.txt")).string();
    if (run_to_exit(c.mtlscope, c.watch_args(out_dir, ckpt_dir),
                    resume_log) != 0) {
      c.fail(tag + ": resume failed\n" + slurp(resume_log));
      continue;
    }
    c.check_complete(out_dir, tag + " (resumed, torn " + torn_name + ")");
  }
  std::printf("torn renames: 4 schedules done (%d failures so far)\n",
              c.failures);

  // --- finite ENOSPC storms: no resume — the daemon itself must ride
  // out the outage in degraded mode and still exit 0 with
  // reference-identical outputs. ---
  const std::uint64_t storm_starts[] = {2, 5, 9, 14};
  for (const std::uint64_t k : storm_starts) {
    ++g_schedules;
    const std::string tag = "storm" + std::to_string(k);
    const std::string out_dir = (c.dir / ("out_" + tag)).string();
    const std::string ckpt_dir = (c.dir / ("ckpt_" + tag)).string();
    const std::string log = (c.dir / ("log_" + tag + ".txt")).string();
    fs::remove_all(out_dir);
    fs::remove_all(ckpt_dir);
    const int code = run_to_exit(
        c.mtlscope, c.watch_args(out_dir, ckpt_dir), log,
        {"MTLSCOPE_FAIL_WRITE=" + std::to_string(k) + ":enospc:40"});
    if (code != 0) {
      c.fail(tag + ": daemon did not survive the storm (exit " +
             std::to_string(code) + ")\n" + slurp(log));
      continue;
    }
    const std::string err = slurp(log);
    if (err.find("degraded") == std::string::npos) {
      c.fail(tag + ": storm never fired (no degraded episode logged)\n" + err);
      continue;
    }
    c.check_complete(out_dir, tag);
  }
  std::printf("ENOSPC storms: 4 schedules done (%d failures so far)\n",
              c.failures);

  // --- post-hoc checkpoint corruption: damage the store of a finished
  // run, relaunch, and require convergence. ---
  const auto corrupted_restart = [&](const std::string& tag,
                                     const std::string& expect_note,
                                     int mode) {
    ++g_schedules;
    const std::string out_dir = (c.dir / ("out_" + tag)).string();
    const std::string ckpt_dir = (c.dir / ("ckpt_" + tag)).string();
    const std::string log = (c.dir / ("log_" + tag + ".txt")).string();
    fs::remove_all(out_dir);
    fs::remove_all(ckpt_dir);
    if (run_to_exit(c.mtlscope, c.watch_args(out_dir, ckpt_dir), log) != 0) {
      c.fail(tag + ": clean run failed");
      return;
    }
    std::string newest;
    if (newest_checkpoint_gen(ckpt_dir, &newest) == 0) {
      c.fail(tag + ": no checkpoint generations on disk");
      return;
    }
    if (mode == 0) {  // truncate newest to half (a torn rename at rest)
      const std::string bytes = slurp(newest);
      write_file(newest, bytes.substr(0, bytes.size() / 2));
    } else if (mode == 1) {  // flip one byte mid-file
      std::string bytes = slurp(newest);
      bytes[bytes.size() / 2] ^= 0x01;
      write_file(newest, bytes);
    } else {  // destroy every generation
      std::error_code ec;
      for (fs::directory_iterator it(ckpt_dir, ec), end; !ec && it != end;
           it.increment(ec)) {
        write_file(it->path().string(), "not a checkpoint");
      }
    }
    const std::string relaunch = (c.dir / ("log_" + tag + "_r.txt")).string();
    if (run_to_exit(c.mtlscope, c.watch_args(out_dir, ckpt_dir), relaunch) !=
        0) {
      c.fail(tag + ": relaunch failed\n" + slurp(relaunch));
      return;
    }
    const std::string err = slurp(relaunch);
    if (err.find(expect_note) == std::string::npos) {
      c.fail(tag + ": relaunch stderr missing \"" + expect_note + "\"\n" +
             err);
    }
    c.check_complete(out_dir, tag + " (relaunched)");
  };
  corrupted_restart("posthoc_trunc", "(skipped 1 torn)", 0);
  corrupted_restart("posthoc_flip", "(skipped 1 torn)", 1);
  corrupted_restart("posthoc_all", "ignoring checkpoint", 2);
  std::printf("post-hoc corruption: 3 schedules done (%d failures so far)\n",
              c.failures);

  // --- non-daemon site audits: each remaining publication site must
  // die at its crash point (proof it routes through durable_io). ---
  {
    ++g_schedules;
    const std::string out_dir = (c.dir / "audit_cli").string();
    fs::create_directories(out_dir);
    const int code = run_to_exit(
        c.mtlscope,
        {"run", "--format=json", "--stable-output", "--threads=1",
         "--ssl-log=" + c.ssl_log, "--x509-log=" + c.x509_log,
         "--out=" + out_dir, "table1"},
        (c.dir / "log_audit_cli.txt").string(),
        {"MTLSCOPE_CRASH_AT=cli.out.after_write:1"});
    if (code != kCrashExit) {
      c.fail("audit cli.out: expected exit " + std::to_string(kCrashExit) +
             ", got " + std::to_string(code));
    }
  }
  {
    ++g_schedules;
    const std::string state = (c.dir / "audit.state").string();
    const int code = run_to_exit(
        c.mtlscope,
        {"map", "--state-out=" + state, "--ssl-log=" + c.ssl_log,
         "--x509-log=" + c.x509_log, "--threads=1"},
        (c.dir / "log_audit_state.txt").string(),
        {"MTLSCOPE_CRASH_AT=state.save.after_rename:1"});
    if (code != kCrashExit) {
      c.fail("audit state.save: expected exit " + std::to_string(kCrashExit) +
             ", got " + std::to_string(code));
    }
  }
  {
    ++g_schedules;
    const std::string container = (c.dir / "audit.mtlc").string();
    ::unlink(container.c_str());
    const int code = run_to_exit(
        c.mtlscope,
        {"compact", "--ssl-log=" + c.ssl_log, "--x509-log=" + c.x509_log,
         "--out=" + container},
        (c.dir / "log_audit_compact.txt").string(),
        {"MTLSCOPE_CRASH_AT=compact.finish.after_fsync:1"});
    if (code != kCrashExit) {
      c.fail("audit compact.finish: expected exit " +
             std::to_string(kCrashExit) + ", got " + std::to_string(code));
    } else if (fs::exists(container)) {
      // Crash before the rename: the published path must not exist.
      c.fail("audit compact.finish: partial container visible at " +
             container);
    }
  }
  std::printf("site audits: 3 schedules done (%d failures so far)\n",
              c.failures);

  // --- seeded sweep extension: each seed derives one storm and one
  // torn checkpoint deterministically. ---
  for (const std::uint64_t s : seeds) {
    {
      ++g_schedules;
      const std::string tag = "sweep_storm_s" + std::to_string(s);
      const std::string out_dir = (c.dir / ("out_" + tag)).string();
      const std::string ckpt_dir = (c.dir / ("ckpt_" + tag)).string();
      const std::string log = (c.dir / ("log_" + tag + ".txt")).string();
      fs::remove_all(out_dir);
      fs::remove_all(ckpt_dir);
      const std::uint64_t from = 2 + (s % 17);
      const char* kind = (s % 2 == 0) ? "enospc" : "eio";
      const int code = run_to_exit(
          c.mtlscope, c.watch_args(out_dir, ckpt_dir), log,
          {"MTLSCOPE_FAIL_WRITE=" + std::to_string(from) + ":" + kind +
           ":" + std::to_string(20 + (s % 5) * 10)});
      if (code != 0) {
        c.fail(tag + ": daemon exited " + std::to_string(code));
      } else {
        if (slurp(log).find("degraded") == std::string::npos) {
          c.fail(tag + ": storm never fired");
        }
        c.check_complete(out_dir, tag);
      }
    }
    c.crash_and_resume(
        "sweep_tear_s" + std::to_string(s),
        {"MTLSCOPE_TEAR_RENAME=" + std::to_string(1 + (s % 3)) +
         ":watch.ckpt"},
        kTornExit);
  }

  std::printf("%d fault schedules exercised, %d failures\n", g_schedules,
              c.failures);
  if (g_schedules < 20) {
    std::fprintf(stderr, "FAIL: campaign too small (%d < 20 schedules)\n",
                 g_schedules);
    return 1;
  }
  if (c.failures != 0) return 1;
  std::printf("PASS\n");
  return 0;
}
