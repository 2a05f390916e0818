// watch_resume_check: end-to-end teeth for the watch daemon (DESIGN
// §13). Over the ~100 MB ingest fixture (time-sorted so windows close
// progressively), it runs `mtlscope watch` three ways and byte-compares:
//
//   1. a batch reference: `mtlscope run` over the final logs;
//   2. run A — the daemon fed incrementally with a rename rotation and
//      a late writer on the rotated-out segment, different thread count
//      and poll cadence from run B;
//   3. run B — fed incrementally with checkpointing, SIGKILLed mid-run,
//      then resumed to completion;
//   4. run C — `mtlscope compact` of the same sorted pair, appended in
//      chunks that straddle frame boundaries while `watch
//      --format=compact` follows the growing container;
//   5. run D — the daemon over the finished sorted log with table8
//      added (its paper-vs count divides by the certificate scale) and
//      --cert-scale=7 --conn-scale=7, against a batch run at those
//      scales (which must differ from one at the default scales).
//
// Asserts: A's, B's and C's cumulative.json are byte-identical to the
// batch reference, D's to the scaled batch run, and every window-*.json /
// rollup-*.json file of B and C agrees with A's (poll cadence, thread
// count, rotation, a crash and the input format must all be invisible in
// the published bytes).
//
// Usage: watch_resume_check --fixture-dir=DIR --mtlscope=PATH
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check_util.hpp"

using namespace check;

namespace {

namespace fs = std::filesystem;

constexpr const char* kExperiments = "table1,fig1,serials";

void append_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << text;
}

/// The daemon writes generation files (watch.ckpt.<gen>); any one of
/// them (or a legacy un-suffixed watch.ckpt) counts as "checkpointed".
bool has_checkpoint(const std::string& dir) {
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("watch.ckpt", 0) == 0) return true;
  }
  return false;
}

bool wait_for_checkpoint(const std::string& dir, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (has_checkpoint(dir)) return true;
    ::usleep(50 * 1000);
  }
  return has_checkpoint(dir);
}

/// Every file run A published must exist with the same bytes in
/// `other_dir`, and `other_dir` must hold no extra file.
bool same_published_files(const std::string& out_a,
                          const std::string& other_dir, const char* run) {
  std::vector<std::string> names_a;
  for (const auto& entry : fs::directory_iterator(out_a)) {
    names_a.push_back(entry.path().filename().string());
  }
  std::sort(names_a.begin(), names_a.end());
  for (const auto& name : names_a) {
    const std::string other = other_dir + "/" + name;
    if (!fs::exists(other)) {
      std::fprintf(stderr, "FAIL: run %s never published %s\n", run,
                   name.c_str());
      return false;
    }
    if (slurp(out_a + "/" + name) != slurp(other)) {
      std::fprintf(stderr, "FAIL: %s differs between run A and run %s\n",
                   name.c_str(), run);
      return false;
    }
  }
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(other_dir)) {
    (void)entry;
    ++count;
  }
  if (count != names_a.size()) {
    std::fprintf(stderr, "FAIL: run %s published %zu files, run A %zu\n",
                 run, count, names_a.size());
    return false;
  }
  std::printf("%zu published files byte-identical between A and %s\n",
              names_a.size(), run);
  return true;
}

struct Feeder {
  std::string header;
  std::vector<std::string> rows;
  std::string path;
  std::size_t next = 0;

  /// Begins a new stream: fresh header, feed restarts at row 0.
  void start() {
    write_file(path, header);
    next = 0;
  }
  /// Begins a new segment of the SAME stream (post-rotation): fresh
  /// header at `path`, but the feed continues where it left off.
  void reopen() { write_file(path, header); }
  /// Appends the next `n` rows in one write.
  void feed(std::size_t n) {
    std::string block;
    const std::size_t end = std::min(next + n, rows.size());
    for (; next < end; ++next) block += rows[next];
    append_file(path, block);
  }
  bool done() const { return next >= rows.size(); }
};

}  // namespace

int main(int argc, char** argv) {
  std::string fixture_dir, mtlscope;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fixture-dir=", 14) == 0) {
      fixture_dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--mtlscope=", 11) == 0) {
      mtlscope = argv[i] + 11;
    }
  }
  if (fixture_dir.empty() || mtlscope.empty()) {
    std::fprintf(stderr, "usage: %s --fixture-dir=DIR --mtlscope=PATH\n",
                 argv[0]);
    return 2;
  }

  const fs::path dir = fixture_dir;
  const std::string x509_log = (dir / "x509.log").string();
  if (!fs::exists((dir / "ssl.log")) || !fs::exists(x509_log)) {
    std::fprintf(stderr,
                 "fixture logs missing under %s (run ingest_fixture)\n",
                 fixture_dir.c_str());
    return 2;
  }

  // Daemon and compact runs log stdout and stderr together, one file
  // per run (run B's resume appends to its first launch's log).
  const std::string log_a = (dir / "wr_watch_a.txt").string();
  const std::string log_b = (dir / "wr_watch_b.txt").string();
  const std::string log_compact = (dir / "wr_compact.txt").string();
  const std::string log_c = (dir / "wr_watch_c.txt").string();

  // Time-sort the fixture's ssl rows so the record stream advances the
  // watermark monotonically and windows close throughout the feed (the
  // raw fixture is heavily ts-unordered, which would park most rows in
  // the late buffer until drain — legal, but it would not exercise
  // mid-stream window state under the kill).
  Feeder feeder;
  split_log(slurp((dir / "ssl.log").string()), &feeder.header, &feeder.rows);
  if (feeder.rows.size() < 1000) {
    std::fprintf(stderr, "fixture ssl.log implausibly small: %zu rows\n",
                 feeder.rows.size());
    return 2;
  }
  std::stable_sort(feeder.rows.begin(), feeder.rows.end(),
                   [](const std::string& a, const std::string& b) {
                     return std::atof(a.c_str()) < std::atof(b.c_str());
                   });
  const std::string sorted_ssl = (dir / "wr_sorted_ssl.log").string();
  {
    std::string text = feeder.header;
    for (const auto& row : feeder.rows) text += row;
    write_file(sorted_ssl, text);
  }

  // Batch run over the final sorted logs with `extra` flags, written to
  // `path`; an empty string when it fails.
  const auto batch = [&](const std::vector<std::string>& extra,
                         const std::string& path) -> std::string {
    ::unlink(path.c_str());
    std::vector<std::string> args = {"run",
                                     "--format=json",
                                     "--stable-output",
                                     "--threads=2",
                                     "--ssl-log=" + sorted_ssl,
                                     "--x509-log=" + x509_log,
                                     "table1",
                                     "fig1",
                                     "serials"};
    args.insert(args.end(), extra.begin(), extra.end());
    const pid_t pid = spawn_child(mtlscope, args, path, path + ".stderr");
    if (pid < 0 || wait_child(pid) != 0) {
      std::fprintf(stderr, "FAIL: batch reference run failed\n");
      return "";
    }
    return slurp(path);
  };
  const std::string reference = batch({}, (dir / "wr_batch.json").string());
  if (reference.empty()) return 1;
  std::printf("batch reference: %zu bytes over %zu sorted rows\n",
              reference.size(), feeder.rows.size());

  const auto watch_args = [&](const std::string& feed_path,
                              const std::string& out_dir,
                              const std::string& ckpt_dir,
                              const char* threads, const char* poll_ms,
                              bool idle_exit) {
    std::vector<std::string> args = {"watch",
                                     "--ssl-log=" + feed_path,
                                     "--x509-log=" + x509_log,
                                     "--out-dir=" + out_dir,
                                     "--run=" + std::string(kExperiments),
                                     "--window=week",
                                     "--rollup=4",
                                     "--stable-output",
                                     "--report-ssl-log=" + sorted_ssl,
                                     "--report-x509-log=" + x509_log,
                                     threads,
                                     poll_ms};
    if (!ckpt_dir.empty()) {
      args.push_back("--checkpoint-dir=" + ckpt_dir);
      args.push_back("--checkpoint-every=0");
    }
    if (idle_exit) args.push_back("--exit-idle-ms=5000");
    return args;
  };

  const std::size_t chunk = feeder.rows.size() / 16 + 1;

  // --- run A: incremental feed with a rename rotation + late writer ---
  const std::string out_a = (dir / "wr_out_a").string();
  const std::string ckpt_a = (dir / "wr_ckpt_a").string();
  const std::string feed_a = (dir / "wr_feed_a.log").string();
  fs::remove_all(out_a);
  fs::remove_all(ckpt_a);
  ::unlink((feed_a + ".1").c_str());
  feeder.path = feed_a;
  feeder.start();
  feeder.feed(chunk);
  {
    const pid_t pid =
        spawn_child(mtlscope,
                    watch_args(feed_a, out_a, ckpt_a, "--threads=2",
                               "--poll-ms=25", /*idle_exit=*/true),
                    log_a, log_a);
    if (pid < 0) return 1;
    // checkpoint-every=0 writes after the first progressing poll: its
    // appearance proves the daemon holds the original inode before we
    // rotate it away.
    if (!wait_for_checkpoint(ckpt_a, 60'000)) {
      std::fprintf(stderr, "FAIL: run A never checkpointed\n");
      ::kill(pid, SIGKILL);
      return 1;
    }
    for (int i = 0; i < 3 && !feeder.done(); ++i) feeder.feed(chunk);
    ::usleep(100 * 1000);

    // Rename rotation: the old segment keeps receiving a late flush
    // before the writer moves to the fresh file.
    fs::rename(feed_a, feed_a + ".1");
    feeder.path = feed_a + ".1";
    feeder.feed(1000);  // late writer on the rotated-out inode
    feeder.path = feed_a;
    feeder.reopen();  // fresh header, new inode, stream continues
    while (!feeder.done()) {
      feeder.feed(chunk);
      ::usleep(50 * 1000);
    }
    const int code = wait_child(pid);
    if (code != 0) {
      std::fprintf(stderr, "FAIL: run A exited %d\n%s\n", code,
                   slurp(log_a).c_str());
      return 1;
    }
  }
  if (slurp(out_a + "/cumulative.json") != reference) {
    std::fprintf(stderr,
                 "FAIL: run A cumulative.json differs from batch run — "
                 "see %s\n",
                 (out_a + "/cumulative.json").c_str());
    return 1;
  }
  std::printf("run A (rotated, threads=2): cumulative byte-identical to "
              "batch\n");

  // --- run B: incremental feed, SIGKILL mid-run, resume ---
  const std::string out_b = (dir / "wr_out_b").string();
  const std::string ckpt_b = (dir / "wr_ckpt_b").string();
  const std::string feed_b = (dir / "wr_feed_b.log").string();
  fs::remove_all(out_b);
  fs::remove_all(ckpt_b);
  feeder.path = feed_b;
  feeder.start();
  feeder.feed(chunk);
  {
    const pid_t pid =
        spawn_child(mtlscope,
                    watch_args(feed_b, out_b, ckpt_b, "--threads=1",
                               "--poll-ms=10", /*idle_exit=*/false),
                    log_b, log_b);
    if (pid < 0) return 1;
    if (!wait_for_checkpoint(ckpt_b, 60'000)) {
      std::fprintf(stderr, "FAIL: run B never checkpointed\n");
      ::kill(pid, SIGKILL);
      return 1;
    }
    // Feed roughly half, give the daemon time to checkpoint progress,
    // then kill it dead — no signal handler runs for SIGKILL.
    for (int i = 0; i < 7 && !feeder.done(); ++i) {
      feeder.feed(chunk);
      ::usleep(50 * 1000);
    }
    ::usleep(500 * 1000);
    ::kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::fprintf(stderr, "FAIL: run B was not killed as intended\n");
      return 1;
    }
  }
  // The log keeps growing while the daemon is down.
  while (!feeder.done()) feeder.feed(chunk);
  {
    const pid_t pid =
        spawn_child(mtlscope,
                    watch_args(feed_b, out_b, ckpt_b, "--threads=1",
                               "--poll-ms=10", /*idle_exit=*/true),
                    log_b, log_b);
    if (pid < 0) return 1;
    const int code = wait_child(pid);
    if (code != 0) {
      std::fprintf(stderr, "FAIL: run B resume exited %d\n%s\n", code,
                   slurp(log_b).c_str());
      return 1;
    }
  }
  if (slurp(out_b + "/cumulative.json") != reference) {
    std::fprintf(stderr,
                 "FAIL: run B cumulative.json differs from batch run — "
                 "see %s\n",
                 (out_b + "/cumulative.json").c_str());
    return 1;
  }
  std::printf("run B (SIGKILL + resume, threads=1): cumulative "
              "byte-identical to batch\n");

  // --- A vs B: every published window/roll-up file must agree ---
  if (!same_published_files(out_a, out_b, "B")) return 1;

  // --- run C: the same stream as a growing compact container ---
  const std::string container = (dir / "wr_sorted.mtlc").string();
  const std::string out_c = (dir / "wr_out_c").string();
  const std::string feed_c = (dir / "wr_feed_c.mtlc").string();
  fs::remove_all(out_c);
  {
    ::unlink(container.c_str());
    const pid_t pid = spawn_child(
        mtlscope,
        {"compact", "--ssl-log=" + sorted_ssl, "--x509-log=" + x509_log,
         "--out=" + container},
        log_compact, log_compact);
    if (pid < 0 || wait_child(pid) != 0) {
      std::fprintf(stderr, "FAIL: compact of the sorted logs failed\n%s\n",
                   slurp(log_compact).c_str());
      return 1;
    }
  }
  const std::string bytes = slurp(container);
  // An odd chunk size, so appends end mid-frame and the tail carries
  // partial frames across polls. `compact` writes the x509 rows' last
  // block at finish, after the full ssl blocks, so every ssl row waits
  // for it; the daemon force-releases held rows after 50 polls without
  // x509 progress. Eight chunks, each append waking the daemon through
  // inotify, and a poll interval longer than the whole feed keep the
  // polls before that block far below the grace.
  const std::size_t frame_chunk = bytes.size() / 8 + 4093;
  write_file(feed_c, bytes.substr(0, frame_chunk));
  {
    std::vector<std::string> args = {"watch",
                                     "--format=compact",
                                     "--ssl-log=" + feed_c,
                                     "--out-dir=" + out_c,
                                     "--run=" + std::string(kExperiments),
                                     "--window=week",
                                     "--rollup=4",
                                     "--stable-output",
                                     "--report-ssl-log=" + sorted_ssl,
                                     "--report-x509-log=" + x509_log,
                                     "--threads=2",
                                     "--poll-ms=1000",
                                     "--exit-idle-ms=5000"};
    const pid_t pid = spawn_child(mtlscope, args, log_c, log_c);
    if (pid < 0) return 1;
    for (std::size_t off = frame_chunk; off < bytes.size();
         off += frame_chunk) {
      ::usleep(50 * 1000);
      append_file(feed_c, bytes.substr(off, frame_chunk));
    }
    const int code = wait_child(pid);
    if (code != 0) {
      std::fprintf(stderr, "FAIL: run C exited %d\n%s\n", code,
                   slurp(log_c).c_str());
      return 1;
    }
  }
  if (slurp(out_c + "/cumulative.json") != reference) {
    std::fprintf(stderr,
                 "FAIL: run C cumulative.json differs from batch run — "
                 "see %s\n",
                 (out_c + "/cumulative.json").c_str());
    return 1;
  }
  std::printf("run C (compact container in %zu-byte appends): cumulative "
              "byte-identical to batch\n",
              frame_chunk);
  if (!same_published_files(out_a, out_c, "C")) return 1;

  // --- run D: the finished sorted log at non-default scales ---
  {
    const std::string scale_cert = "--cert-scale=7";
    const std::string scale_conn = "--conn-scale=7";
    const std::string unscaled =
        batch({"table8"}, (dir / "wr_batch_table8.json").string());
    const std::string scaled =
        batch({"table8", scale_cert, scale_conn},
              (dir / "wr_batch_scaled.json").string());
    if (unscaled.empty() || scaled.empty()) return 1;
    if (scaled == unscaled) {
      std::fprintf(stderr, "FAIL: the scales left the batch run unchanged\n");
      return 1;
    }
    const std::string out_d = (dir / "wr_out_d").string();
    const std::string log_d = (dir / "wr_watch_d.txt").string();
    fs::remove_all(out_d);
    ::unlink(log_d.c_str());
    auto args = watch_args(sorted_ssl, out_d, "", "--threads=2",
                           "--poll-ms=25", /*idle_exit=*/true);
    args.insert(args.end(), {"--run=table8", scale_cert, scale_conn});
    const int code = wait_child(spawn_child(mtlscope, args, log_d, log_d));
    if (code != 0 || slurp(out_d + "/cumulative.json") != scaled) {
      std::fprintf(stderr,
                   "FAIL: run D (exit %d) cumulative.json differs from the "
                   "scaled batch run — see %s\n%s\n",
                   code, (out_d + "/cumulative.json").c_str(),
                   slurp(log_d).c_str());
      return 1;
    }
  }
  std::printf("run D (--cert-scale=7 --conn-scale=7): cumulative "
              "byte-identical to the scaled batch run\n");

  // Tidy the large intermediates; keep the outputs for debugging.
  std::error_code ec;
  ::unlink(container.c_str());
  ::unlink(feed_c.c_str());
  ::unlink(feed_a.c_str());
  ::unlink((feed_a + ".1").c_str());
  ::unlink(feed_b.c_str());
  ::unlink(sorted_ssl.c_str());
  fs::remove_all(ckpt_a, ec);
  fs::remove_all(ckpt_b, ec);
  std::printf("PASS\n");
  return 0;
}
