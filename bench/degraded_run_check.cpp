// degraded_run_check: end-to-end teeth for the best-effort pipeline
// (DESIGN §11). Takes the clean log pair written by ingest_fixture,
// produces a deterministically corrupted copy (~1% of data rows via
// ingest::corrupt_log_rows), and drives the real `mtlscope` binary over
// it:
//
//   1. skip mode over one experiment for every {threads} x {chunk-mb}
//      acceptance combination — each run must exit 0 and all canonical
//      JSON outputs (--stable-output) must be byte-identical, with a
//      non-empty data-quality block;
//   2. default abort mode over the same dirty logs — must fail;
//   3. `mtlscope run --all --on-error=skip` — the full registry completes
//      over dirty input with the data-quality block present.
//
// Usage: degraded_run_check --fixture-dir=DIR --mtlscope=PATH
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check_util.hpp"
#include "mtlscope/ingest/fault.hpp"

using namespace check;

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

  const std::filesystem::path dir = fixture_dir;
  const std::string clean_ssl = (dir / "ssl.log").string();
  const std::string clean_x509 = (dir / "x509.log").string();
  if (!std::filesystem::exists(clean_ssl) ||
      !std::filesystem::exists(clean_x509)) {
    std::fprintf(stderr, "fixture logs missing under %s (run ingest_fixture)\n",
                 fixture_dir.c_str());
    return 2;
  }

  // Deterministically dirty copies: ~1% of data rows, fixed seeds.
  const std::string dirty_ssl = (dir / "dirty_ssl.log").string();
  const std::string dirty_x509 = (dir / "dirty_x509.log").string();
  std::size_t ssl_corrupted = 0, x509_corrupted = 0;
  write_file(dirty_ssl, mtlscope::ingest::corrupt_log_rows(
                            slurp(clean_ssl), 20240504, 0.01, &ssl_corrupted));
  write_file(dirty_x509,
             mtlscope::ingest::corrupt_log_rows(slurp(clean_x509), 20240505,
                                                0.01, &x509_corrupted));
  if (ssl_corrupted == 0 || x509_corrupted == 0) {
    std::fprintf(stderr, "FAIL: corruption seeded no dirty rows (ssl=%zu "
                         "x509=%zu)\n",
                 ssl_corrupted, x509_corrupted);
    return 1;
  }
  std::printf("corrupted rows: ssl=%zu x509=%zu\n", ssl_corrupted,
              x509_corrupted);

  const std::vector<std::string> dirty_logs = {"--ssl-log=" + dirty_ssl,
                                               "--x509-log=" + dirty_x509};

  // 1. Skip mode: every acceptance combination must exit 0 and produce
  //    the same canonical JSON, data-quality block included.
  std::string reference;
  int combo = 0;
  for (const char* threads : {"--threads=1", "--threads=4"}) {
    for (const char* chunk : {"--chunk-mb=1", ""}) {
      std::vector<std::string> args = {"run", "table1", "--format=json",
                                       "--stable-output", "--on-error=skip",
                                       threads};
      if (*chunk != '\0') args.push_back(chunk);
      args.insert(args.end(), dirty_logs.begin(), dirty_logs.end());
      const auto run = run_child(
          mtlscope, args,
          (dir / ("out_skip_" + std::to_string(combo) + ".json")).string());
      if (run.exit_code != 0) {
        std::fprintf(stderr, "FAIL: skip-mode run %d exited %d\n", combo,
                     run.exit_code);
        return 1;
      }
      if (!contains(run.output, "data_quality") ||
          !contains(run.output, "quarantined") ||
          !contains(run.output, "skip")) {
        std::fprintf(stderr,
                     "FAIL: skip-mode run %d lacks a data-quality block\n",
                     combo);
        return 1;
      }
      if (!contains(run.output, "\"reasons\"")) {
        std::fprintf(stderr,
                     "FAIL: skip-mode run %d lacks the per-reason "
                     "quarantine breakdown\n",
                     combo);
        return 1;
      }
      if (reference.empty()) {
        reference = run.output;
      } else if (run.output != reference) {
        std::fprintf(stderr,
                     "FAIL: skip-mode run %d output differs from run 0 "
                     "(%zu vs %zu bytes)\n",
                     combo, run.output.size(), reference.size());
        return 1;
      }
      ++combo;
    }
  }
  std::printf("skip mode: %d runs byte-identical, data-quality present\n",
              combo);

  // 2. Default abort mode must refuse the dirty input.
  {
    std::vector<std::string> args = {"run", "table1", "--format=json",
                                     "--stable-output", "--threads=2"};
    args.insert(args.end(), dirty_logs.begin(), dirty_logs.end());
    const auto run =
        run_child(mtlscope, args, (dir / "out_abort.json").string());
    if (run.exit_code == 0) {
      std::fprintf(stderr, "FAIL: abort mode accepted dirty input\n");
      return 1;
    }
    std::printf("abort mode: dirty input rejected (exit %d)\n",
                run.exit_code);
  }

  // 3. The full registry completes best-effort over dirty input.
  {
    std::vector<std::string> args = {"run", "--all", "--format=json",
                                     "--stable-output", "--on-error=skip"};
    args.insert(args.end(), dirty_logs.begin(), dirty_logs.end());
    const auto run =
        run_child(mtlscope, args, (dir / "out_all.json").string());
    if (run.exit_code != 0) {
      std::fprintf(stderr, "FAIL: run --all --on-error=skip exited %d\n",
                   run.exit_code);
      return 1;
    }
    if (!contains(run.output, "data_quality")) {
      std::fprintf(stderr,
                   "FAIL: run --all output lacks a data-quality block\n");
      return 1;
    }
    std::printf("run --all: completed best-effort with data-quality block\n");
  }

  std::error_code ec;
  std::filesystem::remove(dirty_ssl, ec);
  std::filesystem::remove(dirty_x509, ec);
  std::printf("PASS\n");
  return 0;
}
