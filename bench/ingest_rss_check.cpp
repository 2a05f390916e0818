// ingest_rss_check: the teeth of the streaming-ingest CTest fixture.
//
// Runs `mtlscope run table1` over the log pair written by ingest_fixture
// — once slurped (--in-memory) as the baseline, then streamed for every
// {threads} x {chunk size} combination in the acceptance matrix — each in
// a child process whose peak RSS is read back via wait4(). The check
// fails unless (a) every streamed run's stdout is byte-identical to the
// baseline's and (b) every streamed run's peak RSS stays under the
// budget. The in-memory run holds both logs plus every parsed record, so
// its RSS scales with input size; the streamed runs must not.
//
// Usage: ingest_rss_check --fixture-dir=DIR --mtlscope=PATH [--budget-mb=N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check_util.hpp"

using namespace check;

int main(int argc, char** argv) {
  std::string fixture_dir, mtlscope;
  long budget_mb = 256;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fixture-dir=", 14) == 0) {
      fixture_dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--mtlscope=", 11) == 0) {
      mtlscope = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--budget-mb=", 12) == 0) {
      budget_mb = std::atol(argv[i] + 12);
    }
  }
  if (fixture_dir.empty() || mtlscope.empty()) {
    std::fprintf(stderr,
                 "usage: %s --fixture-dir=DIR --mtlscope=PATH "
                 "[--budget-mb=N]\n",
                 argv[0]);
    return 2;
  }

  const std::filesystem::path dir = fixture_dir;
  const std::string ssl_path = (dir / "ssl.log").string();
  const std::string x509_path = (dir / "x509.log").string();
  if (!std::filesystem::exists(ssl_path) ||
      !std::filesystem::exists(x509_path)) {
    std::fprintf(stderr, "fixture logs missing under %s (run ingest_fixture)\n",
                 fixture_dir.c_str());
    return 2;
  }
  const auto ssl_mb =
      static_cast<double>(std::filesystem::file_size(ssl_path)) / (1 << 20);

  const std::vector<std::string> common = {
      "run", "table1", "--ssl-log=" + ssl_path, "--x509-log=" + x509_path,
      "--stable-output"};

  // Baseline: slurp both logs, run the in-memory path.
  auto baseline_args = common;
  baseline_args.push_back("--in-memory");
  baseline_args.push_back("--threads=1");
  const auto baseline =
      run_child(mtlscope, baseline_args, (dir / "out_baseline.txt").string());
  if (baseline.exit_code != 0) {
    std::fprintf(stderr, "FAIL: in-memory baseline exited %d\n",
                 baseline.exit_code);
    return 1;
  }
  if (baseline.output.empty()) {
    std::fprintf(stderr, "FAIL: in-memory baseline produced no output\n");
    return 1;
  }
  std::printf("input: %.1f MiB ssl.log; RSS budget: %ld MiB\n", ssl_mb,
              budget_mb);
  std::printf("%-34s peak RSS %6.1f MiB\n", "in-memory baseline (threads=1)",
              static_cast<double>(baseline.max_rss_kb) / 1024);

  // Streamed runs: the acceptance matrix — threads {1,4} x chunk {64K,1M}.
  struct Config {
    int threads;
    const char* chunk_mb;
  };
  const Config configs[] = {
      {1, "0.0625"}, {1, "1"}, {4, "0.0625"}, {4, "1"}};
  bool failed = false;
  int index = 0;
  for (const auto& config : configs) {
    auto args = common;
    args.push_back("--threads=" + std::to_string(config.threads));
    args.push_back(std::string("--chunk-mb=") + config.chunk_mb);
    const auto capture =
        (dir / ("out_streamed_" + std::to_string(index++) + ".txt")).string();
    const auto streamed = run_child(mtlscope, args, capture);

    char label[64];
    std::snprintf(label, sizeof label, "streamed threads=%d chunk=%s MiB",
                  config.threads, config.chunk_mb);
    if (streamed.exit_code != 0) {
      std::fprintf(stderr, "FAIL: %s exited %d\n", label, streamed.exit_code);
      failed = true;
      continue;
    }
    const bool identical = streamed.output == baseline.output;
    const bool within_budget = streamed.max_rss_kb <= budget_mb * 1024;
    std::printf("%-34s peak RSS %6.1f MiB  output %s\n", label,
                static_cast<double>(streamed.max_rss_kb) / 1024,
                identical ? "identical" : "DIFFERS");
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s output differs from in-memory baseline\n",
                   label);
      failed = true;
    }
    if (!within_budget) {
      std::fprintf(stderr, "FAIL: %s peak RSS %ld KiB exceeds %ld MiB budget\n",
                   label, streamed.max_rss_kb, budget_mb);
      failed = true;
    }
  }

  if (failed) return 1;
  std::printf("OK: all streamed runs byte-identical and under the RSS "
              "budget\n");
  return 0;
}
