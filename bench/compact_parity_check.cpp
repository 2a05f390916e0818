// compact_parity_check: end-to-end teeth for the compact container
// (DESIGN §14). Converts the clean ~100 MB fixture pair with
// `mtlscope compact --verify`, then asserts:
//
//   1. `mtlscope run --all --format=json --stable-output` over the
//      container is byte-identical to the same run over the TSV pair,
//      at --threads=1 and --threads=4, via both `--format=compact` and
//      magic-probe auto-detection, and a container run's perf envelope
//      reports "scan":"columnar" (a TSV run's, "rows");
//   2. the degraded path: skip-mode conversion of the 1%-corrupted
//      fixture copies succeeds, `compact --verify` re-expands it against
//      the dirty TSV pair (quarantined counts included), and a skip-mode
//      compact run reports the same data-quality block as the dirty TSV
//      run, byte for byte;
//   3. default abort-mode conversion refuses the dirty input.
//
// Usage: compact_parity_check --fixture-dir=DIR --mtlscope=PATH
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mtlscope/ingest/fault.hpp"

namespace {

struct RunResult {
  std::string output;
  int exit_code = -1;
};

RunResult run_child(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& capture_path) {
  RunResult result;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return result;
  }
  if (pid == 0) {
    const int fd = open(capture_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(127);
    close(fd);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }

  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    return result;
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  std::ifstream in(capture_path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  result.output = std::move(text).str();
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

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

  const std::filesystem::path dir = fixture_dir;
  const std::string clean_ssl = (dir / "ssl.log").string();
  const std::string clean_x509 = (dir / "x509.log").string();
  if (!std::filesystem::exists(clean_ssl) ||
      !std::filesystem::exists(clean_x509)) {
    std::fprintf(stderr, "fixture logs missing under %s (run ingest_fixture)\n",
                 fixture_dir.c_str());
    return 2;
  }

  // 1a. Convert the clean pair, verifying the round trip in-process.
  const std::string clean_container = (dir / "parity_clean.mtlc").string();
  {
    const auto run = run_child(
        mtlscope,
        {"compact", "--ssl-log=" + clean_ssl, "--x509-log=" + clean_x509,
         "--out=" + clean_container, "--verify"},
        (dir / "parity_compact.out").string());
    if (run.exit_code != 0) {
      std::fprintf(stderr, "FAIL: compact --verify exited %d\n",
                   run.exit_code);
      return 1;
    }
    if (!contains(run.output, "ssl rows") ||
        !contains(run.output, "verified")) {
      std::fprintf(stderr, "FAIL: compact --verify output unexpected:\n%s\n",
                   run.output.c_str());
      return 1;
    }
    std::printf("clean conversion verified: %s",
                run.output.c_str());
  }

  // 1b. Full-registry canonical JSON must be byte-identical across
  //     {TSV, container} x {1, 4} threads. The container runs exercise
  //     both the explicit --format=compact spelling and auto-detection.
  std::string reference;
  int combo = 0;
  for (const char* threads : {"--threads=1", "--threads=4"}) {
    const std::vector<std::vector<std::string>> inputs = {
        {"--ssl-log=" + clean_ssl, "--x509-log=" + clean_x509},
        {"--ssl-log=" + clean_container,
         combo == 0 ? "--format=compact" : "--format=auto"},
    };
    for (const auto& input : inputs) {
      std::vector<std::string> args = {"run", "--all", "--format=json",
                                       "--stable-output", threads};
      args.insert(args.end(), input.begin(), input.end());
      const auto run = run_child(
          mtlscope, args,
          (dir / ("parity_run_" + std::to_string(combo) + ".json")).string());
      if (run.exit_code != 0) {
        std::fprintf(stderr, "FAIL: parity run %d exited %d\n", combo,
                     run.exit_code);
        return 1;
      }
      if (reference.empty()) {
        reference = run.output;
      } else if (run.output != reference) {
        std::fprintf(stderr,
                     "FAIL: parity run %d output differs from run 0 "
                     "(%zu vs %zu bytes)\n",
                     combo, run.output.size(), reference.size());
        return 1;
      }
      ++combo;
    }
  }
  std::printf("clean parity: %d runs byte-identical (%zu bytes each)\n",
              combo, reference.size());

  // 1c. The perf envelope (absent under --stable-output) names the scan
  //     that fed the phases: the block scan for a container, rows for TSV.
  const struct {
    std::vector<std::string> input;
    const char* expect;
  } probes[] = {
      {{"--ssl-log=" + clean_container}, "\"scan\":\"columnar\""},
      {{"--ssl-log=" + clean_ssl, "--x509-log=" + clean_x509},
       "\"scan\":\"rows\""},
  };
  for (const auto& probe : probes) {
    std::vector<std::string> args = {"run", "table1", "--format=json"};
    args.insert(args.end(), probe.input.begin(), probe.input.end());
    const auto run =
        run_child(mtlscope, args, (dir / "parity_envelope.json").string());
    if (run.exit_code != 0 || !contains(run.output, probe.expect)) {
      std::fprintf(stderr, "FAIL: envelope run over %s (exit %d) lacks %s\n",
                   probe.input.front().c_str(), run.exit_code, probe.expect);
      return 1;
    }
  }
  std::printf("perf envelope reports the columnar scan for containers\n");

  // 2. Degraded path: deterministically dirty copies (~1% of data rows,
  //    same seeds as degraded_run_check so the fixture files coincide).
  const std::string dirty_ssl = (dir / "parity_dirty_ssl.log").string();
  const std::string dirty_x509 = (dir / "parity_dirty_x509.log").string();
  std::size_t ssl_corrupted = 0, x509_corrupted = 0;
  write_file(dirty_ssl, mtlscope::ingest::corrupt_log_rows(
                            slurp(clean_ssl), 20240504, 0.01, &ssl_corrupted));
  write_file(dirty_x509,
             mtlscope::ingest::corrupt_log_rows(slurp(clean_x509), 20240505,
                                                0.01, &x509_corrupted));
  if (ssl_corrupted == 0 || x509_corrupted == 0) {
    std::fprintf(stderr,
                 "FAIL: corruption seeded no dirty rows (ssl=%zu x509=%zu)\n",
                 ssl_corrupted, x509_corrupted);
    return 1;
  }

  const std::string dirty_container = (dir / "parity_dirty.mtlc").string();
  {
    const auto run = run_child(
        mtlscope,
        {"compact", "--ssl-log=" + dirty_ssl, "--x509-log=" + dirty_x509,
         "--out=" + dirty_container, "--on-error=skip", "--verify"},
        (dir / "parity_compact_dirty.out").string());
    if (run.exit_code != 0) {
      std::fprintf(stderr, "FAIL: skip-mode compact --verify exited %d\n",
                   run.exit_code);
      return 1;
    }
    if (!contains(run.output, "quarantined")) {
      std::fprintf(stderr,
                   "FAIL: degraded verify did not report quarantined "
                   "rows:\n%s\n",
                   run.output.c_str());
      return 1;
    }
    std::printf("degraded conversion verified: %s", run.output.c_str());
  }

  // 2b. A skip-mode run over the dirty container matches the dirty TSV
  //     run, data-quality block included.
  {
    const std::vector<std::vector<std::string>> inputs = {
        {"--ssl-log=" + dirty_ssl, "--x509-log=" + dirty_x509},
        {"--ssl-log=" + dirty_container},
    };
    std::string dirty_reference;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::vector<std::string> args = {"run", "table1", "--format=json",
                                       "--stable-output", "--on-error=skip",
                                       "--threads=4"};
      args.insert(args.end(), inputs[i].begin(), inputs[i].end());
      const auto run = run_child(
          mtlscope, args,
          (dir / ("parity_dirty_run_" + std::to_string(i) + ".json"))
              .string());
      if (run.exit_code != 0) {
        std::fprintf(stderr, "FAIL: dirty parity run %zu exited %d\n", i,
                     run.exit_code);
        return 1;
      }
      if (!contains(run.output, "data_quality") ||
          !contains(run.output, "quarantined")) {
        std::fprintf(stderr,
                     "FAIL: dirty parity run %zu lacks a data-quality "
                     "block\n",
                     i);
        return 1;
      }
      if (dirty_reference.empty()) {
        dirty_reference = run.output;
      } else if (run.output != dirty_reference) {
        std::fprintf(stderr,
                     "FAIL: dirty compact run differs from dirty TSV run "
                     "(%zu vs %zu bytes)\n",
                     run.output.size(), dirty_reference.size());
        return 1;
      }
    }
    std::printf("degraded parity: TSV and compact data-quality blocks "
                "byte-identical\n");
  }

  // 3. Default abort mode must refuse to convert dirty input.
  {
    const std::string refused = (dir / "parity_refused.mtlc").string();
    const auto run = run_child(
        mtlscope,
        {"compact", "--ssl-log=" + dirty_ssl, "--x509-log=" + dirty_x509,
         "--out=" + refused},
        (dir / "parity_compact_abort.out").string());
    if (run.exit_code == 0) {
      std::fprintf(stderr, "FAIL: abort-mode compact accepted dirty input\n");
      return 1;
    }
    if (std::filesystem::exists(refused)) {
      std::fprintf(stderr,
                   "FAIL: failed conversion left a partial container\n");
      return 1;
    }
    std::printf("abort mode: dirty conversion refused (exit %d)\n",
                run.exit_code);
  }

  std::printf("PASS\n");
  return 0;
}
