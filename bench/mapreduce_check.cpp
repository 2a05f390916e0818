// mapreduce_check: end-to-end teeth for distributed runs (DESIGN §12).
// Splits the clean fixture ssl.log into three slices two different ways —
// per-month (rows bucketed by timestamp) and uneven (10% / 60% / 30% by
// row count) — runs `mtlscope map` per slice at --threads=1 and
// --threads=4, and asserts:
//
//   1. each slice's state file is byte-identical across thread counts
//      (canonical serialization);
//   2. `mtlscope reduce` over each slicing x thread count emits canonical
//      JSON byte-identical to a single-host `mtlscope run` over the
//      unsliced logs, for every distributable experiment;
//   3. reducing states produced under different seeds fails with the
//      deterministic incompatibility message.
//
// Usage: mapreduce_check --fixture-dir=DIR --mtlscope=PATH
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Every experiment reportable from shard state: the registry minus
/// dataset_stats (its endpoint sets are not in the shard-state format)
/// and the self-driving ablation_interception, in canonical order. Passed
/// identically to `run` and `reduce --run=` so both sides report the
/// same documents in the same order.
const char* kDistributable =
    "table1,table2,table3,table4,table5,table6,table7,table8,table9,"
    "table13,table14,fig1,fig2,fig3,fig4,fig5,serials,interception,"
    "tracking,renewal,ablation_classifier";

struct RunResult {
  std::string output;  // stdout + stderr, in that order
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

  const std::string err_path = capture_path + ".stderr";
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return result;
  }
  if (pid == 0) {
    const int out_fd =
        open(capture_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err_fd =
        open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out_fd < 0 || err_fd < 0 || dup2(out_fd, STDOUT_FILENO) < 0 ||
        dup2(err_fd, STDERR_FILENO) < 0) {
      _exit(127);
    }
    close(out_fd);
    close(err_fd);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }

  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    return result;
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  for (const auto& path : {capture_path, err_path}) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    result.output += std::move(text).str();
  }
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// Splits a Zeek TSV log into its '#'-metadata header and data rows
/// (newline included in every element).
void split_log(const std::string& text, std::string* header,
               std::vector<std::string>* rows) {
  std::size_t pos = 0;
  bool in_header = true;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string line = text.substr(pos, eol - pos + 1);
    pos = eol + 1;
    if (in_header && !line.empty() && line[0] == '#') {
      *header += line;
    } else {
      in_header = false;
      rows->push_back(line);
    }
  }
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
  const std::string ssl_log = (dir / "ssl.log").string();
  const std::string x509_log = (dir / "x509.log").string();
  if (!std::filesystem::exists(ssl_log) ||
      !std::filesystem::exists(x509_log)) {
    std::fprintf(stderr, "fixture logs missing under %s (run ingest_fixture)\n",
                 fixture_dir.c_str());
    return 2;
  }

  std::string header;
  std::vector<std::string> rows;
  split_log(slurp(ssl_log), &header, &rows);
  if (rows.size() < 100) {
    std::fprintf(stderr, "fixture ssl.log implausibly small: %zu rows\n",
                 rows.size());
    return 2;
  }

  // Two slicings of the same rows. Relative row order is preserved
  // within each slice, but neither slice boundary aligns with the
  // single-host pass — byte-identity must come from the merge algebra,
  // not from luck in the partition.
  struct Slicing {
    const char* name;
    std::vector<std::string> slices;  // 3 file bodies (header + rows)
  };
  std::vector<Slicing> slicings;
  {
    // Per-month: bucket by ~30-day windows of the row timestamp.
    Slicing per_month{"per_month", {header, header, header}};
    for (const auto& row : rows) {
      const double ts = std::atof(row.c_str());
      const auto bucket = static_cast<std::size_t>(ts / (86400.0 * 30)) % 3;
      per_month.slices[bucket] += row;
    }
    slicings.push_back(std::move(per_month));

    // Uneven: 10% / 60% / 30% by row index.
    Slicing uneven{"uneven", {header, header, header}};
    const std::size_t first = rows.size() / 10;
    const std::size_t second = first + (rows.size() * 6) / 10;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      uneven.slices[i < first ? 0 : i < second ? 1 : 2] += rows[i];
    }
    slicings.push_back(std::move(uneven));
  }

  // Single-host reference over the unsliced logs.
  const std::vector<std::string> common = {
      std::string("--run=") + kDistributable, "--format=json",
      "--stable-output", "--ssl-log=" + ssl_log, "--x509-log=" + x509_log};
  std::string reference;
  {
    std::vector<std::string> args = {"run", "--format=json", "--stable-output",
                                     "--threads=4", "--ssl-log=" + ssl_log,
                                     "--x509-log=" + x509_log};
    for (const char* name = kDistributable; *name != '\0';) {
      const char* comma = std::strchr(name, ',');
      args.emplace_back(comma ? std::string(name, comma) : std::string(name));
      name = comma ? comma + 1 : name + std::strlen(name);
    }
    const auto run =
        run_child(mtlscope, args, (dir / "mr_single_host.json").string());
    if (run.exit_code != 0) {
      std::fprintf(stderr, "FAIL: single-host run exited %d\n%s\n",
                   run.exit_code, run.output.c_str());
      return 1;
    }
    reference = slurp((dir / "mr_single_host.json").string());
  }
  std::printf("single-host reference: %zu bytes of canonical JSON\n",
              reference.size());

  for (auto& slicing : slicings) {
    // Write the slice files once per slicing.
    std::vector<std::string> slice_paths;
    for (std::size_t s = 0; s < slicing.slices.size(); ++s) {
      const std::string path =
          (dir / ("mr_" + std::string(slicing.name) + "_ssl" +
                  std::to_string(s) + ".log"))
              .string();
      write_file(path, slicing.slices[s]);
      slice_paths.push_back(path);
    }

    std::vector<std::vector<std::string>> states_by_threads;
    for (const char* threads : {"--threads=1", "--threads=4"}) {
      // Map each slice. Every slice pairs with the full x509.log: the
      // certificate registry only admits certificates its slice's
      // connections reference, so sharing the x509 input is safe.
      std::vector<std::string> state_paths;
      for (std::size_t s = 0; s < slice_paths.size(); ++s) {
        const std::string state_path =
            (dir / ("mr_" + std::string(slicing.name) + "_t" +
                    std::string(threads + 10) + "_s" + std::to_string(s) +
                    ".state"))
                .string();
        const auto map = run_child(
            mtlscope,
            {"map", "--state-out=" + state_path, "--ssl-log=" + slice_paths[s],
             "--x509-log=" + x509_log, threads},
            (dir / "mr_map_out.txt").string());
        if (map.exit_code != 0) {
          std::fprintf(stderr, "FAIL: map %s slice %zu (%s) exited %d\n%s\n",
                       slicing.name, s, threads, map.exit_code,
                       map.output.c_str());
          return 1;
        }
        state_paths.push_back(state_path);
      }
      states_by_threads.push_back(state_paths);

      // Reduce and byte-compare against the single-host reference.
      std::vector<std::string> args = {"reduce"};
      args.insert(args.end(), state_paths.begin(), state_paths.end());
      args.insert(args.end(), common.begin(), common.end());
      const std::string out_path =
          (dir / ("mr_reduce_" + std::string(slicing.name) + "_t" +
                  std::string(threads + 10) + ".json"))
              .string();
      const auto reduce = run_child(mtlscope, args, out_path);
      if (reduce.exit_code != 0) {
        std::fprintf(stderr, "FAIL: reduce %s (%s) exited %d\n%s\n",
                     slicing.name, threads, reduce.exit_code,
                     reduce.output.c_str());
        return 1;
      }
      const std::string reduced = slurp(out_path);
      if (reduced != reference) {
        std::fprintf(stderr,
                     "FAIL: reduce %s (%s) differs from single-host run "
                     "(%zu vs %zu bytes) — see %s\n",
                     slicing.name, threads, reduced.size(), reference.size(),
                     out_path.c_str());
        return 1;
      }
      std::printf("reduce %s %s: byte-identical to single host\n",
                  slicing.name, threads);
    }

    // Canonical serialization: per-slice states agree across threads.
    for (std::size_t s = 0; s < slice_paths.size(); ++s) {
      if (slurp(states_by_threads[0][s]) != slurp(states_by_threads[1][s])) {
        std::fprintf(stderr,
                     "FAIL: %s slice %zu state differs between "
                     "--threads=1 and --threads=4\n",
                     slicing.name, s);
        return 1;
      }
    }
    std::printf("%s: state files byte-identical across thread counts\n",
                slicing.name);
  }

  // Incompatible states (different seeds) must be refused outright.
  {
    const std::string slice0 =
        (dir / "mr_per_month_ssl0.log").string();
    const std::string odd_state = (dir / "mr_oddseed.state").string();
    const auto map = run_child(
        mtlscope,
        {"map", "--state-out=" + odd_state, "--ssl-log=" + slice0,
         "--x509-log=" + x509_log, "--seed=111", "--threads=4"},
        (dir / "mr_map_out.txt").string());
    if (map.exit_code != 0) {
      std::fprintf(stderr, "FAIL: odd-seed map exited %d\n", map.exit_code);
      return 1;
    }
    std::vector<std::string> args = {
        "reduce", (dir / "mr_per_month_t1_s1.state").string(), odd_state};
    args.insert(args.end(), common.begin(), common.end());
    const auto reduce =
        run_child(mtlscope, args, (dir / "mr_mismatch.json").string());
    if (reduce.exit_code == 0) {
      std::fprintf(stderr, "FAIL: reduce accepted mismatched seeds\n");
      return 1;
    }
    if (!contains(reduce.output,
                  "cannot reduce: incompatible shard states")) {
      std::fprintf(stderr,
                   "FAIL: mismatch refusal lacks the deterministic "
                   "message:\n%s\n",
                   reduce.output.c_str());
      return 1;
    }
    std::printf("seed mismatch refused deterministically (exit %d)\n",
                reduce.exit_code);
  }

  // Tidy the large intermediates; keep the JSON outputs for debugging.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("mr_", 0) == 0 &&
        (name.find(".state") != std::string::npos ||
         name.find("_ssl") != std::string::npos)) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  std::printf("PASS\n");
  return 0;
}
