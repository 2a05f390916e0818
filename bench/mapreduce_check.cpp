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
//      deterministic incompatibility message;
//   4. file-mode scale flags reach the report the same way on both
//      sides: `map` + `reduce` with --cert-scale=/--conn-scale= emit the
//      same JSON as `run` with them, and that JSON differs from the
//      default-scale reference (the paper-vs counts divide by the scale).
//
// Usage: mapreduce_check --fixture-dir=DIR --mtlscope=PATH
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check_util.hpp"

using namespace check;

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
  // `mtlscope run` over the unsliced logs with `extra` flags, written to
  // `out`; an empty string when it fails.
  const auto single_host = [&](const std::vector<std::string>& extra,
                               const std::string& out) -> std::string {
    std::vector<std::string> args = {"run", "--format=json", "--stable-output",
                                     "--threads=4", "--ssl-log=" + ssl_log,
                                     "--x509-log=" + x509_log};
    args.insert(args.end(), extra.begin(), extra.end());
    for (const char* name = kDistributable; *name != '\0';) {
      const char* comma = std::strchr(name, ',');
      args.emplace_back(comma ? std::string(name, comma) : std::string(name));
      name = comma ? comma + 1 : name + std::strlen(name);
    }
    const auto run = run_child(mtlscope, args, (dir / out).string(),
                               /*capture_stderr=*/true);
    if (run.exit_code != 0) {
      std::fprintf(stderr, "FAIL: single-host run exited %d\n%s\n",
                   run.exit_code, run.output.c_str());
      return "";
    }
    return slurp((dir / out).string());
  };
  const std::string reference = single_host({}, "mr_single_host.json");
  if (reference.empty()) return 1;
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
            (dir / "mr_map_out.txt").string(), /*capture_stderr=*/true);
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
      const auto reduce =
          run_child(mtlscope, args, out_path, /*capture_stderr=*/true);
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
        (dir / "mr_map_out.txt").string(), /*capture_stderr=*/true);
    if (map.exit_code != 0) {
      std::fprintf(stderr, "FAIL: odd-seed map exited %d\n", map.exit_code);
      return 1;
    }
    std::vector<std::string> args = {
        "reduce", (dir / "mr_per_month_t1_s1.state").string(), odd_state};
    args.insert(args.end(), common.begin(), common.end());
    const auto reduce = run_child(mtlscope, args,
                                  (dir / "mr_mismatch.json").string(),
                                  /*capture_stderr=*/true);
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

  // File-mode scales: run, map and reduce all take them, and map +
  // reduce report at them exactly as run does.
  {
    const std::vector<std::string> scales = {"--cert-scale=7",
                                             "--conn-scale=7"};
    const std::string scaled = single_host(scales, "mr_scaled_host.json");
    if (scaled.empty()) return 1;
    if (scaled == reference) {
      std::fprintf(stderr,
                   "FAIL: --cert-scale=7 --conn-scale=7 left the single-host "
                   "report unchanged\n");
      return 1;
    }
    std::vector<std::string> args = {"reduce"};
    for (std::size_t s = 0; s < 3; ++s) {
      const std::string state_path =
          (dir / ("mr_scaled_s" + std::to_string(s) + ".state")).string();
      std::vector<std::string> map_args = {
          "map", "--state-out=" + state_path,
          "--ssl-log=" + (dir / ("mr_uneven_ssl" + std::to_string(s) + ".log"))
                             .string(),
          "--x509-log=" + x509_log};
      map_args.insert(map_args.end(), scales.begin(), scales.end());
      const auto map = run_child(mtlscope, map_args,
                                 (dir / "mr_map_out.txt").string(),
                                 /*capture_stderr=*/true);
      if (map.exit_code != 0) {
        std::fprintf(stderr, "FAIL: scaled map slice %zu exited %d\n%s\n", s,
                     map.exit_code, map.output.c_str());
        return 1;
      }
      args.push_back(state_path);
    }
    args.insert(args.end(), common.begin(), common.end());
    args.insert(args.end(), scales.begin(), scales.end());
    const std::string out_path = (dir / "mr_reduce_scaled.json").string();
    const auto reduce =
        run_child(mtlscope, args, out_path, /*capture_stderr=*/true);
    if (reduce.exit_code != 0 || slurp(out_path) != scaled) {
      std::fprintf(stderr,
                   "FAIL: scaled reduce (exit %d) differs from the scaled "
                   "single-host run — see %s\n%s\n",
                   reduce.exit_code, out_path.c_str(), reduce.output.c_str());
      return 1;
    }
    std::printf("file-mode scales: map + reduce byte-identical to run\n");
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
