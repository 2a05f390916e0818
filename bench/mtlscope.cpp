// mtlscope — the single CLI over the experiment registry.
//
//   mtlscope list
//   mtlscope run table1 fig4 [--format=text|json|csv|tsv] [--out=DIR]
//   mtlscope run --all --format=json
//   mtlscope map --state-out=F --ssl-log=F --x509-log=F
//   mtlscope reduce S1 S2 ... --run=table1,fig1 [--format=json]
//
// `run` groups the requested experiments by model key and configuration,
// so one generated trace serves every compatible experiment (e.g. the
// six pristine-model certificate tables share one pipeline pass). The
// shared flags (--cert-scale= / --conn-scale= / --seed= / --threads= /
// --ssl-log= / --x509-log= / --chunk-mb= / --in-memory /
// --force-buffered / --stable-output / --on-error= / --max-errors= /
// --max-error-rate=) apply to every experiment in the invocation;
// scales default to each experiment's calibrated values.
//
// `map` runs one pipeline pass over an input slice and writes the
// complete shard state (pipeline, analyzers, ledger) to a versioned
// state file; `reduce` merges state files from compatible slices and
// reports any distributable experiments from the merged state,
// byte-identical to a single-host `run` over the concatenated inputs
// (DESIGN §12).
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/experiments/registry.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/watch/daemon.hpp"
#include "mtlscope/watch/scheduler.hpp"

using namespace mtlscope;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s run <experiment>... [--all] "
               "[--format=text|json|csv|tsv] [--out=DIR] [options]\n"
               "       %s map --state-out=FILE "
               "(--ssl-log=F --x509-log=F | --cert-scale=N --conn-scale=N) "
               "[options]\n"
               "       %s reduce <state-file>... (--run=NAME[,NAME...] | "
               "--all) [--format=text|json|csv|tsv] [--out=DIR] [options]\n"
               "       %s compact --ssl-log=F --x509-log=F --out=FILE "
               "[--verify] [--block-rows=N] [--dict-mb=N] [options]\n"
               "       %s compact --verify --out=FILE\n"
               "       %s watch --ssl-log=F --x509-log=F --out-dir=DIR "
               "(--run=NAME[,NAME...] | --all) [--window=hour|day|week|SECS] "
               "[--rollup=N] [--poll-ms=N] [--checkpoint-dir=DIR] "
               "[--checkpoint-every=SECS] [--checkpoint-keep=N] "
               "[--exit-idle-ms=N] "
               "[--report-ssl-log=F --report-x509-log=F] [options]\n"
               "\n"
               "options (apply to every experiment in the run):\n"
               "  --cert-scale=N --conn-scale=N --seed=N --threads=N\n"
               "  --ssl-log=F --x509-log=F --format=auto|zeek|compact\n"
               "  --chunk-mb=N --in-memory --force-buffered --stable-output\n"
               "  --on-error=abort|skip --max-errors=N --max-error-rate=F\n"
               "\n"
               "compact converts a TSV log pair into one columnar .mtlc "
               "container (DESIGN §14); run/map/watch accept the container "
               "via --ssl-log= alone (--format=auto detects it by magic) "
               "and report byte-identically to the TSV pair. --verify "
               "re-expands the container and field-compares every record "
               "(and the quarantined-row counts) against a fresh TSV "
               "parse, exiting non-zero on any divergence.\n"
               "\n"
               "reduce merges shard states written by map (same seed, "
               "scales, and mode required) and reports the named "
               "distributable experiments from the merged state; --all "
               "selects every distributable experiment. --ssl-log=/"
               "--x509-log= override the input paths shown in the report "
               "(e.g. the unsliced originals).\n"
               "\n"
               "watch tails growing (and rotating) Zeek logs, folds complete "
               "records into windowed analyzer state, and publishes "
               "window-<start>.json / rollup-<start>.json / cumulative.json "
               "into --out-dir atomically (write + fsync + rename + "
               "directory fsync). --checkpoint-dir= enables SIGTERM/crash "
               "resume; the last --checkpoint-keep=N (default 3) checkpoint "
               "generations are retained and resume restores the newest "
               "one whose digest verifies. SIGUSR1 prints a status line; "
               "--exit-idle-ms=N drains and exits once the logs stop "
               "growing.\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

int run_list() {
  const auto& registry = experiments::ExperimentRegistry::instance();
  for (const auto& entry : registry.entries()) {
    std::printf("%-22s %-14s cert 1:%-6g conn 1:%-9g %s\n", entry.info.name,
                entry.info.anchor, entry.info.cert_scale,
                entry.info.conn_scale, entry.info.title);
  }
  return 0;
}

bool write_file(const std::filesystem::path& path,
                const std::string& content) {
  // Durable atomic publication (DESIGN §16): a crash mid-run never
  // leaves a torn report where --out pointed a consumer.
  const auto result =
      ingest::atomic_publish_file(path.string(), content, "cli.out");
  if (!result.ok) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.string().c_str(),
                 result.message.c_str());
    return false;
  }
  return true;
}

std::string render_tables(const core::ResultDoc& doc, char sep) {
  std::string out;
  for (const core::ResultTable* table : doc.tables()) {
    out += "# ";
    out += doc.experiment;
    out += ".";
    out += table->id();
    out += "\n";
    out += core::render_csv(*table, sep);
  }
  return out;
}

/// Shared output tail of `run` and `reduce`: --out=DIR writes one file
/// per experiment (or per table for csv/tsv); otherwise everything goes
/// to stdout.
int emit_docs(const std::vector<core::ResultDoc>& docs,
              const std::string& format, const std::string& out_dir,
              bool include_perf) {
  const char sep = format == "tsv" ? '\t' : ',';
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    for (const auto& doc : docs) {
      const std::filesystem::path base =
          std::filesystem::path(out_dir) / doc.experiment;
      bool ok = true;
      if (format == "text") {
        ok = write_file(base.string() + ".txt", core::render_text(doc));
      } else if (format == "json") {
        ok = write_file(base.string() + ".json",
                        core::render_json_with_perf(doc, 2, include_perf));
      } else {
        // One file per table: <experiment>.<table-id>.csv/tsv.
        for (const core::ResultTable* table : doc.tables()) {
          const std::string path = base.string() + "." + table->id() +
                                   (format == "tsv" ? ".tsv" : ".csv");
          ok = write_file(path, core::render_csv(*table, sep)) && ok;
        }
      }
      if (!ok) return 1;
    }
    return 0;
  }

  std::string out;
  if (format == "json") {
    out = core::render_json_envelope(docs, include_perf);
  } else {
    bool first = true;
    for (const auto& doc : docs) {
      if (format == "text") {
        if (!first) out += "\n";
        out += core::render_text(doc);
      } else {
        out += render_tables(doc, sep);
      }
      first = false;
    }
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

/// File mode needs the log pair, except that a compact container named
/// by --ssl-log= alone carries both halves. Reports the gap on stderr.
bool file_mode_complete(const experiments::RunOptions& options) {
  if (options.ssl_log.empty() == options.x509_log.empty() ||
      options.compact_input()) {
    return true;
  }
  std::fprintf(stderr,
               "file mode needs both --ssl-log= and --x509-log= "
               "(a compact container via --ssl-log= alone works)\n");
  return false;
}

int run_run(int argc, char** argv) {
  experiments::RunOptions options;
  std::vector<std::string> names;
  std::string format = "text";
  std::string out_dir;
  bool all = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--all") == 0) {
      all = true;
    } else if (std::strncmp(arg, "--format=", 9) == 0) {
      // Output formats first; other values are input formats
      // (auto|zeek|compact) and belong to the shared options.
      const char* value = arg + 9;
      if (std::strcmp(value, "text") == 0 || std::strcmp(value, "json") == 0 ||
          std::strcmp(value, "csv") == 0 || std::strcmp(value, "tsv") == 0) {
        format = value;
      } else if (!options.parse_flag(arg)) {
        std::fprintf(stderr, "unknown format: %s\n", value);
        return 2;
      }
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_dir = arg + 6;
    } else if (arg[0] == '-') {
      if (!options.parse_flag(arg)) {
        std::fprintf(stderr, "unknown flag: %s\n", arg);
        return usage(argv[0]);
      }
    } else {
      names.emplace_back(arg);
    }
  }
  if (!file_mode_complete(options)) return 2;
  if (all) {
    names = experiments::ExperimentRegistry::instance().names();
  }
  if (names.empty()) {
    std::fprintf(stderr, "no experiments requested (try --all)\n");
    return usage(argv[0]);
  }

  std::vector<core::ResultDoc> docs;
  try {
    docs = experiments::run_experiments(names, options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (see `mtlscope list`)\n", e.what());
    return 2;
  }
  return emit_docs(docs, format, out_dir,
                   /*include_perf=*/!options.stable_output);
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

int run_map(int argc, char** argv) {
  experiments::RunOptions options;
  std::string state_out;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--state-out=", 12) == 0) {
      state_out = arg + 12;
    } else if (arg[0] == '-') {
      if (!options.parse_flag(arg)) {
        std::fprintf(stderr, "unknown flag: %s\n", arg);
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "map takes no positional arguments: %s\n", arg);
      return usage(argv[0]);
    }
  }
  if (state_out.empty()) {
    std::fprintf(stderr, "map needs --state-out=FILE\n");
    return 2;
  }
  if (!file_mode_complete(options)) return 2;

  core::ShardState state;
  auto config = core::PipelineConfig::campus_defaults();
  if (options.file_mode() && options.compact_input()) {
    // Compact container: scan its blocks and fold. The state
    // meta carries the original TSV labels and byte sizes from the
    // container, so the shard state merges and reports byte-identically
    // to a map over the TSV pair.
    std::string open_error;
    const auto reader =
        colfmt::ContainerReader::open(options.ssl_log, &open_error);
    if (!reader) {
      std::fprintf(stderr, "ingest failed: %s\n", open_error.c_str());
      return 1;
    }
    core::PipelineExecutor executor(config, options.threads);
    ingest::IngestError error;
    auto folded =
        executor.fold_container(*reader, &error, options.ingest_options());
    if (!folded) {
      std::fprintf(stderr, "ingest failed: %s\n", error.to_string().c_str());
      return 1;
    }
    state = std::move(*folded);
    state.meta.file_mode = true;
    state.meta.ssl_log = reader->meta().ssl_path;
    state.meta.x509_log = reader->meta().x509_path;
    state.meta.parse_bytes =
        reader->meta().ssl_bytes + reader->meta().x509_bytes;
    state.meta.cert_scale = options.cert_scale_override.value_or(1.0);
    state.meta.conn_scale = options.conn_scale_override.value_or(1.0);
  } else if (options.file_mode()) {
    // Foreign logs: no synthetic CT database applies (mirrors the
    // harness), so the interception analysis stays disarmed and shard
    // states merge without cross-slice confirmation effects.
    core::PipelineExecutor executor(config, options.threads);
    ingest::IngestError error;
    auto folded = executor.fold_log_files(options.ssl_log, options.x509_log,
                                          &error, options.ingest_options());
    if (!folded) {
      std::fprintf(stderr, "ingest failed: %s\n", error.to_string().c_str());
      return 1;
    }
    state = std::move(*folded);
    state.meta.file_mode = true;
    state.meta.ssl_log = options.ssl_log;
    state.meta.x509_log = options.x509_log;
    state.meta.parse_bytes = file_size_or_zero(options.ssl_log) +
                             file_size_or_zero(options.x509_log);
    state.meta.cert_scale = options.cert_scale_override.value_or(1.0);
    state.meta.conn_scale = options.conn_scale_override.value_or(1.0);
  } else {
    // Synthetic slices make no sense at an accidental scale: require
    // the scales explicitly rather than defaulting per-experiment.
    if (!options.cert_scale_override || !options.conn_scale_override) {
      std::fprintf(stderr,
                   "synthetic map needs explicit --cert-scale= and "
                   "--conn-scale= (or --ssl-log=/--x509-log= for file "
                   "mode)\n");
      return 2;
    }
    auto model = gen::paper_model(*options.cert_scale_override,
                                  *options.conn_scale_override);
    model.seed = options.seed;
    gen::TraceGenerator generator(std::move(model));
    config.ct = &generator.ct_database();
    core::PipelineExecutor executor(config, options.threads);
    state = executor.fold(generator.generate_dataset(executor.shard_count()));
    state.meta.cert_scale = *options.cert_scale_override;
    state.meta.conn_scale = *options.conn_scale_override;
  }
  state.meta.seed = options.seed;

  core::StateFileInfo info;
  std::string error;
  if (!core::save_shard_state(state_out, state, &info, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", state_out.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf(
      "wrote %s: %llu bytes, format v%u, digest %.16s..., %llu "
      "connections (%s)\n",
      state_out.c_str(), static_cast<unsigned long long>(info.bytes),
      info.format_version, info.digest_hex.c_str(),
      static_cast<unsigned long long>(state.pipeline->totals().connections),
      core::describe_meta(state.meta).c_str());
  return 0;
}

int run_reduce(int argc, char** argv) {
  experiments::RunOptions options;
  std::vector<std::string> state_paths;
  std::vector<std::string> names;
  std::string format = "text";
  std::string out_dir;
  bool all = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--all") == 0) {
      all = true;
    } else if (std::strncmp(arg, "--run=", 6) == 0) {
      std::string list = arg + 6;
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!name.empty()) names.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strncmp(arg, "--format=", 9) == 0) {
      format = arg + 9;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_dir = arg + 6;
    } else if (arg[0] == '-') {
      if (!options.parse_flag(arg)) {
        std::fprintf(stderr, "unknown flag: %s\n", arg);
        return usage(argv[0]);
      }
    } else {
      state_paths.emplace_back(arg);
    }
  }
  if (format != "text" && format != "json" && format != "csv" &&
      format != "tsv") {
    std::fprintf(stderr, "unknown format: %s\n", format.c_str());
    return 2;
  }
  if (state_paths.empty()) {
    std::fprintf(stderr, "no state files to reduce\n");
    return usage(argv[0]);
  }

  // Load and merge in argv order; refuse configuration mismatches with a
  // deterministic message. Format-version mismatches are rejected inside
  // parse_shard_state (hard error naming the version).
  core::ShardState merged;
  std::string digest_chain;  // payload digests, in merge order
  bool have = false;
  std::string first_path;
  for (const auto& path : state_paths) {
    core::StateFileInfo info;
    std::string error;
    auto state = core::load_shard_state(path, &info, &error);
    if (!state) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    digest_chain += info.digest_hex;
    if (!have) {
      merged = std::move(*state);
      first_path = path;
      have = true;
      continue;
    }
    if (!core::compatible_meta(merged.meta, state->meta)) {
      std::fprintf(stderr,
                   "cannot reduce: incompatible shard states:\n"
                   "  %s: %s\n"
                   "  %s: %s\n",
                   first_path.c_str(),
                   core::describe_meta(merged.meta).c_str(), path.c_str(),
                   core::describe_meta(state->meta).c_str());
      return 2;
    }
    merged.merge(std::move(*state));
  }
  // Same post-pass steps a single-host run applies after its shard
  // merge: both are idempotent, so single-file reduces are no-ops here.
  merged.pipeline->finalize();
  merged.ledger.finalize();

  experiments::ReduceInfo reduce_info;
  reduce_info.state_format_version = core::kStateFormatVersion;
  reduce_info.state_digest =
      crypto::to_hex(crypto::Sha256::hash(digest_chain)).substr(0, 16);

  // The producing configuration labels the report; explicit --ssl-log=
  // / --x509-log= override the (comma-joined) slice paths, e.g. with
  // the unsliced originals a single-host run would name.
  options.seed = merged.meta.seed;
  if (!merged.meta.file_mode) {
    options.cert_scale_override = merged.meta.cert_scale;
    options.conn_scale_override = merged.meta.conn_scale;
  } else if (options.ssl_log.empty()) {
    options.ssl_log = merged.meta.ssl_log;
    options.x509_log = merged.meta.x509_log;
  }

  if (all) {
    const auto& registry = experiments::ExperimentRegistry::instance();
    for (const auto& entry : registry.entries()) {
      if (entry.make()->distributable()) names.emplace_back(entry.info.name);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "no experiments requested (try --run= or --all)\n");
    return usage(argv[0]);
  }

  std::vector<core::ResultDoc> docs;
  try {
    docs = experiments::run_reduced(names, std::move(merged), reduce_info,
                                    options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (see `mtlscope list`)\n", e.what());
    return 2;
  }
  return emit_docs(docs, format, out_dir,
                   /*include_perf=*/!options.stable_output);
}

int run_compact(int argc, char** argv) {
  experiments::RunOptions options;
  colfmt::WriterOptions writer;
  std::string out;
  bool verify = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strcmp(arg, "--verify") == 0) {
      verify = true;
    } else if (std::strncmp(arg, "--block-rows=", 13) == 0) {
      writer.block_rows = experiments::flag_value<std::uint32_t>(
          "--block-rows=", arg + 13, 1, UINT32_MAX);
    } else if (std::strncmp(arg, "--dict-mb=", 10) == 0) {
      const double mb = experiments::flag_value("--dict-mb=", arg + 10, 1e-6,
                                                1e6);
      writer.dict_bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
    } else if (arg[0] == '-') {
      if (!options.parse_flag(arg)) {
        std::fprintf(stderr, "unknown flag: %s\n", arg);
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "compact takes no positional arguments: %s\n", arg);
      return usage(argv[0]);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "compact needs --out=FILE\n");
    return 2;
  }
  const bool convert = !options.ssl_log.empty() || !options.x509_log.empty();
  if (convert && (options.ssl_log.empty() || options.x509_log.empty())) {
    std::fprintf(stderr, "compact needs both --ssl-log= and --x509-log=\n");
    return 2;
  }
  if (!convert && !verify) {
    std::fprintf(stderr,
                 "compact without --ssl-log=/--x509-log= needs --verify "
                 "(verify-only mode)\n");
    return 2;
  }

  if (convert) {
    colfmt::CompactRequest request;
    request.ssl_path = options.ssl_log;
    request.x509_path = options.x509_log;
    request.out_path = out;
    request.writer = writer;
    request.errors = options.errors;
    request.chunk_bytes = options.chunk_bytes();
    colfmt::CompactStats stats;
    std::string error;
    if (!colfmt::compact_logs(request, &stats, &error)) {
      std::fprintf(stderr, "compact failed: %s\n", error.c_str());
      return 1;
    }
    const std::uint64_t in_bytes = file_size_or_zero(options.ssl_log) +
                                   file_size_or_zero(options.x509_log);
    const std::uint64_t out_bytes = file_size_or_zero(out);
    std::printf(
        "wrote %s: %llu ssl rows, %llu x509 rows, %llu blocks, %llu "
        "quarantined; %llu -> %llu bytes (%.2fx)\n",
        out.c_str(), static_cast<unsigned long long>(stats.ssl_rows),
        static_cast<unsigned long long>(stats.x509_rows),
        static_cast<unsigned long long>(stats.blocks),
        static_cast<unsigned long long>(stats.quarantined),
        static_cast<unsigned long long>(in_bytes),
        static_cast<unsigned long long>(out_bytes),
        out_bytes == 0 ? 0.0
                       : static_cast<double>(in_bytes) /
                             static_cast<double>(out_bytes));
  }
  if (verify) {
    std::string report;
    std::string error;
    if (!colfmt::verify_container(out, &report, &error,
                                  options.chunk_bytes())) {
      std::fprintf(stderr, "verify failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s: %s\n", out.c_str(), report.c_str());
  }
  return 0;
}

int run_watch_cmd(int argc, char** argv) {
  watch::WatchOptions options;
  bool all = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--all") == 0) {
      all = true;
    } else if (std::strncmp(arg, "--run=", 6) == 0) {
      std::string list = arg + 6;
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!name.empty()) options.experiments.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strncmp(arg, "--out-dir=", 10) == 0) {
      options.out_dir = arg + 10;
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      options.checkpoint_dir = arg + 17;
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      options.window_seconds = watch::parse_window_spec(arg + 9);
      if (options.window_seconds <= 0) {
        std::fprintf(stderr, "bad --window= (hour|day|week|SECS): %s\n",
                     arg + 9);
        return 2;
      }
    } else if (std::strncmp(arg, "--rollup=", 9) == 0) {
      // Windows per roll-up.
      options.rollup_windows = experiments::flag_value<std::uint32_t>(
          "--rollup=", arg + 9, 1, UINT32_MAX);
    } else if (std::strncmp(arg, "--poll-ms=", 10) == 0) {
      options.poll_ms =
          experiments::flag_value("--poll-ms=", arg + 10, 1, INT_MAX);
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      options.checkpoint_every_s =
          experiments::flag_value("--checkpoint-every=", arg + 19, 0.0, 1e9);
    } else if (std::strncmp(arg, "--checkpoint-keep=", 18) == 0) {
      // Generations kept, at least one.
      options.checkpoint_keep = experiments::flag_value<std::uint32_t>(
          "--checkpoint-keep=", arg + 18, 1, UINT32_MAX);
    } else if (std::strncmp(arg, "--exit-idle-ms=", 15) == 0) {
      options.exit_idle_ms =
          experiments::flag_value("--exit-idle-ms=", arg + 15, 0, INT_MAX);
    } else if (std::strncmp(arg, "--report-ssl-log=", 17) == 0) {
      options.report_ssl_log = arg + 17;
    } else if (std::strncmp(arg, "--report-x509-log=", 18) == 0) {
      options.report_x509_log = arg + 18;
    } else if (arg[0] == '-') {
      if (!options.run.parse_flag(arg)) {
        std::fprintf(stderr, "unknown flag: %s\n", arg);
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "watch takes no positional arguments: %s\n", arg);
      return usage(argv[0]);
    }
  }
  if (options.run.ssl_log.empty() ||
      (options.run.x509_log.empty() && !options.run.compact_input())) {
    std::fprintf(stderr,
                 "watch needs both --ssl-log= and --x509-log= "
                 "(a compact container via --ssl-log= alone works)\n");
    return 2;
  }
  if (options.out_dir.empty()) {
    std::fprintf(stderr, "watch needs --out-dir=DIR\n");
    return 2;
  }
  if (options.report_ssl_log.empty() != options.report_x509_log.empty()) {
    std::fprintf(stderr,
                 "--report-ssl-log= and --report-x509-log= go together\n");
    return 2;
  }
  if (all) {
    const auto& registry = experiments::ExperimentRegistry::instance();
    for (const auto& entry : registry.entries()) {
      if (entry.make()->distributable())
        options.experiments.emplace_back(entry.info.name);
    }
  }
  if (options.experiments.empty()) {
    std::fprintf(stderr, "no experiments requested (try --run= or --all)\n");
    return usage(argv[0]);
  }
  // Watch folds shard states across windows, so like reduce it can only
  // serve distributable experiments; reject the rest up front.
  const auto& registry = experiments::ExperimentRegistry::instance();
  for (const auto& name : options.experiments) {
    const auto* entry = registry.find(name);
    if (entry == nullptr) {
      std::fprintf(stderr, "unknown experiment: %s (see `mtlscope list`)\n",
                   name.c_str());
      return 2;
    }
    if (!entry->make()->distributable()) {
      std::fprintf(stderr, "experiment %s is not distributable; watch "
                           "cannot serve it\n",
                   name.c_str());
      return 2;
    }
  }
  return watch::run_watch(options);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "list") == 0) return run_list();
  if (std::strcmp(argv[1], "run") == 0) return run_run(argc, argv);
  if (std::strcmp(argv[1], "map") == 0) return run_map(argc, argv);
  if (std::strcmp(argv[1], "compact") == 0) return run_compact(argc, argv);
  if (std::strcmp(argv[1], "reduce") == 0) return run_reduce(argc, argv);
  if (std::strcmp(argv[1], "watch") == 0) return run_watch_cmd(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", argv[1]);
  return usage(argv[0]);
}
