// mtlscope — the single CLI over the experiment registry.
//
//   mtlscope list
//   mtlscope run table1 fig4 [--format=json] [--out=DIR]
//   mtlscope map --state-out=F --ssl-log=F --x509-log=F
//   mtlscope reduce S1 S2 ... --run=table1,fig1 [--format=json]
//   mtlscope compact --ssl-log=F --x509-log=F --out=F.mtlc [--verify]
//   mtlscope watch --ssl-log=F --x509-log=F --out-dir=DIR --all
//
// Each verb is one flag table (Verb, below). A flag several verbs read is
// one SharedFlags row or *_flag function, listed by each verb whose code
// reads it, so a verb refuses the flags it would ignore; its usage comes
// from the table. `map` + `reduce` equal one `run` (DESIGN §12).
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
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

using namespace mtlscope;
using namespace mtlscope::experiments;

namespace {

// ---------------------------------------------------------------------------
// Flag tables. A row binds one flag to the option it fills; Verb::parse
// walks argv against a verb's rows and Verb::usage prints them, so a verb
// accepts exactly the flags it lists and its usage names exactly those.

struct Flag;
/// Stores the text of a flag's value (a switch gets ""), or exits 2 with
/// a message naming the flag.
using FlagSet = std::function<void(const Flag& self, const char* text)>;

/// A switch `--name` when `value` is empty, else `--name=value`, where
/// `value` is the usage placeholder and "a|b|c" lists an enum's literals.
struct Flag {
  std::string name, value, help;
  FlagSet set;
  bool required = false;

  std::string spelled() const {
    return value.empty() ? name : name + "=" + value;
  }
  bool matches(std::string_view arg) const {
    return value.empty() ? arg == name : arg.starts_with(name + "=");
  }
};

// The value kinds.
FlagSet on(bool* target) {
  return [target](const Flag&, const char*) { *target = true; };
}
FlagSet store(std::string* target) {
  return [target](const Flag&, const char* text) { *target = text; };
}
/// A number in [lo, hi], through flag_value.
template <class T, class Target>
FlagSet number(Target* target, T lo, T hi) {
  return [=](const Flag& self, const char* text) {
    *target = flag_value<T>((self.name + "=").c_str(), text, lo, hi);
  };
}
/// The position of `text` among the `a|b|c` literals, or npos.
std::size_t find_literal(std::string_view literals, std::string_view text) {
  for (std::size_t i = 0; !literals.empty(); ++i) {
    const std::size_t bar = std::min(literals.find('|'), literals.size());
    if (literals.substr(0, bar) == text) return i;
    literals.remove_prefix(std::min(bar + 1, literals.size()));
  }
  return std::string_view::npos;
}
/// The position of `text` among the row's enum literals; exits 2 when it
/// is none of them.
std::size_t literal_index(const Flag& self, std::string_view text) {
  const std::size_t i = find_literal(self.value, text);
  if (i != std::string_view::npos) return i;
  std::fprintf(stderr, "bad %s=%.*s: want %s\n", self.name.c_str(),
               static_cast<int>(text.size()), text.data(), self.value.c_str());
  std::exit(2);
}
/// An enum: the i-th literal stores values[i].
template <class T>
FlagSet pick(T* target, std::vector<T> values) {
  return [=](const Flag& self, const char* text) {
    *target = values[literal_index(self, text)];
  };
}
/// An enum kept as its literal.
FlagSet literal(std::string* target) {
  return [target](const Flag& self, const char* text) {
    literal_index(self, text);
    *target = text;
  };
}
/// Comma-separated names, appended (a repeated flag adds more).
FlagSet name_list(std::vector<std::string>* target) {
  return [target](const Flag&, const char* text) {
    for (std::string_view rest = text; !rest.empty();) {
      const std::size_t comma = std::min(rest.find(','), rest.size());
      if (comma > 0) target->emplace_back(rest.substr(0, comma));
      rest.remove_prefix(std::min(comma + 1, rest.size()));
    }
  };
}
FlagSet window(std::int64_t* target) {
  return [target](const Flag& self, const char* text) {
    const auto seconds = window_seconds(text);
    if (!seconds) {
      std::fprintf(stderr, "bad %s=%s: want hour, day, week or seconds > 0\n",
                   self.name.c_str(), text);
      std::exit(2);
    }
    *target = *seconds;
  };
}

Flag required(Flag flag) {
  flag.required = true;
  return flag;
}

/// A verb's command line: its flags, the usage of its positional
/// arguments (nullptr: it takes none), and its usage's opening paragraph.
struct Verb {
  const char* name;
  const char* operands;
  const char* help;
  std::vector<Flag> flags;

  std::string usage(const char* argv0) const {
    std::string out = std::string("usage: ") + argv0 + " " + name +
                      (operands != nullptr ? " " + std::string(operands) : "") +
                      (flags.empty() ? "\n" : " [flags]\n") + help + "\n";
    for (const Flag& flag : flags) {
      std::string line = "  " + flag.spelled();
      line.resize(std::max<std::size_t>(line.size() + 2, 28), ' ');
      out += line + flag.help + (flag.required ? " (required)\n" : "\n");
    }
    return out;
  }

  /// Parses argv[2..argc) and returns the positional arguments. An
  /// unknown flag or an unwanted positional argument exits 2 with this
  /// usage; a required flag that is missing or empty (`--out=`, as an
  /// unset shell variable gives) with "<verb> needs --name=VALUE".
  std::vector<std::string> parse(int argc, char** argv) const {
    std::vector<std::string> positional;
    std::vector<bool> given(flags.size());
    for (int i = 2; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const bool is_flag = !arg.empty() && arg[0] == '-';
      if (!is_flag && operands != nullptr) {
        positional.emplace_back(arg);
        continue;
      }
      std::size_t row = 0;
      while (is_flag && row < flags.size() && !flags[row].matches(arg)) ++row;
      if (!is_flag || row == flags.size()) {
        std::fprintf(stderr, "%s%s: %s\n%s", is_flag ? "" : name,
                     is_flag ? "unknown flag"
                             : " takes no positional arguments",
                     argv[i], usage(argv[0]).c_str());
        std::exit(2);
      }
      const Flag& flag = flags[row];
      const char* text =
          flag.value.empty() ? "" : argv[i] + flag.name.size() + 1;
      flag.set(flag, text);
      // A switch counts once given; a value only when it is not empty
      // (the last value is the one kept).
      given[row] = flag.value.empty() || *text != '\0';
    }
    for (std::size_t row = 0; row < flags.size(); ++row) {
      if (flags[row].required && !given[row]) {
        std::fprintf(stderr, "%s needs %s\n", name,
                     flags[row].spelled().c_str());
        std::exit(2);
      }
    }
    return positional;
  }
};

/// What a verb's run() returns to have its usage printed and exit 2.
constexpr int kUsage = -1;

/// More shards than cores only adds contention and memory: --threads= is
/// clamped to the machine (results are byte-identical for any count).
FlagSet clamped_threads(std::size_t* threads) {
  return [threads](const Flag& self, const char* text) {
    number<std::uint64_t>(threads, 0, 65'536)(self, text);
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0 || *threads <= hw) return;
    std::fprintf(stderr,
                 "note: %s=%zu exceeds this machine's %zu hardware threads; "
                 "running with %zu\n",
                 self.name.c_str(), *threads, hw, hw);
    *threads = hw;
  };
}

/// The rows of the RunOptions flags several verbs read, bound to `o`.
struct SharedFlags {
  using Action = ingest::ErrorPolicy::Action;
  RunOptions& o;
  Flag cert_scale{"--cert-scale", "N", "certificate scale 1:N",
                  number(&o.cert_scale_override, 1e-3, 1e12)};
  Flag conn_scale{"--conn-scale", "N", "connection scale 1:N",
                  number(&o.conn_scale_override, 1e-3, 1e12)};
  Flag seed{"--seed", "N", "generator seed (default 20240504)",
            number<std::uint64_t>(&o.seed, 0, UINT64_MAX)};
  Flag threads{"--threads", "N", "workers; 0 = all cores (default and cap)",
               clamped_threads(&o.threads)};
  Flag ssl_log{"--ssl-log", "FILE", "Zeek ssl.log, or a .mtlc container",
               store(&o.ssl_log)};
  Flag x509_log{"--x509-log", "FILE", "Zeek x509.log", store(&o.x509_log)};
  Flag chunk_mb{"--chunk-mb", "N", "streaming chunk MiB (default 1)",
                number(&o.chunk_mb, 1e-6, 1e6)};
  Flag in_memory{"--in-memory", "", "slurp the logs instead of streaming",
                 on(&o.in_memory)};
  Flag force_buffered{"--force-buffered", "", "pread instead of mmap",
                      on(&o.force_buffered)};
  Flag stable_output{"--stable-output", "", "omit threads and timing output",
                     on(&o.stable_output)};
  Flag on_error{"--on-error", "abort|skip",
                "malformed records abort (default) or are quarantined",
                pick(&o.errors.on_error, {Action::kAbort, Action::kSkip})};
  Flag max_errors{"--max-errors", "N", "skip mode: fail past N quarantined",
                  number<std::uint64_t>(&o.errors.max_errors, 0, UINT64_MAX)};
  Flag max_error_rate{"--max-error-rate", "N",
                      "skip mode: fail past this quarantined share",
                      number(&o.errors.max_error_rate, 0.0, 1.0)};

  /// File mode needs the log pair, except that a compact container named
  /// by the ssl log alone carries both halves. Reports the gap on stderr.
  bool log_pair_complete() const {
    if (o.ssl_log.empty() == o.x509_log.empty() || o.compact_input()) {
      return true;
    }
    std::fprintf(stderr,
                 "file mode needs both %s= and %s= (a compact container "
                 "via %s= alone works)\n",
                 ssl_log.name.c_str(), x509_log.name.c_str(),
                 ssl_log.name.c_str());
    return false;
  }
};

/// --format= is the output format (reduce), the input format (map,
/// watch), or either (run), whose literals do not overlap.
constexpr const char* kFormatFlag = "--format";
Flag output_format(std::string* format) {
  return {kFormatFlag, "text|json|csv|tsv", "output (default text)",
          literal(format)};
}
Flag input_format(RunOptions::InputFormat* format) {
  using In = RunOptions::InputFormat;
  return {kFormatFlag, "auto|zeek|compact", "input (default auto: by magic)",
          pick(format, {In::kAuto, In::kZeek, In::kCompact})};
}
Flag output_or_input_format(std::string* output,
                            RunOptions::InputFormat* input) {
  const Flag out = output_format(output), in = input_format(input);
  return {kFormatFlag, out.value + "|" + in.value,
          "output (default text) or input (default auto)",
          [out, in](const Flag& self, const char* text) {
            literal_index(self, text);
            const Flag& meaning =
                find_literal(out.value, text) != std::string_view::npos ? out
                                                                        : in;
            meaning.set(meaning, text);
          }};
}

// Rows several verbs share whose targets are not RunOptions fields.
Flag all_flag(bool* all, const char* help) {
  return {"--all", "", help, on(all)};
}
Flag out_flag(std::string* out, const char* value, const char* help) {
  return {"--out", value, help, store(out)};
}
Flag run_flag(std::vector<std::string>* experiments) {
  return {"--run", "NAME[,NAME...]", "experiments to report",
          name_list(experiments)};
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

struct ListCmd {
  const Verb verb{"list", nullptr, "  Names every experiment.\n", {}};
  int run(const std::vector<std::string>&) {
    for (const auto& e : ExperimentRegistry::instance().entries()) {
      std::printf("%-22s %-14s cert 1:%-6g conn 1:%-9g %s\n", e.info.name,
                  e.info.anchor, e.info.cert_scale, e.info.conn_scale,
                  e.info.title);
    }
    return 0;
  }
};

struct RunCmd {
  RunOptions options;
  SharedFlags s{options};
  std::string format = "text";
  std::string out_dir;
  bool all = false;
  const Verb verb{
      "run", "<experiment>...",
      "  Runs experiments over a log pair, a .mtlc container, or a synthetic\n"
      "  trace at calibrated scales; compatible experiments share a pass.\n",
      {all_flag(&all, "every registered experiment"),
       output_or_input_format(&format, &options.format),
       out_flag(&out_dir, "DIR", "one file per experiment, not stdout"),
       s.cert_scale, s.conn_scale, s.seed, s.threads, s.ssl_log, s.x509_log,
       s.chunk_mb, s.in_memory, s.force_buffered, s.stable_output, s.on_error,
       s.max_errors, s.max_error_rate}};
  int run(std::vector<std::string> names);
};

int RunCmd::run(std::vector<std::string> names) {
  if (!s.log_pair_complete()) return 2;
  if (all) names = ExperimentRegistry::instance().names();
  if (names.empty()) {
    std::fprintf(stderr, "no experiments requested\n");
    return kUsage;
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

struct MapCmd {
  RunOptions options;
  SharedFlags s{options};
  std::string state_out;
  const Verb verb{
      "map", nullptr,
      "  Folds one input slice (a log pair, a .mtlc container, or a synthetic\n"
      "  trace at explicit scales) and writes its shard state for reduce.\n",
      {{"--state-out", "FILE", "shard state to write", store(&state_out), true},
       s.ssl_log, s.x509_log, input_format(&options.format),
       s.cert_scale, s.conn_scale, s.seed, s.threads, s.chunk_mb,
       s.force_buffered, s.on_error, s.max_errors, s.max_error_rate}};
  int run(const std::vector<std::string>&);
};

int MapCmd::run(const std::vector<std::string>&) {
  if (!s.log_pair_complete()) return 2;

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
      std::fprintf(stderr, "synthetic map needs explicit scales\n");
      return kUsage;
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

struct ReduceCmd {
  RunOptions options;
  SharedFlags s{options};
  std::vector<std::string> names;
  std::string format = "text";
  std::string out_dir;
  bool all = false;
  // Nothing is ingested: the log pair only names the inputs, the error
  // policy labels the data-quality block. The seed comes from the merged
  // meta, and so do the scales of synthetic states; file-mode states
  // report at the given scales, as `run` over the same logs does.
  const Verb verb{
      "reduce", "<state-file>...",
      "  Merges map's shard states and reports distributable experiments as\n"
      "  one run over all inputs would; a log pair relabels the inputs.\n",
      {run_flag(&names), all_flag(&all, "every distributable experiment"),
       output_format(&format),
       out_flag(&out_dir, "DIR", "one file per experiment, not stdout"),
       s.ssl_log, s.x509_log, s.cert_scale, s.conn_scale, s.threads,
       s.stable_output, s.on_error}};
  int run(const std::vector<std::string>& state_paths);
};

int ReduceCmd::run(const std::vector<std::string>& state_paths) {
  if (state_paths.empty()) {
    std::fprintf(stderr, "no state files to reduce\n");
    return kUsage;
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

  // The producing configuration labels the report; an explicit log pair
  // overrides the (comma-joined) slice paths, e.g. with the unsliced
  // originals a single-host run would name.
  options.seed = merged.meta.seed;
  if (!merged.meta.file_mode) {
    options.cert_scale_override = merged.meta.cert_scale;
    options.conn_scale_override = merged.meta.conn_scale;
  } else if (options.ssl_log.empty()) {
    options.ssl_log = merged.meta.ssl_log;
    options.x509_log = merged.meta.x509_log;
  }

  if (all) {
    const auto every = ExperimentRegistry::instance().distributable_names();
    names.insert(names.end(), every.begin(), every.end());
  }
  if (names.empty()) {
    std::fprintf(stderr, "no experiments requested\n");
    return kUsage;
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

struct CompactCmd {
  RunOptions options;
  SharedFlags s{options};
  colfmt::WriterOptions writer;
  double dict_mb = 8;
  std::string out;
  bool verify = false;
  const Verb verb{
      "compact", nullptr,
      "  Converts a TSV log pair into a .mtlc container (DESIGN §14) that\n"
      "  run, map and watch read in its place, or verifies a container.\n",
      {required(out_flag(&out, "FILE", "container to write or verify")),
       s.ssl_log, s.x509_log,
       {"--verify", "", "field-compare against a TSV re-parse", on(&verify)},
       {"--block-rows", "N", "rows per block (default 65536)",
        number<std::uint32_t>(&writer.block_rows, 1, UINT32_MAX)},
       {"--dict-mb", "N", "dictionary MiB per block (default 8)",
        number(&dict_mb, 1e-6, 1e6)},
       s.chunk_mb, s.on_error, s.max_errors, s.max_error_rate}};
  int run(const std::vector<std::string>&);
};

int CompactCmd::run(const std::vector<std::string>&) {
  writer.dict_bytes = static_cast<std::size_t>(dict_mb * 1024.0 * 1024.0);
  const bool convert = !options.ssl_log.empty() || !options.x509_log.empty();
  if (convert && (options.ssl_log.empty() || options.x509_log.empty())) {
    std::fprintf(stderr, "compact needs both %s= and %s=\n",
                 s.ssl_log.name.c_str(), s.x509_log.name.c_str());
    return 2;
  }
  if (!convert && !verify) {
    std::fprintf(stderr, "compact without a log pair can only verify\n");
    return kUsage;
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

struct WatchCmd {
  watch::WatchOptions options;
  SharedFlags s{options.run};
  bool all = false;
  Flag report_ssl{"--report-ssl-log", "FILE", "ssl log the documents name",
                  store(&options.report_ssl_log)};
  Flag report_x509{"--report-x509-log", "FILE", "x509 log they name",
                   store(&options.report_x509_log)};
  const Verb verb{
      "watch", nullptr,
      "  Tails growing logs (or a .mtlc container) and publishes window,\n"
      "  roll-up and cumulative documents; checkpoints resume it after a\n"
      "  crash. It always quarantines; the error policy only labels it.\n",
      {required(s.ssl_log), s.x509_log,
       input_format(&options.run.format),
       {"--out-dir", "DIR", "publish here", store(&options.out_dir), true},
       run_flag(&options.experiments),
       all_flag(&all, "every distributable experiment"),
       {"--window", "hour|day|week|SECS", "window width (default hour)",
        window(&options.window_seconds)},
       {"--rollup", "N", "windows per roll-up (default 24)",
        number<std::uint32_t>(&options.rollup_windows, 1, UINT32_MAX)},
       {"--poll-ms", "N", "poll interval (default 200)",
        number<std::uint32_t>(&options.poll_ms, 1, INT_MAX)},
       {"--checkpoint-dir", "DIR", "checkpoint here (default: never)",
        store(&options.checkpoint_dir)},
       {"--checkpoint-every", "N", "seconds; 0 = each poll (default 30)",
        number(&options.checkpoint_every_s, 0.0, 1e9)},
       {"--checkpoint-keep", "N", "generations kept (default 3)",
        number<std::uint32_t>(&options.checkpoint_keep, 1, UINT32_MAX)},
       {"--exit-idle-ms", "N", "exit once idle this long (default: never)",
        number<std::uint32_t>(&options.exit_idle_ms, 0, INT_MAX)},
       report_ssl, report_x509, s.cert_scale, s.conn_scale, s.seed,
       s.threads, s.stable_output, s.on_error}};
  int run(const std::vector<std::string>&);
};

int WatchCmd::run(const std::vector<std::string>&) {
  if (!s.log_pair_complete()) return 2;
  if (options.report_ssl_log.empty() != options.report_x509_log.empty()) {
    std::fprintf(stderr, "%s= and %s= go together\n", report_ssl.name.c_str(),
                 report_x509.name.c_str());
    return 2;
  }
  const auto every = ExperimentRegistry::instance().distributable_names();
  if (all) {
    options.experiments.insert(options.experiments.end(), every.begin(),
                               every.end());
  }
  if (options.experiments.empty()) {
    std::fprintf(stderr, "no experiments requested\n");
    return kUsage;
  }
  // Watch folds shard states across windows, so like reduce it can only
  // serve distributable experiments; refuse the rest up front.
  for (const auto& name : options.experiments) {
    if (std::find(every.begin(), every.end(), name) == every.end()) {
      std::fprintf(stderr, "no distributable experiment %s for watch (see "
                   "`mtlscope list`)\n", name.c_str());
      return 2;
    }
  }
  return watch::run_watch(options);
}

template <class Cmd>
int run_cmd(int argc, char** argv) {
  Cmd cmd;
  const int rc = cmd.run(cmd.verb.parse(argc, argv));
  if (rc != kUsage) return rc;
  std::fputs(cmd.verb.usage(argv[0]).c_str(), stderr);
  return 2;
}

template <class... Cmd>
std::string usages(const char* argv0) {
  return ((Cmd().verb.usage(argv0) + "\n") + ...);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view verb = argc < 2 ? "" : argv[1];
  if (verb == "list") return run_cmd<ListCmd>(argc, argv);
  if (verb == "run") return run_cmd<RunCmd>(argc, argv);
  if (verb == "map") return run_cmd<MapCmd>(argc, argv);
  if (verb == "compact") return run_cmd<CompactCmd>(argc, argv);
  if (verb == "reduce") return run_cmd<ReduceCmd>(argc, argv);
  if (verb == "watch") return run_cmd<WatchCmd>(argc, argv);
  if (!verb.empty()) std::fprintf(stderr, "unknown command: %s\n", argv[1]);
  std::fputs(usages<ListCmd, RunCmd, MapCmd, ReduceCmd, CompactCmd,
                    WatchCmd>(argv[0]).c_str(),
             stderr);
  return 2;
}
