// Shared run options for every mtlscope CLI subcommand (run, map,
// reduce, compact, watch): each parses the same flag set. Scales are
// optional overrides — each experiment carries its own calibrated
// defaults in the registry, and resolve() applies them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mtlscope/ingest/chunker.hpp"

namespace mtlscope::experiments {

struct RunOptions {
  /// Input container format for file mode (--format=auto|zeek|compact).
  /// kAuto probes --ssl-log= for the compact-container magic; kZeek
  /// forces the TSV parse; kCompact requires a container. A compact
  /// input carries both halves of the log pair, so --x509-log= is not
  /// required (and is ignored) for it.
  enum class InputFormat { kAuto, kZeek, kCompact };

  /// Concrete scales the harness runs at; filled by resolved().
  double cert_scale = 1;
  double conn_scale = 1;
  /// Explicit --cert-scale= / --conn-scale= overrides; when unset, each
  /// experiment's registry defaults apply.
  std::optional<double> cert_scale_override;
  std::optional<double> conn_scale_override;
  std::uint64_t seed = 20240504;
  /// Worker threads / shards for the PipelineExecutor. 0 → hardware
  /// concurrency; 1 → serial (single shard, run inline).
  std::size_t threads = 0;

  /// File mode (--ssl-log= and --x509-log= both set): analyze on-disk
  /// Zeek logs through the streaming ingest layer instead of generating
  /// a synthetic trace. No CT database is attached in file mode.
  std::string ssl_log;
  std::string x509_log;
  InputFormat format = InputFormat::kAuto;
  /// Streaming chunk size in MiB; fractions work (--chunk-mb=0.0625 is
  /// 64 KiB). Results are byte-identical for every value.
  double chunk_mb = 1.0;
  /// File mode only: slurp both files into RAM and run the in-memory
  /// path (run_logs) instead of streaming — the RSS fixture's baseline.
  bool in_memory = false;
  /// File mode only: skip mmap, exercise the pread fallback.
  bool force_buffered = false;
  /// Suppress volatile output (thread count, timing footer) so runs with
  /// different thread counts / chunk sizes / input modes diff cleanly.
  /// The data-quality footer of a best-effort run still prints — its
  /// fields are pure functions of the input bytes.
  bool stable_output = false;
  /// Malformed-record policy (--on-error=abort|skip) and the error
  /// budget that bounds skip mode (--max-errors=, --max-error-rate=).
  /// See DESIGN §11.
  ingest::ErrorPolicy errors;

  bool file_mode() const { return !ssl_log.empty(); }
  /// True when --ssl-log= names a compact container (forced by
  /// --format=compact, or detected by magic under --format=auto).
  bool compact_input() const;
  std::size_t chunk_bytes() const;
  ingest::IngestOptions ingest_options() const;

  /// Copy with cert_scale/conn_scale set to the overrides when present,
  /// otherwise to the given experiment defaults.
  RunOptions resolved(double default_cert_scale,
                      double default_conn_scale) const;

  /// True when `arg` was consumed as one of the shared flags
  /// (--cert-scale= / --conn-scale= / --seed= / --threads= / --ssl-log=
  /// / --x509-log= / --format= / --chunk-mb= / --in-memory /
  /// --force-buffered / --stable-output / --on-error= / --max-errors= /
  /// --max-error-rate=); each CLI subcommand layers its own flags on top
  /// and rejects the rest. Exits(2) when --on-error= is neither abort
  /// nor skip.
  bool parse_flag(const char* arg);
};

/// The value of a numeric flag: all of `text` must parse as a T
/// (std::from_chars, no sign prefix, no trailing bytes) and lie in
/// [lo, hi]. Anything else prints "bad <flag><text>: want …" naming the
/// flag and its range, and exits 2. `flag` is the flag with its "=",
/// e.g. "--seed=".
template <class T>
T flag_value(const char* flag, const char* text, T lo, T hi);

}  // namespace mtlscope::experiments
