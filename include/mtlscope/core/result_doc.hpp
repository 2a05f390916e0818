// ResultDoc: the structured intermediate representation every experiment
// produces. A doc is an ordered sequence of blocks — typed tables, free
// text lines, and pass/fail shape checks — plus scalar metadata (the
// experiment id, its paper anchor, the model/input configuration, and
// record counts from the run). Emitters render one doc to
//   * text  — byte-identical to the historical repro_* stdout,
//   * JSON  — canonical (construction key order, fixed float formatting),
//   * CSV/TSV — one file/stream per table.
// Runners build docs; they never printf. See experiments/registry.hpp for
// the layer that maps experiment names to runners.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

#include "mtlscope/core/report.hpp"

namespace mtlscope::core {

/// printf-into-std::string; the porting tool for the repro binaries'
/// byte-exact free-text lines.
std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// A typed table cell. The kind fixes both the JSON type and the exact
/// text rendering (the format_count / format_percent / format_double
/// conventions every repro table always used).
class Cell {
 public:
  enum class Kind {
    kText,          // opaque string
    kCount,         // uint64, rendered "1,234,567"
    kDouble,        // double, rendered "12.34" (fixed decimals)
    kPercent,       // numerator/denominator, rendered "12.34%" or "-"
    kPercentValue,  // precomputed percentage, rendered "12.34%"
  };

  static Cell text(std::string s);
  static Cell count(std::uint64_t n);
  static Cell number(double v, int decimals = 2);
  static Cell percent(double numerator, double denominator,
                      int decimals = 2);
  static Cell percent_value(double pct, int decimals = 2);

  Kind kind() const { return kind_; }
  /// Exactly what the text table prints for this cell.
  std::string rendered() const;
  /// False for kText and for kPercent with a zero denominator ("-").
  bool has_value() const;
  /// Numeric value: the count, the double, or the computed percentage.
  double value() const;
  std::uint64_t count_value() const { return count_; }
  int decimals() const { return decimals_; }
  const std::string& text_value() const { return text_; }

 private:
  Kind kind_ = Kind::kText;
  std::string text_;
  std::uint64_t count_ = 0;
  double value_ = 0;
  double denominator_ = 0;
  int decimals_ = 2;
};

/// Column metadata: a machine-readable name is the CSV/JSON header; the
/// declared type documents what the cells in this column hold.
enum class ColumnType { kString, kCount, kPercent, kDouble };

struct Column {
  std::string name;
  ColumnType type = ColumnType::kString;
};

const char* column_type_name(ColumnType type);

/// A named table with typed columns. Rows must not be wider than the
/// header (throws std::invalid_argument); narrower rows are padded with
/// empty text cells, mirroring TextTable.
class ResultTable {
 public:
  ResultTable() = default;
  ResultTable(std::string id, std::vector<Column> columns);

  void add_row(std::vector<Cell> cells);

  const std::string& id() const { return id_; }
  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }
  std::size_t row_count() const { return rows_.size(); }

  /// Column-aligned fixed-width rendering; byte-identical to TextTable
  /// over the same rendered cells.
  std::string render_text() const;

 private:
  std::string id_;
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// A structured pass/fail line ("  <label>: OK"). `text` carries the
/// exact rendered line (labels historically align their own padding);
/// `status` is 1 = OK, 0 = MISS, -1 = informational (no verdict).
struct Check {
  std::string text;
  std::string label;
  int status = -1;
};

struct ResultBlock {
  enum class Kind { kTable, kLine, kCheck };
  Kind kind = Kind::kLine;
  ResultTable table;  // kTable
  std::string line;   // kLine (one stdout line, no trailing newline)
  Check check;        // kCheck
};

/// One quarantined-record sample surfaced in the data-quality block.
/// Inputs are named by role ("ssl"/"x509"), never by path, and every
/// field is a pure function of the input bytes — the block is part of
/// the canonical JSON surface and must stay byte-stable across thread
/// counts, chunk sizes, and --stable-output.
struct QuarantineSample {
  std::string input;  // "ssl" / "x509"
  std::uint64_t byte_offset = 0;
  std::uint64_t line = 0;  // absolute physical line, header included
  std::string reason;
  std::string digest;  // sha256 hex prefix of the raw row
};

/// One row of the per-reason quarantine breakdown: exact count of rows
/// quarantined for one (input role, structured reason) pair. Counts are
/// never capped, and rows arrive sorted by (input, reason).
struct QuarantineReason {
  std::string input;  // "ssl" / "x509"
  std::string reason;
  std::uint64_t count = 0;
};

/// Quarantine totals of a best-effort run (DESIGN §11). `present` is
/// true only when something was actually quarantined or degraded, so
/// clean-input runs render identically in every error-policy mode.
struct DataQualityInfo {
  bool present = false;
  std::string policy;  // "skip" / "abort"
  std::uint64_t rows_ok = 0;
  std::uint64_t ssl_quarantined = 0;
  std::uint64_t x509_quarantined = 0;
  std::uint64_t io_events = 0;
  std::vector<QuarantineReason> reasons;  // exact per-reason breakdown
  std::vector<QuarantineSample> samples;  // capped; smallest offsets kept
  bool samples_truncated = false;

  std::uint64_t quarantined_total() const {
    return ssl_quarantined + x509_quarantined;
  }
};

/// Scalar run metadata: where the records came from and what the run
/// cost. Deterministic fields feed the JSON envelope; volatile fields
/// (threads, wall clock) appear only in non-stable text output.
struct RunInfo {
  /// False for self-driving experiments with no standard footer.
  bool present = false;
  bool file_mode = false;
  std::string ssl_log, x509_log;
  double cert_scale = 1;
  double conn_scale = 1;
  std::uint64_t seed = 0;
  bool stable_output = false;
  std::size_t threads_requested = 0;
  std::size_t threads = 0;  // resolved shard count
  bool gen_stats = false;   // generator totals valid (synthetic mode)
  std::size_t gen_connections = 0;
  std::size_t gen_mutual = 0;
  std::size_t gen_certificates = 0;
  std::size_t records = 0;
  double wall_seconds = 0;  // the pipeline pass only
  /// Trace generation time of a synthetic run (0 in file mode). Volatile
  /// (perf envelope and non-stable text footer only).
  double generate_seconds = 0;
  /// Pass-sharing group id from the experiment registry: experiments
  /// with the same id rode one pipeline pass. Volatile metadata (perf
  /// envelope only, never canonical JSON or golden text).
  std::string perf_group;
  /// Bytes of log input parsed (ssl + x509 file sizes). 0 in synthetic
  /// mode, where records come from the generator, not a parser.
  std::uint64_t parse_bytes = 0;
  /// Shard-state provenance of a reduced run (mtlscope reduce): the
  /// state format version and a digest over the merged state files.
  /// 0 / empty outside reduce mode. Volatile-envelope metadata (perf
  /// object and non-stable text footer only, never canonical JSON) —
  /// reduce output must stay byte-identical to the single-host run.
  std::uint32_t state_format_version = 0;
  std::string state_digest;
  /// Quarantine totals from a best-effort run. Canonical (unlike the
  /// perf envelope): rendered in JSON and in the text footer — even
  /// under --stable-output, since its fields are pure functions of the
  /// input bytes.
  DataQualityInfo data_quality;
  /// Enrichment-cache effectiveness and scan choice (DESIGN §15).
  /// Volatile (perf envelope only, suppressed by --stable-output): the
  /// counters depend on thread count and shard boundaries even though
  /// the results never do. `scan` is empty when no executor run backed
  /// this doc (reduce mode, self-driving experiments).
  std::string scan;  // "columnar" or "rows"
  std::uint64_t facts_cache_hits = 0;
  std::uint64_t facts_cache_misses = 0;
  std::uint64_t facts_cache_unique = 0;
  std::uint64_t enrich_cache_hits = 0;
  std::uint64_t enrich_cache_misses = 0;
  std::uint64_t enrich_cache_unique = 0;
  /// Write-path durability counters (DESIGN §16): transient retries,
  /// fsync calls, atomic publications, checkpoint generations, and
  /// degraded-mode episodes, snapshotted from the process-global
  /// WriteRetryCounters when the doc is filled. Volatile (perf envelope
  /// only, suppressed by --stable-output): the counts depend on signal
  /// timing and disk behaviour, never on the analyzed records.
  bool durability_present = false;
  std::uint64_t write_retries = 0;   // eintr + short writes + backoffs
  std::uint64_t write_failures = 0;  // hard failures (all classes)
  std::uint64_t fsyncs = 0;
  std::uint64_t dir_fsyncs = 0;
  std::uint64_t atomic_publishes = 0;
  std::uint64_t ckpt_gens_written = 0;
  std::uint64_t ckpt_gens_restored = 0;
  std::uint64_t degraded_episodes = 0;

  double records_per_second() const {
    return wall_seconds <= 0
               ? 0
               : static_cast<double>(records) / wall_seconds;
  }
  double parse_bytes_per_second() const {
    return wall_seconds <= 0
               ? 0
               : static_cast<double>(parse_bytes) / wall_seconds;
  }
};

class ResultDoc {
 public:
  std::string experiment;  // registry name, e.g. "table1"
  std::string anchor;      // paper anchor, e.g. "Table 1"
  std::string title;       // banner headline
  RunInfo run;

  /// Appends an empty table block and returns a reference for add_row.
  ResultTable& add_table(std::string id, std::vector<Column> columns);
  /// One raw stdout line (default: blank line).
  void add_line(std::string line = "");
  /// Structured check with an exact rendered line.
  void add_check(std::string text, std::string label, int status);
  /// Convenience for the dominant "  <label>: OK|MISS" shape.
  void add_check(std::string label, bool ok);

  const std::vector<ResultBlock>& blocks() const { return blocks_; }
  /// All tables, in block order.
  std::vector<const ResultTable*> tables() const;

 private:
  std::vector<ResultBlock> blocks_;
};

/// Full text rendering: banner, body blocks, footer. Byte-identical to
/// the pre-IR repro_* binaries for the same configuration.
std::string render_text(const ResultDoc& doc);
/// Body blocks only (no banner/footer).
std::string render_body_text(const ResultDoc& doc);
/// Canonical JSON: stable key order, fixed float formatting, no
/// volatile fields — byte-stable across thread counts and input modes.
std::string render_json(const ResultDoc& doc, int indent = 0);
/// Envelope variant: same canonical document, optionally extended with a
/// non-canonical "perf" object (threads, wall clock, throughput,
/// pass-sharing group) before "blocks". With include_perf == false this
/// is byte-identical to render_json(doc, indent); with it true the
/// output is volatile and must never feed golden files or byte-equality
/// assertions.
std::string render_json_with_perf(const ResultDoc& doc, int indent,
                                  bool include_perf);
/// One table as CSV (sep ',', RFC-style quoting) or TSV (sep '\t').
std::string render_csv(const ResultTable& table, char sep = ',');
/// The multi-document JSON envelope (`{"experiments": [...]}`) shared
/// by `mtlscope run --format=json`, `mtlscope reduce`, and the watch
/// daemon's published window/cumulative files — one rendering, so a
/// watch cumulative document byte-compares against a batch run's
/// stdout. include_perf as in render_json_with_perf.
std::string render_json_envelope(const std::vector<ResultDoc>& docs,
                                 bool include_perf);

/// JSON string escaping (exposed for the emitters and tests).
std::string json_escape(const std::string& s);

}  // namespace mtlscope::core
