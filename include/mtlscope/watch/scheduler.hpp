// WindowScheduler (DESIGN §13): turns a tailed record stream into
// windowed and cumulative ResultDocs with batch-identical bytes.
//
// Closing is *watermark*-based and driven purely by record timestamps:
// the watermark is the max ssl `ts` seen, a window closes the moment a
// record lands in a later bucket, and every decision is made per record
// — never per poll batch — so the emitted documents are a pure function
// of the record stream, byte-identical for any poll cadence, chunk
// arrival pattern, or `--threads`.
//
// Identity with the batch pipeline rests on the PR 6 merge algebra
// (pinned by the mapreduce_byte_identity CTest): each closed window is
// folded exactly like an `mtlscope map` slice — paired with the x509
// rows its chains reference, which is all phases A/B/D can touch for
// those records — through the scheduler's one PipelineExecutor. Its
// Enricher (the DER-keyed CertFacts memo) lives as long as the
// scheduler; registry, chain upgrades, shards and analyzers are built
// per fold, so a window's state never sees another's. Cumulative state
// is the merge of those finalized window states, re-finalized at
// emission. A final *completion fold* at drain adds the never-referenced
// certificates, matching the batch registry built from the full x509
// log. Records that arrive behind the watermark are buffered as "late"
// and folded into cumulative state at drain (an in-order stream, the
// normal gateway case, never produces any).
//
// An ssl record whose chain references a certificate the x509 tail has
// not yet delivered is *held* (strictly in stream order) until the row
// arrives — Zeek writes the x509 row at the same event as the ssl row,
// so a gap is a poll-interleaving artifact, and holding makes the fold
// input deterministic instead of racing the writer. force_release()
// breaks a genuinely missing certificate out of the queue (liveness);
// drain() always releases.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtlscope/core/error_ledger.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/experiments/options.hpp"
#include "mtlscope/watch/checkpoint.hpp"
#include "mtlscope/zeek/parse_plan.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope::watch {

struct WatchConfig {
  /// Primary window width in seconds (--window=hour|day|week|N).
  std::int64_t window_seconds = 3600;
  /// Roll-up width in primary windows (24 hourly windows = one day).
  std::uint32_t rollup_windows = 24;
  /// Experiment names each emission reports (batch `run` order).
  std::vector<std::string> experiments;
  /// Shared pipeline options. ssl_log/x509_log here are the *report
  /// label* paths (what RunInfo prints — see `mtlscope reduce`'s
  /// --ssl-log= override); the tailed paths live in the daemon.
  experiments::RunOptions run;
};

/// One published document set. `envelope` is the canonical JSON bytes
/// (`mtlscope run --format=json --stable-output` shape), which is what
/// makes `cumulative.json` byte-comparable against a batch run.
struct Emission {
  enum class Kind { kWindow, kRollup, kCumulative };
  Kind kind;
  /// Window start timestamp (seconds); 0 for cumulative.
  std::int64_t start_ts = 0;
  std::string envelope;
};
using EmitFn = std::function<void(const Emission&)>;

class WindowScheduler {
 public:
  WindowScheduler(WatchConfig config, EmitFn emit);

  /// Feeds x509 rows in arrival order (first fuid wins, like phase A in
  /// stream order) and releases any held ssl records they unblock.
  void add_x509(std::vector<zeek::X509Record> rows);

  /// Feeds ssl rows in stream order: watermark advance, window close,
  /// hold-for-certificate, late buffering.
  void add_ssl(std::vector<zeek::SslRecord> rows);

  /// Accounts tail-parse results in the watch ErrorLedger (absolute
  /// coordinates; the cumulative document's data-quality block).
  void note_issues(core::InputRole role, core::LedgerPhase phase,
                   const std::vector<zeek::RowIssue>& issues,
                   std::uint64_t rows_ok);

  /// Releases every held record even if its certificates never arrived
  /// (missing-certificate liveness escape; enrichment degrades exactly
  /// like a batch run whose x509 log lacks the fuid).
  void force_release();
  std::size_t held() const { return pending_.size(); }

  /// End of stream (idle exit / final drain): closes the open window
  /// and roll-up, folds late and held records, adds never-referenced
  /// certificates, and emits the final cumulative document.
  void drain();

  /// Publishes the current cumulative document (drain() does this; the
  /// daemon also calls it on roll-up boundaries).
  void emit_cumulative();

  struct Status {
    std::uint64_t ssl_records = 0;
    std::uint64_t x509_records = 0;
    std::uint64_t held = 0;
    std::uint64_t late = 0;
    std::uint64_t open_windows = 0;  // 0 or 1 primary + 0 or 1 roll-up
    std::uint64_t windows_emitted = 0;
    std::uint64_t rollups_emitted = 0;
    std::uint64_t quarantined = 0;
    std::int64_t watermark_ts = 0;
  };
  Status status() const;

  /// Fills the scheduler half of a checkpoint (tails are the daemon's).
  void save(WatchCheckpoint& out) const;
  /// Restores from a checkpoint; refuses a configuration-fingerprint
  /// mismatch (window geometry / experiment list / seed) with a
  /// deterministic message.
  bool restore(const WatchCheckpoint& ckpt, std::string* error = nullptr);

 private:
  void process(zeek::SslRecord record);
  void release_ready(bool force);
  bool certs_ready(const zeek::SslRecord& record) const;
  void close_window();
  void close_rollup();
  /// Folds rows paired with the x509 rows their chains reference.
  core::ShardState fold_rows(const std::vector<zeek::SslRecord>& rows);
  /// Folds rows with `x509` (pointers into x509_seen_, repeats allowed).
  core::ShardState fold(const std::vector<zeek::SslRecord>& rows,
                        std::vector<const zeek::X509Record*> x509);
  void fill_meta(core::ShardState& state) const;
  void emit_state(Emission::Kind kind, std::int64_t start_ts,
                  core::ShardState state);
  std::string render(core::ShardState state);

  WatchConfig config_;
  EmitFn emit_;
  core::PipelineExecutor executor_;

  // x509 arrival state: first-seen rows in order plus a fuid index.
  std::vector<zeek::X509Record> x509_seen_;
  std::unordered_map<colfmt::Str, std::size_t, colfmt::StrHash, colfmt::StrEq>
      x509_index_;

  // Stream-order hold queue (front blocks everything behind it).
  std::vector<zeek::SslRecord> pending_;
  std::size_t pending_front_ = 0;

  // Open primary window and watermark.
  bool have_watermark_ = false;
  std::int64_t watermark_bucket_ = 0;
  std::int64_t watermark_ts_ = 0;
  std::vector<zeek::SslRecord> current_rows_;

  // Open roll-up window.
  std::int64_t rollup_bucket_ = 0;
  std::optional<core::ShardState> rollup_state_;

  // Cumulative state: merge of finalized window folds (re-finalized on
  // a copy at each emission — merge-after-finalize is the PR 6 reduce
  // pattern).
  std::optional<core::ShardState> cumulative_;

  std::vector<zeek::SslRecord> late_;
  core::ErrorLedger ledger_;
  std::uint64_t ssl_records_seen_ = 0;
  std::uint64_t windows_emitted_ = 0;
  std::uint64_t rollups_emitted_ = 0;
};

/// Parses --window= values: "hour", "day", "week", or a positive
/// integer second count. Returns 0 on bad input.
std::int64_t parse_window_spec(const std::string& spec);

}  // namespace mtlscope::watch
