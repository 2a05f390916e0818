#include "mtlscope/watch/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/experiments/registry.hpp"

namespace mtlscope::watch {
namespace {

/// Floor division: buckets stay aligned for any sign of ts.
std::int64_t bucket_of(std::int64_t ts, std::int64_t width) {
  std::int64_t q = ts / width;
  if (ts % width != 0 && (ts < 0) != (width < 0)) --q;
  return q;
}

}  // namespace

// The executor mirrors `mtlscope map` in file mode: campus defaults, no
// CT database, so window states merge without cross-slice confirmation
// effects.
WindowScheduler::WindowScheduler(WatchConfig config, EmitFn emit)
    : config_(std::move(config)),
      emit_(std::move(emit)),
      executor_(core::PipelineConfig::campus_defaults(), config_.run.threads) {}

void WindowScheduler::add_x509(std::vector<zeek::X509Record> rows) {
  for (auto& row : rows) {
    // First fuid wins, exactly like phase A in stream order: the watch
    // stream's first occurrence is the one a batch run would keep.
    if (x509_index_.emplace(row.fuid, x509_seen_.size()).second) {
      x509_seen_.push_back(std::move(row));
    }
  }
  release_ready(false);
}

bool WindowScheduler::certs_ready(const zeek::SslRecord& record) const {
  const auto known = [this](const colfmt::Str& fuid) {
    return x509_index_.count(fuid) != 0;
  };
  return std::all_of(record.cert_chain_fuids.begin(),
                     record.cert_chain_fuids.end(), known) &&
         std::all_of(record.client_cert_chain_fuids.begin(),
                     record.client_cert_chain_fuids.end(), known);
}

void WindowScheduler::add_ssl(std::vector<zeek::SslRecord> rows) {
  for (auto& row : rows) {
    if (pending_front_ == pending_.size() && certs_ready(row)) {
      process(std::move(row));
    } else {
      // Stream order is part of the determinism contract: once one
      // record waits for its certificate, everything behind it waits
      // too.
      pending_.push_back(std::move(row));
    }
  }
}

void WindowScheduler::release_ready(bool force) {
  while (pending_front_ < pending_.size()) {
    zeek::SslRecord& head = pending_[pending_front_];
    if (!force && !certs_ready(head)) break;
    zeek::SslRecord record = std::move(head);
    ++pending_front_;
    process(std::move(record));
  }
  if (pending_front_ == pending_.size()) {
    pending_.clear();
    pending_front_ = 0;
  }
}

void WindowScheduler::force_release() { release_ready(true); }

void WindowScheduler::note_issues(core::InputRole role,
                                  core::LedgerPhase phase,
                                  const std::vector<zeek::RowIssue>& issues,
                                  std::uint64_t rows_ok) {
  for (const auto& issue : issues) {
    ledger_.quarantine(phase, core::QuarantinedRecord{
                                  role, issue.byte_offset, issue.line,
                                  issue.raw_length, issue.reason,
                                  issue.digest});
  }
  ledger_.count_rows_ok(role, rows_ok);
}

void WindowScheduler::process(zeek::SslRecord record) {
  ++ssl_records_seen_;
  const std::int64_t bucket = bucket_of(record.ts, config_.window_seconds);
  if (!have_watermark_) {
    have_watermark_ = true;
    watermark_bucket_ = bucket;
    watermark_ts_ = record.ts;
  }
  watermark_ts_ = std::max(watermark_ts_, record.ts);
  if (bucket > watermark_bucket_) {
    close_window();
    const std::int64_t new_rollup =
        bucket_of(bucket, static_cast<std::int64_t>(config_.rollup_windows));
    if (rollup_state_ && new_rollup != rollup_bucket_) close_rollup();
    watermark_bucket_ = bucket;
  }
  if (bucket < watermark_bucket_) {
    // Behind the watermark: its window already closed and published.
    // Buffered and folded into cumulative state at drain; an in-order
    // gateway stream never produces any.
    late_.push_back(std::move(record));
    return;
  }
  current_rows_.push_back(std::move(record));
}

core::ShardState WindowScheduler::fold_rows(
    const std::vector<zeek::SslRecord>& rows) {
  // Pair the batch with exactly the x509 rows its chains reference —
  // the only rows phases A/B/D can touch for these records, so the fold
  // equals an `mtlscope map` slice paired with the full log.
  std::vector<const zeek::X509Record*> x509;
  for (const auto& row : rows) {
    for (const auto* fuids :
         {&row.cert_chain_fuids, &row.client_cert_chain_fuids}) {
      for (const auto& fuid : *fuids) {
        const auto it = x509_index_.find(fuid);
        if (it != x509_index_.end()) x509.push_back(&x509_seen_[it->second]);
      }
    }
  }
  return fold(rows, std::move(x509));
}

core::ShardState WindowScheduler::fold(
    const std::vector<zeek::SslRecord>& rows,
    std::vector<const zeek::X509Record*> x509) {
  // Phase A reads each row once, in arrival order, as it reads a log.
  std::sort(x509.begin(), x509.end());
  x509.erase(std::unique(x509.begin(), x509.end()), x509.end());
  core::ShardState state = executor_.fold(rows, std::move(x509));
  fill_meta(state);
  return state;
}

void WindowScheduler::fill_meta(core::ShardState& state) const {
  state.meta.file_mode = true;
  state.meta.ssl_log = config_.run.ssl_log;
  state.meta.x509_log = config_.run.x509_log;
  state.meta.seed = config_.run.seed;
  state.meta.cert_scale = config_.run.cert_scale_override.value_or(1.0);
  state.meta.conn_scale = config_.run.conn_scale_override.value_or(1.0);
  state.meta.parse_bytes = 0;  // volatile perf field; watch emits canonical
}

void WindowScheduler::close_window() {
  if (current_rows_.empty()) return;
  core::ShardState state = fold_rows(current_rows_);
  current_rows_.clear();
  ++windows_emitted_;
  emit_state(Emission::Kind::kWindow,
             watermark_bucket_ * config_.window_seconds, state);
  if (!rollup_state_) {
    rollup_bucket_ = bucket_of(
        watermark_bucket_, static_cast<std::int64_t>(config_.rollup_windows));
    rollup_state_ = state;
  } else {
    rollup_state_->merge(core::ShardState(state));
  }
  if (!cumulative_) {
    cumulative_ = std::move(state);
  } else {
    cumulative_->merge(std::move(state));
  }
}

void WindowScheduler::close_rollup() {
  if (!rollup_state_) return;
  ++rollups_emitted_;
  emit_state(Emission::Kind::kRollup,
             rollup_bucket_ * static_cast<std::int64_t>(
                                  config_.rollup_windows) *
                 config_.window_seconds,
             std::move(*rollup_state_));
  rollup_state_.reset();
  emit_cumulative();
}

void WindowScheduler::emit_cumulative() {
  // An empty stream still reports: fold nothing so the document shape
  // (zero records, data-quality if rows were quarantined) matches a
  // batch run over the same degenerate input.
  core::ShardState state = cumulative_ ? *cumulative_ : fold({}, {});
  state.ledger.merge(core::ErrorLedger(ledger_));
  emit_state(Emission::Kind::kCumulative, 0, std::move(state));
}

void WindowScheduler::emit_state(Emission::Kind kind, std::int64_t start_ts,
                                 core::ShardState state) {
  Emission emission;
  emission.kind = kind;
  emission.start_ts = start_ts;
  emission.envelope = render(std::move(state));
  if (emit_) emit_(emission);
}

std::string WindowScheduler::render(core::ShardState state) {
  // The reduce post-pass: idempotent re-finalize, then report through
  // the registry exactly like `mtlscope reduce` — which PR 6 pinned as
  // byte-identical to a single-host batch run.
  state.pipeline->finalize();
  state.ledger.finalize();
  experiments::ReduceInfo reduce_info;
  reduce_info.state_format_version = core::kStateFormatVersion;
  experiments::RunOptions options = config_.run;
  options.seed = state.meta.seed;
  auto docs = experiments::run_reduced(config_.experiments, std::move(state),
                                       reduce_info, options);
  return core::render_json_envelope(docs, /*include_perf=*/false);
}

void WindowScheduler::drain() {
  release_ready(true);
  close_window();
  if (rollup_state_) close_rollup();
  if (!late_.empty()) {
    core::ShardState state = fold_rows(late_);
    late_.clear();
    if (!cumulative_) {
      cumulative_ = std::move(state);
    } else {
      cumulative_->merge(std::move(state));
    }
  }
  // Completion fold: certificates the x509 log carried but no chain
  // ever referenced. The batch registry holds them (phase A reads the
  // whole log), so cumulative state must too.
  std::vector<const zeek::X509Record*> missing;
  for (const auto& row : x509_seen_) {
    if (!cumulative_ || !cumulative_->pipeline->certificates().contains(
                            row.fuid)) {
      missing.push_back(&row);
    }
  }
  if (!missing.empty()) {
    core::ShardState state = fold({}, std::move(missing));
    if (!cumulative_) {
      cumulative_ = std::move(state);
    } else {
      cumulative_->merge(std::move(state));
    }
  }
  emit_cumulative();
}

WindowScheduler::Status WindowScheduler::status() const {
  Status s;
  s.ssl_records = ssl_records_seen_;
  s.x509_records = x509_seen_.size();
  s.held = pending_.size() - pending_front_;
  s.late = late_.size();
  s.open_windows = (current_rows_.empty() ? 0 : 1) +
                   (rollup_state_ ? 1 : 0);
  s.windows_emitted = windows_emitted_;
  s.rollups_emitted = rollups_emitted_;
  s.quarantined = ledger_.quarantined_total();
  s.watermark_ts = watermark_ts_;
  return s;
}

void WindowScheduler::save(WatchCheckpoint& out) const {
  out.window_seconds = config_.window_seconds;
  out.rollup_windows = config_.rollup_windows;
  out.experiments = config_.experiments;
  out.seed = config_.run.seed;
  out.have_watermark = have_watermark_;
  out.watermark_bucket = watermark_bucket_;
  out.watermark_ts = watermark_ts_;
  out.current_rows = current_rows_;
  out.pending_rows.assign(pending_.begin() + static_cast<std::ptrdiff_t>(
                                                 pending_front_),
                          pending_.end());
  out.late_rows = late_;
  out.rollup_bucket = rollup_bucket_;
  // Serialize accumulating states as-is: the round trip is exact
  // (canonical state → bytes → state), so a resumed scheduler holds the
  // same in-memory state the uninterrupted one would.
  out.rollup_blob =
      rollup_state_ ? core::serialize_shard_state(*rollup_state_) : "";
  out.cumulative_blob =
      cumulative_ ? core::serialize_shard_state(*cumulative_) : "";
  out.ledger = ledger_;
  out.x509_seen = x509_seen_;
  out.ssl_records_seen = ssl_records_seen_;
  out.windows_emitted = windows_emitted_;
  out.rollups_emitted = rollups_emitted_;
}

bool WindowScheduler::restore(const WatchCheckpoint& ckpt,
                              std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (ckpt.window_seconds != config_.window_seconds ||
      ckpt.rollup_windows != config_.rollup_windows) {
    return fail("checkpoint window geometry mismatch: checkpoint " +
                std::to_string(ckpt.window_seconds) + "s x" +
                std::to_string(ckpt.rollup_windows) + ", flags " +
                std::to_string(config_.window_seconds) + "s x" +
                std::to_string(config_.rollup_windows));
  }
  if (ckpt.experiments != config_.experiments) {
    return fail("checkpoint experiment list mismatch");
  }
  if (ckpt.seed != config_.run.seed) {
    return fail("checkpoint seed mismatch: checkpoint " +
                std::to_string(ckpt.seed) + ", flags " +
                std::to_string(config_.run.seed));
  }
  std::optional<core::ShardState> cumulative;
  if (!ckpt.cumulative_blob.empty()) {
    std::string parse_error;
    cumulative =
        core::parse_shard_state(ckpt.cumulative_blob, nullptr, &parse_error);
    if (!cumulative) {
      return fail("checkpoint cumulative state: " + parse_error);
    }
  }
  std::optional<core::ShardState> rollup;
  if (!ckpt.rollup_blob.empty()) {
    std::string parse_error;
    rollup = core::parse_shard_state(ckpt.rollup_blob, nullptr, &parse_error);
    if (!rollup) {
      return fail("checkpoint rollup state: " + parse_error);
    }
  }
  have_watermark_ = ckpt.have_watermark;
  watermark_bucket_ = ckpt.watermark_bucket;
  watermark_ts_ = ckpt.watermark_ts;
  current_rows_ = ckpt.current_rows;
  pending_ = ckpt.pending_rows;
  pending_front_ = 0;
  late_ = ckpt.late_rows;
  rollup_bucket_ = ckpt.rollup_bucket;
  rollup_state_ = std::move(rollup);
  cumulative_ = std::move(cumulative);
  ledger_ = ckpt.ledger;
  x509_seen_ = ckpt.x509_seen;
  x509_index_.clear();
  for (std::size_t i = 0; i < x509_seen_.size(); ++i) {
    x509_index_.emplace(x509_seen_[i].fuid, i);
  }
  ssl_records_seen_ = ckpt.ssl_records_seen;
  windows_emitted_ = ckpt.windows_emitted;
  rollups_emitted_ = ckpt.rollups_emitted;
  return true;
}

}  // namespace mtlscope::watch
