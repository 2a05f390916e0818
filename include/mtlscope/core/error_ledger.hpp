// ErrorLedger: the structured quarantine record of a best-effort run
// (DESIGN §11). When the pipeline runs with --on-error=skip, every
// malformed record is quarantined here instead of aborting the run:
// which input it came from, the byte offset and physical line of the raw
// row, the structured parse reason, and a digest of the raw bytes (so a
// hostile row is identifiable without ever copying its bytes into a
// report).
//
// Determinism invariants (fault_test asserts them):
//   * Entries are recorded only by each input's authoritative pass
//     (phase A for x509, phase B for ssl) on the stream-order fold
//     thread, so the ledger never sees a row twice and never depends on
//     worker scheduling.
//   * Every stored field is a pure function of the input bytes — no
//     wall times, no host paths — and finalize() sorts by
//     (input, byte_offset) and dedupes, so the finalized ledger is
//     byte-identical across thread counts and chunk sizes.
//   * Counts are exact; only the stored sample list is capped
//     (kMaxStoredPerRole smallest offsets per input, flagged via
//     samples_truncated()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mtlscope/core/field_list.hpp"
#include "mtlscope/ingest/error.hpp"

namespace mtlscope::core {

/// Which logical input a quarantined record came from. Reports use the
/// role name, never the file path, so output stays host-independent.
enum class InputRole : unsigned { kSsl = 0, kX509 = 1 };
inline constexpr std::size_t kInputRoles = 2;
template <>
inline constexpr std::size_t kEnumCount<InputRole> = kInputRoles;
const char* input_role_name(InputRole role);  // "ssl" / "x509"

/// Where in the five-phase run a problem was accounted. Quarantine
/// entries only ever carry kRegistry (x509) or kUpgrades (ssl) — the
/// authoritative passes; the later read-only phases (C/D) parse the same
/// bytes tolerantly without re-recording.
enum class LedgerPhase : unsigned {
  kRegistry = 0,      // phase A: x509 registry build
  kUpgrades = 1,      // phase B: ssl chain-upgrade pass
  kInterception = 2,  // phase C: CT pre-pass (re-parse, counts only)
  kShardRun = 3,      // phase D: shard run (re-parse, counts only)
  kIo = 4,            // I/O events: truncation while streaming, retries
};
inline constexpr std::size_t kLedgerPhases = 5;
const char* ledger_phase_name(LedgerPhase phase);

/// One quarantined record. Pure function of the input bytes.
struct QuarantinedRecord {
  InputRole input = InputRole::kSsl;
  std::size_t byte_offset = 0;  // absolute offset of the raw row
  std::size_t line = 0;         // absolute physical line, header included
  std::size_t raw_length = 0;   // raw row bytes (sans CR/LF)
  std::string reason;           // structured parser vocabulary
  std::string digest;           // sha256 hex prefix of the raw row

  template <class V>
  static void fields(V& v) {
    v("input", &QuarantinedRecord::input, rule::keep);
    v("byte_offset", &QuarantinedRecord::byte_offset, rule::keep);
    v("line", &QuarantinedRecord::line, rule::keep);
    v("raw_length", &QuarantinedRecord::raw_length, rule::keep);
    v("reason", &QuarantinedRecord::reason, rule::keep);
    v("digest", &QuarantinedRecord::digest, rule::keep);
  }
};

class ErrorLedger {
 public:
  /// Stored samples per input role; counts stay exact past the cap.
  static constexpr std::size_t kMaxStoredPerRole = 64;
  /// Stored I/O notes; the event count stays exact past the cap.
  static constexpr std::size_t kMaxIoNotes = 8;

  /// Records one quarantined record under its authoritative phase.
  void quarantine(LedgerPhase phase, QuarantinedRecord record);
  /// Counts rows that parsed cleanly (the error-rate denominator).
  void count_rows_ok(InputRole role, std::uint64_t n);
  /// Counts tolerated rows seen by a non-authoritative re-parse (C/D):
  /// per-phase accounting only, no new ledger entries.
  void count_phase(LedgerPhase phase, std::uint64_t n);
  /// Records an I/O degradation event (e.g. truncation-while-streaming).
  void note_io(InputRole role, std::string event);

  /// Folds another ledger in (counts add, samples re-capped at
  /// finalize()). Deterministic for any merge order once finalized.
  void merge(ErrorLedger&& other);
  /// Sorts samples by (input, byte_offset), dedupes exact duplicates,
  /// and re-applies the per-role cap keeping the smallest offsets.
  void finalize();
  void clear();

  std::uint64_t quarantined(InputRole role) const {
    return quarantined_[static_cast<unsigned>(role)];
  }
  std::uint64_t quarantined_total() const {
    return quarantined_[0] + quarantined_[1];
  }
  std::uint64_t rows_ok(InputRole role) const {
    return rows_ok_[static_cast<unsigned>(role)];
  }
  std::uint64_t rows_ok_total() const { return rows_ok_[0] + rows_ok_[1]; }
  std::uint64_t phase_count(LedgerPhase phase) const {
    return phase_counts_[static_cast<unsigned>(phase)];
  }
  std::uint64_t io_events() const { return io_events_; }
  /// Exact quarantine counts per structured reason for one input role
  /// (the per-reason breakdown of the data-quality block). Unlike the
  /// sample list these never cap, and std::map keeps them sorted.
  const std::map<std::string, std::uint64_t>& reasons(InputRole role) const {
    return reason_counts_[static_cast<unsigned>(role)];
  }
  const std::vector<QuarantinedRecord>& entries() const { return entries_; }
  const std::vector<std::string>& io_notes() const { return io_notes_; }
  bool samples_truncated() const { return samples_truncated_; }
  /// True when nothing was quarantined and no I/O event was seen.
  bool pristine() const { return quarantined_total() == 0 && io_events_ == 0; }

  /// Returns the deterministic abort message when `policy`'s budget is
  /// exceeded by the current counts, nullopt while within budget.
  std::optional<std::string> budget_violation(
      const ingest::ErrorPolicy& policy) const;

  /// The field list (core/field_list.hpp): samples append (finalize()
  /// re-sorts and re-caps them), I/O notes append up to their cap, and
  /// every count adds.
  template <class V>
  static void fields(V& v) {
    v("entries", &ErrorLedger::entries_, rule::append);
    v("io_notes", &ErrorLedger::io_notes_, rule::capped_append(kMaxIoNotes));
    v("quarantined", &ErrorLedger::quarantined_, rule::sum);
    v("reason_counts", &ErrorLedger::reason_counts_, rule::keyed(rule::sum));
    v("rows_ok", &ErrorLedger::rows_ok_, rule::sum);
    v("phase_counts", &ErrorLedger::phase_counts_, rule::sum);
    v("io_events", &ErrorLedger::io_events_, rule::sum);
    v("samples_truncated", &ErrorLedger::samples_truncated_, rule::either);
  }

 private:
  std::vector<QuarantinedRecord> entries_;
  std::vector<std::string> io_notes_;
  std::uint64_t quarantined_[kInputRoles] = {};
  std::map<std::string, std::uint64_t> reason_counts_[kInputRoles];
  std::uint64_t rows_ok_[kInputRoles] = {};
  std::uint64_t phase_counts_[kLedgerPhases] = {};
  std::uint64_t io_events_ = 0;
  bool samples_truncated_ = false;
};

}  // namespace mtlscope::core
