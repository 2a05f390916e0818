#include "mtlscope/core/error_ledger.hpp"

#include <algorithm>
#include <cstdio>

namespace mtlscope::core {
namespace {

/// Fixed-precision rate formatting so budget-abort messages are
/// byte-stable (operator<< for doubles is locale/precision dependent).
std::string format_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", rate);
  return buf;
}

std::size_t stored_for_role(const std::vector<QuarantinedRecord>& entries,
                            InputRole role) {
  std::size_t n = 0;
  for (const auto& e : entries) n += (e.input == role);
  return n;
}

}  // namespace

const char* input_role_name(InputRole role) {
  return role == InputRole::kSsl ? "ssl" : "x509";
}

const char* ledger_phase_name(LedgerPhase phase) {
  switch (phase) {
    case LedgerPhase::kRegistry:
      return "registry";
    case LedgerPhase::kUpgrades:
      return "upgrades";
    case LedgerPhase::kInterception:
      return "interception";
    case LedgerPhase::kShardRun:
      return "shard_run";
    case LedgerPhase::kIo:
      return "io";
  }
  return "unknown";
}

void ErrorLedger::quarantine(LedgerPhase phase, QuarantinedRecord record) {
  ++quarantined_[static_cast<unsigned>(record.input)];
  ++reason_counts_[static_cast<unsigned>(record.input)][record.reason];
  ++phase_counts_[static_cast<unsigned>(phase)];
  if (stored_for_role(entries_, record.input) < kMaxStoredPerRole) {
    entries_.push_back(std::move(record));
  } else {
    samples_truncated_ = true;
  }
}

void ErrorLedger::count_rows_ok(InputRole role, std::uint64_t n) {
  rows_ok_[static_cast<unsigned>(role)] += n;
}

void ErrorLedger::count_phase(LedgerPhase phase, std::uint64_t n) {
  phase_counts_[static_cast<unsigned>(phase)] += n;
}

void ErrorLedger::note_io(InputRole role, std::string event) {
  ++io_events_;
  ++phase_counts_[static_cast<unsigned>(LedgerPhase::kIo)];
  if (io_notes_.size() < kMaxIoNotes) {
    io_notes_.push_back(std::string(input_role_name(role)) + ": " +
                        std::move(event));
  }
}

void ErrorLedger::merge(ErrorLedger&& other) {
  merge_fields(*this, std::move(other));
  other.clear();
}

void ErrorLedger::finalize() {
  const auto order = [](const QuarantinedRecord& a,
                        const QuarantinedRecord& b) {
    if (a.input != b.input) {
      return static_cast<unsigned>(a.input) < static_cast<unsigned>(b.input);
    }
    return a.byte_offset < b.byte_offset;
  };
  std::stable_sort(entries_.begin(), entries_.end(), order);
  entries_.erase(
      std::unique(entries_.begin(), entries_.end(),
                  [](const QuarantinedRecord& a, const QuarantinedRecord& b) {
                    return a.input == b.input &&
                           a.byte_offset == b.byte_offset &&
                           a.reason == b.reason && a.digest == b.digest;
                  }),
      entries_.end());
  // Re-apply the per-role cap post-merge: keep the smallest offsets.
  std::vector<QuarantinedRecord> capped;
  capped.reserve(std::min(entries_.size(), kMaxStoredPerRole * kInputRoles));
  std::size_t kept[kInputRoles] = {};
  for (auto& entry : entries_) {
    auto& n = kept[static_cast<unsigned>(entry.input)];
    if (n < kMaxStoredPerRole) {
      ++n;
      capped.push_back(std::move(entry));
    } else {
      samples_truncated_ = true;
    }
  }
  entries_ = std::move(capped);
}

void ErrorLedger::clear() { *this = ErrorLedger(); }

std::optional<std::string> ErrorLedger::budget_violation(
    const ingest::ErrorPolicy& policy) const {
  const std::uint64_t quarantined = quarantined_total();
  if (quarantined == 0) return std::nullopt;
  if (quarantined > policy.max_errors) {
    return "error budget exceeded: " + std::to_string(quarantined) +
           " records quarantined, --max-errors=" +
           std::to_string(policy.max_errors);
  }
  if (policy.max_error_rate < 1.0) {
    const std::uint64_t seen = quarantined + rows_ok_total();
    const double rate =
        seen == 0 ? 0.0
                  : static_cast<double>(quarantined) / static_cast<double>(seen);
    if (rate > policy.max_error_rate) {
      return "error rate " + format_rate(rate) + " exceeds --max-error-rate=" +
             format_rate(policy.max_error_rate);
    }
  }
  return std::nullopt;
}

}  // namespace mtlscope::core
