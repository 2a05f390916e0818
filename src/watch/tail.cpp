#include "mtlscope/watch/tail.hpp"

#include <utility>

namespace mtlscope::watch {

TailSource::TailSource(std::string path) : follower_(std::move(path)) {}

void TailSource::restart(std::uint64_t inode) {
  pos_ = TailPosition{};
  pos_.inode = inode;
  ++incarnation_;
  pending_incarnation_start_ = true;
}

TailBatch TailSource::make_batch() {
  TailBatch batch;
  batch.header_lines = static_cast<std::size_t>(pos_.header_lines);
  batch.incarnation_start = pending_incarnation_start_;
  pending_incarnation_start_ = false;
  return batch;
}

/// Feeds newly fetched bytes through the header/line state machine.
///
/// Invariant: pos_.offset is the absolute end of everything fetched so
/// far (the follower preads there), and pos_.carry holds the tail of
/// the fetched region not yet consumed — so the pending region
/// `carry + bytes` starts at absolute offset pos_.offset - carry.size().
void TailSource::consume(std::string_view bytes) {
  const std::size_t pending_start =
      static_cast<std::size_t>(pos_.offset) - pos_.carry.size();
  std::string pending = std::move(pos_.carry);
  pos_.carry.clear();
  pending.append(bytes);
  pos_.offset += bytes.size();

  // Header phase: leading '#' lines accumulate into header_text (they
  // can split across polls via carry). The first complete non-'#' line
  // ends the header and re-enters the body phase below; the consumer
  // compiles its column plan from header_text() exactly once.
  std::size_t i = 0;
  while (!pos_.header_done) {
    if (i >= pending.size()) break;
    if (pending[i] != '#') {
      // First body byte ends the header even before its newline shows
      // up, so a drain can flush an unterminated first row.
      pos_.header_done = true;
      break;
    }
    const std::size_t nl = pending.find('\n', i);
    if (nl == std::string::npos) break;  // partial header line: carry
    pos_.header_text.append(pending, i, nl - i + 1);
    ++pos_.header_lines;
    i = nl + 1;
  }
  if (!pos_.header_done) {
    pos_.carry = pending.substr(i);
    return;
  }

  // Body phase: everything up to the last newline is one batch; the
  // rest carries to the next poll.
  const std::size_t last_nl = pending.rfind('\n');
  if (last_nl == std::string::npos || last_nl < i) {
    pos_.carry = pending.substr(i);
    return;
  }
  TailBatch batch = make_batch();
  batch.base_offset = pending_start + i;
  batch.body_lines_before = static_cast<std::size_t>(pos_.body_lines);
  batch.body = pending.substr(i, last_nl + 1 - i);
  std::size_t lines = 0;
  for (const char c : batch.body) lines += c == '\n';
  pos_.body_lines += lines;
  pos_.carry = pending.substr(last_nl + 1);
  batches_.push_back(std::move(batch));
}

std::vector<TailBatch> TailSource::poll() {
  progress_ = follower_.poll(*this) || !batches_.empty();
  return std::exchange(batches_, {});
}

void TailSource::end_incarnation() {
  // The renamed-away file is complete: its unterminated tail is a record.
  if (auto tail = flush_carry()) batches_.push_back(std::move(*tail));
}

std::optional<TailBatch> TailSource::flush_carry() {
  if (pos_.carry.empty() || !pos_.header_done) return std::nullopt;
  TailBatch batch = make_batch();
  batch.base_offset =
      static_cast<std::size_t>(pos_.offset) - pos_.carry.size();
  batch.body_lines_before = static_cast<std::size_t>(pos_.body_lines);
  batch.body = std::move(pos_.carry);
  pos_.carry.clear();
  pos_.body_lines += 1;
  return batch;
}

bool TailSource::restore(const TailPosition& position) {
  if (!follower_.restore(*this, position.inode, position.offset)) {
    return false;
  }
  // The follower's reopen restarted a fresh incarnation, so the first
  // batch after the resume recompiles the plan from the restored header.
  pos_ = position;
  return true;
}

}  // namespace mtlscope::watch
