#include "mtlscope/watch/container_tail.hpp"

#include <iterator>
#include <utility>

#include "mtlscope/core/state_io.hpp"

namespace mtlscope::watch {
namespace {

/// Upper bound on a plausible frame payload. The writer flushes a block
/// well below this; a larger length is a torn or foreign write and
/// marks the incarnation bad instead of buffering without bound.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

}  // namespace

ContainerTail::ContainerTail(std::string path) : follower_(std::move(path)) {}

void ContainerTail::restart(std::uint64_t inode) {
  pos_ = TailPosition{};
  pos_.inode = inode;
  bad_ = false;
  reported_ = false;
  meta_.reset();
}

/// Marks the incarnation bad, reporting once. Whatever is carried is
/// discarded: a bad incarnation only moves its fetch position forward
/// (so truncation is still detected) until a restart.
void ContainerTail::fail(std::string reason) {
  bad_ = true;
  if (!reported_) {
    reported_ = true;
    rows_.error = follower_.path() + ": " + std::move(reason);
  }
  pos_.offset += pos_.carry.size();
  pos_.carry.clear();
}

/// Feeds newly fetched bytes through the header/frame state machine.
/// pos_.offset is the absolute end of everything consumed (header +
/// whole frames); pos_.carry holds fetched-but-unconsumed bytes.
void ContainerTail::consume(std::string_view bytes) {
  if (bad_) {
    pos_.offset += bytes.size();
    return;
  }
  pos_.carry.append(bytes);

  std::uint64_t from = 0;
  if (!pos_.header_done) {
    if (pos_.carry.size() < colfmt::kContainerHeaderBytes) return;
    std::string error;
    if (!colfmt::check_container_header(pos_.carry, &error)) {
      return fail(std::move(error));
    }
    pos_.header_done = true;
    from = colfmt::kContainerHeaderBytes;
  }

  const colfmt::FrameWalk walk =
      colfmt::walk_frames(pos_.carry, from, kMaxFramePayload);
  for (const colfmt::FrameRef& frame : walk.frames) {
    try {
      decode_frame(frame.kind,
                   std::string_view(pos_.carry)
                       .substr(static_cast<std::size_t>(frame.offset) +
                                   colfmt::kFrameHeaderBytes,
                               static_cast<std::size_t>(frame.payload_len)));
    } catch (const core::StateError& e) {
      return fail("frame decode failed at byte " +
                  std::to_string(pos_.offset + frame.offset) + ": " +
                  e.what());
    }
  }
  if (!walk.error.empty()) {
    return fail("malformed frame at byte " +
                std::to_string(pos_.offset + walk.next) + ": " + walk.error);
  }
  pos_.carry.erase(0, static_cast<std::size_t>(walk.next));
  pos_.offset += walk.next;
}

void ContainerTail::decode_frame(colfmt::FrameKind kind,
                                 std::string_view payload) {
  switch (kind) {
    case colfmt::FrameKind::kSslBlock:
    case colfmt::FrameKind::kSslBlockDelta: {
      auto rows = colfmt::decode_ssl_block_payload(payload, kind);
      rows_.ssl.insert(rows_.ssl.end(), std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
      break;
    }
    case colfmt::FrameKind::kX509Block: {
      auto rows = colfmt::decode_x509_block_payload(payload);
      rows_.x509.insert(rows_.x509.end(),
                        std::make_move_iterator(rows.begin()),
                        std::make_move_iterator(rows.end()));
      break;
    }
    case colfmt::FrameKind::kMeta:
      meta_ = colfmt::decode_meta_payload(payload);
      break;
    case colfmt::FrameKind::kLedger:
      // Conversion-time quarantine: those rows never entered the
      // container, so the live watch ledger has nothing to add.
      break;
    case colfmt::FrameKind::kFooter:
      rows_.finished = true;
      break;
  }
}

ContainerTail::PollRows ContainerTail::poll() {
  progress_ = follower_.poll(*this) || !rows_.ssl.empty() ||
              !rows_.x509.empty();
  return std::exchange(rows_, {});
}

bool ContainerTail::restore(const TailPosition& position) {
  if (!follower_.restore(*this, position.inode,
                         position.offset + position.carry.size())) {
    return false;
  }
  pos_ = position;
  return true;
}

}  // namespace mtlscope::watch
