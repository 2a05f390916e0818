// ContainerTail: follow one growing compact container (DESIGN §14). A
// streaming producer (a converter pipe, a forwarder) appends whole
// frames; the container format guarantees a valid prefix at every frame
// boundary, so the tail consumes complete frames as they land and
// carries a partial frame's bytes until the rest arrives. Unlike the
// line tail there is no parse tolerance: the frames were validated at
// conversion time, so a malformed frame marks the incarnation bad (a
// version skew or torn writer, reported once) instead of quarantining
// rows.
//
// Lifecycle shares TailSource's FileFollower (follower.hpp): append
// consumes new frames; truncation (same inode, smaller size) restarts at
// byte 0 expecting a fresh container header; rename rotation switches to
// the new inode once the old fd stops growing, dropping a partial frame.
// This file is the frame framing: the header check and the frame walk
// are colfmt's own (check_container_header, walk_frames), so the tail
// reads exactly the bytes ContainerReader accepts. The checkpointable
// position reuses TailPosition — inode + consumed offset + partial-frame
// carry + header_done — so the watch checkpoint format is unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/watch/tail.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope::watch {

class ContainerTail : private detail::Framing {
 public:
  /// Decoded rows of one poll, in frame order.
  struct PollRows {
    std::vector<zeek::SslRecord> ssl;
    std::vector<zeek::X509Record> x509;
    /// True once the footer frame arrived: the writer finished the
    /// container, no more frames follow in this incarnation.
    bool finished = false;
    /// Set once per bad incarnation: header/frame validation or block
    /// decode failure. The tail discards what it reads until the next
    /// truncation or rotation starts a fresh incarnation.
    std::string error;
  };

  explicit ContainerTail(std::string path);

  ContainerTail(const ContainerTail&) = delete;
  ContainerTail& operator=(const ContainerTail&) = delete;

  /// Polls once: detects truncation/rotation, reads new bytes, decodes
  /// every complete frame.
  PollRows poll();

  /// True when the last poll consumed bytes (drives idle detection).
  bool made_progress() const { return progress_; }

  const std::string& path() const { return follower_.path(); }
  /// The meta frame's provenance, once it has streamed in (the writer
  /// emits it at finish, so it precedes the footer).
  const std::optional<colfmt::ContainerMeta>& meta() const { return meta_; }
  const TailEvents& events() const { return follower_.events(); }

  /// Checkpointable position. Reuses TailPosition: `offset` counts
  /// consumed bytes (header + whole frames), `carry` holds a partial
  /// frame, `header_done` records that the container header validated.
  /// header_text / line counts stay empty — frames have no lines. A bad
  /// incarnation keeps no carry: its offset is simply the fetched end.
  TailPosition position() const { return pos_; }

  /// Restores a checkpointed position; same contract as
  /// TailSource::restore (false = rotated/truncated while down,
  /// restarted from scratch on the current file).
  bool restore(const TailPosition& position);

 private:
  std::uint64_t fetched_end() const override {
    return pos_.offset + pos_.carry.size();
  }
  void restart(std::uint64_t inode) override;
  void consume(std::string_view bytes) override;
  /// A partial frame is a torn writer — frames are atomic units, so it
  /// is dropped with the old incarnation, not salvaged like a line.
  void end_incarnation() override {}
  void decode_frame(colfmt::FrameKind kind, std::string_view payload);
  void fail(std::string reason);

  detail::FileFollower follower_;
  TailPosition pos_;
  bool bad_ = false;       ///< incarnation failed validation
  bool reported_ = false;  ///< error already surfaced for this incarnation
  bool progress_ = false;
  std::optional<colfmt::ContainerMeta> meta_;
  PollRows rows_;  ///< the current poll's output
};

}  // namespace mtlscope::watch
