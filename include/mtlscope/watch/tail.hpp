// TailSource: follow one growing Zeek log file (DESIGN §13). The batch
// ingest layer reads complete files; a border gateway writes them
// continuously and logrotate moves them out from under the reader.
// Lifecycle shares FileFollower (follower.hpp) with the container tail:
// append, copytruncate and rename rotation are handled there, without
// losing or double reading a record. This file is the line framing:
//
//   * append          — new bytes are consumed as complete lines; a
//                       partial trailing line is carried until its
//                       newline arrives on a later poll;
//   * copytruncate    — the restart re-reads the fresh header;
//   * rename rotation — the old incarnation's final unterminated line
//                       is flushed as a record before the switch (its
//                       writer has moved on).
//
// Every batch carries absolute provenance — the byte offset and the
// physical body-line count of its first byte within the current file
// incarnation — so quarantine entries stay absolute in the file even
// after a checkpoint restore reopens mid-file (the ledger invariant the
// batch pipeline already guarantees; see error_ledger.hpp).
//
// Rotation and truncation are *normal* events for a tailed log, not
// degradation: they are counted in TailEvents for the status line but
// never recorded in the ErrorLedger, so a clean rotated stream reports
// byte-identically to a clean batch run over the same rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mtlscope/core/field_list.hpp"
#include "mtlscope/watch/follower.hpp"

namespace mtlscope::watch {

/// One run of complete lines from a poll, with absolute provenance
/// within the current file incarnation. `body` ends at the last newline
/// read (or is the flushed final partial line at end of incarnation).
struct TailBatch {
  std::string body;
  /// Absolute byte offset of body[0] in the file.
  std::size_t base_offset = 0;
  /// Complete body lines consumed before this batch (header excluded) —
  /// add to a RowIssue::line to make it absolute in the file.
  std::size_t body_lines_before = 0;
  /// Leading '#'-comment lines of this incarnation (the RowIssue line
  /// base the tolerant parsers expect).
  std::size_t header_lines = 0;
  /// True for the first batch after open / truncate / rotation: the
  /// consumer recompiles its column plan from header_text().
  bool incarnation_start = false;
};

/// Checkpointable tail position (the WatchMeta per-file entry).
struct TailPosition {
  std::uint64_t inode = 0;
  std::uint64_t offset = 0;      ///< absolute bytes consumed
  std::uint64_t body_lines = 0;  ///< complete body lines consumed
  std::string header_text;       ///< accumulated '#' header lines
  std::uint64_t header_lines = 0;
  bool header_done = false;
  std::string carry;  ///< unterminated trailing partial line

  /// Checkpoint encoding (core/field_list.hpp); positions never merge.
  template <class V>
  static void fields(V& v) {
    v("inode", &TailPosition::inode, core::rule::keep);
    v("offset", &TailPosition::offset, core::rule::keep);
    v("body_lines", &TailPosition::body_lines, core::rule::keep);
    v("header_text", &TailPosition::header_text, core::rule::keep);
    v("header_lines", &TailPosition::header_lines, core::rule::keep);
    v("header_done", &TailPosition::header_done, core::rule::keep);
    v("carry", &TailPosition::carry, core::rule::keep);
  }
};

class TailSource : private detail::Framing {
 public:
  explicit TailSource(std::string path);

  TailSource(const TailSource&) = delete;
  TailSource& operator=(const TailSource&) = delete;

  /// Polls once: detects truncation/rotation, reads any new bytes, and
  /// returns the complete-line batches (often one, sometimes two around
  /// a rotation, empty when nothing happened).
  std::vector<TailBatch> poll();

  /// Flushes the carried partial line as a final record (drain /
  /// shutdown path; a Zeek writer that died mid-line still counts).
  std::optional<TailBatch> flush_carry();

  /// True when the last poll consumed bytes (drives idle detection).
  bool made_progress() const { return progress_; }

  const std::string& path() const { return follower_.path(); }
  const std::string& header_text() const { return pos_.header_text; }
  bool header_done() const { return pos_.header_done; }
  /// Monotonic id of the current file incarnation; bumps on open,
  /// truncation, and rotation, telling consumers to recompile plans.
  std::uint64_t incarnation() const { return incarnation_; }
  const TailEvents& events() const { return follower_.events(); }
  TailPosition position() const { return pos_; }

  /// Restores a checkpointed position. If the path now holds a
  /// different inode (rotated while we were down) or shrank below the
  /// stored offset (truncated while down), the tail restarts from 0 on
  /// the current file — the standard resume-after-rotation posture.
  /// Returns false only when the stored position could not apply (the
  /// restart case); reading continues either way.
  bool restore(const TailPosition& position);

 private:
  std::uint64_t fetched_end() const override { return pos_.offset; }
  void restart(std::uint64_t inode) override;
  void consume(std::string_view bytes) override;
  void end_incarnation() override;
  TailBatch make_batch();

  detail::FileFollower follower_;
  TailPosition pos_;
  std::uint64_t incarnation_ = 0;
  bool pending_incarnation_start_ = false;
  bool progress_ = false;
  std::vector<TailBatch> batches_;  ///< the current poll's output
};

}  // namespace mtlscope::watch
