// FileFollower: the file lifecycle both watch tails share (DESIGN §13).
// A tail is one follower plus a framing: the follower owns the file —
// open and fstat, the capped pread at the fetched end, copytruncate and
// rename-rotation detection, checkpoint restore — and the framing owns
// everything between fetched bytes and records (TailSource frames
// lines, ContainerTail frames container frames).
//
//   * append          — bytes past the framing's fetched end are read,
//                       at most 8 MiB per poll (a backlog drains over
//                       several polls so signals and checkpoints stay
//                       responsive), and handed to the framing;
//   * copytruncate    — the file shrank below the fetched end (same
//                       inode): the framing restarts at byte 0;
//   * rename rotation — the path names a different inode: the old fd
//                       keeps draining while it grows (a late writer may
//                       still be flushing to it); once a poll reads
//                       nothing from it, the framing ends the old
//                       incarnation and the new inode is opened and read
//                       in the same poll.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mtlscope::watch {

/// Lifecycle counters for the status line (not ledger events).
struct TailEvents {
  std::uint64_t polls = 0;
  std::uint64_t truncations = 0;  ///< copytruncate restarts observed
  std::uint64_t rotations = 0;    ///< rename rotations completed
  std::uint64_t bytes_read = 0;
};

namespace detail {

/// The framing half of a tail: what a FileFollower feeds.
class Framing {
 public:
  /// Absolute end of the bytes fetched in this incarnation: the next
  /// read starts here, and a file shorter than this was truncated.
  virtual std::uint64_t fetched_end() const = 0;
  /// Starts a fresh incarnation of `inode` at byte 0 (open, truncation,
  /// rotation, refused restore), dropping all state of the old one.
  virtual void restart(std::uint64_t inode) = 0;
  /// Takes the bytes read at fetched_end().
  virtual void consume(std::string_view bytes) = 0;
  /// Rename rotation: the old incarnation is complete and its fd is
  /// about to close; whatever the framing still carries ends here.
  virtual void end_incarnation() = 0;

 protected:
  ~Framing() = default;
};

class FileFollower {
 public:
  explicit FileFollower(std::string path);
  ~FileFollower();

  FileFollower(const FileFollower&) = delete;
  FileFollower& operator=(const FileFollower&) = delete;

  /// Polls once, feeding `framing` (see the lifecycle above). Returns
  /// true when bytes were read or a backlog remains past the read cap.
  bool poll(Framing& framing);

  /// Reopens the path for a checkpointed position of `inode` fetched up
  /// to `end`. Returns true when the position applies — same inode, file
  /// at least `end` bytes long — and the caller then installs it.
  /// Otherwise (rotated or truncated while down, or nothing at the path
  /// yet) the framing restarts on the current file and this returns
  /// false; reading continues either way.
  bool restore(Framing& framing, std::uint64_t inode, std::uint64_t end);

  const std::string& path() const { return path_; }
  const TailEvents& events() const { return events_; }

 private:
  bool open_file(Framing& framing);
  void close_file();

  std::string path_;
  int fd_ = -1;
  std::uint64_t inode_ = 0;
  TailEvents events_;
};

}  // namespace detail
}  // namespace mtlscope::watch
