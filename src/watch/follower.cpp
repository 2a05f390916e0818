#include "mtlscope/watch/follower.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "mtlscope/ingest/retry.hpp"

namespace mtlscope::watch::detail {
namespace {

/// One poll reads at most this much; a huge backlog (first open of a
/// months-old log, resume after downtime) drains over several polls so
/// signal handling and checkpoints stay responsive.
constexpr std::uint64_t kMaxReadPerPoll = std::uint64_t{8} << 20;

}  // namespace

FileFollower::FileFollower(std::string path) : path_(std::move(path)) {}

FileFollower::~FileFollower() { close_file(); }

void FileFollower::close_file() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool FileFollower::open_file(Framing& framing) {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  inode_ = static_cast<std::uint64_t>(st.st_ino);
  framing.restart(inode_);
  return true;
}

bool FileFollower::poll(Framing& framing) {
  ++events_.polls;
  bool progress = false;
  bool backlog = false;
  // One pass per incarnation: a rename rotation ends the old one and
  // loops to consume the new inode in the same poll, so a rotation never
  // costs an extra poll interval of latency.
  while (fd_ >= 0 || open_file(framing)) {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      // The fd went bad (rare: forced unmount). Drop it; the next poll
      // reopens the path as a fresh incarnation.
      close_file();
      break;
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size < framing.fetched_end()) {
      ++events_.truncations;
      framing.restart(inode_);
    }

    bool read = false;
    const std::uint64_t end = framing.fetched_end();
    if (size > end) {
      const std::uint64_t want =
          size - end < kMaxReadPerPoll ? size - end : kMaxReadPerPoll;
      backlog = backlog || size - end > want;
      std::string buf(static_cast<std::size_t>(want), '\0');
      const int fd = fd_;
      const auto outcome = ingest::read_fully(
          [fd](char* dst, std::size_t len, std::size_t offset) {
            return ::pread(fd, dst, len, static_cast<off_t>(offset));
          },
          buf.data(), buf.size(), static_cast<std::size_t>(end));
      if (outcome.bytes > 0) {
        events_.bytes_read += outcome.bytes;
        read = true;
        framing.consume(std::string_view(buf.data(), outcome.bytes));
      }
    }
    progress = progress || read;

    // Rename rotation: switch only once the old fd gave nothing this
    // pass. A missing path is not a rotation yet — the writer has not
    // created the new file.
    struct stat by_name{};
    if (read || ::stat(path_.c_str(), &by_name) != 0 ||
        static_cast<std::uint64_t>(by_name.st_ino) == inode_) {
      break;
    }
    framing.end_incarnation();
    close_file();
    ++events_.rotations;
  }
  return progress || backlog;
}

bool FileFollower::restore(Framing& framing, std::uint64_t inode,
                           std::uint64_t end) {
  close_file();
  if (!open_file(framing)) {
    // Nothing at the path yet; poll() opens whatever appears later as a
    // fresh incarnation.
    framing.restart(0);
    return false;
  }
  struct stat st{};
  return inode_ == inode && ::fstat(fd_, &st) == 0 &&
         static_cast<std::uint64_t>(st.st_size) >= end;
}

}  // namespace mtlscope::watch::detail
