#include "mtlscope/ingest/chunker.hpp"

#include <algorithm>
#include <cstring>

namespace mtlscope::ingest {
namespace {

/// Window size for boundary probes; large enough that one probe almost
/// always finds the newline, small enough to stay cache-friendly.
constexpr std::size_t kProbeWindow = std::size_t{4} << 10;

/// Returns the offset one past the first '\n' at or after `from`, or
/// `end` if none remains.
std::size_t after_next_newline(const Source& source, std::size_t from,
                               std::size_t end, std::string& probe) {
  std::size_t pos = from;
  while (pos < end) {
    const std::size_t want = std::min(kProbeWindow, end - pos);
    const std::string_view window = source.fetch(pos, want, probe);
    if (window.empty()) return end;  // short read: treat as end of data
    const std::size_t nl = window.find('\n');
    if (nl != std::string_view::npos) {
      const std::size_t found = pos + nl + 1;
      return std::min(found, end);
    }
    pos += window.size();
  }
  return end;
}

}  // namespace

LogLayout detect_log_layout(const Source& source) {
  LogLayout layout;
  std::string probe;
  std::size_t pos = 0;
  const std::size_t size = source.size();
  while (pos < size) {
    const std::string_view first = source.fetch(pos, 1, probe);
    if (first.empty() || first[0] != '#') break;
    const std::size_t eol = after_next_newline(source, pos, size, probe);
    // Copy the header line (headers are a few hundred bytes; copying once
    // per file keeps every later chunk zero-copy).
    std::size_t line_pos = pos;
    while (line_pos < eol) {
      const std::string_view piece =
          source.fetch(line_pos, eol - line_pos, probe);
      if (piece.empty()) break;
      layout.header.append(piece);
      line_pos += piece.size();
    }
    if (layout.header.empty() || layout.header.back() != '\n') {
      layout.header.push_back('\n');  // unterminated trailing header line
    }
    pos = eol;
  }
  layout.body_begin = pos;
  return layout;
}

RecordChunker::RecordChunker(const Source& source, std::size_t chunk_bytes,
                             std::size_t begin, std::size_t end)
    : source_(source),
      chunk_bytes_(std::max<std::size_t>(chunk_bytes, 1)),
      pos_(begin),
      end_(std::min(end, source.size())) {}

bool RecordChunker::next_range(std::size_t& begin, std::size_t& end) {
  if (pos_ >= end_) {
    if (emitted_any_) return false;
    // Empty range: emit one empty chunk so the header still gets parsed
    // (and validated) downstream exactly once.
    emitted_any_ = true;
    begin = end = pos_;
    return true;
  }
  const std::size_t target = std::min(pos_ + chunk_bytes_, end_);
  begin = pos_;
  end = pos_ =
      target >= end_ ? end_ : after_next_newline(source_, target, end_, probe_);
  emitted_any_ = true;
  return true;
}

bool RecordChunker::next(Chunk& chunk) {
  std::size_t begin = 0;
  std::size_t end = 0;
  if (!next_range(begin, end)) return false;
  chunk.seq = seq_++;
  chunk.offset = begin;
  chunk.data = begin == end ? std::string_view{}
                            : source_.fetch(begin, end - begin, chunk.scratch);
  return true;
}

std::size_t align_to_record(const Source& source, std::size_t from,
                            std::size_t end) {
  if (from == 0 || from >= end) return std::min(from, end);
  std::string probe;
  const std::string_view prev = source.fetch(from - 1, 1, probe);
  if (!prev.empty() && prev[0] == '\n') return from;
  return after_next_newline(source, from, end, probe);
}

std::vector<std::pair<std::size_t, std::size_t>> shard_record_ranges(
    const Source& source, std::size_t begin, std::size_t end, std::size_t k) {
  if (k == 0) k = 1;
  end = std::min(end, source.size());
  begin = std::min(begin, end);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(k);
  const std::size_t span = end - begin;
  std::size_t prev = begin;
  for (std::size_t s = 0; s < k; ++s) {
    std::size_t cut =
        s + 1 == k ? end
                   : align_to_record(source, begin + span * (s + 1) / k, end);
    cut = std::max(cut, prev);  // ranges stay monotone (tiny bodies)
    ranges.emplace_back(prev, cut);
    prev = cut;
  }
  return ranges;
}

}  // namespace mtlscope::ingest
