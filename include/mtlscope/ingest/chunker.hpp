// Record-aligned chunking of Zeek ASCII logs over a byte Source.
//
// A Zeek log is a leading block of '#'-metadata lines (the header)
// followed by TSV data rows, one per line. The chunker walks a byte
// range of the body and yields chunks that always start and end on
// record (line) boundaries, so each chunk — prefixed with the replicated
// header — parses as a standalone log. This absorbs the semantics of
// zeek::split_log_text() without materializing per-chunk strings: for
// mmap/memory sources the chunk data is a zero-copy view; the buffered
// fallback reads into a reused per-chunker scratch buffer.
//
// Robustness guarantees (mirrored by ingest_test):
//   * CRLF line endings chunk identically to LF (boundaries sit on '\n').
//   * A final record with no trailing newline is emitted, never dropped.
//   * '#close' footers (or any '#' line) mid-file land inside chunk
//     bodies, where the parser skips them.
//   * Header-only and empty inputs yield one empty-body chunk, so header
//     validation always runs downstream.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/ingest/source.hpp"

namespace mtlscope::ingest {

/// Tuning knobs for the streaming pipeline. Results are byte-identical
/// for every setting; these trade memory for parallelism only. The one
/// exception is `errors`, which selects abort-vs-skip semantics — but
/// within a mode the output is still byte-identical for every tuning.
struct IngestOptions {
  /// Bytes per record-aligned part; a pass keeps O(chunk_bytes × workers)
  /// of input resident.
  std::size_t chunk_bytes = std::size_t{1} << 20;  // 1 MiB
  /// Skip mmap and exercise the pread fallback.
  bool force_buffered = false;
  /// Abort-vs-skip semantics for malformed records (DESIGN §11).
  ErrorPolicy errors;
};

/// The split of a log into its replicated header and the data-row body.
struct LogLayout {
  std::string header;          // leading '#' lines, newline-terminated
  std::size_t body_begin = 0;  // byte offset of the first data row
};

/// Scans the leading '#'-metadata block. Never fails: a file without a
/// header yields an empty header and body_begin 0 (the parser then
/// reports the missing #fields downstream, as the serial path does).
LogLayout detect_log_layout(const Source& source);

/// One record-aligned piece of the body. `view()` stays valid until the
/// next RecordChunker::next() call with the same Chunk (buffered mode
/// reuses the scratch), or until Source::release() covers the range.
struct Chunk {
  std::size_t seq = 0;     // 0-based position in the stream
  std::size_t offset = 0;  // absolute byte offset of the first record
  std::string_view data;   // record-aligned bytes (may point into scratch)
  std::string scratch;     // owning storage for buffered sources

  std::string_view view() const { return data; }
};

/// Walks [begin, end) of a source in ~chunk_bytes steps, always cutting
/// after a newline. A record longer than chunk_bytes extends its chunk.
class RecordChunker {
 public:
  RecordChunker(const Source& source, std::size_t chunk_bytes,
                std::size_t begin, std::size_t end);

  /// Fills `chunk` with the next piece; returns false at end of range.
  /// An empty range yields exactly one empty chunk (header-only logs
  /// must still be validated by the parser).
  bool next(Chunk& chunk);
  /// Advances exactly as next() does but only reports the piece's
  /// [begin, end), without fetching its bytes.
  bool next_range(std::size_t& begin, std::size_t& end);

  const Source& source() const { return source_; }

 private:
  const Source& source_;
  std::size_t chunk_bytes_;
  std::size_t pos_;
  std::size_t end_;
  std::size_t seq_ = 0;
  bool emitted_any_ = false;
  std::string probe_;  // scratch for boundary scans on buffered sources
};

/// Cuts [begin, end) into `k` contiguous, record-aligned, byte-balanced
/// ranges (some possibly empty). Concatenating the ranges in order
/// reproduces [begin, end) exactly — the contiguity the executor's
/// deterministic shard-order merge relies on.
std::vector<std::pair<std::size_t, std::size_t>> shard_record_ranges(
    const Source& source, std::size_t begin, std::size_t end, std::size_t k);

/// Finds the first position at or after `from` that starts a record:
/// `from` itself if it sits just after a '\n' (or at `begin`), else one
/// past the next '\n'. Returns `end` when no newline remains.
std::size_t align_to_record(const Source& source, std::size_t from,
                            std::size_t end);

}  // namespace mtlscope::ingest
