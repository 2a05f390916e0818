// Zero-materialization columnar block scan (DESIGN §15). Where
// ContainerReader::decode_ssl_block materializes a std::vector of
// records per block, SslBlockScan walks the block's packed columns in
// place and hands the consumer one reused record at a time:
//
//   - the block dictionary is decoded once up front, so a consumer can
//     classify each distinct string once and fold the rows as plain
//     dictionary-id lookups;
//   - no per-block record vector is allocated or written — the consumer
//     fills a single stack SslRecord per row (StrVec reuse keeps even
//     chain columns allocation-free after warm-up);
//   - the consumer's column manifest prunes columns it never reads:
//     unneeded fixed-width columns are carved past for free, and the
//     kind-6 byte-length prefixes let the variable-width uid column be
//     skipped without walking its row lengths.
//
// The constructor performs the same full-payload validation as the
// materializing decoder (every column carved and bounds-checked, the
// payload consumed exactly), so a scan accepts precisely the payloads
// decode_ssl_block_payload accepts.
#pragma once

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/wire.hpp"

namespace mtlscope::colfmt {

/// The scan's column manifest is the zeek layer's (zeek::SslColumns),
/// shared with the TSV batch parsers. Fields not requested are left
/// untouched in the output record — a consumer reusing one record must
/// clear pruned fields once before the scan.
using SslScanColumns = zeek::SslColumns;

/// Sequential scan over one ssl block payload (kind 2 or kind 6).
/// Throws core::StateError from the constructor on malformed bytes.
/// Not thread-safe; scan different blocks from different threads.
class SslBlockScan {
 public:
  SslBlockScan(std::string_view payload, FrameKind kind,
               const zeek::SslColumns& columns = zeek::SslColumns::all());

  std::uint32_t rows() const { return rows_; }
  bool done() const { return index_ == rows_; }

  /// The block-local dictionary: every distinct string (addresses,
  /// versions, SNIs, chain fuids) this block's rows reference.
  const std::vector<Str>& dict() const { return dict_; }

  /// Fills the requested columns of `rec` for the next row and returns
  /// its row index. Must not be called past rows() (checked).
  std::uint32_t next(zeek::SslRecord& rec);

 private:
  zeek::SslColumns columns_;
  bool delta_ts_ = false;
  std::uint32_t rows_ = 0;
  std::uint32_t index_ = 0;
  std::int64_t prev_ts_ = 0;
  std::uint8_t established_bits_ = 0;
  std::vector<Str> dict_;
  wire::Cursor ts_;
  wire::Cursor uid_;
  wire::Cursor orig_h_;
  wire::Cursor orig_p_;
  wire::Cursor resp_h_;
  wire::Cursor resp_p_;
  wire::Cursor version_;
  wire::Cursor server_name_;
  wire::Cursor established_;
  wire::Cursor chain1_n_;
  wire::Cursor chain1_ids_;
  wire::Cursor chain2_n_;
  wire::Cursor chain2_ids_;
};

}  // namespace mtlscope::colfmt
