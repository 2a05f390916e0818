// Compact columnar log container (DESIGN §14). One `.mtlc` file holds
// both halves of a Zeek capture — every ssl.log row and every x509.log
// row, in exact stream order — re-encoded as length-prefixed per-block
// columns with block-local dictionaries for the repetitive string
// columns (addresses, versions, SNIs, chain fuids, issuers, subjects,
// key algorithms, SANs) and raw un-hex-escaped DER blobs.
//
// Layout (§12-style framing; all integers little-endian):
//
//   header  : magic "MTLSCOMP" | u32 version | u32 endian sentinel |
//             u32 flags | u32 reserved                      (24 bytes)
//   frames  : { u32 kind, u32 reserved, u64 payload_len, payload }
//             kind 1 meta      — original TSV paths, row/byte totals
//             kind 2 ssl block — columnar ssl rows (see container.cpp)
//             kind 3 x509 block — columnar x509 rows
//             kind 4 ledger    — serialized core::ErrorLedger of the
//                                tolerant conversion parse
//             kind 5 footer    — frame index (kind, offset, length,
//                                rows per frame) + 32-byte SHA-256 over
//                                every byte before the footer frame
//             kind 6 ssl delta block — kind 2 with the ts column
//                                delta-encoded as zigzag varints and
//                                byte-length prefixes on the variable-
//                                width columns (minor version 1; see
//                                container.cpp for the exact layout)
//
// Minor versioning: the header `flags` word carries the writer's minor
// format level. Frame kinds are additive — a version-0 reader never sees
// kind 6 because version-0 files contain none, and this reader accepts
// both kinds, so version-0 files keep decoding unchanged.
//
// The footer's per-block row counts and byte offsets give a reader
// exact chunk parallelism: each block decodes independently (its
// dictionary is block-local), so K workers decode K blocks with no
// shared state beyond the interning arenas. A block is flushed when it
// reaches `block_rows` rows or when its dictionary would exceed
// `dict_bytes` — dictionary overflow spills into a secondary block
// rather than growing without bound.
//
// A container written by a streaming producer (mtlscope watch ingest)
// is a valid prefix at every frame boundary: ContainerTail-style
// readers may consume complete frames before the footer exists. The
// footer + digest only certify a *finished* file.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/core/error_ledger.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope::colfmt {

class SslBlockScan;

inline constexpr char kContainerMagic[8] = {'M', 'T', 'L', 'S',
                                            'C', 'O', 'M', 'P'};
inline constexpr std::uint32_t kContainerVersion = 1;
/// Written into the header `flags` word. Bumped to 1 with the delta ssl
/// block (kind 6); readers ignore it and dispatch on frame kinds.
inline constexpr std::uint32_t kContainerMinorVersion = 1;
/// Stored little-endian; a big-endian writer would emit 0x04030201.
inline constexpr std::uint32_t kContainerEndian = 0x01020304;
inline constexpr std::size_t kContainerHeaderBytes = 24;
inline constexpr std::size_t kFrameHeaderBytes = 16;

enum class FrameKind : std::uint32_t {
  kMeta = 1,
  kSslBlock = 2,
  kX509Block = 3,
  kLedger = 4,
  kFooter = 5,
  /// Minor-version-1 ssl block: delta/varint ts + length-prefixed
  /// variable-width columns (skippable without walking them).
  kSslBlockDelta = 6,
};

/// Provenance of the container: the TSV pair it was converted from.
/// run/map/watch report these paths, so a compact run's RunInfo is
/// byte-identical to the TSV run it mirrors.
struct ContainerMeta {
  std::string ssl_path;
  std::string x509_path;
  std::uint64_t ssl_rows = 0;
  std::uint64_t x509_rows = 0;
  /// Original TSV byte sizes (the parse_bytes figure of the TSV run).
  std::uint64_t ssl_bytes = 0;
  std::uint64_t x509_bytes = 0;
};

/// One frame as scanned from the file (and as indexed by the footer).
struct FrameRef {
  FrameKind kind = FrameKind::kMeta;
  std::uint64_t offset = 0;       ///< file offset of the frame header
  std::uint64_t payload_len = 0;  ///< payload bytes (header excluded)
  std::uint64_t rows = 0;         ///< record rows (block frames only)
};

struct WriterOptions {
  /// Rows per block before a flush. Small enough that a block decodes
  /// in one cache-friendly pass, big enough to amortize the dictionary.
  std::uint32_t block_rows = 65536;
  /// Block-local dictionary byte cap; adding a row whose strings would
  /// push past it flushes the block first (overflow spill).
  std::size_t dict_bytes = std::size_t{8} << 20;
};

/// Streams records into a container file. Usage:
///   ContainerWriter w(path, options);
///   for (...) w.add_x509(rec);   // stream order, duplicates preserved
///   for (...) w.add_ssl(rec);
///   w.set_meta(meta); w.set_ledger(ledger);
///   if (!w.finish(&error)) ...
/// Frames are written incrementally (bounded memory); finish() appends
/// meta, ledger, and the footer with the file digest.
class ContainerWriter {
 public:
  ContainerWriter(const std::string& path, WriterOptions options = {});
  ~ContainerWriter();
  ContainerWriter(const ContainerWriter&) = delete;
  ContainerWriter& operator=(const ContainerWriter&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void add_ssl(const zeek::SslRecord& record);
  void add_x509(const zeek::X509Record& record);
  void set_meta(ContainerMeta meta) { meta_ = std::move(meta); }
  void set_ledger(const core::ErrorLedger& ledger);

  std::uint64_t ssl_rows() const { return ssl_rows_; }
  std::uint64_t x509_rows() const { return x509_rows_; }
  std::uint64_t blocks_written() const { return blocks_written_; }

  /// Flushes open blocks, writes meta/ledger/footer, closes the file.
  /// Returns false (with `error` filled when non-null) on any failure.
  bool finish(std::string* error = nullptr);

 private:
  struct Block;  // pending rows + block-local dictionary
  void flush_block(Block& block, FrameKind kind);
  void write_frame(FrameKind kind, std::string_view payload,
                   std::uint64_t rows);

  WriterOptions options_;
  std::string path_;
  std::unique_ptr<Block> ssl_block_;
  std::unique_ptr<Block> x509_block_;
  ContainerMeta meta_;
  std::string ledger_payload_;
  std::vector<FrameRef> frames_;
  std::uint64_t ssl_rows_ = 0;
  std::uint64_t x509_rows_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t offset_ = 0;
  int fd_ = -1;
  bool ok_ = false;
  bool finished_ = false;
  std::string error_;
  std::unique_ptr<crypto::Sha256> digest_;
};

/// Random-access reader over a finished container. open() maps the file
/// (mmap when available, buffered fallback otherwise), validates the
/// header, scans the frames, verifies the footer digest, and
/// cross-checks the footer index against the scan. Blocks then decode
/// independently — decode_ssl_block / decode_x509_block are const and
/// thread-safe, which is what the executor's parallel block decode
/// relies on.
class ContainerReader {
 public:
  static std::optional<ContainerReader> open(const std::string& path,
                                             std::string* error = nullptr);

  const std::string& path() const { return path_; }
  const ContainerMeta& meta() const { return meta_; }
  const std::vector<FrameRef>& ssl_blocks() const { return ssl_blocks_; }
  const std::vector<FrameRef>& x509_blocks() const { return x509_blocks_; }

  bool has_ledger() const { return ledger_frame_.has_value(); }
  /// Deserializes the conversion-time ledger (already finalized by the
  /// converter). An empty ledger when the container has no ledger frame.
  core::ErrorLedger ledger() const;

  /// Decodes one block into records (views intern into the global
  /// arenas). Throws core::StateError on a malformed payload — which,
  /// after the digest verified, indicates a writer/reader version skew,
  /// never silent corruption.
  std::vector<zeek::SslRecord> decode_ssl_block(const FrameRef& block) const;
  std::vector<zeek::X509Record> decode_x509_block(const FrameRef& block) const;

  /// Opens a zero-materialization scan over one ssl block (scan.hpp):
  /// per-column cursors straight over the mapped payload, no record
  /// vector. Same validation and thread-safety as decode_ssl_block.
  SslBlockScan scan_ssl_block(const FrameRef& block,
                              const zeek::SslColumns& columns) const;

 private:
  ContainerReader() = default;
  std::string_view payload(const FrameRef& frame) const;

  std::string path_;
  std::unique_ptr<ingest::Source> source_;
  /// Owning backing for buffered sources; mmap views bypass it. Heap
  /// storage keeps `data_` valid across moves.
  std::unique_ptr<std::string> scratch_ = std::make_unique<std::string>();
  std::string_view data_;
  ContainerMeta meta_;
  std::vector<FrameRef> ssl_blocks_;
  std::vector<FrameRef> x509_blocks_;
  std::optional<FrameRef> ledger_frame_;
};

/// Payload-level frame decoders, shared by ContainerReader and the
/// streaming ContainerTail (which consumes frames before any footer
/// exists). `payload` is the frame body sans the 16-byte frame header.
/// Throw core::StateError on malformed bytes.
std::vector<zeek::SslRecord> decode_ssl_block_payload(
    std::string_view payload, FrameKind kind = FrameKind::kSslBlock);
std::vector<zeek::X509Record> decode_x509_block_payload(
    std::string_view payload);
ContainerMeta decode_meta_payload(std::string_view payload);

/// True when `path` exists and starts with the container magic — the
/// `--format=auto` detection probe.
bool is_container_file(const std::string& path);

/// Reads just the meta frame — a frame-header walk with no digest
/// verification or block decoding — for callers that only need the
/// provenance labels (report config blocks). nullopt when `path` is not
/// a container or carries no meta frame.
std::optional<ContainerMeta> read_container_meta(const std::string& path);

/// Validates the 24-byte container header at the start of `data`
/// (magic, version, endian sentinel). Returns false with `error` filled
/// (when non-null) on a mismatch or when `data` is shorter than a header.
bool check_container_header(std::string_view data, std::string* error);

/// The complete frames found by walk_frames.
struct FrameWalk {
  std::vector<FrameRef> frames;
  /// First byte not walked: the next frame boundary, or the malformed
  /// frame header that stopped the walk.
  std::uint64_t next = 0;
  /// Set when a malformed frame header stopped the walk.
  std::string error;
};

/// Walks the frames of `data` from `from`, a frame boundary (a streaming
/// reader resumes mid-file). Returns the frames whose header AND payload
/// fit in `data`; stops at an incomplete trailing frame or a malformed
/// frame header — an unknown kind, or a length above `max_payload`,
/// checked before the payload arrives so a streaming reader never
/// buffers toward a lying length. No digest check.
FrameWalk walk_frames(std::string_view data, std::uint64_t from,
                      std::uint64_t max_payload = UINT64_MAX);

/// check_container_header (when from == 0) then walk_frames over `data`,
/// a full container or a growing prefix, with `next` set to the first
/// byte not consumed. Returns nullopt with `error` filled on a malformed
/// header or frame.
std::optional<std::vector<FrameRef>> scan_frames(std::string_view data,
                                                 std::uint64_t from,
                                                 std::uint64_t* next,
                                                 std::string* error);

}  // namespace mtlscope::colfmt
