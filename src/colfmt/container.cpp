// Compact container writer/reader (DESIGN §14). Block payload layouts
// — the part of the format the footer digest certifies — live entirely
// in this translation unit:
//
// ssl block, kind 2 (StateWriter primitives, columnar):
//   u32 rows | u32 dict_count | dict_count × str |
//   rows × i64 ts | rows × str uid |
//   rows × u32 orig_h id | rows × u32 orig_p |
//   rows × u32 resp_h id | rows × u32 resp_p |
//   rows × u32 version id | rows × u32 server_name id |
//   ceil(rows/8) × u8 established bitset |
//   rows × u32 chain count, Σcount × u32 chain fuid ids |
//   rows × u32 client chain count, Σcount × u32 ids
//
// ssl delta block, kind 6 (minor version 1; what this writer emits):
//   u32 rows | u32 dict_count | dict_count × str |
//   u64 ts_bytes | zigzag-varint ts deltas (prev starts at 0) |
//   u64 uid_bytes | rows × str uid |
//   ... remainder identical to kind 2 from orig_h on
// Timestamps are near-monotonic in capture order, so the deltas are
// small and the varints shrink the ts column ~4×. The u64 byte-length
// prefixes on the two variable-width spans let a column-pruning scan
// skip them in O(1) instead of walking every length prefix.
//
// x509 block:
//   u32 rows | u32 dict_count | dict_count × str |
//   rows × str fuid | rows × i64 version |
//   rows × u32 serial id | rows × u32 subject id | rows × u32 issuer id |
//   rows × i64 not_before | rows × i64 not_after |
//   rows × u32 key_alg id | rows × i64 key_length |
//   4 × (rows × u32 san count, Σcount × u32 san ids)   [dns,email,uri,ip]
//   rows × str cert_der (raw DER bytes)
//
// Dictionary ids are block-local, dense, in first-use order. Every
// string decodes by view into the interning arenas, so a decoded block
// shares storage with every other block that mentions the same value.
#include "mtlscope/colfmt/container.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <unordered_map>
#include <utility>

#include "mtlscope/colfmt/wire.hpp"
#include "mtlscope/ingest/durable_io.hpp"

namespace mtlscope::colfmt {

namespace {

using core::StateReader;
using core::StateWriter;
using wire::get_u32;
using wire::get_u64;
using wire::put_u32;
using wire::put_u64;

bool valid_kind(std::uint32_t kind) {
  return kind >= 1 &&
         kind <= static_cast<std::uint32_t>(FrameKind::kSslBlockDelta);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

/// Pending rows plus the block-local dictionary. The dictionary is
/// built at add time (the overflow check needs running byte totals);
/// encode() resolves ids by lookup, so flush order never matters.
struct ContainerWriter::Block {
  std::vector<zeek::SslRecord> ssl;
  std::vector<zeek::X509Record> x509;
  std::unordered_map<Str, std::uint32_t, StrHash, StrEq> ids;
  std::vector<Str> entries;  // id → string, first-use order
  std::size_t dict_bytes = 0;

  std::size_t rows() const { return ssl.size() + x509.size(); }

  std::uint32_t id(const Str& s) {
    const auto [it, inserted] =
        ids.emplace(s, static_cast<std::uint32_t>(entries.size()));
    if (inserted) {
      entries.push_back(s);
      dict_bytes += 8 + s.size();
    }
    return it->second;
  }

  /// Bytes the dictionary would grow by if this string were added.
  std::size_t unseen_bytes(const Str& s) const {
    return ids.contains(s) ? 0 : 8 + s.size();
  }

  void clear() {
    ssl.clear();
    x509.clear();
    ids.clear();
    entries.clear();
    dict_bytes = 0;
  }
};

ContainerWriter::ContainerWriter(const std::string& path,
                                 WriterOptions options)
    : options_(options),
      path_(path),
      ssl_block_(std::make_unique<Block>()),
      x509_block_(std::make_unique<Block>()),
      digest_(std::make_unique<crypto::Sha256>()) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    error_ = "cannot open " + path + " for writing";
    return;
  }
  std::string header;
  header.append(kContainerMagic, sizeof(kContainerMagic));
  put_u32(header, kContainerVersion);
  put_u32(header, kContainerEndian);
  put_u32(header, kContainerMinorVersion);  // flags = minor format level
  put_u32(header, 0);                       // reserved
  digest_->update(header);
  ok_ = true;
  // write_fully owns the EINTR / short-write / backoff discipline (and
  // routes through the FaultVfs hook, so the chaos harness covers this
  // writer); a failure here is a classified hard error, never a silent
  // offset corruption.
  const auto put = ingest::write_fully_fd(fd_, header, path_);
  if (!put.ok) {
    ok_ = false;
    error_ = put.message;
    return;
  }
  offset_ = header.size();
}

ContainerWriter::~ContainerWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void ContainerWriter::write_frame(FrameKind kind, std::string_view payload,
                                  std::uint64_t rows) {
  if (!ok_) return;
  std::string header;
  put_u32(header, static_cast<std::uint32_t>(kind));
  put_u32(header, 0);
  put_u64(header, payload.size());
  frames_.push_back(FrameRef{kind, offset_, payload.size(), rows});
  if (kind != FrameKind::kFooter) {
    digest_->update(header);
    digest_->update(payload);
  }
  for (std::string_view part : {std::string_view(header), payload}) {
    const auto put = ingest::write_fully_fd(fd_, part, path_);
    if (!put.ok) {
      ok_ = false;
      error_ = put.message;
      return;
    }
  }
  offset_ += header.size() + payload.size();
}

namespace {

void write_dict(StateWriter& w, const std::vector<Str>& entries) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Str& s : entries) w.str(s);
}

void write_chain_column(
    StateWriter& w, const std::vector<zeek::SslRecord>& rows,
    StrVec zeek::SslRecord::*member,
    std::unordered_map<Str, std::uint32_t, StrHash, StrEq>& ids) {
  for (const auto& r : rows) {
    w.u32(static_cast<std::uint32_t>((r.*member).size()));
  }
  for (const auto& r : rows) {
    for (const Str& fuid : r.*member) w.u32(ids.at(fuid));
  }
}

void write_san_column(
    StateWriter& w, const std::vector<zeek::X509Record>& rows,
    StrVec zeek::X509Record::*member,
    std::unordered_map<Str, std::uint32_t, StrHash, StrEq>& ids) {
  for (const auto& r : rows) {
    w.u32(static_cast<std::uint32_t>((r.*member).size()));
  }
  for (const auto& r : rows) {
    for (const Str& v : r.*member) w.u32(ids.at(v));
  }
}

}  // namespace

void ContainerWriter::flush_block(Block& block, FrameKind kind) {
  if (block.rows() == 0) return;
  StateWriter w;
  if (kind == FrameKind::kSslBlockDelta) {
    const auto& rows = block.ssl;
    w.u32(static_cast<std::uint32_t>(rows.size()));
    write_dict(w, block.entries);
    std::string ts_col;
    std::int64_t prev = 0;
    for (const auto& r : rows) {
      wire::put_zigzag(ts_col, r.ts - prev);
      prev = r.ts;
    }
    w.u64(ts_col.size());
    w.raw(ts_col.data(), ts_col.size());
    std::uint64_t uid_bytes = 0;
    for (const auto& r : rows) uid_bytes += 8 + r.uid.size();
    w.u64(uid_bytes);
    for (const auto& r : rows) w.str(r.uid);
    for (const auto& r : rows) w.u32(block.ids.at(r.orig_h));
    for (const auto& r : rows) w.u32(r.orig_p);
    for (const auto& r : rows) w.u32(block.ids.at(r.resp_h));
    for (const auto& r : rows) w.u32(r.resp_p);
    for (const auto& r : rows) w.u32(block.ids.at(r.version));
    for (const auto& r : rows) w.u32(block.ids.at(r.server_name));
    std::uint8_t bits = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].established) bits |= static_cast<std::uint8_t>(1 << (i % 8));
      if (i % 8 == 7) {
        w.u8(bits);
        bits = 0;
      }
    }
    if (rows.size() % 8 != 0) w.u8(bits);
    write_chain_column(w, rows, &zeek::SslRecord::cert_chain_fuids,
                       block.ids);
    write_chain_column(w, rows, &zeek::SslRecord::client_cert_chain_fuids,
                       block.ids);
  } else {
    const auto& rows = block.x509;
    w.u32(static_cast<std::uint32_t>(rows.size()));
    write_dict(w, block.entries);
    for (const auto& r : rows) w.str(r.fuid);
    for (const auto& r : rows) w.i64(r.version);
    for (const auto& r : rows) w.u32(block.ids.at(r.serial));
    for (const auto& r : rows) w.u32(block.ids.at(r.subject));
    for (const auto& r : rows) w.u32(block.ids.at(r.issuer));
    for (const auto& r : rows) w.i64(r.not_valid_before);
    for (const auto& r : rows) w.i64(r.not_valid_after);
    for (const auto& r : rows) w.u32(block.ids.at(r.key_alg));
    for (const auto& r : rows) w.i64(r.key_length);
    write_san_column(w, rows, &zeek::X509Record::san_dns, block.ids);
    write_san_column(w, rows, &zeek::X509Record::san_email, block.ids);
    write_san_column(w, rows, &zeek::X509Record::san_uri, block.ids);
    write_san_column(w, rows, &zeek::X509Record::san_ip, block.ids);
    for (const auto& r : rows) w.str(r.cert_der);
  }
  const std::uint64_t rows = block.rows();
  write_frame(kind, w.buffer(), rows);
  ++blocks_written_;
  block.clear();
}

void ContainerWriter::add_ssl(const zeek::SslRecord& record) {
  if (!ok_ || finished_) return;
  Block& block = *ssl_block_;
  std::size_t incoming = block.unseen_bytes(record.orig_h) +
                         block.unseen_bytes(record.resp_h) +
                         block.unseen_bytes(record.version) +
                         block.unseen_bytes(record.server_name);
  for (const Str& f : record.cert_chain_fuids) {
    incoming += block.unseen_bytes(f);
  }
  for (const Str& f : record.client_cert_chain_fuids) {
    incoming += block.unseen_bytes(f);
  }
  if (block.rows() > 0 &&
      (block.rows() >= options_.block_rows ||
       block.dict_bytes + incoming > options_.dict_bytes)) {
    flush_block(block, FrameKind::kSslBlockDelta);
  }
  block.id(record.orig_h);
  block.id(record.resp_h);
  block.id(record.version);
  block.id(record.server_name);
  for (const Str& f : record.cert_chain_fuids) block.id(f);
  for (const Str& f : record.client_cert_chain_fuids) block.id(f);
  block.ssl.push_back(record);
  ++ssl_rows_;
}

void ContainerWriter::add_x509(const zeek::X509Record& record) {
  if (!ok_ || finished_) return;
  Block& block = *x509_block_;
  std::size_t incoming = block.unseen_bytes(record.serial) +
                         block.unseen_bytes(record.subject) +
                         block.unseen_bytes(record.issuer) +
                         block.unseen_bytes(record.key_alg);
  for (const auto* sans : {&record.san_dns, &record.san_email,
                           &record.san_uri, &record.san_ip}) {
    for (const Str& v : *sans) incoming += block.unseen_bytes(v);
  }
  if (block.rows() > 0 &&
      (block.rows() >= options_.block_rows ||
       block.dict_bytes + incoming > options_.dict_bytes)) {
    flush_block(block, FrameKind::kX509Block);
  }
  block.id(record.serial);
  block.id(record.subject);
  block.id(record.issuer);
  block.id(record.key_alg);
  for (const auto* sans : {&record.san_dns, &record.san_email,
                           &record.san_uri, &record.san_ip}) {
    for (const Str& v : *sans) block.id(v);
  }
  block.x509.push_back(record);
  ++x509_rows_;
}

void ContainerWriter::set_ledger(const core::ErrorLedger& ledger) {
  StateWriter w;
  core::write_fields(w, ledger);
  ledger_payload_ = std::move(w).take();
}

bool ContainerWriter::finish(std::string* error) {
  if (finished_) return ok_;
  finished_ = true;
  flush_block(*x509_block_, FrameKind::kX509Block);
  flush_block(*ssl_block_, FrameKind::kSslBlockDelta);

  StateWriter meta;
  meta.str(meta_.ssl_path);
  meta.str(meta_.x509_path);
  meta.u64(meta_.ssl_rows);
  meta.u64(meta_.x509_rows);
  meta.u64(meta_.ssl_bytes);
  meta.u64(meta_.x509_bytes);
  write_frame(FrameKind::kMeta, meta.buffer(), 0);
  if (!ledger_payload_.empty()) {
    write_frame(FrameKind::kLedger, ledger_payload_, 0);
  }

  // Footer: index of every prior frame + digest over every byte before
  // the footer's own frame header.
  StateWriter footer;
  footer.u64(frames_.size());
  for (const FrameRef& f : frames_) {
    footer.u32(static_cast<std::uint32_t>(f.kind));
    footer.u32(0);
    footer.u64(f.offset);
    footer.u64(f.payload_len);
    footer.u64(f.rows);
  }
  const auto digest = digest_->finish();
  footer.raw(digest.data(), digest.size());
  write_frame(FrameKind::kFooter, footer.buffer(), 0);

  if (ok_) {
    const auto synced = ingest::fsync_retry(fd_, path_);
    if (!synced.ok) {
      ok_ = false;
      error_ = synced.message;
    }
  }
  if (::close(fd_) != 0 && ok_) {
    ok_ = false;
    error_ = "close failed for " + path_;
  }
  fd_ = -1;
  if (!ok_ && error != nullptr) *error = error_;
  return ok_;
}

// ---------------------------------------------------------------------------
// Frame scan

bool check_container_header(std::string_view data, std::string* error) {
  const auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  if (data.size() < kContainerHeaderBytes) {
    return fail("truncated container header");
  }
  if (std::memcmp(data.data(), kContainerMagic, sizeof(kContainerMagic)) !=
      0) {
    return fail("bad magic (not a compact container)");
  }
  const std::uint32_t version = get_u32(data.data() + 8);
  if (version != kContainerVersion) {
    return fail("unsupported container version " + std::to_string(version));
  }
  if (get_u32(data.data() + 12) != kContainerEndian) {
    return fail("endian sentinel mismatch");
  }
  return true;
}

FrameWalk walk_frames(std::string_view data, std::uint64_t from,
                      std::uint64_t max_payload) {
  FrameWalk walk;
  std::uint64_t pos = from;
  while (pos + kFrameHeaderBytes <= data.size()) {
    const char* p = data.data() + pos;
    const std::uint32_t kind = get_u32(p);
    if (!valid_kind(kind)) {
      walk.error = "bad frame kind " + std::to_string(kind);
      break;
    }
    const std::uint64_t len = get_u64(p + 8);
    if (len > max_payload) {
      walk.error = "frame payload of " + std::to_string(len) +
                   " bytes exceeds the " + std::to_string(max_payload) +
                   "-byte limit";
      break;
    }
    if (len > data.size() || pos + kFrameHeaderBytes + len > data.size()) {
      break;  // incomplete trailing frame (growing file)
    }
    walk.frames.push_back(
        FrameRef{static_cast<FrameKind>(kind), pos, len, 0});
    pos += kFrameHeaderBytes + len;
  }
  walk.next = pos;
  return walk;
}

std::optional<std::vector<FrameRef>> scan_frames(std::string_view data,
                                                 std::uint64_t from,
                                                 std::uint64_t* next,
                                                 std::string* error) {
  if (from == 0) {
    if (data.size() < kContainerHeaderBytes) {
      if (next != nullptr) *next = 0;
      return std::vector<FrameRef>{};  // growing file, header incomplete
    }
    if (!check_container_header(data, error)) return std::nullopt;
    from = kContainerHeaderBytes;
  }
  FrameWalk walk = walk_frames(data, from);
  if (!walk.error.empty()) {
    if (error != nullptr) {
      *error = walk.error + " at offset " + std::to_string(walk.next);
    }
    return std::nullopt;
  }
  if (next != nullptr) *next = walk.next;
  return std::move(walk.frames);
}

ContainerMeta decode_meta_payload(std::string_view payload) {
  StateReader r(payload);
  ContainerMeta meta;
  meta.ssl_path = r.str();
  meta.x509_path = r.str();
  meta.ssl_rows = r.u64();
  meta.x509_rows = r.u64();
  meta.ssl_bytes = r.u64();
  meta.x509_bytes = r.u64();
  r.expect_done("container meta");
  return meta;
}

// ---------------------------------------------------------------------------
// Reader

std::optional<ContainerReader> ContainerReader::open(const std::string& path,
                                                     std::string* error) {
  const auto fail = [&](const std::string& reason)
      -> std::optional<ContainerReader> {
    if (error != nullptr) *error = path + ": " + reason;
    return std::nullopt;
  };
  ContainerReader reader;
  reader.path_ = path;
  ingest::IngestError open_error;
  reader.source_ = ingest::open_source(path, &open_error);
  if (reader.source_ == nullptr) return fail(open_error.reason);
  reader.data_ = reader.source_->fetch(0, reader.source_->size(),
                                       *reader.scratch_);

  std::uint64_t next = 0;
  std::string scan_error;
  auto frames = scan_frames(reader.data_, 0, &next, &scan_error);
  if (!frames) return fail(scan_error);
  if (frames->empty() || frames->back().kind != FrameKind::kFooter) {
    return fail("missing footer (truncated or still being written)");
  }
  if (next != reader.data_.size()) {
    return fail("trailing bytes after footer");
  }
  const FrameRef footer = frames->back();
  frames->pop_back();

  // Footer parse: index + digest. The index must match the scan exactly
  // — a frame the index does not know about means a torn rewrite.
  try {
    StateReader r(reader.payload(footer));
    const std::uint64_t count = r.u64();
    if (count != frames->size()) {
      return fail("footer index count mismatch");
    }
    for (FrameRef& f : *frames) {
      const std::uint32_t kind = r.u32();
      r.u32();  // reserved
      const std::uint64_t offset = r.u64();
      const std::uint64_t len = r.u64();
      const std::uint64_t rows = r.u64();
      if (kind != static_cast<std::uint32_t>(f.kind) || offset != f.offset ||
          len != f.payload_len) {
        return fail("footer index disagrees with frame layout");
      }
      f.rows = rows;
    }
    const std::string_view stored =
        r.bytes(crypto::Sha256::kDigestSize);
    r.expect_done("container footer");
    const auto computed = crypto::Sha256::hash(
        reader.data_.substr(0, static_cast<std::size_t>(footer.offset)));
    if (std::memcmp(stored.data(), computed.data(), computed.size()) != 0) {
      return fail("content digest mismatch");
    }
  } catch (const core::StateError& e) {
    return fail(std::string("malformed footer: ") + e.what());
  }

  bool have_meta = false;
  for (const FrameRef& f : *frames) {
    switch (f.kind) {
      case FrameKind::kMeta: {
        if (have_meta) return fail("duplicate meta frame");
        have_meta = true;
        try {
          reader.meta_ = decode_meta_payload(reader.payload(f));
        } catch (const core::StateError& e) {
          return fail(std::string("malformed meta: ") + e.what());
        }
        break;
      }
      case FrameKind::kSslBlock:
      case FrameKind::kSslBlockDelta:
        reader.ssl_blocks_.push_back(f);
        break;
      case FrameKind::kX509Block:
        reader.x509_blocks_.push_back(f);
        break;
      case FrameKind::kLedger:
        if (reader.ledger_frame_) return fail("duplicate ledger frame");
        reader.ledger_frame_ = f;
        break;
      case FrameKind::kFooter:
        return fail("footer before end of file");
    }
  }
  if (!have_meta) return fail("missing meta frame");
  return reader;
}

std::string_view ContainerReader::payload(const FrameRef& frame) const {
  return data_.substr(
      static_cast<std::size_t>(frame.offset) + kFrameHeaderBytes,
      static_cast<std::size_t>(frame.payload_len));
}

core::ErrorLedger ContainerReader::ledger() const {
  core::ErrorLedger ledger;
  if (ledger_frame_) {
    StateReader r(payload(*ledger_frame_));
    core::read_fields(r, ledger, "ledger");
    r.expect_done("container ledger");
  }
  return ledger;
}

namespace {

// The block cursor and column-carving helpers live in wire.hpp, shared
// with the zero-materialization scan (scan.cpp).
using wire::Cursor;
using wire::carve;
using wire::carve_strs;
using wire::count_sum;
using wire::dict_at;
using wire::read_dict;

}  // namespace

std::vector<zeek::SslRecord> ContainerReader::decode_ssl_block(
    const FrameRef& block) const {
  return decode_ssl_block_payload(payload(block), block.kind);
}

std::vector<zeek::X509Record> ContainerReader::decode_x509_block(
    const FrameRef& block) const {
  return decode_x509_block_payload(payload(block));
}

// Both decoders carve the payload into per-column sub-cursors up front
// (every fixed-width span bounds-checked once; variable columns scanned
// to find their extent), then materialize records in ONE row-major pass.
// The naive alternative — one pass per column over the record array —
// re-streams every record through L1 a dozen times and is memory-bound
// at a few M rows/s; row-major writes each record exactly once while it
// is cache-hot, and the column cursors advance sequentially so the
// prefetcher keeps all payload streams fed.

std::vector<zeek::SslRecord> decode_ssl_block_payload(
    std::string_view payload, FrameKind kind) {
  Cursor c(payload);
  const std::uint32_t rows = c.u32();
  const std::vector<Str> dict = read_dict(c);
  const bool delta = kind == FrameKind::kSslBlockDelta;

  Cursor ts(std::string_view{});
  Cursor uid(std::string_view{});
  if (delta) {
    const std::uint64_t ts_bytes = c.u64();
    ts = carve(c, static_cast<std::size_t>(ts_bytes));
    const std::uint64_t uid_bytes = c.u64();
    uid = carve(c, static_cast<std::size_t>(uid_bytes));
  } else {
    ts = carve(c, std::size_t{8} * rows);
    uid = carve_strs(c, rows);
  }
  Cursor orig_h = carve(c, std::size_t{4} * rows);
  Cursor orig_p = carve(c, std::size_t{4} * rows);
  Cursor resp_h = carve(c, std::size_t{4} * rows);
  Cursor resp_p = carve(c, std::size_t{4} * rows);
  Cursor version = carve(c, std::size_t{4} * rows);
  Cursor server_name = carve(c, std::size_t{4} * rows);
  Cursor established = carve(c, (std::size_t{rows} + 7) / 8);
  Cursor chain1_n = carve(c, std::size_t{4} * rows);
  Cursor chain1_ids = carve(c, 4 * count_sum(chain1_n, rows));
  Cursor chain2_n = carve(c, std::size_t{4} * rows);
  Cursor chain2_ids = carve(c, 4 * count_sum(chain2_n, rows));
  c.expect_done("ssl block");

  // Construct each record right before filling it (reserve + emplace)
  // rather than value-initializing the whole array up front: the upfront
  // memset is a second full pass over tens of MB per block.
  std::vector<zeek::SslRecord> out;
  out.reserve(rows);
  std::uint8_t bits = 0;
  std::int64_t prev_ts = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    zeek::SslRecord& rec = out.emplace_back();
    rec.ts = delta ? (prev_ts += ts.zigzag()) : ts.i64();
    const std::string_view uid_bytes = uid.view();
    rec.uid.assign(uid_bytes.data(), uid_bytes.size());
    rec.orig_h = dict_at(dict, orig_h.u32());
    rec.orig_p = static_cast<std::uint16_t>(orig_p.u32());
    rec.resp_h = dict_at(dict, resp_h.u32());
    rec.resp_p = static_cast<std::uint16_t>(resp_p.u32());
    rec.version = dict_at(dict, version.u32());
    rec.server_name = dict_at(dict, server_name.u32());
    if ((i & 7) == 0) bits = established.u8();
    rec.established = (bits >> (i & 7)) & 1;
    rec.cert_chain_fuids.resize(chain1_n.u32());
    for (Str& fuid : rec.cert_chain_fuids) {
      fuid = dict_at(dict, chain1_ids.u32());
    }
    rec.client_cert_chain_fuids.resize(chain2_n.u32());
    for (Str& fuid : rec.client_cert_chain_fuids) {
      fuid = dict_at(dict, chain2_ids.u32());
    }
  }
  if (delta) {
    // The byte-length prefixes must cover their spans exactly, or a
    // pruning scan that trusts them would diverge from this decode.
    ts.expect_done("ssl ts column");
    uid.expect_done("ssl uid column");
  }
  return out;
}

std::vector<zeek::X509Record> decode_x509_block_payload(
    std::string_view payload) {
  Cursor c(payload);
  const std::uint32_t rows = c.u32();
  const std::vector<Str> dict = read_dict(c);

  Cursor fuid = carve_strs(c, rows);
  Cursor version = carve(c, std::size_t{8} * rows);
  Cursor serial = carve(c, std::size_t{4} * rows);
  Cursor subject = carve(c, std::size_t{4} * rows);
  Cursor issuer = carve(c, std::size_t{4} * rows);
  Cursor not_before = carve(c, std::size_t{8} * rows);
  Cursor not_after = carve(c, std::size_t{8} * rows);
  Cursor key_alg = carve(c, std::size_t{4} * rows);
  Cursor key_length = carve(c, std::size_t{8} * rows);
  Cursor dns_n = carve(c, std::size_t{4} * rows);
  Cursor dns_ids = carve(c, 4 * count_sum(dns_n, rows));
  Cursor email_n = carve(c, std::size_t{4} * rows);
  Cursor email_ids = carve(c, 4 * count_sum(email_n, rows));
  Cursor uri_n = carve(c, std::size_t{4} * rows);
  Cursor uri_ids = carve(c, 4 * count_sum(uri_n, rows));
  Cursor ip_n = carve(c, std::size_t{4} * rows);
  Cursor ip_ids = carve(c, 4 * count_sum(ip_n, rows));
  Cursor der = carve_strs(c, rows);
  c.expect_done("x509 block");

  const auto decode_san = [&dict](StrVec& out_vec, Cursor& counts,
                                  Cursor& ids) {
    out_vec.resize(counts.u32());
    for (Str& v : out_vec) v = dict_at(dict, ids.u32());
  };
  std::vector<zeek::X509Record> out;
  out.reserve(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    zeek::X509Record& rec = out.emplace_back();
    rec.fuid = Str(fuid.view());
    rec.version = static_cast<int>(version.i64());
    rec.serial = dict_at(dict, serial.u32());
    rec.subject = dict_at(dict, subject.u32());
    rec.issuer = dict_at(dict, issuer.u32());
    rec.not_valid_before = not_before.i64();
    rec.not_valid_after = not_after.i64();
    rec.key_alg = dict_at(dict, key_alg.u32());
    rec.key_length = static_cast<int>(key_length.i64());
    decode_san(rec.san_dns, dns_n, dns_ids);
    decode_san(rec.san_email, email_n, email_ids);
    decode_san(rec.san_uri, uri_n, uri_ids);
    decode_san(rec.san_ip, ip_n, ip_ids);
    rec.cert_der = CertArena::global().intern(der.view());
  }
  return out;
}

std::optional<ContainerMeta> read_container_meta(const std::string& path) {
  ingest::IngestError open_error;
  const auto source = ingest::open_source(path, &open_error);
  if (source == nullptr) return std::nullopt;
  std::string scratch;
  const std::string_view data = source->fetch(0, source->size(), scratch);
  std::uint64_t next = 0;
  const auto frames = scan_frames(data, 0, &next, nullptr);
  if (!frames) return std::nullopt;
  for (const FrameRef& frame : *frames) {
    if (frame.kind != FrameKind::kMeta) continue;
    try {
      return decode_meta_payload(data.substr(
          static_cast<std::size_t>(frame.offset) + kFrameHeaderBytes,
          static_cast<std::size_t>(frame.payload_len)));
    } catch (const core::StateError&) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

bool is_container_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  char magic[sizeof(kContainerMagic)];
  const ssize_t n = ::read(fd, magic, sizeof(magic));
  ::close(fd);
  return n == static_cast<ssize_t>(sizeof(magic)) &&
         std::memcmp(magic, kContainerMagic, sizeof(magic)) == 0;
}

}  // namespace mtlscope::colfmt
