// SslBlockScan: carve every column sub-cursor up front (identical
// bounds discipline to the materializing decoder in container.cpp),
// then serve rows by advancing only the cursors the manifest asked for.
#include "mtlscope/colfmt/scan.hpp"

namespace mtlscope::colfmt {

using wire::Cursor;
using wire::carve;
using wire::carve_strs;
using wire::count_sum;
using wire::dict_at;
using wire::read_dict;

SslBlockScan::SslBlockScan(std::string_view payload, FrameKind kind,
                           const zeek::SslColumns& columns)
    : columns_(columns), delta_ts_(kind == FrameKind::kSslBlockDelta) {
  Cursor c(payload);
  rows_ = c.u32();
  dict_ = read_dict(c);
  if (delta_ts_) {
    const std::uint64_t ts_bytes = c.u64();
    ts_ = carve(c, static_cast<std::size_t>(ts_bytes));
    // The explicit byte length is what makes uid pruning O(1): the
    // kind-2 layout would need a full carve_strs walk just to find
    // where the column ends.
    const std::uint64_t uid_bytes = c.u64();
    uid_ = carve(c, static_cast<std::size_t>(uid_bytes));
  } else {
    ts_ = carve(c, std::size_t{8} * rows_);
    uid_ = carve_strs(c, rows_);
  }
  orig_h_ = carve(c, std::size_t{4} * rows_);
  orig_p_ = carve(c, std::size_t{4} * rows_);
  resp_h_ = carve(c, std::size_t{4} * rows_);
  resp_p_ = carve(c, std::size_t{4} * rows_);
  version_ = carve(c, std::size_t{4} * rows_);
  server_name_ = carve(c, std::size_t{4} * rows_);
  established_ = carve(c, (std::size_t{rows_} + 7) / 8);
  chain1_n_ = carve(c, std::size_t{4} * rows_);
  chain1_ids_ = carve(c, 4 * count_sum(chain1_n_, rows_));
  chain2_n_ = carve(c, std::size_t{4} * rows_);
  chain2_ids_ = carve(c, 4 * count_sum(chain2_n_, rows_));
  c.expect_done("ssl block");
}

std::uint32_t SslBlockScan::next(zeek::SslRecord& rec) {
  const std::uint32_t i = index_;
  if (i >= rows_) {
    throw core::StateError("ssl block scan read past the last row");
  }
  ++index_;
  // Every column has its own carved cursor, so a pruned column is simply
  // never read — no per-row skip work, regardless of encoding.
  if (columns_.ts) {
    rec.ts = delta_ts_ ? (prev_ts_ += ts_.zigzag()) : ts_.i64();
  }
  if (columns_.uid) {
    const std::string_view uid_bytes = uid_.view();
    rec.uid.assign(uid_bytes.data(), uid_bytes.size());
  }
  if (columns_.endpoints) {
    rec.orig_h = dict_at(dict_, orig_h_.u32());
    rec.orig_p = static_cast<std::uint16_t>(orig_p_.u32());
    rec.resp_h = dict_at(dict_, resp_h_.u32());
    rec.resp_p = static_cast<std::uint16_t>(resp_p_.u32());
  }
  if (columns_.version) {
    rec.version = dict_at(dict_, version_.u32());
  }
  if (columns_.server_name) {
    rec.server_name = dict_at(dict_, server_name_.u32());
  }
  if (columns_.established) {
    if ((i & 7) == 0) established_bits_ = established_.u8();
    rec.established = (established_bits_ >> (i & 7)) & 1;
  }
  if (columns_.chain_fuids) {
    rec.cert_chain_fuids.resize(chain1_n_.u32());
    for (Str& fuid : rec.cert_chain_fuids) {
      fuid = dict_at(dict_, chain1_ids_.u32());
    }
    rec.client_cert_chain_fuids.resize(chain2_n_.u32());
    for (Str& fuid : rec.client_cert_chain_fuids) {
      fuid = dict_at(dict_, chain2_ids_.u32());
    }
  }
  return i;
}

SslBlockScan ContainerReader::scan_ssl_block(
    const FrameRef& block, const zeek::SslColumns& columns) const {
  return SslBlockScan(payload(block), block.kind, columns);
}

}  // namespace mtlscope::colfmt
