#include "mtlscope/watch/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mtlscope::watch {
namespace {

using core::StateReader;
using core::StateWriter;

// Section names by id (1-based), in file order. The set is closed per
// version, like the shard-state table (DESIGN §12).
constexpr const char* kSections[] = {
    "config",     "ssl_tail", "x509_tail", "scheduler",   "cumulative",
    "rollup",     "ledger",   "x509_seen", "ssl_buffers",
};
constexpr core::SealedFormat kFormat{
    .magic = "MTLSWTCH",
    .version = kWatchFormatVersion,
    .sections = kSections,
    .noun = "checkpoint",
    .kind = "checkpoint",
    .title = "watch checkpoint",
    .versioned = "watch checkpoint",
    .container = "checkpoint container",
};

// Smallest encoding of one entry of each count-prefixed run, which
// bounds what a claimed count may reserve (core::bounded_reserve).
constexpr std::size_t kMinStrBytes = 8;  // u64 length, no bytes
// ts, uid, orig_h, orig_p, resp_h, resp_p, version, server_name,
// established, and the two chain counts.
constexpr std::size_t kMinSslRecordBytes = 8 + 8 + 8 + 4 + 8 + 4 + 8 + 8 + 1 +
                                           8 + 8;
// fuid, version, serial, subject, issuer, not_before, not_after, key_alg,
// key_length, the four SAN counts, and cert_der.
constexpr std::size_t kMinX509RecordBytes = 9 * 8 + 4 * 8 + 8;

void serialize_strings(StateWriter& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const auto& s : v) w.str(s);
}

std::vector<std::string> parse_strings(StateReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::string> out;
  out.reserve(core::bounded_reserve(n, r.remaining(), kMinStrBytes));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.str());
  return out;
}

// Interned-string vectors share the wire format of plain string vectors
// (the bytes are written, never arena identities); reading re-interns.
void serialize_strings(StateWriter& w, const colfmt::StrVec& v) {
  w.u64(v.size());
  for (const auto& s : v) w.str(s);
}

colfmt::StrVec parse_interned_strings(StateReader& r) {
  const std::uint64_t n = r.u64();
  colfmt::StrVec out;
  out.reserve(core::bounded_reserve(n, r.remaining(), kMinStrBytes));
  for (std::uint64_t i = 0; i < n; ++i) out.emplace_back(r.str());
  return out;
}

void serialize_ssl_rows(StateWriter& w,
                        const std::vector<zeek::SslRecord>& rows) {
  w.u64(rows.size());
  for (const auto& row : rows) serialize_ssl_record(w, row);
}

std::vector<zeek::SslRecord> parse_ssl_rows(StateReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<zeek::SslRecord> out;
  out.reserve(core::bounded_reserve(n, r.remaining(), kMinSslRecordBytes));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(parse_ssl_record(r));
  return out;
}

}  // namespace

void serialize_ssl_record(StateWriter& w, const zeek::SslRecord& r) {
  w.i64(r.ts);
  w.str(r.uid);
  w.str(r.orig_h);
  w.u32(r.orig_p);
  w.str(r.resp_h);
  w.u32(r.resp_p);
  w.str(r.version);
  w.str(r.server_name);
  w.u8(r.established ? 1 : 0);
  serialize_strings(w, r.cert_chain_fuids);
  serialize_strings(w, r.client_cert_chain_fuids);
}

zeek::SslRecord parse_ssl_record(StateReader& r) {
  zeek::SslRecord rec;
  rec.ts = r.i64();
  rec.uid = r.str();
  rec.orig_h = r.str();
  rec.orig_p = static_cast<std::uint16_t>(r.u32());
  rec.resp_h = r.str();
  rec.resp_p = static_cast<std::uint16_t>(r.u32());
  rec.version = r.str();
  rec.server_name = r.str();
  rec.established = r.u8() != 0;
  rec.cert_chain_fuids = parse_interned_strings(r);
  rec.client_cert_chain_fuids = parse_interned_strings(r);
  return rec;
}

void serialize_x509_record(StateWriter& w, const zeek::X509Record& r) {
  w.str(r.fuid);
  w.i64(r.version);
  w.str(r.serial);
  w.str(r.subject);
  w.str(r.issuer);
  w.i64(r.not_valid_before);
  w.i64(r.not_valid_after);
  w.str(r.key_alg);
  w.i64(r.key_length);
  serialize_strings(w, r.san_dns);
  serialize_strings(w, r.san_email);
  serialize_strings(w, r.san_uri);
  serialize_strings(w, r.san_ip);
  // Raw DER bytes (records carry decoded DER since DESIGN §14); the
  // length-prefixed str framing is binary-safe.
  w.str(r.cert_der);
}

zeek::X509Record parse_x509_record(StateReader& r) {
  zeek::X509Record rec;
  rec.fuid = r.str();
  rec.version = static_cast<int>(r.i64());
  rec.serial = r.str();
  rec.subject = r.str();
  rec.issuer = r.str();
  rec.not_valid_before = r.i64();
  rec.not_valid_after = r.i64();
  rec.key_alg = r.str();
  rec.key_length = static_cast<int>(r.i64());
  rec.san_dns = parse_interned_strings(r);
  rec.san_email = parse_interned_strings(r);
  rec.san_uri = parse_interned_strings(r);
  rec.san_ip = parse_interned_strings(r);
  rec.cert_der = colfmt::CertArena::global().intern(r.str());
  return rec;
}

std::string serialize_watch_checkpoint(const WatchCheckpoint& ckpt) {
  return core::write_sealed(
      kFormat,
      {
          [&](StateWriter& p) {
            p.i64(ckpt.window_seconds);
            p.u32(ckpt.rollup_windows);
            serialize_strings(p, ckpt.experiments);
            p.u64(ckpt.seed);
          },
          [&](StateWriter& p) { core::write_fields(p, ckpt.ssl_tail); },
          [&](StateWriter& p) { core::write_fields(p, ckpt.x509_tail); },
          [&](StateWriter& p) {
            p.u8(ckpt.have_watermark ? 1 : 0);
            p.i64(ckpt.watermark_bucket);
            p.i64(ckpt.watermark_ts);
            p.i64(ckpt.rollup_bucket);
            p.u64(ckpt.ssl_records_seen);
            p.u64(ckpt.windows_emitted);
            p.u64(ckpt.rollups_emitted);
          },
          [&](StateWriter& p) { p.str(ckpt.cumulative_blob); },
          [&](StateWriter& p) { p.str(ckpt.rollup_blob); },
          [&](StateWriter& p) { core::write_fields(p, ckpt.ledger); },
          [&](StateWriter& p) {
            p.u64(ckpt.x509_seen.size());
            for (const auto& row : ckpt.x509_seen) {
              serialize_x509_record(p, row);
            }
          },
          [&](StateWriter& p) {
            serialize_ssl_rows(p, ckpt.current_rows);
            serialize_ssl_rows(p, ckpt.pending_rows);
            serialize_ssl_rows(p, ckpt.late_rows);
          },
      });
}

std::optional<WatchCheckpoint> parse_watch_checkpoint(std::string_view data,
                                                      std::string* error) {
  WatchCheckpoint ckpt;
  if (!core::read_sealed(
          kFormat, data,
          {
              [&](StateReader& r) {
                ckpt.window_seconds = r.i64();
                ckpt.rollup_windows = r.u32();
                ckpt.experiments = parse_strings(r);
                ckpt.seed = r.u64();
              },
              [&](StateReader& r) {
                core::read_fields(r, ckpt.ssl_tail, "ssl_tail");
              },
              [&](StateReader& r) {
                core::read_fields(r, ckpt.x509_tail, "x509_tail");
              },
              [&](StateReader& r) {
                ckpt.have_watermark = r.u8() != 0;
                ckpt.watermark_bucket = r.i64();
                ckpt.watermark_ts = r.i64();
                ckpt.rollup_bucket = r.i64();
                ckpt.ssl_records_seen = r.u64();
                ckpt.windows_emitted = r.u64();
                ckpt.rollups_emitted = r.u64();
              },
              [&](StateReader& r) { ckpt.cumulative_blob = r.str(); },
              [&](StateReader& r) { ckpt.rollup_blob = r.str(); },
              [&](StateReader& r) {
                core::read_fields(r, ckpt.ledger, "ledger");
              },
              [&](StateReader& r) {
                const std::uint64_t n = r.u64();
                ckpt.x509_seen.reserve(core::bounded_reserve(
                    n, r.remaining(), kMinX509RecordBytes));
                for (std::uint64_t j = 0; j < n; ++j) {
                  ckpt.x509_seen.push_back(parse_x509_record(r));
                }
              },
              [&](StateReader& r) {
                ckpt.current_rows = parse_ssl_rows(r);
                ckpt.pending_rows = parse_ssl_rows(r);
                ckpt.late_rows = parse_ssl_rows(r);
              },
          },
          error)) {
    return std::nullopt;
  }
  return ckpt;
}

ingest::WriteResult save_watch_checkpoint(const std::string& path,
                                          const WatchCheckpoint& ckpt) {
  const std::string bytes = serialize_watch_checkpoint(ckpt);
  return ingest::atomic_publish_file(path, bytes, "watch.checkpoint");
}

std::optional<WatchCheckpoint> load_watch_checkpoint(const std::string& path,
                                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  const std::string data = buf.str();
  return parse_watch_checkpoint(data, error);
}

CheckpointStore::CheckpointStore(std::string dir, std::uint32_t keep)
    : dir_(std::move(dir)), keep_(keep == 0 ? 1 : keep) {
  std::uint64_t max_gen = 0;
  bool any = false;
  for (const auto& [gen, path] : list(dir_)) {
    (void)path;
    any = true;
    max_gen = std::max(max_gen, gen);
  }
  next_generation_ = any ? max_gen + 1 : 1;
}

std::string CheckpointStore::path_for(std::uint64_t generation) const {
  return (std::filesystem::path(dir_) /
          (std::string(kBaseName) + "." + std::to_string(generation)))
      .string();
}

bool CheckpointStore::has_any() const { return !list(dir_).empty(); }

std::vector<std::pair<std::uint64_t, std::string>> CheckpointStore::list(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name == kBaseName) {
      // Legacy single-file layout from pre-generation daemons.
      out.emplace_back(0, it->path().string());
      continue;
    }
    const std::string prefix = std::string(kBaseName) + ".";
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // watch.ckpt.tmp-style strays are not generations
    }
    errno = 0;
    char* endp = nullptr;
    const unsigned long long gen = std::strtoull(suffix.c_str(), &endp, 10);
    if (errno != 0 || endp == nullptr || *endp != '\0') continue;
    out.emplace_back(static_cast<std::uint64_t>(gen), it->path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

ingest::WriteResult CheckpointStore::save(const WatchCheckpoint& ckpt) {
  const std::string bytes = serialize_watch_checkpoint(ckpt);
  const auto result = ingest::atomic_publish_file(
      path_for(next_generation_), bytes, "watch.checkpoint");
  if (!result.ok) return result;  // generation not consumed; retry rewrites it
  ++next_generation_;
  ingest::write_retry_counters().checkpoint_gens_written.fetch_add(
      1, std::memory_order_relaxed);
  prune();
  return result;
}

void CheckpointStore::prune() {
  auto gens = list(dir_);
  if (gens.size() <= keep_) return;
  const std::size_t drop = gens.size() - keep_;
  for (std::size_t i = 0; i < drop; ++i) {
    std::error_code ec;
    std::filesystem::remove(gens[i].second, ec);  // best effort
  }
}

std::optional<WatchCheckpoint> CheckpointStore::load(std::string* error,
                                                     std::uint64_t* generation,
                                                     std::uint32_t* skipped) {
  auto gens = list(dir_);
  std::string newest_error;
  std::uint32_t stepped_over = 0;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    std::string gen_error;
    auto ckpt = load_watch_checkpoint(it->second, &gen_error);
    if (ckpt.has_value()) {
      if (generation != nullptr) *generation = it->first;
      if (skipped != nullptr) *skipped = stepped_over;
      ingest::write_retry_counters().checkpoint_gens_restored.fetch_add(
          1, std::memory_order_relaxed);
      return ckpt;
    }
    if (newest_error.empty()) newest_error = std::move(gen_error);
    ++stepped_over;
  }
  if (error != nullptr) {
    *error = gens.empty() ? "no checkpoint generations in " + dir_
                          : newest_error;
  }
  if (skipped != nullptr) *skipped = stepped_over;
  return std::nullopt;
}

}  // namespace mtlscope::watch
