// Zeek-schema records: ssl.log and x509.log rows, and the in-memory
// Dataset that joins them by certificate file id (fuid) — the same join
// the paper performs (§3.1).
//
// Repeated values (addresses, versions, SNIs, fuids, DNs, DER blobs)
// are interned `colfmt::Str` handles into the global string/cert arenas
// (DESIGN §14): a million-row log stores each distinct issuer or chain
// fuid once, and copying a record copies pointers, not heap strings.
// Only `uid` — unique per row — stays an owned std::string.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/tls/connection.hpp"
#include "mtlscope/util/time.hpp"

namespace mtlscope::zeek {

/// One ssl.log row. Field names follow Zeek's SSL::Info.
struct SslRecord {
  util::UnixSeconds ts = 0;
  std::string uid;      // unique per row: owned, never interned
  colfmt::Str orig_h;   // client address
  std::uint16_t orig_p = 0;
  colfmt::Str resp_h;   // server address
  std::uint16_t resp_p = 0;
  colfmt::Str version;      // "TLSv12"; empty → unset
  colfmt::Str server_name;  // SNI; empty → unset
  bool established = false;
  colfmt::StrVec cert_chain_fuids;         // server chain
  colfmt::StrVec client_cert_chain_fuids;  // client chain

  bool is_mutual() const {
    return !cert_chain_fuids.empty() && !client_cert_chain_fuids.empty();
  }
};

/// Column manifest: which SslRecord fields a reader decodes. One type
/// for both ssl readers, the TSV batch parsers (via SslPlan::projection)
/// and the columnar block scan. Fields not requested are never decoded
/// or interned and are left untouched in the output record. A manifest
/// never changes which rows are accepted (DESIGN §10).
struct SslColumns {
  bool ts = true;
  bool uid = true;
  bool endpoints = true;  ///< orig_h/orig_p/resp_h/resp_p
  bool version = true;
  bool server_name = true;
  bool established = true;
  bool chain_fuids = true;  ///< both certificate-chain fuid columns

  static SslColumns all() { return {}; }

  /// What the analysis pipeline reads: everything except uid, which no
  /// enrichment rule or analyzer consults.
  static SslColumns pipeline() {
    SslColumns columns;
    columns.uid = false;
    return columns;
  }

  /// What the chain-upgrade pass reads: the established flag and both
  /// chain fuid lists.
  static SslColumns chains() {
    SslColumns columns;
    columns.ts = false;
    columns.uid = false;
    columns.endpoints = false;
    columns.version = false;
    columns.server_name = false;
    return columns;
  }
};

/// One x509.log row. Zeek logs parsed fields; we additionally carry the
/// DER (as Zeek can be configured to do), which lets the analysis
/// pipeline re-parse certificates rather than trusting the log fields.
struct X509Record {
  colfmt::Str fuid;
  int version = 0;
  colfmt::Str serial;   // upper-case hex
  colfmt::Str subject;  // DN string form
  colfmt::Str issuer;
  util::UnixSeconds not_valid_before = 0;
  util::UnixSeconds not_valid_after = 0;
  colfmt::Str key_alg;
  int key_length = 0;
  colfmt::StrVec san_dns;
  colfmt::StrVec san_email;
  colfmt::StrVec san_uri;
  colfmt::StrVec san_ip;
  /// Raw DER bytes, interned in the CertArena (TSV logs carry base64;
  /// the parser decodes once at ingest, the writer re-encodes). Empty
  /// when the log had no cert_der column or the value was undecodable —
  /// enrichment then falls back to the logged fields, as before.
  colfmt::Str cert_der;
};

/// Computes Zeek-style file id for a certificate ("F" + 17 hex chars of
/// the SHA-256 fingerprint) — stable across connections, which is what
/// makes certificate-level dedup work downstream.
std::string fuid_of(const x509::Certificate& cert);

/// Converts a parsed certificate into its x509.log row.
X509Record to_x509_record(const x509::Certificate& cert);
/// The same, for a caller that already holds `fuid_of(cert)`.
X509Record to_x509_record(const x509::Certificate& cert, colfmt::Str fuid);

/// The ssl.log row of `conn` with both chain-fuid lists left empty; the
/// caller appends the fuids of the chains it records.
SslRecord ssl_row(const tls::TlsConnection& conn);

/// An ssl.log + x509.log pair over the same capture window.
class Dataset {
 public:
  /// Byte-ordered (StrLess), so iteration matches the old string-keyed map.
  using X509Map = std::map<colfmt::Str, X509Record, colfmt::StrLess>;

  /// Appends a connection: one ssl row plus x509 rows for any not-yet-seen
  /// certificates.
  void add_connection(const tls::TlsConnection& conn);

  const std::vector<SslRecord>& ssl() const { return ssl_; }
  std::vector<SslRecord>& ssl() { return ssl_; }
  const X509Map& x509() const { return x509_; }

  const X509Record* find_certificate(std::string_view fuid) const;
  /// Adds an x509 row unless one with the same fuid exists (first wins).
  void add_x509(X509Record record);
  void add_ssl(SslRecord record) { ssl_.push_back(std::move(record)); }
  /// Appends `n` default ssl rows and returns them, so that workers can
  /// fill disjoint slots in parallel while row order stays fixed.
  /// `threads` workers first-touch the new rows' pages before the
  /// calling thread constructs the rows: on fresh memory the page faults
  /// are most of the cost, and they fault in parallel.
  std::span<SslRecord> append_ssl_slots(std::size_t n, std::size_t threads);

  std::size_t connection_count() const { return ssl_.size(); }
  std::size_t certificate_count() const { return x509_.size(); }

 private:
  std::vector<SslRecord> ssl_;
  X509Map x509_;
};

}  // namespace mtlscope::zeek
