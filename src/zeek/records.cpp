#include "mtlscope/zeek/records.hpp"

#include <bit>

#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/util/parallel.hpp"

namespace mtlscope::zeek {

std::string fuid_of(const x509::Certificate& cert) {
  const std::string hex = cert.fingerprint_hex();
  return "F" + hex.substr(0, 17);
}

X509Record to_x509_record(const x509::Certificate& cert) {
  return to_x509_record(cert, colfmt::Str(fuid_of(cert)));
}

X509Record to_x509_record(const x509::Certificate& cert, colfmt::Str fuid) {
  X509Record rec;
  rec.fuid = fuid;
  rec.version = cert.version;
  rec.serial = cert.serial_hex();
  rec.subject = cert.subject.to_string();
  rec.issuer = cert.issuer.to_string();
  rec.not_valid_before = cert.validity.not_before;
  rec.not_valid_after = cert.validity.not_after;
  rec.key_alg = cert.spki_algorithm == asn1::oids::alg_rsa_encryption()
                    ? "rsaEncryption"
                    : cert.spki_algorithm.to_string();
  rec.key_length = static_cast<int>(cert.key_bits());
  for (const auto& entry : cert.san) {
    switch (entry.type) {
      case x509::SanEntry::Type::kDns:
        rec.san_dns.push_back(entry.value);
        break;
      case x509::SanEntry::Type::kEmail:
        rec.san_email.push_back(entry.value);
        break;
      case x509::SanEntry::Type::kUri:
        rec.san_uri.push_back(entry.value);
        break;
      case x509::SanEntry::Type::kIp:
        rec.san_ip.push_back(entry.value);
        break;
      case x509::SanEntry::Type::kOther:
        break;
    }
  }
  rec.cert_der =
      colfmt::CertArena::global().intern(cert.der.data(), cert.der.size());
  return rec;
}

SslRecord ssl_row(const tls::TlsConnection& conn) {
  SslRecord rec;
  rec.ts = conn.timestamp;
  rec.uid = conn.uid;
  rec.orig_h = conn.client.addr.to_string();
  rec.orig_p = conn.client.port;
  rec.resp_h = conn.server.addr.to_string();
  rec.resp_p = conn.server.port;
  rec.version = tls::version_name(conn.version);
  rec.server_name = conn.sni;
  rec.established = conn.established;
  return rec;
}

void Dataset::add_connection(const tls::TlsConnection& conn) {
  SslRecord rec = ssl_row(conn);
  for (const auto& cert : conn.server_chain) {
    const colfmt::Str fuid(fuid_of(cert));
    rec.cert_chain_fuids.push_back(fuid);
    if (!x509_.contains(fuid)) x509_.emplace(fuid, to_x509_record(cert, fuid));
  }
  for (const auto& cert : conn.client_chain) {
    const colfmt::Str fuid(fuid_of(cert));
    rec.client_cert_chain_fuids.push_back(fuid);
    if (!x509_.contains(fuid)) x509_.emplace(fuid, to_x509_record(cert, fuid));
  }
  ssl_.push_back(std::move(rec));
}

const X509Record* Dataset::find_certificate(std::string_view fuid) const {
  const auto it = x509_.find(fuid);
  return it == x509_.end() ? nullptr : &it->second;
}

void Dataset::add_x509(X509Record record) {
  x509_.emplace(record.fuid, std::move(record));
}

std::span<SslRecord> Dataset::append_ssl_slots(std::size_t n,
                                               std::size_t threads) {
  const std::size_t first = ssl_.size();
  // Grow to powers of two, as push_back would: resize() alone sizes the
  // buffer from the append pattern, which can move a much larger vector.
  if (first + n > ssl_.capacity()) ssl_.reserve(std::bit_ceil(first + n));
  if (threads > 1) {
    // One byte every page-size stride of the reserved, still
    // unconstructed storage.
    constexpr std::size_t kPage = 4096;
    unsigned char* const bytes =
        reinterpret_cast<unsigned char*>(ssl_.data() + first);
    const std::size_t pages = (n * sizeof(SslRecord) + kPage - 1) / kPage;
    util::parallel_ranges(
        pages, threads, [bytes](std::size_t, std::size_t begin,
                                std::size_t end) {
          for (std::size_t page = begin; page < end; ++page) {
            bytes[page * kPage] = 0;
          }
        });
  }
  ssl_.resize(first + n);
  return std::span<SslRecord>(ssl_).subspan(first);
}

}  // namespace mtlscope::zeek
