// Simulated Certificate Transparency log index.
//
// The paper (§3.2.1) detects TLS interception by comparing the issuer of
// the observed server leaf against the issuer CT has on record for the
// same domain. Real CT logs cannot be embedded, so the trace generator
// registers each legitimately-issued server certificate here, and the
// interception filter queries it exactly the way the authors queried
// crt.sh.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "mtlscope/x509/name.hpp"

namespace mtlscope::ctlog {

class CtDatabase {
 public:
  /// Records that `issuer` legitimately issued a certificate for `domain`.
  void log_certificate(std::string_view domain,
                       const x509::DistinguishedName& issuer);

  bool has_domain(std::string_view domain) const;

  /// True when CT knows the domain and `issuer` is among its recorded
  /// issuers.
  bool issuer_matches(std::string_view domain,
                      const x509::DistinguishedName& issuer) const;

  /// Issuer DN strings recorded for a domain, transparently probeable
  /// (string_view or interned Str) without materializing a key.
  using IssuerSet = std::set<std::string, std::less<>>;

  /// Recorded issuer DN strings for a domain; nullptr if unknown.
  const IssuerSet* issuers_for(std::string_view domain) const;

  std::size_t domain_count() const { return by_domain_.size(); }

  /// Adds every (domain, issuer) record of `other`.
  void merge(const CtDatabase& other);

  bool operator==(const CtDatabase&) const = default;

 private:
  std::map<std::string, IssuerSet, std::less<>> by_domain_;
};

}  // namespace mtlscope::ctlog
