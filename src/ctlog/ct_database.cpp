#include "mtlscope/ctlog/ct_database.hpp"

namespace mtlscope::ctlog {

void CtDatabase::log_certificate(std::string_view domain,
                                 const x509::DistinguishedName& issuer) {
  auto it = by_domain_.find(domain);
  if (it == by_domain_.end()) {
    it = by_domain_.emplace(std::string(domain), IssuerSet{}).first;
  }
  it->second.insert(issuer.to_string());
}

void CtDatabase::merge(const CtDatabase& other) {
  for (const auto& [domain, issuers] : other.by_domain_) {
    by_domain_[domain].insert(issuers.begin(), issuers.end());
  }
}

bool CtDatabase::has_domain(std::string_view domain) const {
  return by_domain_.find(domain) != by_domain_.end();
}

bool CtDatabase::issuer_matches(std::string_view domain,
                                const x509::DistinguishedName& issuer) const {
  const auto it = by_domain_.find(domain);
  if (it == by_domain_.end()) return false;
  return it->second.contains(issuer.to_string());
}

const CtDatabase::IssuerSet* CtDatabase::issuers_for(
    std::string_view domain) const {
  const auto it = by_domain_.find(domain);
  if (it == by_domain_.end()) return nullptr;
  return &it->second;
}

}  // namespace mtlscope::ctlog
