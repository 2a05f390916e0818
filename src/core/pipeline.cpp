#include "mtlscope/core/pipeline.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "mtlscope/core/enrich.hpp"

namespace mtlscope::core {

PipelineConfig PipelineConfig::campus_defaults() {
  PipelineConfig config;
  config.university_subnets = {*net::Subnet::parse("128.143.0.0/16"),
                               *net::Subnet::parse("10.0.0.0/8")};
  config.campus_issuer_orgs = {"Blue Ridge University"};
  config.dummy_issuer_orgs = {"Internet Widgits Pty Ltd", "Default Company Ltd",
                              "Unspecified", "Acme Co"};
  config.association_rules = {
      {"brhealth.org", ServerAssociation::kUniversityHealth},
      {"vpn.brexample.edu", ServerAssociation::kUniversityVpn},
      {"brexample.edu", ServerAssociation::kUniversityServer},
      {"localmed.org", ServerAssociation::kLocalOrganization},
      {"globus.org", ServerAssociation::kGlobus},
      {"tablodash.com", ServerAssociation::kThirdPartyService},
      {"thirdparty-hosting.com", ServerAssociation::kThirdPartyService},
  };
  config.study_start = util::to_unix({2022, 5, 1, 0, 0, 0});
  config.study_end = util::to_unix({2024, 4, 1, 0, 0, 0});
  return config;
}

Pipeline::Pipeline(Prepared prepared)
    : enricher_(std::move(prepared.enricher)),
      base_certs_(std::move(prepared.base_certificates)),
      frozen_issuers_(std::move(prepared.interception_issuers)) {}

void Pipeline::add_observer(Observer observer) {
  observers_.push_back(std::move(observer));
}

CertFacts* Pipeline::local_cert(const colfmt::Str& fuid) {
  const auto it = certs_.find(fuid);
  if (it != certs_.end()) return &it->second;
  // Copy-on-first-use from the shared registry: the copy starts with
  // zero usage, which this shard then accumulates locally.
  const auto base = base_certs_->find(fuid);
  if (base == base_certs_->end()) return nullptr;
  view_.sorted.clear();
  return &certs_.emplace(fuid, base->second).first->second;
}

void Pipeline::add_connection(const zeek::SslRecord& record) {
  // §3.2.1: "our analysis is conducted using established TLS connections".
  // Failed handshakes (e.g. a strict server rejecting an expired client
  // certificate) are tallied and dropped.
  if (!record.established) {
    ++totals_.rejected_handshakes;
    return;
  }

  const auto find_cert = [this](const colfmt::StrVec& fuids)
      -> CertFacts* {
    if (fuids.empty()) return nullptr;
    return local_cert(fuids.front());
  };
  CertFacts* server_leaf = find_cert(record.cert_chain_fuids);
  CertFacts* client_leaf = find_cert(record.client_cert_chain_fuids);

  EnrichedConnection conn =
      enricher_->enrich(record, server_leaf, client_leaf, cache_);

  // Interception filter (§3.2.1): phase C confirmed the issuers over the
  // whole stream; their connections are excluded from all analyses.
  if (server_leaf != nullptr &&
      frozen_issuers_->contains(server_leaf->issuer_dn)) {
    server_leaf->flagged_interception = true;
    ++excluded_connections_;
    return;
  }

  ++totals_.connections;
  ++totals_.established;
  if (conn.mutual) ++totals_.mutual;
  if (conn.direction == Direction::kInbound) {
    ++totals_.inbound;
  } else {
    ++totals_.outbound;
  }
  if (record.version == "TLSv13") ++totals_.tls13;

  // Usage accounting on both leaves.
  const auto update = [&](CertFacts* facts, bool as_server) {
    if (facts == nullptr) return;
    ++facts->connection_count;
    facts->used_as_server |= as_server;
    facts->used_as_client |= !as_server;
    facts->used_in_mutual |= conn.mutual;
    facts->seen_inbound |= conn.direction == Direction::kInbound;
    facts->seen_outbound |= conn.direction == Direction::kOutbound;
    facts->first_seen = std::min(facts->first_seen, conn.ts);
    facts->last_seen = std::max(facts->last_seen, conn.ts);
    if (!as_server && conn.ts > facts->validity.not_after) {
      facts->client_use_while_expired = true;
    }
    if (!as_server && conn.direction == Direction::kOutbound &&
        !conn.sni.empty()) {
      facts->seen_outbound_with_sni = true;
    }
    const AddrFacts& endpoint = enricher_->addr_facts(
        as_server ? record.resp_h : record.orig_h, cache_);
    if (endpoint.is_v4) {
      (as_server ? facts->server_subnets : facts->client_subnets)
          .insert(endpoint.subnet);
    }
    if (facts->context_sld.empty() && !conn.sld.empty()) {
      facts->context_sld = conn.sld;
    }
    if (facts->context_assoc == ServerAssociation::kNone &&
        conn.direction == Direction::kInbound) {
      facts->context_assoc = conn.assoc;
    }
  };
  update(server_leaf, true);
  update(client_leaf, false);

  conn.server_leaf = server_leaf;
  conn.client_leaf = client_leaf;
  for (const auto& observer : observers_) observer(conn);
}

void Pipeline::finalize() {
  for (auto& [fuid, facts] : certs_) {
    if (interception_issuers_.contains(facts.issuer_dn)) {
      facts.flagged_interception = true;
    }
  }
  std::vector<const CertFacts*>& sorted = view_.sorted;
  if (sorted.size() == certs_.size()) return;  // no change since the build
  // Sort on each fuid's first eight bytes, read big-endian (zero past
  // the end), and compare whole fuids only where those tie: the keys sit
  // in one array, so most comparisons touch no certificate. A smaller
  // key means a smaller fuid, so the order is the fuid order.
  std::vector<std::pair<std::uint64_t, const CertFacts*>> keyed;
  keyed.reserve(certs_.size());
  for (const auto& [fuid, facts] : certs_) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      key = key << 8 | (i < fuid.size()
                            ? static_cast<unsigned char>(fuid.data()[i])
                            : 0u);
    }
    keyed.emplace_back(key, &facts);
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second->fuid < b.second->fuid;
  });
  sorted.clear();
  sorted.reserve(keyed.size());
  for (const auto& [key, facts] : keyed) sorted.push_back(facts);
}

void Pipeline::merge(Pipeline&& other) {
  merge_fields(*this, std::move(other));
  other.certs_.clear();
  view_.sorted.clear();
  other.view_.sorted.clear();
  // Cache bookkeeping only — the entries themselves stay shard-local.
  cache_.hits += other.cache_.hits;
  cache_.misses += other.cache_.misses;
  cache_.retired_unique += other.cache_.unique();
}

void Pipeline::backfill_certificates(const CertMap& base) {
  view_.sorted.clear();
  for (const auto& [fuid, facts] : base) {
    if (!certs_.contains(fuid)) certs_.emplace(fuid, facts);
  }
}

const std::vector<const CertFacts*>& Pipeline::certificates_sorted() const {
  if (view_.sorted.size() != certs_.size()) {
    throw std::logic_error(
        "Pipeline::certificates_sorted: the registry changed since "
        "finalize()");
  }
  return view_.sorted;
}

std::size_t Pipeline::interception_flagged_certificates() const {
  std::size_t count = 0;
  for (const auto& [fuid, facts] : certs_) {
    if (facts.flagged_interception ||
        interception_issuers_.contains(facts.issuer_dn)) {
      ++count;
    }
  }
  return count;
}

}  // namespace mtlscope::core
