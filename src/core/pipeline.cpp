#include "mtlscope/core/pipeline.hpp"

#include <algorithm>

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
}

void Pipeline::merge(Pipeline&& other) {
  merge_fields(*this, std::move(other));
  other.certs_.clear();
  // Cache bookkeeping only — the entries themselves stay shard-local.
  cache_.hits += other.cache_.hits;
  cache_.misses += other.cache_.misses;
  cache_.retired_unique += other.cache_.unique();
}

void Pipeline::backfill_certificates(const CertMap& base) {
  for (const auto& [fuid, facts] : base) {
    if (!certs_.contains(fuid)) certs_.emplace(fuid, facts);
  }
}

std::vector<const CertFacts*> Pipeline::certificates_sorted() const {
  std::vector<const CertFacts*> sorted;
  sorted.reserve(certs_.size());
  for (const auto& [fuid, facts] : certs_) sorted.push_back(&facts);
  std::sort(sorted.begin(), sorted.end(),
            [](const CertFacts* a, const CertFacts* b) {
              return a->fuid < b->fuid;
            });
  return sorted;
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
