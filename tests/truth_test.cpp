// Ground-truth recovery (DESIGN §5): the generator's plan stage records
// what it decided for every connection (gen::ConnTruth), and the executor
// must recover exactly those labels from the Zeek records alone — the
// mutual flag, direction and leaf roles, the public/private class after
// chain upgrades, the confirmed interception set, the totals and the
// per-certificate usage aggregates. The byte-identity checks compare the
// system with itself; a rule implemented wrongly everywhere fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "truth_models.hpp"

namespace mtlscope {
namespace {

using gen::ConnTruth;
using gen::Direction;
using truth_models::hand_built_model;

/// A generated trace with its truth sidecar; the generator owns the CT
/// database the run needs.
struct Trace {
  std::unique_ptr<gen::TraceGenerator> generator;
  zeek::Dataset dataset;
  std::vector<ConnTruth> truth;
};

Trace generate(gen::CampusModel model) {
  Trace trace;
  trace.generator = std::make_unique<gen::TraceGenerator>(std::move(model));
  // Four workers: units run concurrently while recording truth.
  trace.dataset = trace.generator->generate_dataset(4, &trace.truth);
  return trace;
}

/// The executor tests' population, at a chosen seed.
gen::CampusModel small_model(std::uint64_t seed) {
  auto model = gen::paper_model(1'000, 300'000);
  model.background_connections = 30'000;
  model.seed = seed;
  return model;
}

/// What one connection looks like to an observer; leaves by fuid ("" when
/// absent).
struct Observed {
  bool mutual = false;
  Direction direction = Direction::kInbound;
  std::string server_leaf;
  std::string client_leaf;
};

std::string fuid_of(const core::CertFacts* facts) {
  return facts == nullptr ? std::string() : std::string(facts->fuid);
}

std::string leaf_of(const colfmt::StrVec& chain) {
  return chain.empty() ? std::string() : std::string(chain.front());
}

/// Per-certificate usage the truth implies.
struct Usage {
  bool issuer_public = false;
  bool upgraded = false;  // leaf of an established chain, public intermediate
  std::uint64_t uses = 0;  // leaf appearances in counted connections
  bool as_server = false;
  bool as_client = false;
  bool in_mutual = false;
  bool inbound = false;
  bool outbound = false;
  util::UnixSeconds first = std::numeric_limits<std::int64_t>::max();
  util::UnixSeconds last = std::numeric_limits<std::int64_t>::min();
};

void check_recovery(const Trace& trace, std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  const auto& rows = trace.dataset.ssl();
  ASSERT_EQ(trace.truth.size(), rows.size());

  // --- The truth, joined to the rows' chain fuids. ---
  const ctlog::CtDatabase& ct = trace.generator->ct_database();
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &ct;
  std::map<std::string, std::set<std::string>> proxy_domains;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConnTruth& t = trace.truth[i];
    if (t.unit == ConnTruth::Unit::kInterception && t.established &&
        !t.proxy_issuer.empty() && ct.has_domain(rows[i].server_name)) {
      proxy_domains[t.proxy_issuer].insert(std::string(rows[i].server_name));
    }
  }
  std::set<std::string> proxies;
  for (const auto& [issuer, domains] : proxy_domains) {
    // Precondition: every proxy re-signs enough CT-logged domains.
    EXPECT_GE(domains.size(), config.interception_domain_threshold) << issuer;
    proxies.insert(issuer);
  }

  core::Pipeline::Totals totals;
  std::size_t excluded = 0;
  std::map<std::string, Usage> usage;
  std::set<std::string> proxy_fuids;
  const auto slot = [&usage](const colfmt::Str& fuid, bool issuer_public) {
    auto [it, fresh] = usage.try_emplace(std::string(fuid));
    if (!fresh) {
      EXPECT_EQ(it->second.issuer_public, issuer_public)
          << "truth disagrees with itself on " << fuid;
    }
    it->second.issuer_public = issuer_public;
    return &it->second;
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConnTruth& t = trace.truth[i];
    const zeek::SslRecord& row = rows[i];
    const auto& server = row.cert_chain_fuids;
    const auto& client = row.client_cert_chain_fuids;
    Usage* server_leaf =
        server.empty() ? nullptr : slot(server[0], t.server_leaf_public);
    if (server.size() > 1) slot(server[1], t.server_intermediate_public);
    Usage* client_leaf =
        client.empty() ? nullptr : slot(client[0], t.client_leaf_public);
    ASSERT_EQ(t.mutual, server_leaf != nullptr && client_leaf != nullptr);
    if (!t.established) {
      ++totals.rejected_handshakes;
      continue;
    }
    if (server_leaf != nullptr && server.size() > 1 &&
        t.server_intermediate_public) {
      server_leaf->upgraded = true;
    }
    if (proxies.contains(t.proxy_issuer)) {
      proxy_fuids.insert(std::string(server[0]));
      ++excluded;
      continue;
    }
    ++totals.connections;
    ++totals.established;
    totals.mutual += t.mutual;
    totals.tls13 += t.tls13;
    ++(t.direction == Direction::kInbound ? totals.inbound : totals.outbound);
    for (Usage* u : {server_leaf, client_leaf}) {
      if (u == nullptr) continue;
      ++u->uses;
      (u == server_leaf ? u->as_server : u->as_client) = true;
      u->in_mutual |= t.mutual;
      (t.direction == Direction::kInbound ? u->inbound : u->outbound) = true;
      u->first = std::min(u->first, row.ts);
      u->last = std::max(u->last, row.ts);
      if (server_leaf == client_leaf) {  // one certificate on both ends
        ++u->uses;
        u->as_client = true;
        break;
      }
    }
  }

  // --- The run. ---
  core::PipelineExecutor executor(config, threads);
  std::vector<std::map<std::string, Observed>> seen(executor.shard_count());
  executor.add_observer_factory([&seen](std::size_t shard) {
    return [&observed = seen[shard]](const core::EnrichedConnection& c) {
      const bool fresh =
          observed
              .try_emplace(c.ssl->uid,
                           Observed{c.mutual, c.direction,
                                    fuid_of(c.server_leaf),
                                    fuid_of(c.client_leaf)})
              .second;
      EXPECT_TRUE(fresh) << "observed twice: " << c.ssl->uid;
    };
  });
  const core::Pipeline result = executor.run(trace.dataset);

  // Per connection: counted ones are observed once, with the planned
  // mutual flag, direction and leaves; the rest are never observed.
  std::map<std::string, Observed> observed;
  for (auto& shard : seen) observed.merge(shard);
  std::size_t wrong_direction = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConnTruth& t = trace.truth[i];
    const zeek::SslRecord& row = rows[i];
    const auto it = observed.find(row.uid);
    if (!t.established || proxies.contains(t.proxy_issuer)) {
      EXPECT_EQ(it, observed.end()) << "dropped row observed: " << row.uid;
      continue;
    }
    ASSERT_NE(it, observed.end()) << "counted row not observed: " << row.uid;
    const Observed& o = it->second;
    EXPECT_EQ(o.mutual, t.mutual) << row.uid;
    if (o.direction != t.direction && ++wrong_direction <= 5) {
      ADD_FAILURE() << "direction of " << row.uid << " (server "
                    << row.resp_h << ")";
    }
    EXPECT_EQ(o.server_leaf, leaf_of(row.cert_chain_fuids)) << row.uid;
    EXPECT_EQ(o.client_leaf, leaf_of(row.client_cert_chain_fuids)) << row.uid;
  }
  EXPECT_EQ(wrong_direction, 0u);
  EXPECT_EQ(observed.size(), totals.connections);

  // Totals and the interception verdict.
  const auto& got = result.totals();
  EXPECT_EQ(got.connections, totals.connections);
  EXPECT_EQ(got.established, totals.established);
  EXPECT_EQ(got.rejected_handshakes, totals.rejected_handshakes);
  EXPECT_EQ(got.mutual, totals.mutual);
  EXPECT_EQ(got.inbound, totals.inbound);
  EXPECT_EQ(got.outbound, totals.outbound);
  EXPECT_EQ(got.tls13, totals.tls13);
  EXPECT_EQ(result.interception_excluded_connections(), excluded);
  std::set<std::string> confirmed;
  for (const auto& issuer : result.interception_issuers()) {
    confirmed.insert(std::string(issuer));
  }
  EXPECT_EQ(confirmed, proxies);

  // Per certificate: class after chain upgrades, and usage aggregates.
  ASSERT_EQ(result.certificates().size(), usage.size());
  for (const auto& [fuid, u] : usage) {
    SCOPED_TRACE("certificate " + fuid);
    const auto it = result.certificates().find(std::string_view(fuid));
    ASSERT_NE(it, result.certificates().end());
    const core::CertFacts& f = it->second;
    EXPECT_EQ(f.issuer_class == trust::IssuerClass::kPublic,
              u.issuer_public || u.upgraded);
    EXPECT_EQ(f.flagged_interception, proxy_fuids.contains(fuid));
    EXPECT_EQ(f.connection_count, u.uses);
    EXPECT_EQ(f.used_as_server, u.as_server);
    EXPECT_EQ(f.used_as_client, u.as_client);
    EXPECT_EQ(f.used_in_mutual, u.in_mutual);
    EXPECT_EQ(f.seen_inbound, u.inbound);
    EXPECT_EQ(f.seen_outbound, u.outbound);
    EXPECT_EQ(f.first_seen, u.first);
    EXPECT_EQ(f.last_seen, u.last);
  }
}

TEST(TruthRecovery, HandBuiltModel) {
  const Trace trace = generate(hand_built_model());
  // The model must exercise every rule it is built for.
  std::size_t rejected = 0, tls13 = 0, intercepted = 0, mutual = 0;
  for (const ConnTruth& t : trace.truth) {
    rejected += !t.established;
    tls13 += t.tls13;
    intercepted += t.unit == ConnTruth::Unit::kInterception;
    mutual += t.mutual;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(tls13, 0u);
  EXPECT_GT(intercepted, 0u);
  EXPECT_GT(mutual, 0u);
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    check_recovery(trace, threads);
  }
}

TEST(TruthRecovery, SmallModelAtTwoSeeds) {
  for (const std::uint64_t seed : {20240504u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace trace = generate(small_model(seed));
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      check_recovery(trace, threads);
    }
  }
}

}  // namespace
}  // namespace mtlscope
