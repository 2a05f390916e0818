// Pipeline's per-connection rules (§3.2): each case runs a hand-built
// trace through a one-thread PipelineExecutor over the Zeek-record view
// that Dataset::add_connection produces.
#include <gtest/gtest.h>

#include "mtlscope/core/enrich.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/tls/handshake.hpp"
#include "mtlscope/trust/authority.hpp"
#include "mtlscope/trust/public_cas.hpp"

namespace mtlscope::core {
namespace {

using util::to_unix;

const util::UnixSeconds kTs = to_unix({2023, 3, 1, 12, 0, 0});

x509::Certificate make_cert(const std::string& cn, bool public_ca,
                            util::UnixSeconds nb = to_unix({2023, 1, 1, 0, 0, 0}),
                            util::UnixSeconds na = to_unix({2024, 1, 1, 0, 0, 0})) {
  x509::CertificateBuilder builder;
  x509::DistinguishedName dn;
  dn.add_cn(cn);
  builder.serial_from_label("pt:" + cn)
      .subject(dn)
      .validity(nb, na)
      .public_key(crypto::TsigKey::derive(cn).key)
      .add_san_dns(cn + ".example.com");
  if (public_ca) {
    return trust::public_pki().find("digicert")->intermediate.issue(builder);
  }
  x509::DistinguishedName ca_dn;
  ca_dn.add_org("Pipeline Test Org").add_cn("Pipeline Test CA");
  static const auto ca = trust::CertificateAuthority::make_root(
      ca_dn, 0, to_unix({2040, 1, 1, 0, 0, 0}));
  return ca.issue(builder);
}

tls::TlsConnection make_conn(const std::string& client_ip,
                             const std::string& server_ip,
                             const x509::Certificate* server_cert,
                             const x509::Certificate* client_cert,
                             const std::string& sni = "service.example.com",
                             util::UnixSeconds ts = kTs) {
  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse(client_ip), 55555};
  if (!sni.empty()) client.sni = sni;
  if (client_cert != nullptr) client.chain = {*client_cert};
  tls::ServerProfile server;
  server.endpoint = {*net::IpAddress::parse(server_ip), 443};
  if (server_cert != nullptr) server.chain = {*server_cert};
  server.request_client_certificate = client_cert != nullptr;
  return tls::simulate_handshake(client, server, {"Cpt", ts, ts});
}

/// Runs `trace` through the executor, with `observer` (when set) seeing
/// every counted connection and `ct` (when set) enabling phase C.
Pipeline run(const std::vector<tls::TlsConnection>& trace,
             const Pipeline::Observer& observer = nullptr,
             const ctlog::CtDatabase* ct = nullptr) {
  zeek::Dataset dataset;
  for (const auto& conn : trace) dataset.add_connection(conn);
  auto config = PipelineConfig::campus_defaults();
  config.ct = ct;
  PipelineExecutor executor(std::move(config), 1);
  if (observer) {
    executor.add_observer_factory([&observer](std::size_t) { return observer; });
  }
  return executor.run(dataset);
}

TEST(Pipeline, DirectionInference) {
  const auto server_cert = make_cert("dir-server", false);
  std::vector<Direction> seen;
  const auto pipeline = run(
      {// Server inside 128.143/16 → inbound.
       make_conn("203.0.113.9", "128.143.1.1", &server_cert, nullptr),
       // Server outside, client inside 10/8 → outbound.
       make_conn("10.1.2.3", "198.51.100.1", &server_cert, nullptr)},
      [&seen](const EnrichedConnection& c) { seen.push_back(c.direction); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Direction::kInbound);
  EXPECT_EQ(seen[1], Direction::kOutbound);
  EXPECT_EQ(pipeline.totals().inbound, 1u);
  EXPECT_EQ(pipeline.totals().outbound, 1u);
}

TEST(Pipeline, MutualDetection) {
  const auto server_cert = make_cert("m-server", false);
  const auto client_cert = make_cert("m-client", false);
  int mutual = 0, total = 0;
  const auto pipeline = run(
      {make_conn("10.0.0.1", "198.51.100.1", &server_cert, &client_cert),
       make_conn("10.0.0.1", "198.51.100.1", &server_cert, nullptr),
       make_conn("10.0.0.1", "198.51.100.1", nullptr, &client_cert)},
      [&](const EnrichedConnection& c) {
        ++total;
        mutual += c.mutual;
      });
  EXPECT_EQ(total, 3);
  EXPECT_EQ(mutual, 1);
  EXPECT_EQ(pipeline.totals().mutual, 1u);
}

TEST(Pipeline, SldAndTldFromSni) {
  const auto server_cert = make_cert("sld-server", true);
  std::string sld, tld;
  run({make_conn("10.0.0.1", "198.51.100.1", &server_cert, nullptr,
                 "api.us-east.amazonaws.com")},
      [&](const EnrichedConnection& c) {
        sld = c.sld;
        tld = c.tld;
      });
  EXPECT_EQ(sld, "amazonaws.com");
  EXPECT_EQ(tld, "com");
}

TEST(Pipeline, HostFallbackToSanWhenSniMissing) {
  const auto server_cert = make_cert("fallback", true);  // SAN fallback.example.com
  std::string resolved, sld;
  run({make_conn("10.0.0.1", "198.51.100.1", &server_cert, nullptr, "")},
      [&](const EnrichedConnection& c) {
        resolved = c.resolved_host;
        sld = c.sld;
      });
  EXPECT_EQ(resolved, "fallback.example.com");
  EXPECT_EQ(sld, "example.com");
}

TEST(Pipeline, ServerAssociationRules) {
  const auto server_cert = make_cert("assoc", false);
  std::vector<tls::TlsConnection> trace;
  for (const char* host : {"portal.brhealth.org", "vpn.brexample.edu",
                           "www.brexample.edu", "x.localmed.org",
                           "transfer.globus.org", "mystery.example.com"}) {
    trace.push_back(
        make_conn("203.0.113.9", "128.143.1.1", &server_cert, nullptr, host));
  }
  std::vector<ServerAssociation> seen;
  run(trace, [&seen](const EnrichedConnection& c) { seen.push_back(c.assoc); });
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen[0], ServerAssociation::kUniversityHealth);
  EXPECT_EQ(seen[1], ServerAssociation::kUniversityVpn);
  EXPECT_EQ(seen[2], ServerAssociation::kUniversityServer);
  EXPECT_EQ(seen[3], ServerAssociation::kLocalOrganization);
  EXPECT_EQ(seen[4], ServerAssociation::kGlobus);
  EXPECT_EQ(seen[5], ServerAssociation::kUnknown);
}

TEST(Pipeline, NonDomainSniIsUnknownAssociation) {
  // The Globus "FXP DCAU Cert" SNI is not a domain: no SLD, Unknown assoc.
  const auto server_cert = make_cert("fxp", false);
  ServerAssociation assoc = ServerAssociation::kNone;
  std::string sld = "x";
  run({make_conn("203.0.113.9", "128.143.1.1", &server_cert, nullptr,
                 "FXP DCAU Cert")},
      [&](const EnrichedConnection& c) {
        assoc = c.assoc;
        sld = c.sld;
      });
  EXPECT_EQ(assoc, ServerAssociation::kUnknown);
  EXPECT_TRUE(sld.empty());
}

TEST(Pipeline, CertFactsClassification) {
  const auto pub = make_cert("pub-leaf", true);
  const auto priv = make_cert("priv-leaf", false);
  const auto pipeline =
      run({make_conn("10.0.0.1", "198.51.100.1", &pub, &priv)});
  const auto& certs = pipeline.certificates();
  ASSERT_EQ(certs.size(), 2u);
  const auto& pub_facts = certs.at(zeek::fuid_of(pub));
  const auto& priv_facts = certs.at(zeek::fuid_of(priv));
  EXPECT_EQ(pub_facts.issuer_class, trust::IssuerClass::kPublic);
  EXPECT_EQ(priv_facts.issuer_class, trust::IssuerClass::kPrivate);
  EXPECT_EQ(pub_facts.issuer_category, IssuerCategory::kPublic);
  EXPECT_TRUE(pub_facts.used_as_server);
  EXPECT_FALSE(pub_facts.used_as_client);
  EXPECT_TRUE(priv_facts.used_as_client);
  EXPECT_TRUE(priv_facts.used_in_mutual);
  EXPECT_EQ(pub_facts.serial_hex, pub.serial_hex());
}

TEST(Pipeline, UsageAggregation) {
  const auto server_cert = make_cert("agg-server", false);
  const auto client_cert = make_cert("agg-client", false);
  const auto t1 = to_unix({2023, 2, 1, 0, 0, 0});
  const auto t2 = to_unix({2023, 8, 1, 0, 0, 0});
  const auto pipeline =
      run({make_conn("10.0.0.1", "198.51.100.1", &server_cert, &client_cert,
                     "s.example.com", t1),
           make_conn("10.0.0.2", "198.51.100.1", &server_cert, &client_cert,
                     "s.example.com", t2)});
  const auto& facts =
      pipeline.certificates().at(zeek::fuid_of(client_cert));
  EXPECT_EQ(facts.connection_count, 2u);
  EXPECT_EQ(facts.first_seen, t1);
  EXPECT_EQ(facts.last_seen, t2);
  EXPECT_NEAR(facts.activity_days(), 181.0, 1.0);
  EXPECT_EQ(facts.client_subnets.size(), 1u);  // both clients in 10.0.0/24
}

TEST(Pipeline, ExpiredClientUseDetected) {
  const auto server_cert = make_cert("exp-server", false);
  const auto expired = make_cert("exp-client", false,
                                 to_unix({2020, 1, 1, 0, 0, 0}),
                                 to_unix({2021, 1, 1, 0, 0, 0}));
  const auto pipeline =
      run({make_conn("10.0.0.1", "198.51.100.1", &server_cert, &expired)});
  const auto& facts = pipeline.certificates().at(zeek::fuid_of(expired));
  EXPECT_TRUE(facts.client_use_while_expired);
}

TEST(Pipeline, SubnetTrackingByRole) {
  const auto cert = make_cert("role-cert", false);
  // Used as server from one address, as client from two /24s.
  const auto pipeline =
      run({make_conn("10.0.1.1", "198.51.100.1", &cert, nullptr),
           make_conn("10.0.2.1", "198.51.100.9", nullptr, &cert),
           make_conn("10.0.3.1", "198.51.100.9", nullptr, &cert)});
  const auto& facts = pipeline.certificates().at(zeek::fuid_of(cert));
  EXPECT_TRUE(facts.used_as_server);
  EXPECT_TRUE(facts.used_as_client);
  EXPECT_EQ(facts.server_subnets.size(), 1u);
  EXPECT_EQ(facts.client_subnets.size(), 2u);
}

TEST(Pipeline, InterceptionConfirmationThreshold) {
  // A CT-mismatching issuer is confirmed once it re-signs three distinct
  // CT-logged domains; then every one of its connections is excluded.
  const char* kDomains[] = {"aaa.com", "bbb.com", "ccc.com", "ddd.com"};
  ctlog::CtDatabase ct;
  const auto& le = trust::public_pki().find("lets-encrypt")->intermediate;
  for (const char* domain : kDomains) ct.log_certificate(domain, le.dn());

  x509::DistinguishedName proxy_dn;
  proxy_dn.add_org("Proxy Corp").add_cn("Proxy Inspection CA");
  const auto proxy = trust::CertificateAuthority::make_root(
      proxy_dn, 0, to_unix({2040, 1, 1, 0, 0, 0}));
  std::vector<x509::Certificate> certs;
  for (const char* domain : kDomains) {
    x509::DistinguishedName dn;
    dn.add_cn(domain);
    certs.push_back(
        proxy.issue(x509::CertificateBuilder()
                        .serial_from_label(std::string("icept:") + domain)
                        .subject(dn)
                        .validity(0, to_unix({2030, 1, 1, 0, 0, 0}))
                        .public_key(crypto::TsigKey::derive(domain).key)
                        .add_san_dns(domain)));
  }

  for (std::size_t domains = 1; domains <= std::size(kDomains); ++domains) {
    SCOPED_TRACE(std::to_string(domains) + " domains");
    std::vector<tls::TlsConnection> trace;
    for (std::size_t i = 0; i < domains; ++i) {
      trace.push_back(make_conn("10.0.0.1", "198.51.100.1", &certs[i],
                                nullptr, kDomains[i]));
    }
    int observed = 0;
    const auto pipeline = run(
        trace, [&observed](const EnrichedConnection&) { ++observed; }, &ct);
    const bool confirmed = domains >= 3;
    EXPECT_EQ(pipeline.interception_issuers().size(), confirmed ? 1u : 0u);
    EXPECT_EQ(pipeline.interception_excluded_connections(),
              confirmed ? domains : 0u);
    EXPECT_EQ(pipeline.interception_flagged_certificates(),
              confirmed ? domains : 0u);
    EXPECT_EQ(pipeline.totals().connections, confirmed ? 0u : domains);
    EXPECT_EQ(observed, confirmed ? 0 : static_cast<int>(domains));
  }
}

TEST(Pipeline, LegitimatePrivateCaNotFlagged) {
  ctlog::CtDatabase ct;  // CT knows nothing about the internal domain
  const auto cert = make_cert("internal-service", false);
  std::vector<tls::TlsConnection> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(make_conn("10.0.0.1", "198.51.100.1", &cert, nullptr,
                              "internal-service.example.com"));
  }
  int observed = 0;
  const auto pipeline = run(
      trace, [&observed](const EnrichedConnection&) { ++observed; }, &ct);
  EXPECT_EQ(observed, 5);
  EXPECT_TRUE(pipeline.interception_issuers().empty());
}

TEST(Pipeline, ChainUpgradesPrivateLeafToPublic) {
  // §3.2.1: a leaf is public when its root OR INTERMEDIATE is in a trust
  // store — even if the direct issuer is unknown.
  const auto* digicert = trust::public_pki().find("digicert");
  x509::DistinguishedName sub_dn;
  sub_dn.add_org("Chain Test Hosting").add_cn("Chain Test Issuing CA");
  const auto subca = trust::CertificateAuthority::make_intermediate(
      digicert->intermediate, sub_dn, 0, to_unix({2038, 1, 1, 0, 0, 0}));
  x509::DistinguishedName leaf_dn;
  leaf_dn.add_cn("shop.example.com");
  const auto leaf =
      subca.issue(x509::CertificateBuilder()
                      .serial_from_label("chain-leaf")
                      .subject(leaf_dn)
                      .validity(to_unix({2023, 1, 1, 0, 0, 0}),
                                to_unix({2024, 1, 1, 0, 0, 0}))
                      .public_key(crypto::TsigKey::derive("cl").key)
                      .add_san_dns("shop.example.com"));

  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse("10.0.0.1"), 55555};
  client.sni = "shop.example.com";
  tls::ServerProfile server;
  server.endpoint = {*net::IpAddress::parse("198.51.100.1"), 443};
  server.chain = {leaf, subca.certificate()};  // leaf + intermediate
  const auto pipeline =
      run({tls::simulate_handshake(client, server, {"CC1", kTs, kTs})});

  const auto& facts = pipeline.certificates().at(zeek::fuid_of(leaf));
  EXPECT_EQ(facts.issuer_class, trust::IssuerClass::kPublic);
  EXPECT_EQ(facts.issuer_category, IssuerCategory::kPublic);
}

TEST(Pipeline, LeafOnlyChainStaysPrivate) {
  // The same sub-CA leaf WITHOUT the intermediate in the chain cannot be
  // validated as public — exactly the paper's untrusted-issuer concern.
  const auto* digicert = trust::public_pki().find("digicert");
  x509::DistinguishedName sub_dn;
  sub_dn.add_org("Chain Test Hosting").add_cn("Chain Test Issuing CA");
  const auto subca = trust::CertificateAuthority::make_intermediate(
      digicert->intermediate, sub_dn, 0, to_unix({2038, 1, 1, 0, 0, 0}));
  x509::DistinguishedName leaf_dn;
  leaf_dn.add_cn("bare.example.com");
  const auto leaf =
      subca.issue(x509::CertificateBuilder()
                      .serial_from_label("bare-leaf")
                      .subject(leaf_dn)
                      .validity(to_unix({2023, 1, 1, 0, 0, 0}),
                                to_unix({2024, 1, 1, 0, 0, 0}))
                      .public_key(crypto::TsigKey::derive("bl").key));
  const auto pipeline = run({make_conn("10.0.0.1", "198.51.100.1", &leaf,
                                       nullptr, "bare.example.com")});
  const auto& facts = pipeline.certificates().at(zeek::fuid_of(leaf));
  EXPECT_EQ(facts.issuer_class, trust::IssuerClass::kPrivate);
}

TEST(Pipeline, Tls13ConnectionsCountedButCertInvisible) {
  const auto server_cert = make_cert("t13-server", false);
  const auto client_cert = make_cert("t13-client", false);
  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse("10.0.0.1"), 55555};
  client.max_version = tls::TlsVersion::kTls13;
  client.chain = {client_cert};
  tls::ServerProfile server;
  server.endpoint = {*net::IpAddress::parse("198.51.100.1"), 443};
  server.max_version = tls::TlsVersion::kTls13;
  server.chain = {server_cert};
  server.request_client_certificate = true;
  const auto pipeline =
      run({tls::simulate_handshake(client, server, {"C13", kTs, kTs})});
  EXPECT_EQ(pipeline.totals().connections, 1u);
  EXPECT_EQ(pipeline.totals().tls13, 1u);
  EXPECT_EQ(pipeline.totals().mutual, 0u);
  EXPECT_TRUE(pipeline.certificates().empty());
}

TEST(Pipeline, FactsFromLogFieldsWithoutDer) {
  // Real Zeek deployments usually do not log the DER; facts must come
  // from the parsed log fields.
  const Enricher enricher(PipelineConfig::campus_defaults());
  zeek::X509Record record;
  record.fuid = "Fnoderlogonly000001";
  record.version = 3;
  record.serial = "0A0B";
  record.subject = "CN=John Smith";
  record.issuer = "O=Blue Ridge University,CN=Blue Ridge University User CA";
  record.not_valid_before = 0;
  record.not_valid_after = to_unix({2030, 1, 1, 0, 0, 0});
  record.key_length = 2048;
  const CertFacts facts = enricher.make_facts(record);
  EXPECT_EQ(facts.fuid, record.fuid);
  EXPECT_EQ(facts.subject_cn, "John Smith");
  EXPECT_EQ(facts.cn_type, textclass::InfoType::kPersonalName);
  EXPECT_TRUE(facts.campus_issuer);
  EXPECT_EQ(facts.issuer_category, IssuerCategory::kPrivateEducation);
  EXPECT_EQ(facts.serial_hex, "0A0B");
}

}  // namespace
}  // namespace mtlscope::core
