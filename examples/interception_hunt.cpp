// interception_hunt: demonstrate the CT-log-based TLS interception
// detection of §3.2.1 against a hand-built scenario.
//
// A corporate proxy re-signs popular public domains with its own CA; the
// hunter flags issuers whose certificates contradict CT across several
// domains while leaving legitimate private CAs (which never appear in CT)
// alone.
#include <cstdio>
#include <vector>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/ctlog/ct_database.hpp"
#include "mtlscope/tls/handshake.hpp"
#include "mtlscope/trust/authority.hpp"
#include "mtlscope/trust/public_cas.hpp"

using namespace mtlscope;

namespace {

x509::Certificate issue_for_domain(const trust::CertificateAuthority& ca,
                                   const std::string& domain,
                                   const std::string& label) {
  x509::DistinguishedName dn;
  dn.add_cn(domain);
  return ca.issue(x509::CertificateBuilder()
                      .serial_from_label(label)
                      .subject(dn)
                      .validity(util::to_unix({2023, 1, 1, 0, 0, 0}),
                                util::to_unix({2024, 1, 1, 0, 0, 0}))
                      .public_key(crypto::TsigKey::derive(label).key)
                      .add_san_dns(domain));
}

tls::TlsConnection browse(const x509::Certificate& server_cert,
                          const std::string& sni, int i) {
  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse("10.9.8.7"), 50000};
  client.sni = sni;
  tls::ServerProfile server;
  server.endpoint = {net::IpAddress::v4(203, 0, 113,
                                        static_cast<std::uint8_t>(i + 1)),
                     443};
  server.chain = {server_cert};
  return tls::simulate_handshake(
      client, server,
      {"Chunt" + std::to_string(i), util::to_unix({2023, 6, 1, 0, 0, 0}), 0});
}

}  // namespace

int main() {
  const char* kDomains[] = {"search-portal.com", "mail-hub.com",
                            "cdn-images.net", "social-feed.com",
                            "video-stream.net"};

  // CT knows the legitimate issuers of these public domains.
  ctlog::CtDatabase ct;
  const auto& pki = trust::public_pki();
  for (std::size_t i = 0; i < std::size(kDomains); ++i) {
    ct.log_certificate(kDomains[i],
                       pki.cas()[i % pki.cas().size()].intermediate.dn());
  }

  // The villain: a proxy CA re-signing all of them.
  x509::DistinguishedName proxy_dn;
  proxy_dn.add_org("Acme Security Appliances").add_cn("Acme SSL Inspector");
  const auto proxy = trust::CertificateAuthority::make_root(
      proxy_dn, 0, util::to_unix({2030, 1, 1, 0, 0, 0}));

  // The bystander: a legitimate private CA for an internal service that
  // never appears in CT.
  x509::DistinguishedName internal_dn;
  internal_dn.add_org("Quickstart Labs").add_cn("Quickstart Internal CA");
  const auto internal_ca = trust::CertificateAuthority::make_root(
      internal_dn, 0, util::to_unix({2030, 1, 1, 0, 0, 0}));

  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &ct;

  int conn_id = 0;
  std::vector<tls::TlsConnection> trace;
  // Intercepted browsing: proxy-signed certs for CT-known domains.
  for (int round = 0; round < 2; ++round) {
    for (const char* domain : kDomains) {
      trace.push_back(browse(
          issue_for_domain(proxy, domain,
                           std::string("proxy:") + domain),
          domain, conn_id++));
    }
  }
  // Legitimate internal service: private CA, domain unknown to CT.
  trace.push_back(browse(
      issue_for_domain(internal_ca, "intranet.quickstart-labs.com",
                       "internal:intranet"),
      "intranet.quickstart-labs.com", conn_id++));

  zeek::Dataset dataset;
  for (const auto& conn : trace) dataset.add_connection(conn);

  // Confirmation is a whole-stream pre-pass (executor phase C), so the
  // verdict must not depend on the worker count.
  core::PipelineExecutor serial(config, 1);
  const auto pipeline = serial.run(dataset);
  core::PipelineExecutor parallel(config, 4);
  const auto sharded = parallel.run(dataset);

  std::printf("interception issuers detected: %zu\n",
              pipeline.interception_issuers().size());
  for (const auto& issuer : pipeline.interception_issuers()) {
    std::printf("  FLAGGED: %s\n", issuer.c_str());
  }
  const std::size_t intercepted = 2 * std::size(kDomains);
  std::printf("connections excluded: %zu of %d (expected %zu)\n",
              pipeline.interception_excluded_connections(), conn_id,
              intercepted);
  std::printf("certificates flagged: %zu\n",
              pipeline.interception_flagged_certificates());

  bool internal_flagged = false;
  for (const auto& [fuid, facts] : pipeline.certificates()) {
    if (facts.issuer_org == "Quickstart Labs" &&
        (facts.flagged_interception ||
         pipeline.interception_issuers().contains(facts.issuer_dn))) {
      internal_flagged = true;
    }
  }
  std::printf("legitimate internal CA left alone: %s\n",
              internal_flagged ? "NO (bug!)" : "yes");

  const bool agree =
      sharded.interception_issuers() == pipeline.interception_issuers() &&
      sharded.interception_excluded_connections() ==
          pipeline.interception_excluded_connections();
  std::printf("1 and 4 workers agree: %s\n", agree ? "yes" : "NO (bug!)");
  const bool ok = agree && pipeline.interception_issuers().size() == 1 &&
                  pipeline.interception_excluded_connections() ==
                      intercepted &&
                  !internal_flagged;
  return ok ? 0 : 1;
}
