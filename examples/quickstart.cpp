// Quickstart: the core mtlscope workflow in one file.
//
//  1. Create a private CA and issue server + client certificates.
//  2. Simulate a mutual-TLS handshake and capture the monitor's view.
//  3. Serialize the observation as Zeek ssl.log / x509.log text.
//  4. Re-parse the logs and run the measurement pipeline over them.
//
// Build & run:  ./build/examples/quickstart
#include <cstddef>
#include <cstdio>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/tls/handshake.hpp"
#include "mtlscope/trust/authority.hpp"
#include "mtlscope/trust/public_cas.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace mtlscope;

int main() {
  // --- 1. A private CA issues the two endpoint certificates. --------------
  x509::DistinguishedName ca_dn;
  ca_dn.add_org("Quickstart Labs").add_cn("Quickstart Labs Root CA");
  const auto ca = trust::CertificateAuthority::make_root(
      ca_dn, util::to_unix({2020, 1, 1, 0, 0, 0}),
      util::to_unix({2035, 1, 1, 0, 0, 0}));

  x509::DistinguishedName server_dn;
  server_dn.add_org("Quickstart Labs").add_cn("api.quickstart-labs.com");
  const auto server_cert = ca.issue(
      x509::CertificateBuilder()
          .serial_from_label("server-1")
          .subject(server_dn)
          .validity(util::to_unix({2023, 1, 1, 0, 0, 0}),
                    util::to_unix({2024, 6, 1, 0, 0, 0}))
          .public_key(crypto::TsigKey::derive("server-key").key)
          .add_san_dns("api.quickstart-labs.com")
          .add_eku(asn1::oids::eku_server_auth()));

  x509::DistinguishedName client_dn;
  client_dn.add_cn("John Smith");  // the privacy issue the paper studies
  const auto client_cert = ca.issue(
      x509::CertificateBuilder()
          .serial_from_label("client-1")
          .subject(client_dn)
          .validity(util::to_unix({2023, 1, 1, 0, 0, 0}),
                    util::to_unix({2024, 6, 1, 0, 0, 0}))
          .public_key(crypto::TsigKey::derive("client-key").key)
          .add_eku(asn1::oids::eku_client_auth()));

  std::printf("issued server cert: subject=%s serial=%s (%zu-byte DER)\n",
              server_cert.subject.to_string().c_str(),
              server_cert.serial_hex().c_str(), server_cert.der.size());
  std::printf("issued client cert: subject=%s fingerprint=%s…\n",
              client_cert.subject.to_string().c_str(),
              client_cert.fingerprint_hex().substr(0, 16).c_str());

  // Chain validation against the default (public) trust stores: a private
  // CA does not chain, as expected.
  const auto evaluator = trust::make_default_evaluator();
  std::printf("issuer class vs public roots: %s\n",
              evaluator.classify(server_cert) == trust::IssuerClass::kPublic
                  ? "Public CA"
                  : "Private CA");

  // --- 2. Mutual handshake as seen from the network border. ---------------
  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse("10.20.30.40"), 52100};
  client.sni = "api.quickstart-labs.com";
  client.chain = {client_cert};

  tls::ServerProfile server;
  server.endpoint = {*net::IpAddress::parse("128.143.7.7"), 443};
  server.chain = {server_cert};
  server.request_client_certificate = true;

  const auto conn = tls::simulate_handshake(
      client, server,
      {"Cq1quickstart", util::to_unix({2023, 6, 15, 12, 0, 0}), 0});
  std::printf("\nhandshake: established=%s mutual=%s version=%s sni=%s\n",
              conn.established ? "yes" : "no", conn.is_mutual() ? "yes" : "no",
              std::string(tls::version_name(conn.version)).c_str(),
              conn.sni.c_str());

  // --- 3. Zeek-format logs. ------------------------------------------------
  zeek::Dataset dataset;
  dataset.add_connection(conn);
  const std::string ssl_log = zeek::ssl_log_to_string(dataset.ssl());
  std::printf("\nssl.log:\n%s", ssl_log.c_str());

  // --- 4. Measurement pipeline over the logs (sharded executor). ----------
  // run_logs() cuts both logs into record-aligned parts, runs phases A–E
  // over them in parallel, and merges the shard pipelines
  // deterministically — the one phase engine every input (in-memory
  // trace, on-disk logs, compact container) runs through.
  core::PipelineExecutor executor(core::PipelineConfig::campus_defaults());
  executor.add_observer_factory([](std::size_t) {
    return [](const core::EnrichedConnection& enriched) {
      std::printf(
          "\npipeline: direction=%s mutual=%s sld=%s client-CN-type=%s "
          "client-issuer=%s\n",
          enriched.direction == core::Direction::kInbound ? "inbound"
                                                          : "outbound",
          enriched.mutual ? "yes" : "no", enriched.sld.c_str(),
          enriched.client_leaf
              ? textclass::info_type_name(enriched.client_leaf->cn_type)
              : "-",
          enriched.client_leaf ? core::issuer_category_name(
                                     enriched.client_leaf->issuer_category)
                               : "-");
    };
  });
  const auto pipeline =
      executor.run_logs(ssl_log, zeek::x509_log_to_string(dataset));
  if (!pipeline) {
    std::printf("log parse failed\n");
    return 1;
  }

  std::printf("\nThe client certificate exposed a personal name on the wire "
              "— exactly the privacy finding of the paper's Section 6.\n");
  return 0;
}
