#include <gtest/gtest.h>

#include <sstream>

#include "mtlscope/tls/handshake.hpp"
#include "mtlscope/trust/public_cas.hpp"
#include "mtlscope/util/time.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope {
namespace {

using util::to_unix;

x509::Certificate make_cert(const std::string& cn) {
  const auto* ca = trust::public_pki().find("digicert");
  x509::DistinguishedName dn;
  dn.add_org("Example").add_cn(cn);
  return ca->intermediate.issue(
      x509::CertificateBuilder()
          .serial_from_label("tlz:" + cn)
          .subject(dn)
          .validity(to_unix({2023, 1, 1, 0, 0, 0}),
                    to_unix({2024, 1, 1, 0, 0, 0}))
          .public_key(crypto::TsigKey::derive(cn).key)
          .add_san_dns(cn + ".example.com"));
}

tls::ClientProfile make_client(bool with_cert) {
  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse("10.1.2.3"), 50123};
  client.sni = "service.example.com";
  if (with_cert) client.chain = {make_cert("client-device")};
  return client;
}

tls::ServerProfile make_server(bool request_cert) {
  tls::ServerProfile server;
  server.endpoint = {*net::IpAddress::parse("192.0.2.10"), 443};
  server.chain = {make_cert("server-leaf")};
  server.request_client_certificate = request_cert;
  return server;
}

// --- handshake ----------------------------------------------------------------

TEST(Handshake, MutualWhenRequestedAndClientHasCert) {
  const auto conn = tls::simulate_handshake(make_client(true),
                                            make_server(true), {"C1", 100, 0});
  EXPECT_TRUE(conn.established);
  EXPECT_TRUE(conn.is_mutual());
  EXPECT_EQ(conn.server_chain.size(), 1u);
  EXPECT_EQ(conn.client_chain.size(), 1u);
  EXPECT_EQ(conn.sni, "service.example.com");
}

TEST(Handshake, NotMutualWithoutRequest) {
  const auto conn = tls::simulate_handshake(
      make_client(true), make_server(false), {"C2", 100, 0});
  EXPECT_TRUE(conn.established);
  EXPECT_FALSE(conn.is_mutual());
  EXPECT_TRUE(conn.client_chain.empty());
}

TEST(Handshake, NotMutualWhenClientHasNoCert) {
  const auto conn = tls::simulate_handshake(
      make_client(false), make_server(true), {"C3", 100, 0});
  EXPECT_FALSE(conn.is_mutual());
}

TEST(Handshake, VersionNegotiationIsMin) {
  auto client = make_client(false);
  auto server = make_server(false);
  client.max_version = tls::TlsVersion::kTls13;
  server.max_version = tls::TlsVersion::kTls12;
  EXPECT_EQ(tls::simulate_handshake(client, server, {"C4", 0, 0}).version,
            tls::TlsVersion::kTls12);
  server.max_version = tls::TlsVersion::kTls13;
  EXPECT_EQ(tls::simulate_handshake(client, server, {"C5", 0, 0}).version,
            tls::TlsVersion::kTls13);
}

TEST(Handshake, Tls13HidesCertificatesFromMonitor) {
  auto client = make_client(true);
  auto server = make_server(true);
  client.max_version = tls::TlsVersion::kTls13;
  server.max_version = tls::TlsVersion::kTls13;
  const auto conn = tls::simulate_handshake(client, server, {"C6", 0, 0});
  EXPECT_TRUE(conn.established);
  EXPECT_TRUE(conn.server_chain.empty());
  EXPECT_TRUE(conn.client_chain.empty());
  EXPECT_FALSE(conn.is_mutual());
}

TEST(Handshake, ValidatingServerRejectsExpiredClientCert) {
  auto client = make_client(true);
  auto server = make_server(true);
  server.validate_client_certificate = true;
  tls::HandshakeOptions options{"C7", 0, to_unix({2025, 1, 1, 0, 0, 0})};
  const auto conn = tls::simulate_handshake(client, server, options);
  EXPECT_FALSE(conn.established);
  // A lax server (the common case in the paper) accepts it.
  server.validate_client_certificate = false;
  EXPECT_TRUE(tls::simulate_handshake(client, server, options).established);
}

TEST(Handshake, MissingSniRecordedAsEmpty) {
  auto client = make_client(false);
  client.sni.reset();
  const auto conn =
      tls::simulate_handshake(client, make_server(false), {"C8", 0, 0});
  EXPECT_TRUE(conn.sni.empty());
}

// --- handshake outcome (shared with the trace generator) ---------------------

tls::HandshakeTerms mutual_terms() {
  tls::HandshakeTerms terms;
  terms.request_client_certificate = true;
  terms.client_leaf = x509::Validity{to_unix({2023, 1, 1, 0, 0, 0}),
                                     to_unix({2024, 1, 1, 0, 0, 0})};
  terms.validation_time = to_unix({2023, 6, 1, 0, 0, 0});
  return terms;
}

TEST(HandshakeOutcome, MutualShowsBothChains) {
  const auto outcome = tls::handshake_outcome(mutual_terms());
  EXPECT_EQ(outcome.version, tls::TlsVersion::kTls12);
  EXPECT_TRUE(outcome.established);
  EXPECT_TRUE(outcome.server_chain_visible);
  EXPECT_TRUE(outcome.client_chain_visible);
}

TEST(HandshakeOutcome, ValidatingServerRejectsExpiredClientLeaf) {
  auto terms = mutual_terms();
  terms.validate_client_certificate = true;
  terms.validation_time = to_unix({2025, 1, 1, 0, 0, 0});
  const auto outcome = tls::handshake_outcome(terms);
  EXPECT_FALSE(outcome.established);
  // The monitor still records what was sent.
  EXPECT_TRUE(outcome.client_chain_visible);
  terms.validate_client_certificate = false;
  EXPECT_TRUE(tls::handshake_outcome(terms).established);
}

TEST(HandshakeOutcome, Tls13HidesBothChains) {
  auto terms = mutual_terms();
  terms.client_max = tls::TlsVersion::kTls13;
  terms.server_max = tls::TlsVersion::kTls13;
  const auto outcome = tls::handshake_outcome(terms);
  EXPECT_EQ(outcome.version, tls::TlsVersion::kTls13);
  EXPECT_TRUE(outcome.established);
  EXPECT_FALSE(outcome.server_chain_visible);
  EXPECT_FALSE(outcome.client_chain_visible);
  // One side capped at 1.2 negotiates 1.2, and the chains show again.
  terms.server_max = tls::TlsVersion::kTls12;
  EXPECT_TRUE(tls::handshake_outcome(terms).client_chain_visible);
}

TEST(HandshakeOutcome, NoRequestNoClientChain) {
  auto terms = mutual_terms();
  terms.request_client_certificate = false;
  // Validation has nothing to check when no chain is sent.
  terms.validate_client_certificate = true;
  terms.validation_time = to_unix({2025, 1, 1, 0, 0, 0});
  const auto outcome = tls::handshake_outcome(terms);
  EXPECT_TRUE(outcome.established);
  EXPECT_TRUE(outcome.server_chain_visible);
  EXPECT_FALSE(outcome.client_chain_visible);
}

TEST(TlsVersion, NamesRoundTrip) {
  for (const auto v :
       {tls::TlsVersion::kTls10, tls::TlsVersion::kTls11,
        tls::TlsVersion::kTls12, tls::TlsVersion::kTls13}) {
    EXPECT_EQ(tls::version_from_name(tls::version_name(v)), v);
  }
  EXPECT_FALSE(tls::version_from_name("SSLv3").has_value());
}

// --- zeek records ----------------------------------------------------------------

TEST(ZeekRecords, FuidStableAndDistinct) {
  const auto a = make_cert("a");
  const auto b = make_cert("b");
  EXPECT_EQ(zeek::fuid_of(a), zeek::fuid_of(a));
  EXPECT_NE(zeek::fuid_of(a), zeek::fuid_of(b));
  EXPECT_EQ(zeek::fuid_of(a).size(), 18u);
  EXPECT_EQ(zeek::fuid_of(a)[0], 'F');
}

TEST(ZeekRecords, X509RecordFields) {
  const auto cert = make_cert("record-check");
  const auto rec = zeek::to_x509_record(cert);
  EXPECT_EQ(rec.version, 3);
  EXPECT_EQ(rec.subject, cert.subject.to_string());
  EXPECT_EQ(rec.issuer, cert.issuer.to_string());
  EXPECT_EQ(rec.not_valid_before, cert.validity.not_before);
  EXPECT_EQ(rec.not_valid_after, cert.validity.not_after);
  ASSERT_EQ(rec.san_dns.size(), 1u);
  EXPECT_EQ(rec.san_dns[0], "record-check.example.com");
  EXPECT_FALSE(rec.cert_der.empty());
}

TEST(ZeekDataset, DedupsCertificates) {
  zeek::Dataset dataset;
  const auto conn = tls::simulate_handshake(make_client(true),
                                            make_server(true), {"D1", 10, 0});
  dataset.add_connection(conn);
  dataset.add_connection(conn);
  EXPECT_EQ(dataset.connection_count(), 2u);
  EXPECT_EQ(dataset.certificate_count(), 2u);  // server leaf + client leaf
}

TEST(ZeekDataset, LinksConnectionsToCerts) {
  zeek::Dataset dataset;
  dataset.add_connection(tls::simulate_handshake(
      make_client(true), make_server(true), {"D2", 10, 0}));
  const auto& ssl = dataset.ssl().front();
  ASSERT_EQ(ssl.cert_chain_fuids.size(), 1u);
  ASSERT_EQ(ssl.client_cert_chain_fuids.size(), 1u);
  EXPECT_NE(dataset.find_certificate(ssl.cert_chain_fuids[0]), nullptr);
  EXPECT_NE(dataset.find_certificate(ssl.client_cert_chain_fuids[0]), nullptr);
  EXPECT_EQ(dataset.find_certificate("Fnonexistent"), nullptr);
}

// --- zeek log I/O ------------------------------------------------------------------

zeek::Dataset sample_dataset() {
  zeek::Dataset dataset;
  dataset.add_connection(tls::simulate_handshake(
      make_client(true), make_server(true),
      {"CqyyZ51i8BpzXgVuT7", to_unix({2022, 5, 1, 8, 30, 0}), 0}));
  auto client = make_client(false);
  client.sni.reset();  // exercise unset SNI
  dataset.add_connection(tls::simulate_handshake(
      client, make_server(false), {"CabcDE1234", to_unix({2022, 5, 2, 0, 0, 0}), 0}));
  return dataset;
}

TEST(ZeekLogIo, SslRoundTrip) {
  const auto dataset = sample_dataset();
  const std::string text = zeek::ssl_log_to_string(dataset.ssl());
  EXPECT_NE(text.find("#fields"), std::string::npos);
  EXPECT_NE(text.find("#path\tssl"), std::string::npos);

  std::istringstream in(text);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), dataset.ssl().size());
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    const auto& a = (*parsed)[i];
    const auto& b = dataset.ssl()[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.uid, b.uid);
    EXPECT_EQ(a.orig_h, b.orig_h);
    EXPECT_EQ(a.orig_p, b.orig_p);
    EXPECT_EQ(a.resp_h, b.resp_h);
    EXPECT_EQ(a.resp_p, b.resp_p);
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.server_name, b.server_name);
    EXPECT_EQ(a.established, b.established);
    EXPECT_EQ(a.cert_chain_fuids, b.cert_chain_fuids);
    EXPECT_EQ(a.client_cert_chain_fuids, b.client_cert_chain_fuids);
  }
}

TEST(ZeekLogIo, X509RoundTrip) {
  const auto dataset = sample_dataset();
  const std::string text = zeek::x509_log_to_string(dataset);
  std::istringstream in(text);
  const auto parsed = zeek::parse_x509_log(in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), dataset.certificate_count());
  for (const auto& rec : *parsed) {
    const auto* original = dataset.find_certificate(rec.fuid);
    ASSERT_NE(original, nullptr) << rec.fuid;
    EXPECT_EQ(rec.serial, original->serial);
    EXPECT_EQ(rec.subject, original->subject);
    EXPECT_EQ(rec.issuer, original->issuer);
    EXPECT_EQ(rec.not_valid_before, original->not_valid_before);
    EXPECT_EQ(rec.not_valid_after, original->not_valid_after);
    EXPECT_EQ(rec.san_dns, original->san_dns);
    EXPECT_EQ(rec.cert_der, original->cert_der);
  }
}

TEST(ZeekLogIo, DatasetRoundTrip) {
  const auto dataset = sample_dataset();
  std::istringstream ssl_in(zeek::ssl_log_to_string(dataset.ssl()));
  std::istringstream x509_in(zeek::x509_log_to_string(dataset));
  const auto parsed = zeek::parse_dataset(ssl_in, x509_in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->connection_count(), dataset.connection_count());
  EXPECT_EQ(parsed->certificate_count(), dataset.certificate_count());
}

TEST(ZeekLogIo, EscapesCommasInSetValues) {
  zeek::Dataset dataset;
  zeek::X509Record rec;
  rec.fuid = "Fdeadbeefdeadbeefd";
  rec.san_dns = {"a,b", "plain"};
  dataset.add_x509(rec);
  const std::string text = zeek::x509_log_to_string(dataset);
  std::istringstream in(text);
  const auto parsed = zeek::parse_x509_log(in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].san_dns,
            (std::vector<colfmt::Str>{"a,b", "plain"}));
}

TEST(ZeekLogIo, ParseRejectsMissingHeader) {
  // Comments only, no #fields line and no data rows.
  std::istringstream in("#path\tssl\n#types\ttime\n");
  zeek::LogParseError error;
  EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
  EXPECT_EQ(error.message, "missing #fields header");
}

TEST(ZeekLogIo, ParseRejectsDataRowBeforeHeader) {
  // A data row before any #fields line used to be silently buffered (and
  // mapped by whichever header showed up later); it is now a structured
  // error pointing at the offending physical line.
  std::istringstream in("#path\tssl\nno header here\n");
  zeek::LogParseError error;
  EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
  EXPECT_EQ(error.message, "data row before #fields header");
  EXPECT_EQ(error.line, 2u);
}

TEST(ZeekLogIo, ParseRejectsFieldCountMismatch) {
  std::istringstream in(
      "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\n"
      "1.0\tC1\n");
  zeek::LogParseError error;
  EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
  EXPECT_EQ(error.message, "field count mismatch");
}

TEST(ZeekLogIo, ParseRejectsBadTimestamp) {
  std::istringstream in(
      "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\n"
      "oops\tC1\t10.0.0.1\t1\t10.0.0.2\t2\n");
  EXPECT_FALSE(zeek::parse_ssl_log(in).has_value());
}

TEST(ZeekLogIo, EmptyCertFromTls13ProducesEmptySets) {
  zeek::Dataset dataset;
  auto client = make_client(true);
  auto server = make_server(true);
  client.max_version = tls::TlsVersion::kTls13;
  server.max_version = tls::TlsVersion::kTls13;
  dataset.add_connection(
      tls::simulate_handshake(client, server, {"T13", 5, 0}));
  const std::string text = zeek::ssl_log_to_string(dataset.ssl());
  EXPECT_NE(text.find("(empty)"), std::string::npos);
  std::istringstream in(text);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE((*parsed)[0].cert_chain_fuids.empty());
  EXPECT_FALSE((*parsed)[0].is_mutual());
}

}  // namespace
}  // namespace mtlscope
