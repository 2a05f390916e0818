#include "mtlscope/tls/handshake.hpp"

#include <algorithm>

namespace mtlscope::tls {

std::string_view version_name(TlsVersion v) {
  switch (v) {
    case TlsVersion::kTls10:
      return "TLSv10";
    case TlsVersion::kTls11:
      return "TLSv11";
    case TlsVersion::kTls12:
      return "TLSv12";
    case TlsVersion::kTls13:
      return "TLSv13";
  }
  return "unknown";
}

std::optional<TlsVersion> version_from_name(std::string_view name) {
  if (name == "TLSv10") return TlsVersion::kTls10;
  if (name == "TLSv11") return TlsVersion::kTls11;
  if (name == "TLSv12") return TlsVersion::kTls12;
  if (name == "TLSv13") return TlsVersion::kTls13;
  return std::nullopt;
}

HandshakeOutcome handshake_outcome(const HandshakeTerms& terms) {
  HandshakeOutcome outcome;
  outcome.version = std::min(terms.client_max, terms.server_max);

  // The monitor's certificate visibility ends at TLS 1.3: the handshake
  // encrypts Certificate messages after ServerHello.
  const bool certificates_visible = outcome.version != TlsVersion::kTls13;

  const bool client_sends_chain =
      terms.request_client_certificate && terms.client_leaf.has_value();

  if (terms.validate_client_certificate && client_sends_chain &&
      !terms.client_leaf->contains(terms.validation_time)) {
    outcome.established = false;
  }

  outcome.server_chain_visible = certificates_visible;
  outcome.client_chain_visible = certificates_visible && client_sends_chain;
  return outcome;
}

TlsConnection simulate_handshake(const ClientProfile& client,
                                 const ServerProfile& server,
                                 const HandshakeOptions& options) {
  HandshakeTerms terms;
  terms.client_max = client.max_version;
  terms.server_max = server.max_version;
  terms.request_client_certificate = server.request_client_certificate;
  terms.validate_client_certificate = server.validate_client_certificate;
  if (!client.chain.empty()) terms.client_leaf = client.chain.front().validity;
  terms.validation_time = options.validation_time;
  const HandshakeOutcome outcome = handshake_outcome(terms);

  TlsConnection conn;
  conn.uid = options.uid;
  conn.timestamp = options.timestamp;
  conn.client = client.endpoint;
  conn.server = server.endpoint;
  conn.sni = client.sni.value_or("");
  conn.version = outcome.version;
  conn.established = outcome.established;
  if (outcome.server_chain_visible) conn.server_chain = server.chain;
  if (outcome.client_chain_visible) conn.client_chain = client.chain;
  return conn;
}

}  // namespace mtlscope::tls
