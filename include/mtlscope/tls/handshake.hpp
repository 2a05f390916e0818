// Handshake simulation: negotiates what a real TLS handshake would have
// produced and renders it as the TlsConnection a border monitor records.
//
// This replaces the paper's collection substrate (real endpoints observed
// by Zeek). Version negotiation, certificate-request behaviour, and the
// TLS-1.3 certificate-encryption blind spot are modeled; record-layer
// crypto is not, since the monitor never sees it anyway.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mtlscope/tls/connection.hpp"

namespace mtlscope::tls {

/// What the server endpoint is configured to do.
struct ServerProfile {
  Endpoint endpoint;
  TlsVersion max_version = TlsVersion::kTls12;
  std::vector<x509::Certificate> chain;  // leaf first
  bool request_client_certificate = false;
  /// Paper finding: many servers accept clients whose certificates would
  /// fail validation (expired, no issuer…). Modeled as a server that
  /// requests but never rejects.
  bool validate_client_certificate = false;
};

/// What the client endpoint is configured to do.
struct ClientProfile {
  Endpoint endpoint;
  TlsVersion max_version = TlsVersion::kTls12;
  std::optional<std::string> sni;
  std::vector<x509::Certificate> chain;  // empty → no client certificate
};

struct HandshakeOptions {
  std::string uid;
  util::UnixSeconds timestamp = 0;
  /// Wall-clock time used when the server does validate client certs.
  util::UnixSeconds validation_time = 0;
};

/// What decides a handshake's outcome, short of the certificate bytes.
struct HandshakeTerms {
  TlsVersion client_max = TlsVersion::kTls12;
  TlsVersion server_max = TlsVersion::kTls12;
  bool request_client_certificate = false;
  bool validate_client_certificate = false;
  /// Validity of the client's leaf; nullopt when the client has no
  /// certificate to send.
  std::optional<x509::Validity> client_leaf;
  util::UnixSeconds validation_time = 0;
};

/// The monitor's view of a handshake, short of the certificate bytes:
/// which chains it records and whether the session came up.
struct HandshakeOutcome {
  TlsVersion version = TlsVersion::kTls12;
  bool established = true;
  bool server_chain_visible = false;
  bool client_chain_visible = false;
};

/// The handshake rules, shared by simulate_handshake and the trace
/// generator (which plans connections without copying chains):
///  - negotiated version = min(client_max, server_max);
///  - under TLS 1.3 both chains are invisible to the monitor (empty in
///    the result) but the connection is still recorded;
///  - the client sends its chain only if the server requested one;
///  - if the server validates and the client leaf is outside its
///    validity at `validation_time`, the connection is recorded as not
///    established.
HandshakeOutcome handshake_outcome(const HandshakeTerms& terms);

/// Runs the simulated handshake and returns the monitor's view, by the
/// rules of handshake_outcome.
TlsConnection simulate_handshake(const ClientProfile& client,
                                 const ServerProfile& server,
                                 const HandshakeOptions& options);

}  // namespace mtlscope::tls
