// The hand-built generator model the ground-truth oracle runs
// (truth_test), shared with gen_test, which checks the generator's
// up-front row count on it.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "mtlscope/gen/model.hpp"
#include "mtlscope/util/time.hpp"

namespace mtlscope::truth_models {

using gen::CnContent;
using gen::Direction;
using gen::IssuerKind;
using util::to_unix;

inline gen::CertSpec spec(IssuerKind kind, std::string issuer_ref,
                          CnContent cn, std::size_t count) {
  gen::CertSpec s;
  s.count = count;
  s.issuer_kind = kind;
  s.issuer_ref = std::move(issuer_ref);
  s.cn = {{cn, 1.0}};
  return s;
}

inline gen::TrafficCluster cluster(std::string name, Direction direction,
                                   std::string sld, std::size_t connections) {
  gen::TrafficCluster c;
  c.name = std::move(name);
  c.direction = direction;
  c.sld = std::move(sld);
  c.connections = connections;
  c.client_ips = 6;
  c.server_ips = 3;
  return c;
}

/// One cluster per rule the oracle checks: campus mutual TLS with some
/// TLS 1.3, public servers sending their intermediate, a one-off CT
/// mismatch, a private hosting
/// sub-CA under a public one (public only through its chain), the same
/// sub-CA behind a strict server that rejects every expired client (its
/// chains are never established, so no upgrade), certificates on both
/// ends, cross-connection sharing, client-only tunnels and a dummy
/// issuer; then two interception proxies and certificate-less background.
inline gen::CampusModel hand_built_model() {
  gen::CampusModel model;
  model.seed = 11;
  model.study_start = to_unix({2022, 5, 1, 0, 0, 0});
  model.study_end = to_unix({2024, 4, 1, 0, 0, 0});

  auto campus = cluster("campus", Direction::kInbound, "brexample.edu", 60);
  campus.server_certs =
      spec(IssuerKind::kCampus, "", CnContent::kHostUnderDomain, 2);
  campus.client_certs =
      spec(IssuerKind::kCampus, "", CnContent::kUserAccount, 6);
  campus.tls13_fraction = 0.25;
  model.clusters.push_back(campus);

  auto cloud = cluster("cloud", Direction::kOutbound, "api-cloud.com", 60);
  cloud.server_certs =
      spec(IssuerKind::kPublicCa, "", CnContent::kHostUnderDomain, 7);
  cloud.client_certs =
      spec(IssuerKind::kPrivateOrg, "Device Fleet", CnContent::kUuid, 5);
  cloud.tls13_fraction = 0.3;
  model.clusters.push_back(cloud);

  // A private certificate on a CT-logged domain: one mismatching domain
  // stays below the confirmation threshold.
  auto shadow = cluster("shadow", Direction::kOutbound, "api-cloud.com", 6);
  shadow.mutual = false;
  shadow.server_certs =
      spec(IssuerKind::kPrivateOrg, "Shadow IT", CnContent::kServiceDomain, 1);
  model.clusters.push_back(shadow);

  auto hosted = cluster("hosted", Direction::kOutbound, "hosted-shop.com", 20);
  hosted.mutual = false;
  hosted.server_certs =
      spec(IssuerKind::kHostingSubCa, "", CnContent::kServiceDomain, 2);
  model.clusters.push_back(hosted);

  auto strict = cluster("strict", Direction::kInbound, "strict-host.com", 10);
  strict.server_certs =
      spec(IssuerKind::kHostingSubCa, "", CnContent::kServiceDomain, 1);
  strict.client_certs =
      spec(IssuerKind::kPrivateOrg, "Strict Devices", CnContent::kUuid, 3);
  strict.client_certs.validity.expired_days_before_study = 60;
  strict.server_validates_clients = true;
  model.clusters.push_back(strict);

  auto both_ends = cluster("both-ends", Direction::kInbound, "", 20);
  both_ends.sni_override = "FXP DCAU Cert";
  both_ends.sharing = gen::SharingMode::kSameCertBothEnds;
  both_ends.server_certs = spec(IssuerKind::kPrivateOrg, "Globus Online",
                                CnContent::kRandomHex8, 3);
  model.clusters.push_back(both_ends);

  auto cross = cluster("cross", Direction::kOutbound, "p2p-mesh.net", 24);
  cross.sharing = gen::SharingMode::kCrossConnection;
  cross.server_certs =
      spec(IssuerKind::kSelfSigned, "", CnContent::kRandomHex32, 3);
  cross.client_certs =
      spec(IssuerKind::kSelfSigned, "", CnContent::kRandomHex32, 3);
  model.clusters.push_back(cross);

  auto tunnel = cluster("tunnel", Direction::kInbound, "vpn.brexample.edu", 10);
  tunnel.tunnel_client_only = true;
  tunnel.client_certs =
      spec(IssuerKind::kCampus, "", CnContent::kPersonalName, 4);
  model.clusters.push_back(tunnel);

  auto dummy = cluster("dummy", Direction::kOutbound, "fireboard.io", 10);
  dummy.server_certs = spec(IssuerKind::kDummy, "Internet Widgits Pty Ltd",
                            CnContent::kNonRandomToken, 2);
  dummy.client_certs = spec(IssuerKind::kDummy, "Internet Widgits Pty Ltd",
                            CnContent::kNonRandomToken, 2);
  model.clusters.push_back(dummy);

  model.interception.proxy_issuers = 2;
  model.interception.domains = 5;
  model.interception.connections = 30;
  model.background_connections = 300;
  return model;
}

}  // namespace mtlscope::truth_models
