// Connection-level analyzers (Figures 1-2, Tables 2-6, 10-12, §5.1).
#include <algorithm>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/net/services.hpp"

namespace mtlscope::core {
namespace {

/// Client identity key: the IPv4 address (the paper's "number of client
/// IPs" estimate). IPv6 addresses hash into the same space.
std::uint32_t client_key(const EnrichedConnection& conn) {
  // The pipeline's enrichment memo resolves this per unique address; the
  // parse below is the fallback for hand-built test connections.
  if (conn.client_key != 0) return conn.client_key;
  const auto addr = net::IpAddress::parse(conn.ssl->orig_h);
  if (!addr) return 0;
  if (addr->is_v4()) return addr->v4_value();
  std::uint32_t h = 0x811c9dc5;
  for (const auto b : addr->v6_bytes()) h = (h ^ b) * 0x01000193;
  return h;
}

std::string issuer_label(const CertFacts& facts) {
  if (!facts.issuer_org.empty()) return facts.issuer_org.str();
  if (!facts.issuer_cn.empty()) return facts.issuer_cn.str();
  return "(missing)";
}

}  // namespace

const char* cert_scope_name(CertScope scope) {
  switch (scope) {
    case CertScope::kMutual:
      return "mutual TLS";
    case CertScope::kShared:
      return "shared (server+client)";
    case CertScope::kNonMutual:
      return "non-mutual TLS";
  }
  return "?";
}

// --- Figure 1 ----------------------------------------------------------------

void PrevalenceAnalyzer::observe(const EnrichedConnection& conn) {
  auto& point = months_[util::month_index(conn.ts)];
  point.month_index = util::month_index(conn.ts);
  ++point.total;
  if (conn.mutual) {
    ++point.mutual;
    if (conn.direction == Direction::kInbound) {
      ++point.mutual_inbound;
    } else {
      ++point.mutual_outbound;
    }
  }
}

std::vector<PrevalenceAnalyzer::MonthPoint> PrevalenceAnalyzer::series()
    const {
  std::vector<MonthPoint> out;
  out.reserve(months_.size());
  for (const auto& [idx, point] : months_) out.push_back(point);
  return out;
}

// --- Table 2 -------------------------------------------------------------------

void ServicePortAnalyzer::observe(const EnrichedConnection& conn) {
  const std::size_t quadrant =
      (conn.direction == Direction::kOutbound ? 2u : 0u) +
      (conn.mutual ? 1u : 0u);
  const std::uint16_t port = conn.ssl->resp_p;
  // The paper groups Globus's 50000-51000 range as one service row.
  const std::string label = (port >= 50000 && port <= 51000)
                                ? "50000-51000"
                                : std::to_string(port);
  ++counts_[quadrant][label];
  ++totals_[quadrant];
}

std::vector<ServicePortAnalyzer::PortShare> ServicePortAnalyzer::top(
    Direction direction, bool mutual, std::size_t n) const {
  const std::size_t quadrant =
      (direction == Direction::kOutbound ? 2u : 0u) + (mutual ? 1u : 0u);
  std::vector<PortShare> shares;
  for (const auto& [label, count] : counts_[quadrant]) {
    PortShare s;
    s.port_label = label;
    s.connections = count;
    s.share = totals_[quadrant] == 0
                  ? 0
                  : 100.0 * static_cast<double>(count) /
                        static_cast<double>(totals_[quadrant]);
    const bool university = direction == Direction::kInbound;
    if (label == "50000-51000") {
      s.service = "Corp. - Globus";
    } else {
      s.service = net::service_label(
          static_cast<std::uint16_t>(std::stoi(label)), university);
    }
    shares.push_back(std::move(s));
  }
  std::sort(shares.begin(), shares.end(),
            [](const PortShare& a, const PortShare& b) {
              return a.connections > b.connections;
            });
  if (shares.size() > n) shares.resize(n);
  return shares;
}

// --- Table 3 ----------------------------------------------------------------------

void InboundAssociationAnalyzer::observe(const EnrichedConnection& conn) {
  if (conn.direction != Direction::kInbound || !conn.mutual) return;
  ++total_conns_;
  auto& acc = acc_[conn.assoc];
  ++acc.connections;
  const std::uint32_t client = client_key(conn);
  acc.clients.insert(client);
  if (conn.client_leaf != nullptr) {
    acc.clients_by_category[conn.client_leaf->issuer_category].insert(client);
  }
}

std::vector<InboundAssociationAnalyzer::Row> InboundAssociationAnalyzer::rows()
    const {
  std::vector<Row> out;
  for (const auto& [assoc, acc] : acc_) {
    Row row;
    row.assoc = assoc;
    row.connections = acc.connections;
    row.clients = acc.clients.size();
    for (const auto& [category, clients] : acc.clients_by_category) {
      row.issuer_shares.emplace_back(
          category, acc.clients.empty()
                        ? 0
                        : 100.0 * static_cast<double>(clients.size()) /
                              static_cast<double>(acc.clients.size()));
    }
    std::sort(row.issuer_shares.begin(), row.issuer_shares.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) {
              return a.connections > b.connections;
            });
  return out;
}

std::uint64_t InboundAssociationAnalyzer::total_clients() const {
  std::set<std::uint32_t> all;
  for (const auto& [assoc, acc] : acc_) {
    all.insert(acc.clients.begin(), acc.clients.end());
  }
  return all.size();
}

// --- Figure 2 ---------------------------------------------------------------------

void OutboundFlowAnalyzer::observe(const EnrichedConnection& conn) {
  if (conn.direction != Direction::kOutbound || !conn.mutual) return;
  if (conn.sni.empty()) return;  // Fig 2: flows with a valid SNI only
  ++with_sni_;
  if (!conn.sld.empty()) ++sld_counts_[conn.sld.str()];
  if (conn.server_leaf == nullptr || conn.client_leaf == nullptr) return;
  ++flows_[FlowKey{conn.tld.empty() ? std::string("(none)") : conn.tld.str(),
                  conn.server_leaf->issuer_class,
                  conn.client_leaf->issuer_category}];
  if (conn.server_leaf->issuer_class == trust::IssuerClass::kPublic) {
    ++public_server_conns_;
    if (conn.client_leaf->issuer_category ==
        IssuerCategory::kPrivateMissingIssuer) {
      ++public_server_missing_client_;
    }
  }
}

std::vector<OutboundFlowAnalyzer::Flow> OutboundFlowAnalyzer::top_flows(
    std::size_t n) const {
  std::vector<Flow> out;
  for (const auto& [key, count] : flows_) {
    Flow f;
    f.tld = key.tld;
    f.server_class = key.server_class;
    f.client_category = key.client_category;
    f.connections = count;
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Flow& a, const Flow& b) {
    return a.connections > b.connections;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<std::pair<std::string, double>> OutboundFlowAnalyzer::top_slds(
    std::size_t n) const {
  std::vector<std::pair<std::string, std::uint64_t>> counts(
      sld_counts_.begin(), sld_counts_.end());
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < counts.size() && i < n; ++i) {
    out.emplace_back(counts[i].first,
                     with_sni_ == 0
                         ? 0
                         : 100.0 * static_cast<double>(counts[i].second) /
                               static_cast<double>(with_sni_));
  }
  return out;
}

double OutboundFlowAnalyzer::public_server_missing_client_issuer_pct() const {
  if (public_server_conns_ == 0) return 0;
  return 100.0 * static_cast<double>(public_server_missing_client_) /
         static_cast<double>(public_server_conns_);
}

double OutboundFlowAnalyzer::missing_issuer_client_cert_pct(
    const Pipeline& pipeline) {
  std::uint64_t outbound_clients = 0;
  std::uint64_t missing = 0;
  for (const CertFacts* cert : pipeline.certificates_sorted()) {
    const CertFacts& facts = *cert;
    if (!facts.used_as_client || !facts.seen_outbound_with_sni) continue;
    ++outbound_clients;
    if (facts.issuer_category == IssuerCategory::kPrivateMissingIssuer) {
      ++missing;
    }
  }
  if (outbound_clients == 0) return 0;
  return 100.0 * static_cast<double>(missing) /
         static_cast<double>(outbound_clients);
}

// --- Table 4 / Table 10 ---------------------------------------------------------------

void DummyIssuerAnalyzer::observe(const EnrichedConnection& conn) {
  if (!conn.mutual) return;
  const bool client_dummy =
      conn.client_leaf != nullptr &&
      conn.client_leaf->issuer_category == IssuerCategory::kPrivateDummy;
  const bool server_dummy =
      conn.server_leaf != nullptr &&
      conn.server_leaf->issuer_category == IssuerCategory::kPrivateDummy;
  if (!client_dummy && !server_dummy) return;

  const std::uint32_t client = client_key(conn);
  const auto record = [&](bool client_side, const CertFacts& facts) {
    Key key{conn.direction, client_side, issuer_label(facts)};
    auto& row = rows_[key];
    row.direction = conn.direction;
    row.client_side = client_side;
    row.dummy_org = key.dummy_org;
    // Inbound groups servers by SLD, outbound by TLD (Table 4 caption).
    const std::string group =
        conn.direction == Direction::kInbound
            ? (conn.sld.empty() ? std::string("(missing)") : conn.sld.str())
            : (conn.tld.empty() ? std::string("(missing)") : conn.tld.str());
    row.server_groups.insert(group);
    row.clients.insert(client);
    ++row.connections;
  };
  if (client_dummy) record(true, *conn.client_leaf);
  if (server_dummy) record(false, *conn.server_leaf);

  if (client_dummy && server_dummy) {
    const std::string key = conn.sld.str() + "|" +
                            issuer_label(*conn.client_leaf) + "|" +
                            issuer_label(*conn.server_leaf);
    auto& row = both_[key];
    if (row.clients.empty()) {
      row.sld = conn.sld;
      row.client_org = issuer_label(*conn.client_leaf);
      row.server_org = issuer_label(*conn.server_leaf);
      row.first = row.last = conn.ts;
    }
    row.clients.insert(client);
    row.first = std::min(row.first, conn.ts);
    row.last = std::max(row.last, conn.ts);
  }

  // §5.1.1 weak parameters (client side only, as the paper reports).
  if (client_dummy) {
    std::string tuple;
    tuple.reserve(conn.ssl->orig_h.size() + conn.client_leaf->fuid.size() +
                  conn.ssl->resp_h.size() + 20 + 3);
    tuple += conn.ssl->orig_h.view();
    tuple += '|';
    tuple += conn.client_leaf->fuid.view();
    tuple += '|';
    tuple += conn.ssl->resp_h.view();
    tuple += '|';
    if (conn.server_leaf != nullptr) tuple += conn.server_leaf->fuid.view();
    if (conn.client_leaf->version == 1) {
      weak_.v1_certs.insert(conn.client_leaf->fuid);
      if (weak_.v1_tuple_set.insert(tuple).second) ++weak_.v1_tuples;
    }
    if (conn.client_leaf->key_bits == 1024) {
      weak_.weak_key_certs.insert(conn.client_leaf->fuid);
      if (weak_.weak_tuple_set.insert(tuple).second) ++weak_.weak_key_tuples;
    }
  }
}

std::vector<DummyIssuerAnalyzer::Row> DummyIssuerAnalyzer::rows() const {
  std::vector<Row> out;
  for (const auto& [key, row] : rows_) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.connections > b.connections;
  });
  return out;
}

std::vector<DummyIssuerAnalyzer::BothEndsRow>
DummyIssuerAnalyzer::both_ends_rows() const {
  std::vector<BothEndsRow> out;
  for (const auto& [key, row] : both_) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const BothEndsRow& a, const BothEndsRow& b) {
              return a.clients.size() > b.clients.size();
            });
  return out;
}

// --- §5.1.2 serial collisions -------------------------------------------------------------

bool SerialCollisionAnalyzer::candidate(const CertFacts& facts) {
  // Dummy serials are short; unique serials in this corpus (and from
  // modern CAs) are long random values. Bounding candidate length keeps
  // the group map small.
  return facts.serial_hex.size() <= 6;
}

void SerialCollisionAnalyzer::observe(const EnrichedConnection& conn) {
  if (!conn.mutual) return;
  const bool server_candidate =
      conn.server_leaf != nullptr && candidate(*conn.server_leaf);
  const bool client_candidate =
      conn.client_leaf != nullptr && candidate(*conn.client_leaf);
  if (!server_candidate && !client_candidate) return;

  const std::uint32_t client = client_key(conn);
  const auto record = [&](const CertFacts& facts, bool as_server) {
    auto& group = groups_[GroupKey{issuer_label(facts), facts.serial_hex.str(),
                                   conn.direction}];
    group.issuer_org = issuer_label(facts);
    group.serial = facts.serial_hex.str();
    group.direction = conn.direction;
    (as_server ? group.server_certs : group.client_certs).insert(facts.fuid);
    group.clients.insert(client);
    ++group.connections;
    if (server_candidate && client_candidate) {
      if (as_server) ++group.both_endpoint_connections;
    }
  };
  if (server_candidate) record(*conn.server_leaf, true);
  if (client_candidate) record(*conn.client_leaf, false);
}

std::vector<SerialCollisionAnalyzer::Group>
SerialCollisionAnalyzer::collision_groups() const {
  std::vector<Group> out;
  for (const auto& [key, group] : groups_) {
    if (group.server_certs.size() + group.client_certs.size() > 1) {
      out.push_back(group);
    }
  }
  std::sort(out.begin(), out.end(), [](const Group& a, const Group& b) {
    return a.server_certs.size() + a.client_certs.size() >
           b.server_certs.size() + b.client_certs.size();
  });
  return out;
}

std::uint64_t SerialCollisionAnalyzer::involved_clients(Direction d) const {
  std::set<std::uint32_t> clients;
  for (const auto& [key, group] : groups_) {
    if (group.direction != d) continue;
    if (group.server_certs.size() + group.client_certs.size() > 1) {
      clients.insert(group.clients.begin(), group.clients.end());
    }
  }
  return clients.size();
}

// --- Table 5 / 6 ------------------------------------------------------------------------------

void SharedCertAnalyzer::observe(const EnrichedConnection& conn) {
  if (conn.server_leaf == nullptr || conn.client_leaf == nullptr) return;
  if (conn.server_leaf->fuid != conn.client_leaf->fuid) return;

  same_conn_fuids_.insert(conn.server_leaf->fuid);
  ++same_conn_conns_[conn.direction == Direction::kOutbound ? 1 : 0];

  // Self-signed certificates (no issuer org, issuer CN == subject CN —
  // the WebRTC/DTLS population) collapse into one group; everything else
  // groups by issuer, as in Table 5.
  const bool self_signed = conn.server_leaf->issuer_org.empty() &&
                           conn.server_leaf->issuer_cn ==
                               conn.server_leaf->subject_cn;
  const std::string issuer =
      self_signed ? "(self-signed)" : issuer_label(*conn.server_leaf);
  const std::string key = std::string(conn.direction == Direction::kInbound
                                          ? "in|"
                                          : "out|") +
                          conn.sld.str() + "|" + issuer;
  auto& row = same_conn_[key];
  if (row.connections == 0) {
    row.sld = conn.sld;
    row.issuer = issuer;
    row.public_issuer =
        conn.server_leaf->issuer_class == trust::IssuerClass::kPublic;
    row.first = row.last = conn.ts;
  }
  row.clients.insert(client_key(conn));
  row.first = std::min(row.first, conn.ts);
  row.last = std::max(row.last, conn.ts);
  ++row.connections;
}

std::vector<SharedCertAnalyzer::SameConnRow>
SharedCertAnalyzer::same_connection_rows() const {
  std::vector<SameConnRow> out;
  for (const auto& [key, row] : same_conn_) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SameConnRow& a, const SameConnRow& b) {
              return a.clients.size() > b.clients.size();
            });
  return out;
}

std::uint64_t SharedCertAnalyzer::same_connection_conns(Direction d) const {
  return same_conn_conns_[d == Direction::kOutbound ? 1 : 0];
}

SharedCertAnalyzer::SubnetQuantiles SharedCertAnalyzer::subnet_quantiles(
    const Pipeline& pipeline) const {
  std::vector<std::size_t> server_counts;
  std::vector<std::size_t> client_counts;
  for (const CertFacts* cert : pipeline.certificates_sorted()) {
    const CertFacts& facts = *cert;
    if (!facts.used_as_server || !facts.used_as_client) continue;
    if (same_conn_fuids_.contains(facts.fuid)) continue;  // §5.2.2

    server_counts.push_back(facts.server_subnets.size());
    client_counts.push_back(facts.client_subnets.size());
  }
  const auto quantiles = [](std::vector<std::size_t>& counts) {
    std::array<std::size_t, 4> q{};
    if (counts.empty()) return q;
    std::sort(counts.begin(), counts.end());
    const auto at = [&counts](double p) {
      const std::size_t idx = std::min(
          counts.size() - 1,
          static_cast<std::size_t>(p * static_cast<double>(counts.size())));
      return counts[idx];
    };
    q = {at(0.50), at(0.75), at(0.99), counts.back()};
    return q;
  };
  SubnetQuantiles out;
  out.cross_shared_certs = server_counts.size();
  out.server = quantiles(server_counts);
  out.client = quantiles(client_counts);
  return out;
}

// --- Figure 3 / Tables 11-12 ---------------------------------------------------------------------

void IncorrectDateAnalyzer::observe(const EnrichedConnection& conn) {
  const bool client_wrong = conn.client_leaf != nullptr &&
                            conn.client_leaf->validity.dates_incorrect();
  const bool server_wrong = conn.server_leaf != nullptr &&
                            conn.server_leaf->validity.dates_incorrect();
  if (!client_wrong && !server_wrong) return;

  const std::uint32_t client = client_key(conn);
  const auto record = [&](std::map<std::string, Row>& sink,
                          const CertFacts& facts, bool client_side) {
    const std::string key = conn.sld.str() + "|" + issuer_label(facts) + "|" +
                            (client_side ? "C" : "S") + "|" +
                            std::to_string(facts.validity.not_before);
    auto& row = sink[key];
    if (row.certs.empty()) {
      row.sld = conn.sld;
      row.client_side = client_side;
      row.issuer = issuer_label(facts);
      row.not_before = facts.validity.not_before;
      row.not_after = facts.validity.not_after;
      row.first = row.last = conn.ts;
    }
    row.clients.insert(client);
    row.certs.insert(facts.fuid);
    row.first = std::min(row.first, conn.ts);
    row.last = std::max(row.last, conn.ts);
  };
  if (client_wrong) record(rows_, *conn.client_leaf, true);
  if (server_wrong) record(rows_, *conn.server_leaf, false);
  if (client_wrong && server_wrong) {
    record(both_, *conn.client_leaf, true);
  }
}

std::vector<IncorrectDateAnalyzer::Row> IncorrectDateAnalyzer::rows() const {
  std::vector<Row> out;
  for (const auto& [key, row] : rows_) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.clients.size() > b.clients.size();
  });
  return out;
}

std::vector<IncorrectDateAnalyzer::Row> IncorrectDateAnalyzer::both_ends_rows()
    const {
  std::vector<Row> out;
  for (const auto& [key, row] : both_) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.clients.size() > b.clients.size();
  });
  return out;
}

}  // namespace mtlscope::core
