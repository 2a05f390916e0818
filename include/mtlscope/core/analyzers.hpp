// One analyzer per paper table/figure. Connection-level analyzers expose
// the uniform Analyzer interface — observe(const EnrichedConnection&) to
// accumulate, merge(Analyzer&&) to fold a later shard's state in, and a
// typed result — and are registered on the Pipeline (or attached per shard
// through the PipelineExecutor); certificate-population analyzers read
// Pipeline::certificates_sorted() after the stream ends. Each returns a
// structured result; the experiments (`mtlscope run`) render them next
// to the paper's numbers.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/textclass/randomness.hpp"

namespace mtlscope::core {

class StateWriter;
class StateReader;

/// The uniform connection-analyzer shape: per-record accumulation plus
/// shard-order merging. Every analyzer state below is built from counters,
/// sets, and min/max watermarks, so merging shards in stream order
/// reproduces the serial state exactly.
template <typename A>
concept ConnectionAnalyzer = requires(A a, A b, const EnrichedConnection& c) {
  a.observe(c);
  a.merge(std::move(b));
};

/// K independent instances of one analyzer, one per shard, merged in shard
/// order once the stream ends. Deliberately not thread-safe per instance:
/// each shard owns exactly one slot.
template <typename A>
class Sharded {
 public:
  explicit Sharded(std::size_t shards) : shards_(shards ? shards : 1) {}

  std::size_t size() const { return shards_.size(); }
  A& shard(std::size_t i) { return shards_[i]; }

  /// Folds all shards into the first, in shard order, and returns it.
  A merged() && {
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      shards_[0].merge(std::move(shards_[i]));
    }
    shards_.resize(1);
    return std::move(shards_[0]);
  }

 private:
  std::vector<A> shards_;
};

// ---------------------------------------------------------------------------
// Table 1 — unique certificates by role / CA class / mutual usage.

struct CertInventoryResult {
  struct Row {
    std::uint64_t total = 0;
    std::uint64_t mutual = 0;
    double mutual_pct() const {
      return total == 0 ? 0 : 100.0 * static_cast<double>(mutual) /
                                  static_cast<double>(total);
    }
  };
  Row total, server, server_public, server_private;
  Row client, client_public, client_private;
};

CertInventoryResult analyze_cert_inventory(const Pipeline& pipeline);

// ---------------------------------------------------------------------------
// Figure 1 — monthly share of TLS connections using mutual TLS.

class PrevalenceAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(PrevalenceAnalyzer&& other);

  struct MonthPoint {
    int month_index = 0;
    std::uint64_t total = 0;
    std::uint64_t mutual = 0;
    std::uint64_t mutual_inbound = 0;
    std::uint64_t mutual_outbound = 0;
    double mutual_pct() const {
      return total == 0 ? 0 : 100.0 * static_cast<double>(mutual) /
                                  static_cast<double>(total);
    }
  };
  /// Months in chronological order.
  std::vector<MonthPoint> series() const;

  /// Canonical shard-state encoding (core/shard_state.hpp): every
  /// analyzer serializes its complete private state, so deserialize ∘
  /// serialize is the identity and re-serialization is byte-identical.
  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  std::map<int, MonthPoint> months_;
};

// ---------------------------------------------------------------------------
// Table 2 — prominent services (ports) by direction and mutual usage.

class ServicePortAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(ServicePortAnalyzer&& other);

  struct PortShare {
    std::string port_label;  // "443" or "50000-51000"
    std::string service;
    std::uint64_t connections = 0;
    double share = 0;  // as a percentage
  };
  /// Top-N ports for one (direction, mutual) quadrant.
  std::vector<PortShare> top(Direction direction, bool mutual,
                             std::size_t n = 5) const;

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  // quadrant index: direction*2 + mutual
  std::array<std::map<std::string, std::uint64_t>, 4> counts_;
  std::array<std::uint64_t, 4> totals_{};
};

// ---------------------------------------------------------------------------
// Table 3 — inbound mutual TLS by server association.

class InboundAssociationAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(InboundAssociationAnalyzer&& other);

  struct Row {
    ServerAssociation assoc;
    std::uint64_t connections = 0;
    std::uint64_t clients = 0;
    /// Client-issuer categories ranked by share of clients.
    std::vector<std::pair<IssuerCategory, double>> issuer_shares;
  };
  std::vector<Row> rows() const;
  std::uint64_t total_connections() const { return total_conns_; }
  std::uint64_t total_clients() const;

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  struct Acc {
    std::uint64_t connections = 0;
    std::set<std::uint32_t> clients;
    std::map<IssuerCategory, std::set<std::uint32_t>> clients_by_category;
  };
  std::map<ServerAssociation, Acc> acc_;
  std::uint64_t total_conns_ = 0;
};

// ---------------------------------------------------------------------------
// Figure 2 — outbound flows: server TLD × server issuer class × client
// issuer category.

class OutboundFlowAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(OutboundFlowAnalyzer&& other);

  struct Flow {
    std::string tld;
    trust::IssuerClass server_class;
    IssuerCategory client_category;
    std::uint64_t connections = 0;
  };
  std::vector<Flow> top_flows(std::size_t n = 12) const;

  /// SLD shares among outbound mutual connections with SNI (§4.2.2:
  /// amazonaws.com 28.51%, rapid7.com 27.44%, gpcloudservice.com 13.33%).
  std::vector<std::pair<std::string, double>> top_slds(std::size_t n) const;

  /// §4.2.2: share of public-server connections whose client certificate
  /// lacks a valid issuer (paper: 45.71%).
  double public_server_missing_client_issuer_pct() const;

  /// Takeaway: share of outbound client certificates lacking a valid
  /// issuer (paper: 37.84%). Certificate-level.
  static double missing_issuer_client_cert_pct(const Pipeline& pipeline);

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  std::map<std::string, std::uint64_t> sld_counts_;
  std::map<std::tuple<std::string, int, int>, std::uint64_t> flows_;
  std::uint64_t with_sni_ = 0;
  std::uint64_t public_server_conns_ = 0;
  std::uint64_t public_server_missing_client_ = 0;
};

// ---------------------------------------------------------------------------
// Table 4 / Table 10 — dummy issuers; §5.1.1 weak-parameter findings.

class DummyIssuerAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(DummyIssuerAnalyzer&& other);

  struct Row {
    Direction direction;
    bool client_side = true;  // which endpoint held the dummy cert
    std::string dummy_org;
    std::set<std::string> server_groups;  // SLDs (in.) or TLDs (out.)
    std::set<std::uint32_t> clients;
    std::uint64_t connections = 0;
  };
  std::vector<Row> rows() const;

  struct BothEndsRow {
    std::string sld;  // empty → missing SNI
    std::string client_org;
    std::string server_org;
    std::set<std::uint32_t> clients;
    util::UnixSeconds first = 0, last = 0;
    double duration_days() const {
      return static_cast<double>(last - first) / 86'400.0;
    }
  };
  std::vector<BothEndsRow> both_ends_rows() const;

  /// §5.1.1: dummy-issuer client certs with X.509 version 1 and with
  /// 1024-bit keys, with their unique connection-tuple counts.
  struct WeakParams {
    Pipeline::StrSet v1_certs;
    std::uint64_t v1_tuples = 0;
    Pipeline::StrSet weak_key_certs;
    std::uint64_t weak_key_tuples = 0;
  };
  const WeakParams& weak_params() const { return weak_; }

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  struct Key {
    Direction direction;
    bool client_side;
    std::string dummy_org;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  std::map<Key, Row> rows_;
  std::map<std::string, BothEndsRow> both_;
  WeakParams weak_;
  std::set<std::string> v1_tuple_set_;
  std::set<std::string> weak_tuple_set_;
};

// ---------------------------------------------------------------------------
// §5.1.2 — dummy serial-number collisions.

class SerialCollisionAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(SerialCollisionAnalyzer&& other);

  struct Group {
    std::string issuer_org;  // or issuer CN when org missing
    std::string serial;
    Direction direction;
    Pipeline::StrSet server_certs;
    Pipeline::StrSet client_certs;
    std::set<std::uint32_t> clients;
    std::uint64_t connections = 0;
    std::uint64_t both_endpoint_connections = 0;  // collisions on both sides
  };
  /// Groups with more than one distinct certificate for one serial.
  std::vector<Group> collision_groups() const;

  /// Clients involved in any collision, per direction.
  std::uint64_t involved_clients(Direction d) const;

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  static bool candidate(const CertFacts& facts);
  std::map<std::tuple<std::string, std::string, int>, Group> groups_;
  std::array<std::set<std::uint32_t>, 2> involved_clients_;
};

// ---------------------------------------------------------------------------
// Table 5 / Table 6 — certificate sharing.

class SharedCertAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(SharedCertAnalyzer&& other);

  struct SameConnRow {
    std::string sld;  // empty → missing SNI
    std::string issuer;
    bool public_issuer = false;
    std::set<std::uint32_t> clients;
    util::UnixSeconds first = 0, last = 0;
    std::uint64_t connections = 0;
    double duration_days() const {
      return static_cast<double>(last - first) / 86'400.0;
    }
  };
  std::vector<SameConnRow> same_connection_rows() const;
  std::uint64_t same_connection_conns(Direction d) const;

  struct SubnetQuantiles {
    // 50th / 75th / 99th / 100th percentiles of per-cert /24 counts.
    std::array<std::size_t, 4> server{};
    std::array<std::size_t, 4> client{};
    std::size_t cross_shared_certs = 0;
  };
  /// Table 6 over certificates used in both roles across *different*
  /// connections (same-connection-shared certs excluded).
  SubnetQuantiles subnet_quantiles(const Pipeline& pipeline) const;

  const Pipeline::StrSet& same_conn_fuids() const {
    return same_conn_fuids_;
  }

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  std::map<std::string, SameConnRow> same_conn_;  // key: sld|issuer
  std::array<std::uint64_t, 2> same_conn_conns_{};
  Pipeline::StrSet same_conn_fuids_;
};

// ---------------------------------------------------------------------------
// Figure 3 / Tables 11-12 — certificates with incorrect dates.

class IncorrectDateAnalyzer {
 public:
  void observe(const EnrichedConnection& conn);
  void merge(IncorrectDateAnalyzer&& other);

  struct Row {
    std::string sld;  // empty → missing SNI
    bool client_side = true;
    std::string issuer;
    util::UnixSeconds not_before = 0, not_after = 0;
    std::set<std::uint32_t> clients;
    util::UnixSeconds first = 0, last = 0;
    Pipeline::StrSet certs;
    double duration_days() const {
      return static_cast<double>(last - first) / 86'400.0;
    }
  };
  std::vector<Row> rows() const;

  /// Rows where both endpoints of the same connection had incorrect
  /// dates (Table 12: idrive.com, SDS).
  std::vector<Row> both_ends_rows() const;

  void serialize(StateWriter& w) const;
  void deserialize(StateReader& r);

 private:
  std::map<std::string, Row> rows_;
  std::map<std::string, Row> both_;
};

// ---------------------------------------------------------------------------
// Figure 4 — validity periods of client certificates.

struct ValidityResult {
  struct Bucket {
    std::string label;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> histogram;  // log-ish day buckets
  std::uint64_t long_valid_total = 0;  // 10,000–40,000 days (paper: 7,911)
  std::uint64_t long_valid_public = 0;     // paper: 50
  std::uint64_t long_valid_missing = 0;    // paper share: 45.73%
  std::uint64_t long_valid_corporate = 0;  // 37.58%
  std::uint64_t long_valid_dummy = 0;      // 7.61%
  std::map<std::string, std::uint64_t> long_valid_tlds;  // com/net/(missing)
  std::int64_t max_validity_days = 0;      // paper: 83,432
  std::string max_validity_sld;            // paper: tmdxdev.com
};

ValidityResult analyze_validity(const Pipeline& pipeline);

// ---------------------------------------------------------------------------
// Figure 5 — expired client certificates in successful connections.

struct ExpiredCertResult {
  struct CertPoint {
    double days_expired_at_first_use = 0;
    double activity_days = 0;
    bool public_issuer = false;
  };
  std::vector<CertPoint> inbound;
  std::vector<CertPoint> outbound;
  /// Inbound server-association shares of expired-cert connections
  /// (paper: VPN 45.83%, Local Org 32.79%, Third Party 15.38%).
  std::map<ServerAssociation, std::uint64_t> inbound_assoc_conns;
  /// Outbound cluster: certs expired ≥ `kClusterDays` issued by
  /// Apple/Microsoft (paper: 339 of them, 42.27% of the >1000-day set).
  std::uint64_t outbound_over_1000d = 0;
  std::uint64_t outbound_over_1000d_apple_ms = 0;
};

ExpiredCertResult analyze_expired(const Pipeline& pipeline);

// ---------------------------------------------------------------------------
// Tables 7 / 13a / 14a — CN and SAN utilization. Tables 8 / 13b / 14b —
// information types.

enum class CertScope : std::uint8_t {
  kMutual,     // certificates used in mutual TLS (Tables 7-9)
  kShared,     // used as both server and client (Table 13)
  kNonMutual,  // server certificates outside mutual TLS (Table 14)
};

struct UtilizationResult {
  struct Row {
    std::uint64_t total = 0;
    std::uint64_t cn = 0;
    std::uint64_t san_dns = 0;
  };
  Row all, pub, priv;                   // scope-level (Tables 13a/14a)
  Row server, server_pub, server_priv;  // Table 7 top half
  Row client, client_pub, client_priv;  // Table 7 bottom half
};

UtilizationResult analyze_utilization(const Pipeline& pipeline,
                                      CertScope scope);

struct InfoTypeResult {
  // [role: 0 server / 1 client][class: 0 public / 1 private]
  struct Cell {
    std::array<std::uint64_t, textclass::kInfoTypeCount> cn{};
    std::array<std::uint64_t, textclass::kInfoTypeCount> san{};
    std::uint64_t cn_total = 0;
    std::uint64_t san_total = 0;  // certs with ≥1 SAN DNS
  };
  std::array<std::array<Cell, 2>, 2> cells;
};

/// For CertScope::kMutual, certificates shared by both roles are excluded
/// (§6.3's note) — they are reported separately under kShared, where both
/// roles collapse into the server slot of the result.
InfoTypeResult analyze_info_types(const Pipeline& pipeline, CertScope scope);

// ---------------------------------------------------------------------------
// Table 9 — unidentified strings: random vs non-random.

struct UnidentifiedResult {
  struct Column {
    std::uint64_t total = 0;
    std::uint64_t non_random = 0;
    std::uint64_t by_issuer = 0;  // random but recognizable via issuer
    std::uint64_t len8 = 0;
    std::uint64_t len32 = 0;
    std::uint64_t len36 = 0;
    std::uint64_t other_random = 0;
  };
  Column server_private_cn;
  Column client_public_cn;
  Column client_private_cn;
  Column client_private_san;
};

UnidentifiedResult analyze_unidentified(const Pipeline& pipeline);

// ---------------------------------------------------------------------------
// Extension (not a paper table): client-certificate trackability, after
// Wachs et al. (TMA'17) and Foppe et al. (PETS'18), which the paper cites
// as the tracking risk of client certificates. A client certificate is a
// persistent plaintext identifier in TLS <= 1.2; its reuse across time and
// networks makes the holder linkable.

struct TrackingResult {
  std::uint64_t client_certs = 0;
  /// Certificates observed in more than one connection.
  std::uint64_t reused = 0;
  /// Certificates seen from >= 2 client /24 networks — linkable across
  /// network attachments.
  std::uint64_t cross_network = 0;
  /// Certificates active for at least a week / month / half a year.
  std::uint64_t week_plus = 0;
  std::uint64_t month_plus = 0;
  std::uint64_t half_year_plus = 0;
  /// The worst case: a long-lived identifier that also carries PII.
  std::uint64_t long_lived_with_pii = 0;

  struct Top {
    std::string fuid;
    std::string issuer;
    double activity_days = 0;
    std::size_t subnets = 0;
    std::uint64_t connections = 0;
  };
  std::vector<Top> most_trackable;  // ranked by activity × subnet spread
};

TrackingResult analyze_tracking(const Pipeline& pipeline);

// ---------------------------------------------------------------------------
// Extension (not a paper table): renewal hygiene. §7 names revocation and
// renewal as the operational burden of client certificates; this analyzer
// reconstructs renewal chains (same issuer + same subject, successive
// validity windows) and measures cadence and coverage.

struct RenewalResult {
  /// Groups where one subject CN recurs under one issuer WITHOUT a
  /// sequential validity pattern — generic CNs ("WebRTC", company names)
  /// reused by unrelated certificates, not renewals.
  std::uint64_t cn_reuse_groups = 0;
  /// Chains with at least two certificates.
  std::uint64_t chains = 0;
  std::uint64_t certificates_in_chains = 0;
  std::size_t longest_chain = 0;
  /// Renewal transitions, by how the validity windows meet.
  std::uint64_t seamless = 0;  // next starts within a day of previous end
  std::uint64_t overlap = 0;   // next starts well before previous expires
  std::uint64_t gap = 0;       // coverage hole between consecutive certs

  struct IssuerRow {
    std::string issuer;
    std::uint64_t chains = 0;
    double median_cadence_days = 0;  // between consecutive not_befores
  };
  std::vector<IssuerRow> top_issuers;
};

RenewalResult analyze_renewals(const Pipeline& pipeline);

// ---------------------------------------------------------------------------

const char* cert_scope_name(CertScope scope);

}  // namespace mtlscope::core
