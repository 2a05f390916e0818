// Traffic-volume experiments: Table 2 (prominent services by port),
// Table 3 (inbound mutual associations), Figure 1 (prevalence over time),
// and the §3.3 dataset statistics. Table 3 and Figure 1 narrow or resize
// the model, so each keeps its own pipeline pass; the dataset statistics
// drop the cross-sharing instrument clusters for undistorted shares.
#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "experiments_internal.hpp"
#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/result_doc.hpp"

namespace mtlscope::experiments {

namespace {

using core::Cell;
using core::ColumnType;
using core::strf;

class Table2 final : public Experiment {
 public:
  const ExperimentInfo& info() const override {
    static const ExperimentInfo kInfo{
        "table2", "Table 2", "Table 2: prominent services by port", 2'000,
        50'000};
    return kInfo;
  }
  std::string model_key() const override { return ""; }

  void attach(Harness& run) override {
    ports_.emplace(run.shard_count());
    run.attach(*ports_);
  }

  void report(Harness& run, core::ResultDoc& doc) override {
    const auto ports = run.reduced() ? run.analyzers().service_ports
                                     : std::move(*ports_).merged();

    add_quadrant(doc, ports, "inbound_mutual", core::Direction::kInbound,
                 true,
                 "443 63.60% | 20017 24.89% | 636 6.36% | 50000-51000 "
                 "1.17% | 9093 0.26%");
    add_quadrant(doc, ports, "outbound_mutual", core::Direction::kOutbound,
                 true,
                 "443 83.17% | 8883 3.69% | 25 3.38% | 465 3.32% | 9997 "
                 "1.48%");
    add_quadrant(doc, ports, "inbound_nonmutual", core::Direction::kInbound,
                 false,
                 "443 85.18% | 25 2.35% | 33854 2.26% | 8443 2.22% | 52730 "
                 "1.98%");
    add_quadrant(doc, ports, "outbound_nonmutual",
                 core::Direction::kOutbound, false,
                 "443 99.15% | 993 0.44% | 8883 0.05% | 25 0.04% | 3128 "
                 "0.03%");

    const auto in_mutual = ports.top(core::Direction::kInbound, true, 1);
    const auto out_mutual = ports.top(core::Direction::kOutbound, true, 1);
    doc.add_line();
    doc.add_line("shape checks:");
    doc.add_check("HTTPS (443) tops every quadrant",
                  !in_mutual.empty() && in_mutual[0].port_label == "443" &&
                      !out_mutual.empty() &&
                      out_mutual[0].port_label == "443");
    const auto in5 = ports.top(core::Direction::kInbound, true, 2);
    doc.add_check("FileWave (20017) is the #2 inbound mutual service",
                  in5.size() >= 2 && in5[1].port_label == "20017");
    doc.add_check(
        "inbound mutual is less HTTPS-dominated than outbound mutual",
        !in_mutual.empty() && !out_mutual.empty() &&
            in_mutual[0].share < out_mutual[0].share);
  }

 private:
  static void add_quadrant(core::ResultDoc& doc,
                           const core::ServicePortAnalyzer& analyzer,
                           const char* id, core::Direction direction,
                           bool mutual, const char* paper_note) {
    doc.add_line();
    doc.add_line(strf(
        "%s, %s TLS   [paper top-5: %s]",
        direction == core::Direction::kInbound ? "Inbound" : "Outbound",
        mutual ? "mutual" : "non-mutual", paper_note));
    auto& table = doc.add_table(id, {{"Rank", ColumnType::kCount},
                                     {"Port", ColumnType::kString},
                                     {"Share", ColumnType::kPercent},
                                     {"Service", ColumnType::kString}});
    std::uint64_t rank = 1;
    for (const auto& share : analyzer.top(direction, mutual)) {
      table.add_row({Cell::count(rank++), Cell::text(share.port_label),
                     Cell::percent_value(share.share, 2),
                     Cell::text(share.service)});
    }
  }

  std::optional<core::Sharded<core::ServicePortAnalyzer>> ports_;
};

class Table3 final : public Experiment {
 public:
  const ExperimentInfo& info() const override {
    static const ExperimentInfo kInfo{
        "table3", "Table 3",
        "Table 3: inbound mutual TLS by server association", 200, 2'000};
    return kInfo;
  }

  void prepare_model(gen::CampusModel& model) const override {
    // Table 3 covers inbound mutual TLS only; dropping the other slices
    // lets a low connection scale run quickly without coverage distortion.
    keep_only_clusters(model, {"in-"});
  }

  void attach(Harness& run) override {
    assoc_.emplace(run.shard_count());
    run.attach(*assoc_);
  }

  void report(Harness& run, core::ResultDoc& doc) override {
    const auto assoc = run.reduced() ? run.analyzers().inbound_assoc
                                     : std::move(*assoc_).merged();

    struct PaperRow {
      core::ServerAssociation assoc;
      double conn_pct;
      double client_pct;
      const char* primary;
    };
    const PaperRow paper[] = {
        {core::ServerAssociation::kUniversityHealth, 64.91, 41.10,
         "Private - Education 99.96%"},
        {core::ServerAssociation::kUniversityServer, 30.55, 5.00,
         "Private - MissingIssuer 95.84%"},
        {core::ServerAssociation::kUniversityVpn, 0.30, 14.73,
         "Private - Education 99.99%"},
        {core::ServerAssociation::kLocalOrganization, 2.53, 2.20,
         "Public 96.62%"},
        {core::ServerAssociation::kThirdPartyService, 0.31, 0.39,
         "Private - Others 47.95%"},
        {core::ServerAssociation::kGlobus, 0.06, 0.005,
         "Private - Education 93.83%"},
        {core::ServerAssociation::kUnknown, 1.34, 36.58,
         "Private - MissingIssuer 87.34%"},
    };

    const auto rows = assoc.rows();
    const double total_conns =
        static_cast<double>(assoc.total_connections());
    const double total_clients = static_cast<double>(assoc.total_clients());

    auto& table = doc.add_table(
        "associations", {{"Server association", ColumnType::kString},
                         {"Conns %", ColumnType::kPercent},
                         {"(paper)", ColumnType::kPercent},
                         {"Clients %", ColumnType::kPercent},
                         {"(paper)", ColumnType::kPercent},
                         {"Measured primary issuer", ColumnType::kString},
                         {"(paper primary)", ColumnType::kString}});
    for (const auto& p : paper) {
      const auto it = std::find_if(
          rows.begin(), rows.end(),
          [&p](const auto& row) { return row.assoc == p.assoc; });
      Cell conns = Cell::text("-");
      Cell clients = Cell::text("-");
      Cell primary = Cell::text("-");
      if (it != rows.end()) {
        conns = Cell::percent(static_cast<double>(it->connections),
                              total_conns);
        clients = Cell::percent(static_cast<double>(it->clients),
                                total_clients);
        if (!it->issuer_shares.empty()) {
          primary = Cell::text(
              std::string(core::issuer_category_name(
                  it->issuer_shares[0].first)) +
              " " + core::format_double(it->issuer_shares[0].second, 2) +
              "%");
        }
      }
      table.add_row({Cell::text(gen::association_name(p.assoc)), conns,
                     Cell::percent_value(p.conn_pct, 2), clients,
                     Cell::percent_value(p.client_pct, 2), primary,
                     Cell::text(p.primary)});
    }

    const auto find = [&rows](core::ServerAssociation a)
        -> const core::InboundAssociationAnalyzer::Row* {
      const auto it =
          std::find_if(rows.begin(), rows.end(),
                       [a](const auto& r) { return r.assoc == a; });
      return it == rows.end() ? nullptr : &*it;
    };
    const auto* health = find(core::ServerAssociation::kUniversityHealth);
    const auto* vpn = find(core::ServerAssociation::kUniversityVpn);
    const auto* unknown = find(core::ServerAssociation::kUnknown);
    doc.add_line();
    doc.add_line("shape checks:");
    doc.add_check(
        "health dominates inbound mutual connections",
        health != nullptr &&
            static_cast<double>(health->connections) / total_conns > 0.5);
    doc.add_check(
        "VPN: few connections but many clients (client% >> conn%)",
        vpn != nullptr &&
            static_cast<double>(vpn->clients) / total_clients >
                10 * static_cast<double>(vpn->connections) / total_conns);
    doc.add_check(
        "unknown-SNI connections driven by missing-issuer clients",
        unknown != nullptr && !unknown->issuer_shares.empty() &&
            unknown->issuer_shares[0].first ==
                core::IssuerCategory::kPrivateMissingIssuer);
  }

 private:
  std::optional<core::Sharded<core::InboundAssociationAnalyzer>> assoc_;
};

class Fig1 final : public Experiment {
 public:
  const ExperimentInfo& info() const override {
    // Connection-volume experiment: few certificates, many connections.
    static const ExperimentInfo kInfo{
        "fig1", "Figure 1", "Figure 1: prevalence of mutual TLS over time",
        5'000, 50'000};
    return kInfo;
  }

  void prepare_model(gen::CampusModel& model) const override {
    // Size the certificate-less background so mutual TLS sits in the
    // paper's low-single-digit band (~2.8% average over the study).
    double mutual_estimate = 0;
    for (const auto& cluster : model.clusters) {
      if (cluster.mutual && !cluster.tunnel_client_only) {
        mutual_estimate += static_cast<double>(cluster.connections);
      }
    }
    model.background_connections =
        static_cast<std::size_t>(mutual_estimate * 33.0);
  }

  void attach(Harness& run) override {
    prevalence_.emplace(run.shard_count());
    run.attach(*prevalence_);
  }

  void report(Harness& run, core::ResultDoc& doc) override {
    const auto prevalence = run.reduced() ? run.analyzers().prevalence
                                          : std::move(*prevalence_).merged();
    const auto series = prevalence.series();

    auto& table = doc.add_table(
        "series", {{"Month", ColumnType::kString},
                   {"Total conns", ColumnType::kCount},
                   {"Mutual", ColumnType::kCount},
                   {"Mutual %", ColumnType::kDouble},
                   {"In-mutual", ColumnType::kCount},
                   {"Out-mutual", ColumnType::kCount}});
    for (const auto& point : series) {
      table.add_row({Cell::text(util::month_label(point.month_index)),
                     Cell::count(point.total), Cell::count(point.mutual),
                     Cell::number(point.mutual_pct(), 2),
                     Cell::count(point.mutual_inbound),
                     Cell::count(point.mutual_outbound)});
    }

    if (series.empty()) return;
    const double first = series.front().mutual_pct();
    const double last = series.back().mutual_pct();
    doc.add_line();
    doc.add_line(strf("first month: %s  (paper: 1.99%%)",
                      core::format_double(first, 2).c_str()));
    doc.add_line(strf("last month:  %s  (paper: 3.61%%)",
                      core::format_double(last, 2).c_str()));
    doc.add_line("shape checks:");
    doc.add_check("adoption grows over the study (last > first)",
                  last > first);
    const bool doubles = last / first >= 1.4 && last / first <= 2.6;
    doc.add_check(
        strf("  roughly doubles (ratio in [1.4, 2.6]): %s (ratio %.2f)",
             doubles ? "OK" : "MISS", last / first),
        "roughly doubles (ratio in [1.4, 2.6])", doubles ? 1 : 0);
    // Outbound dip after 2023-10 (Rapid7 disappearance).
    double out_before = 0, out_after = 0;
    int n_before = 0, n_after = 0;
    for (const auto& point : series) {
      if (point.month_index < 2023 * 12 + 9) {
        out_before += static_cast<double>(point.mutual_outbound);
        ++n_before;
      } else {
        out_after += static_cast<double>(point.mutual_outbound);
        ++n_after;
      }
    }
    if (n_before && n_after) {
      doc.add_check("outbound mutual declines after 2023-10",
                    (out_after / n_after) < (out_before / n_before));
    }
  }

 private:
  std::optional<core::Sharded<core::PrevalenceAnalyzer>> prevalence_;
};

/// §3.3 accumulator, one per shard: distinct endpoint sets and mutual
/// traffic counters. Only set sizes are reported, so the sets hash on
/// bytes; merging is set union plus counter sums.
struct DatasetStatsAnalyzer {
  using IpSet = std::unordered_set<colfmt::Str, colfmt::StrHash, colfmt::StrEq>;
  IpSet server_ips, client_ips;
  IpSet tls13_server_ips, tls13_client_ips;
  IpSet external_server_ips, cloud_security_server_ips;
  std::uint64_t inbound_mutual = 0, inbound_device_mgmt = 0,
                inbound_health = 0;
  std::uint64_t outbound_mutual = 0, outbound_email = 0;

  void observe(const core::EnrichedConnection& c) {
    server_ips.insert(c.ssl->resp_h);
    client_ips.insert(c.ssl->orig_h);
    if (c.ssl->version == "TLSv13") {
      tls13_server_ips.insert(c.ssl->resp_h);
      tls13_client_ips.insert(c.ssl->orig_h);
    }
    if (c.direction == core::Direction::kOutbound && c.mutual) {
      // §3.3 talks about the external servers of outbound mutual
      // traffic.
      external_server_ips.insert(c.ssl->resp_h);
      if (c.sld == "amazonaws.com" || c.sld == "rapid7.com" ||
          c.sld == "gpcloudservice.com" || c.sld == "azure.com" ||
          c.sld == "splunkcloud.com" || c.sld == "azuresphere.net" ||
          c.sld == "iot-bridge.net") {
        cloud_security_server_ips.insert(c.ssl->resp_h);
      }
    }
    if (!c.mutual) return;
    if (c.direction == core::Direction::kInbound) {
      ++inbound_mutual;
      const std::uint16_t port = c.ssl->resp_p;
      // Device management & access control: FileWave, LDAPS, Outset.
      if (port == 20017 || port == 636 || port == 9093) {
        ++inbound_device_mgmt;
      }
      if (c.assoc == core::ServerAssociation::kUniversityHealth) {
        ++inbound_health;
      }
    } else {
      ++outbound_mutual;
      const std::uint16_t port = c.ssl->resp_p;
      if (port == 25 || port == 465 || port == 587 || port == 993 ||
          port == 995) {
        ++outbound_email;
      }
    }
  }

  template <class V>
  static void fields(V& v) {
    using S = DatasetStatsAnalyzer;
    v("server_ips", &S::server_ips, core::rule::unite);
    v("client_ips", &S::client_ips, core::rule::unite);
    v("tls13_server_ips", &S::tls13_server_ips, core::rule::unite);
    v("tls13_client_ips", &S::tls13_client_ips, core::rule::unite);
    v("external_server_ips", &S::external_server_ips, core::rule::unite);
    v("cloud_security_server_ips", &S::cloud_security_server_ips,
      core::rule::unite);
    v("inbound_mutual", &S::inbound_mutual, core::rule::sum);
    v("inbound_device_mgmt", &S::inbound_device_mgmt, core::rule::sum);
    v("inbound_health", &S::inbound_health, core::rule::sum);
    v("outbound_mutual", &S::outbound_mutual, core::rule::sum);
    v("outbound_email", &S::outbound_email, core::rule::sum);
  }
};

class DatasetStats final : public Experiment {
 public:
  const ExperimentInfo& info() const override {
    static const ExperimentInfo kInfo{
        "dataset_stats", "Section 3.3",
        "Section 3.3: dataset statistics and limitations", 2'000, 50'000};
    return kInfo;
  }

  // The §3.3 endpoint sets are per-shard state merged at report time;
  // they are not part of the serialized shard state.
  bool distributable() const override { return false; }

  void prepare_model(gen::CampusModel& model) const override {
    // The cross-sharing clusters are a Table-6 instrument with
    // deliberately dense connection counts; they would distort volume
    // shares here.
    std::erase_if(model.clusters, [](const gen::TrafficCluster& c) {
      return c.name.rfind("out-cross", 0) == 0;
    });
  }

  void attach(Harness& run) override {
    stats_.emplace(run.shard_count());
    run.attach(*stats_);
  }

  void report(Harness& run, core::ResultDoc& doc) override {
    const DatasetStatsAnalyzer stats = std::move(*stats_).merged();
    const auto& totals = run.pipeline().totals();
    auto& table =
        doc.add_table("statistics", {{"Statistic", ColumnType::kString},
                                     {"Paper", ColumnType::kString},
                                     {"Measured", ColumnType::kPercent}});
    table.add_row(
        {Cell::text("TLS 1.3 share of connections"), Cell::text("40.86%"),
         Cell::percent(static_cast<double>(totals.tls13),
                       static_cast<double>(totals.connections))});
    table.add_row(
        {Cell::text("TLS 1.3 share of server IPs"), Cell::text("25.35%"),
         Cell::percent(static_cast<double>(stats.tls13_server_ips.size()),
                       static_cast<double>(stats.server_ips.size()))});
    table.add_row(
        {Cell::text("TLS 1.3 share of client IPs"), Cell::text("32.23%"),
         Cell::percent(static_cast<double>(stats.tls13_client_ips.size()),
                       static_cast<double>(stats.client_ips.size()))});
    table.add_row(
        {Cell::text("Inbound mutual: device mgmt / access control"),
         Cell::text(">30%"),
         Cell::percent(static_cast<double>(stats.inbound_device_mgmt),
                       static_cast<double>(stats.inbound_mutual))});
    table.add_row(
        {Cell::text("Inbound mutual: medical center"), Cell::text("64.9%"),
         Cell::percent(static_cast<double>(stats.inbound_health),
                       static_cast<double>(stats.inbound_mutual))});
    table.add_row(
        {Cell::text("Outbound mutual: email protocols"), Cell::text(">6%"),
         Cell::percent(static_cast<double>(stats.outbound_email),
                       static_cast<double>(stats.outbound_mutual))});
    table.add_row(
        {Cell::text("External servers at cloud/security providers"),
         Cell::text(">68%"),
         Cell::percent(
             static_cast<double>(stats.cloud_security_server_ips.size()),
             static_cast<double>(stats.external_server_ips.size()))});

    const double tls13_pct =
        totals.connections == 0
            ? 0
            : 100.0 * static_cast<double>(totals.tls13) /
                  static_cast<double>(totals.connections);
    const double device_pct =
        stats.inbound_mutual == 0
            ? 0
            : 100.0 * static_cast<double>(stats.inbound_device_mgmt) /
                  static_cast<double>(stats.inbound_mutual);
    const double email_pct =
        stats.outbound_mutual == 0
            ? 0
            : 100.0 * static_cast<double>(stats.outbound_email) /
                  static_cast<double>(stats.outbound_mutual);
    doc.add_line();
    doc.add_line("shape checks:");
    doc.add_check("TLS 1.3 blind spot is a large minority (25-50%)",
                  tls13_pct > 25 && tls13_pct < 50);
    doc.add_check("device management exceeds 20% of inbound mutual",
                  device_pct > 20);
    doc.add_check("email exceeds 4% of outbound mutual", email_pct > 4);
    const double s13 =
        stats.server_ips.empty()
            ? 0
            : 100.0 * static_cast<double>(stats.tls13_server_ips.size()) /
                  static_cast<double>(stats.server_ips.size());
    const double c13 =
        stats.client_ips.empty()
            ? 0
            : 100.0 * static_cast<double>(stats.tls13_client_ips.size()) /
                  static_cast<double>(stats.client_ips.size());
    const bool minority = s13 < 50 && c13 < 55;
    doc.add_check(
        strf("  TLS 1.3 touches a minority of endpoints (s<50%%, c<55%%): "
             "%s (s=%.1f%%, c=%.1f%%)",
             minority ? "OK" : "MISS", s13, c13),
        "TLS 1.3 touches a minority of endpoints (s<50%, c<55%)",
        minority ? 1 : 0);
    doc.add_check(
        "  no TLS 1.3 connection exposes a certificate: OK (enforced by "
        "the handshake model; see tls/handshake.cpp)",
        "no TLS 1.3 connection exposes a certificate", 1);
  }

 private:
  std::optional<core::Sharded<DatasetStatsAnalyzer>> stats_;
};

template <typename E>
std::unique_ptr<Experiment> make_experiment() {
  return std::make_unique<E>();
}

template <typename E>
void add(ExperimentRegistry& registry) {
  registry.add(E().info(), &make_experiment<E>);
}

}  // namespace

void register_traffic_experiments(ExperimentRegistry& registry) {
  add<Table2>(registry);
  add<Table3>(registry);
  add<Fig1>(registry);
  add<DatasetStats>(registry);
}

}  // namespace mtlscope::experiments
