// campus_audit: produce an operator-style mutual-TLS audit report —
// prevalence, services, issuer mix, and the security findings the paper
// flags (dummy issuers, serial collisions, shared certificates, expired
// client certificates). By default the input is a scaled synthetic
// campus trace; point --ssl-log/--x509-log at real Zeek logs to audit
// those instead (streamed with bounded memory, any file size).
//
// Usage: ./build/examples/campus_audit [--cert-scale=N] [--conn-scale=N]
//                                      [--threads=N]
//                                      [--ssl-log=F --x509-log=F]
//                                      [--chunk-mb=M]
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <string>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/report.hpp"
#include "mtlscope/gen/generator.hpp"

using namespace mtlscope;

int main(int argc, char** argv) {
  double cert_scale = 500, conn_scale = 50'000;
  std::size_t threads = 0;  // 0 → hardware concurrency
  std::string ssl_log, x509_log;
  double chunk_mb = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cert-scale=", 13) == 0) {
      cert_scale = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--conn-scale=", 13) == 0) {
      conn_scale = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<std::size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--ssl-log=", 10) == 0) {
      ssl_log = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--x509-log=", 11) == 0) {
      x509_log = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--chunk-mb=", 11) == 0) {
      chunk_mb = std::atof(argv[i] + 11);
    }
  }
  const bool file_mode = !ssl_log.empty() || !x509_log.empty();
  if (file_mode && (ssl_log.empty() || x509_log.empty())) {
    std::fprintf(stderr, "need both --ssl-log= and --x509-log=\n");
    return 2;
  }

  if (file_mode) {
    std::printf("mtlscope campus audit (%s + %s, streamed)\n\n",
                ssl_log.c_str(), x509_log.c_str());
  } else {
    std::printf("mtlscope campus audit (synthetic trace 1:%g certs, 1:%g "
                "connections)\n\n",
                cert_scale, conn_scale);
  }

  gen::TraceGenerator generator(gen::paper_model(cert_scale, conn_scale));
  auto config = core::PipelineConfig::campus_defaults();
  // The synthetic CT database only describes the synthetic trace.
  if (!file_mode) config.ct = &generator.ct_database();
  core::PipelineExecutor executor(std::move(config), threads);
  std::printf("pipeline workers: %zu\n\n", executor.shard_count());

  // One analyzer instance per shard; merged after the run.
  core::Sharded<core::PrevalenceAnalyzer> prevalence_shards(
      executor.shard_count());
  core::Sharded<core::ServicePortAnalyzer> ports_shards(executor.shard_count());
  core::Sharded<core::DummyIssuerAnalyzer> dummies_shards(
      executor.shard_count());
  core::Sharded<core::SerialCollisionAnalyzer> serials_shards(
      executor.shard_count());
  core::Sharded<core::SharedCertAnalyzer> shared_shards(executor.shard_count());
  executor.attach(prevalence_shards);
  executor.attach(ports_shards);
  executor.attach(dummies_shards);
  executor.attach(serials_shards);
  executor.attach(shared_shards);

  std::optional<core::Pipeline> result;
  if (file_mode) {
    ingest::IngestOptions ingest_options;
    ingest_options.chunk_bytes = static_cast<std::size_t>(
        chunk_mb > 0 ? chunk_mb * 1024 * 1024 : 1);
    ingest::IngestError error;
    result = executor.run_log_files(ssl_log, x509_log, &error, ingest_options);
    if (!result) {
      std::fprintf(stderr, "ingest error: %s\n", error.to_string().c_str());
      return 1;
    }
  } else {
    result.emplace(
        executor.run(generator.generate_dataset(executor.shard_count())));
  }
  const core::Pipeline& pipeline = *result;
  auto prevalence = std::move(prevalence_shards).merged();
  auto ports = std::move(ports_shards).merged();
  auto dummies = std::move(dummies_shards).merged();
  auto serials = std::move(serials_shards).merged();
  auto shared = std::move(shared_shards).merged();

  // --- Traffic overview -----------------------------------------------------
  const auto& totals = pipeline.totals();
  std::printf("== traffic ==\n");
  std::printf("connections analyzed: %s (mutual %s = %s)\n",
              core::format_count(totals.connections).c_str(),
              core::format_count(totals.mutual).c_str(),
              core::format_percent(static_cast<double>(totals.mutual),
                                   static_cast<double>(totals.connections))
                  .c_str());
  std::printf("excluded as TLS interception: %zu connections, %zu issuers\n",
              pipeline.interception_excluded_connections(),
              pipeline.interception_issuers().size());

  const auto series = prevalence.series();
  if (series.size() >= 2) {
    std::printf("mutual-TLS adoption: %.2f%% (first month) -> %.2f%% (last "
                "month)\n",
                series.front().mutual_pct(), series.back().mutual_pct());
  }

  std::printf("\n== top mutual-TLS services ==\n");
  core::TextTable table({"Dir", "Port", "Share", "Service"});
  for (const auto dir : {core::Direction::kInbound,
                         core::Direction::kOutbound}) {
    for (const auto& share : ports.top(dir, true, 3)) {
      table.add_row({dir == core::Direction::kInbound ? "in" : "out",
                     share.port_label,
                     core::format_double(share.share, 1) + "%",
                     share.service});
    }
  }
  std::printf("%s", table.render().c_str());

  // --- Certificate inventory --------------------------------------------------
  const auto inventory = core::analyze_cert_inventory(pipeline);
  std::printf("\n== certificates ==\n");
  std::printf("unique: %s (server %s / client %s); %s participate in "
              "mutual TLS\n",
              core::format_count(inventory.total.total).c_str(),
              core::format_count(inventory.server.total).c_str(),
              core::format_count(inventory.client.total).c_str(),
              core::format_percent(
                  static_cast<double>(inventory.total.mutual),
                  static_cast<double>(inventory.total.total))
                  .c_str());

  // --- Findings ----------------------------------------------------------------
  std::printf("\n== findings ==\n");
  int finding = 0;

  const auto dummy_rows = dummies.rows();
  if (!dummy_rows.empty()) {
    std::size_t dummy_conns = 0;
    for (const auto& row : dummy_rows) dummy_conns += row.connections;
    std::printf("[%d] dummy-issuer certificates accepted in %s connections "
                "(e.g. '%s')\n",
                ++finding, core::format_count(dummy_conns).c_str(),
                dummy_rows.front().dummy_org.c_str());
  }
  const auto collision_groups = serials.collision_groups();
  if (!collision_groups.empty()) {
    const auto& g = collision_groups.front();
    std::printf("[%d] serial-number collisions in %zu issuer/serial groups "
                "(largest: issuer '%s', serial %s, %zu certificates)\n",
                ++finding, collision_groups.size(), g.issuer_org.c_str(),
                g.serial.c_str(),
                g.server_certs.size() + g.client_certs.size());
  }
  const auto shared_rows = shared.same_connection_rows();
  if (!shared_rows.empty()) {
    std::printf("[%d] the same certificate served both endpoints in %s "
                "connections across %zu service groups\n",
                ++finding,
                core::format_count(
                    shared.same_connection_conns(core::Direction::kInbound) +
                    shared.same_connection_conns(core::Direction::kOutbound))
                    .c_str(),
                shared_rows.size());
  }
  const auto expired = core::analyze_expired(pipeline);
  if (!expired.inbound.empty() || !expired.outbound.empty()) {
    std::printf("[%d] %zu expired client certificates still completing "
                "handshakes (%zu inbound / %zu outbound)\n",
                ++finding, expired.inbound.size() + expired.outbound.size(),
                expired.inbound.size(), expired.outbound.size());
  }
  const auto info =
      core::analyze_info_types(pipeline, core::CertScope::kMutual);
  const auto& cpriv = info.cells[1][1];
  const auto names = cpriv.cn[static_cast<std::size_t>(
      textclass::InfoType::kPersonalName)];
  const auto accounts = cpriv.cn[static_cast<std::size_t>(
      textclass::InfoType::kUserAccount)];
  if (names + accounts > 0) {
    std::printf("[%d] PRIVACY: %s client certificates expose personal names "
                "and %s expose user accounts in their CN\n",
                ++finding, core::format_count(names).c_str(),
                core::format_count(accounts).c_str());
  }
  if (finding == 0) std::printf("no adverse findings\n");
  return 0;
}
