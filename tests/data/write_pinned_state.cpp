// Writes a v1 state file in which every section and every count-prefixed
// run holds at least one entry, with the library it is linked against.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/gen/generator.hpp"

using namespace mtlscope;

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s OUT CERT_SCALE CONN_SCALE\n", argv[0]);
    return 2;
  }
  const double cert_scale = std::atof(argv[2]);
  const double conn_scale = std::atof(argv[3]);
  auto model = gen::paper_model(cert_scale, conn_scale);
  model.seed = 7;
  gen::TraceGenerator generator(std::move(model));
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();
  core::PipelineExecutor executor(config, 1);
  core::ShardState state = executor.fold(generator.generate_dataset());
  state.meta.seed = 7;
  state.meta.cert_scale = cert_scale;
  state.meta.conn_scale = conn_scale;
  state.meta.ssl_log = "slice-a/ssl.log";
  state.meta.x509_log = "slice-a/x509.log";
  state.meta.parse_bytes = 123456;

  // Ledger: quarantined rows of both inputs (past the x509 sample cap,
  // so samples_truncated is set), clean-row and phase counts, I/O notes.
  for (std::size_t i = 0; i < 3; ++i) {
    state.ledger.quarantine(
        core::LedgerPhase::kUpgrades,
        {core::InputRole::kSsl, 1000 + 97 * i, 12 + i, 80 + i,
         i == 0 ? "bad column count" : "bad timestamp", "ab12cd34ef56"});
  }
  for (std::size_t i = 0; i < core::ErrorLedger::kMaxStoredPerRole + 1; ++i) {
    state.ledger.quarantine(core::LedgerPhase::kRegistry,
                            {core::InputRole::kX509, 500 + 61 * i, 7 + i,
                             120, "bad certificate", "0123456789ab"});
  }
  state.ledger.count_rows_ok(core::InputRole::kSsl, 4000);
  state.ledger.count_rows_ok(core::InputRole::kX509, 300);
  state.ledger.count_phase(core::LedgerPhase::kInterception, 3);
  state.ledger.count_phase(core::LedgerPhase::kShardRun, 3);
  state.ledger.note_io(core::InputRole::kSsl,
                       "file truncated while streaming; complete records "
                       "salvaged up to byte 98765");
  state.ledger.finalize();

  std::string bytes = core::serialize_shard_state(state);

  // No code path fills SerialCollisionAnalyzer's two involved-client
  // sets, which end the serial_collision section (id 8) as two empty
  // u32 sets. Give each one value and re-seal.
  {
    core::StateReader r(std::string_view(bytes).substr(
        0, bytes.size() - crypto::Sha256::kDigestSize));
    std::string out(r.bytes(16));  // magic, version, endian sentinel
    const std::uint32_t count = r.u32();
    core::StateWriter head;
    head.u32(count);
    out += head.buffer();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t id = r.u32();
      std::string payload(r.bytes(r.u64()));
      if (id == 8) {
        payload.resize(payload.size() - 16);
        core::StateWriter sets;
        sets.u64(1);
        sets.u32(0x0a000105u);
        sets.u64(1);
        sets.u32(0xc0a80107u);
        payload += sets.buffer();
      }
      core::StateWriter frame;
      frame.u32(id);
      frame.u64(payload.size());
      out += frame.buffer();
      out += payload;
    }
    const auto digest = crypto::Sha256::hash(out);
    out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
    bytes = std::move(out);
  }

  std::string error;
  const auto parsed = core::parse_shard_state(bytes, nullptr, &error);
  if (!parsed || core::serialize_shard_state(*parsed) != bytes) {
    std::fprintf(stderr, "round trip failed: %s\n", error.c_str());
    return 1;
  }
  const auto& a = parsed->analyzers;
  std::fprintf(stderr,
               "bytes=%zu certs=%zu months=%zu assoc=%zu flows=%zu dummy=%zu "
               "both=%zu v1=%zu weak=%zu groups=%zu shared=%zu dates=%zu "
               "dates_both=%zu ledger=%zu notes=%zu issuers=%zu\n",
               bytes.size(), parsed->pipeline->certificates().size(),
               a.prevalence.series().size(), a.inbound_assoc.rows().size(),
               a.outbound_flows.top_flows(1000).size(),
               a.dummy_issuers.rows().size(),
               a.dummy_issuers.both_ends_rows().size(),
               a.dummy_issuers.weak_params().v1_certs.size(),
               a.dummy_issuers.weak_params().weak_key_certs.size(),
               a.serial_collisions.collision_groups().size(),
               a.shared_certs.same_connection_rows().size(),
               a.incorrect_dates.rows().size(),
               a.incorrect_dates.both_ends_rows().size(),
               parsed->ledger.entries().size(),
               parsed->ledger.io_notes().size(),
               parsed->pipeline->interception_issuers().size());
  std::FILE* f = std::fopen(argv[1], "wb");
  if (f == nullptr ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}
