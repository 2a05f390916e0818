#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/textclass/domain.hpp"
#include "mtlscope/trust/store.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "truth_models.hpp"

namespace mtlscope::gen {
namespace {

CampusModel tiny_model() {
  auto model = paper_model(5'000, 500'000);
  model.background_connections = 2'000;
  return model;
}

TEST(PaperModel, BasicShape) {
  const auto model = paper_model(100, 20'000);
  EXPECT_GT(model.clusters.size(), 40u);
  EXPECT_EQ(model.study_start, util::to_unix({2022, 5, 1, 0, 0, 0}));
  EXPECT_EQ(model.study_end, util::to_unix({2024, 4, 1, 0, 0, 0}));
  EXPECT_GT(model.background_connections, 0u);
  // Cluster names are unique (they seed per-cluster RNG streams).
  std::set<std::string> names;
  for (const auto& cluster : model.clusters) {
    EXPECT_TRUE(names.insert(cluster.name).second)
        << "duplicate cluster name " << cluster.name;
  }
}

TEST(PaperModel, ScalesMonotonically) {
  const auto big = paper_model(100, 20'000);
  const auto small = paper_model(1'000, 200'000);
  std::size_t big_certs = 0, small_certs = 0;
  for (const auto& c : big.clusters) {
    big_certs += c.server_certs.count + c.client_certs.count;
  }
  for (const auto& c : small.clusters) {
    small_certs += c.server_certs.count + c.client_certs.count;
  }
  EXPECT_GT(big_certs, 3 * small_certs);
}

TEST(PaperModel, CohortArithmeticApproximatesTable1) {
  // Pure model math, no generation: at scale 1 the cohort counts must
  // land in the neighbourhood of the paper's Table-1 totals.
  const auto model = paper_model(1, 1);
  double client_certs = 0, server_certs = 0;
  for (const auto& c : model.clusters) {
    if (c.tunnel_client_only) {
      client_certs += static_cast<double>(c.client_certs.count);
      continue;
    }
    server_certs += static_cast<double>(c.server_certs.count);
    if (c.mutual && c.sharing != SharingMode::kSameCertBothEnds) {
      client_certs += static_cast<double>(c.client_certs.count);
    }
    if (c.sharing == SharingMode::kSameCertBothEnds) {
      // Shared populations count on both sides (paper Table 1 counts them
      // in each role).
      client_certs += static_cast<double>(c.server_certs.count);
    }
  }
  // Paper: 5,915,995 server / 3,556,589 client unique certificates.
  EXPECT_GT(server_certs, 5.9e6 * 0.5);
  EXPECT_LT(server_certs, 5.9e6 * 1.5);
  EXPECT_GT(client_certs, 3.55e6 * 0.5);
  EXPECT_LT(client_certs, 3.55e6 * 1.5);
}

TEST(PaperModel, ConnectionArithmeticApproximatesStudyVolume) {
  // Mutual connection volume at scale 1 should approximate the paper's
  // 1.2B (the generator additionally floors at one conn per cert).
  const auto model = paper_model(1'000, 1);
  double mutual_conns = 0;
  for (const auto& c : model.clusters) {
    if (c.mutual && !c.tunnel_client_only) {
      mutual_conns += static_cast<double>(c.connections);
    }
  }
  EXPECT_GT(mutual_conns, 1.2e9 * 0.5);
  EXPECT_LT(mutual_conns, 1.2e9 * 1.5);
}

std::string logs_text(const zeek::Dataset& dataset) {
  return zeek::ssl_log_to_string(dataset.ssl()) +
         zeek::x509_log_to_string(dataset);
}

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::hash(text);
  return crypto::to_hex(
      std::span<const std::uint8_t>(digest.data(), digest.size()));
}

CampusModel tiny_model(std::uint64_t seed) {
  auto model = tiny_model();
  model.seed = seed;
  return model;
}

// SHA-256 of ssl.log + x509.log for tiny_model() at two seeds, recorded
// before generation was split into plan and materialize stages. A change
// to the RNG draw order, the handshake rules, or the record layout shows
// up here, at the generator, before any downstream golden.
struct TinyDigest {
  std::uint64_t seed;
  const char* sha256;
};
constexpr TinyDigest kTinyDigests[] = {
    {20240504,
     "dedfdd49d9cfdea6e68beb8ed6f34a14c1c16200c63ca8f26db48986dfecf6b3"},
    {7, "2cd90cdda7ba26388e9abafbae7d24bad461ee14d8fa1c6cff7a4a6a36584098"},
};

TEST(Generator, DatasetByteIdenticalAcrossThreadCounts) {
  for (const auto& expected : kTinyDigests) {
    std::string serial;
    {
      TraceGenerator g(tiny_model(expected.seed));
      serial = logs_text(g.generate_dataset(1));
    }
    EXPECT_EQ(sha256_hex(serial), expected.sha256)
        << "seed " << expected.seed;
    for (const std::size_t threads : {2u, 3u, 4u, 7u}) {
      TraceGenerator g(tiny_model(expected.seed));
      // Compare whole texts: a mismatch prints the first differing line.
      EXPECT_EQ(logs_text(g.generate_dataset(threads)), serial)
          << "seed " << expected.seed << ", threads " << threads;
    }
  }
}

TEST(Generator, TruthSidecarChangesNoByteAndFollowsRows) {
  for (const auto& expected : kTinyDigests) {
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      SCOPED_TRACE("seed " + std::to_string(expected.seed) + ", threads " +
                   std::to_string(threads));
      TraceGenerator g(tiny_model(expected.seed));
      std::vector<ConnTruth> truth;
      const auto dataset = g.generate_dataset(threads, &truth);
      EXPECT_EQ(sha256_hex(logs_text(dataset)), expected.sha256);
      ASSERT_EQ(truth.size(), dataset.ssl().size());
      for (std::size_t i = 0; i < truth.size(); ++i) {
        ASSERT_EQ(truth[i].uid, dataset.ssl()[i].uid) << "row " << i;
      }
    }
  }
}

// Units run concurrently and each logs CT records and counts into its
// own result; the merged CT database and stats must not depend on which
// unit finished first.
TEST(Generator, StatsAndCtDatabaseIdenticalAcrossThreadCounts) {
  for (const auto& expected : kTinyDigests) {
    TraceGenerator serial(tiny_model(expected.seed));
    serial.generate_dataset(1);
    for (const std::size_t threads : {4u, 7u}) {
      SCOPED_TRACE("seed " + std::to_string(expected.seed) + ", threads " +
                   std::to_string(threads));
      TraceGenerator g(tiny_model(expected.seed));
      g.generate_dataset(threads);
      EXPECT_EQ(g.stats().connections, serial.stats().connections);
      EXPECT_EQ(g.stats().mutual_connections,
                serial.stats().mutual_connections);
      EXPECT_EQ(g.stats().certificates_minted,
                serial.stats().certificates_minted);
      EXPECT_TRUE(g.ct_database() == serial.ct_database());
    }
    EXPECT_GT(serial.ct_database().domain_count(), 0u);
  }
}

// The fork salts of named streams: libstdc++'s std::hash<std::string>
// values for these labels, pinned so the generator's bytes cannot move
// with the standard library.
TEST(Generator, LabelHashIsPinned) {
  EXPECT_EQ(label_hash("in-health"), 0x40f58b5163719256ULL);
  EXPECT_EQ(label_hash("out-azure-runbook"), 0xb9c865c3c89c0507ULL);
  EXPECT_EQ(label_hash("out-widgits-servers"), 0xf22b66f2af9a1f7eULL);
  EXPECT_EQ(label_hash("nm-fnmt"), 0xa2d1b4a0ad6f80bbULL);
  EXPECT_EQ(label_hash("missing:in-health"), 0xc4168c3c8170614fULL);
}

// generate_dataset() reserves the planned row count up front: the count
// must be the plan's, or the rows would grow (and move) again, leaving
// spare capacity; an over-count leaves spare capacity too.
// The models: tiny, the paper job's two calibrated passes (the pristine
// model of table1/7/8/9/13/14 and interception's), and the oracle's.
TEST(Generator, PlannedConnectionsMatchThePlan) {
  const std::pair<const char*, CampusModel> models[] = {
      {"tiny", tiny_model()},
      {"pristine", paper_model(100, 400'000)},
      {"interception", paper_model(500, 50'000)},
      {"truth", truth_models::hand_built_model()},
  };
  for (const auto& [name, model] : models) {
    SCOPED_TRACE(name);
    TraceGenerator g(model);
    const auto dataset = g.generate_dataset(4);
    EXPECT_EQ(dataset.ssl().size(), g.stats().connections);
    EXPECT_EQ(dataset.ssl().capacity(), dataset.ssl().size());
  }
}

TEST(Generator, SinkAndDatasetAgree) {
  zeek::Dataset streamed;
  TraceGenerator a(tiny_model());
  a.generate([&streamed](const tls::TlsConnection& c) {
    streamed.add_connection(c);
  });
  TraceGenerator b(tiny_model());
  const zeek::Dataset built = b.generate_dataset(4);
  EXPECT_EQ(logs_text(streamed), logs_text(built));
  EXPECT_EQ(a.stats().connections, b.stats().connections);
  EXPECT_EQ(a.stats().mutual_connections, b.stats().mutual_connections);
  EXPECT_EQ(a.stats().certificates_minted, b.stats().certificates_minted);
  // Certificates seen only under TLS 1.3 (or never picked) get no row.
  EXPECT_LT(built.certificate_count(), b.stats().certificates_minted);
}

TEST(Generator, SeedChangesStream) {
  auto model_a = tiny_model();
  auto model_b = tiny_model();
  model_b.seed ^= 0xdeadbeef;
  std::set<std::string> snis_a, snis_b;
  std::vector<util::UnixSeconds> ts_a, ts_b;
  TraceGenerator ga(std::move(model_a));
  ga.generate([&](const tls::TlsConnection& c) {
    if (ts_a.size() < 200) ts_a.push_back(c.timestamp);
  });
  TraceGenerator gb(std::move(model_b));
  gb.generate([&](const tls::TlsConnection& c) {
    if (ts_b.size() < 200) ts_b.push_back(c.timestamp);
  });
  EXPECT_NE(ts_a, ts_b);
}

TEST(Generator, TimestampsWithinStudyWindow) {
  const auto model = tiny_model();
  const auto start = model.study_start;
  const auto end = model.study_end;
  TraceGenerator g(tiny_model());
  g.generate([&](const tls::TlsConnection& c) {
    ASSERT_GE(c.timestamp, start);
    ASSERT_LT(c.timestamp, end);
  });
}

TEST(Generator, CertificatesValidAtUseUnlessIntentional) {
  // Outside the deliberately-expired / wrong-date cohorts, the leaf
  // presented in a connection must be valid at the connection time.
  TraceGenerator g(tiny_model());
  std::size_t total = 0, violations = 0;
  g.generate([&](const tls::TlsConnection& c) {
    for (const auto* leaf : {c.server_leaf(), c.client_leaf()}) {
      if (leaf == nullptr) continue;
      if (leaf->validity.dates_incorrect()) continue;  // Fig 3 cohorts
      if (leaf->validity.not_after <
          util::to_unix({2022, 5, 1, 0, 0, 0})) {
        continue;  // Fig 5 cohorts: expired before the study by design
      }
      ++total;
      if (!leaf->validity.contains(c.timestamp)) ++violations;
    }
  });
  ASSERT_GT(total, 1'000u);
  // The intentional cohorts (Fig 5 expired certs, GuardiCore long tails)
  // are a small fraction of the trace.
  EXPECT_LT(static_cast<double>(violations) / static_cast<double>(total),
            0.08);
}

TEST(Generator, MutualConnectionsHaveBothChains) {
  TraceGenerator g(tiny_model());
  g.generate([](const tls::TlsConnection& c) {
    if (c.is_mutual()) {
      ASSERT_FALSE(c.server_chain.empty());
      ASSERT_FALSE(c.client_chain.empty());
    }
  });
}

TEST(Generator, Tls13ConnectionsCarryNoCertificates) {
  TraceGenerator g(tiny_model());
  g.generate([](const tls::TlsConnection& c) {
    if (c.version == tls::TlsVersion::kTls13) {
      ASSERT_TRUE(c.server_chain.empty());
      ASSERT_TRUE(c.client_chain.empty());
    }
  });
}

TEST(Generator, ProducesPaperPopulations) {
  TraceGenerator g(tiny_model());
  bool saw_globus = false, saw_guardicore = false, saw_widgits = false,
       saw_webrtc = false, saw_fxp_sni = false, saw_personal = false;
  g.generate([&](const tls::TlsConnection& c) {
    if (c.sni == "FXP DCAU Cert") saw_fxp_sni = true;
    for (const auto* leaf : {c.server_leaf(), c.client_leaf()}) {
      if (leaf == nullptr) continue;
      const auto org = leaf->issuer.organization();
      if (org == "Globus Online") saw_globus = true;
      if (org == "GuardiCore") saw_guardicore = true;
      if (org == "Internet Widgits Pty Ltd") saw_widgits = true;
      const auto cn = leaf->subject.common_name();
      if (cn && cn->rfind("WebRTC", 0) == 0) saw_webrtc = true;
      if (cn && *cn == "John Smith") saw_personal = true;  // may not occur
    }
  });
  EXPECT_TRUE(saw_globus);
  EXPECT_TRUE(saw_guardicore);
  EXPECT_TRUE(saw_widgits);
  EXPECT_TRUE(saw_webrtc);
  EXPECT_TRUE(saw_fxp_sni);
  (void)saw_personal;
}

TEST(Generator, GlobusShareSameCertBothEnds) {
  TraceGenerator g(tiny_model());
  std::size_t globus_conns = 0, same_cert = 0;
  g.generate([&](const tls::TlsConnection& c) {
    if (c.sni != "FXP DCAU Cert" || !c.is_mutual()) return;
    ++globus_conns;
    same_cert +=
        c.server_leaf()->fingerprint() == c.client_leaf()->fingerprint();
  });
  ASSERT_GT(globus_conns, 0u);
  EXPECT_EQ(same_cert, globus_conns);
}

TEST(Generator, GlobusCertsRotateWithinValidity) {
  TraceGenerator g(tiny_model());
  std::set<std::string> fingerprints;
  g.generate([&](const tls::TlsConnection& c) {
    if (c.sni != "FXP DCAU Cert" || c.server_leaf() == nullptr) return;
    const auto* leaf = c.server_leaf();
    fingerprints.insert(leaf->fingerprint_hex());
    EXPECT_EQ(leaf->serial_hex(), "00");
    // 14-day reissue cycle.
    EXPECT_LE(leaf->validity.period_days(), 15);
    EXPECT_TRUE(leaf->validity.contains(c.timestamp));
  });
  EXPECT_GT(fingerprints.size(), 5u);
}

TEST(Generator, CtDatabasePopulatedForPublicServers) {
  TraceGenerator g(tiny_model());
  g.generate([](const tls::TlsConnection&) {});
  const auto& ct = g.ct_database();
  EXPECT_TRUE(ct.has_domain("amazonaws.com"));
  EXPECT_TRUE(ct.has_domain("rapid7.com"));
  // Private-CA-only domains are not in CT.
  EXPECT_FALSE(ct.has_domain("brhealth.org"));
}

TEST(Generator, StatsMatchStream) {
  TraceGenerator g(tiny_model());
  std::size_t conns = 0, mutual = 0;
  g.generate([&](const tls::TlsConnection& c) {
    ++conns;
    mutual += c.is_mutual();
  });
  EXPECT_EQ(g.stats().connections, conns);
  EXPECT_EQ(g.stats().mutual_connections, mutual);
  EXPECT_GT(g.stats().certificates_minted, 0u);
}

TEST(Generator, CampusAndDummyNameHelpers) {
  const auto campus = TraceGenerator::campus_issuer_names();
  ASSERT_FALSE(campus.empty());
  EXPECT_EQ(campus[0], "Blue Ridge University");
  const auto dummies = TraceGenerator::dummy_issuer_names();
  EXPECT_EQ(dummies.size(), 4u);
}

TEST(Generator, DirectionConsistentWithAddresses) {
  const auto inside = [](const net::IpAddress& addr) {
    return net::Subnet::parse("128.143.0.0/16")->contains(addr) ||
           net::Subnet::parse("10.0.0.0/8")->contains(addr);
  };
  TraceGenerator g(tiny_model());
  std::size_t checked = 0;
  g.generate([&](const tls::TlsConnection& c) {
    // Border tap: at least one endpoint relates to the university.
    if (inside(c.server.addr)) {
      ++checked;  // inbound: server inside
    } else if (inside(c.client.addr)) {
      ++checked;  // outbound: client inside
    }
  });
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace mtlscope::gen
