// End-to-end integration: generate a scaled campus trace, serialize it to
// Zeek ASCII logs, parse the logs back, run the measurement pipeline over
// the parsed records, and check the paper's headline shapes survive the
// full round trip.
#include <gtest/gtest.h>

#include <sstream>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope {
namespace {

gen::CampusModel test_model() {
  // cert_scale must stay moderate: the tiny fixed-count cohorts (dummy
  // issuers, incorrect dates, …) do not scale below their floors, so an
  // extreme scale would let them distort population-share assertions.
  auto model = gen::paper_model(1'000, 300'000);
  // Keep the background proportional to the (coverage-dominated) mutual
  // volume so the mutual share stays in a plausible band.
  model.background_connections = 60'000;
  return model;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new gen::TraceGenerator(test_model());
    dataset_ = new zeek::Dataset();
    generator_->generate([](const tls::TlsConnection& conn) {
      dataset_->add_connection(conn);
    });

    // Serialize both logs to text and parse them back.
    std::istringstream ssl_in(zeek::ssl_log_to_string(dataset_->ssl()));
    std::istringstream x509_in(zeek::x509_log_to_string(*dataset_));
    auto parsed = zeek::parse_dataset(ssl_in, x509_in);
    ASSERT_TRUE(parsed.has_value());
    parsed_ = new zeek::Dataset(std::move(*parsed));

    // Pipeline over the PARSED records (full log round trip).
    auto config = core::PipelineConfig::campus_defaults();
    config.ct = &generator_->ct_database();
    core::PipelineExecutor executor(std::move(config), 2);
    core::Sharded<core::PrevalenceAnalyzer> prevalence(executor.shard_count());
    core::Sharded<core::ServicePortAnalyzer> ports(executor.shard_count());
    core::Sharded<core::SharedCertAnalyzer> shared(executor.shard_count());
    executor.attach(prevalence);
    executor.attach(ports);
    executor.attach(shared);
    pipeline_ = new core::Pipeline(executor.run(*parsed_));
    prevalence_ = new core::PrevalenceAnalyzer(std::move(prevalence).merged());
    ports_ = new core::ServicePortAnalyzer(std::move(ports).merged());
    shared_ = new core::SharedCertAnalyzer(std::move(shared).merged());
  }

  static void TearDownTestSuite() {
    delete prevalence_;
    delete ports_;
    delete shared_;
    delete pipeline_;
    delete parsed_;
    delete dataset_;
    delete generator_;
  }

  static gen::TraceGenerator* generator_;
  static zeek::Dataset* dataset_;
  static zeek::Dataset* parsed_;
  static core::Pipeline* pipeline_;
  static core::PrevalenceAnalyzer* prevalence_;
  static core::ServicePortAnalyzer* ports_;
  static core::SharedCertAnalyzer* shared_;
};

gen::TraceGenerator* IntegrationTest::generator_ = nullptr;
zeek::Dataset* IntegrationTest::dataset_ = nullptr;
zeek::Dataset* IntegrationTest::parsed_ = nullptr;
core::Pipeline* IntegrationTest::pipeline_ = nullptr;
core::PrevalenceAnalyzer* IntegrationTest::prevalence_ = nullptr;
core::ServicePortAnalyzer* IntegrationTest::ports_ = nullptr;
core::SharedCertAnalyzer* IntegrationTest::shared_ = nullptr;

TEST_F(IntegrationTest, LogRoundTripPreservesEverything) {
  EXPECT_EQ(parsed_->connection_count(), dataset_->connection_count());
  EXPECT_EQ(parsed_->certificate_count(), dataset_->certificate_count());
  for (const auto& [fuid, original] : dataset_->x509()) {
    const auto* round_tripped = parsed_->find_certificate(fuid);
    ASSERT_NE(round_tripped, nullptr) << fuid;
    EXPECT_EQ(round_tripped->subject, original.subject);
    EXPECT_EQ(round_tripped->serial, original.serial);
    EXPECT_EQ(round_tripped->cert_der, original.cert_der);
  }
}

TEST_F(IntegrationTest, PipelineSawEveryNonExcludedConnection) {
  EXPECT_GT(pipeline_->totals().connections, 5'000u);
  EXPECT_EQ(pipeline_->totals().connections +
                pipeline_->interception_excluded_connections() +
                pipeline_->totals().rejected_handshakes,
            parsed_->connection_count());
}

TEST_F(IntegrationTest, StrictValidatorsRejectExpiredClients) {
  // The model includes one strict cohort whose expired-cert handshakes
  // fail; the pipeline must drop them (§3.2.1 established-only analysis).
  EXPECT_GT(pipeline_->totals().rejected_handshakes, 0u);
}

TEST_F(IntegrationTest, MutualShareIsPlausible) {
  const auto& totals = pipeline_->totals();
  const double share = static_cast<double>(totals.mutual) /
                       static_cast<double>(totals.connections);
  // With the default 8x background multiplier, mutual sits around 5-20%.
  EXPECT_GT(share, 0.02);
  EXPECT_LT(share, 0.4);
}

TEST_F(IntegrationTest, AdoptionGrowsOverTheStudy) {
  const auto series = prevalence_->series();
  ASSERT_EQ(series.size(), 23u);  // May 2022 .. March 2024
  EXPECT_GT(series.back().mutual_pct(), series.front().mutual_pct());
}

TEST_F(IntegrationTest, HttpsDominatesEveryQuadrant) {
  for (const auto dir : {core::Direction::kInbound,
                         core::Direction::kOutbound}) {
    for (const bool mutual : {false, true}) {
      const auto top = ports_->top(dir, mutual, 1);
      ASSERT_FALSE(top.empty());
      EXPECT_EQ(top[0].port_label, "443")
          << gen::direction_name(dir) << " mutual=" << mutual;
    }
  }
}

TEST_F(IntegrationTest, CertificateInventoryShape) {
  const auto inventory = core::analyze_cert_inventory(*pipeline_);
  EXPECT_GT(inventory.total.total, 1'000u);
  // Paper shapes: client certs overwhelmingly mutual, public server certs
  // rarely mutual, private server certs mostly mutual.
  EXPECT_GT(inventory.client.mutual_pct(), 80.0);
  EXPECT_LT(inventory.server_public.mutual_pct(), 10.0);
  EXPECT_GT(inventory.server_private.mutual_pct(), 50.0);
}

TEST_F(IntegrationTest, SameConnSharingSurvivesRoundTrip) {
  const auto rows = shared_->same_connection_rows();
  bool globus = false;
  for (const auto& row : rows) {
    if (row.issuer == "Globus Online") globus = true;
  }
  EXPECT_TRUE(globus);
}

TEST_F(IntegrationTest, InterceptionFilteredOut) {
  EXPECT_FALSE(pipeline_->interception_issuers().empty());
  EXPECT_GT(pipeline_->interception_excluded_connections(), 0u);
  // None of the flagged issuers is a campus CA.
  for (const auto& issuer : pipeline_->interception_issuers()) {
    EXPECT_EQ(issuer.view().find("Blue Ridge University"),
              std::string_view::npos);
  }
}

TEST_F(IntegrationTest, SensitiveInformationDetected) {
  const auto info =
      core::analyze_info_types(*pipeline_, core::CertScope::kMutual);
  const auto& client_private = info.cells[1][1];
  EXPECT_GT(client_private.cn[static_cast<std::size_t>(
                textclass::InfoType::kPersonalName)],
            0u);
  EXPECT_GT(client_private.cn[static_cast<std::size_t>(
                textclass::InfoType::kUserAccount)],
            0u);
  // Org/Product (WebRTC et al.) is the dominant bucket. At this scale
  // random slot coverage shaves a few percent, so compare against the
  // next-largest bucket rather than an absolute majority.
  const auto org = client_private.cn[static_cast<std::size_t>(
      textclass::InfoType::kOrgProduct)];
  for (std::size_t i = 0; i < textclass::kInfoTypeCount; ++i) {
    if (i == static_cast<std::size_t>(textclass::InfoType::kOrgProduct)) {
      continue;
    }
    EXPECT_GE(org, client_private.cn[i]) << "info type " << i;
  }
  EXPECT_GT(org, client_private.cn_total / 3);
}

TEST_F(IntegrationTest, UtilizationMatchesPaperDirection) {
  const auto util =
      core::analyze_utilization(*pipeline_, core::CertScope::kMutual);
  const auto pct = [](const core::UtilizationResult::Row& r, bool cn) {
    return r.total == 0 ? 0.0
                        : 100.0 * static_cast<double>(cn ? r.cn : r.san_dns) /
                              static_cast<double>(r.total);
  };
  EXPECT_GT(pct(util.server, true), 99.0);
  EXPECT_LT(pct(util.server_priv, false), 5.0);
  EXPECT_GT(pct(util.server_pub, false), 50.0);
}

}  // namespace
}  // namespace mtlscope
