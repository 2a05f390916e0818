// Parity and property tests for the compiled-plan Zeek parsers: the
// zero-copy batch fast path (parse_ssl_records / parse_x509_records)
// against the row-materializing reference parsers, plus the tokenizer's
// allocation-free guarantee and the schema-plan compiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/core/chain_upgrade.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

// Global allocation counter for the allocation-free tokenizer check.
// Counting (not forbidding) keeps gtest and the fixtures free to
// allocate; the test measures the delta across the hot loop only.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mtlscope;

// --- helpers ---------------------------------------------------------------

void expect_equal(const zeek::SslRecord& a, const zeek::SslRecord& b,
                  std::size_t row) {
  EXPECT_EQ(a.ts, b.ts) << "row " << row;
  EXPECT_EQ(a.uid, b.uid) << "row " << row;
  EXPECT_EQ(a.orig_h, b.orig_h) << "row " << row;
  EXPECT_EQ(a.orig_p, b.orig_p) << "row " << row;
  EXPECT_EQ(a.resp_h, b.resp_h) << "row " << row;
  EXPECT_EQ(a.resp_p, b.resp_p) << "row " << row;
  EXPECT_EQ(a.version, b.version) << "row " << row;
  EXPECT_EQ(a.server_name, b.server_name) << "row " << row;
  EXPECT_EQ(a.established, b.established) << "row " << row;
  EXPECT_EQ(a.cert_chain_fuids, b.cert_chain_fuids) << "row " << row;
  EXPECT_EQ(a.client_cert_chain_fuids, b.client_cert_chain_fuids)
      << "row " << row;
}

void expect_equal(const zeek::X509Record& a, const zeek::X509Record& b,
                  std::size_t row) {
  EXPECT_EQ(a.fuid, b.fuid) << "row " << row;
  EXPECT_EQ(a.version, b.version) << "row " << row;
  EXPECT_EQ(a.serial, b.serial) << "row " << row;
  EXPECT_EQ(a.subject, b.subject) << "row " << row;
  EXPECT_EQ(a.issuer, b.issuer) << "row " << row;
  EXPECT_EQ(a.not_valid_before, b.not_valid_before) << "row " << row;
  EXPECT_EQ(a.not_valid_after, b.not_valid_after) << "row " << row;
  EXPECT_EQ(a.key_alg, b.key_alg) << "row " << row;
  EXPECT_EQ(a.key_length, b.key_length) << "row " << row;
  EXPECT_EQ(a.san_dns, b.san_dns) << "row " << row;
  EXPECT_EQ(a.san_email, b.san_email) << "row " << row;
  EXPECT_EQ(a.san_uri, b.san_uri) << "row " << row;
  EXPECT_EQ(a.san_ip, b.san_ip) << "row " << row;
  EXPECT_EQ(a.cert_der, b.cert_der) << "row " << row;
}

enum class FieldKind { kTime, kPort, kCount, kScalar, kBool, kVector };

FieldKind ssl_field_kind(std::string_view name) {
  if (name == "ts") return FieldKind::kTime;
  if (name == "id.orig_p" || name == "id.resp_p") return FieldKind::kPort;
  if (name == "established") return FieldKind::kBool;
  if (name == "cert_chain_fuids" || name == "client_cert_chain_fuids") {
    return FieldKind::kVector;
  }
  return FieldKind::kScalar;
}

FieldKind x509_field_kind(std::string_view name) {
  if (name == "certificate.not_valid_before" ||
      name == "certificate.not_valid_after") {
    return FieldKind::kTime;
  }
  if (name == "certificate.version" || name == "certificate.key_length") {
    return FieldKind::kCount;
  }
  if (name.substr(0, 4) == "san.") return FieldKind::kVector;
  return FieldKind::kScalar;
}

/// A raw (already-escaped) field value drawn from a pool that covers the
/// interesting cases: unset, (empty), every escape the writer emits,
/// lone backslashes, and literal commas inside scalars.
std::string random_raw(FieldKind kind, std::mt19937& rng) {
  auto pick = [&rng](std::initializer_list<const char*> pool) {
    std::uniform_int_distribution<std::size_t> dist(0, pool.size() - 1);
    return std::string(*(pool.begin() + dist(rng)));
  };
  switch (kind) {
    case FieldKind::kTime:
      return pick({"1700000000.123456", "5.0", "123.000000", "0.0"});
    case FieldKind::kPort:
      return pick({"443", "0", "65535", "-", "8443"});
    case FieldKind::kCount:
      return pick({"3", "-", "1024", "0"});
    case FieldKind::kBool:
      return pick({"T", "F", "-"});
    case FieldKind::kScalar:
      return pick({"plain", "-", "(empty)", "a\\x09b", "back\\x5cslash",
                   "comma, literal", "ends\\x5c", "lone\\backslash",
                   "TLSv12", "crl\\x0aafter"});
    case FieldKind::kVector:
      return pick({"-", "(empty)", "F1abcdefabcdefabcd",
                   "F1abcdefabcdefabcd,F2abcdefabcdefabcd",
                   "F\\x2cmid,Fplain", "F\\x5ctail,F2", "one,two,three"});
  }
  return "-";
}

std::vector<std::string> ssl_columns() {
  return {"ts",           "uid",       "id.orig_h",
          "id.orig_p",    "id.resp_h", "id.resp_p",
          "version",      "server_name", "established",
          "cert_chain_fuids", "client_cert_chain_fuids", "extra_col"};
}

std::vector<std::string> x509_columns() {
  return {"fuid",
          "certificate.version",
          "certificate.serial",
          "certificate.subject",
          "certificate.issuer",
          "certificate.not_valid_before",
          "certificate.not_valid_after",
          "certificate.key_alg",
          "certificate.key_length",
          "san.dns",
          "san.email",
          "san.uri",
          "san.ip",
          "cert_der",
          "extra_col"};
}

struct GeneratedLog {
  std::string text;    // full log, header + body
  std::string header;  // leading '#' block (newline-terminated)
  std::string body;    // data rows (and any mid-body comments)
};

/// Builds a log with a shuffled column order and randomized raw values.
/// `crlf` terminates every line with "\r\n" instead of "\n".
template <typename KindFn>
GeneratedLog generate_log(std::vector<std::string> columns,
                          const KindFn& kind_of, std::size_t rows,
                          std::mt19937& rng, bool crlf) {
  std::shuffle(columns.begin(), columns.end(), rng);
  const std::string eol = crlf ? "\r\n" : "\n";
  GeneratedLog log;
  log.header = "#separator \\x09" + eol + "#path\ttest" + eol + "#fields";
  for (const auto& name : columns) log.header += "\t" + name;
  log.header += eol;
  for (std::size_t i = 0; i < rows; ++i) {
    std::string line;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) line += '\t';
      if (columns[c] == "extra_col") {
        line += "junk\\x09junk";  // unknown column: ignored by the plans
      } else {
        line += random_raw(kind_of(columns[c]), rng);
      }
    }
    log.body += line + eol;
    if (i == rows / 2) {
      // A mid-body comment (Zeek writes #close footers); and a second
      // #fields line, which first-#fields-wins must ignore.
      log.body += "#close\t2024-01-01" + eol;
      log.body += "#fields\tbogus\tcolumns" + eol;
    }
  }
  log.text = log.header + log.body;
  return log;
}

// --- parity property tests -------------------------------------------------

TEST(ZeekParseParity, SslFastMatchesReferenceAcrossShuffledSchemas) {
  std::mt19937 rng(20240805);
  for (int trial = 0; trial < 30; ++trial) {
    const bool crlf = trial % 3 == 0;
    const auto log = generate_log(ssl_columns(), ssl_field_kind, 25, rng, crlf);
    std::istringstream fast_in(log.text);
    std::istringstream ref_in(log.text);
    zeek::LogParseError fast_err, ref_err;
    const auto fast = zeek::parse_ssl_log(fast_in, &fast_err);
    const auto ref = zeek::parse_ssl_log_reference(ref_in, &ref_err);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "trial " << trial;
    ASSERT_TRUE(fast.has_value())
        << "trial " << trial << ": " << fast_err.message;
    ASSERT_EQ(fast->size(), ref->size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast->size(); ++i) {
      expect_equal((*fast)[i], (*ref)[i], i);
    }
  }
}

TEST(ZeekParseParity, X509FastMatchesReferenceAcrossShuffledSchemas) {
  std::mt19937 rng(20240806);
  for (int trial = 0; trial < 30; ++trial) {
    const bool crlf = trial % 4 == 0;
    const auto log =
        generate_log(x509_columns(), x509_field_kind, 25, rng, crlf);
    std::istringstream fast_in(log.text);
    std::istringstream ref_in(log.text);
    zeek::LogParseError fast_err, ref_err;
    const auto fast = zeek::parse_x509_log(fast_in, &fast_err);
    const auto ref = zeek::parse_x509_log_reference(ref_in, &ref_err);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "trial " << trial;
    ASSERT_TRUE(fast.has_value())
        << "trial " << trial << ": " << fast_err.message;
    ASSERT_EQ(fast->size(), ref->size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast->size(); ++i) {
      expect_equal((*fast)[i], (*ref)[i], i);
    }
  }
}

TEST(ZeekParseParity, ChunkBoundarySplitsReproduceTheSerialParse) {
  std::mt19937 rng(7);
  const auto log = generate_log(ssl_columns(), ssl_field_kind, 40, rng,
                                /*crlf=*/false);
  const zeek::SslPlan plan =
      zeek::SslPlan::compile(zeek::ColumnPlan::from_header(log.header));
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.missing, nullptr);

  std::vector<zeek::SslRecord> whole;
  ASSERT_TRUE(zeek::parse_ssl_records(log.body, plan, whole));

  // Split the body at every record boundary: parsing the two halves as
  // separate batches into one vector must reproduce the serial parse.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = log.body.find('\n'); pos != std::string::npos;
       pos = log.body.find('\n', pos + 1)) {
    cuts.push_back(pos + 1);
  }
  for (const std::size_t cut : cuts) {
    std::vector<zeek::SslRecord> split;
    const std::string_view body(log.body);
    ASSERT_TRUE(zeek::parse_ssl_records(body.substr(0, cut), plan, split));
    ASSERT_TRUE(zeek::parse_ssl_records(body.substr(cut), plan, split));
    ASSERT_EQ(split.size(), whole.size()) << "cut at " << cut;
    for (std::size_t i = 0; i < split.size(); ++i) {
      expect_equal(split[i], whole[i], i);
    }
  }
}

// --- exact decode semantics ------------------------------------------------

TEST(ZeekParseSemantics, EscapesUnsetAndEmptyDecodeExactly) {
  const std::string text =
      "#fields\tuid\tts\tid.resp_p\tserver_name\tid.orig_h\tid.orig_p"
      "\tid.resp_h\testablished\tversion\tcert_chain_fuids"
      "\tclient_cert_chain_fuids\n"
      "CABC\t12.5\t443\ttab\\x09here\t10.0.0.1\t51000\t10.0.0.2\tT\t-"
      "\tF1,F\\x2cmid,F\\x5cslash\t(empty)\n"
      "CDEF\t13.0\t-\t(empty)\t10.0.0.3\t51001\t10.0.0.4\tF\tTLSv13\t-"
      "\tlone\\backslash\n";
  std::istringstream in(text);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  const auto& r0 = (*parsed)[0];
  EXPECT_EQ(r0.uid, "CABC");
  EXPECT_EQ(r0.ts, 12);
  EXPECT_EQ(r0.resp_p, 443);
  EXPECT_EQ(r0.server_name, "tab\there");  // \x09 unescapes to TAB
  EXPECT_EQ(r0.version, "");               // "-" is unset
  EXPECT_TRUE(r0.established);
  EXPECT_EQ(r0.cert_chain_fuids,
            (std::vector<colfmt::Str>{"F1", "F,mid", "F\\slash"}));
  EXPECT_TRUE(r0.client_cert_chain_fuids.empty());
  const auto& r1 = (*parsed)[1];
  EXPECT_EQ(r1.resp_p, 0);                  // "-" port parses as 0
  EXPECT_EQ(r1.server_name, "(empty)");     // scalar "(empty)" stays literal
  EXPECT_FALSE(r1.established);
  EXPECT_TRUE(r1.cert_chain_fuids.empty());
  EXPECT_EQ(r1.client_cert_chain_fuids,
            (std::vector<colfmt::Str>{"lone\\backslash"}));
}

TEST(ZeekParseSemantics, DataRowBeforeHeaderFailsBothPaths) {
  const std::string text = "#path\tssl\nrow before header\n";
  {
    std::istringstream in(text);
    zeek::LogParseError error;
    EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
    EXPECT_EQ(error.message, "data row before #fields header");
    EXPECT_EQ(error.line, 2u);
  }
  {
    std::istringstream in(text);
    zeek::LogParseError error;
    EXPECT_FALSE(zeek::parse_ssl_log_reference(in, &error).has_value());
    EXPECT_EQ(error.message, "data row before #fields header");
    EXPECT_EQ(error.line, 2u);
  }
}

TEST(ZeekParseSemantics, FirstFieldsLineWinsInBothPaths) {
  // The second #fields line must be treated as a comment (it would
  // otherwise remap — and here break — every row).
  const std::string text =
      "#fields\tfuid\tcertificate.serial\n"
      "Fone\tAA01\n"
      "#fields\tcertificate.serial\tfuid\n"
      "Ftwo\tAA02\n";
  std::istringstream fast_in(text);
  std::istringstream ref_in(text);
  const auto fast = zeek::parse_x509_log(fast_in);
  const auto ref = zeek::parse_x509_log_reference(ref_in);
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(ref.has_value());
  ASSERT_EQ(fast->size(), 2u);
  ASSERT_EQ(ref->size(), 2u);
  EXPECT_EQ((*fast)[1].fuid, "Ftwo");
  EXPECT_EQ((*fast)[1].serial, "AA02");
  for (std::size_t i = 0; i < 2; ++i) expect_equal((*fast)[i], (*ref)[i], i);
}

TEST(ZeekParseSemantics, ErrorLineNumbersCountPhysicalLines) {
  const std::string text =
      "#separator \\x09\n"
      "#path\tssl\n"
      "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\n"
      "1.0\tC1\t10.0.0.1\t1\t10.0.0.2\t2\n"
      "short\trow\n";
  std::istringstream in(text);
  zeek::LogParseError error;
  EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
  EXPECT_EQ(error.message, "field count mismatch");
  EXPECT_EQ(error.line, 5u);  // physical line, header included
}

// --- column manifests ------------------------------------------------------

/// One hostile ssl log: a '#' header block and the body after it.
struct ManifestCase {
  const char* name;
  std::string header;
  std::string body;
};

std::string ssl_fields_line(const std::vector<std::string>& columns,
                            const std::string& eol = "\n") {
  std::string line = "#fields";
  for (const auto& name : columns) line += "\t" + name;
  return line + eol;
}

/// The eleven ssl columns the parsers know, in Zeek's order.
std::vector<std::string> known_ssl_columns() {
  std::vector<std::string> columns = ssl_columns();
  columns.pop_back();  // extra_col
  return columns;
}

std::vector<ManifestCase> manifest_corpus() {
  const std::string header = "#separator \\x09\n#path\tssl\n" +
                             ssl_fields_line(known_ssl_columns());
  const std::string good =
      "1.5\tC1\t10.0.0.1\t50000\t10.0.0.2\t443\tTLSv12\ta.test\tT"
      "\tF1,F2\tF3\n";
  const std::string mixed =  // "-", "(empty)" and empty elements
      "2.0\tC2\t10.0.0.3\t-\t10.0.0.4\t8443\t-\t(empty)\tF\t,F1,\t(empty)\n"
      "3.0\tC3\t10.0.0.5\t50001\t10.0.0.6\t443\t(empty)\t-\tT\t-\tF2,,F3\n";
  const std::string escaped =  // \x2c-escaped fuids stay one element
      "4.0\tC4\t10.0.0.7\t50002\t10.0.0.8\t443\tTLSv13\tb\\x09c\tT"
      "\tF\\x2cone,F\\x5ctwo\tF\\x2c\n";
  std::vector<ManifestCase> corpus;
  corpus.push_back({"clean", header, good + mixed + escaped});
  corpus.push_back(
      {"bad numerics", header,
       good + "x.5\tC5\t1.1.1.1\t1\t2.2.2.2\t443\t-\t-\tT\tF1\tF2\n" +
           "5.0\tC6\t1.1.1.1\tport\t2.2.2.2\t443\t-\t-\tT\tF1\tF2\n" + mixed +
           "6.0\tC7\t1.1.1.1\t1\t2.2.2.2\t4x3\t-\t-\tT\tF1\tF2\n" + escaped});
  corpus.push_back(
      {"field count mismatch", header,
       good + "7.0\tC8\t1.1.1.1\t1\t2.2.2.2\t443\tT\n" + mixed +
           "8.0\tC9\t1.1.1.1\t1\t2.2.2.2\t443\t-\t-\tT\tF1\tF2\textra\n"});
  std::string crlf = good + mixed + escaped;
  for (std::size_t pos = crlf.find('\n'); pos != std::string::npos;
       pos = crlf.find('\n', pos + 2)) {
    crlf.insert(pos, "\r");
  }
  corpus.push_back({"crlf", "#path\tssl\r\n" +
                                ssl_fields_line(known_ssl_columns(), "\r\n"),
                    crlf});
  corpus.push_back({"mid-body # lines", header,
                    good + "#close\t2024-01-01\n" +
                        ssl_fields_line({"uid", "ts"}) + mixed + "#\n" +
                        escaped});
  // No #fields in the header: the strict parser compiles the first one
  // in the body (keeping the manifest); the tolerant one never does.
  corpus.push_back({"#fields inside the body", "#path\tssl\n",
                    ssl_fields_line(known_ssl_columns()) + good + mixed});
  std::vector<std::string> no_established = known_ssl_columns();
  no_established.erase(std::find(no_established.begin(),
                                 no_established.end(), "established"));
  corpus.push_back(
      {"no established column", ssl_fields_line(no_established),
       "1.0\tC1\t10.0.0.1\t1\t10.0.0.2\t443\tTLSv12\ta\tF1,F2\tF3\n"
       "2.0\tC2\t10.0.0.1\tbad\t10.0.0.2\t443\tTLSv12\ta\tF1,F2\tF3\n"});
  std::vector<std::string> no_client_chain = known_ssl_columns();
  no_client_chain.pop_back();
  corpus.push_back(
      {"no client chain column", ssl_fields_line(no_client_chain),
       "1.0\tC1\t10.0.0.1\t1\t10.0.0.2\t443\tTLSv12\ta\tT\tF1,F2\n"
       "2.0\tC2\t10.0.0.1\t1\t10.0.0.2\t443\tTLSv12\ta\tT\tF1\tF9\n"});
  corpus.push_back(
      {"unterminated last row", header,
       good + mixed + "9.0\tC9\t1.1.1.1\t1\t2.2.2.2\t443\t-\t-\tT\tF1,F2\tF3"});
  return corpus;
}

/// The fields of `full` that `columns` projects; the rest default, as a
/// freshly emplaced record leaves them.
zeek::SslRecord projection_of(const zeek::SslRecord& full,
                              const zeek::SslColumns& columns) {
  zeek::SslRecord out;
  if (columns.ts) out.ts = full.ts;
  if (columns.uid) out.uid = full.uid;
  if (columns.endpoints) {
    out.orig_h = full.orig_h;
    out.orig_p = full.orig_p;
    out.resp_h = full.resp_h;
    out.resp_p = full.resp_p;
  }
  if (columns.version) out.version = full.version;
  if (columns.server_name) out.server_name = full.server_name;
  if (columns.established) out.established = full.established;
  if (columns.chain_fuids) {
    out.cert_chain_fuids = full.cert_chain_fuids;
    out.client_cert_chain_fuids = full.client_cert_chain_fuids;
  }
  return out;
}

TEST(ZeekParseManifest, ProjectionNeverChangesWhichRowsAreAccepted) {
  const std::pair<const char*, zeek::SslColumns> manifests[] = {
      {"pipeline", zeek::SslColumns::pipeline()},
      {"chains", zeek::SslColumns::chains()},
  };
  for (const auto& c : manifest_corpus()) {
    SCOPED_TRACE(c.name);
    const zeek::SslPlan plan =
        zeek::SslPlan::compile(zeek::ColumnPlan::from_header(c.header));
    const std::size_t header_lines = static_cast<std::size_t>(
        std::count(c.header.begin(), c.header.end(), '\n'));

    std::vector<zeek::SslRecord> full;
    std::vector<zeek::RowIssue> full_issues;
    const auto full_stats = zeek::parse_ssl_records_tolerant(
        c.body, plan, full, &full_issues, header_lines, 1000);
    std::vector<zeek::SslRecord> strict_full;
    zeek::LogParseError strict_full_error;
    const bool strict_full_ok = zeek::parse_ssl_records(
        c.body, plan, strict_full, &strict_full_error, header_lines);

    for (const auto& [manifest_name, columns] : manifests) {
      SCOPED_TRACE(manifest_name);
      const zeek::SslPlan projected = plan.projected(columns);

      std::vector<zeek::SslRecord> rows;
      std::vector<zeek::RowIssue> issues;
      const auto stats = zeek::parse_ssl_records_tolerant(
          c.body, projected, rows, &issues, header_lines, 1000);
      EXPECT_EQ(stats.rows_ok, full_stats.rows_ok);
      EXPECT_EQ(stats.rows_bad, full_stats.rows_bad);
      EXPECT_EQ(stats.lines, full_stats.lines);
      ASSERT_EQ(issues.size(), full_issues.size());
      for (std::size_t i = 0; i < issues.size(); ++i) {
        EXPECT_EQ(issues[i].line, full_issues[i].line) << "issue " << i;
        EXPECT_EQ(issues[i].byte_offset, full_issues[i].byte_offset);
        EXPECT_EQ(issues[i].raw_length, full_issues[i].raw_length);
        EXPECT_EQ(issues[i].reason, full_issues[i].reason);
        EXPECT_EQ(issues[i].digest, full_issues[i].digest);
      }
      ASSERT_EQ(rows.size(), full.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        expect_equal(rows[i], projection_of(full[i], columns), i);
      }

      std::vector<zeek::SslRecord> strict;
      zeek::LogParseError strict_error;
      const bool strict_ok = zeek::parse_ssl_records(
          c.body, projected, strict, &strict_error, header_lines);
      ASSERT_EQ(strict_ok, strict_full_ok);
      if (!strict_ok) {
        EXPECT_EQ(strict_error.line, strict_full_error.line);
        EXPECT_EQ(strict_error.message, strict_full_error.message);
        continue;
      }
      ASSERT_EQ(strict.size(), strict_full.size());
      for (std::size_t i = 0; i < strict.size(); ++i) {
        expect_equal(strict[i], projection_of(strict_full[i], columns), i);
      }
    }
  }
}

TEST(ZeekParseManifest, CorpusCoversEveryRejectionAndDecodeShape) {
  // Pins the corpus itself, so the parity test above cannot pass
  // vacuously: every case parses some rows, the hostile ones quarantine
  // the expected reasons, and the odd values decode as intended.
  std::size_t ok_rows = 0;
  std::vector<std::string> reasons;
  std::vector<zeek::SslRecord> clean;
  for (const auto& c : manifest_corpus()) {
    const zeek::SslPlan plan =
        zeek::SslPlan::compile(zeek::ColumnPlan::from_header(c.header));
    std::vector<zeek::SslRecord> rows;
    std::vector<zeek::RowIssue> issues;
    ok_rows += zeek::parse_ssl_records_tolerant(c.body, plan, rows, &issues)
                   .rows_ok;
    for (const auto& issue : issues) reasons.push_back(issue.reason);
    if (std::string_view(c.name) == "clean") clean = rows;
  }
  EXPECT_GT(ok_rows, 20u);
  for (const char* reason : {"bad numeric field", "field count mismatch",
                             "data row before #fields header"}) {
    EXPECT_NE(std::find(reasons.begin(), reasons.end(), reason),
              reasons.end())
        << reason;
  }
  ASSERT_EQ(clean.size(), 4u);
  EXPECT_EQ(clean[1].cert_chain_fuids,
            (std::vector<colfmt::Str>{"", "F1", ""}));
  EXPECT_TRUE(clean[1].client_cert_chain_fuids.empty());
  EXPECT_EQ(clean[2].client_cert_chain_fuids,
            (std::vector<colfmt::Str>{"F2", "", "F3"}));
  EXPECT_EQ(clean[3].cert_chain_fuids,
            (std::vector<colfmt::Str>{"F,one", "F\\two"}));
  EXPECT_EQ(clean[3].client_cert_chain_fuids,
            (std::vector<colfmt::Str>{"F,"}));
}

// --- phase B chain scan ----------------------------------------------------

/// The chain scan's route (raw views, nothing built) and the record
/// route (chains-manifest records) over one body, each resolved against
/// `registry` by core::ChainResolver.
struct ChainRoutes {
  std::vector<zeek::SslChainRow> raw_rows;
  core::ResolvedChains raw;
  core::ResolvedChains records;
};

TEST(ZeekChainScan, ResolvesLikeTheRecordRouteAndInternsNothing) {
  core::Pipeline::CertMap registry;
  for (const char* fuid : {"F1", "F2", "F3", "F,one", "F\\two", "F,", ""}) {
    core::CertFacts facts;
    facts.fuid = fuid;
    registry.emplace(facts.fuid, facts);
  }
  // Fuids no other test interns, so the raw route's arena check below
  // cannot pass merely because an earlier test interned them.
  const std::string header = "#path\tssl\n" +
                             ssl_fields_line(known_ssl_columns());
  std::vector<ManifestCase> corpus = manifest_corpus();
  corpus.push_back(
      {"unregistered chain members", header,
       // unregistered leaf; registered leaf past an unregistered middle
       "1.0\tC1\t10.0.0.1\t1\t10.0.0.2\t443\t-\t-\tT\tFraw-leaf,F1"
       "\tF1,Fraw-mid,F2\n"
       // only unregistered intermediates; a one-element chain
       "2.0\tC2\t10.0.0.1\t1\t10.0.0.2\t443\t-\t-\tT\tF2,Fraw-mid2\tF3\n"
       // not established: resolves nothing
       "3.0\tC3\t10.0.0.1\t1\t10.0.0.2\t443\t-\t-\tF\tF1,F2\tF1,F3\n"
       // escaped members, one unregistered
       "4.0\tC4\t10.0.0.1\t1\t10.0.0.2\t443\t-\t-\tT"
       "\tF\\x2cone,Fraw\\x2cnew,F\\x5ctwo\t-\n"
       "5.0\tC5\t10.0.0.1\tbad\t10.0.0.2\t443\t-\t-\tT\tF1,F2\t-\n"});
  std::size_t resolved_total = 0;
  for (const auto& c : corpus) {
    SCOPED_TRACE(c.name);
    const zeek::SslPlan plan =
        zeek::SslPlan::compile(zeek::ColumnPlan::from_header(c.header));
    const std::size_t header_lines = static_cast<std::size_t>(
        std::count(c.header.begin(), c.header.end(), '\n'));

    for (const bool skip : {true, false}) {
      SCOPED_TRACE(skip ? "skip mode" : "strict mode");
      ChainRoutes routes;
      core::ChainResolver raw_resolver(registry, routes.raw);
      const zeek::SslChainVisitor visit =
          [&](const zeek::SslChainRow& row) {
            routes.raw_rows.push_back(row);
            raw_resolver.add(row);
          };
      const auto interned_before =
          colfmt::StringArena::global().stats().strings;
      std::vector<zeek::RowIssue> raw_issues;
      zeek::TolerantStats raw_stats;
      zeek::LogParseError raw_error;
      bool raw_ok = true;
      if (skip) {
        raw_stats = zeek::scan_ssl_chains_tolerant(
            c.body, plan, visit, &raw_issues, header_lines, 1000);
      } else {
        raw_ok = zeek::scan_ssl_chains(c.body, plan, visit, &raw_error,
                                       header_lines);
      }
      EXPECT_EQ(colfmt::StringArena::global().stats().strings,
                interned_before);

      const zeek::SslPlan chains = plan.projected(zeek::SslColumns::chains());
      std::vector<zeek::SslRecord> rows;
      std::vector<zeek::RowIssue> issues;
      zeek::TolerantStats stats;
      zeek::LogParseError error;
      bool ok = true;
      if (skip) {
        stats = zeek::parse_ssl_records_tolerant(c.body, chains, rows,
                                                 &issues, header_lines, 1000);
      } else {
        ok = zeek::parse_ssl_records(c.body, chains, rows, &error,
                                     header_lines);
      }
      ASSERT_EQ(raw_ok, ok);
      if (!ok) {
        EXPECT_EQ(raw_error.line, error.line);
        EXPECT_EQ(raw_error.message, error.message);
        continue;
      }
      EXPECT_EQ(raw_stats.rows_ok, stats.rows_ok);
      EXPECT_EQ(raw_stats.rows_bad, stats.rows_bad);
      EXPECT_EQ(raw_stats.lines, stats.lines);
      ASSERT_EQ(raw_issues.size(), issues.size());
      for (std::size_t i = 0; i < issues.size(); ++i) {
        EXPECT_EQ(raw_issues[i].line, issues[i].line) << "issue " << i;
        EXPECT_EQ(raw_issues[i].byte_offset, issues[i].byte_offset);
        EXPECT_EQ(raw_issues[i].raw_length, issues[i].raw_length);
        EXPECT_EQ(raw_issues[i].reason, issues[i].reason);
        EXPECT_EQ(raw_issues[i].digest, issues[i].digest);
      }
      ASSERT_EQ(routes.raw_rows.size(), rows.size());
      std::vector<std::string_view> parts;
      std::string storage;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(routes.raw_rows[i].established, rows[i].established) << i;
        zeek::split_set_field(routes.raw_rows[i].cert_chain_fuids, parts,
                              storage);
        EXPECT_EQ(std::vector<colfmt::Str>(parts.begin(), parts.end()),
                  rows[i].cert_chain_fuids)
            << i;
        zeek::split_set_field(routes.raw_rows[i].client_cert_chain_fuids,
                              parts, storage);
        EXPECT_EQ(std::vector<colfmt::Str>(parts.begin(), parts.end()),
                  rows[i].client_cert_chain_fuids)
            << i;
      }
      core::ChainResolver resolver(registry, routes.records);
      for (const auto& row : rows) resolver.add(row);
      EXPECT_EQ(routes.raw, routes.records);
      resolved_total += routes.raw.size();

      if (std::string_view(c.name) == "unregistered chain members" && skip) {
        // Not vacuous: the record route interns what the scan did not.
        EXPECT_GT(colfmt::StringArena::global().stats().strings,
                  interned_before);
        const auto at = [&registry](const char* fuid) {
          return &registry.find(std::string_view(fuid))->second;
        };
        EXPECT_EQ(routes.raw,
                  (core::ResolvedChains{at("F1"), at("F2"), nullptr,
                                        at("F,one"), at("F\\two"),
                                        nullptr}));
        EXPECT_EQ(raw_stats.rows_bad, 1u);
      }
    }
  }
  EXPECT_GT(resolved_total, 20u);
}

// --- plan compiler ---------------------------------------------------------

TEST(ZeekParsePlan, MissingRequiredFieldsReportInLegacyOrder) {
  const auto plan_no_ts = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_fields_payload("uid\tid.orig_h"));
  ASSERT_NE(plan_no_ts.missing, nullptr);
  EXPECT_STREQ(plan_no_ts.missing, "ts");

  const auto plan_no_uid = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_fields_payload(
          "ts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p"));
  ASSERT_NE(plan_no_uid.missing, nullptr);
  EXPECT_STREQ(plan_no_uid.missing, "uid");

  const auto x509 =
      zeek::X509Plan::compile(zeek::ColumnPlan::from_fields_payload("san.dns"));
  ASSERT_NE(x509.missing, nullptr);
  EXPECT_STREQ(x509.missing, "fuid");
}

TEST(ZeekParsePlan, FromHeaderFindsFirstFieldsLine) {
  const auto plan = zeek::ColumnPlan::from_header(
      "#separator \\x09\n#fields\ta\tb\tc\n#types\tx\ty\tz\n");
  ASSERT_TRUE(plan.valid());
  EXPECT_EQ(plan.column_count(), 3u);
  EXPECT_EQ(plan.index_of("b"), 1u);
  EXPECT_EQ(plan.index_of("nope"), zeek::kNoColumn);
  EXPECT_FALSE(zeek::ColumnPlan::from_header("#path\tssl\n").valid());
}

TEST(ZeekParsePlan, SplitFieldsReportsTotalCountPastCapacity) {
  std::string_view out[2];
  EXPECT_EQ(zeek::split_fields("a\tb\tc\td", out, 2), 4u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "b");
  EXPECT_EQ(zeek::split_fields("", out, 2), 1u);  // one empty field
  EXPECT_EQ(out[0], "");
}

// --- allocation guarantee --------------------------------------------------

TEST(ZeekParseAlloc, TokenizerAndDecodeAreAllocationFreeWithoutEscapes) {
  const std::string_view line =
      "1700000000.123456\tCX1abcdef\t10.1.2.3\t51234\t93.184.216.34\t443"
      "\tTLSv12\texample.test\tT\tF1abcdefabcdefabcd\t-";
  std::string_view fields[16];
  std::string storage;
  storage.reserve(64);  // pre-warmed; must not be touched on this input
  std::size_t checksum = 0;

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t count = zeek::split_fields(line, fields, 16);
    for (std::size_t i = 0; i < count && i < 16; ++i) {
      checksum += zeek::decode_field(fields[i], storage).size();
    }
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "tokenize+decode allocated on escape-free input";
  EXPECT_GT(checksum, 0u);
}

TEST(ZeekParseAlloc, DecodeFieldUnescapesOnlyWhenEscapesArePresent) {
  std::string storage;
  const std::string_view plain = "no-escapes-here";
  // Zero-copy: the returned view must alias the input, not the storage.
  const std::string_view out = zeek::decode_field(plain, storage);
  EXPECT_EQ(out.data(), plain.data());
  EXPECT_EQ(zeek::decode_field("a\\x09b", storage), "a\tb");
  EXPECT_EQ(zeek::decode_field("trailing\\x5c", storage), "trailing\\");
  EXPECT_EQ(zeek::decode_field("bad\\xZZ", storage), "bad\\xZZ");
}

}  // namespace
