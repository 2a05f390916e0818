// Tests for the report formatting helpers, the ResultDoc IR, and its
// emitters — including the JSON round-trip guarantees the machine-readable
// output contract rests on: the JSON parses, carries every table cell that
// the text rendering shows, and is byte-stable across thread counts and
// input modes (streamed vs in-memory).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mtlscope/core/report.hpp"
#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/experiments/registry.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace core = mtlscope::core;
namespace experiments = mtlscope::experiments;

// ---------------------------------------------------------------------------
// format_* edge cases

TEST(FormatCount, SmallValues) {
  EXPECT_EQ(core::format_count(0), "0");
  EXPECT_EQ(core::format_count(7), "7");
  EXPECT_EQ(core::format_count(42), "42");
  EXPECT_EQ(core::format_count(999), "999");
}

TEST(FormatCount, ExactThousandBoundaries) {
  EXPECT_EQ(core::format_count(1'000), "1,000");
  EXPECT_EQ(core::format_count(1'001), "1,001");
  EXPECT_EQ(core::format_count(999'999), "999,999");
  EXPECT_EQ(core::format_count(1'000'000), "1,000,000");
  EXPECT_EQ(core::format_count(1'000'000'000), "1,000,000,000");
}

TEST(FormatCount, LargeValues) {
  EXPECT_EQ(core::format_count(1'234'567'890), "1,234,567,890");
  EXPECT_EQ(core::format_count(std::numeric_limits<std::uint64_t>::max()),
            "18,446,744,073,709,551,615");
}

TEST(FormatDouble, ZeroAndDecimals) {
  EXPECT_EQ(core::format_double(0, 2), "0.00");
  EXPECT_EQ(core::format_double(0, 0), "0");
  EXPECT_EQ(core::format_double(1.0, 3), "1.000");
  EXPECT_EQ(core::format_double(12.5, 1), "12.5");
}

TEST(FormatDouble, Negatives) {
  EXPECT_EQ(core::format_double(-3.21, 2), "-3.21");
  EXPECT_EQ(core::format_double(-1.5, 1), "-1.5");
  EXPECT_EQ(core::format_double(-0.25, 2), "-0.25");
}

TEST(FormatPercent, Basic) {
  EXPECT_EQ(core::format_percent(1, 2), "50.00%");
  EXPECT_EQ(core::format_percent(0, 5), "0.00%");
  EXPECT_EQ(core::format_percent(2, 1, 1), "200.0%");
  EXPECT_EQ(core::format_percent(1, 3, 4), "33.3333%");
}

TEST(FormatPercent, ZeroDenominatorIsDash) {
  // The "-" convention keeps empty-population rows readable; the JSON
  // emitter turns the same case into null.
  EXPECT_EQ(core::format_percent(5, 0), "-");
  EXPECT_EQ(core::format_percent(0, 0), "-");
}

TEST(FormatPercent, Negatives) {
  EXPECT_EQ(core::format_percent(-1, 4), "-25.00%");
  EXPECT_EQ(core::format_percent(1, -4), "-25.00%");
}

// ---------------------------------------------------------------------------
// TextTable

TEST(TextTable, OverflowingRowThrows) {
  core::TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
  EXPECT_EQ(table.row_count(), 0u);
}

TEST(TextTable, ShortRowIsPadded) {
  core::TextTable table({"a", "b"});
  table.add_row({"only"});
  EXPECT_EQ(table.row_count(), 1u);
  const std::string text = table.render();
  EXPECT_NE(text.find("only"), std::string::npos);
}

TEST(TextTable, RendersAlignedColumns) {
  core::TextTable table({"name", "n"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "23"});
  EXPECT_EQ(table.render(),
            "name    n\n"
            "----------\n"
            "x       1\n"
            "longer  23\n");
}

// ---------------------------------------------------------------------------
// Cell + ResultTable

TEST(Cell, RenderingMatchesFormatHelpers) {
  EXPECT_EQ(core::Cell::count(1'234'567).rendered(), "1,234,567");
  EXPECT_EQ(core::Cell::number(3.14159, 3).rendered(), "3.142");
  EXPECT_EQ(core::Cell::percent(1, 2).rendered(), "50.00%");
  EXPECT_EQ(core::Cell::percent_value(12.5, 1).rendered(), "12.5%");
  EXPECT_EQ(core::Cell::text("raw").rendered(), "raw");
}

TEST(Cell, ValueAndHasValue) {
  EXPECT_TRUE(core::Cell::count(5).has_value());
  EXPECT_EQ(core::Cell::count(5).value(), 5.0);
  EXPECT_EQ(core::Cell::percent(1, 2).value(), 50.0);
  EXPECT_FALSE(core::Cell::text("x").has_value());
  // Zero denominator: renders "-", carries no numeric value.
  const auto dash = core::Cell::percent(3, 0);
  EXPECT_FALSE(dash.has_value());
  EXPECT_EQ(dash.rendered(), "-");
}

TEST(ResultTable, OverflowingRowThrowsShortRowPads) {
  core::ResultTable table("t", {{"a", core::ColumnType::kCount},
                                {"b", core::ColumnType::kString}});
  EXPECT_THROW(table.add_row({core::Cell::count(1), core::Cell::text("x"),
                              core::Cell::text("extra")}),
               std::invalid_argument);
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({core::Cell::count(1)});
  ASSERT_EQ(table.rows().size(), 1u);
  ASSERT_EQ(table.rows()[0].size(), 2u);
  EXPECT_EQ(table.rows()[0][1].kind(), core::Cell::Kind::kText);
  EXPECT_EQ(table.rows()[0][1].rendered(), "");
}

TEST(ResultTable, RenderTextMatchesTextTable) {
  core::ResultTable table("t", {{"name", core::ColumnType::kString},
                                {"count", core::ColumnType::kCount}});
  table.add_row({core::Cell::text("alpha"), core::Cell::count(1'234)});
  table.add_row({core::Cell::text("b"), core::Cell::count(9)});

  core::TextTable reference({"name", "count"});
  reference.add_row({"alpha", "1,234"});
  reference.add_row({"b", "9"});
  EXPECT_EQ(table.render_text(), reference.render());
}

// ---------------------------------------------------------------------------
// CSV / TSV emitter

TEST(RenderCsv, QuotesSeparatorQuoteAndNewline) {
  core::ResultTable table("t", {{"plain", core::ColumnType::kString},
                                {"with,comma", core::ColumnType::kString}});
  table.add_row({core::Cell::text("a,b"), core::Cell::text("say \"hi\"")});
  table.add_row({core::Cell::text("line\nbreak"), core::Cell::count(1'851)});
  EXPECT_EQ(core::render_csv(table, ','),
            "plain,\"with,comma\"\n"
            "\"a,b\",\"say \"\"hi\"\"\"\n"
            "\"line\nbreak\",\"1,851\"\n");
}

TEST(RenderCsv, TsvCollapsesSeparatorsInsteadOfQuoting) {
  core::ResultTable table("t", {{"a", core::ColumnType::kString},
                                {"b", core::ColumnType::kCount}});
  table.add_row({core::Cell::text("tab\there\nand newline"),
                 core::Cell::count(1'851)});
  EXPECT_EQ(core::render_csv(table, '\t'),
            "a\tb\n"
            "tab here and newline\t1,851\n");
}

// ---------------------------------------------------------------------------
// JSON emitter

TEST(JsonEscape, ControlAndSpecialCharacters) {
  EXPECT_EQ(core::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(core::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(core::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(core::json_escape(std::string("\x01")), "\\u0001");
  // UTF-8 passes through raw (the renderings use §, ≈, em-dashes).
  EXPECT_EQ(core::json_escape("§ 3"), "§ 3");
}

TEST(RenderJson, CompactCanonicalShape) {
  core::ResultDoc doc;
  doc.experiment = "unit";
  doc.anchor = "Unit";
  doc.title = "t";
  doc.run.cert_scale = 2;
  doc.run.conn_scale = 3;
  doc.run.seed = 7;
  auto& table = doc.add_table("t1", {{"n", core::ColumnType::kCount},
                                     {"pct", core::ColumnType::kPercent}});
  table.add_row({core::Cell::count(5), core::Cell::percent(1, 0)});
  doc.add_line("hello");
  doc.add_check("lbl", true);

  EXPECT_EQ(
      core::render_json(doc, 0),
      "{\"experiment\":\"unit\",\"anchor\":\"Unit\",\"title\":\"t\","
      "\"config\":{\"mode\":\"synthetic\",\"cert_scale\":2,"
      "\"conn_scale\":3,\"seed\":7},\"blocks\":[{\"type\":\"table\","
      "\"id\":\"t1\",\"columns\":[{\"name\":\"n\",\"kind\":\"count\"},"
      "{\"name\":\"pct\",\"kind\":\"percent\"}],\"rows\":[[{\"kind\":"
      "\"count\",\"value\":5,\"text\":\"5\"},{\"kind\":\"percent\","
      "\"value\":null,\"text\":\"-\"}]]},{\"type\":\"line\",\"text\":"
      "\"hello\"},{\"type\":\"check\",\"status\":\"ok\",\"label\":\"lbl\","
      "\"text\":\"  lbl: OK\"}]}\n");
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (test-local): enough of RFC 8259 to validate the
// emitter's output and walk its structure.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    JsonValue v;
    if (consume_literal("null")) return v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    return parse_number();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::stoul(text_.substr(pos_, 4),
                                               nullptr, 16));
          pos_ += 4;
          // The emitter only writes \u for control characters, so the
          // one-byte decoding covers everything it produces.
          if (code > 0x7f) fail("non-ASCII \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Every table cell / line / check text the JSON carries.
void collect_texts(const JsonValue& doc, std::vector<std::string>* cells,
                   std::vector<std::string>* lines) {
  const JsonValue* blocks = doc.find("blocks");
  ASSERT_NE(blocks, nullptr);
  ASSERT_EQ(blocks->kind, JsonValue::Kind::kArray);
  for (const JsonValue& block : blocks->array) {
    const JsonValue* type = block.find("type");
    ASSERT_NE(type, nullptr);
    if (type->string == "table") {
      const JsonValue* rows = block.find("rows");
      ASSERT_NE(rows, nullptr);
      for (const JsonValue& row : rows->array) {
        for (const JsonValue& cell : row.array) {
          const JsonValue* text = cell.find("text");
          ASSERT_NE(text, nullptr);
          cells->push_back(text->string);
        }
      }
    } else {
      const JsonValue* text = block.find("text");
      ASSERT_NE(text, nullptr);
      lines->push_back(text->string);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// JSON round-trip over real experiment runs. Small scale overrides keep the
// pipeline pass cheap; table1 and table13 share one pristine-model pass.

namespace {

experiments::RunOptions small_run_options() {
  experiments::RunOptions options;
  options.cert_scale_override = 400;
  options.conn_scale_override = 2'000'000;
  options.stable_output = true;
  return options;
}

}  // namespace

TEST(JsonRoundTrip, ParsesAndCarriesEveryTextCell) {
  experiments::RunOptions options = small_run_options();
  const auto docs =
      experiments::run_experiments({"table1", "table13"}, options);
  ASSERT_EQ(docs.size(), 2u);
  for (const auto& doc : docs) {
    const std::string pretty = core::render_json(doc, 2);
    const std::string compact = core::render_json(doc, 0);
    JsonValue parsed_pretty = JsonParser(pretty).parse();
    JsonValue parsed = JsonParser(compact).parse();
    // Indentation is presentation only: same structure either way.
    EXPECT_EQ(parsed_pretty.object.size(), parsed.object.size());

    const JsonValue* experiment = parsed.find("experiment");
    ASSERT_NE(experiment, nullptr);
    EXPECT_EQ(experiment->string, doc.experiment);
    ASSERT_NE(parsed.find("config"), nullptr);
    ASSERT_NE(parsed.find("records"), nullptr);

    // Every table cell / line / check the JSON carries must appear in the
    // text rendering, and vice versa there is no text-only table content.
    std::vector<std::string> cells, lines;
    collect_texts(parsed, &cells, &lines);
    EXPECT_FALSE(cells.empty());
    const std::string text = core::render_text(doc);
    for (const std::string& cell : cells) {
      EXPECT_NE(text.find(cell), std::string::npos)
          << doc.experiment << ": cell \"" << cell
          << "\" missing from text rendering";
    }
    for (const std::string& line : lines) {
      EXPECT_NE(text.find(line), std::string::npos)
          << doc.experiment << ": line \"" << line
          << "\" missing from text rendering";
    }
  }
}

TEST(JsonRoundTrip, ByteStableAcrossThreadCounts) {
  experiments::RunOptions serial = small_run_options();
  serial.threads = 1;
  experiments::RunOptions sharded = small_run_options();
  sharded.threads = 4;
  // dataset_stats holds the per-shard set-union merge to the serial run.
  const auto docs1 = experiments::run_experiments(
      {"table1", "table13", "dataset_stats"}, serial);
  const auto docs4 = experiments::run_experiments(
      {"table1", "table13", "dataset_stats"}, sharded);
  ASSERT_EQ(docs1.size(), docs4.size());
  for (std::size_t i = 0; i < docs1.size(); ++i) {
    EXPECT_EQ(core::render_json(docs1[i], 2), core::render_json(docs4[i], 2));
    // --stable-output text is the goldens' contract; hold it here too.
    EXPECT_EQ(core::render_text(docs1[i]), core::render_text(docs4[i]));
  }
}

TEST(JsonRoundTrip, GenerateSecondsOnlyInPerfEnvelope) {
  // Synthetic runs time trace generation apart from the pipeline pass.
  // The figure is volatile: it reaches the perf block and the text
  // footer, and --stable-output (include_perf = false) suppresses both.
  experiments::RunOptions options = small_run_options();
  options.stable_output = false;
  const auto doc = experiments::run_experiment("table1", options);
  EXPECT_GT(doc.run.generate_seconds, 0.0);
  const JsonValue parsed =
      JsonParser(core::render_json_with_perf(doc, 0, true)).parse();
  const JsonValue* perf = parsed.find("perf");
  ASSERT_NE(perf, nullptr);
  const JsonValue* generate = perf->find("generate_seconds");
  ASSERT_NE(generate, nullptr);
  EXPECT_EQ(generate->kind, JsonValue::Kind::kNumber);
  EXPECT_GT(generate->number, 0.0);
  EXPECT_NE(core::render_text(doc).find("generated in"), std::string::npos);

  options.stable_output = true;
  const auto stable = experiments::run_experiment("table1", options);
  EXPECT_EQ(core::render_json_with_perf(stable, 0, !options.stable_output)
                .find("generate_seconds"),
            std::string::npos);
  EXPECT_EQ(core::render_text(stable).find("generated in"),
            std::string::npos);
}

TEST(JsonRoundTrip, ByteStableStreamedVersusInMemory) {
  // Write a small log pair, then run the same experiment through the
  // streaming ingest path (tiny chunks) and the in-memory path.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mtlscope_report_test";
  std::filesystem::create_directories(dir);
  auto model = mtlscope::gen::paper_model(400, 2'000'000);
  model.seed = 20240504;
  mtlscope::gen::TraceGenerator generator(std::move(model));
  const auto dataset = generator.generate_dataset();
  {
    std::ofstream out(dir / "ssl.log", std::ios::binary);
    mtlscope::zeek::write_ssl_log(out, dataset.ssl());
  }
  {
    std::ofstream out(dir / "x509.log", std::ios::binary);
    mtlscope::zeek::write_x509_log(out, dataset);
  }

  experiments::RunOptions base;
  base.ssl_log = (dir / "ssl.log").string();
  base.x509_log = (dir / "x509.log").string();
  base.stable_output = true;

  experiments::RunOptions in_memory = base;
  in_memory.in_memory = true;
  experiments::RunOptions streamed = base;
  streamed.chunk_mb = 0.0625;  // 64 KiB chunks: many refill boundaries

  const auto mem = experiments::run_experiment("table1", in_memory);
  const auto stream = experiments::run_experiment("table1", streamed);
  EXPECT_EQ(core::render_json(mem, 2), core::render_json(stream, 2));
  EXPECT_EQ(core::render_text(mem), core::render_text(stream));
  EXPECT_GT(mem.run.records, 0u);

  std::filesystem::remove_all(dir);
}
