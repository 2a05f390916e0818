#include "mtlscope/core/result_doc.hpp"

#include <cstdio>
#include <stdexcept>

namespace mtlscope::core {

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

Cell Cell::text(std::string s) {
  Cell cell;
  cell.kind_ = Kind::kText;
  cell.text_ = std::move(s);
  return cell;
}

Cell Cell::count(std::uint64_t n) {
  Cell cell;
  cell.kind_ = Kind::kCount;
  cell.count_ = n;
  return cell;
}

Cell Cell::number(double v, int decimals) {
  Cell cell;
  cell.kind_ = Kind::kDouble;
  cell.value_ = v;
  cell.decimals_ = decimals;
  return cell;
}

Cell Cell::percent(double numerator, double denominator, int decimals) {
  Cell cell;
  cell.kind_ = Kind::kPercent;
  cell.value_ = numerator;
  cell.denominator_ = denominator;
  cell.decimals_ = decimals;
  return cell;
}

Cell Cell::percent_value(double pct, int decimals) {
  Cell cell;
  cell.kind_ = Kind::kPercentValue;
  cell.value_ = pct;
  cell.decimals_ = decimals;
  return cell;
}

std::string Cell::rendered() const {
  switch (kind_) {
    case Kind::kText:
      return text_;
    case Kind::kCount:
      return format_count(count_);
    case Kind::kDouble:
      return format_double(value_, decimals_);
    case Kind::kPercent:
      return format_percent(value_, denominator_, decimals_);
    case Kind::kPercentValue:
      return format_double(value_, decimals_) + "%";
  }
  return text_;
}

bool Cell::has_value() const {
  switch (kind_) {
    case Kind::kText:
      return false;
    case Kind::kPercent:
      return denominator_ != 0;
    default:
      return true;
  }
}

double Cell::value() const {
  switch (kind_) {
    case Kind::kCount:
      return static_cast<double>(count_);
    case Kind::kPercent:
      return denominator_ == 0 ? 0 : 100.0 * value_ / denominator_;
    default:
      return value_;
  }
}

const char* column_type_name(ColumnType type) {
  switch (type) {
    case ColumnType::kString:
      return "string";
    case ColumnType::kCount:
      return "count";
    case ColumnType::kPercent:
      return "percent";
    case ColumnType::kDouble:
      return "double";
  }
  return "string";
}

ResultTable::ResultTable(std::string id, std::vector<Column> columns)
    : id_(std::move(id)), columns_(std::move(columns)) {}

void ResultTable::add_row(std::vector<Cell> cells) {
  if (cells.size() > columns_.size()) {
    throw std::invalid_argument(
        "ResultTable::add_row: " + std::to_string(cells.size()) +
        " cells exceed " + std::to_string(columns_.size()) +
        " columns in table '" + id_ + "'");
  }
  while (cells.size() < columns_.size()) cells.push_back(Cell::text(""));
  rows_.push_back(std::move(cells));
}

std::string ResultTable::render_text() const {
  std::vector<std::string> headers;
  headers.reserve(columns_.size());
  for (const auto& column : columns_) headers.push_back(column.name);
  TextTable table(std::move(headers));
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& cell : row) cells.push_back(cell.rendered());
    table.add_row(std::move(cells));
  }
  return table.render();
}

ResultTable& ResultDoc::add_table(std::string id,
                                  std::vector<Column> columns) {
  ResultBlock block;
  block.kind = ResultBlock::Kind::kTable;
  block.table = ResultTable(std::move(id), std::move(columns));
  blocks_.push_back(std::move(block));
  return blocks_.back().table;
}

void ResultDoc::add_line(std::string line) {
  ResultBlock block;
  block.kind = ResultBlock::Kind::kLine;
  block.line = std::move(line);
  blocks_.push_back(std::move(block));
}

void ResultDoc::add_check(std::string text, std::string label, int status) {
  ResultBlock block;
  block.kind = ResultBlock::Kind::kCheck;
  block.check = Check{std::move(text), std::move(label), status};
  blocks_.push_back(std::move(block));
}

void ResultDoc::add_check(std::string label, bool ok) {
  std::string text = "  " + label + ": " + (ok ? "OK" : "MISS");
  add_check(std::move(text), std::move(label), ok ? 1 : 0);
}

std::vector<const ResultTable*> ResultDoc::tables() const {
  std::vector<const ResultTable*> out;
  for (const auto& block : blocks_) {
    if (block.kind == ResultBlock::Kind::kTable) out.push_back(&block.table);
  }
  return out;
}

namespace {

constexpr const char* kBannerRule =
    "================================================================";

std::string render_banner(const ResultDoc& doc) {
  std::string out;
  out += strf("%s\n", kBannerRule);
  out += strf("%s\n", doc.title.c_str());
  if (doc.run.file_mode) {
    out += strf("input: %s + %s\n", doc.run.ssl_log.c_str(),
                doc.run.x509_log.c_str());
  } else {
    out += strf("model: cert_scale=1:%g conn_scale=1:%g seed=%llu\n",
                doc.run.cert_scale, doc.run.conn_scale,
                static_cast<unsigned long long>(doc.run.seed));
  }
  if (!doc.run.stable_output) {
    out += strf("threads: %zu%s\n", doc.run.threads,
                doc.run.threads_requested == 0 ? " (hardware concurrency)"
                                               : "");
  }
  out += strf("%s\n", kBannerRule);
  return out;
}

/// The data-quality footer line: printed whenever a best-effort run
/// quarantined anything — including under --stable-output, because every
/// field is a pure function of the input bytes.
std::string render_data_quality_line(const DataQualityInfo& dq) {
  std::string out = strf(
      "\n[data quality: %llu rows quarantined of %llu parsed (ssl %llu, "
      "x509 %llu), policy=%s",
      static_cast<unsigned long long>(dq.quarantined_total()),
      static_cast<unsigned long long>(dq.quarantined_total() + dq.rows_ok),
      static_cast<unsigned long long>(dq.ssl_quarantined),
      static_cast<unsigned long long>(dq.x509_quarantined),
      dq.policy.c_str());
  if (dq.io_events > 0) {
    out += strf(", io_events=%llu",
                static_cast<unsigned long long>(dq.io_events));
  }
  out += "]\n";
  // Per-reason breakdown table: one line per (input, reason) with exact
  // counts — unlike the sample list, never capped.
  for (const auto& reason : dq.reasons) {
    out += strf("  %-5s %-32s %llu\n", reason.input.c_str(),
                reason.reason.c_str(),
                static_cast<unsigned long long>(reason.count));
  }
  return out;
}

std::string render_footer(const ResultDoc& doc) {
  if (!doc.run.present) return "";
  std::string out;
  if (doc.run.data_quality.present) {
    out += render_data_quality_line(doc.run.data_quality);
  }
  if (doc.run.stable_output) return out;
  if (doc.run.state_format_version != 0) {
    out += strf("\n[state: format v%u, digest %s]\n",
                doc.run.state_format_version, doc.run.state_digest.c_str());
  }
  if (doc.run.file_mode) {
    out += "\n";
  } else if (doc.run.gen_stats) {
    out += strf(
        "\n[run: %zu connections generated in %.3f s, %zu mutual, %zu "
        "certificates minted]\n",
        doc.run.gen_connections, doc.run.generate_seconds,
        doc.run.gen_mutual, doc.run.gen_certificates);
  }
  out += strf("[pipeline: %zu threads, %zu records in %.3f s — %.0f "
              "records/s]\n",
              doc.run.threads, doc.run.records, doc.run.wall_seconds,
              doc.run.records_per_second());
  return out;
}

}  // namespace

std::string render_body_text(const ResultDoc& doc) {
  std::string out;
  for (const auto& block : doc.blocks()) {
    switch (block.kind) {
      case ResultBlock::Kind::kTable:
        out += block.table.render_text();
        break;
      case ResultBlock::Kind::kLine:
        out += block.line;
        out += "\n";
        break;
      case ResultBlock::Kind::kCheck:
        out += block.check.text;
        out += "\n";
        break;
    }
  }
  return out;
}

std::string render_text(const ResultDoc& doc) {
  return render_banner(doc) + render_body_text(doc) + render_footer(doc);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

/// Minimal deterministic JSON writer: keys appear in call order, floats
/// print with a fixed decimal count, no locale involvement anywhere.
class JsonWriter {
 public:
  explicit JsonWriter(int indent) : indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(const std::string& name) {
    comma();
    newline();
    out_ += '"';
    out_ += json_escape(name);
    out_ += indent_ > 0 ? "\": " : "\":";
    just_keyed_ = true;
  }

  void value_string(const std::string& v) {
    prefix();
    out_ += '"';
    out_ += json_escape(v);
    out_ += '"';
  }
  void value_raw(const std::string& v) {
    prefix();
    out_ += v;
  }
  void value_uint(std::uint64_t v) { value_raw(std::to_string(v)); }
  void value_double(double v, int decimals) {
    value_raw(format_double(v, decimals));
  }
  void value_bool(bool v) { value_raw(v ? "true" : "false"); }
  void value_null() { value_raw("null"); }

  std::string str() && { return std::move(out_); }

 private:
  void open(char c) {
    prefix();
    out_ += c;
    ++depth_;
    first_.push_back(true);
  }
  void close(char c) {
    --depth_;
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) newline();
    out_ += c;
  }
  void prefix() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    comma();
    newline();
  }
  void comma() {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void newline() {
    if (indent_ <= 0 || depth_ == 0) return;
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
  }

  std::string out_;
  int indent_ = 0;
  int depth_ = 0;
  std::vector<bool> first_;
  bool just_keyed_ = false;
};

void write_cell(JsonWriter& w, const Cell& cell) {
  w.begin_object();
  w.key("kind");
  switch (cell.kind()) {
    case Cell::Kind::kText:
      w.value_string("string");
      break;
    case Cell::Kind::kCount:
      w.value_string("count");
      break;
    case Cell::Kind::kDouble:
      w.value_string("double");
      break;
    case Cell::Kind::kPercent:
    case Cell::Kind::kPercentValue:
      w.value_string("percent");
      break;
  }
  if (cell.kind() != Cell::Kind::kText) {
    w.key("value");
    if (!cell.has_value()) {
      w.value_null();
    } else if (cell.kind() == Cell::Kind::kCount) {
      w.value_uint(cell.count_value());
    } else {
      w.value_double(cell.value(), cell.decimals());
    }
  }
  w.key("text");
  w.value_string(cell.rendered());
  w.end_object();
}

void write_table(JsonWriter& w, const ResultTable& table) {
  w.begin_object();
  w.key("type");
  w.value_string("table");
  w.key("id");
  w.value_string(table.id());
  w.key("columns");
  w.begin_array();
  for (const auto& column : table.columns()) {
    w.begin_object();
    w.key("name");
    w.value_string(column.name);
    w.key("kind");
    w.value_string(column_type_name(column.type));
    w.end_object();
  }
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (const auto& row : table.rows()) {
    w.begin_array();
    for (const auto& cell : row) write_cell(w, cell);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string render_json(const ResultDoc& doc, int indent) {
  return render_json_with_perf(doc, indent, /*include_perf=*/false);
}

std::string render_json_with_perf(const ResultDoc& doc, int indent,
                                  bool include_perf) {
  JsonWriter w(indent);
  w.begin_object();
  w.key("experiment");
  w.value_string(doc.experiment);
  w.key("anchor");
  w.value_string(doc.anchor);
  w.key("title");
  w.value_string(doc.title);
  w.key("config");
  w.begin_object();
  if (doc.run.file_mode) {
    w.key("mode");
    w.value_string("file");
    w.key("ssl_log");
    w.value_string(doc.run.ssl_log);
    w.key("x509_log");
    w.value_string(doc.run.x509_log);
  } else {
    w.key("mode");
    w.value_string("synthetic");
    w.key("cert_scale");
    w.value_raw(strf("%g", doc.run.cert_scale));
    w.key("conn_scale");
    w.value_raw(strf("%g", doc.run.conn_scale));
  }
  w.key("seed");
  w.value_uint(doc.run.seed);
  w.end_object();
  if (doc.run.present) {
    w.key("records");
    w.value_uint(doc.run.records);
  }
  if (doc.run.data_quality.present) {
    // Canonical, not perf: quarantine counts and samples are pure
    // functions of the input bytes, so they are byte-stable across
    // thread counts, chunk sizes, and --stable-output.
    const DataQualityInfo& dq = doc.run.data_quality;
    w.key("data_quality");
    w.begin_object();
    w.key("policy");
    w.value_string(dq.policy);
    w.key("rows_ok");
    w.value_uint(dq.rows_ok);
    w.key("quarantined");
    w.begin_object();
    w.key("ssl");
    w.value_uint(dq.ssl_quarantined);
    w.key("x509");
    w.value_uint(dq.x509_quarantined);
    w.end_object();
    w.key("io_events");
    w.value_uint(dq.io_events);
    w.key("reasons");
    w.begin_array();
    for (const auto& reason : dq.reasons) {
      w.begin_object();
      w.key("input");
      w.value_string(reason.input);
      w.key("reason");
      w.value_string(reason.reason);
      w.key("count");
      w.value_uint(reason.count);
      w.end_object();
    }
    w.end_array();
    w.key("samples");
    w.begin_array();
    for (const auto& sample : dq.samples) {
      w.begin_object();
      w.key("input");
      w.value_string(sample.input);
      w.key("byte_offset");
      w.value_uint(sample.byte_offset);
      w.key("line");
      w.value_uint(sample.line);
      w.key("reason");
      w.value_string(sample.reason);
      w.key("digest");
      w.value_string(sample.digest);
      w.end_object();
    }
    w.end_array();
    w.key("samples_truncated");
    w.value_bool(dq.samples_truncated);
    w.end_object();
  }
  if (doc.run.gen_stats) {
    w.key("generated");
    w.begin_object();
    w.key("connections");
    w.value_uint(doc.run.gen_connections);
    w.key("mutual");
    w.value_uint(doc.run.gen_mutual);
    w.key("certificates");
    w.value_uint(doc.run.gen_certificates);
    w.end_object();
  }
  if (include_perf && doc.run.present) {
    // Volatile run counters. Deliberately outside the canonical surface:
    // wall clock and throughput differ run to run, and the thread count
    // differs by flag — none of it may reach golden files.
    w.key("perf");
    w.begin_object();
    w.key("group");
    w.value_string(doc.run.perf_group);
    w.key("threads");
    w.value_uint(doc.run.threads);
    w.key("wall_seconds");
    w.value_double(doc.run.wall_seconds, 6);
    w.key("generate_seconds");
    w.value_double(doc.run.generate_seconds, 6);
    w.key("records_per_second");
    w.value_double(doc.run.records_per_second(), 0);
    w.key("parse_bytes");
    w.value_uint(doc.run.parse_bytes);
    w.key("parse_bytes_per_second");
    w.value_double(doc.run.parse_bytes_per_second(), 0);
    if (!doc.run.scan.empty()) {
      // Enrichment memoization + scan choice (DESIGN §15). Volatile:
      // hit/miss splits shift with shard boundaries even though the
      // analysis results never do.
      w.key("enrich");
      w.begin_object();
      w.key("scan");
      w.value_string(doc.run.scan);
      w.key("facts_cache_hits");
      w.value_uint(doc.run.facts_cache_hits);
      w.key("facts_cache_misses");
      w.value_uint(doc.run.facts_cache_misses);
      w.key("facts_cache_unique");
      w.value_uint(doc.run.facts_cache_unique);
      w.key("enrich_cache_hits");
      w.value_uint(doc.run.enrich_cache_hits);
      w.key("enrich_cache_misses");
      w.value_uint(doc.run.enrich_cache_misses);
      w.key("enrich_cache_unique");
      w.value_uint(doc.run.enrich_cache_unique);
      w.end_object();
    }
    if (doc.run.durability_present) {
      // Write-path durability counters (DESIGN §16). Volatile: retry
      // and fsync counts depend on signal timing and disk behaviour,
      // never on the analyzed records.
      w.key("durability");
      w.begin_object();
      w.key("write_retries");
      w.value_uint(doc.run.write_retries);
      w.key("write_failures");
      w.value_uint(doc.run.write_failures);
      w.key("fsyncs");
      w.value_uint(doc.run.fsyncs);
      w.key("dir_fsyncs");
      w.value_uint(doc.run.dir_fsyncs);
      w.key("atomic_publishes");
      w.value_uint(doc.run.atomic_publishes);
      w.key("checkpoint_gens_written");
      w.value_uint(doc.run.ckpt_gens_written);
      w.key("checkpoint_gens_restored");
      w.value_uint(doc.run.ckpt_gens_restored);
      w.key("degraded_episodes");
      w.value_uint(doc.run.degraded_episodes);
      w.end_object();
    }
    if (doc.run.state_format_version != 0) {
      w.key("state_format_version");
      w.value_uint(doc.run.state_format_version);
      w.key("state_digest");
      w.value_string(doc.run.state_digest);
    }
    w.end_object();
  }
  w.key("blocks");
  w.begin_array();
  for (const auto& block : doc.blocks()) {
    switch (block.kind) {
      case ResultBlock::Kind::kTable:
        write_table(w, block.table);
        break;
      case ResultBlock::Kind::kLine:
        w.begin_object();
        w.key("type");
        w.value_string("line");
        w.key("text");
        w.value_string(block.line);
        w.end_object();
        break;
      case ResultBlock::Kind::kCheck:
        w.begin_object();
        w.key("type");
        w.value_string("check");
        w.key("status");
        w.value_string(block.check.status < 0
                           ? "info"
                           : (block.check.status ? "ok" : "miss"));
        w.key("label");
        w.value_string(block.check.label);
        w.key("text");
        w.value_string(block.check.text);
        w.end_object();
        break;
    }
  }
  w.end_array();
  w.end_object();
  std::string out = std::move(w).str();
  out += "\n";
  return out;
}

namespace {

std::string csv_field(const std::string& value, char sep) {
  if (sep == '\t') {
    // TSV: no quoting convention — collapse the separator chars instead.
    std::string out = value;
    for (char& c : out) {
      if (c == '\t' || c == '\n' || c == '\r') c = ' ';
    }
    return out;
  }
  const bool needs_quotes =
      value.find_first_of(std::string{sep} + "\"\n\r") != std::string::npos;
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string render_csv(const ResultTable& table, char sep) {
  std::string out;
  bool first = true;
  for (const auto& column : table.columns()) {
    if (!first) out += sep;
    first = false;
    out += csv_field(column.name, sep);
  }
  out += "\n";
  for (const auto& row : table.rows()) {
    first = true;
    for (const auto& cell : row) {
      if (!first) out += sep;
      first = false;
      out += csv_field(cell.rendered(), sep);
    }
    out += "\n";
  }
  return out;
}

std::string render_json_envelope(const std::vector<ResultDoc>& docs,
                                 bool include_perf) {
  std::string out = "{\n  \"experiments\": [\n";
  bool first = true;
  for (const auto& doc : docs) {
    if (!first) out += ",\n";
    first = false;
    std::string body = render_json_with_perf(doc, 0, include_perf);
    if (!body.empty() && body.back() == '\n') body.pop_back();
    out += "    ";
    out += body;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace mtlscope::core
