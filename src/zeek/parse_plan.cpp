// Implementation of the compiled-plan Zeek record parsers: the zero-copy
// batch fast path, the row-materializing reference parsers kept as the
// parity oracle / benchmark baseline, and the public istream wrappers
// (which are thin shims over the batch path).
#include "mtlscope/zeek/parse_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <sstream>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope::zeek {
namespace {

constexpr std::string_view kUnset = "-";
constexpr std::string_view kEmptySet = "(empty)";
constexpr std::string_view kFieldsTag = "#fields\t";

void set_error(LogParseError* error, std::size_t line, std::string message) {
  if (error != nullptr) *error = {line, std::move(message)};
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends the unescaped form of `raw` to `out` (Zeek `\xNN` sequences;
/// anything else passes through, including lone backslashes). Never
/// appends more bytes than `raw` holds.
void append_unescaped(std::string_view raw, std::string& out) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 3 < raw.size() && raw[i + 1] == 'x') {
      const int hi = hex_digit(raw[i + 2]);
      const int lo = hex_digit(raw[i + 3]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 3;
        continue;
      }
    }
    out.push_back(raw[i]);
  }
}

/// Replaces `out` with the unescaped form of `raw`.
void unescape_into(std::string_view raw, std::string& out) {
  out.clear();
  append_unescaped(raw, out);
}

/// Scalar decode straight into the record's string: "-" clears, an
/// escape-free value is a single assign, escapes unescape in place.
void decode_scalar_into(std::string_view raw, std::string& out) {
  if (raw == kUnset) {
    out.clear();
    return;
  }
  if (raw.find('\\') == std::string_view::npos) {
    out.assign(raw.data(), raw.size());
    return;
  }
  unescape_into(raw, out);
}

/// Scalar decode into an interned handle: "-" clears, an escape-free
/// value interns the raw bytes directly, escapes unescape through a
/// per-thread scratch first (no allocation in steady state).
void decode_scalar_into(std::string_view raw, colfmt::Str& out) {
  if (raw == kUnset) {
    out = colfmt::Str();
    return;
  }
  if (raw.find('\\') == std::string_view::npos) {
    out = colfmt::StringArena::global().intern(raw);
    return;
  }
  thread_local std::string scratch;
  unescape_into(raw, scratch);
  out = colfmt::StringArena::global().intern(scratch);
}

/// The one set/vector split (split_set_field's contract), calling
/// `fn(element)` per element. Unescaping never grows a value, so
/// `storage` is reserved once and every view handed out stays valid
/// until the next call with the same `storage`.
template <typename Fn>
void for_each_set_element(std::string_view raw, std::string& storage,
                          const Fn& fn) {
  if (raw == kUnset || raw == kEmptySet || raw.empty()) return;
  const bool escaped = raw.find('\\') != std::string_view::npos;
  if (escaped) {
    storage.clear();
    storage.reserve(raw.size());
  }
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = raw.find(',', pos);
    const std::string_view part =
        next == std::string_view::npos ? raw.substr(pos)
                                       : raw.substr(pos, next - pos);
    if (!escaped || part.find('\\') == std::string_view::npos) {
      fn(part);
    } else {
      const std::size_t at = storage.size();
      append_unescaped(part, storage);
      fn(std::string_view(storage.data() + at, storage.size() - at));
    }
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
}

/// Set/vector decode: each element of the split, interned.
void decode_vector_into(std::string_view raw, colfmt::StrVec& out) {
  out.clear();
  thread_local std::string storage;
  for_each_set_element(raw, storage, [&out](std::string_view part) {
    out.push_back(colfmt::StringArena::global().intern(part));
  });
}

/// DER decode: TSV carries base64 (possibly TSV-escaped); decode once
/// here and intern the raw bytes in the CertArena. An undecodable value
/// yields an empty blob — the row stays OK and enrichment falls back to
/// the logged fields, exactly as the old lazy decode in make_facts did.
void decode_der_into(std::string_view raw, colfmt::Str& out) {
  if (raw == kUnset || raw.empty()) {
    out = colfmt::Str();
    return;
  }
  thread_local std::string scratch;
  const std::string_view b64 = decode_field(raw, scratch);
  if (const auto der = crypto::from_base64(b64)) {
    out = colfmt::CertArena::global().intern(der->data(), der->size());
  } else {
    out = colfmt::Str();
  }
}

/// Seconds before the '.' of a Zeek time value; numbers are parsed from
/// the raw bytes (no unescaping), exactly as the parser always did.
std::optional<util::UnixSeconds> decode_time(std::string_view raw) {
  const std::size_t dot = raw.find('.');
  const std::string_view secs =
      dot == std::string_view::npos ? raw : raw.substr(0, dot);
  util::UnixSeconds v = 0;
  const auto [p, ec] =
      std::from_chars(secs.data(), secs.data() + secs.size(), v);
  if (ec != std::errc{} || p != secs.data() + secs.size()) return std::nullopt;
  return v;
}

std::optional<int> decode_int(std::string_view raw) {
  if (raw == kUnset) return 0;
  int v = 0;
  const auto [p, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc{} || p != raw.data() + raw.size()) return std::nullopt;
  return v;
}

std::string missing_field_message(const char* name) {
  return std::string("missing field ") + name;
}

/// The numeric fields every ssl row must carry.
struct SslNumerics {
  util::UnixSeconds ts = 0;
  int orig_p = 0;
  int resp_p = 0;
};

/// The ssl row checks: ts, orig_p and resp_p must parse, whatever a
/// reader goes on to decode. A failure reports the 1-based row index.
template <typename FieldAt>
std::optional<SslNumerics> check_ssl_row(const SslPlan& plan,
                                         const FieldAt& at,
                                         std::size_t row_index,
                                         LogParseError* error) {
  const auto ts = decode_time(at(plan.ts));
  const auto orig_p = decode_int(at(plan.orig_p));
  const auto resp_p = decode_int(at(plan.resp_p));
  if (!ts || !orig_p || !resp_p) {
    set_error(error, row_index + 1, "bad numeric field");
    return std::nullopt;
  }
  return SslNumerics{*ts, *orig_p, *resp_p};
}

/// Fills one SslRecord from a row accessor (`at(slot)` → raw field view).
/// Shared by the batch fast path and the row-materializing reference
/// parser, so their per-field semantics cannot drift apart. The row
/// checks (ts, orig_p, resp_p numerics) run whatever `columns` holds;
/// the manifest only selects which fields are decoded and interned.
template <typename FieldAt>
bool fill_ssl_record(const SslPlan& plan, const SslColumns& columns,
                     const FieldAt& at, std::size_t row_index, SslRecord& r,
                     LogParseError* error) {
  const auto numerics = check_ssl_row(plan, at, row_index, error);
  if (!numerics) return false;
  const auto& [ts, orig_p, resp_p] = *numerics;
  if (columns.ts) r.ts = ts;
  if (columns.uid) decode_scalar_into(at(plan.uid), r.uid);
  if (columns.endpoints) {
    decode_scalar_into(at(plan.orig_h), r.orig_h);
    r.orig_p = static_cast<std::uint16_t>(orig_p);
    decode_scalar_into(at(plan.resp_h), r.resp_h);
    r.resp_p = static_cast<std::uint16_t>(resp_p);
  }
  if (columns.version && plan.version != kNoColumn) {
    decode_scalar_into(at(plan.version), r.version);
  }
  if (columns.server_name && plan.server_name != kNoColumn) {
    decode_scalar_into(at(plan.server_name), r.server_name);
  }
  if (columns.established && plan.established != kNoColumn) {
    r.established = at(plan.established) == "T";
  }
  if (columns.chain_fuids) {
    if (plan.cert_chain_fuids != kNoColumn) {
      decode_vector_into(at(plan.cert_chain_fuids), r.cert_chain_fuids);
    }
    if (plan.client_cert_chain_fuids != kNoColumn) {
      decode_vector_into(at(plan.client_cert_chain_fuids),
                         r.client_cert_chain_fuids);
    }
  }
  return true;
}

/// The chain scan's emit step: the row checks, then the raw chain view.
bool emit_chain_row(const SslPlan& plan, const std::string_view* fields,
                    std::size_t row_index, LogParseError* error,
                    const SslChainVisitor& visit) {
  const auto at = [fields](std::size_t slot) { return fields[slot]; };
  if (!check_ssl_row(plan, at, row_index, error)) return false;
  SslChainRow row;
  if (plan.established != kNoColumn) {
    row.established = fields[plan.established] == "T";
  }
  if (plan.cert_chain_fuids != kNoColumn) {
    row.cert_chain_fuids = fields[plan.cert_chain_fuids];
  }
  if (plan.client_cert_chain_fuids != kNoColumn) {
    row.client_cert_chain_fuids = fields[plan.client_cert_chain_fuids];
  }
  visit(row);
  return true;
}

template <typename FieldAt>
bool fill_x509_record(const X509Plan& plan, const FieldAt& at,
                      std::size_t row_index, X509Record& r,
                      LogParseError* error) {
  decode_scalar_into(at(plan.fuid), r.fuid);
  if (plan.version != kNoColumn) {
    const auto n = decode_int(at(plan.version));
    if (!n) {
      set_error(error, row_index + 1, "bad certificate.version");
      return false;
    }
    r.version = *n;
  }
  if (plan.serial != kNoColumn) decode_scalar_into(at(plan.serial), r.serial);
  if (plan.subject != kNoColumn) {
    decode_scalar_into(at(plan.subject), r.subject);
  }
  if (plan.issuer != kNoColumn) decode_scalar_into(at(plan.issuer), r.issuer);
  if (plan.not_valid_before != kNoColumn) {
    const auto t = decode_time(at(plan.not_valid_before));
    if (!t) {
      set_error(error, row_index + 1, "bad not_valid_before");
      return false;
    }
    r.not_valid_before = *t;
  }
  if (plan.not_valid_after != kNoColumn) {
    const auto t = decode_time(at(plan.not_valid_after));
    if (!t) {
      set_error(error, row_index + 1, "bad not_valid_after");
      return false;
    }
    r.not_valid_after = *t;
  }
  if (plan.key_alg != kNoColumn) {
    decode_scalar_into(at(plan.key_alg), r.key_alg);
  }
  if (plan.key_length != kNoColumn) {
    const auto n = decode_int(at(plan.key_length));
    if (!n) {
      set_error(error, row_index + 1, "bad key_length");
      return false;
    }
    r.key_length = *n;
  }
  if (plan.san_dns != kNoColumn) {
    decode_vector_into(at(plan.san_dns), r.san_dns);
  }
  if (plan.san_email != kNoColumn) {
    decode_vector_into(at(plan.san_email), r.san_email);
  }
  if (plan.san_uri != kNoColumn) {
    decode_vector_into(at(plan.san_uri), r.san_uri);
  }
  if (plan.san_ip != kNoColumn) decode_vector_into(at(plan.san_ip), r.san_ip);
  if (plan.cert_der != kNoColumn) {
    decode_der_into(at(plan.cert_der), r.cert_der);
  }
  return true;
}

/// The shared batch loop: walks record-aligned body bytes line by line
/// with in-place views, applies the compiled plan, and calls
/// `emit(plan, fields, row_index, error)` per data row. A #fields line
/// in the body compiles the plan only while none has been seen and no
/// data row has been parsed (first #fields wins); all later '#' lines
/// are comments.
template <typename Plan, typename EmitFn>
bool parse_records(std::string_view body, const Plan& plan_in,
                   LogParseError* error, std::size_t header_lines,
                   const EmitFn& emit) {
  Plan plan = plan_in;
  bool seen_fields = plan.valid;
  if (seen_fields && plan.missing != nullptr) {
    set_error(error, 0, missing_field_message(plan.missing));
    return false;
  }
  std::vector<std::string_view> fields(plan.columns);
  std::size_t line_no = header_lines;
  std::size_t row_index = 0;
  const char* p = body.data();
  const char* const end = p + body.size();
  while (p < end) {
    const char* const nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* eol = nl != nullptr ? nl : end;
    ++line_no;
    if (eol > p && eol[-1] == '\r') --eol;  // CRLF tolerance
    std::string_view line(p, static_cast<std::size_t>(eol - p));
    p = nl != nullptr ? nl + 1 : end;
    if (line.empty()) continue;
    if (line.front() == '#') {
      if (!seen_fields && line.substr(0, kFieldsTag.size()) == kFieldsTag) {
        plan = Plan::compile(
            ColumnPlan::from_fields_payload(line.substr(kFieldsTag.size())));
        seen_fields = true;
        if (plan.missing != nullptr) {
          set_error(error, 0, missing_field_message(plan.missing));
          return false;
        }
        fields.resize(plan.columns);
      }
      continue;
    }
    if (!seen_fields) {
      set_error(error, line_no, "data row before #fields header");
      return false;
    }
    const std::size_t count =
        split_fields(line, fields.data(), fields.size());
    if (count != plan.columns) {
      set_error(error, line_no, "field count mismatch");
      return false;
    }
    if (!emit(plan, fields.data(), row_index, error)) return false;
    ++row_index;
  }
  if (!seen_fields) {
    set_error(error, 0, "missing #fields header");
    return false;
  }
  return true;
}

/// The tolerant batch loop. Mirrors parse_records line walking exactly
/// (CRLF tolerance, '#' comments, unterminated final record) but
/// quarantines malformed rows instead of aborting, and — deliberately —
/// never compiles a #fields line found inside the body: the strict path
/// honours one only on the first chunk before any data row, which would
/// make best-effort output depend on chunk boundaries (DESIGN §11).
template <typename Plan, typename EmitFn>
TolerantStats parse_records_tolerant(std::string_view body,
                                     const Plan& plan,
                                     std::vector<RowIssue>* issues,
                                     std::size_t header_lines,
                                     std::size_t base_offset,
                                     const EmitFn& emit) {
  TolerantStats stats;
  const bool usable = plan.valid && plan.missing == nullptr;
  std::string reject_reason;
  if (!plan.valid) {
    reject_reason = "data row before #fields header";
  } else if (plan.missing != nullptr) {
    reject_reason = missing_field_message(plan.missing);
  }
  const auto quarantine = [&](std::size_t line_no, std::size_t offset,
                              std::string_view raw, std::string reason) {
    ++stats.rows_bad;
    if (issues == nullptr) return;
    RowIssue& issue = issues->emplace_back();
    issue.line = line_no;
    issue.byte_offset = offset;
    issue.raw_length = raw.size();
    issue.reason = std::move(reason);
    issue.digest = quarantine_digest(raw);
  };

  std::vector<std::string_view> fields(plan.columns);
  std::size_t line_no = header_lines;
  std::size_t row_index = 0;
  bool saw_data_row = false;
  const char* const base = body.data();
  const char* p = base;
  const char* const end = p + body.size();
  while (p < end) {
    const char* const nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* eol = nl != nullptr ? nl : end;
    ++line_no;
    ++stats.lines;
    if (eol > p && eol[-1] == '\r') --eol;  // CRLF tolerance
    const std::string_view line(p, static_cast<std::size_t>(eol - p));
    const std::size_t line_offset =
        base_offset + static_cast<std::size_t>(p - base);
    p = nl != nullptr ? nl + 1 : end;
    if (line.empty()) continue;
    if (line.front() == '#') continue;  // comment; never a mid-body #fields
    saw_data_row = true;
    if (!usable) {
      quarantine(line_no, line_offset, line, reject_reason);
      continue;
    }
    const std::size_t count = split_fields(line, fields.data(), fields.size());
    if (count != plan.columns) {
      quarantine(line_no, line_offset, line, "field count mismatch");
      continue;
    }
    LogParseError row_error;
    if (!emit(plan, fields.data(), row_index, &row_error)) {
      quarantine(line_no, line_offset, line,
                 row_error.message.empty() ? std::string("malformed row")
                                           : std::move(row_error.message));
      continue;
    }
    ++row_index;
    ++stats.rows_ok;
  }
  if (!plan.valid && !saw_data_row) {
    quarantine(0, base_offset, {}, "missing #fields header");
  }
  return stats;
}

// --- reference (row-materializing) path ------------------------------------

std::vector<std::string> split_owned(std::string_view line, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = line.find(sep, pos);
    if (next == std::string_view::npos) {
      out.emplace_back(line.substr(pos));
      break;
    }
    out.emplace_back(line.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

/// The legacy shape: header compiled to a plan, every row materialized
/// as a vector<std::string>. Kept as the parity oracle and the baseline
/// perf_zeek_parse measures the fast path against. Column indices are
/// resolved once via ColumnPlan — the historical per-row map<string>
/// probe (one temporary std::string per column per row) is gone.
struct RawLog {
  ColumnPlan columns;
  std::vector<std::vector<std::string>> rows;
};

std::optional<RawLog> read_raw(std::istream& in, LogParseError* error) {
  RawLog raw;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Tolerate CRLF logs (Windows exports): getline leaves the '\r'.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (!raw.columns.valid() &&
          std::string_view(line).substr(0, kFieldsTag.size()) == kFieldsTag) {
        raw.columns = ColumnPlan::from_fields_payload(
            std::string_view(line).substr(kFieldsTag.size()));
      }
      continue;
    }
    if (!raw.columns.valid()) {
      set_error(error, line_no, "data row before #fields header");
      return std::nullopt;
    }
    auto fields = split_owned(line, '\t');
    if (fields.size() != raw.columns.column_count()) {
      set_error(error, line_no, "field count mismatch");
      return std::nullopt;
    }
    raw.rows.push_back(std::move(fields));
  }
  if (!raw.columns.valid()) {
    set_error(error, 0, "missing #fields header");
    return std::nullopt;
  }
  return raw;
}

// --- istream wrapper plumbing ----------------------------------------------

std::string slurp_stream(std::istream& in) {
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// Mirrors ingest::detect_log_layout over an in-memory view: the leading
/// run of '#' lines is the header, everything after is body.
std::size_t leading_header_end(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] == '#') {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return text.size();
    pos = nl + 1;
  }
  return pos;
}

std::size_t count_lines(std::string_view header) {
  std::size_t lines = 0;
  for (const char c : header) lines += (c == '\n');
  if (!header.empty() && header.back() != '\n') ++lines;
  return lines;
}

/// Upper bound on the data rows in a record-aligned body: its newline
/// count (comment lines inflate it slightly; an unterminated tail adds
/// one). Used to reserve the output vector once instead of letting
/// growth reallocation move hundreds of thousands of parsed records.
std::size_t estimate_rows(std::string_view body) {
  std::size_t lines = 0;
  const char* p = body.data();
  const char* const end = p + body.size();
  while (p < end) {
    const char* const nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (nl == nullptr) {
      ++lines;  // unterminated final record
      break;
    }
    ++lines;
    p = nl + 1;
  }
  return lines;
}

/// Makes room for `body`'s rows after those already in `out`: exactly
/// into an empty vector, at least geometrically when appending, so a
/// caller that appends chunk after chunk into one vector moves each
/// record O(1) times rather than once per chunk.
template <typename Record>
void reserve_rows(std::vector<Record>& out, std::string_view body) {
  const std::size_t need = out.size() + estimate_rows(body);
  if (need <= out.capacity()) return;
  out.reserve(out.empty() ? need : std::max(need, 2 * out.capacity()));
}

}  // namespace

// --- ColumnPlan and schema plans -------------------------------------------

ColumnPlan ColumnPlan::from_fields_payload(std::string_view payload) {
  ColumnPlan plan;
  if (!payload.empty() && payload.back() == '\r') payload.remove_suffix(1);
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = payload.find('\t', pos);
    if (next == std::string_view::npos) {
      plan.names_.emplace_back(payload.substr(pos));
      break;
    }
    plan.names_.emplace_back(payload.substr(pos, next - pos));
    pos = next + 1;
  }
  plan.valid_ = true;
  return plan;
}

ColumnPlan ColumnPlan::from_header(std::string_view header) {
  std::size_t pos = 0;
  while (pos < header.size()) {
    const std::size_t nl = header.find('\n', pos);
    const std::string_view line =
        header.substr(pos, nl == std::string_view::npos ? header.size() - pos
                                                        : nl - pos);
    if (line.substr(0, kFieldsTag.size()) == kFieldsTag) {
      return from_fields_payload(line.substr(kFieldsTag.size()));
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return ColumnPlan{};
}

std::size_t ColumnPlan::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return kNoColumn;
}

SslPlan SslPlan::compile(const ColumnPlan& columns) {
  SslPlan plan;
  plan.valid = columns.valid();
  plan.columns = columns.column_count();
  if (!plan.valid) return plan;
  plan.ts = columns.index_of("ts");
  plan.uid = columns.index_of("uid");
  plan.orig_h = columns.index_of("id.orig_h");
  plan.orig_p = columns.index_of("id.orig_p");
  plan.resp_h = columns.index_of("id.resp_h");
  plan.resp_p = columns.index_of("id.resp_p");
  plan.version = columns.index_of("version");
  plan.server_name = columns.index_of("server_name");
  plan.established = columns.index_of("established");
  plan.cert_chain_fuids = columns.index_of("cert_chain_fuids");
  plan.client_cert_chain_fuids = columns.index_of("client_cert_chain_fuids");
  // Required fields, in the order the parser always reported them.
  struct Required {
    std::size_t slot;
    const char* name;
  };
  const Required required[] = {
      {plan.ts, "ts"},         {plan.uid, "uid"},
      {plan.orig_h, "id.orig_h"}, {plan.orig_p, "id.orig_p"},
      {plan.resp_h, "id.resp_h"}, {plan.resp_p, "id.resp_p"},
  };
  for (const auto& field : required) {
    if (field.slot == kNoColumn) {
      plan.missing = field.name;
      break;
    }
  }
  return plan;
}

X509Plan X509Plan::compile(const ColumnPlan& columns) {
  X509Plan plan;
  plan.valid = columns.valid();
  plan.columns = columns.column_count();
  if (!plan.valid) return plan;
  plan.fuid = columns.index_of("fuid");
  plan.version = columns.index_of("certificate.version");
  plan.serial = columns.index_of("certificate.serial");
  plan.subject = columns.index_of("certificate.subject");
  plan.issuer = columns.index_of("certificate.issuer");
  plan.not_valid_before = columns.index_of("certificate.not_valid_before");
  plan.not_valid_after = columns.index_of("certificate.not_valid_after");
  plan.key_alg = columns.index_of("certificate.key_alg");
  plan.key_length = columns.index_of("certificate.key_length");
  plan.san_dns = columns.index_of("san.dns");
  plan.san_email = columns.index_of("san.email");
  plan.san_uri = columns.index_of("san.uri");
  plan.san_ip = columns.index_of("san.ip");
  plan.cert_der = columns.index_of("cert_der");
  if (plan.fuid == kNoColumn) plan.missing = "fuid";
  return plan;
}

// --- allocation-free tokenizing --------------------------------------------

std::size_t split_fields(std::string_view line, std::string_view* out,
                         std::size_t max_fields) {
  std::size_t count = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (true) {
    const char* const tab = p < end ? static_cast<const char*>(std::memchr(
                                          p, '\t', end - p))
                                    : nullptr;
    const char* const stop = tab != nullptr ? tab : end;
    if (count < max_fields) {
      out[count] = std::string_view(p, static_cast<std::size_t>(stop - p));
    }
    ++count;
    if (tab == nullptr) break;
    p = tab + 1;
  }
  return count;
}

std::string_view decode_field(std::string_view raw, std::string& storage) {
  if (raw.find('\\') == std::string_view::npos) return raw;
  unescape_into(raw, storage);
  return storage;
}

void split_set_field(std::string_view raw, std::vector<std::string_view>& out,
                     std::string& storage) {
  out.clear();
  for_each_set_element(raw, storage,
                       [&out](std::string_view part) { out.push_back(part); });
}

// --- batch fast path --------------------------------------------------------

bool parse_ssl_records(std::string_view body, const SslPlan& plan,
                       std::vector<SslRecord>& out, LogParseError* error,
                       std::size_t header_lines) {
  reserve_rows(out, body);
  return parse_records(
      body, plan, error, header_lines,
      [&out, &plan](const SslPlan& active, const std::string_view* fields,
                    std::size_t row_index, LogParseError* err) {
        SslRecord& r = out.emplace_back();
        return fill_ssl_record(
            active, plan.projection,
            [fields](std::size_t slot) { return fields[slot]; }, row_index,
            r, err);
      });
}

bool parse_x509_records(std::string_view body, const X509Plan& plan,
                        std::vector<X509Record>& out, LogParseError* error,
                        std::size_t header_lines) {
  reserve_rows(out, body);
  return parse_records(
      body, plan, error, header_lines,
      [&out](const X509Plan& active, const std::string_view* fields,
             std::size_t row_index, LogParseError* err) {
        X509Record& r = out.emplace_back();
        return fill_x509_record(
            active, [fields](std::size_t slot) { return fields[slot]; },
            row_index, r, err);
      });
}

bool scan_ssl_chains(std::string_view body, const SslPlan& plan,
                     const SslChainVisitor& visit, LogParseError* error,
                     std::size_t header_lines) {
  return parse_records(
      body, plan, error, header_lines,
      [&visit](const SslPlan& active, const std::string_view* fields,
               std::size_t row_index, LogParseError* err) {
        return emit_chain_row(active, fields, row_index, err, visit);
      });
}

// --- tolerant batch path -----------------------------------------------------

std::string quarantine_digest(std::string_view raw) {
  const auto digest = crypto::Sha256::hash(raw);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(16);
  for (std::size_t i = 0; i < 8; ++i) {  // 8 bytes -> 16 hex chars
    out.push_back(kHex[digest[i] >> 4]);
    out.push_back(kHex[digest[i] & 0xf]);
  }
  return out;
}

TolerantStats parse_ssl_records_tolerant(std::string_view body,
                                         const SslPlan& plan,
                                         std::vector<SslRecord>& out,
                                         std::vector<RowIssue>* issues,
                                         std::size_t header_lines,
                                         std::size_t base_offset) {
  reserve_rows(out, body);
  return parse_records_tolerant(
      body, plan, issues, header_lines, base_offset,
      [&out](const SslPlan& active, const std::string_view* fields,
             std::size_t row_index, LogParseError* err) {
        SslRecord& r = out.emplace_back();
        if (fill_ssl_record(
                active, active.projection,
                [fields](std::size_t slot) { return fields[slot]; },
                row_index, r, err)) {
          return true;
        }
        out.pop_back();  // discard the partially filled record
        return false;
      });
}

TolerantStats scan_ssl_chains_tolerant(std::string_view body,
                                       const SslPlan& plan,
                                       const SslChainVisitor& visit,
                                       std::vector<RowIssue>* issues,
                                       std::size_t header_lines,
                                       std::size_t base_offset) {
  return parse_records_tolerant(
      body, plan, issues, header_lines, base_offset,
      [&visit](const SslPlan& active, const std::string_view* fields,
               std::size_t row_index, LogParseError* err) {
        return emit_chain_row(active, fields, row_index, err, visit);
      });
}

TolerantStats parse_x509_records_tolerant(std::string_view body,
                                          const X509Plan& plan,
                                          std::vector<X509Record>& out,
                                          std::vector<RowIssue>* issues,
                                          std::size_t header_lines,
                                          std::size_t base_offset) {
  reserve_rows(out, body);
  return parse_records_tolerant(
      body, plan, issues, header_lines, base_offset,
      [&out](const X509Plan& active, const std::string_view* fields,
             std::size_t row_index, LogParseError* err) {
        X509Record& r = out.emplace_back();
        if (fill_x509_record(
                active, [fields](std::size_t slot) { return fields[slot]; },
                row_index, r, err)) {
          return true;
        }
        out.pop_back();
        return false;
      });
}

// --- public istream API (declared in log_io.hpp) ----------------------------

std::optional<std::vector<SslRecord>> parse_ssl_log(std::istream& in,
                                                    LogParseError* error) {
  const std::string text = slurp_stream(in);
  const std::string_view view(text);
  const std::size_t body_begin = leading_header_end(view);
  const std::string_view header = view.substr(0, body_begin);
  const SslPlan plan = SslPlan::compile(ColumnPlan::from_header(header));
  std::vector<SslRecord> out;
  if (!parse_ssl_records(view.substr(body_begin), plan, out, error,
                         count_lines(header))) {
    return std::nullopt;
  }
  return out;
}

std::optional<std::vector<X509Record>> parse_x509_log(std::istream& in,
                                                      LogParseError* error) {
  const std::string text = slurp_stream(in);
  const std::string_view view(text);
  const std::size_t body_begin = leading_header_end(view);
  const std::string_view header = view.substr(0, body_begin);
  const X509Plan plan = X509Plan::compile(ColumnPlan::from_header(header));
  std::vector<X509Record> out;
  if (!parse_x509_records(view.substr(body_begin), plan, out, error,
                          count_lines(header))) {
    return std::nullopt;
  }
  return out;
}

std::optional<std::vector<SslRecord>> parse_ssl_log_reference(
    std::istream& in, LogParseError* error) {
  const auto raw = read_raw(in, error);
  if (!raw) return std::nullopt;
  const SslPlan plan = SslPlan::compile(raw->columns);
  if (plan.missing != nullptr) {
    set_error(error, 0, missing_field_message(plan.missing));
    return std::nullopt;
  }
  std::vector<SslRecord> out;
  out.reserve(raw->rows.size());
  for (std::size_t i = 0; i < raw->rows.size(); ++i) {
    const auto& row = raw->rows[i];
    SslRecord& r = out.emplace_back();
    if (!fill_ssl_record(
            plan, plan.projection,
            [&row](std::size_t slot) { return std::string_view(row[slot]); },
            i, r, error)) {
      return std::nullopt;
    }
  }
  return out;
}

std::optional<std::vector<X509Record>> parse_x509_log_reference(
    std::istream& in, LogParseError* error) {
  const auto raw = read_raw(in, error);
  if (!raw) return std::nullopt;
  const X509Plan plan = X509Plan::compile(raw->columns);
  if (plan.missing != nullptr) {
    set_error(error, 0, missing_field_message(plan.missing));
    return std::nullopt;
  }
  std::vector<X509Record> out;
  out.reserve(raw->rows.size());
  for (std::size_t i = 0; i < raw->rows.size(); ++i) {
    const auto& row = raw->rows[i];
    X509Record& r = out.emplace_back();
    if (!fill_x509_record(
            plan,
            [&row](std::size_t slot) { return std::string_view(row[slot]); },
            i, r, error)) {
      return std::nullopt;
    }
  }
  return out;
}

}  // namespace mtlscope::zeek
