// Shard-state serialization (DESIGN §12). Every serialize/deserialize
// member declared across analyzers.hpp / pipeline.hpp / error_ledger.hpp
// is defined here, next to the section table (the framing is the shared
// sealed-file codec in state_io.cpp), so the full on-disk layout is
// reviewable in one translation unit.
#include "mtlscope/core/shard_state.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/ingest/durable_io.hpp"

namespace mtlscope::core {

namespace {

// Section names by id (1-based), in file order. The section table is
// part of the format: renumbering or reordering requires a
// kStateFormatVersion bump.
constexpr const char* kSections[] = {
    "meta",         "pipeline",       "prevalence",       "service_ports",
    "inbound_assoc", "outbound_flows", "dummy_issuer",     "serial_collision",
    "shared_cert",  "incorrect_date", "ledger",
};
constexpr SealedFormat kFormat{
    .magic = "MTLSSTAT",
    .version = kStateFormatVersion,
    .sections = kSections,
    .noun = "state file",
    .kind = "state",
    .title = "state file",
    .versioned = "state format",
    .container = "container",
};

// Smallest encoding of one entry of each count-prefixed run, which
// bounds what a claimed count may reserve (bounded_reserve).
constexpr std::size_t kMinStrBytes = 8;  // u64 length, no bytes
// input, byte_offset, line, raw_length, reason, digest.
constexpr std::size_t kMinLedgerEntryBytes = 1 + 3 * 8 + 2 * 8;
// fuid … validity (10 fields), the SAN-name count, three SAN counts, four
// class bytes, the SAN-type count, eight flag bytes, connection_count,
// first/last seen, two subnet-set counts, context_sld, context_assoc.
constexpr std::size_t kMinCertFactsBytes =
    10 * 8 + 8 + 3 * 8 + 4 + 8 + 8 + 3 * 8 + 2 * 8 + 8 + 1;

void write_str_set(StateWriter& w, const std::set<std::string>& s) {
  w.u64(s.size());
  for (const auto& v : s) w.str(v);
}

void read_str_set(StateReader& r, std::set<std::string>& s) {
  s.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) s.insert(s.end(), r.str());
}

// Interned-string sets serialize byte-identically to std::string sets:
// same byte order (StrLess), same length-prefixed values. Reading
// re-interns into the arena of the running process.
void write_str_set(StateWriter& w, const Pipeline::StrSet& s) {
  w.u64(s.size());
  for (const auto& v : s) w.str(v);
}

void read_str_set(StateReader& r, Pipeline::StrSet& s) {
  s.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    s.insert(s.end(), colfmt::Str(r.str()));
  }
}

// u32 sets encode as a count followed by the values in strictly
// increasing order, whichever container holds them in memory.
void write_u32s(StateWriter& w, const auto& ascending) {
  w.u64(ascending.size());
  for (const std::uint32_t v : ascending) w.u32(v);
}

void write_u32_set(StateWriter& w, const std::set<std::uint32_t>& s) {
  write_u32s(w, s);
}

void write_u32_set(StateWriter& w, const util::U32Set& s) {
  write_u32s(w, s.sorted());
}

/// Reads the `n` values of a u32 set's run into `insert`. A run that is
/// not strictly increasing was not written by write_u32s: it is rejected
/// rather than silently deduplicated.
template <typename Insert>
void read_u32s(StateReader& r, std::uint64_t n, const Insert& insert) {
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t v = r.u32();
    if (i > 0 && v <= prev) {
      throw StateError("u32 set not in strictly increasing order (value " +
                       std::to_string(v) + " after " + std::to_string(prev) +
                       ")");
    }
    insert(v);
    prev = v;
  }
}

void read_u32_set(StateReader& r, std::set<std::uint32_t>& s) {
  s.clear();
  read_u32s(r, r.u64(), [&s](std::uint32_t v) { s.insert(s.end(), v); });
}

void read_u32_set(StateReader& r, util::U32Set& s) {
  s.clear();
  const std::uint64_t n = r.u64();
  s.reserve(bounded_reserve(n, r.remaining(), sizeof(std::uint32_t)));
  read_u32s(r, n, [&s](std::uint32_t v) { s.insert(v); });
}

void write_totals(StateWriter& w, const Pipeline::Totals& t) {
  w.u64(t.connections);
  w.u64(t.established);
  w.u64(t.rejected_handshakes);
  w.u64(t.mutual);
  w.u64(t.inbound);
  w.u64(t.outbound);
  w.u64(t.tls13);
}

void read_totals(StateReader& r, Pipeline::Totals& t) {
  t.connections = r.u64();
  t.established = r.u64();
  t.rejected_handshakes = r.u64();
  t.mutual = r.u64();
  t.inbound = r.u64();
  t.outbound = r.u64();
  t.tls13 = r.u64();
}

}  // namespace

// ---------------------------------------------------------------------------
// CertFacts / Pipeline

void CertFacts::serialize(StateWriter& w) const {
  w.str(fuid);
  w.i64(version);
  w.i64(key_bits);
  w.str(serial_hex);
  w.str(subject_cn);
  w.str(issuer_org);
  w.str(issuer_cn);
  w.str(issuer_dn);
  w.i64(validity.not_before);
  w.i64(validity.not_after);
  w.u64(san_dns.size());
  for (const auto& name : san_dns) w.str(name);
  w.i64(san_email_count);
  w.i64(san_uri_count);
  w.i64(san_ip_count);
  w.u8(static_cast<std::uint8_t>(issuer_class));
  w.u8(static_cast<std::uint8_t>(issuer_category));
  w.u8(campus_issuer ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(cn_type));
  w.u64(san_dns_types.size());
  for (const auto type : san_dns_types) {
    w.u8(static_cast<std::uint8_t>(type));
  }
  w.u8(flagged_interception ? 1 : 0);
  w.u8(used_as_server ? 1 : 0);
  w.u8(used_as_client ? 1 : 0);
  w.u8(used_in_mutual ? 1 : 0);
  w.u8(seen_inbound ? 1 : 0);
  w.u8(seen_outbound ? 1 : 0);
  w.u8(seen_outbound_with_sni ? 1 : 0);
  w.u8(client_use_while_expired ? 1 : 0);
  w.u64(connection_count);
  w.i64(first_seen);
  w.i64(last_seen);
  write_u32_set(w, server_subnets);
  write_u32_set(w, client_subnets);
  w.str(context_sld);
  w.u8(static_cast<std::uint8_t>(context_assoc));
}

void CertFacts::deserialize(StateReader& r) {
  fuid = r.str();
  version = static_cast<int>(r.i64());
  key_bits = static_cast<int>(r.i64());
  serial_hex = r.str();
  subject_cn = r.str();
  issuer_org = r.str();
  issuer_cn = r.str();
  issuer_dn = r.str();
  validity.not_before = r.i64();
  validity.not_after = r.i64();
  san_dns.clear();
  const std::uint64_t n_san = r.u64();
  san_dns.reserve(bounded_reserve(n_san, r.remaining(), kMinStrBytes));
  for (std::uint64_t i = 0; i < n_san; ++i) san_dns.push_back(r.str());
  san_email_count = static_cast<int>(r.i64());
  san_uri_count = static_cast<int>(r.i64());
  san_ip_count = static_cast<int>(r.i64());
  issuer_class = static_cast<trust::IssuerClass>(r.u8());
  issuer_category = static_cast<IssuerCategory>(r.u8());
  campus_issuer = r.u8() != 0;
  cn_type = static_cast<textclass::InfoType>(r.u8());
  san_dns_types.clear();
  const std::uint64_t n_types = r.u64();
  san_dns_types.reserve(bounded_reserve(n_types, r.remaining(), 1));
  for (std::uint64_t i = 0; i < n_types; ++i) {
    san_dns_types.push_back(static_cast<textclass::InfoType>(r.u8()));
  }
  flagged_interception = r.u8() != 0;
  used_as_server = r.u8() != 0;
  used_as_client = r.u8() != 0;
  used_in_mutual = r.u8() != 0;
  seen_inbound = r.u8() != 0;
  seen_outbound = r.u8() != 0;
  seen_outbound_with_sni = r.u8() != 0;
  client_use_while_expired = r.u8() != 0;
  connection_count = r.u64();
  first_seen = r.i64();
  last_seen = r.i64();
  read_u32_set(r, server_subnets);
  read_u32_set(r, client_subnets);
  context_sld = r.str();
  context_assoc = static_cast<ServerAssociation>(r.u8());
}

void Pipeline::serialize(StateWriter& w) const {
  write_totals(w, totals_);
  w.u64(excluded_connections_);
  // The registry is an unordered map: emit sorted by fuid so the bytes
  // are independent of hash-table iteration order.
  std::vector<const CertFacts*> sorted = certificates_sorted();
  w.u64(sorted.size());
  for (const CertFacts* facts : sorted) facts->serialize(w);
  write_str_set(w, interception_issuers_);
  // Two retired fields (mid-stream interception candidates and their
  // reconciliation ledger) keep their place as empty counts.
  w.u64(0);
  w.u64(0);
}

void Pipeline::deserialize(StateReader& r) {
  read_totals(r, totals_);
  excluded_connections_ = static_cast<std::size_t>(r.u64());
  certs_.clear();
  const std::uint64_t n_certs = r.u64();
  certs_.reserve(
      bounded_reserve(n_certs, r.remaining(), kMinCertFactsBytes));
  for (std::uint64_t i = 0; i < n_certs; ++i) {
    CertFacts facts;
    facts.deserialize(r);
    const colfmt::Str fuid = facts.fuid;
    certs_.emplace(fuid, std::move(facts));
  }
  read_str_set(r, interception_issuers_);
  // No writer ever filled the retired fields, and dropping entries would
  // break the byte-identical re-serialization of accepted state.
  for (const char* field :
       {"interception candidates", "reconciliation ledger"}) {
    if (r.u64() != 0) {
      throw StateError(std::string("retired pipeline field '") + field +
                       "' is not empty");
    }
  }
}

// ---------------------------------------------------------------------------
// ErrorLedger

void ErrorLedger::serialize(StateWriter& w) const {
  w.u64(entries_.size());
  for (const auto& e : entries_) {
    w.u8(static_cast<std::uint8_t>(e.input));
    w.u64(e.byte_offset);
    w.u64(e.line);
    w.u64(e.raw_length);
    w.str(e.reason);
    w.str(e.digest);
  }
  w.u64(io_notes_.size());
  for (const auto& note : io_notes_) w.str(note);
  for (std::size_t i = 0; i < kInputRoles; ++i) w.u64(quarantined_[i]);
  for (std::size_t i = 0; i < kInputRoles; ++i) {
    w.u64(reason_counts_[i].size());
    for (const auto& [reason, n] : reason_counts_[i]) {
      w.str(reason);
      w.u64(n);
    }
  }
  for (std::size_t i = 0; i < kInputRoles; ++i) w.u64(rows_ok_[i]);
  for (std::size_t i = 0; i < kLedgerPhases; ++i) w.u64(phase_counts_[i]);
  w.u64(io_events_);
  w.u8(samples_truncated_ ? 1 : 0);
}

void ErrorLedger::deserialize(StateReader& r) {
  clear();
  const std::uint64_t n_entries = r.u64();
  entries_.reserve(
      bounded_reserve(n_entries, r.remaining(), kMinLedgerEntryBytes));
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    QuarantinedRecord e;
    e.input = static_cast<InputRole>(r.u8());
    e.byte_offset = static_cast<std::size_t>(r.u64());
    e.line = static_cast<std::size_t>(r.u64());
    e.raw_length = static_cast<std::size_t>(r.u64());
    e.reason = r.str();
    e.digest = r.str();
    entries_.push_back(std::move(e));
  }
  const std::uint64_t n_notes = r.u64();
  io_notes_.reserve(bounded_reserve(n_notes, r.remaining(), kMinStrBytes));
  for (std::uint64_t i = 0; i < n_notes; ++i) io_notes_.push_back(r.str());
  for (std::size_t i = 0; i < kInputRoles; ++i) quarantined_[i] = r.u64();
  for (std::size_t i = 0; i < kInputRoles; ++i) {
    const std::uint64_t n = r.u64();
    for (std::uint64_t j = 0; j < n; ++j) {
      std::string reason = r.str();
      reason_counts_[i][std::move(reason)] = r.u64();
    }
  }
  for (std::size_t i = 0; i < kInputRoles; ++i) rows_ok_[i] = r.u64();
  for (std::size_t i = 0; i < kLedgerPhases; ++i) phase_counts_[i] = r.u64();
  io_events_ = r.u64();
  samples_truncated_ = r.u8() != 0;
}

// ---------------------------------------------------------------------------
// Connection analyzers

void PrevalenceAnalyzer::serialize(StateWriter& w) const {
  w.u64(months_.size());
  for (const auto& [month, point] : months_) {
    w.i64(month);
    w.i64(point.month_index);
    w.u64(point.total);
    w.u64(point.mutual);
    w.u64(point.mutual_inbound);
    w.u64(point.mutual_outbound);
  }
}

void PrevalenceAnalyzer::deserialize(StateReader& r) {
  months_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int month = static_cast<int>(r.i64());
    MonthPoint& point = months_[month];
    point.month_index = static_cast<int>(r.i64());
    point.total = r.u64();
    point.mutual = r.u64();
    point.mutual_inbound = r.u64();
    point.mutual_outbound = r.u64();
  }
}

void ServicePortAnalyzer::serialize(StateWriter& w) const {
  for (const auto& quadrant : counts_) {
    w.u64(quadrant.size());
    for (const auto& [label, n] : quadrant) {
      w.str(label);
      w.u64(n);
    }
  }
  for (const std::uint64_t total : totals_) w.u64(total);
}

void ServicePortAnalyzer::deserialize(StateReader& r) {
  for (auto& quadrant : counts_) {
    quadrant.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string label = r.str();
      quadrant[std::move(label)] = r.u64();
    }
  }
  for (auto& total : totals_) total = r.u64();
}

void InboundAssociationAnalyzer::serialize(StateWriter& w) const {
  w.u64(acc_.size());
  for (const auto& [assoc, acc] : acc_) {
    w.u8(static_cast<std::uint8_t>(assoc));
    w.u64(acc.connections);
    write_u32_set(w, acc.clients);
    w.u64(acc.clients_by_category.size());
    for (const auto& [category, clients] : acc.clients_by_category) {
      w.u8(static_cast<std::uint8_t>(category));
      write_u32_set(w, clients);
    }
  }
  w.u64(total_conns_);
}

void InboundAssociationAnalyzer::deserialize(StateReader& r) {
  acc_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto assoc = static_cast<ServerAssociation>(r.u8());
    Acc& acc = acc_[assoc];
    acc.connections = r.u64();
    read_u32_set(r, acc.clients);
    const std::uint64_t n_cat = r.u64();
    for (std::uint64_t j = 0; j < n_cat; ++j) {
      const auto category = static_cast<IssuerCategory>(r.u8());
      read_u32_set(r, acc.clients_by_category[category]);
    }
  }
  total_conns_ = r.u64();
}

void OutboundFlowAnalyzer::serialize(StateWriter& w) const {
  w.u64(sld_counts_.size());
  for (const auto& [sld, n] : sld_counts_) {
    w.str(sld);
    w.u64(n);
  }
  w.u64(flows_.size());
  for (const auto& [key, n] : flows_) {
    w.str(std::get<0>(key));
    w.i64(std::get<1>(key));
    w.i64(std::get<2>(key));
    w.u64(n);
  }
  w.u64(with_sni_);
  w.u64(public_server_conns_);
  w.u64(public_server_missing_client_);
}

void OutboundFlowAnalyzer::deserialize(StateReader& r) {
  sld_counts_.clear();
  const std::uint64_t n_slds = r.u64();
  for (std::uint64_t i = 0; i < n_slds; ++i) {
    std::string sld = r.str();
    sld_counts_[std::move(sld)] = r.u64();
  }
  flows_.clear();
  const std::uint64_t n_flows = r.u64();
  for (std::uint64_t i = 0; i < n_flows; ++i) {
    std::string tld = r.str();
    const int server_class = static_cast<int>(r.i64());
    const int client_category = static_cast<int>(r.i64());
    flows_[std::make_tuple(std::move(tld), server_class, client_category)] =
        r.u64();
  }
  with_sni_ = r.u64();
  public_server_conns_ = r.u64();
  public_server_missing_client_ = r.u64();
}

void DummyIssuerAnalyzer::serialize(StateWriter& w) const {
  w.u64(rows_.size());
  for (const auto& [key, row] : rows_) {
    w.u8(static_cast<std::uint8_t>(key.direction));
    w.u8(key.client_side ? 1 : 0);
    w.str(key.dummy_org);
    w.u8(static_cast<std::uint8_t>(row.direction));
    w.u8(row.client_side ? 1 : 0);
    w.str(row.dummy_org);
    write_str_set(w, row.server_groups);
    write_u32_set(w, row.clients);
    w.u64(row.connections);
  }
  w.u64(both_.size());
  for (const auto& [key, row] : both_) {
    w.str(key);
    w.str(row.sld);
    w.str(row.client_org);
    w.str(row.server_org);
    write_u32_set(w, row.clients);
    w.i64(row.first);
    w.i64(row.last);
  }
  write_str_set(w, weak_.v1_certs);
  w.u64(weak_.v1_tuples);
  write_str_set(w, weak_.weak_key_certs);
  w.u64(weak_.weak_key_tuples);
  write_str_set(w, v1_tuple_set_);
  write_str_set(w, weak_tuple_set_);
}

void DummyIssuerAnalyzer::deserialize(StateReader& r) {
  rows_.clear();
  const std::uint64_t n_rows = r.u64();
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    Key key;
    key.direction = static_cast<Direction>(r.u8());
    key.client_side = r.u8() != 0;
    key.dummy_org = r.str();
    Row& row = rows_[key];
    row.direction = static_cast<Direction>(r.u8());
    row.client_side = r.u8() != 0;
    row.dummy_org = r.str();
    read_str_set(r, row.server_groups);
    read_u32_set(r, row.clients);
    row.connections = r.u64();
  }
  both_.clear();
  const std::uint64_t n_both = r.u64();
  for (std::uint64_t i = 0; i < n_both; ++i) {
    std::string key = r.str();
    BothEndsRow& row = both_[std::move(key)];
    row.sld = r.str();
    row.client_org = r.str();
    row.server_org = r.str();
    read_u32_set(r, row.clients);
    row.first = r.i64();
    row.last = r.i64();
  }
  read_str_set(r, weak_.v1_certs);
  weak_.v1_tuples = r.u64();
  read_str_set(r, weak_.weak_key_certs);
  weak_.weak_key_tuples = r.u64();
  read_str_set(r, v1_tuple_set_);
  read_str_set(r, weak_tuple_set_);
}

void SerialCollisionAnalyzer::serialize(StateWriter& w) const {
  w.u64(groups_.size());
  for (const auto& [key, group] : groups_) {
    w.str(std::get<0>(key));
    w.str(std::get<1>(key));
    w.i64(std::get<2>(key));
    w.str(group.issuer_org);
    w.str(group.serial);
    w.u8(static_cast<std::uint8_t>(group.direction));
    write_str_set(w, group.server_certs);
    write_str_set(w, group.client_certs);
    write_u32_set(w, group.clients);
    w.u64(group.connections);
    w.u64(group.both_endpoint_connections);
  }
  for (const auto& clients : involved_clients_) write_u32_set(w, clients);
}

void SerialCollisionAnalyzer::deserialize(StateReader& r) {
  groups_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string issuer = r.str();
    std::string serial = r.str();
    const int direction = static_cast<int>(r.i64());
    Group& group =
        groups_[std::make_tuple(std::move(issuer), std::move(serial),
                                direction)];
    group.issuer_org = r.str();
    group.serial = r.str();
    group.direction = static_cast<Direction>(r.u8());
    read_str_set(r, group.server_certs);
    read_str_set(r, group.client_certs);
    read_u32_set(r, group.clients);
    group.connections = r.u64();
    group.both_endpoint_connections = r.u64();
  }
  for (auto& clients : involved_clients_) read_u32_set(r, clients);
}

void SharedCertAnalyzer::serialize(StateWriter& w) const {
  w.u64(same_conn_.size());
  for (const auto& [key, row] : same_conn_) {
    w.str(key);
    w.str(row.sld);
    w.str(row.issuer);
    w.u8(row.public_issuer ? 1 : 0);
    write_u32_set(w, row.clients);
    w.i64(row.first);
    w.i64(row.last);
    w.u64(row.connections);
  }
  for (const std::uint64_t conns : same_conn_conns_) w.u64(conns);
  write_str_set(w, same_conn_fuids_);
}

void SharedCertAnalyzer::deserialize(StateReader& r) {
  same_conn_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    SameConnRow& row = same_conn_[std::move(key)];
    row.sld = r.str();
    row.issuer = r.str();
    row.public_issuer = r.u8() != 0;
    read_u32_set(r, row.clients);
    row.first = r.i64();
    row.last = r.i64();
    row.connections = r.u64();
  }
  for (auto& conns : same_conn_conns_) conns = r.u64();
  read_str_set(r, same_conn_fuids_);
}

namespace {

void write_date_row(StateWriter& w, const IncorrectDateAnalyzer::Row& row) {
  w.str(row.sld);
  w.u8(row.client_side ? 1 : 0);
  w.str(row.issuer);
  w.i64(row.not_before);
  w.i64(row.not_after);
  write_u32_set(w, row.clients);
  w.i64(row.first);
  w.i64(row.last);
  write_str_set(w, row.certs);
}

void read_date_row(StateReader& r, IncorrectDateAnalyzer::Row& row) {
  row.sld = r.str();
  row.client_side = r.u8() != 0;
  row.issuer = r.str();
  row.not_before = r.i64();
  row.not_after = r.i64();
  read_u32_set(r, row.clients);
  row.first = r.i64();
  row.last = r.i64();
  read_str_set(r, row.certs);
}

void write_date_map(StateWriter& w,
                    const std::map<std::string, IncorrectDateAnalyzer::Row>& m) {
  w.u64(m.size());
  for (const auto& [key, row] : m) {
    w.str(key);
    write_date_row(w, row);
  }
}

void read_date_map(StateReader& r,
                   std::map<std::string, IncorrectDateAnalyzer::Row>& m) {
  m.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    read_date_row(r, m[std::move(key)]);
  }
}

}  // namespace

void IncorrectDateAnalyzer::serialize(StateWriter& w) const {
  write_date_map(w, rows_);
  write_date_map(w, both_);
}

void IncorrectDateAnalyzer::deserialize(StateReader& r) {
  read_date_map(r, rows_);
  read_date_map(r, both_);
}

// ---------------------------------------------------------------------------
// AnalyzerSet / ShardState

void AnalyzerSet::merge(AnalyzerSet&& other) {
  prevalence.merge(std::move(other.prevalence));
  service_ports.merge(std::move(other.service_ports));
  inbound_assoc.merge(std::move(other.inbound_assoc));
  outbound_flows.merge(std::move(other.outbound_flows));
  dummy_issuers.merge(std::move(other.dummy_issuers));
  serial_collisions.merge(std::move(other.serial_collisions));
  shared_certs.merge(std::move(other.shared_certs));
  incorrect_dates.merge(std::move(other.incorrect_dates));
}

std::string describe_meta(const ShardStateMeta& meta) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mode=%s seed=%llu cert_scale=%g conn_scale=%g",
                meta.file_mode ? "file" : "synthetic",
                static_cast<unsigned long long>(meta.seed), meta.cert_scale,
                meta.conn_scale);
  return buf;
}

bool compatible_meta(const ShardStateMeta& a, const ShardStateMeta& b) {
  return a.file_mode == b.file_mode && a.seed == b.seed &&
         a.cert_scale == b.cert_scale && a.conn_scale == b.conn_scale;
}

void ShardState::merge(ShardState&& other) {
  meta.parse_bytes += other.meta.parse_bytes;
  const auto append_path = [](std::string& mine, std::string&& theirs) {
    if (theirs.empty()) return;
    if (!mine.empty()) mine += ",";
    mine += std::move(theirs);
  };
  append_path(meta.ssl_log, std::move(other.meta.ssl_log));
  append_path(meta.x509_log, std::move(other.meta.x509_log));
  if (other.pipeline) {
    if (pipeline) {
      pipeline->merge(std::move(*other.pipeline));
    } else {
      pipeline = std::move(other.pipeline);
    }
  }
  analyzers.merge(std::move(other.analyzers));
  ledger.merge(std::move(other.ledger));
}

// ---------------------------------------------------------------------------
// Container framing

namespace {

void serialize_meta(StateWriter& w, const ShardStateMeta& meta) {
  w.u8(meta.file_mode ? 1 : 0);
  w.u64(meta.seed);
  w.f64(meta.cert_scale);
  w.f64(meta.conn_scale);
  w.str(meta.ssl_log);
  w.str(meta.x509_log);
  w.u64(meta.parse_bytes);
}

void deserialize_meta(StateReader& r, ShardStateMeta& meta) {
  meta.file_mode = r.u8() != 0;
  meta.seed = r.u64();
  meta.cert_scale = r.f64();
  meta.conn_scale = r.f64();
  meta.ssl_log = r.str();
  meta.x509_log = r.str();
  meta.parse_bytes = r.u64();
}

}  // namespace

std::string serialize_shard_state(const ShardState& state) {
  if (!state.pipeline) {
    throw StateError("shard state has no pipeline to serialize");
  }
  const AnalyzerSet& a = state.analyzers;
  return write_sealed(
      kFormat,
      {
          [&](StateWriter& p) { serialize_meta(p, state.meta); },
          [&](StateWriter& p) { state.pipeline->serialize(p); },
          [&](StateWriter& p) { a.prevalence.serialize(p); },
          [&](StateWriter& p) { a.service_ports.serialize(p); },
          [&](StateWriter& p) { a.inbound_assoc.serialize(p); },
          [&](StateWriter& p) { a.outbound_flows.serialize(p); },
          [&](StateWriter& p) { a.dummy_issuers.serialize(p); },
          [&](StateWriter& p) { a.serial_collisions.serialize(p); },
          [&](StateWriter& p) { a.shared_certs.serialize(p); },
          [&](StateWriter& p) { a.incorrect_dates.serialize(p); },
          [&](StateWriter& p) { state.ledger.serialize(p); },
      });
}

std::optional<ShardState> parse_shard_state(std::string_view data,
                                            StateFileInfo* info,
                                            std::string* error) {
  ShardState state;
  state.pipeline.emplace();
  AnalyzerSet& a = state.analyzers;
  std::string digest_hex;
  if (!read_sealed(
          kFormat, data,
          {
              [&](StateReader& r) { deserialize_meta(r, state.meta); },
              [&](StateReader& r) { state.pipeline->deserialize(r); },
              [&](StateReader& r) { a.prevalence.deserialize(r); },
              [&](StateReader& r) { a.service_ports.deserialize(r); },
              [&](StateReader& r) { a.inbound_assoc.deserialize(r); },
              [&](StateReader& r) { a.outbound_flows.deserialize(r); },
              [&](StateReader& r) { a.dummy_issuers.deserialize(r); },
              [&](StateReader& r) { a.serial_collisions.deserialize(r); },
              [&](StateReader& r) { a.shared_certs.deserialize(r); },
              [&](StateReader& r) { a.incorrect_dates.deserialize(r); },
              [&](StateReader& r) { state.ledger.deserialize(r); },
          },
          error, info != nullptr ? &digest_hex : nullptr)) {
    return std::nullopt;
  }
  if (info != nullptr) {
    info->format_version = kStateFormatVersion;
    info->digest_hex = std::move(digest_hex);
    info->bytes = data.size();
  }
  return state;
}

bool save_shard_state(const std::string& path, const ShardState& state,
                      StateFileInfo* info, std::string* error) {
  std::string bytes;
  try {
    bytes = serialize_shard_state(state);
  } catch (const StateError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  // Atomic, durable publication (DESIGN §16): tmp + fsync + rename +
  // parent-directory fsync, so a reduce never opens a torn state file
  // and a completed map survives power loss.
  const auto published = ingest::atomic_publish_file(path, bytes, "state.save");
  if (!published.ok) {
    if (error != nullptr) *error = published.message;
    return false;
  }
  if (info != nullptr) {
    info->format_version = kStateFormatVersion;
    info->digest_hex = crypto::to_hex(crypto::Sha256::hash(std::string_view(
        bytes.data(), bytes.size() - crypto::Sha256::kDigestSize)));
    info->bytes = bytes.size();
  }
  return true;
}

std::optional<ShardState> load_shard_state(const std::string& path,
                                           StateFileInfo* info,
                                           std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = std::move(buf).str();
  return parse_shard_state(bytes, info, error);
}

// ---------------------------------------------------------------------------
// Executor fold entries

namespace {

/// One Sharded wrapper per standard analyzer, attached together and
/// merged together — the executor-side counterpart of AnalyzerSet.
struct ShardedSet {
  explicit ShardedSet(std::size_t shards)
      : prevalence(shards),
        service_ports(shards),
        inbound_assoc(shards),
        outbound_flows(shards),
        dummy_issuers(shards),
        serial_collisions(shards),
        shared_certs(shards),
        incorrect_dates(shards) {}

  void attach(PipelineExecutor& executor) {
    executor.attach(prevalence);
    executor.attach(service_ports);
    executor.attach(inbound_assoc);
    executor.attach(outbound_flows);
    executor.attach(dummy_issuers);
    executor.attach(serial_collisions);
    executor.attach(shared_certs);
    executor.attach(incorrect_dates);
  }

  AnalyzerSet merged() && {
    AnalyzerSet out;
    out.prevalence = std::move(prevalence).merged();
    out.service_ports = std::move(service_ports).merged();
    out.inbound_assoc = std::move(inbound_assoc).merged();
    out.outbound_flows = std::move(outbound_flows).merged();
    out.dummy_issuers = std::move(dummy_issuers).merged();
    out.serial_collisions = std::move(serial_collisions).merged();
    out.shared_certs = std::move(shared_certs).merged();
    out.incorrect_dates = std::move(incorrect_dates).merged();
    return out;
  }

  Sharded<PrevalenceAnalyzer> prevalence;
  Sharded<ServicePortAnalyzer> service_ports;
  Sharded<InboundAssociationAnalyzer> inbound_assoc;
  Sharded<OutboundFlowAnalyzer> outbound_flows;
  Sharded<DummyIssuerAnalyzer> dummy_issuers;
  Sharded<SerialCollisionAnalyzer> serial_collisions;
  Sharded<SharedCertAnalyzer> shared_certs;
  Sharded<IncorrectDateAnalyzer> incorrect_dates;
};

}  // namespace

std::optional<ShardState> PipelineExecutor::fold_entry(
    const std::function<std::optional<Pipeline>(ErrorLedger*)>& entry) {
  ShardedSet sharded(shard_count());
  sharded.attach(*this);
  ShardState state;
  auto pipeline = entry(&state.ledger);
  factories_.clear();  // they reference the local ShardedSet
  if (!pipeline) return std::nullopt;
  state.pipeline = std::move(pipeline);
  state.analyzers = std::move(sharded).merged();
  return state;
}

ShardState PipelineExecutor::fold(const zeek::Dataset& dataset) {
  return *fold_entry(
      [&](ErrorLedger*) { return std::optional<Pipeline>(run(dataset)); });
}

ShardState PipelineExecutor::fold(const std::vector<zeek::SslRecord>& ssl,
                                  std::vector<const zeek::X509Record*> x509) {
  return *fold_entry([&](ErrorLedger*) {
    return std::optional<Pipeline>(run(ssl, std::move(x509)));
  });
}

std::optional<ShardState> PipelineExecutor::fold_log_files(
    const std::string& ssl_path, const std::string& x509_path,
    ingest::IngestError* error, const ingest::IngestOptions& options) {
  return fold_entry([&](ErrorLedger* ledger) {
    return run_log_files(ssl_path, x509_path, error, options, ledger);
  });
}

std::optional<ShardState> PipelineExecutor::fold_container(
    const colfmt::ContainerReader& reader, ingest::IngestError* error,
    const ingest::IngestOptions& options) {
  return fold_entry([&](ErrorLedger* ledger) {
    return run_container(reader, error, options, ledger);
  });
}

}  // namespace mtlscope::core
