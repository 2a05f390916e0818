// The measurement result of one shard, and of a whole run once shards
// merge: the per-certificate fact registry with its usage aggregates,
// connection totals, and the interception-filter verdicts (§3.2).
//
// The PipelineExecutor (core/executor.hpp) builds the certificate
// registry (phases A and B) and the confirmed-interception set (phase C)
// in pre-passes, then runs one Pipeline per shard against that shared
// read-only state (phase D): add_connection() enriches each row, drops
// rows of confirmed interception issuers, accounts usage, and hands the
// enriched view to the observers. Shard pipelines combine with merge()
// (phase E). A Pipeline built without prepared state only holds results:
// a merge target, or one loaded from a shard-state file.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtlscope/ctlog/ct_database.hpp"
#include "mtlscope/core/field_list.hpp"
#include "mtlscope/core/issuer_category.hpp"
#include "mtlscope/gen/model.hpp"
#include "mtlscope/net/ip.hpp"
#include "mtlscope/textclass/classifier.hpp"
#include "mtlscope/trust/store.hpp"
#include "mtlscope/util/u32_set.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope::core {

using gen::Direction;
using gen::ServerAssociation;

class Enricher;

/// Decoded, classified facts about one unique certificate, plus usage
/// aggregates accumulated as connections stream through. String fields
/// are interned handles (DESIGN §14): a campus population shares a few
/// hundred distinct issuers across millions of certificates, so facts
/// carry pointers into the arena instead of per-certificate copies.
/// Serialization writes the bytes, never arena identities, so state
/// files and checkpoints are unchanged by the interning.
struct CertFacts {
  // Parsed fields.
  colfmt::Str fuid;
  int version = 3;
  int key_bits = 0;
  colfmt::Str serial_hex;
  colfmt::Str subject_cn;
  colfmt::Str issuer_org;
  colfmt::Str issuer_cn;
  colfmt::Str issuer_dn;
  x509::Validity validity;
  std::vector<colfmt::Str> san_dns;
  int san_email_count = 0;
  int san_uri_count = 0;
  int san_ip_count = 0;

  // Classification (§3.2, §6.1).
  trust::IssuerClass issuer_class = trust::IssuerClass::kPrivate;
  IssuerCategory issuer_category = IssuerCategory::kPrivateOthers;
  bool campus_issuer = false;
  textclass::InfoType cn_type = textclass::InfoType::kUnidentified;
  std::vector<textclass::InfoType> san_dns_types;
  bool flagged_interception = false;

  // Usage aggregates.
  bool used_as_server = false;
  bool used_as_client = false;
  bool used_in_mutual = false;
  bool seen_inbound = false;
  bool seen_outbound = false;
  /// Used as client in an outbound connection that carried an SNI — the
  /// population §4.2.2's missing-issuer percentage is computed over.
  bool seen_outbound_with_sni = false;
  bool client_use_while_expired = false;
  std::uint64_t connection_count = 0;
  util::UnixSeconds first_seen = std::numeric_limits<std::int64_t>::max();
  util::UnixSeconds last_seen = std::numeric_limits<std::int64_t>::min();
  /// /24 networks of the endpoint that presented this certificate, split
  /// by role (Table 6). Analyses read only their sizes.
  util::U32Set server_subnets;
  util::U32Set client_subnets;
  /// Representative context: first SLD / server association observed.
  colfmt::Str context_sld;
  ServerAssociation context_assoc = ServerAssociation::kNone;

  bool has_cn() const { return !subject_cn.empty(); }
  bool has_san_dns() const { return !san_dns.empty(); }
  /// Duration of activity in days (§5 definition).
  double activity_days() const {
    if (connection_count == 0) return 0;
    return static_cast<double>(last_seen - first_seen) / 86'400.0;
  }

  /// The field list (core/field_list.hpp): shard-state encoding, merge
  /// and test equality. Identical certificates share every parsed and
  /// classification field, so only the usage aggregates fold, except for
  /// the monotone chain upgrade: a shard that saw the certificate chain
  /// to a public root makes it public, with that shard's category.
  template <class V>
  static void fields(V& v) {
    v("fuid", &CertFacts::fuid, rule::keep);
    v("version", &CertFacts::version, rule::keep);
    v("key_bits", &CertFacts::key_bits, rule::keep);
    v("serial_hex", &CertFacts::serial_hex, rule::keep);
    v("subject_cn", &CertFacts::subject_cn, rule::keep);
    v("issuer_org", &CertFacts::issuer_org, rule::keep);
    v("issuer_cn", &CertFacts::issuer_cn, rule::keep);
    v("issuer_dn", &CertFacts::issuer_dn, rule::keep);
    v("validity", &CertFacts::validity, rule::keep);
    v("san_dns", &CertFacts::san_dns, rule::keep);
    v("san_email_count", &CertFacts::san_email_count, rule::keep);
    v("san_uri_count", &CertFacts::san_uri_count, rule::keep);
    v("san_ip_count", &CertFacts::san_ip_count, rule::keep);
    v("issuer_class", &CertFacts::issuer_class,
      rule::upgrade(trust::IssuerClass::kPublic, &CertFacts::issuer_category));
    v("issuer_category", &CertFacts::issuer_category, rule::keep);
    v("campus_issuer", &CertFacts::campus_issuer, rule::keep);
    v("cn_type", &CertFacts::cn_type, rule::keep);
    v("san_dns_types", &CertFacts::san_dns_types, rule::keep);
    v("flagged_interception", &CertFacts::flagged_interception, rule::either);
    v("used_as_server", &CertFacts::used_as_server, rule::either);
    v("used_as_client", &CertFacts::used_as_client, rule::either);
    v("used_in_mutual", &CertFacts::used_in_mutual, rule::either);
    v("seen_inbound", &CertFacts::seen_inbound, rule::either);
    v("seen_outbound", &CertFacts::seen_outbound, rule::either);
    v("seen_outbound_with_sni", &CertFacts::seen_outbound_with_sni,
      rule::either);
    v("client_use_while_expired", &CertFacts::client_use_while_expired,
      rule::either);
    v("connection_count", &CertFacts::connection_count, rule::sum);
    v("first_seen", &CertFacts::first_seen, rule::min);
    v("last_seen", &CertFacts::last_seen, rule::max);
    v("server_subnets", &CertFacts::server_subnets, rule::unite);
    v("client_subnets", &CertFacts::client_subnets, rule::unite);
    v("context_sld", &CertFacts::context_sld,
      rule::first_set(colfmt::Str()));
    v("context_assoc", &CertFacts::context_assoc,
      rule::first_set(ServerAssociation::kNone));
  }
};

/// Memoized facts about one distinct resolved host: registrable domain,
/// public suffix, and the direction-independent association lookup.
/// Pure function of the host bytes and the pipeline configuration.
struct HostFacts {
  colfmt::Str sld;  // registrable domain, or ""
  colfmt::Str tld;  // public suffix, or ""
  /// associate(host, sld); the enriched connection applies this only to
  /// inbound traffic.
  ServerAssociation assoc = ServerAssociation::kUnknown;
};

/// Memoized facts about one distinct endpoint address string. Pure
/// function of the address bytes and the configured subnets.
struct AddrFacts {
  bool is_v4 = false;       // parsed as IPv4 (subnet is meaningful)
  bool university = false;  // inside a configured university subnet
  std::uint32_t subnet = 0;      // /24 key (Table 6), v4 only
  std::uint32_t client_key = 0;  // analyzer client id (v4 value / v6 hash)
};

/// Per-shard enrichment memo (DESIGN §15). Keys are interned `Str` data
/// pointers — the arena stores each distinct byte sequence exactly once,
/// so pointer identity is value identity and lookups skip hashing the
/// bytes. NOT thread-safe: each shard pipeline owns one, so the hot path
/// takes no locks; values are pure functions of the key bytes, so shard
/// caches agree wherever they overlap and results stay byte-identical
/// across thread counts.
struct EnrichCache {
  std::unordered_map<const char*, HostFacts> hosts;
  std::unordered_map<const char*, AddrFacts> addrs;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Unique keys folded in from merged-away shard caches.
  std::uint64_t retired_unique = 0;
  std::uint64_t unique() const {
    return retired_unique + hosts.size() + addrs.size();
  }
};

/// One enriched connection, handed to registered observers. The string
/// fields are interned handles — copied by pointer, classified once per
/// distinct value via EnrichCache.
struct EnrichedConnection {
  const zeek::SslRecord* ssl = nullptr;
  util::UnixSeconds ts = 0;
  Direction direction = Direction::kInbound;
  bool established = false;
  bool mutual = false;
  const CertFacts* server_leaf = nullptr;  // null when absent (TLS 1.3 …)
  const CertFacts* client_leaf = nullptr;
  colfmt::Str sni;            // raw SNI (may be empty)
  colfmt::Str resolved_host;  // SNI, or CN/SAN fallback (§4.2)
  colfmt::Str sld;            // registrable domain of resolved_host, or ""
  colfmt::Str tld;            // public suffix, or ""
  ServerAssociation assoc = ServerAssociation::kNone;
  /// Memoized client identity key (AddrFacts::client_key of orig_h); 0
  /// when unset — consumers fall back to parsing the address.
  std::uint32_t client_key = 0;
};

struct PipelineConfig {
  std::vector<net::Subnet> university_subnets;
  std::vector<std::string> campus_issuer_orgs;
  std::vector<std::string> dummy_issuer_orgs;
  /// Host-suffix → association rules, checked in order against the
  /// resolved host, then against the SLD.
  std::vector<std::pair<std::string, ServerAssociation>> association_rules;
  const ctlog::CtDatabase* ct = nullptr;  // optional
  /// How many distinct CT-mismatching domains confirm an interception
  /// issuer (the stand-in for the paper's manual investigation). 1 =
  /// trust every mismatch; higher = more conservative.
  std::size_t interception_domain_threshold = 3;
  /// Reference "now" for expiry checks on certificates whose use we
  /// observe (each connection uses its own timestamp; this is only the
  /// fallback for population-level summaries).
  util::UnixSeconds study_start = 0;
  util::UnixSeconds study_end = 0;

  /// The configuration matching the synthetic campus in gen::paper_model.
  static PipelineConfig campus_defaults();
};

class Pipeline {
 public:
  /// Hot-path registry: fuid-keyed hash map with transparent lookup, so
  /// chain fuids probe without materializing a key. Analyzers that need
  /// ordered iteration read the fuid-ordered view finalize() builds (see
  /// certificates_sorted()).
  using CertMap = std::unordered_map<colfmt::Str, CertFacts, colfmt::StrHash,
                                     colfmt::StrEq>;
  /// Byte-ordered set of interned strings (issuer DNs, SLDs): iterates
  /// in the same order as a std::set<std::string>, so serialization and
  /// result determinism are unchanged by the interning.
  using StrSet = std::set<colfmt::Str, colfmt::StrLess>;

  /// Shared read-only state for one shard of a partitioned run, built by
  /// the PipelineExecutor's pre-passes.
  struct Prepared {
    std::shared_ptr<const Enricher> enricher;
    /// Fully built certificate registry (chain-upgrades applied). Shards
    /// copy an entry on first use and accumulate usage locally.
    std::shared_ptr<const CertMap> base_certificates;
    /// Interception issuers confirmed over the whole stream; exclusion is
    /// a frozen-set membership test.
    std::shared_ptr<const StrSet> interception_issuers;
  };
  /// A shard: enrichment state is shared and immutable; this pipeline
  /// only accumulates shard-local usage and analyzer input.
  explicit Pipeline(Prepared prepared);
  /// A result holder (merge target, shard-state loader): add_connection()
  /// needs the prepared state and must not be called on it.
  Pipeline() = default;

  using Observer = std::function<void(const EnrichedConnection&)>;
  void add_observer(Observer observer);

  /// Processes one connection: enrichment, interception filtering, usage
  /// accounting, observer dispatch. Connections whose server leaf comes
  /// from a confirmed interception issuer are excluded (counted, not
  /// dispatched).
  void add_connection(const zeek::SslRecord& record);

  /// Marks every certificate issued by a confirmed interception issuer
  /// and builds the fuid-ordered view of the registry. Idempotent; call
  /// after the stream ends, before certificate-level analyses.
  void finalize();

  /// Folds a later shard into this pipeline: certificate usage aggregates,
  /// totals, interception issuers. Merge shards in stream order; observers
  /// are not merged (shard observers are the executor's concern).
  void merge(Pipeline&& other);

  /// The certificate registry, keyed by fuid (unordered).
  const CertMap& certificates() const { return certs_; }

  /// The registry in fuid order — deterministic iteration for the
  /// certificate-population analyzers (ties in their sorts and max-
  /// tracking resolve identically on every run and every shard count).
  /// finalize() builds it once; every registry change since drops it,
  /// and reading a dropped view throws std::logic_error.
  const std::vector<const CertFacts*>& certificates_sorted() const;

  // Interception-filter results (§3.2.1).
  const StrSet& interception_issuers() const {
    return interception_issuers_;
  }
  std::size_t interception_excluded_connections() const {
    return excluded_connections_;
  }
  std::size_t interception_flagged_certificates() const;

  struct Totals {
    std::uint64_t connections = 0;
    std::uint64_t established = 0;
    std::uint64_t rejected_handshakes = 0;  // not established → excluded
    std::uint64_t mutual = 0;
    std::uint64_t inbound = 0;
    std::uint64_t outbound = 0;
    std::uint64_t tls13 = 0;

    template <class V>
    static void fields(V& v) {
      v("connections", &Totals::connections, rule::sum);
      v("established", &Totals::established, rule::sum);
      v("rejected_handshakes", &Totals::rejected_handshakes, rule::sum);
      v("mutual", &Totals::mutual, rule::sum);
      v("inbound", &Totals::inbound, rule::sum);
      v("outbound", &Totals::outbound, rule::sum);
      v("tls13", &Totals::tls13, rule::sum);
    }
  };
  const Totals& totals() const { return totals_; }

  /// The per-shard enrichment memo (hit/miss/unique counters for the perf
  /// envelope; merge() folds the counters of merged-away shards in here).
  const EnrichCache& enrich_cache() const { return cache_; }

  /// Executor hooks (also used by the merge tests): install the
  /// whole-stream interception state on the merged result.
  void set_interception_issuers(StrSet issuers) {
    interception_issuers_ = std::move(issuers);
  }
  /// Copies base-registry entries this pipeline never touched, so the
  /// merged result exposes the full certificate population, zero-usage
  /// certificates included.
  void backfill_certificates(const CertMap& base);

  /// The field list (core/field_list.hpp): registry, totals and
  /// interception issuers, everything merge() and the certificate
  /// analyses consume. Observers, the prepared state and the enrichment
  /// memo are deliberately not listed; a deserialized pipeline is a
  /// result holder (parse_shard_state reads into a fresh one, so it
  /// starts without a view). The two retired runs held the deleted
  /// streaming mode's mid-stream interception candidates and their
  /// reconciliation ledger; no writer ever filled them.
  template <class V>
  static void fields(V& v) {
    v("totals", &Pipeline::totals_, rule::fold);
    v("excluded_connections", &Pipeline::excluded_connections_, rule::sum);
    v("certificates", &Pipeline::certs_, rule::registry(&CertFacts::fuid));
    v("interception_issuers", &Pipeline::interception_issuers_, rule::unite);
    v("interception candidates", rule::retired);
    v("reconciliation ledger", rule::retired);
  }

 private:
  /// certs_ in fuid order: pointers into its nodes. A copy starts empty,
  /// since the source's pointers would name the source's nodes; a move
  /// keeps it, since moving the map keeps its nodes.
  struct CertView {
    std::vector<const CertFacts*> sorted;

    CertView() = default;
    CertView(const CertView&) {}
    CertView(CertView&&) = default;
    CertView& operator=(const CertView&) {
      sorted.clear();
      return *this;
    }
    CertView& operator=(CertView&&) = default;
  };

  CertFacts* local_cert(const colfmt::Str& fuid);

  // Prepared state shared by every shard (null in a result holder).
  std::shared_ptr<const Enricher> enricher_;
  std::shared_ptr<const CertMap> base_certs_;
  std::shared_ptr<const StrSet> frozen_issuers_;

  std::vector<Observer> observers_;
  CertMap certs_;
  /// Current while its size matches certs_: every mutation clears it.
  CertView view_;
  StrSet interception_issuers_;
  std::size_t excluded_connections_ = 0;
  Totals totals_;
  /// Shard-local enrichment memo: add_connection resolves hosts and
  /// endpoint addresses through it, so per-row work scales with unique
  /// values instead of rows (DESIGN §15).
  EnrichCache cache_;
};

}  // namespace mtlscope::core
