#include "mtlscope/gen/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "mtlscope/textclass/lexicon.hpp"
#include "mtlscope/tls/handshake.hpp"
#include "mtlscope/trust/public_cas.hpp"
#include "mtlscope/util/parallel.hpp"
#include "mtlscope/x509/builder.hpp"

namespace mtlscope::gen {

using crypto::Rng;
using util::UnixSeconds;

namespace {

constexpr double kDaySeconds = 86'400.0;

std::string campus_org() { return "Blue Ridge University"; }

/// Index of a certificate in the current unit's CertSlot table.
using CertId = std::uint32_t;
constexpr CertId kNoCert = ~CertId{0};

/// Connections planned before the materialize stage runs: bounds the
/// plan buffer (and the transient row buffers) per unit.
constexpr std::size_t kConnBatch = 16'384;
/// Smallest share of work worth a thread of its own.
constexpr std::size_t kCertsPerWorker = 16;
constexpr std::size_t kConnsPerWorker = 1'024;

/// One certificate of the current unit. The plan stage fills the plan
/// fields (every random draw already made) or points `prebuilt` at a CA
/// certificate a server sends as its intermediate; the materialize stage
/// builds it once and computes its fuid once.
struct CertSlot {
  // Plan.
  x509::CertificateBuilder builder;  // everything but the public key
  std::string key_label;             // TsigKey::derive seed
  std::size_t key_bits = 2048;
  /// The issuing CA; null: self-signed. Set for prebuilt CA certificates
  /// too, where only the truth sidecar reads it.
  const trust::CertificateAuthority* issuer = nullptr;
  x509::Validity validity;  // as encoded; decides client validation
  const x509::Certificate* prebuilt = nullptr;
  bool seen = false;  // already in a visible chain: its x509 row is queued
  // Materialized.
  x509::Certificate built;
  colfmt::Str fuid;

  const x509::Certificate& cert() const {
    return prebuilt != nullptr ? *prebuilt : built;
  }

  void materialize() {
    if (prebuilt == nullptr) {
      const auto key = crypto::TsigKey::derive(key_label, key_bits);
      builder.public_key(key.key);
      built = issuer != nullptr ? issuer->issue(builder)
                                : builder.self_sign(key);
      builder = x509::CertificateBuilder();  // the plan is spent
    }
    fuid = zeek::fuid_of(cert());
  }
};

/// One planned connection: the monitor's view with the chains held as
/// slot ids. Only chains the handshake outcome makes visible are set.
struct ConnPlan {
  tls::TlsConnection conn;  // chains empty
  std::array<CertId, 2> server_chain{kNoCert, kNoCert};  // leaf, intermediate
  CertId client_leaf = kNoCert;
};

std::size_t workers_for(std::size_t items, std::size_t per_worker,
                        std::size_t threads) {
  return std::clamp<std::size_t>(items / per_worker, 1, threads);
}

/// The campus address plan: NATed clients in 10.0.0.0/8, university
/// hosts in 128.143.0.0/16 (PipelineConfig::campus_defaults()'s subnets).
constexpr std::uint32_t kNatNet = 0x0a000000u;
constexpr std::uint32_t kCampusNet = 0x808f0000u;

bool on_campus(const net::IpAddress& addr) {
  if (!addr.is_v4()) return false;
  const std::uint32_t v = addr.v4_value();
  return (v & 0xff000000u) == kNatNet || (v & 0xffff0000u) == kCampusNet;
}

/// Whether `ca` is a root or intermediate of the public PKI.
bool is_public_ca(const trust::CertificateAuthority* ca) {
  for (const auto& pki_ca : trust::public_pki().cas()) {
    if (ca == &pki_ca.root || ca == &pki_ca.intermediate) return true;
  }
  return false;
}

}  // namespace

std::uint64_t label_hash(std::string_view label) {
  constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  const auto shift_mix = [](std::uint64_t v) { return v ^ (v >> 47); };
  const auto* p = reinterpret_cast<const unsigned char*>(label.data());
  const std::size_t len = label.size();
  // Little-endian loads, as libstdc++ reads words on x86-64.
  const auto load = [p](std::size_t at, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = n; i-- > 0;) v = (v << 8) | p[at + i];
    return v;
  };
  std::uint64_t hash = 0xc70f6907ULL ^ (len * kMul);
  const std::size_t aligned = len & ~std::size_t{7};
  for (std::size_t at = 0; at < aligned; at += 8) {
    hash ^= shift_mix(load(at, 8) * kMul) * kMul;
    hash *= kMul;
  }
  if ((len & 7) != 0) {
    hash ^= load(aligned, len & 7);
    hash *= kMul;
  }
  hash = shift_mix(hash) * kMul;
  return shift_mix(hash);
}

const char* direction_name(Direction d) {
  return d == Direction::kInbound ? "inbound" : "outbound";
}

const char* association_name(ServerAssociation a) {
  switch (a) {
    case ServerAssociation::kUniversityHealth:
      return "University Health";
    case ServerAssociation::kUniversityServer:
      return "University Server";
    case ServerAssociation::kUniversityVpn:
      return "University VPN";
    case ServerAssociation::kLocalOrganization:
      return "Local Organization";
    case ServerAssociation::kThirdPartyService:
      return "Third Party Services";
    case ServerAssociation::kGlobus:
      return "Globus";
    case ServerAssociation::kUnknown:
      return "Unknown";
    case ServerAssociation::kNone:
      return "-";
  }
  return "?";
}

class TraceGenerator::Impl {
 public:
  Impl(CampusModel model, ctlog::CtDatabase& ct, Stats& stats)
      : model_(std::move(model)), ct_(ct), stats_(stats), rng_(model_.seed) {}

  /// Plans the trace unit by unit (each cluster, then interception, then
  /// background) and materializes each unit's plans into exactly one of
  /// `sink` or `dataset`, recording each connection's labels into
  /// `truth` when it is non-null.
  void generate(const Sink* sink, zeek::Dataset* dataset,
                std::size_t threads, std::vector<ConnTruth>* truth) {
    sink_ = sink;
    dataset_ = dataset;
    truth_ = truth;
    threads_ = std::max<std::size_t>(1, threads);
    // One exact reservation, so the rows never move while they grow.
    const std::size_t planned = planned_connections();
    if (dataset_ != nullptr) dataset_->ssl().reserve(planned);
    if (truth_ != nullptr) truth_->reserve(truth_->size() + planned);
    for (auto& cluster : model_.clusters) {
      plan_cluster(cluster);
      end_unit();
    }
    unit_ = ConnTruth::Unit::kInterception;
    plan_interception();
    end_unit();
    unit_ = ConnTruth::Unit::kBackground;
    plan_background();
    end_unit();
  }

  /// The connections generate() plans, from the same sizing functions
  /// the planner's loops call.
  std::size_t planned_connections() const {
    std::size_t total = 0;
    for (const auto& cluster : model_.clusters) {
      const std::size_t servers =
          population_shape(cluster, cluster.server_certs,
                           server_cert_count(cluster))
              .count;
      const std::size_t client_request = client_cert_count(cluster);
      const std::size_t clients =
          client_request == 0
              ? 0
              : population_shape(cluster, cluster.client_certs,
                                 client_request)
                    .count;
      total += cluster_connections(cluster, servers, clients);
    }
    return total + interception_connections() +
           model_.background_connections;
  }

 private:
  // --- CA management -------------------------------------------------------

  const trust::CertificateAuthority& private_ca(const std::string& org,
                                                const std::string& cn = {}) {
    const std::string key = org + "|" + cn;
    auto it = private_cas_.find(key);
    if (it == private_cas_.end()) {
      x509::DistinguishedName dn;
      dn.add_org(org).add_cn(cn.empty() ? org + " CA" : cn);
      it = private_cas_
               .emplace(key, trust::CertificateAuthority::make_root(
                                 dn, util::to_unix({2015, 1, 1, 0, 0, 0}),
                                 util::to_unix({2045, 1, 1, 0, 0, 0})))
               .first;
    }
    return it->second;
  }

  const trust::CertificateAuthority& campus_ca(std::size_t which) {
    static constexpr const char* kCnSuffix[] = {"User CA", "Device CA",
                                                "Health System CA"};
    const std::size_t idx = which % std::size(kCnSuffix);
    const std::string key = "campus" + std::to_string(idx);
    auto it = private_cas_.find(key);
    if (it == private_cas_.end()) {
      x509::DistinguishedName dn;
      dn.add_org(campus_org())
          .add_cn(campus_org() + " " + kCnSuffix[idx]);
      it = private_cas_
               .emplace(key, trust::CertificateAuthority::make_root(
                                 dn, util::to_unix({2015, 1, 1, 0, 0, 0}),
                                 util::to_unix({2045, 1, 1, 0, 0, 0})))
               .first;
    }
    return it->second;
  }

  const trust::CertificateAuthority& missing_issuer_ca(
      const std::string& cluster_name) {
    const std::string key = "missing:" + cluster_name;
    auto it = private_cas_.find(key);
    if (it == private_cas_.end()) {
      // Issuer DN with no organization — the paper's
      // "Private - MissingIssuer" category.
      x509::DistinguishedName dn;
      Rng local(rng_.fork(label_hash(key)));
      dn.add_cn("ca-" + local.hex(6));
      it = private_cas_
               .emplace(key, trust::CertificateAuthority::make_root(
                                 dn, 0, util::to_unix({2045, 1, 1, 0, 0, 0})))
               .first;
    }
    return it->second;
  }

  static const trust::CertificateAuthority& hosting_parent() {
    return trust::public_pki().find("digicert")->intermediate;
  }

  const trust::CertificateAuthority& hosting_subca() {
    if (!hosting_subca_) {
      x509::DistinguishedName dn;
      dn.add_org("Example Hosting").add_cn("Example Hosting Issuing CA");
      hosting_subca_ = std::make_unique<trust::CertificateAuthority>(
          trust::CertificateAuthority::make_intermediate(
              hosting_parent(), dn,
              util::to_unix({2018, 1, 1, 0, 0, 0}),
              util::to_unix({2038, 1, 1, 0, 0, 0})));
    }
    return *hosting_subca_;
  }

  const trust::CertificateAuthority& dummy_ca(const std::string& org) {
    const std::string key = "dummy:" + org;
    auto it = private_cas_.find(key);
    if (it == private_cas_.end()) {
      // OpenSSL-style default DN.
      x509::DistinguishedName dn;
      dn.add_country("AU")
          .add(asn1::oids::state_or_province_name(), "Some-State")
          .add_org(org);
      it = private_cas_
               .emplace(key, trust::CertificateAuthority::make_root(
                                 dn, 0, util::to_unix({2045, 1, 1, 0, 0, 0})))
               .first;
    }
    return it->second;
  }

  // --- Content generation ---------------------------------------------------

  std::string pick(std::span<const std::string_view> list, Rng& rng) {
    return std::string(list[rng.below(list.size())]);
  }

  std::string title_case(std::string s) {
    bool start = true;
    for (auto& c : s) {
      if (start && c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
      start = (c == ' ' || c == '-');
    }
    return s;
  }

  std::string make_cn(CnContent kind, const TrafficCluster& cluster,
                      const CertSpec& spec, Rng& rng) {
    namespace lex = textclass::lexicon;
    switch (kind) {
      case CnContent::kEmpty:
        return {};
      case CnContent::kServiceDomain:
        return cluster.sld.empty() ? "service.internal.example" : cluster.sld;
      case CnContent::kHostUnderDomain: {
        const std::string base =
            cluster.sld.empty() ? "example.com" : cluster.sld;
        return "host-" + rng.alnum(5) + "." + base;
      }
      case CnContent::kEmailServiceDomain: {
        static constexpr const char* kPrefix[] = {"smtp", "mx", "mta", "mail"};
        const std::string base =
            cluster.sld.empty() ? "example.com" : cluster.sld;
        return std::string(kPrefix[rng.below(4)]) +
               std::to_string(rng.below(20)) + "." + base;
      }
      case CnContent::kWebRtc:
        return rng.chance(0.5) ? "WebRTC" : "WebRTC-" + rng.hex(6);
      case CnContent::kTwilio:
        return "twilio";
      case CnContent::kHangouts:
        return "hangouts";
      case CnContent::kOrgName:
        // Fall back to a gazetteer company when the issuer has no usable
        // organization string (campus / self-signed cohorts).
        return spec.issuer_ref.empty()
                   ? title_case(pick(lex::company_names(), rng))
                   : spec.issuer_ref;
      case CnContent::kCompanyName:
        return title_case(pick(lex::company_names(), rng));
      case CnContent::kProductName:
        return title_case(pick(lex::product_names(), rng));
      case CnContent::kPersonalName:
        return title_case(pick(lex::given_names(), rng)) + " " +
               title_case(pick(lex::family_names(), rng));
      case CnContent::kUserAccount: {
        // 2 letters + 1 digit + 2 letters, the campus shape.
        std::string out;
        static constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz";
        out += kAlpha[rng.below(26)];
        out += kAlpha[rng.below(26)];
        out += static_cast<char>('0' + rng.below(10));
        out += kAlpha[rng.below(26)];
        out += kAlpha[rng.below(26)];
        return out;
      }
      case CnContent::kSipAddress:
        return "sip:" + std::to_string(1000 + rng.below(9000)) + "@voip." +
               (cluster.sld.empty() ? "example.com" : cluster.sld);
      case CnContent::kEmailAddress:
        return pick(lex::given_names(), rng) + "." +
               pick(lex::family_names(), rng) + "@" +
               (cluster.sld.empty() ? "example.com" : cluster.sld);
      case CnContent::kIpAddress:
        return net::IpAddress::v4(static_cast<std::uint8_t>(rng.below(223) + 1),
                                  static_cast<std::uint8_t>(rng.below(256)),
                                  static_cast<std::uint8_t>(rng.below(256)),
                                  static_cast<std::uint8_t>(rng.below(256)))
            .to_string();
      case CnContent::kMacAddress: {
        std::string mac;
        for (int i = 0; i < 6; ++i) {
          if (i) mac += ":";
          static constexpr std::string_view kHex = "0123456789ABCDEF";
          mac += kHex[rng.below(16)];
          mac += kHex[rng.below(16)];
        }
        return mac;
      }
      case CnContent::kLocalhost:
        return rng.chance(0.5) ? "localhost" : "host" + std::to_string(rng.below(100)) + ".localdomain";
      case CnContent::kRandomHex8:
        return rng.hex(8);
      case CnContent::kRandomHex32:
        return rng.hex(32);
      case CnContent::kUuid:
        return rng.uuid();
      case CnContent::kRandomOther: {
        static constexpr std::string_view kChars =
            "abcdefghijklmnopqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ0123456789";
        std::string out;
        const std::size_t n = 10 + rng.below(14);
        for (std::size_t i = 0; i < n; ++i) out += kChars[rng.below(kChars.size())];
        return out;
      }
      case CnContent::kNonRandomToken: {
        static constexpr const char* kTokens[] = {
            "__transfer__", "Dtls", "hmpp", "default", "device", "gateway",
            "testcert", "appliance"};
        return kTokens[rng.below(std::size(kTokens))];
      }
      case CnContent::kFixed:
        return spec.fixed_cn;
    }
    return {};
  }

  CnContent sample_cn(const CnDistribution& dist, Rng& rng) {
    if (dist.empty()) return CnContent::kEmpty;
    double total = 0;
    for (const auto& [kind, w] : dist) total += w;
    double r = rng.uniform() * total;
    for (const auto& [kind, w] : dist) {
      r -= w;
      if (r < 0) return kind;
    }
    return dist.back().first;
  }

  // --- Certificate minting ---------------------------------------------------

  const trust::CertificateAuthority& issuer_for(const TrafficCluster& cluster,
                                                const CertSpec& spec,
                                                std::size_t index) {
    switch (spec.issuer_kind) {
      case IssuerKind::kPublicCa: {
        const auto& pki = trust::public_pki();
        if (!spec.issuer_ref.empty()) {
          const auto* ca = pki.find(spec.issuer_ref);
          if (ca == nullptr) {
            throw std::invalid_argument("unknown public CA label: " +
                                        spec.issuer_ref);
          }
          return ca->intermediate;
        }
        // Rotate through the general-purpose web CAs.
        static constexpr const char* kWebCas[] = {
            "lets-encrypt", "digicert", "sectigo", "godaddy", "amazon",
            "globalsign", "entrust"};
        return pki.find(kWebCas[index % std::size(kWebCas)])->intermediate;
      }
      case IssuerKind::kPrivateOrg:
        return private_ca(spec.issuer_ref, spec.issuer_cn);
      case IssuerKind::kCampus:
        return campus_ca(index);
      case IssuerKind::kMissingIssuer:
        return missing_issuer_ca(cluster.name);
      case IssuerKind::kDummy:
        return dummy_ca(spec.issuer_ref);
      case IssuerKind::kHostingSubCa:
        return hosting_subca();
      case IssuerKind::kSelfSigned:
        // handled by mint(): not reached.
        return private_ca("self");
    }
    return private_ca("unreachable");
  }

  /// Plans one certificate: makes its random draws, resolves (and lazily
  /// creates) its issuer, and logs it to CT. Returns its slot id.
  CertId mint(const TrafficCluster& cluster, const CertSpec& spec,
              std::size_t index, Rng& rng, UnixSeconds window_start = 0,
              UnixSeconds window_end = 0, bool server_role = true,
              const std::string* cn_override = nullptr) {
    CertSlot slot;
    x509::CertificateBuilder& builder = slot.builder;
    builder.version(spec.version);

    // Serial.
    const std::string unique_label =
        cluster.name + "/" + std::to_string(index) + "/" + rng.hex(8);
    if (spec.serial.fixed_hex.empty()) {
      builder.serial_from_label(unique_label);
    } else {
      builder.serial_hex(spec.serial.fixed_hex);
    }

    // Validity.
    UnixSeconds nb, na;
    if (spec.validity.fixed_dates) {
      nb = spec.validity.not_before;
      na = spec.validity.not_after;
    } else if (window_end > window_start) {
      nb = window_start;
      na = window_end;
    } else if (spec.validity.expired_days_before_study > 0) {
      const double gap =
          spec.validity.expired_days_before_study * (0.75 + rng.uniform() * 0.5);
      na = model_.study_start - static_cast<UnixSeconds>(gap * kDaySeconds);
      nb = na - static_cast<UnixSeconds>(spec.validity.typical_days *
                                         kDaySeconds);
    } else {
      const double days =
          spec.validity.typical_days * (0.5 + rng.uniform());
      nb = model_.study_start -
           static_cast<UnixSeconds>(rng.uniform() * 0.4 * days * kDaySeconds);
      na = nb + static_cast<UnixSeconds>(days * kDaySeconds);
    }
    builder.validity(nb, na);
    slot.validity = {nb, na};

    // Subject.
    const CnContent cn_kind = sample_cn(spec.cn, rng);
    const std::string cn = cn_override != nullptr
                               ? *cn_override
                               : make_cn(cn_kind, cluster, spec, rng);
    x509::DistinguishedName subject;
    if (!cn.empty()) subject.add_cn(cn);
    builder.subject(subject);

    // SANs.
    if (rng.chance(spec.san_dns_probability)) {
      const auto& dist = spec.san_cn.empty() ? spec.cn : spec.san_cn;
      builder.add_san_dns(make_cn(sample_cn(dist, rng), cluster, spec, rng));
    }
    if (rng.chance(spec.san_email_probability)) {
      builder.add_san_email(
          make_cn(CnContent::kEmailAddress, cluster, spec, rng));
    }
    if (rng.chance(spec.san_ip_probability)) {
      builder.add_san_ip(*net::IpAddress::parse(
          make_cn(CnContent::kIpAddress, cluster, spec, rng)));
    }
    if (rng.chance(spec.san_uri_probability)) {
      builder.add_san_uri("https://" +
                          (cluster.sld.empty() ? "example.com" : cluster.sld) +
                          "/" + rng.alnum(6));
    }

    // Key: derived when the certificate is materialized.
    slot.key_label = "key:" + unique_label;
    slot.key_bits = static_cast<std::size_t>(spec.key_bits);
    if (spec.key_bits == 1024) {
      builder.spki_algorithm(asn1::oids::alg_rsa_encryption());
    }

    ++stats_.certificates_minted;
    if (spec.issuer_kind == IssuerKind::kSelfSigned) {
      x509::DistinguishedName self_dn = subject;
      if (self_dn.empty()) self_dn.add_cn("self-" + rng.hex(6));
      builder.subject(self_dn);
      return add_cert(std::move(slot));
    }
    const auto& ca = issuer_for(cluster, spec, index);
    slot.issuer = &ca;

    // Legitimate public *server* issuances are visible in CT (crt.sh in
    // the paper). Client certificates are not domain-bound, so logging
    // them would poison the interception filter.
    if (server_role && !cluster.sld.empty() &&
        (spec.issuer_kind == IssuerKind::kPublicCa ||
         spec.issuer_kind == IssuerKind::kHostingSubCa)) {
      ct_.log_certificate(cluster.sld, ca.dn());
    }
    return add_cert(std::move(slot));
  }

  CertId add_cert(CertSlot slot) {
    certs_.push_back(std::move(slot));
    return static_cast<CertId>(certs_.size() - 1);
  }

  /// The slot of CA `ca`'s certificate (issued by `parent`) sent as an
  /// intermediate: one per unit.
  CertId prebuilt_cert(const trust::CertificateAuthority& ca,
                       const trust::CertificateAuthority& parent) {
    const x509::Certificate& cert = ca.certificate();
    const auto it = prebuilt_ids_.find(&cert);
    if (it != prebuilt_ids_.end()) return it->second;
    CertSlot slot;
    slot.prebuilt = &cert;
    slot.issuer = &parent;
    const CertId id = add_cert(std::move(slot));
    prebuilt_ids_.emplace(&cert, id);
    return id;
  }

  // --- Address pools -----------------------------------------------------------

  std::vector<net::IpAddress> make_client_pool(const TrafficCluster& cluster,
                                               Rng& rng) {
    std::vector<net::IpAddress> pool;
    const std::size_t n = std::max<std::size_t>(1, cluster.client_ips);
    std::size_t subnets = cluster.client_subnets;
    if (subnets == 0) subnets = std::max<std::size_t>(1, n / 12);
    pool.reserve(n);
    std::vector<std::uint32_t> subnet_bases;
    for (std::size_t s = 0; s < subnets; ++s) {
      std::uint32_t base;
      if (cluster.direction == Direction::kOutbound) {
        // Internal (NATed) clients: 10.0.0.0/8 and 128.143.0.0/16.
        base = rng.chance(0.7)
                   ? (kNatNet | (static_cast<std::uint32_t>(rng.below(65536)) << 8))
                   : (kCampusNet | (static_cast<std::uint32_t>(rng.below(256)) << 8));
      } else {
        // External clients anywhere in unicast space.
        base = ((static_cast<std::uint32_t>(rng.below(223) + 1) << 24) |
                (static_cast<std::uint32_t>(rng.below(65536)) << 8));
      }
      subnet_bases.push_back(base & 0xffffff00u);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t base = subnet_bases[i % subnet_bases.size()];
      pool.push_back(net::IpAddress::v4(
          base | static_cast<std::uint32_t>(1 + rng.below(254))));
    }
    return pool;
  }

  net::IpAddress make_server_ip(const TrafficCluster& cluster, Rng& rng) {
    if (cluster.direction == Direction::kInbound) {
      // University-hosted server.
      return net::IpAddress::v4(
          kCampusNet | static_cast<std::uint32_t>(rng.below(65536)));
    }
    // Anywhere in unicast space, campus ranges included: a draw that
    // lands on campus is an inbound server to the monitor (and to the
    // truth sidecar).
    return net::IpAddress::v4(
        (static_cast<std::uint32_t>(rng.below(223) + 1) << 24) |
        static_cast<std::uint32_t>(rng.below(1u << 24)));
  }

  std::vector<net::IpAddress> make_server_pool(const TrafficCluster& cluster,
                                               Rng& rng) {
    const std::size_t n = std::max<std::size_t>(1, cluster.server_ips);
    const std::size_t subnets =
        std::max<std::size_t>(1, cluster.server_subnets);
    std::vector<std::uint32_t> bases;
    bases.reserve(subnets);
    for (std::size_t s = 0; s < subnets; ++s) {
      const auto ip = make_server_ip(cluster, rng);
      bases.push_back(ip.v4_value() & 0xffffff00u);
    }
    std::vector<net::IpAddress> pool;
    pool.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pool.push_back(net::IpAddress::v4(
          bases[i % bases.size()] |
          static_cast<std::uint32_t>(1 + rng.below(254))));
    }
    return pool;
  }

  // --- Time shaping ---------------------------------------------------------------

  std::vector<double> month_weights(MonthlyProfile profile,
                                    int first_month, int month_count) {
    std::vector<double> w(static_cast<std::size_t>(month_count), 1.0);
    const int oct23 = 2023 * 12 + 9;  // month_index of 2023-10
    for (int m = 0; m < month_count; ++m) {
      const int idx = first_month + m;
      const double progress =
          month_count <= 1 ? 0.0
                           : static_cast<double>(m) /
                                 static_cast<double>(month_count - 1);
      switch (profile) {
        case MonthlyProfile::kFlat:
          break;
        case MonthlyProfile::kGrowing:
          w[static_cast<std::size_t>(m)] = 1.0 + 2.4 * progress;
          break;
        case MonthlyProfile::kHealthSurge:
          w[static_cast<std::size_t>(m)] =
              (1.0 + 1.0 * progress) * (idx >= oct23 ? 2.0 : 1.0);
          break;
        case MonthlyProfile::kVanishesOct23:
          w[static_cast<std::size_t>(m)] = idx >= oct23 ? 0.0 : 1.0;
          break;
      }
    }
    return w;
  }

  UnixSeconds sample_timestamp(const TrafficCluster& cluster, Rng& rng,
                               const std::vector<double>& weights,
                               int first_month) {
    UnixSeconds window_end = model_.study_end;
    if (cluster.activity_days > 0) {
      window_end = std::min(
          window_end,
          model_.study_start +
              static_cast<UnixSeconds>(cluster.activity_days * kDaySeconds));
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t m = rng.weighted(weights);
      const int month_idx = first_month + static_cast<int>(m);
      const util::CivilTime start{month_idx / 12, month_idx % 12 + 1, 1, 0, 0, 0};
      const UnixSeconds month_start = util::to_unix(start);
      const UnixSeconds month_seconds =
          static_cast<UnixSeconds>(
              util::days_in_month(start.year, start.month)) *
          util::kSecondsPerDay;
      const UnixSeconds ts =
          month_start + static_cast<UnixSeconds>(rng.below(
                            static_cast<std::uint64_t>(month_seconds)));
      if (ts >= model_.study_start && ts < window_end) return ts;
    }
    return model_.study_start;
  }

  // --- Cluster planning -----------------------------------------------------

  /// Plans one connection: its random draws, uid, and handshake outcome.
  /// Chains the outcome hides are not recorded.
  void plan_connection(const TrafficCluster& cluster, UnixSeconds ts,
                       const net::IpAddress& client_ip, std::uint16_t port,
                       const net::IpAddress& server_ip, CertId server_cert,
                       CertId client_cert, bool tls13, Rng& rng,
                       CertId server_intermediate = kNoCert) {
    ConnPlan plan;
    tls::TlsConnection& conn = plan.conn;
    conn.client = {client_ip,
                   static_cast<std::uint16_t>(32768 + rng.below(28000))};
    conn.server = {server_ip, port};
    if (!cluster.sni_override.empty()) {
      conn.sni = cluster.sni_override;
    } else if (!cluster.sni_absent && !cluster.sld.empty()) {
      conn.sni = cluster.sld;
    }
    conn.uid = "C" + std::to_string(++uid_counter_) + rng.alnum(6);
    conn.timestamp = ts;

    tls::HandshakeTerms terms;
    terms.client_max = terms.server_max =
        tls13 ? tls::TlsVersion::kTls13 : tls::TlsVersion::kTls12;
    terms.request_client_certificate = client_cert != kNoCert;
    terms.validate_client_certificate = cluster.server_validates_clients;
    if (client_cert != kNoCert) {
      terms.client_leaf = certs_[client_cert].validity;
    }
    terms.validation_time = ts;
    const tls::HandshakeOutcome outcome = tls::handshake_outcome(terms);
    conn.version = outcome.version;
    conn.established = outcome.established;
    // Real servers send their intermediate; the paper's classification
    // accepts chain-level trust-store membership (§3.2.1).
    if (outcome.server_chain_visible && server_cert != kNoCert) {
      plan.server_chain = {server_cert, server_intermediate};
    }
    if (outcome.client_chain_visible) plan.client_leaf = client_cert;

    ++stats_.connections;
    if (plan.server_chain[0] != kNoCert && plan.client_leaf != kNoCert) {
      ++stats_.mutual_connections;
    }
    if (truth_ != nullptr) record_truth(plan);
    // First sight of a certificate in a visible chain queues its x509
    // row, in plan order (Dataset::add_connection's first-wins rule).
    for (const CertId id :
         {plan.server_chain[0], plan.server_chain[1], plan.client_leaf}) {
      if (id != kNoCert && !certs_[id].seen) {
        certs_[id].seen = true;
        new_rows_.push_back(id);
      }
    }
    conns_.push_back(std::move(plan));
    if (conns_.size() == kConnBatch) materialize();
  }

  void record_truth(const ConnPlan& plan) {
    const auto public_issuer = [this](CertId id) {
      return id != kNoCert && is_public_ca(certs_[id].issuer);
    };
    ConnTruth& t = truth_->emplace_back();
    t.uid = plan.conn.uid;
    t.unit = unit_;
    t.direction = on_campus(plan.conn.server.addr) ? Direction::kInbound
                                                   : Direction::kOutbound;
    t.established = plan.conn.established;
    t.tls13 = plan.conn.version == tls::TlsVersion::kTls13;
    t.mutual = plan.server_chain[0] != kNoCert && plan.client_leaf != kNoCert;
    t.server_leaf_public = public_issuer(plan.server_chain[0]);
    t.server_intermediate_public = public_issuer(plan.server_chain[1]);
    t.client_leaf_public = public_issuer(plan.client_leaf);
    if (unit_ == ConnTruth::Unit::kInterception &&
        plan.server_chain[0] != kNoCert) {
      t.proxy_issuer = certs_[plan.server_chain[0]].issuer->dn().to_string();
    }
  }

  std::uint16_t sample_port(const TrafficCluster& cluster, Rng& rng) {
    double total = 0;
    for (const auto& [port, w] : cluster.ports) total += w;
    double r = rng.uniform() * total;
    for (const auto& [port, w] : cluster.ports) {
      r -= w;
      if (r < 0) return port;
    }
    return cluster.ports.empty() ? 443 : cluster.ports.back().first;
  }

  // A certificate population plus its time-slotting. Short-lived
  // certificates (Globus's 14-day cycle, ephemeral WebRTC/DTLS certs) are
  // minted per time slot so every connection presents a certificate that
  // is actually valid at the connection's timestamp.
  struct Population {
    CertId first = 0;  // slot ids [first, first + count)
    std::size_t count = 0;
    double slot_days = 0;  // 0 => certificates span the whole study
    std::size_t slots = 1;

    bool contains(CertId id) const {
      return id != kNoCert && id >= first && id - first < count;
    }
  };

  double cluster_window_days(const TrafficCluster& cluster) const {
    return cluster.activity_days > 0
               ? cluster.activity_days
               : static_cast<double>(model_.study_end - model_.study_start) /
                     kDaySeconds;
  }

  // --- Sizing ---------------------------------------------------------------
  //
  // The planner's loops and planned_connections() both size units here,
  // so the up-front row reservation cannot drift from the plan.

  /// Server certificates a cluster asks for, before rotation slots.
  static std::size_t server_cert_count(const TrafficCluster& cluster) {
    if (cluster.tunnel_client_only) return 0;
    return std::max<std::size_t>(
        cluster.mutual || cluster.server_certs.count > 0 ? 1 : 0,
        cluster.server_certs.count);
  }

  /// Client certificates a cluster asks for; 0: it mints none.
  static std::size_t client_cert_count(const TrafficCluster& cluster) {
    if (!cluster.mutual || cluster.sharing == SharingMode::kSameCertBothEnds) {
      return 0;
    }
    return std::max<std::size_t>(1, cluster.client_certs.count);
  }

  /// Connection volume: at least one connection per certificate so the
  /// population is fully observable in the logs.
  static std::size_t cluster_connections(const TrafficCluster& cluster,
                                         std::size_t servers,
                                         std::size_t clients) {
    return std::max({cluster.connections, servers, clients});
  }

  /// Unique interception certificates: proxy × domain × client batch.
  std::size_t interception_certificates() const {
    const auto& spec = model_.interception;
    return std::max(spec.certificates, spec.proxy_issuers * spec.domains);
  }

  /// Interception connections; 0: the unit is skipped.
  std::size_t interception_connections() const {
    const auto& spec = model_.interception;
    if (spec.connections == 0 && spec.certificates == 0) return 0;
    return std::max(spec.connections, interception_certificates());
  }

  /// The slot layout and final size (`first` unset) of a population
  /// asked to hold `count` certificates.
  Population population_shape(const TrafficCluster& cluster,
                              const CertSpec& spec, std::size_t count) const {
    Population population;
    population.count = count;
    const double window_days = cluster_window_days(cluster);
    double slot_days = cluster.reissue_days;
    if (slot_days == 0 && !spec.validity.fixed_dates &&
        spec.validity.expired_days_before_study == 0 &&
        spec.validity.typical_days * 1.3 < window_days) {
      // Short-lived certificates must rotate or late connections would
      // present long-expired leaves, polluting the §5.3.3 analysis.
      slot_days = spec.validity.typical_days;
    }
    if (slot_days > 0) {
      population.slot_days = slot_days;
      population.slots = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(window_days / slot_days)));
      // Every slot needs at least one certificate, or late connections
      // would present a leaf that expired in an earlier slot.
      population.count = std::max(count, population.slots);
    }
    return population;
  }

  Population mint_population(const TrafficCluster& cluster,
                             const CertSpec& spec, std::size_t count,
                             bool server_role, Rng& rng) {
    Population population = population_shape(cluster, spec, count);
    const double slot_days = population.slot_days;
    // Rotating populations model re-issuance: the *identity* (subject CN)
    // persists across slots, as a real device keeps its name through
    // certificate renewals. Identity k owns certificates i with
    // i / slots == k (slot-major layout).
    std::vector<std::string> identities;
    if (population.slots > 1) {
      const std::size_t n =
          (population.count + population.slots - 1) / population.slots;
      identities.reserve(n);
      for (std::size_t k = 0; k < n; ++k) {
        identities.push_back(
            make_cn(sample_cn(spec.cn, rng), cluster, spec, rng));
      }
    }
    population.first = static_cast<CertId>(certs_.size());
    for (std::size_t i = 0; i < population.count; ++i) {
      if (slot_days > 0) {
        const std::size_t slot = i % population.slots;
        const UnixSeconds ws =
            model_.study_start +
            static_cast<UnixSeconds>(slot * slot_days * kDaySeconds);
        const UnixSeconds we =
            ws + static_cast<UnixSeconds>(slot_days * kDaySeconds);
        const std::string* cn = identities.empty()
                                    ? nullptr
                                    : &identities[i / population.slots];
        mint(cluster, spec, i, rng, ws, we, server_role, cn);
      } else {
        mint(cluster, spec, i, rng, 0, 0, server_role);
      }
    }
    return population;
  }

  /// Picks the certificate presented at time `ts`: slot-matched for
  /// rotating populations, round-robin otherwise.
  CertId pick_cert(const Population& population, UnixSeconds ts,
                   std::size_t c, Rng& rng) const {
    if (population.count == 0) return kNoCert;
    if (population.slot_days == 0) {
      return population.first +
             static_cast<CertId>(c % population.count);
    }
    const std::size_t slot = std::min<std::size_t>(
        population.slots - 1,
        static_cast<std::size_t>(
            static_cast<double>(ts - model_.study_start) /
            (population.slot_days * kDaySeconds)));
    // Certificates are laid out slot-major (i % slots == slot).
    std::size_t idx = slot;
    if (population.count > population.slots) {
      const std::size_t per_slot = population.count / population.slots;
      idx = slot + population.slots * rng.below(per_slot);
    }
    return population.first +
           static_cast<CertId>(std::min(idx, population.count - 1));
  }

  /// The intermediate a public-CA server certificate chains through, or
  /// kNoCert (private CAs typically send leaf-only chains in the data).
  CertId server_intermediate_for(const CertSpec& spec, std::size_t index) {
    const auto& pki = trust::public_pki();
    if (spec.issuer_kind == IssuerKind::kHostingSubCa) {
      return prebuilt_cert(hosting_subca(), hosting_parent());
    }
    if (spec.issuer_kind != IssuerKind::kPublicCa) return kNoCert;
    if (!spec.issuer_ref.empty()) {
      const auto* ca = pki.find(spec.issuer_ref);
      return ca == nullptr ? kNoCert : prebuilt_cert(ca->intermediate, ca->root);
    }
    static constexpr const char* kWebCas[] = {
        "lets-encrypt", "digicert", "sectigo", "godaddy", "amazon",
        "globalsign", "entrust"};
    const auto* ca = pki.find(kWebCas[index % std::size(kWebCas)]);
    return prebuilt_cert(ca->intermediate, ca->root);
  }

  void plan_cluster(const TrafficCluster& cluster) {
    Rng rng = rng_.fork(label_hash(cluster.name));

    const int first_month = util::month_index(model_.study_start);
    const int month_count =
        util::month_index(model_.study_end - 1) - first_month + 1;
    const auto weights = month_weights(cluster.profile, first_month,
                                       month_count);

    // Mint certificate populations.
    const Population servers =
        mint_population(cluster, cluster.server_certs,
                        server_cert_count(cluster), /*server_role=*/true, rng);
    Population clients;
    if (const std::size_t n = client_cert_count(cluster); n > 0) {
      clients = mint_population(cluster, cluster.client_certs, n,
                                /*server_role=*/false, rng);
    }
    const auto client_pool = make_client_pool(cluster, rng);
    const auto server_pool = make_server_pool(cluster, rng);

    const std::size_t min_conns = std::max(servers.count, clients.count);
    const std::size_t total_conns =
        cluster_connections(cluster, servers.count, clients.count);

    for (std::size_t c = 0; c < total_conns; ++c) {
      UnixSeconds ts;
      if (c == 0) {
        ts = model_.study_start + 3600;  // pin activity start
      } else if (c == 1 && cluster.activity_days > 0) {
        ts = model_.study_start +
             static_cast<UnixSeconds>(cluster.activity_days * kDaySeconds) -
             3600;  // pin activity end
      } else if (c == 1) {
        ts = model_.study_end - 3600;
      } else {
        ts = sample_timestamp(cluster, rng, weights, first_month);
      }

      CertId server_cert = pick_cert(servers, ts, c, rng);

      CertId client_cert = kNoCert;
      if (cluster.mutual) {
        if (cluster.sharing == SharingMode::kSameCertBothEnds) {
          client_cert = server_cert;
        } else {
          client_cert = pick_cert(clients, ts, c, rng);
        }
      }

      // Cross-connection sharing: the same certificate population appears
      // on alternating sides of different connections.
      if (cluster.sharing == SharingMode::kCrossConnection &&
          servers.count != 0 && clients.count != 0) {
        // Alternate each certificate between the server role (even
        // connections) and the client role (odd connections). The pair
        // index c/2 decouples cert selection from connection parity so
        // every certificate sees both roles.
        const CertId si =
            servers.first + static_cast<CertId>((c / 2) % servers.count);
        const CertId ci =
            clients.first + static_cast<CertId>((c / 2) % clients.count);
        if (c % 2 == 0) {
          server_cert = si;
          client_cert = ci;
        } else {
          client_cert = si;
          server_cert = ci;
        }
      }

      // TLS 1.3 hides certificates; the first pass over the population
      // (one connection per certificate) must stay visible or scaled-down
      // runs would silently lose unique certificates.
      const bool tls13 =
          c >= min_conns && rng.chance(cluster.tls13_fraction);
      // Cross-sharing clusters need clients spread over the whole subnet
      // pool (Table 6); round-robin would alias with the role parity.
      const auto& client_ip =
          cluster.sharing == SharingMode::kCrossConnection
              ? client_pool[rng.below(client_pool.size())]
              : client_pool[c % client_pool.size()];
      // Version-skewed server selection (§3.3): TLS 1.3 endpoints are a
      // distinct, smaller sub-population, not a uniform slice.
      std::size_t server_idx;
      if (cluster.tls13_fraction > 0 && server_pool.size() >= 4) {
        const std::size_t t13 = server_pool.size() / 4;
        server_idx = tls13 ? rng.below(t13)
                           : t13 * 9 / 10 +
                                 rng.below(server_pool.size() - t13 * 9 / 10);
      } else {
        server_idx = rng.below(server_pool.size());
      }
      const auto& server_ip = server_pool[server_idx];
      const CertId intermediate =
          servers.contains(server_cert)
              ? server_intermediate_for(cluster.server_certs,
                                        server_cert - servers.first)
              : kNoCert;
      plan_connection(cluster, ts, client_ip, sample_port(cluster, rng),
                      server_ip,
                      cluster.tunnel_client_only ? kNoCert : server_cert,
                      client_cert, tls13, rng, intermediate);
    }
  }

  // --- Interception ---------------------------------------------------------------

  void plan_interception() {
    const auto& spec = model_.interception;
    const std::size_t conns = interception_connections();
    if (conns == 0) return;
    Rng rng = rng_.fork(0x1ce);

    // Popular public domains with legitimate CT records.
    std::vector<std::string> domains;
    const auto& pki = trust::public_pki();
    for (std::size_t d = 0; d < spec.domains; ++d) {
      const std::string domain = "cdn-site" + std::to_string(d) + ".com";
      const auto& ca = pki.cas()[d % pki.cas().size()].intermediate;
      ct_.log_certificate(domain, ca.dn());
      domains.push_back(domain);
    }

    // Proxy CAs re-sign those domains.
    std::vector<const trust::CertificateAuthority*> proxies;
    static constexpr const char* kProxyNames[] = {
        "BlueShield ProxySG CA",     "ZTrust Inspection Root",
        "Campus AV Gateway CA",      "NetFilter SSL Inspector",
        "SecureWeb MITM Root",       "EndpointGuard TLS Proxy",
        "CorpNet Inspection CA",     "PacketShield Interceptor"};
    for (std::size_t p = 0; p < spec.proxy_issuers; ++p) {
      proxies.push_back(
          &private_ca(kProxyNames[p % std::size(kProxyNames)] +
                      (p >= std::size(kProxyNames)
                           ? " " + std::to_string(p)
                           : "")));
    }

    const std::size_t cert_count = interception_certificates();
    const CertId first_cert = static_cast<CertId>(certs_.size());
    std::vector<std::size_t> cert_domain;
    for (std::size_t i = 0; i < cert_count; ++i) {
      const std::size_t d = i % domains.size();
      CertSlot slot;
      slot.validity = {model_.study_start - 86400 * 30,
                       model_.study_end + 86400 * 365};
      slot.builder.serial_from_label("icept:" + std::to_string(i))
          .subject(x509::DistinguishedName().add_cn(domains[d]))
          .validity(slot.validity.not_before, slot.validity.not_after)
          .add_san_dns(domains[d]);
      slot.key_label = "ik" + std::to_string(i);
      slot.issuer = proxies[i % proxies.size()];
      add_cert(std::move(slot));
      cert_domain.push_back(d);
      ++stats_.certificates_minted;
    }

    const int first_month = util::month_index(model_.study_start);
    const int month_count =
        util::month_index(model_.study_end - 1) - first_month + 1;
    const auto weights =
        month_weights(MonthlyProfile::kFlat, first_month, month_count);
    TrafficCluster shape;
    shape.name = "interception";
    shape.direction = Direction::kOutbound;
    shape.client_ips = std::max<std::size_t>(20, conns / 300);
    const auto client_pool = make_client_pool(shape, rng);
    for (std::size_t c = 0; c < conns; ++c) {
      const std::size_t i = c % cert_count;
      shape.sld = domains[cert_domain[i]];
      const auto ts = sample_timestamp(shape, rng, weights, first_month);
      plan_connection(shape, ts, client_pool[c % client_pool.size()], 443,
                      make_server_ip(shape, rng),
                      first_cert + static_cast<CertId>(i), kNoCert, false,
                      rng);
    }
  }

  // --- Background (certificate-less volume) -----------------------------------------

  void plan_background() {
    if (model_.background_connections == 0) return;
    Rng rng = rng_.fork(0xb6);

    // A small pool of ordinary public-CA server certs for the visible
    // (pre-1.3) share of background traffic.
    TrafficCluster shape;
    shape.name = "background";
    shape.direction = Direction::kOutbound;
    shape.sld = "popular-site.com";
    CertSpec spec;
    spec.count = 24;
    spec.issuer_kind = IssuerKind::kPublicCa;
    spec.cn = {{CnContent::kHostUnderDomain, 1.0}};
    spec.san_dns_probability = 1.0;
    const CertId first_cert = static_cast<CertId>(certs_.size());
    for (std::size_t i = 0; i < spec.count; ++i) {
      // Background certs must cover the whole study window: connections
      // are sampled across all 23 months.
      mint(shape, spec, i, rng, model_.study_start - 30 * 86'400,
           model_.study_end + 30 * 86'400);
    }

    const int first_month = util::month_index(model_.study_start);
    const int month_count =
        util::month_index(model_.study_end - 1) - first_month + 1;
    const auto weights =
        month_weights(MonthlyProfile::kFlat, first_month, month_count);
    // Background browsing spans many clients and many destination
    // servers; pool sizes scale with the volume so IP-level statistics
    // (§3.3) stay meaningful.
    shape.client_ips = std::max<std::size_t>(
        60, model_.background_connections / 150);
    shape.client_subnets = std::max<std::size_t>(8, shape.client_ips / 10);
    const auto client_pool = make_client_pool(shape, rng);
    std::vector<net::IpAddress> bg_servers;
    bg_servers.reserve(
        std::max<std::size_t>(40, model_.background_connections / 400));
    for (std::size_t i = 0;
         i < std::max<std::size_t>(40, model_.background_connections / 400);
         ++i) {
      bg_servers.push_back(make_server_ip(shape, rng));
    }

    // Endpoint populations are version-skewed, not uniform: §3.3 reports
    // TLS 1.3 on 40.86% of connections but only 25.35% / 32.23% of server
    // / client IPs. Model that by giving 1.3 its own endpoint ranges with
    // a small overlap.
    const std::size_t tls13_clients = client_pool.size() * 32 / 100;
    const std::size_t tls13_servers = bg_servers.size() * 25 / 100;

    for (std::size_t c = 0; c < model_.background_connections; ++c) {
      // Selects the port mix only: every background server was drawn by
      // the outbound rule of make_server_ip.
      const bool inbound = rng.chance(0.35);
      const bool tls13 =
          rng.chance(model_.background_mutualess_tls13_fraction);
      const auto ts = sample_timestamp(shape, rng, weights, first_month);
      // Port mix follows the paper's non-mutual Table-2 columns.
      std::uint16_t port = 443;
      const double r = rng.uniform();
      if (inbound) {
        if (r > 0.8518 && r <= 0.8753) port = 25;
        else if (r > 0.8753 && r <= 0.8979) port = 33854;
        else if (r > 0.8979 && r <= 0.9201) port = 8443;
        else if (r > 0.9201 && r <= 0.9399) port = 52730;
        else if (r > 0.9399) port = static_cast<std::uint16_t>(1024 + rng.below(60000));
      } else {
        if (r > 0.9915 && r <= 0.9959) port = 993;
        else if (r > 0.9959 && r <= 0.9964) port = 8883;
        else if (r > 0.9964 && r <= 0.9968) port = 25;
        else if (r > 0.9968 && r <= 0.9971) port = 3128;
        else if (r > 0.9971) port = static_cast<std::uint16_t>(1024 + rng.below(60000));
      }
      const auto& bg_client =
          tls13 ? client_pool[rng.below(std::max<std::size_t>(
                      1, tls13_clients))]
                : client_pool[tls13_clients * 9 / 10 +
                              c % (client_pool.size() -
                                   tls13_clients * 9 / 10)];
      const auto& bg_server =
          tls13 ? bg_servers[rng.below(std::max<std::size_t>(
                      1, tls13_servers))]
                : bg_servers[tls13_servers * 9 / 10 +
                             rng.below(bg_servers.size() -
                                       tls13_servers * 9 / 10)];
      plan_connection(
          shape, ts, bg_client, port, bg_server,
          tls13 ? kNoCert : first_cert + static_cast<CertId>(c % spec.count),
          kNoCert, tls13, rng);
    }
  }

  // --- Materialize stage ----------------------------------------------------
  //
  // Pure with respect to the plan: it reads the planned slots and
  // connections and writes only their materialized fields and its
  // output, so the result cannot depend on the thread count.

  /// Builds any planned certificates, then renders the planned
  /// connections (and the x509 rows they first show) into the output.
  void materialize() {
    const std::size_t pending = certs_.size() - certs_built_;
    util::parallel_ranges(
        pending, workers_for(pending, kCertsPerWorker, threads_),
        [this](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            certs_[certs_built_ + i].materialize();
          }
        });
    certs_built_ = certs_.size();
    if (dataset_ != nullptr) {
      fill_dataset();
    } else {
      emit_connections();
    }
    conns_.clear();
    new_rows_.clear();
  }

  void fill_dataset() {
    const std::span<zeek::SslRecord> rows =
        dataset_->append_ssl_slots(conns_.size());
    util::parallel_ranges(
        conns_.size(), workers_for(conns_.size(), kConnsPerWorker, threads_),
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const ConnPlan& plan = conns_[i];
            zeek::SslRecord& row = rows[i];
            row = zeek::ssl_row(plan.conn);
            for (const CertId id : plan.server_chain) {
              if (id != kNoCert) {
                row.cert_chain_fuids.push_back(certs_[id].fuid);
              }
            }
            if (plan.client_leaf != kNoCert) {
              row.client_cert_chain_fuids.push_back(
                  certs_[plan.client_leaf].fuid);
            }
          }
        });
    std::vector<zeek::X509Record> x509(new_rows_.size());
    util::parallel_ranges(
        x509.size(), workers_for(x509.size(), kCertsPerWorker, threads_),
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const CertSlot& slot = certs_[new_rows_[i]];
            x509[i] = zeek::to_x509_record(slot.cert(), slot.fuid);
          }
        });
    for (auto& record : x509) dataset_->add_x509(std::move(record));
  }

  void emit_connections() {
    for (ConnPlan& plan : conns_) {
      tls::TlsConnection conn = std::move(plan.conn);
      for (const CertId id : plan.server_chain) {
        if (id != kNoCert) conn.server_chain.push_back(certs_[id].cert());
      }
      if (plan.client_leaf != kNoCert) {
        conn.client_chain.push_back(certs_[plan.client_leaf].cert());
      }
      (*sink_)(conn);
    }
  }

  /// Materializes what is left of the unit and drops its certificates:
  /// no later unit refers to them.
  void end_unit() {
    materialize();
    certs_.clear();
    certs_built_ = 0;
    prebuilt_ids_.clear();
  }

  CampusModel model_;
  ctlog::CtDatabase& ct_;
  Stats& stats_;
  Rng rng_;
  std::map<std::string, trust::CertificateAuthority> private_cas_;
  std::unique_ptr<trust::CertificateAuthority> hosting_subca_;
  std::uint64_t uid_counter_ = 0;

  // Output of the materialize stage: exactly one of sink_ / dataset_.
  const Sink* sink_ = nullptr;
  zeek::Dataset* dataset_ = nullptr;
  // Truth sidecar (optional) and the unit being planned.
  std::vector<ConnTruth>* truth_ = nullptr;
  ConnTruth::Unit unit_ = ConnTruth::Unit::kCluster;
  std::size_t threads_ = 1;

  // Plan buffers of the current unit (a cluster, interception, or
  // background).
  std::deque<CertSlot> certs_;  // grows without moving slots
  std::size_t certs_built_ = 0;  // certs_[0, certs_built_) materialized
  std::map<const x509::Certificate*, CertId> prebuilt_ids_;
  std::vector<ConnPlan> conns_;   // planned, not yet materialized
  std::vector<CertId> new_rows_;  // first visible sightings in conns_
};

TraceGenerator::TraceGenerator(CampusModel model)
    : impl_(std::make_unique<Impl>(std::move(model), ct_, stats_)) {}

TraceGenerator::~TraceGenerator() = default;

void TraceGenerator::generate(const Sink& sink) {
  impl_->generate(&sink, nullptr, 1, nullptr);
}

zeek::Dataset TraceGenerator::generate_dataset(std::size_t threads,
                                               std::vector<ConnTruth>* truth) {
  zeek::Dataset dataset;
  impl_->generate(nullptr, &dataset, threads, truth);
  return dataset;
}

std::vector<std::string> TraceGenerator::campus_issuer_names() {
  return {campus_org()};
}

std::vector<std::string> TraceGenerator::dummy_issuer_names() {
  return {"Internet Widgits Pty Ltd", "Default Company Ltd", "Unspecified",
          "Acme Co"};
}

}  // namespace mtlscope::gen
