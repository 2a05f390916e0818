#include "mtlscope/gen/generator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

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
/// Work items per shared chunk of the materialize stage: about a
/// millisecond each, small enough to balance, large enough to amortize.
constexpr std::size_t kCertsPerChunk = 32;
constexpr std::size_t kRowsPerChunk = 2'048;

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

// --- CA registry -------------------------------------------------------------

const trust::CertificateAuthority& hosting_parent() {
  return trust::public_pki().find("digicert")->intermediate;
}

/// The private CAs every unit shares, created on first use. A CA is a
/// pure function of its DN, so which unit creates it changes no byte;
/// the lock only keeps concurrent units off each other's insert. Map
/// nodes never move, so a returned CA stays valid.
class CaRegistry {
 public:
  using Ca = trust::CertificateAuthority;

  const Ca& private_ca(const std::string& org, const std::string& cn = {}) {
    return get(org + "|" + cn, [&] {
      x509::DistinguishedName dn;
      dn.add_org(org).add_cn(cn.empty() ? org + " CA" : cn);
      return Ca::make_root(dn, util::to_unix({2015, 1, 1, 0, 0, 0}),
                           util::to_unix({2045, 1, 1, 0, 0, 0}));
    });
  }

  const Ca& campus_ca(std::size_t which) {
    static constexpr const char* kCnSuffix[] = {"User CA", "Device CA",
                                                "Health System CA"};
    const std::size_t idx = which % std::size(kCnSuffix);
    return get("campus" + std::to_string(idx), [&] {
      x509::DistinguishedName dn;
      dn.add_org(campus_org())
          .add_cn(campus_org() + " " + kCnSuffix[idx]);
      return Ca::make_root(dn, util::to_unix({2015, 1, 1, 0, 0, 0}),
                           util::to_unix({2045, 1, 1, 0, 0, 0}));
    });
  }

  /// A cluster's missing-issuer CA. Its CN comes from a stream forked off
  /// `parent`, the seed's stream, so the pre-pass creates it in fork
  /// order; units look it up with `parent` null.
  const Ca& missing_issuer_ca(const std::string& cluster_name, Rng* parent) {
    const std::string key = "missing:" + cluster_name;
    return get(key, [&] {
      if (parent == nullptr) {
        throw std::logic_error("the unit pre-pass did not create " + key);
      }
      // Issuer DN with no organization — the paper's
      // "Private - MissingIssuer" category.
      x509::DistinguishedName dn;
      Rng local(parent->fork(label_hash(key)));
      dn.add_cn("ca-" + local.hex(6));
      return Ca::make_root(dn, 0, util::to_unix({2045, 1, 1, 0, 0, 0}));
    });
  }

  const Ca& hosting_subca() {
    return get("hosting", [] {
      x509::DistinguishedName dn;
      dn.add_org("Example Hosting").add_cn("Example Hosting Issuing CA");
      return Ca::make_intermediate(hosting_parent(), dn,
                                   util::to_unix({2018, 1, 1, 0, 0, 0}),
                                   util::to_unix({2038, 1, 1, 0, 0, 0}));
    });
  }

  const Ca& dummy_ca(const std::string& org) {
    return get("dummy:" + org, [&] {
      // OpenSSL-style default DN.
      x509::DistinguishedName dn;
      dn.add_country("AU")
          .add(asn1::oids::state_or_province_name(), "Some-State")
          .add_org(org);
      return Ca::make_root(dn, 0, util::to_unix({2045, 1, 1, 0, 0, 0}));
    });
  }

 private:
  template <class Make>
  const Ca& get(const std::string& key, const Make& make) {
    const std::lock_guard lock(mutex_);
    auto it = cas_.find(key);
    if (it == cas_.end()) it = cas_.emplace(key, make()).first;
    return it->second;
  }

  std::mutex mutex_;
  // Keys: "org|cn" (private), "campusN", "missing:<cluster>", "dummy:<org>"
  // and "hosting".
  std::map<std::string, Ca> cas_;
};

// --- Sizing ------------------------------------------------------------------
//
// The planner's loops and the unit pre-pass both size units here, so a
// unit's row slice cannot drift from its plan.

/// Server certificates a cluster asks for, before rotation slots.
std::size_t server_cert_count(const TrafficCluster& cluster) {
  if (cluster.tunnel_client_only) return 0;
  return std::max<std::size_t>(
      cluster.mutual || cluster.server_certs.count > 0 ? 1 : 0,
      cluster.server_certs.count);
}

/// Client certificates a cluster asks for; 0: it mints none.
std::size_t client_cert_count(const TrafficCluster& cluster) {
  if (!cluster.mutual || cluster.sharing == SharingMode::kSameCertBothEnds) {
    return 0;
  }
  return std::max<std::size_t>(1, cluster.client_certs.count);
}

/// Connection volume: at least one connection per certificate so the
/// population is fully observable in the logs.
std::size_t cluster_connections(const TrafficCluster& cluster,
                                std::size_t servers, std::size_t clients) {
  return std::max({cluster.connections, servers, clients});
}

/// Unique interception certificates: proxy × domain × client batch.
std::size_t interception_certificates(const CampusModel& model) {
  const auto& spec = model.interception;
  return std::max(spec.certificates, spec.proxy_issuers * spec.domains);
}

/// Interception connections; 0: the unit is skipped.
std::size_t interception_connections(const CampusModel& model) {
  const auto& spec = model.interception;
  if (spec.connections == 0 && spec.certificates == 0) return 0;
  return std::max(spec.connections, interception_certificates(model));
}

double cluster_window_days(const CampusModel& model,
                           const TrafficCluster& cluster) {
  return cluster.activity_days > 0
             ? cluster.activity_days
             : static_cast<double>(model.study_end - model.study_start) /
                   kDaySeconds;
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

/// The slot layout and final size (`first` unset) of a population
/// asked to hold `count` certificates.
Population population_shape(const CampusModel& model,
                            const TrafficCluster& cluster,
                            const CertSpec& spec, std::size_t count) {
  Population population;
  population.count = count;
  const double window_days = cluster_window_days(model, cluster);
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

/// Hands free heap pages back to the system. Units free their plan
/// buffers on the worker that ran them, so without this the freed pages
/// stay resident in each worker's malloc arena.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// --- Workers -----------------------------------------------------------------

/// The workers of one generation. Each runs whole units; a worker with
/// no unit left to start helps the units still running with their
/// materialize steps, so a long unit does not finish alone, and no more
/// threads run than the caller asked for.
class Crew {
 public:
  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

  explicit Crew(std::size_t units) : units_left_(units) {}

  /// Runs fn over [0, n) in chunks of `chunk` items, on this thread and on
  /// any helping worker; returns once every chunk has run.
  void share(std::size_t n, std::size_t chunk, const RangeFn& fn) {
    Task task(fn, n, chunk);
    if (task.chunks <= 1) {
      if (n > 0) fn(0, n);
      return;
    }
    {
      const std::lock_guard lock(mutex_);
      tasks_.push_back(&task);
    }
    wake_.notify_all();
    work(task);
    std::unique_lock lock(mutex_);
    std::erase(tasks_, &task);
    wake_.wait(lock, [&task] { return task.helpers == 0; });
    if (task.error) std::rethrow_exception(task.error);
  }

  void unit_done() {
    const std::lock_guard lock(mutex_);
    if (--units_left_ == 0) wake_.notify_all();
  }

  /// Helps shared steps until every unit has finished.
  void help() {
    std::unique_lock lock(mutex_);
    for (;;) {
      // A task only ever closes outside the lock (its chunks run out);
      // it opens only when shared, under the lock, with a notify.
      Task* task = nullptr;
      wake_.wait(lock, [&] {
        const auto open = std::find_if(
            tasks_.begin(), tasks_.end(),
            [](const Task* t) { return t->next < t->chunks; });
        task = open == tasks_.end() ? nullptr : *open;
        return task != nullptr || units_left_ == 0;
      });
      if (task == nullptr) return;
      // The owner waits in share() until helpers is back to 0, so the
      // task outlives this use.
      ++task->helpers;
      lock.unlock();
      work(*task);
      lock.lock();
      if (--task->helpers == 0) wake_.notify_all();
    }
  }

 private:
  struct Task {
    Task(const RangeFn& fn, std::size_t n, std::size_t chunk)
        : fn(fn), n(n), chunk(chunk), chunks((n + chunk - 1) / chunk) {}

    const RangeFn& fn;
    std::size_t n, chunk, chunks;
    std::atomic<std::size_t> next{0};
    std::size_t helpers = 0;   // guarded by mutex_
    std::exception_ptr error;  // guarded by mutex_
  };

  void work(Task& task) {
    for (std::size_t c; (c = task.next++) < task.chunks;) {
      try {
        task.fn(c * task.chunk, std::min(task.n, (c + 1) * task.chunk));
      } catch (...) {
        const std::lock_guard lock(mutex_);
        if (!task.error) task.error = std::current_exception();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;  // a task shared or finished, units done
  std::vector<Task*> tasks_;
  std::size_t units_left_;
};

// --- Units -------------------------------------------------------------------

/// One unit of the trace (a cluster, interception, or background) as the
/// pre-pass fixes it: its own stream, and its slice of the output rows,
/// whose offset is also its uid base.
struct UnitJob {
  ConnTruth::Unit unit;
  const TrafficCluster* cluster;  // kCluster only
  Rng rng;
  std::size_t first_row;
  std::size_t rows;
};

/// What a unit hands back, merged in unit order after every unit ran.
struct UnitResult {
  TraceGenerator::Stats stats;
  ctlog::CtDatabase ct;
  std::exception_ptr error;
};

/// Where units write. With a dataset, each unit fills its own slice of
/// `rows` (and of `truth`, when requested) and inserts its x509 rows
/// under `x509_mutex`; otherwise `sink` receives every connection.
struct UnitOutputs {
  const TraceGenerator::Sink* sink = nullptr;
  zeek::Dataset* dataset = nullptr;
  std::span<zeek::SslRecord> rows;
  std::span<ConnTruth> truth;
  std::mutex x509_mutex;
};

/// Plans and materializes one unit. It shares only the model (read-only),
/// the CA registry and, under its lock, the dataset's x509 rows; all else
/// is its own, so units run concurrently without changing a byte. Idle
/// workers may run chunks of its materialize stage, which is pure.
class UnitPlanner {
 public:
  UnitPlanner(const CampusModel& model, CaRegistry& cas, Crew& crew,
              const UnitJob& job, UnitOutputs& out, UnitResult& result)
      : model_(model),
        cas_(cas),
        crew_(crew),
        job_(job),
        out_(out),
        result_(result) {
    if (out.dataset != nullptr) {
      rows_ = out.rows.subspan(job.first_row, job.rows);
      if (!out.truth.empty()) {
        truth_ = out.truth.subspan(job.first_row, job.rows);
      }
    }
  }

  void run() {
    Rng rng = job_.rng;
    switch (job_.unit) {
      case ConnTruth::Unit::kCluster:
        plan_cluster(*job_.cluster, rng);
        break;
      case ConnTruth::Unit::kInterception:
        plan_interception(rng);
        break;
      case ConnTruth::Unit::kBackground:
        plan_background(rng);
        break;
    }
    materialize();
    if (planned_ != job_.rows) {
      throw std::logic_error("a unit planned fewer connections than sized");
    }
  }

 private:
  // --- CA choice -------------------------------------------------------------

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
        return cas_.private_ca(spec.issuer_ref, spec.issuer_cn);
      case IssuerKind::kCampus:
        return cas_.campus_ca(index);
      case IssuerKind::kMissingIssuer:
        return cas_.missing_issuer_ca(cluster.name, nullptr);
      case IssuerKind::kDummy:
        return cas_.dummy_ca(spec.issuer_ref);
      case IssuerKind::kHostingSubCa:
        return cas_.hosting_subca();
      case IssuerKind::kSelfSigned:
        // handled by mint(): not reached.
        return cas_.private_ca("self");
    }
    return cas_.private_ca("unreachable");
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

    ++result_.stats.certificates_minted;
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
      result_.ct.log_certificate(cluster.sld, ca.dn());
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
    if (planned_ == job_.rows) {
      throw std::logic_error("a unit planned more connections than sized");
    }
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
    // uids number the connections of the whole trace from 1.
    conn.uid = "C" + std::to_string(job_.first_row + ++planned_) +
               rng.alnum(6);
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

    ++result_.stats.connections;
    if (plan.server_chain[0] != kNoCert && plan.client_leaf != kNoCert) {
      ++result_.stats.mutual_connections;
    }
    if (!truth_.empty()) record_truth(plan, truth_[planned_ - 1]);
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

  void record_truth(const ConnPlan& plan, ConnTruth& t) const {
    const auto public_issuer = [this](CertId id) {
      return id != kNoCert && is_public_ca(certs_[id].issuer);
    };
    t.uid = plan.conn.uid;
    t.unit = job_.unit;
    t.direction = on_campus(plan.conn.server.addr) ? Direction::kInbound
                                                   : Direction::kOutbound;
    t.established = plan.conn.established;
    t.tls13 = plan.conn.version == tls::TlsVersion::kTls13;
    t.mutual = plan.server_chain[0] != kNoCert && plan.client_leaf != kNoCert;
    t.server_leaf_public = public_issuer(plan.server_chain[0]);
    t.server_intermediate_public = public_issuer(plan.server_chain[1]);
    t.client_leaf_public = public_issuer(plan.client_leaf);
    if (job_.unit == ConnTruth::Unit::kInterception &&
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

  Population mint_population(const TrafficCluster& cluster,
                             const CertSpec& spec, std::size_t count,
                             bool server_role, Rng& rng) {
    Population population = population_shape(model_, cluster, spec, count);
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
      return prebuilt_cert(cas_.hosting_subca(), hosting_parent());
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

  void plan_cluster(const TrafficCluster& cluster, Rng& rng) {
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

  void plan_interception(Rng& rng) {
    const auto& spec = model_.interception;
    const std::size_t conns = interception_connections(model_);

    // Popular public domains with legitimate CT records.
    std::vector<std::string> domains;
    const auto& pki = trust::public_pki();
    for (std::size_t d = 0; d < spec.domains; ++d) {
      const std::string domain = "cdn-site" + std::to_string(d) + ".com";
      const auto& ca = pki.cas()[d % pki.cas().size()].intermediate;
      result_.ct.log_certificate(domain, ca.dn());
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
          &cas_.private_ca(kProxyNames[p % std::size(kProxyNames)] +
                           (p >= std::size(kProxyNames)
                                ? " " + std::to_string(p)
                                : "")));
    }

    const std::size_t cert_count = interception_certificates(model_);
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
      ++result_.stats.certificates_minted;
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

  void plan_background(Rng& rng) {
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
  // connections and writes only their materialized fields and the
  // unit's own output, so the result cannot depend on which thread runs
  // a chunk, or when.

  /// Builds the certificates the planned connections show for the first
  /// time (and renders their x509 rows), then renders the connections
  /// into the output. A certificate no visible chain shows is never
  /// built: nothing reads its bytes.
  void materialize() {
    const bool to_dataset = out_.dataset != nullptr;
    std::vector<zeek::X509Record> x509(to_dataset ? new_rows_.size() : 0);
    crew_.share(new_rows_.size(), kCertsPerChunk,
                [&](std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    CertSlot& slot = certs_[new_rows_[i]];
                    slot.materialize();
                    if (to_dataset) {
                      x509[i] = zeek::to_x509_record(slot.cert(), slot.fuid);
                      slot.built = x509::Certificate();  // rows need the fuid
                    }
                  }
                });
    if (to_dataset) {
      fill_rows();
      // Units that show the same certificate render the same row, so the
      // first-wins insert keeps the same bytes whichever unit comes first.
      const std::lock_guard lock(out_.x509_mutex);
      for (auto& record : x509) out_.dataset->add_x509(std::move(record));
    } else {
      emit_connections();
    }
    conns_.clear();
    new_rows_.clear();
  }

  void fill_rows() {
    const std::span<zeek::SslRecord> rows =
        rows_.subspan(rows_done_, conns_.size());
    rows_done_ += conns_.size();
    crew_.share(conns_.size(), kRowsPerChunk,
                [&](std::size_t begin, std::size_t end) {
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
      (*out_.sink)(conn);
    }
  }

  const CampusModel& model_;
  CaRegistry& cas_;
  Crew& crew_;
  const UnitJob& job_;
  UnitOutputs& out_;
  UnitResult& result_;
  std::span<zeek::SslRecord> rows_;  // the unit's slice (dataset output)
  std::span<ConnTruth> truth_;       // the unit's slice; empty: not recorded
  std::size_t planned_ = 0;          // connections planned so far
  std::size_t rows_done_ = 0;        // rows_[0, rows_done_) rendered

  // Plan buffers. A unit's certificates live as long as the unit: no
  // other unit refers to them.
  std::deque<CertSlot> certs_;  // grows without moving slots
  std::map<const x509::Certificate*, CertId> prebuilt_ids_;
  std::vector<ConnPlan> conns_;   // planned, not yet materialized
  std::vector<CertId> new_rows_;  // first visible sightings in conns_
};

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

  /// Lists the units, then runs each as an independent job that plans
  /// and materializes into exactly one of `sink` (in unit order, on the
  /// caller's thread) or `dataset` (largest unit first, on `threads`
  /// workers), recording each connection's labels into `truth` when it
  /// is non-null.
  void generate(const Sink* sink, zeek::Dataset* dataset,
                std::size_t threads, std::vector<ConnTruth>* truth) {
    release_free_memory();  // what an earlier trace left behind
    const std::vector<UnitJob> jobs = list_units();
    const std::size_t total =
        jobs.empty() ? 0 : jobs.back().first_row + jobs.back().rows;
    UnitOutputs out;
    out.sink = sink;
    out.dataset = dataset;
    if (dataset != nullptr) {
      // One exact reservation: the rows never move, and each unit fills
      // its own slice. `threads` threads fault its pages in first.
      dataset->ssl().reserve(total);
      out.rows = dataset->append_ssl_slots(total, threads);
      if (truth != nullptr) {
        truth->resize(truth->size() + total);
        out.truth = std::span<ConnTruth>(*truth).last(total);
      }
    }

    const std::size_t workers =
        sink != nullptr
            ? 1
            : std::max<std::size_t>(1, std::min(threads, jobs.size()));
    // One worker takes the units in order. More take the largest first:
    // the long units start at once and the short ones fill in around
    // them.
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (workers > 1) {
      std::stable_sort(order.begin(), order.end(),
                       [&jobs](std::size_t a, std::size_t b) {
                         return jobs[a].rows > jobs[b].rows;
                       });
    }
    std::vector<UnitResult> results(jobs.size());
    Crew crew(jobs.size());
    std::atomic<std::size_t> next{0};
    util::parallel_ranges(
        workers, workers, [&](std::size_t, std::size_t, std::size_t) {
          for (std::size_t i; (i = next++) < order.size(); crew.unit_done()) {
            const std::size_t u = order[i];
            try {
              UnitPlanner(model_, cas_, crew, jobs[u], out, results[u]).run();
            } catch (...) {
              results[u].error = std::current_exception();
            }
          }
          crew.help();
        });
    release_free_memory();  // the units' plan buffers

    // Unit order: the error a serial run would meet first, and CT
    // records applied as the serial planner logged them.
    for (const UnitResult& result : results) {
      if (result.error) std::rethrow_exception(result.error);
      stats_.connections += result.stats.connections;
      stats_.mutual_connections += result.stats.mutual_connections;
      stats_.certificates_minted += result.stats.certificates_minted;
      ct_.merge(result.ct);
    }
  }

 private:
  /// The pre-pass: every unit in plan order (each cluster, then
  /// interception, then background) with its stream, forked off the
  /// seed's stream in the serial planner's order, and its row slice,
  /// sized by the functions the planner's loops call.
  std::vector<UnitJob> list_units() {
    std::vector<UnitJob> jobs;
    std::size_t next_row = 0;
    const auto add = [&](ConnTruth::Unit unit, const TrafficCluster* cluster,
                         Rng rng, std::size_t rows) {
      jobs.push_back({unit, cluster, rng, next_row, rows});
      next_row += rows;
    };
    for (const auto& cluster : model_.clusters) {
      const Rng rng = rng_.fork(label_hash(cluster.name));
      const std::size_t servers =
          population_shape(model_, cluster, cluster.server_certs,
                           server_cert_count(cluster))
              .count;
      const std::size_t client_request = client_cert_count(cluster);
      const std::size_t clients =
          client_request == 0
              ? 0
              : population_shape(model_, cluster, cluster.client_certs,
                                 client_request)
                    .count;
      // The cluster's first missing-issuer mint forked its CA's stream
      // next, before the following cluster's fork.
      const auto missing = [](const CertSpec& spec, std::size_t count) {
        return count > 0 && spec.issuer_kind == IssuerKind::kMissingIssuer;
      };
      if (missing(cluster.server_certs, servers) ||
          missing(cluster.client_certs, clients)) {
        cas_.missing_issuer_ca(cluster.name, &rng_);
      }
      add(ConnTruth::Unit::kCluster, &cluster, rng,
          cluster_connections(cluster, servers, clients));
    }
    if (const std::size_t rows = interception_connections(model_); rows > 0) {
      add(ConnTruth::Unit::kInterception, nullptr, rng_.fork(0x1ce), rows);
    }
    if (model_.background_connections > 0) {
      add(ConnTruth::Unit::kBackground, nullptr, rng_.fork(0xb6),
          model_.background_connections);
    }
    return jobs;
  }

  CampusModel model_;
  ctlog::CtDatabase& ct_;
  Stats& stats_;
  Rng rng_;
  CaRegistry cas_;
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
