#include "mtlscope/watch/daemon.hpp"

#include <csignal>
#include <cstdio>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#ifdef __linux__
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>
#endif

#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/watch/checkpoint.hpp"
#include "mtlscope/watch/container_tail.hpp"
#include "mtlscope/watch/record_tail.hpp"
#include "mtlscope/watch/scheduler.hpp"

namespace mtlscope::watch {
namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_status = 0;

void on_stop(int) { g_stop = 1; }
void on_status(int) { g_status = 1; }

void install_signals() {
  struct sigaction sa{};
  sa.sa_handler = on_stop;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  struct sigaction st{};
  st.sa_handler = on_status;
  ::sigemptyset(&st.sa_mask);
  st.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &st, nullptr);
}

std::string emission_file_name(const Emission& emission) {
  char buf[64];
  switch (emission.kind) {
    case Emission::Kind::kWindow:
      std::snprintf(buf, sizeof(buf), "window-%012lld.json",
                    static_cast<long long>(emission.start_ts));
      return buf;
    case Emission::Kind::kRollup:
      std::snprintf(buf, sizeof(buf), "rollup-%012lld.json",
                    static_cast<long long>(emission.start_ts));
      return buf;
    case Emission::Kind::kCumulative:
      return "cumulative.json";
  }
  return "unknown.json";
}

/// inotify-or-poll: on Linux, watch the log directories so an append
/// wakes the loop immediately; elsewhere (or when inotify fails), plain
/// sleep until the next poll tick.
class ChangeWaiter {
 public:
  ChangeWaiter(const std::string& ssl_path, const std::string& x509_path) {
#ifdef __linux__
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ < 0) return;
    const auto add_parent = [this](const std::string& path) {
      const auto dir =
          std::filesystem::path(path).parent_path();
      const std::string watch = dir.empty() ? "." : dir.string();
      ::inotify_add_watch(fd_, watch.c_str(),
                          IN_MODIFY | IN_CREATE | IN_MOVED_TO |
                              IN_MOVED_FROM | IN_DELETE);
    };
    add_parent(ssl_path);
    add_parent(x509_path);
#else
    (void)ssl_path;
    (void)x509_path;
#endif
  }

  ~ChangeWaiter() {
#ifdef __linux__
    if (fd_ >= 0) ::close(fd_);
#endif
  }

  void wait(int timeout_ms) {
#ifdef __linux__
    if (fd_ >= 0) {
      struct pollfd pfd{fd_, POLLIN, 0};
      const int n = ::poll(&pfd, 1, timeout_ms);
      if (n > 0 && (pfd.revents & POLLIN) != 0) {
        // Drain the queue; the tail poll discovers what changed.
        char buf[4096];
        while (::read(fd_, buf, sizeof(buf)) > 0) {
        }
      }
      return;
    }
#endif
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
  }

 private:
#ifdef __linux__
  int fd_ = -1;
#endif
};

/// One poll/drain step feeding the scheduler. Two implementations: the
/// Zeek pair of line tails, and the compact-container frame tail
/// (--format=compact / a `.mtlc` path), so the daemon loop is written
/// once.
class Feeder {
 public:
  virtual ~Feeder() = default;
  struct Progress {
    bool ssl = false;
    /// Certificate-side progress drives the missing-certificate grace
    /// counter (a held record releases once this stays false).
    bool x509 = false;
  };
  /// Polls the input(s) once, feeding rows and issues into `scheduler`.
  virtual Progress poll(WindowScheduler& scheduler) = 0;
  /// Final flush at idle exit (trailing partial lines become records).
  virtual void drain(WindowScheduler& scheduler) = 0;
  virtual void save(WatchCheckpoint& ckpt) const = 0;
  virtual void restore(const WatchCheckpoint& ckpt) = 0;
  /// Summed lifecycle counters for the status line.
  virtual TailEvents events() const = 0;
};

class ZeekFeeder final : public Feeder {
 public:
  ZeekFeeder(const std::string& ssl_path, const std::string& x509_path)
      : ssl_(ssl_path), x509_(x509_path) {}

  Progress poll(WindowScheduler& scheduler) override {
    // x509 first: certificates precede the connections that cite them
    // (Zeek writes both at the handshake event), which keeps the hold
    // queue short.
    auto x509_rows = x509_.poll();
    Progress progress;
    progress.x509 = x509_.source().made_progress();
    scheduler.note_issues(core::InputRole::kX509,
                          core::LedgerPhase::kRegistry, x509_rows.issues,
                          x509_rows.rows_ok);
    scheduler.add_x509(std::move(x509_rows.records));

    auto ssl_rows = ssl_.poll();
    progress.ssl = ssl_.source().made_progress();
    scheduler.note_issues(core::InputRole::kSsl,
                          core::LedgerPhase::kUpgrades, ssl_rows.issues,
                          ssl_rows.rows_ok);
    scheduler.add_ssl(std::move(ssl_rows.records));
    return progress;
  }

  void drain(WindowScheduler& scheduler) override {
    auto ssl_rows = ssl_.drain();
    scheduler.note_issues(core::InputRole::kSsl,
                          core::LedgerPhase::kUpgrades, ssl_rows.issues,
                          ssl_rows.rows_ok);
    auto x509_rows = x509_.drain();
    scheduler.note_issues(core::InputRole::kX509,
                          core::LedgerPhase::kRegistry, x509_rows.issues,
                          x509_rows.rows_ok);
    scheduler.add_x509(std::move(x509_rows.records));
    scheduler.add_ssl(std::move(ssl_rows.records));
  }

  void save(WatchCheckpoint& ckpt) const override {
    ckpt.ssl_tail = ssl_.source().position();
    ckpt.x509_tail = x509_.source().position();
  }

  void restore(const WatchCheckpoint& ckpt) override {
    if (!ssl_.source().restore(ckpt.ssl_tail)) {
      std::fprintf(stderr,
                   "watch: ssl log changed while down; re-reading %s\n",
                   ssl_.source().path().c_str());
    }
    if (!x509_.source().restore(ckpt.x509_tail)) {
      std::fprintf(stderr,
                   "watch: x509 log changed while down; re-reading %s\n",
                   x509_.source().path().c_str());
    }
  }

  TailEvents events() const override {
    const TailEvents& a = ssl_.source().events();
    const TailEvents& b = x509_.source().events();
    TailEvents sum;
    sum.polls = a.polls + b.polls;
    sum.truncations = a.truncations + b.truncations;
    sum.rotations = a.rotations + b.rotations;
    sum.bytes_read = a.bytes_read + b.bytes_read;
    return sum;
  }

 private:
  SslTail ssl_;
  X509Tail x509_;
};

class CompactFeeder final : public Feeder {
 public:
  explicit CompactFeeder(const std::string& path) : tail_(path) {}

  Progress poll(WindowScheduler& scheduler) override {
    auto rows = tail_.poll();
    if (!rows.error.empty()) {
      std::fprintf(stderr, "watch: %s\n", rows.error.c_str());
    }
    Progress progress;
    progress.ssl = tail_.made_progress();
    // The grace counter watches certificate rows specifically: a
    // container stream that keeps growing with ssl blocks only must
    // still release held records eventually.
    progress.x509 = !rows.x509.empty();
    // Container rows were validated at conversion time; the poll has no
    // quarantine, only the ok counts.
    scheduler.note_issues(core::InputRole::kX509,
                          core::LedgerPhase::kRegistry, {},
                          rows.x509.size());
    scheduler.add_x509(std::move(rows.x509));
    scheduler.note_issues(core::InputRole::kSsl,
                          core::LedgerPhase::kUpgrades, {}, rows.ssl.size());
    scheduler.add_ssl(std::move(rows.ssl));
    return progress;
  }

  void drain(WindowScheduler& scheduler) override {
    // Frames are atomic units: a trailing partial frame is a torn
    // writer, never salvageable like a partial text line. One final
    // poll picks up anything complete.
    poll(scheduler);
  }

  void save(WatchCheckpoint& ckpt) const override {
    ckpt.ssl_tail = tail_.position();
    ckpt.x509_tail = TailPosition{};
  }

  void restore(const WatchCheckpoint& ckpt) override {
    if (!tail_.restore(ckpt.ssl_tail)) {
      std::fprintf(stderr,
                   "watch: container changed while down; re-reading %s\n",
                   tail_.path().c_str());
    }
  }

  TailEvents events() const override { return tail_.events(); }

 private:
  ContainerTail tail_;
};

}  // namespace

DurablePublisher::DurablePublisher(std::string dir) : dir_(std::move(dir)) {}

void DurablePublisher::note_failure(const std::string& name,
                                    const std::string& message) {
  if (!degraded_) {
    degraded_ = true;
    ++episodes_;
    ingest::write_retry_counters().degraded_episodes.fetch_add(
        1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "watch: degraded: cannot publish %s: %s (last-good outputs "
                 "retained; retrying each poll)\n",
                 name.c_str(), message.c_str());
  }
}

bool DurablePublisher::publish(const std::string& name,
                               const std::string& content) {
  const std::string dst = (std::filesystem::path(dir_) / name).string();
  const auto result =
      ingest::atomic_publish_file(dst, content, "watch.publish");
  if (result.ok) {
    pending_.erase(name);
    return true;
  }
  note_failure(name, result.message);
  // Latest content wins: a newer cumulative.json supersedes the queued
  // one rather than queueing behind it.
  pending_[name] = content;
  return false;
}

bool DurablePublisher::retry_pending() {
  while (!pending_.empty()) {
    auto it = pending_.begin();
    const std::string dst = (std::filesystem::path(dir_) / it->first).string();
    const auto result =
        ingest::atomic_publish_file(dst, it->second, "watch.publish");
    if (!result.ok) return false;  // still degraded; next poll retries
    pending_.erase(it);
  }
  if (degraded_) {
    degraded_ = false;
    std::fprintf(stderr, "watch: recovered: pending publications flushed\n");
  }
  return true;
}

int run_watch(const WatchOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "watch: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::optional<CheckpointStore> store;
  if (!options.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      std::fprintf(stderr, "watch: cannot create %s: %s\n",
                   options.checkpoint_dir.c_str(), ec.message().c_str());
      return 1;
    }
    store.emplace(options.checkpoint_dir, options.checkpoint_keep);
  }

  WatchConfig config;
  config.window_seconds = options.window_seconds;
  config.rollup_windows = options.rollup_windows;
  config.experiments = options.experiments;
  config.run = options.run;
  // The tails always quarantine malformed rows; label the documents so.
  config.run.errors.on_error = ingest::ErrorPolicy::Action::kSkip;
  // The documents label the logical logs, not the tailed segment paths,
  // when the caller says so (mirrors `mtlscope reduce --ssl-log=`).
  const bool compact = options.run.compact_input();
  if (!options.report_ssl_log.empty()) {
    config.run.ssl_log = options.report_ssl_log;
    config.run.x509_log = options.report_x509_log;
  } else if (compact) {
    // A finished container carries its TSV provenance; label the
    // documents with it so they match the batch run over those logs. A
    // still-growing container has no meta frame yet and keeps the
    // container path as its label.
    if (const auto meta = colfmt::read_container_meta(options.run.ssl_log)) {
      config.run.ssl_log = meta->ssl_path;
      config.run.x509_log = meta->x509_path;
    }
  }

  DurablePublisher publisher(options.out_dir);
  WindowScheduler scheduler(
      config, [&publisher](const Emission& emission) {
        publisher.publish(emission_file_name(emission), emission.envelope);
      });

  std::unique_ptr<Feeder> feeder;
  if (compact) {
    feeder = std::make_unique<CompactFeeder>(options.run.ssl_log);
  } else {
    feeder = std::make_unique<ZeekFeeder>(options.run.ssl_log,
                                          options.run.x509_log);
  }

  // Resume: walk the checkpoint generations newest→oldest and restore
  // the first one whose digest verifies (a torn newest generation
  // degrades to N-1, not a cold re-read). Only when every generation is
  // unreadable does the watch start fresh (re-reading the logs, not
  // guessing); a configuration mismatch is still a hard refusal.
  if (store && store->has_any()) {
    std::string error;
    std::uint64_t generation = 0;
    std::uint32_t skipped = 0;
    auto ckpt = store->load(&error, &generation, &skipped);
    if (!ckpt) {
      std::fprintf(stderr, "watch: ignoring checkpoint: %s\n",
                   error.c_str());
    } else if (!scheduler.restore(*ckpt, &error)) {
      std::fprintf(stderr, "watch: cannot resume: %s\n", error.c_str());
      return 2;
    } else {
      feeder->restore(*ckpt);
      std::fprintf(stderr,
                   "watch: restored checkpoint generation %llu "
                   "(skipped %u torn)\n",
                   static_cast<unsigned long long>(generation), skipped);
    }
  }

  install_signals();
  ChangeWaiter waiter(options.run.ssl_log,
                      compact ? options.run.ssl_log : options.run.x509_log);

  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  auto last_checkpoint = Clock::now();
  auto last_progress = Clock::now();
  bool dirty = false;  // progress since the last checkpoint
  bool ckpt_failing = false;  // degraded: retry every poll, not cadence
  int x509_quiet_polls = 0;

  const auto write_checkpoint = [&]() -> bool {
    if (!store) return true;
    WatchCheckpoint ckpt;
    scheduler.save(ckpt);
    feeder->save(ckpt);
    const auto saved = store->save(ckpt);
    if (!saved.ok) {
      // Degraded mode: the last-good generations stay on disk, the same
      // generation number is retried every poll (the poll interval is
      // the backoff), and the OK→failing transition counts one episode.
      if (!ckpt_failing) {
        ckpt_failing = true;
        ingest::write_retry_counters().degraded_episodes.fetch_add(
            1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "watch: degraded: checkpoint failed: %s "
                     "(retrying each poll)\n",
                     saved.message.c_str());
      }
      return false;
    }
    if (ckpt_failing) {
      ckpt_failing = false;
      std::fprintf(
          stderr, "watch: recovered: checkpoint generation %llu written\n",
          static_cast<unsigned long long>(store->next_generation() - 1));
    }
    dirty = false;
    last_checkpoint = Clock::now();
    return true;
  };

  const auto print_status = [&]() {
    const auto s = scheduler.status();
    const double secs =
        std::chrono::duration<double>(Clock::now() - started).count();
    const TailEvents ev = feeder->events();
    const auto& wc = ingest::write_retry_counters();
    std::fprintf(
        stderr,
        "watch: %llu ssl + %llu x509 records (%.0f rec/s), %llu open "
        "windows, %llu emitted (%llu rollups), held %llu, late %llu, "
        "quarantined %llu, rotations %llu, truncations %llu | durability: "
        "%llu write retries, %llu fsyncs, %llu publishes, ckpt gens "
        "%llu written / %llu restored, %llu degraded episodes, %llu "
        "pending%s\n",
        static_cast<unsigned long long>(s.ssl_records),
        static_cast<unsigned long long>(s.x509_records),
        secs > 0 ? static_cast<double>(s.ssl_records) / secs : 0.0,
        static_cast<unsigned long long>(s.open_windows),
        static_cast<unsigned long long>(s.windows_emitted),
        static_cast<unsigned long long>(s.rollups_emitted),
        static_cast<unsigned long long>(s.held),
        static_cast<unsigned long long>(s.late),
        static_cast<unsigned long long>(s.quarantined),
        static_cast<unsigned long long>(ev.rotations),
        static_cast<unsigned long long>(ev.truncations),
        static_cast<unsigned long long>(
            wc.eintr_retries.load(std::memory_order_relaxed) +
            wc.short_writes.load(std::memory_order_relaxed) +
            wc.backoff_sleeps.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            wc.fsyncs.load(std::memory_order_relaxed) +
            wc.dir_fsyncs.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            wc.atomic_publishes.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            wc.checkpoint_gens_written.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            wc.checkpoint_gens_restored.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            wc.degraded_episodes.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(publisher.pending()),
        publisher.degraded() || ckpt_failing ? " [DEGRADED]" : "");
  };

  while (g_stop == 0) {
    // Degraded-mode drain: queued publications retry once per loop; the
    // poll interval below is the deterministic backoff.
    publisher.retry_pending();

    const Feeder::Progress polled = feeder->poll(scheduler);

    // Missing-certificate liveness: a held head record whose x509 row
    // never arrives (the log genuinely lacks it) is released once the
    // x509 side has been quiet long enough.
    if (scheduler.held() > 0 && !polled.x509) {
      if (++x509_quiet_polls >= options.missing_cert_grace_polls) {
        scheduler.force_release();
        x509_quiet_polls = 0;
      }
    } else {
      x509_quiet_polls = 0;
    }

    const bool progress = polled.ssl || polled.x509;
    if (progress) {
      last_progress = Clock::now();
      dirty = true;
    }

    if (g_status != 0) {
      g_status = 0;
      print_status();
    }

    if (dirty && store) {
      const double since = std::chrono::duration<double>(
                               Clock::now() - last_checkpoint)
                               .count();
      if (ckpt_failing || options.checkpoint_every_s <= 0 ||
          since >= options.checkpoint_every_s) {
        write_checkpoint();
      }
    }

    if (options.exit_idle_ms > 0 && !progress && scheduler.held() == 0) {
      const double idle_ms = std::chrono::duration<double, std::milli>(
                                 Clock::now() - last_progress)
                                 .count();
      if (idle_ms >= options.exit_idle_ms) break;
    }

    if (!progress) waiter.wait(options.poll_ms);
  }

  if (g_stop != 0) {
    // Signalled: flush pending publications, checkpoint, and leave. No
    // drain — open windows stay open so the resumed daemon continues
    // exactly where this one stopped; final documents are the idle-exit
    // path's job.
    publisher.retry_pending();
    write_checkpoint();
    return 0;
  }

  // Idle exit: flush trailing partial lines as final records, drain the
  // scheduler (close windows, late + completion folds, final cumulative
  // publication), flush anything still queued, and leave a post-drain
  // checkpoint.
  feeder->drain(scheduler);
  scheduler.drain();
  publisher.retry_pending();
  write_checkpoint();
  print_status();
  return 0;
}

}  // namespace mtlscope::watch
