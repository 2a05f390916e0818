// mtlbench trace-watch: the traced watch daemon replay, run as part of
// batch_tsv's traced run over the same seed's time-sorted log. It replays
// the daemon's loop in this process from the watch module's public
// classes — RecordTail over TailSource (with the tolerant parsers wrapped
// through the tail's Traits parameter), WindowScheduler, DurablePublisher
// in the emit callback, CheckpointStore. A quarter of the log is the
// backlog of a restart after downtime (a checkpoint after every
// progressing poll); the rest is appended in fixed batches between polls
// (one rename rotation midway) with a checkpoint every
// --checkpoint-batches batches, then the idle-exit drain. Replay is
// synchronous, so the per-layer times are free of a live run's pacing.
//
// Flags: --sorted=SSL --x509=X509 --work=DIR --threads=N
//        [--batch-rows=2500 --checkpoint-batches=5] --trace-out=FILE
// Prints one JSON object of watch.* metrics.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>

#include "commands.hpp"
#include "mtlscope/watch/checkpoint.hpp"
#include "mtlscope/watch/daemon.hpp"
#include "mtlscope/watch/record_tail.hpp"
#include "mtlscope/watch/scheduler.hpp"
#include "spans.hpp"

using namespace mtlscope;

namespace mtlbench {

namespace {

namespace fs = std::filesystem;

Tracer* g_tracer = nullptr;

/// The tail's parse step with a span around it.
template <typename Base, const char* kSpan>
struct TracedTraits : Base {
  static zeek::TolerantStats parse(std::string_view body,
                                   const typename Base::Plan& plan,
                                   std::vector<typename Base::Record>& out,
                                   std::vector<zeek::RowIssue>* issues,
                                   std::size_t header_lines,
                                   std::size_t base_offset) {
    Tracer::Scope span(*g_tracer, kSpan);
    return Base::parse(body, plan, out, issues, header_lines, base_offset);
  }
};
constexpr char kParseSsl[] = "zeek.parse_ssl";
constexpr char kParseX509[] = "zeek.parse_x509";
using SslTail = watch::RecordTail<TracedTraits<watch::detail::SslTraits, kParseSsl>>;
using X509Tail =
    watch::RecordTail<TracedTraits<watch::detail::X509Traits, kParseX509>>;

std::string emission_name(const watch::Emission& emission) {
  char buf[64];
  switch (emission.kind) {
    case watch::Emission::Kind::kWindow:
      std::snprintf(buf, sizeof(buf), "window-%012lld.json",
                    static_cast<long long>(emission.start_ts));
      return buf;
    case watch::Emission::Kind::kRollup:
      std::snprintf(buf, sizeof(buf), "rollup-%012lld.json",
                    static_cast<long long>(emission.start_ts));
      return buf;
    case watch::Emission::Kind::kCumulative:
      break;
  }
  return "cumulative.json";
}

}  // namespace

int cmd_trace_watch(const Flags& flags) {
  Tracer tracer;
  g_tracer = &tracer;
  const std::string x509 = flags.get("x509");
  const fs::path work = flags.get("work");
  const auto batch_rows =
      static_cast<std::size_t>(flags.number("batch-rows", 2500));
  const auto checkpoint_batches =
      static_cast<std::size_t>(flags.number("checkpoint-batches", 5));
  const LogRows log = split_log(slurp(flags.get("sorted")));
  const std::size_t total = log.rows.size();
  const std::size_t backlog = total / 4;

  fs::remove_all(work);
  const fs::path out_dir = work / "out";
  const fs::path ckpt_dir = work / "ckpt";
  fs::create_directories(out_dir);
  fs::create_directories(ckpt_dir);
  const std::string feed = (work / "ssl.log").string();
  std::FILE* feed_file = std::fopen(feed.c_str(), "wb");
  const auto append = [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      std::fwrite(log.rows[i].data(), 1, log.rows[i].size(), feed_file);
    }
    std::fflush(feed_file);
  };
  std::fwrite(log.header.data(), 1, log.header.size(), feed_file);
  append(0, backlog);
  ::sync();  // no writeback of the inputs during the timed replay

  const double start = tracer.now();
  watch::WatchConfig config;
  config.window_seconds = 86400;
  config.rollup_windows = 7;
  config.experiments = split_names(kWatchExperiments);
  config.run.threads = static_cast<std::size_t>(flags.number("threads", 1));
  config.run.stable_output = true;
  config.run.ssl_log = (work / "final_ssl.log").string();
  config.run.x509_log = x509;

  std::optional<watch::DurablePublisher> publisher;
  std::optional<watch::WindowScheduler> scheduler;
  std::optional<watch::CheckpointStore> store;
  std::optional<SslTail> ssl_tail;
  std::optional<X509Tail> x509_tail;
  double emissions = 0;
  {
    Tracer::Scope span(tracer, "watch.setup");
    publisher.emplace(out_dir.string());
    scheduler.emplace(config, [&](const watch::Emission& emission) {
      Tracer::Scope publish(tracer, "watch.publish");
      publisher->publish(emission_name(emission), emission.envelope);
      ++emissions;
    });
    store.emplace(ckpt_dir.string(), 3);
    if (store->has_any()) {
      std::fprintf(stderr, "mtlbench trace-watch: stale checkpoints\n");
      return 1;
    }
    ssl_tail.emplace(feed);
    x509_tail.emplace(x509);
  }

  double checkpoint_bytes = 0;
  const auto checkpoint = [&]() -> bool {
    {
      Tracer::Scope span(tracer, "watch.checkpoint.save");
      watch::WatchCheckpoint ckpt;
      scheduler->save(ckpt);
      ckpt.ssl_tail = ssl_tail->source().position();
      ckpt.x509_tail = x509_tail->source().position();
      if (!store->save(ckpt).ok) return false;
    }
    const auto generations = watch::CheckpointStore::list(ckpt_dir.string());
    if (!generations.empty()) {
      std::error_code ec;
      const auto size = fs::file_size(generations.back().second, ec);
      checkpoint_bytes += ec ? 0 : static_cast<double>(size);
    }
    return true;
  };

  // One daemon loop iteration (ZeekFeeder::poll order: x509 first).
  const auto step = [&]() -> bool {
    watch::TailRows<zeek::X509Record> x509_rows;
    {
      Tracer::Scope span(tracer, "watch.tail.poll");
      x509_rows = x509_tail->poll();
    }
    bool progress = x509_tail->source().made_progress();
    scheduler->note_issues(core::InputRole::kX509, core::LedgerPhase::kRegistry,
                           x509_rows.issues, x509_rows.rows_ok);
    {
      Tracer::Scope span(tracer, "watch.scheduler.add");
      scheduler->add_x509(std::move(x509_rows.records));
    }
    watch::TailRows<zeek::SslRecord> ssl_rows;
    {
      Tracer::Scope span(tracer, "watch.tail.poll");
      ssl_rows = ssl_tail->poll();
    }
    progress = ssl_tail->source().made_progress() || progress;
    scheduler->note_issues(core::InputRole::kSsl, core::LedgerPhase::kUpgrades,
                           ssl_rows.issues, ssl_rows.rows_ok);
    {
      Tracer::Scope span(tracer, "watch.scheduler.add");
      scheduler->add_ssl(std::move(ssl_rows.records));
    }
    return progress;
  };

  // Backlog: a checkpoint after every progressing poll (the daemon's
  // --checkpoint-every=0); the drain ends with the poll that covers it.
  bool ok = true;
  while (ok && scheduler->status().ssl_records < backlog) {
    if (step() && scheduler->status().ssl_records < backlog) ok = checkpoint();
  }
  ok = ok && checkpoint();

  bool rotated = false;
  std::size_t batches = 0;
  for (std::size_t fed = backlog; ok && fed < total;) {
    const std::size_t next = std::min(total, fed + batch_rows);
    if (!rotated && next - backlog >= (total - backlog) / 2) {
      std::fclose(feed_file);
      fs::rename(feed, feed + ".1");
      feed_file = std::fopen(feed.c_str(), "wb");
      std::fwrite(log.header.data(), 1, log.header.size(), feed_file);
      rotated = true;
    }
    append(fed, next);
    fed = next;
    while (step()) {
    }
    if (++batches % checkpoint_batches == 0) ok = checkpoint();
  }
  std::fclose(feed_file);

  // Idle exit: final flush, drain, pending publications, checkpoint.
  if (ok) {
    auto ssl_rows = ssl_tail->drain();
    auto x509_rows = x509_tail->drain();
    Tracer::Scope span(tracer, "watch.scheduler.drain");
    scheduler->add_x509(std::move(x509_rows.records));
    scheduler->add_ssl(std::move(ssl_rows.records));
    scheduler->drain();
    publisher->retry_pending();
  }
  ok = ok && checkpoint();
  const double wall = tracer.now() - start;
  if (!ok) {
    std::fprintf(stderr, "mtlbench trace-watch: checkpoint failed\n");
    return 1;
  }

  // Every day that has a record must have its window published.
  std::set<std::int64_t> days;
  for (const auto row : log.rows) {
    const std::int64_t ts = row_ts(row);
    days.insert(ts / 86400 - (ts % 86400 < 0 ? 1 : 0));
  }
  std::size_t missing = 0;
  for (const std::int64_t day : days) {
    char name[64];
    std::snprintf(name, sizeof(name), "window-%012lld.json",
                  static_cast<long long>(day * 86400));
    if (!fs::exists(out_dir / name)) ++missing;
  }

  const auto status = scheduler->status();
  const auto& ssl_events = ssl_tail->source().events();
  const auto& x509_events = x509_tail->source().events();
  JsonObject out;
  out.num("watch.tail.poll.busy_s", tracer.total("watch.tail.poll"))
      .num("watch.tail.poll.bytes",
           static_cast<double>(ssl_events.bytes_read + x509_events.bytes_read))
      .num("watch.tail.poll.rotations",
           static_cast<double>(ssl_events.rotations + x509_events.rotations))
      .num("watch.scheduler.add.busy_s", tracer.self("watch.scheduler.add"))
      .num("watch.scheduler.emissions", emissions)
      .num("watch.publish.busy_s", tracer.total("watch.publish"))
      .num("watch.checkpoint.save.busy_s", tracer.total("watch.checkpoint.save"))
      .num("watch.checkpoint.save.bytes", checkpoint_bytes)
      .num("watch.checkpoint.save.count",
           static_cast<double>(tracer.count("watch.checkpoint.save")))
      .num("watch.ssl_records", static_cast<double>(status.ssl_records))
      .num("watch.quarantined", static_cast<double>(status.quarantined))
      .num("watch.late", static_cast<double>(status.late))
      .num("watch.held", static_cast<double>(status.held))
      .num("watch.expected_windows", static_cast<double>(days.size()))
      .num("watch.missing_windows", static_cast<double>(missing))
      .num("watch.replay_wall_s", wall)
      .num("watch.spans", static_cast<double>(tracer.spans().size()));
  const std::string trace_out = flags.get("trace-out");
  if (!tracer.write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "mtlbench trace-watch: cannot write %s\n",
                 trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace mtlbench
