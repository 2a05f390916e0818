// Compact-container ingest benches (DESIGN §14). The headline comparison
// is records/s of block decode (dictionary-indexed columns, raw DER, no
// field splitting or hex-unescape) against the compiled-plan zero-copy
// TSV parse — the `BM_SslParseFast`-equivalent baseline, reproduced here
// verbatim so both rates come from one binary over one dataset. Also
// measured: parallel whole-container decode (each block carries its own
// dictionary, so K workers decode K blocks independently), the TSV →
// container conversion rate, and the end-to-end pipeline run from each
// format. Default scale yields a ~100 MB ssl.log; override with
// MTLSCOPE_COMPACT_BENCH_CONN=<conn_scale> for quick local runs. The
// string arena every parse and decode interns into is measured on its
// own (BM_ArenaIntern).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

using namespace mtlscope;

namespace {

/// One on-disk TSV pair + converted container shared by every benchmark.
struct CompactFixture {
  std::string ssl_path;
  std::string x509_path;
  std::string container_path;
  std::string ssl_text;  // baseline parse input, kept resident
  std::size_t ssl_bytes = 0;
  std::size_t tsv_bytes = 0;        // ssl.log + x509.log
  std::size_t container_bytes = 0;  // the .mtlc file
  std::size_t ssl_records = 0;
  std::size_t x509_records = 0;
  std::string error;

  CompactFixture() {
    const auto dir =
        std::filesystem::temp_directory_path() / "mtlscope_perf_compact";
    std::filesystem::create_directories(dir);
    ssl_path = (dir / "ssl.log").string();
    x509_path = (dir / "x509.log").string();
    container_path = (dir / "logs.mtlc").string();

    double conn_scale = 25'000;  // ≈ 100 MB of ssl.log (~900k records)
    if (const char* env = std::getenv("MTLSCOPE_COMPACT_BENCH_CONN")) {
      conn_scale = std::atof(env);
    }
    auto model = gen::paper_model(2'000, conn_scale);
    model.seed = 20240504;
    gen::TraceGenerator generator(std::move(model));
    const auto dataset = generator.generate_dataset();
    ssl_records = dataset.connection_count();
    x509_records = dataset.certificate_count();
    {
      std::ofstream out(ssl_path, std::ios::binary);
      zeek::write_ssl_log(out, dataset.ssl());
    }
    {
      std::ofstream out(x509_path, std::ios::binary);
      zeek::write_x509_log(out, dataset);
    }
    ssl_bytes = std::filesystem::file_size(ssl_path);
    tsv_bytes = ssl_bytes + std::filesystem::file_size(x509_path);
    {
      std::ifstream in(ssl_path, std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      ssl_text = std::move(text).str();
    }

    colfmt::CompactRequest request;
    request.ssl_path = ssl_path;
    request.x509_path = x509_path;
    request.out_path = container_path;
    if (const char* env =
            std::getenv("MTLSCOPE_COMPACT_BENCH_BLOCK_ROWS")) {
      request.writer.block_rows =
          static_cast<std::uint32_t>(std::atoll(env));
    }
    if (!colfmt::compact_logs(request, nullptr, &error)) return;
    container_bytes = std::filesystem::file_size(container_path);
  }
};

const CompactFixture& fixture() {
  static const CompactFixture instance;
  return instance;
}

std::size_t header_end(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] == '#') {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return text.size();
    pos = nl + 1;
  }
  return pos;
}

/// Baseline: the fast compiled-plan TSV parse (BM_SslParseFast shape),
/// re-run here so the compact/TSV records-per-second ratio is read off
/// two rows of the same BENCH file.
void BM_TsvSslParseFast(benchmark::State& state) {
  const auto& logs = fixture();
  const std::string_view text(logs.ssl_text);
  const std::size_t body_begin = header_end(text);
  const zeek::SslPlan plan = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_header(text.substr(0, body_begin)));
  std::vector<zeek::SslRecord> out;
  std::size_t records = 0;
  for (auto _ : state) {
    out.clear();
    if (!zeek::parse_ssl_records(text.substr(body_begin), plan, out)) {
      state.SkipWithError("fast ssl parse failed");
      return;
    }
    records += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.ssl_text.size() * state.iterations()));
}
BENCHMARK(BM_TsvSslParseFast)->Unit(benchmark::kMillisecond);

/// Compact counterpart to the row above: decode every ssl block on one
/// thread. Bytes/s is over the *container's* ssl frames — the bytes this
/// path actually touches.
void BM_CompactSslDecode(benchmark::State& state) {
  const auto& logs = fixture();
  std::string error;
  const auto reader = colfmt::ContainerReader::open(logs.container_path,
                                                    &error);
  if (!reader) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::size_t frame_bytes = 0;
  for (const auto& block : reader->ssl_blocks()) {
    frame_bytes += static_cast<std::size_t>(block.payload_len);
  }
  std::size_t records = 0;
  for (auto _ : state) {
    for (const auto& block : reader->ssl_blocks()) {
      auto rows = reader->decode_ssl_block(block);
      records += rows.size();
      benchmark::DoNotOptimize(rows.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(frame_bytes * state.iterations()));
}
BENCHMARK(BM_CompactSslDecode)->Unit(benchmark::kMillisecond);

/// Whole-container decode (ssl + x509 blocks) with K worker threads —
/// the block-local dictionaries are what make this embarrassingly
/// parallel. Bytes/s is over the original TSV pair, so this row answers
/// "what TSV-equivalent ingest rate does the container deliver".
void BM_CompactDecodeAll(benchmark::State& state) {
  const auto& logs = fixture();
  std::string error;
  const auto reader = colfmt::ContainerReader::open(logs.container_path,
                                                    &error);
  if (!reader) {
    state.SkipWithError(error.c_str());
    return;
  }
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::vector<const colfmt::FrameRef*> blocks;
  for (const auto& block : reader->ssl_blocks()) blocks.push_back(&block);
  for (const auto& block : reader->x509_blocks()) blocks.push_back(&block);
  std::size_t records = 0;
  for (auto _ : state) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> decoded{0};
    auto worker = [&] {
      std::size_t local = 0;
      for (std::size_t i = next.fetch_add(1); i < blocks.size();
           i = next.fetch_add(1)) {
        const auto& block = *blocks[i];
        if (block.kind != colfmt::FrameKind::kX509Block) {
          auto rows = reader->decode_ssl_block(block);
          local += rows.size();
          benchmark::DoNotOptimize(rows.data());
        } else {
          auto rows = reader->decode_x509_block(block);
          local += rows.size();
          benchmark::DoNotOptimize(rows.data());
        }
      }
      decoded.fetch_add(local);
    };
    if (threads <= 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
      for (auto& thread : pool) thread.join();
    }
    records += decoded.load();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.tsv_bytes * state.iterations()));
}
// UseRealTime: these benchmarks run worker/executor threads, and the
// default CPU-time denominator only counts the main thread — wall clock
// is the honest rate.
BENCHMARK(BM_CompactDecodeAll)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// TSV → container conversion rate (the one-time cost a compact corpus
/// amortizes away). Bytes/s over the TSV input it reads.
void BM_CompactConvert(benchmark::State& state) {
  const auto& logs = fixture();
  const auto out_path = logs.container_path + ".bench";
  std::size_t records = 0;
  for (auto _ : state) {
    colfmt::CompactRequest request;
    request.ssl_path = logs.ssl_path;
    request.x509_path = logs.x509_path;
    request.out_path = out_path;
    colfmt::CompactStats stats;
    std::string error;
    if (!colfmt::compact_logs(request, &stats, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    records += static_cast<std::size_t>(stats.ssl_rows + stats.x509_rows);
  }
  std::filesystem::remove(out_path);
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.tsv_bytes * state.iterations()));
}
BENCHMARK(BM_CompactConvert)->Unit(benchmark::kMillisecond);

/// End-to-end pipeline runs from each format (open/verify + ingest +
/// all five phases), the figure a whole `mtlscope run` moves by.
void BM_TsvFullRun(benchmark::State& state) {
  const auto& logs = fixture();
  std::size_t records = 0;
  for (auto _ : state) {
    core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(),
                                    static_cast<std::size_t>(state.range(0)));
    ingest::IngestError error;
    const auto result =
        executor.run_log_files(logs.ssl_path, logs.x509_path, &error);
    if (!result) {
      state.SkipWithError(error.to_string().c_str());
      return;
    }
    records += static_cast<std::size_t>(result->totals().connections);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.tsv_bytes * state.iterations()));
}
BENCHMARK(BM_TsvFullRun)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CompactFullRun(benchmark::State& state) {
  const auto& logs = fixture();
  std::size_t records = 0;
  for (auto _ : state) {
    std::string error;
    const auto reader = colfmt::ContainerReader::open(logs.container_path,
                                                      &error);
    if (!reader) {
      state.SkipWithError(error.c_str());
      return;
    }
    core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(),
                                    static_cast<std::size_t>(state.range(0)));
    ingest::IngestError ingest_error;
    const auto result = executor.run_container(*reader, &ingest_error);
    if (!result) {
      state.SkipWithError(ingest_error.to_string().c_str());
      return;
    }
    records += static_cast<std::size_t>(result->totals().connections);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.tsv_bytes * state.iterations()));
}
BENCHMARK(BM_CompactFullRun)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// About 1 M distinct dotted quads (a bijective scramble of the index),
/// the shape of the high-cardinality address fields.
const std::vector<std::string>& arena_values() {
  static const std::vector<std::string> values = [] {
    std::vector<std::string> out;
    out.reserve(std::size_t{1} << 20);
    for (std::uint32_t i = 0; i < (1u << 20); ++i) {
      const std::uint32_t v = i * 2654435761u;
      out.push_back(std::to_string(v >> 24) + "." +
                    std::to_string((v >> 16) & 0xff) + "." +
                    std::to_string((v >> 8) & 0xff) + "." +
                    std::to_string(v & 0xff));
    }
    return out;
  }();
  return values;
}

/// Interning throughput: each iteration interns every value once, split
/// into contiguous slices over `threads` threads. fresh:0 is warm hits
/// (an arena that already holds every value, so each call is a lookup
/// that misses the front cache), fresh:1 inserts into an empty arena.
void BM_ArenaIntern(benchmark::State& state) {
  const bool fresh = state.range(0) != 0;
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto& values = arena_values();
  const std::size_t per_thread = (values.size() + threads - 1) / threads;
  const auto intern_slice = [&](colfmt::StringArena& arena, std::size_t t) {
    const std::size_t end = std::min(values.size(), (t + 1) * per_thread);
    for (std::size_t i = t * per_thread; i < end; ++i) {
      benchmark::DoNotOptimize(arena.intern(values[i]).data());
    }
  };
  std::unique_ptr<colfmt::StringArena> arena;
  for (auto _ : state) {
    if (fresh || arena == nullptr) {
      state.PauseTiming();
      arena = std::make_unique<colfmt::StringArena>();
      if (!fresh) {
        for (const auto& v : values) arena->intern(v);
      }
      state.ResumeTiming();
    }
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back(intern_slice, std::ref(*arena), t);
    }
    for (auto& w : workers) w.join();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(values.size() * state.iterations()));
}
BENCHMARK(BM_ArenaIntern)
    ->ArgNames({"fresh", "threads"})
    ->ArgsProduct({{0, 1}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
