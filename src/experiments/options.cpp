#include "mtlscope/experiments/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "mtlscope/colfmt/container.hpp"

namespace mtlscope::experiments {

bool RunOptions::compact_input() const {
  if (!file_mode()) return false;
  switch (format) {
    case InputFormat::kCompact:
      return true;
    case InputFormat::kZeek:
      return false;
    case InputFormat::kAuto:
      return colfmt::is_container_file(ssl_log);
  }
  return false;
}

std::size_t RunOptions::chunk_bytes() const {
  const double bytes = chunk_mb * 1024.0 * 1024.0;
  if (bytes < 1.0) return 1;
  return static_cast<std::size_t>(bytes);
}

ingest::IngestOptions RunOptions::ingest_options() const {
  ingest::IngestOptions options;
  options.chunk_bytes = chunk_bytes();
  options.force_buffered = force_buffered;
  options.errors = errors;
  return options;
}

RunOptions RunOptions::resolved(double default_cert_scale,
                                double default_conn_scale) const {
  RunOptions out = *this;
  out.cert_scale = cert_scale_override.value_or(default_cert_scale);
  out.conn_scale = conn_scale_override.value_or(default_conn_scale);
  return out;
}

bool RunOptions::parse_flag(const char* arg) {
  if (std::strncmp(arg, "--cert-scale=", 13) == 0) {
    cert_scale_override = std::atof(arg + 13);
  } else if (std::strncmp(arg, "--conn-scale=", 13) == 0) {
    conn_scale_override = std::atof(arg + 13);
  } else if (std::strncmp(arg, "--seed=", 7) == 0) {
    seed = static_cast<std::uint64_t>(std::atoll(arg + 7));
  } else if (std::strncmp(arg, "--threads=", 10) == 0) {
    threads = static_cast<std::size_t>(std::atoll(arg + 10));
    // More shards than cores only adds contention and memory; clamp to
    // the machine (results are byte-identical for every thread count).
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw != 0 && threads > hw) {
      std::fprintf(stderr,
                   "note: --threads=%zu exceeds this machine's %zu "
                   "hardware threads; running with %zu\n",
                   threads, hw, hw);
      threads = hw;
    }
  } else if (std::strncmp(arg, "--ssl-log=", 10) == 0) {
    ssl_log = arg + 10;
  } else if (std::strncmp(arg, "--x509-log=", 11) == 0) {
    x509_log = arg + 11;
  } else if (std::strncmp(arg, "--format=", 9) == 0) {
    // Input format only; run/reduce consume their output --format=
    // values (text|json|csv|tsv) before delegating here, so the two
    // flag namespaces never collide.
    const char* value = arg + 9;
    if (std::strcmp(value, "auto") == 0) {
      format = InputFormat::kAuto;
    } else if (std::strcmp(value, "zeek") == 0) {
      format = InputFormat::kZeek;
    } else if (std::strcmp(value, "compact") == 0) {
      format = InputFormat::kCompact;
    } else {
      return false;  // not an input format; callers may layer their own
    }
  } else if (std::strncmp(arg, "--chunk-mb=", 11) == 0) {
    chunk_mb = std::atof(arg + 11);
  } else if (std::strcmp(arg, "--in-memory") == 0) {
    in_memory = true;
  } else if (std::strcmp(arg, "--force-buffered") == 0) {
    force_buffered = true;
  } else if (std::strcmp(arg, "--stable-output") == 0) {
    stable_output = true;
  } else if (std::strncmp(arg, "--on-error=", 11) == 0) {
    const char* value = arg + 11;
    if (std::strcmp(value, "abort") == 0) {
      errors.on_error = ingest::ErrorPolicy::Action::kAbort;
    } else if (std::strcmp(value, "skip") == 0) {
      errors.on_error = ingest::ErrorPolicy::Action::kSkip;
    } else {
      std::fprintf(stderr, "--on-error= takes abort or skip, got %s\n",
                   value);
      std::exit(2);
    }
  } else if (std::strncmp(arg, "--max-errors=", 13) == 0) {
    errors.max_errors = static_cast<std::uint64_t>(std::atoll(arg + 13));
  } else if (std::strncmp(arg, "--max-error-rate=", 17) == 0) {
    errors.max_error_rate = std::atof(arg + 17);
  } else {
    return false;
  }
  return true;
}

}  // namespace mtlscope::experiments
