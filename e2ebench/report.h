#ifndef MWSIBE_E2EBENCH_REPORT_H_
#define MWSIBE_E2EBENCH_REPORT_H_

#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;  // timing samples or events behind the value
};

/// Measurements taken around a run, outside RunResult.
struct RunContext {
  Workload workload = Workload::kIngest;
  /// Median over the set-ups of this run of their CPU time, scaled to
  /// the reference host.
  double setup_s = 0;
  /// Process CPU time of the measured phase less the speed sampler's,
  /// and the host's Slowdown() over that phase (which scales both).
  double program_cpu_s = 0;
  double slowdown = 1;
  double peak_rss_mb = 0;  // measured phase, generated inputs left out
  size_t nproc = 1;
  uint64_t wal_bytes = 0;  // store.wal_bytes growth during the run
  uint64_t compactions = 0;
  uint64_t disk_bytes = 0;  // store files at the end of the run
  uint64_t live_messages = 0;
  uint64_t shed_requests = 0;
  uint64_t reconnects = 0;
  double untraced_msgs_per_s = 0;  // traced run only
};

/// The end-to-end metrics bounded in BENCHMARK.json ("end_to_end"), in
/// order.
std::vector<Metric> EndToEndMetrics(const RunResult& run,
                                    const RunContext& context);
/// End-to-end figures that are printed but not bounded: throughput and
/// latencies spread more between runs on a shared host than any bound
/// allows (CPU time the host gives other guests is amplified along the
/// request chains), and fail_ratio is 0 when all is well (it is also the
/// result's failed / attempted).
std::vector<Metric> ReportedMetrics(const RunResult& run, uint64_t attempted,
                                    uint64_t failed);

/// Per-layer metrics from the traced run (BENCHMARK.json "per_layer").
std::vector<Metric> PerLayerMetrics(const RunResult& run,
                                    const RunContext& context,
                                    const std::vector<Span>& spans,
                                    const SpanRecorder& recorder);

/// Total failed operations, counting every correctness violation.
uint64_t FailedOps(const RunResult& run, uint64_t canary_hits);

void PrintMetric(const Metric& metric);
/// The result as one JSON line (the last line of standard output).
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_REPORT_H_
