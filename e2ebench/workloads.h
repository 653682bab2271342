#ifndef MWSIBE_E2EBENCH_WORKLOADS_H_
#define MWSIBE_E2EBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deployment.h"
#include "inputs.h"
#include "spans.h"

namespace e2e {

/// At most this many load-generator threads, each driving its own
/// clients; they share the deployment's three connections.
size_t GeneratorThreads();

/// CPU time of the whole process (every thread, user and system), in
/// seconds.
double CpuSeconds();

/// Peak RSS of the process (VmHWM) in MiB, since it was last reset.
double PeakRssMb();

/// Samples with the steady-clock instant each was taken, so a run can be
/// summarized per time window.
struct TimedSamples {
  std::vector<int64_t> at_ns;
  std::vector<double> values;

  void Add(int64_t at, double value) {
    at_ns.push_back(at);
    values.push_back(value);
  }
  void Append(const TimedSamples& other) {
    at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
};

/// What one measured phase produced. Latencies are in the unit their
/// name says; open-loop latencies are timed from when the operation was
/// due.
struct RunResult {
  int64_t start_ns = 0;  // the measured phase, steady clock
  double wall_s = 0;
  /// Acked readings (ingest) or plaintexts verified (drain, mixed); the
  /// samples hold how many completed at each instant.
  uint64_t msgs = 0;
  TimedSamples completions;
  TimedSamples deposit_ms;
  TimedSamples fetch_ms;
  TimedSamples delivery_ms;
  std::vector<double> lag_ms;
  std::vector<double> prune_us;

  /// Operations attempted (deposited readings, fetches, expected
  /// deliveries, post-run decrypt checks) and those that failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t op_errors = 0;   // calls or batch items that returned an error
  uint64_t mismatched = 0;  // plaintexts whose digest or id is wrong
  uint64_t missing = 0;     // entitled deliveries that never arrived
  uint64_t duplicate = 0;   // deliveries that arrived more than once
  uint64_t unexpected = 0;  // deliveries nobody was entitled to
  uint64_t ambiguous = 0;   // deposits racing a poll window edge
  uint64_t not_run = 0;     // scheduled operations the run never reached
  bool inputs_exhausted = false;
  std::string first_error;

  uint64_t payload_bytes_acked = 0;
  uint64_t retrieved = 0;        // messages handed to clients by retrieval
  uint64_t keys_extracted = 0;
  uint64_t observed_identities = 0;
  std::array<uint64_t, kShards> shard_items{};
  /// Process CPU time over [cpu_from_ns, cpu_to_ns), the measured phase.
  double cpu_s = 0;
  int64_t cpu_from_ns = 0;
  int64_t cpu_to_ns = 0;
  /// Peak RSS (MiB) read at a fixed amount of work into the phase; 0 if
  /// the workload reads it at the phase's end instead.
  double peak_rss_mb = 0;
};

class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;
  /// Registers the control plane, seals and preloads what the workload
  /// needs: the program's own set-up work.
  virtual mws::util::Status Setup(Deployment* deployment) = 0;
  /// Generates every input of the measured phase (after Setup): the
  /// load generator's work, kept apart from the set-up time.
  virtual void GenerateInputs(Deployment* deployment) = 0;
  /// Bytes the generated inputs hold in memory during the measured
  /// phase, so they can be told apart from the program's own memory.
  virtual size_t InputBytes() const = 0;
  /// The measured phase. `recorder` is non-null in the traced run.
  virtual RunResult Run(Deployment* deployment, double seconds,
                        SpanRecorder* recorder) = 0;
  /// SHA-256 chain over every generated input (valid after Setup).
  virtual const std::string& InputDigestHex() const = 0;
  virtual CacheFootprint Footprint() const = 0;
  /// One-line description of the workload's shape for the report.
  virtual std::string Describe() const = 0;
};

std::unique_ptr<WorkloadRunner> MakeRunner(Workload workload, uint64_t seed,
                                           double seconds);

/// KvStore auto-compaction threshold the workload runs with.
size_t CompactThresholdBytes(Workload workload);

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_WORKLOADS_H_
