// End-to-end message benchmark: one process, two MWS shards and a PKG
// behind real TCP servers, a client-side ShardRouter, and a load
// generator running one of three workloads (ingest, drain, mixed).
//
//   e2e_bench --workload <ingest|drain|mixed> --seed <n> --seconds <s>
//             --trace <0|1> [--work-dir DIR] [--git-commit C]
//             [--git-dirty 0|1] [--source-digest D]
//
// Untraced (--trace 0): sets the workload up five times (reporting the
// median set-up time), runs it for --seconds and prints the end-to-end
// metrics; the gated times are CPU times scaled to a reference host's
// speed by calibration bursts run alongside (calibrate.h). Traced
// (--trace 1): one untraced run for the tracing overhead baseline, then
// one run with every decorator installed; prints
// the per-layer metrics and writes the spans to
// <work-dir>/spans/<workload>-seed<n>.tsv. The last line of standard
// output is the JSON result. See README.md.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "deployment.h"
#include "inputs.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kSetupRuns = 5;
// One calibration burst (about 0.65 ms of CPU) per period, on a thread
// of its own, through the measured phase.
constexpr int64_t kCalibrationPeriodNs = 10'000'000;

struct Args {
  Workload workload = Workload::kIngest;
  bool workload_set = false;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string git_commit = "unknown";
  std::string git_dirty = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      args->workload_set = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
      if (!(args->seconds > 0 && args->seconds <= 120)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-commit") {
      args->git_commit = value;
    } else if (flag == "--git-dirty") {
      args->git_dirty = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return args->workload_set;
}

/// Hands freed heap back to the system and restarts the kernel's peak
/// RSS count (VmHWM) from the current RSS, so the peak read after the
/// measured phase is that phase's alone, not the set-ups'. False if the
/// count cannot be reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}


/// (total, steal) jiffies of all CPUs from /proc/stat; zeros where it is
/// unavailable.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t value = 0;
    in >> value;
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

/// Runs the measured phase and prints the share of CPU time the host
/// took for other guests meanwhile: a run on a contended host reads slow
/// for reasons outside the program.
RunResult MeasuredRun(WorkloadRunner* runner, Deployment* deployment,
                      double seconds, SpanRecorder* recorder) {
  const auto before = CpuTicks();
  RunResult run = runner->Run(deployment, seconds, recorder);
  const auto after = CpuTicks();
  const uint64_t total = after.first - before.first;
  std::printf("host steal_share=%.4f\n",
              total > 0 ? static_cast<double>(after.second - before.second) /
                              static_cast<double>(total)
                        : 0.0);
  return run;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

/// A deployment with the workload set up on it and its inputs made.
struct Prepared {
  std::string dir;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<WorkloadRunner> runner;
  double setup_wall_s = 0;
  double setup_cpu_s = 0;  // process CPU time the set-up took
  double inputs_s = 0;     // input generation, not part of the set-up
};

mws::util::Status Prepare(const Args& args, const std::string& dir,
                          SpanRecorder* recorder, Prepared* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return mws::util::Status::Internal("cannot create " + dir);
  out->dir = dir;
  const int64_t t0 = SteadyNs();
  const double cpu0 = CpuSeconds();
  Deployment::Options options;
  options.dir = dir;
  options.seed = args.seed;
  options.compact_threshold_bytes = CompactThresholdBytes(args.workload);
  options.recorder = recorder;
  auto deployment = Deployment::Create(options);
  if (!deployment.ok()) return deployment.status();
  out->deployment = std::move(deployment).value();
  out->runner = MakeRunner(args.workload, args.seed, args.seconds);
  MWS_RETURN_IF_ERROR(out->runner->Setup(out->deployment.get()));
  out->setup_cpu_s = CpuSeconds() - cpu0;
  const int64_t t1 = SteadyNs();
  out->setup_wall_s = static_cast<double>(t1 - t0) / 1e9;
  out->runner->GenerateInputs(out->deployment.get());
  out->inputs_s = static_cast<double>(SteadyNs() - t1) / 1e9;
  return mws::util::Status::Ok();
}

/// Number of shard store files in `dir` holding `canary`: the MWS must
/// never hold plaintext.
uint64_t CanaryHits(const std::string& dir, const mws::util::Bytes& canary) {
  uint64_t hits = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (std::search(data.begin(), data.end(), canary.begin(), canary.end()) !=
        data.end()) {
      ++hits;
    }
  }
  return hits;
}

/// Stops the deployment, takes the end-of-run store figures and audits
/// the store files; then removes them.
void Finish(Prepared* p, RunContext* context, uint64_t* canary_hits,
            const mws::util::Bytes& canary) {
  Deployment& d = *p->deployment;
  for (size_t i = 0; i < kShards; ++i) {
    context->live_messages += d.shard_mws(i).message_db().Count();
  }
  context->shed_requests = d.ShedRequests();
  context->reconnects = d.Reconnects();
  d.Shutdown();
  context->disk_bytes = d.DiskBytes();
  *canary_hits += CanaryHits(p->dir, canary);
  p->runner.reset();
  p->deployment.reset();
  std::error_code ec;
  std::filesystem::remove_all(p->dir, ec);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void PrintProvenance(const Args& args) {
  std::printf(
      "provenance {\"git_commit\": \"%s\", \"git_dirty\": \"%s\", "
      "\"source_digest\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"nproc\": %u, \"generator_threads\": %zu, "
      "\"client_connections\": %zu, \"tcp_server_worker_threads\": %d, "
      "\"tcp_servers\": %zu, \"shards\": %zu, \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d, "
      "\"param_preset\": \"test-160/512\", \"rsa_bits\": %d, "
      "\"compact_threshold_bytes\": %zu, "
      "\"store_flush_policy\": \"WAL appends are buffered in std::ofstream; "
      "nothing on the ack path calls Table::Flush; no fsync\"}\n",
      JsonEscape(args.git_commit).c_str(), JsonEscape(args.git_dirty).c_str(),
      JsonEscape(args.source_digest).c_str(), E2E_BUILD_TYPE,
      JsonEscape(E2E_CXX_FLAGS).c_str(), std::thread::hardware_concurrency(),
      GeneratorThreads(), kShards + 1, kServerWorkers, kShards + 1, kShards,
      static_cast<unsigned long long>(args.seed),
      WorkloadName(args.workload), args.seconds, args.trace ? 1 : 0,
      kRsaBits, CompactThresholdBytes(args.workload));
}

void PrintRunFacts(const char* label, const RunResult& run,
                   uint64_t canary_hits) {
  std::printf(
      "correctness[%s] attempted=%llu failed=%llu op_errors=%llu "
      "mismatched=%llu missing=%llu duplicate=%llu unexpected=%llu "
      "ambiguous=%llu not_run=%llu inputs_exhausted=%d canary_files=%llu%s%s\n",
      label, static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(FailedOps(run, canary_hits)),
      static_cast<unsigned long long>(run.op_errors),
      static_cast<unsigned long long>(run.mismatched),
      static_cast<unsigned long long>(run.missing),
      static_cast<unsigned long long>(run.duplicate),
      static_cast<unsigned long long>(run.unexpected),
      static_cast<unsigned long long>(run.ambiguous),
      static_cast<unsigned long long>(run.not_run),
      run.inputs_exhausted ? 1 : 0,
      static_cast<unsigned long long>(canary_hits),
      run.first_error.empty() ? "" : " first_error=",
      run.first_error.c_str());
}

void PrintCache(const WorkloadRunner& runner, const RunResult& run) {
  const CacheFootprint f = runner.Footprint();
  std::printf(
      "cache {\"timed_identities\": %zu, \"observed_identities\": %llu, "
      "\"hash_to_point_lru_capacity\": %zu, \"grants\": %zu, "
      "\"aid_cache_capacity\": %zu, \"identities_exceed_lru\": %s, "
      "\"grants_exceed_aid_cache\": %s}\n",
      f.timed_identities,
      static_cast<unsigned long long>(run.observed_identities),
      kHashToPointLruCapacity, f.grants, kAidCacheCapacity,
      f.timed_identities > kHashToPointLruCapacity ? "true" : "false",
      f.grants > kAidCacheCapacity ? "true" : "false");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload ingest|drain|mixed --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const std::string base = args.work_dir + "/" + WorkloadName(args.workload) +
                           "-" + std::to_string(getpid());
  const mws::util::Bytes canary = MakeCanary(args.seed);

  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  PrintProvenance(args);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> result_metrics;

  if (!args.trace) {
    // Set up several times; keep the last set-up for the measured phase.
    std::vector<double> setup_cpus, setup_walls, inputs;
    std::vector<std::string> digests;
    Prepared prepared;
    for (int i = 0; i < kSetupRuns; ++i) {
      if (prepared.deployment) {
        prepared.runner.reset();
        prepared.deployment.reset();
        std::error_code ec;
        std::filesystem::remove_all(prepared.dir, ec);
      }
      auto status = Prepare(args, base + "/setup" + std::to_string(i),
                            nullptr, &prepared);
      if (!status.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
        return 1;
      }
      setup_cpus.push_back(prepared.setup_cpu_s);
      setup_walls.push_back(prepared.setup_wall_s);
      inputs.push_back(prepared.inputs_s);
      digests.push_back(prepared.runner->InputDigestHex());
    }
    const bool same_inputs =
        std::all_of(digests.begin(), digests.end(),
                    [&](const std::string& d) { return d == digests[0]; });
    std::printf("# %s\n", prepared.runner->Describe().c_str());
    std::printf("inputs digest=%s setups=%d identical=%s\n",
                digests[0].c_str(), kSetupRuns, same_inputs ? "true" : "false");

    if (!ResetPeakRss()) {
      std::fprintf(stderr, "cannot reset the peak RSS count\n");
      return 1;
    }
    auto sampler = std::make_unique<SpeedSampler>(kCalibrationPeriodNs);
    RunResult run = MeasuredRun(prepared.runner.get(),
                                prepared.deployment.get(), args.seconds,
                                nullptr);
    const double input_mb =
        static_cast<double>(prepared.runner->InputBytes()) / (1 << 20);
    const double phase_peak_mb =
        run.peak_rss_mb > 0 ? run.peak_rss_mb : PeakRssMb();
    const std::vector<double> phase_bursts =
        sampler->BurstsBetween(run.cpu_from_ns, run.cpu_to_ns);
    const double sampler_cpu_s =
        sampler->CpuSecondsBetween(run.cpu_from_ns, run.cpu_to_ns);
    sampler.reset();
    PrintCache(*prepared.runner, run);
    RunContext context;
    context.workload = args.workload;
    context.program_cpu_s = run.cpu_s - sampler_cpu_s;
    context.slowdown = Slowdown(phase_bursts);
    // The set-ups are scaled by the phase's bursts too. Bursts taken
    // during a set-up read its host speed worse: a set-up keeps every CPU
    // busy for well under a second, and in ten runs per workload the
    // set-up times scaled that way spread up to twice as much as with the
    // phase's two thousand bursts.
    context.setup_s = Median(setup_cpus) / context.slowdown;
    context.nproc = std::max(1u, std::thread::hardware_concurrency());
    // The program's memory: the measured phase's peak less the buffers
    // that hold the generated inputs.
    context.peak_rss_mb = phase_peak_mb - input_mb;
    uint64_t canary_hits = 0;
    Finish(&prepared, &context, &canary_hits, canary);
    std::vector<double> sorted_bursts = phase_bursts;
    std::sort(sorted_bursts.begin(), sorted_bursts.end());
    std::printf(
        "calibration reference_burst_ms=%.3f phase_bursts=%zu "
        "burst_p10_ms=%.4f burst_p50_ms=%.4f burst_p90_ms=%.4f "
        "phase_slowdown=%.4f\n",
        ReferenceBurstMs(), phase_bursts.size(),
        QuantileSorted(sorted_bursts, 0.1), QuantileSorted(sorted_bursts, 0.5),
        QuantileSorted(sorted_bursts, 0.9), context.slowdown);
    std::printf(
        "setup median_wall_s=%.4f median_cpu_s=%.4f inputs_median_s=%.4f "
        "memory phase_peak_mb=%.2f inputs_mb=%.2f\n",
        Median(setup_walls), Median(setup_cpus), Median(inputs),
        phase_peak_mb, input_mb);

    PrintRunFacts("run", run, canary_hits);
    attempted = run.attempted + 1;  // + the store canary audit
    failed = FailedOps(run, canary_hits);
    correct = failed == 0 && same_inputs;
    result_metrics = EndToEndMetrics(run, context);
    std::printf("unscaled cpu_ms_per_msg=%.6f\n",
                run.msgs > 0 ? context.program_cpu_s * 1e3 /
                                   static_cast<double>(run.msgs)
                             : 0.0);
    for (const Metric& m : result_metrics) PrintMetric(m);
    for (const Metric& m : ReportedMetrics(run, attempted, failed)) {
      PrintMetric(m);
    }
  } else {
    // Untraced baseline for the tracing overhead.
    Prepared baseline;
    auto status = Prepare(args, base + "/untraced", nullptr, &baseline);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("# %s\n", baseline.runner->Describe().c_str());
    std::printf("inputs digest=%s\n", baseline.runner->InputDigestHex().c_str());
    RunResult plain = MeasuredRun(baseline.runner.get(),
                                  baseline.deployment.get(), args.seconds,
                                  nullptr);
    RunContext plain_context;
    uint64_t canary_hits = 0;
    Finish(&baseline, &plain_context, &canary_hits, canary);
    PrintRunFacts("untraced", plain, canary_hits);

    SpanRecorder recorder;
    Prepared traced;
    status = Prepare(args, base + "/traced", &recorder, &traced);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    Deployment& d = *traced.deployment;
    const uint64_t wal_before = d.StoreCounter("store.wal_bytes");
    const uint64_t compactions_before = d.StoreCounter("store.compactions");
    RunResult run = MeasuredRun(traced.runner.get(), &d, args.seconds,
                                &recorder);
    RunContext context;
    context.workload = args.workload;
    context.nproc = std::max(1u, std::thread::hardware_concurrency());
    context.wal_bytes = d.StoreCounter("store.wal_bytes") - wal_before;
    context.compactions = d.StoreCounter("store.compactions") -
                          compactions_before;
    context.untraced_msgs_per_s =
        plain.wall_s > 0 ? static_cast<double>(plain.msgs) / plain.wall_s : 0;
    PrintCache(*traced.runner, run);
    uint64_t traced_canary_hits = 0;
    Finish(&traced, &context, &traced_canary_hits, canary);
    PrintRunFacts("traced", run, traced_canary_hits);

    const std::vector<Span> spans = recorder.Collect();
    std::error_code ec;
    std::filesystem::create_directories(args.work_dir + "/spans", ec);
    const std::string span_path = args.work_dir + "/spans/" +
                                  WorkloadName(args.workload) + "-seed" +
                                  std::to_string(args.seed) + ".tsv";
    const bool written = recorder.WriteTsv(span_path);
    std::printf("spans %zu written=%s path=%s\n", spans.size(),
                written ? "true" : "false", span_path.c_str());
    std::printf(
        "note: server-side spans (srv.*, store.*) carry no trace context "
        "from the client, so they are aggregated per endpoint, not linked "
        "to the client span that caused them\n");

    attempted = plain.attempted + run.attempted + 2;
    failed = FailedOps(plain, canary_hits) + FailedOps(run, traced_canary_hits);
    correct = failed == 0;
    result_metrics = PerLayerMetrics(run, context, spans, recorder);
    for (const Metric& m : result_metrics) PrintMetric(m);
    // Only `ingest` runs the retention job, so its cost is printed here
    // rather than listed as a per-layer metric every workload must report.
    const Summary prune = Summarize(run.prune_us);
    if (prune.n > 0) PrintMetric({"store.prune_us", "us", prune.p50, prune.n});
  }

  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  std::printf("%s\n",
              ResultJson(correct, attempted, failed, result_metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
