#include "report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <numeric>

#include "stats.h"

namespace e2e {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Span durations/self times grouped by span name.
class SpanIndex {
 public:
  SpanIndex(const std::vector<Span>& spans, const SpanRecorder& recorder)
      : spans_(spans), times_(ComputeSpanTimes(spans)) {
    const std::vector<std::string> names = recorder.Names();
    for (size_t i = 0; i < spans.size(); ++i) {
      by_name_[names[spans[i].name]].push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) parent_of_[spans[i].id] = i;
    names_ = names;
  }

  const std::vector<size_t>& Of(const std::string& name) const {
    static const std::vector<size_t> kEmpty;
    auto it = by_name_.find(name);
    return it == by_name_.end() ? kEmpty : it->second;
  }
  /// Every span whose name is "<any prefix>:<endpoint>" with the given
  /// prefix family (e.g. "conn." matches conn.shard0 and conn.pkg).
  std::vector<size_t> OfFamily(const std::string& family,
                               const std::string& endpoint) const {
    std::vector<size_t> out;
    for (const auto& [name, idx] : by_name_) {
      const size_t colon = name.find(':');
      if (colon == std::string::npos) continue;
      if (name.compare(0, family.size(), family) != 0) continue;
      if (name.substr(colon + 1) != endpoint) continue;
      out.insert(out.end(), idx.begin(), idx.end());
    }
    return out;
  }
  std::vector<size_t> OfFamilyAll(const std::string& family) const {
    std::vector<size_t> out;
    for (const auto& [name, idx] : by_name_) {
      if (name.compare(0, family.size(), family) != 0) continue;
      out.insert(out.end(), idx.begin(), idx.end());
    }
    return out;
  }

  double DurationUs(size_t i) const {
    return static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
  }
  double SelfUs(size_t i) const {
    return static_cast<double>(times_.self_ns[i]) / 1e3;
  }
  double CoveredUs(size_t i) const {
    return static_cast<double>(times_.covered_ns[i]) / 1e3;
  }
  const SpanTimes& times() const { return times_; }
  const Span& span(size_t i) const { return spans_[i]; }
  /// Name of the parent span of `i` ("" for roots).
  std::string ParentName(size_t i) const {
    auto it = parent_of_.find(spans_[i].parent);
    return it == parent_of_.end() ? "" : names_[spans_[it->second].name];
  }

  std::vector<double> Durations(const std::vector<size_t>& idx) const {
    std::vector<double> out;
    for (size_t i : idx) out.push_back(DurationUs(i));
    return out;
  }
  std::vector<double> Selves(const std::vector<size_t>& idx) const {
    std::vector<double> out;
    for (size_t i : idx) out.push_back(SelfUs(i));
    return out;
  }
  double SumUs(const std::vector<size_t>& idx) const {
    double total = 0;
    for (size_t i : idx) total += DurationUs(i);
    return total;
  }

 private:
  const std::vector<Span>& spans_;
  SpanTimes times_;
  std::vector<std::string> names_;
  std::map<std::string, std::vector<size_t>> by_name_;
  std::map<uint64_t, size_t> parent_of_;
};

Metric P50(const std::string& name, const std::string& unit,
           const std::vector<double>& samples) {
  Summary s = Summarize(samples);
  return {name, unit, s.p50, s.n};
}

Metric P99(const std::string& name, const std::string& unit,
           const std::vector<double>& samples) {
  Summary s = Summarize(samples);
  return {name, unit, s.p99, s.n};
}

Metric Mean(const std::string& name, const std::string& unit,
            const std::vector<double>& samples) {
  Summary s = Summarize(samples);
  return {name, unit, s.mean, s.n};
}

// The end-to-end figures are medians over this many equal time windows
// of the measured phase: interference from outside the benchmark (other
// tenants of the host) that hits part of a run moves the median window
// much less than it moves a whole-run percentile or mean.
constexpr size_t kWindows = 5;

std::vector<std::vector<double>> ByWindow(const TimedSamples& samples,
                                          const RunResult& run) {
  std::vector<std::vector<double>> windows(kWindows);
  const double span_ns = run.wall_s * 1e9 / kWindows;
  for (size_t i = 0; i < samples.values.size(); ++i) {
    const double offset = static_cast<double>(samples.at_ns[i] - run.start_ns);
    const size_t w = std::min(
        kWindows - 1, static_cast<size_t>(std::max(0.0, offset / span_ns)));
    windows[w].push_back(samples.values[i]);
  }
  return windows;
}

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

/// Median over the windows of each window's q-quantile.
Metric WindowedQuantile(const std::string& name, const TimedSamples& samples,
                        const RunResult& run, double q) {
  std::vector<double> per_window;
  for (std::vector<double>& w : ByWindow(samples, run)) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(QuantileSorted(w, q));
  }
  return {name, "ms", MedianOf(per_window), samples.values.size()};
}

/// Median over the windows of each window's completions per second.
Metric WindowedRate(const std::string& name, const RunResult& run) {
  std::vector<double> per_window;
  const double span_s = run.wall_s / kWindows;
  for (const std::vector<double>& w : ByWindow(run.completions, run)) {
    per_window.push_back(
        Ratio(std::accumulate(w.begin(), w.end(), 0.0), span_s));
  }
  return {name, "1/s", MedianOf(per_window), run.msgs};
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const RunResult& run,
                                    const RunContext& context) {
  // CPU times, not wall-clock times, and scaled to the reference host's
  // speed: time the host gives other guests does not count, and a host
  // that runs everything slower (the calibration bursts taken meanwhile
  // too) is divided out.
  return {
      // Whole-process CPU time (services, clients and generator) per
      // message.
      {"cpu_ms_per_msg", "ms",
       Ratio(context.program_cpu_s * 1e3, static_cast<double>(run.msgs)) /
           context.slowdown,
       run.msgs},
      {"setup_s", "s", context.setup_s, 1},
      {"peak_rss_mb", "MB", context.peak_rss_mb, 1},
  };
}

std::vector<Metric> ReportedMetrics(const RunResult& run, uint64_t attempted,
                                    uint64_t failed) {
  return {
      WindowedRate("msgs_per_s", run),
      WindowedQuantile("deposit_p50_ms", run.deposit_ms, run, 0.50),
      WindowedQuantile("deposit_p99_ms", run.deposit_ms, run, 0.99),
      WindowedQuantile("fetch_p50_ms", run.fetch_ms, run, 0.50),
      WindowedQuantile("fetch_p95_ms", run.fetch_ms, run, 0.95),
      WindowedQuantile("delivery_p50_ms", run.delivery_ms, run, 0.50),
      WindowedQuantile("delivery_p99_ms", run.delivery_ms, run, 0.99),
      {"fail_ratio", "ratio",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       attempted},
  };
}

uint64_t FailedOps(const RunResult& run, uint64_t canary_hits) {
  return run.op_errors + run.mismatched + run.missing + run.duplicate +
         run.unexpected + run.not_run + canary_hits;
}

std::vector<Metric> PerLayerMetrics(const RunResult& run,
                                    const RunContext& context,
                                    const std::vector<Span>& all_spans,
                                    const SpanRecorder& recorder) {
  // Set-up spans are left out, except the seals: `ingest` and `drain`
  // seal only during set-up. Spans after the measured phase are the
  // post-run verification fetch of `ingest`, the only extraction it runs.
  std::vector<Span> spans;
  for (const Span& s : all_spans) {
    if (s.start_ns >= run.start_ns) spans.push_back(s);
  }
  const int64_t end_ns =
      run.start_ns + static_cast<int64_t>(run.wall_s * 1e9);
  const SpanIndex index(spans, recorder);
  std::vector<Metric> out;
  const double keys = static_cast<double>(run.keys_extracted);
  const double msgs = static_cast<double>(run.msgs);
  auto durations = [&](std::initializer_list<std::string> names) {
    std::vector<double> values;
    for (const std::string& name : names) {
      const auto d = index.Durations(index.Of(name));
      values.insert(values.end(), d.begin(), d.end());
    }
    return values;
  };

  // --- client ---
  {
    // A seal is SmartDevice::BuildDeposit during set-up, or the self time
    // of DepositMessage (seal and MAC stamp) in `mixed`.
    std::vector<double> seal;
    const auto names = recorder.Names();
    for (const Span& s : all_spans) {
      if (names[s.name] == "client.seal") {
        seal.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    if (context.workload == Workload::kMixed) {
      seal = index.Selves(index.Of("client.deposit"));
    }
    out.push_back(P50("client.seal_us", "us", seal));
    out.push_back(P50("client.rc_auth_us", "us", durations({"client.rc_auth"})));
    out.push_back(
        P50("client.pkg_auth_us", "us", durations({"client.pkg_auth"})));
    out.push_back(
        P50("client.retrieve_us", "us", durations({"client.retrieve"})));
    // Extraction: single-shot RequestKey spans, plus the PKG calls
    // DecryptAll makes through the router; decryption: DecryptMessage
    // spans plus DecryptAll's self time. The pairing share counts the
    // measured phase only.
    double extract_us = index.SumUs(index.Of("client.extract"));
    double decrypt_us = index.SumUs(index.Of("client.decrypt"));
    double phase_extract_us = extract_us;
    double phase_decrypt_us = decrypt_us;
    for (size_t i : index.Of("router:pkg.extract_batch")) {
      if (index.ParentName(i) != "client.decrypt_all") continue;
      extract_us += index.DurationUs(i);
      if (index.span(i).start_ns < end_ns) {
        phase_extract_us += index.DurationUs(i);
      }
    }
    for (size_t i : index.Of("client.decrypt_all")) {
      decrypt_us += index.SelfUs(i);
      if (index.span(i).start_ns < end_ns) phase_decrypt_us += index.SelfUs(i);
    }
    double fetch_us = 0;
    size_t fetches = 0;
    for (size_t i : index.Of("client.fetch")) {
      if (index.span(i).start_ns >= end_ns) continue;
      fetch_us += index.DurationUs(i);
      ++fetches;
    }
    out.push_back({"client.extract_us_per_msg", "us", Ratio(extract_us, keys),
                   run.keys_extracted});
    out.push_back({"client.decrypt_us_per_msg", "us", Ratio(decrypt_us, keys),
                   run.keys_extracted});
    out.push_back({"client.pairing_share", "ratio",
                   Ratio(phase_extract_us + phase_decrypt_us, fetch_us),
                   fetches});
  }

  // --- wire ---
  // Endpoints by role, so every figure is measured on every workload.
  struct Role {
    const char* name;
    const char* family;  // connection span prefix
    const char* server;  // server span prefix
    std::vector<std::string> endpoints;
  };
  const std::vector<Role> roles = {
      {"deposit", "conn.shard", "srv.mws", {"mws.deposit", "mws.deposit_batch"}},
      {"auth", "conn.shard", "srv.mws", {"mws.auth"}},
      {"retrieve", "conn.shard", "srv.mws", {"mws.retrieve", "mws.retrieve_chunk"}},
      {"pkg_auth", "conn.pkg", "srv.pkg", {"pkg.auth"}},
      {"extract", "conn.pkg", "srv.pkg", {"pkg.extract", "pkg.extract_batch"}},
  };
  auto conn_spans = [&](const Role& role) {
    std::vector<size_t> idx;
    for (const std::string& ep : role.endpoints) {
      const auto part = index.OfFamily(role.family, ep);
      idx.insert(idx.end(), part.begin(), part.end());
    }
    return idx;
  };
  for (const Role& role : roles) {
    out.push_back(P50(std::string("wire.rtt_us.") + role.name, "us",
                      index.Durations(conn_spans(role))));
  }
  out.push_back(P99("wire.rtt_p99_us.deposit", "us",
                    index.Durations(conn_spans(roles[0]))));
  // 1 - server handler time / client round trip. Server spans are not
  // linked to client spans, so both sides are summed per role.
  for (const Role& role : roles) {
    const auto client = conn_spans(role);
    double handler_us = 0;
    for (const std::string& ep : role.endpoints) {
      handler_us += index.SumUs(index.Of(std::string(role.server) + ":" + ep));
    }
    const double rtt = index.SumUs(client);
    out.push_back({std::string("wire.overhead_share.") + role.name, "ratio",
                   rtt > 0 ? 1.0 - handler_us / rtt : 0, client.size()});
  }
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  for (size_t i : index.OfFamilyAll("conn.")) {
    if (index.span(i).start_ns >= end_ns) continue;
    request_bytes += index.span(i).a;
    response_bytes += index.span(i).b;
  }
  out.push_back({"wire.request_bytes_per_msg", "B",
                 Ratio(static_cast<double>(request_bytes), msgs), run.msgs});
  out.push_back({"wire.response_bytes_per_msg", "B",
                 Ratio(static_cast<double>(response_bytes), msgs), run.msgs});
  out.push_back({"tcp.shed_requests", "count",
                 static_cast<double>(context.shed_requests), 1});
  out.push_back({"wire.reconnects", "count",
                 static_cast<double>(context.reconnects), 1});

  // --- router ---
  auto router_spans = [&](const Role& role) {
    std::vector<size_t> idx;
    for (const std::string& ep : role.endpoints) {
      const auto& part = index.Of("router:" + ep);
      idx.insert(idx.end(), part.begin(), part.end());
    }
    return idx;
  };
  // What parallel fan-out could save: sum of the children minus the
  // longest child, per router call.
  auto serial_us = [&](size_t i) {
    return static_cast<double>(index.times().child_sum_ns[i] -
                               index.times().child_max_ns[i]) /
           1e3;
  };
  for (size_t r = 0; r < 3; ++r) {
    out.push_back(P50(std::string("router.self_us.") + roles[r].name, "us",
                      index.Selves(router_spans(roles[r]))));
  }
  for (size_t r = 1; r < 3; ++r) {
    std::vector<double> serial;
    for (size_t i : router_spans(roles[r])) serial.push_back(serial_us(i));
    out.push_back(Mean(std::string("router.fanout_serial_us.") + roles[r].name,
                       "us", serial));
  }
  {
    // The router's auth and retrieval calls happen only inside fetches.
    double serial = 0;
    for (size_t r = 1; r < 3; ++r) {
      for (size_t i : router_spans(roles[r])) {
        if (index.span(i).start_ns < end_ns) serial += serial_us(i);
      }
    }
    double fetch_us = 0;
    size_t fetches = 0;
    for (size_t i : index.Of("client.fetch")) {
      if (index.span(i).start_ns >= end_ns) continue;
      fetch_us += index.DurationUs(i);
      ++fetches;
    }
    out.push_back({"router.fanout_serial_share_of_fetch", "ratio",
                   Ratio(serial, fetch_us), fetches});
  }
  for (size_t r = 0; r < 3; ++r) {
    std::vector<double> subcalls;
    for (size_t i : router_spans(roles[r])) {
      subcalls.push_back(index.times().child_count[i]);
    }
    out.push_back(Mean(std::string("router.subcalls_per_call.") + roles[r].name,
                       "count", subcalls));
  }
  {
    const double total = std::accumulate(run.shard_items.begin(),
                                         run.shard_items.end(), 0.0);
    const double peak = static_cast<double>(
        *std::max_element(run.shard_items.begin(), run.shard_items.end()));
    out.push_back({"router.shard_skew", "ratio",
                   Ratio(peak, total / static_cast<double>(kShards)),
                   static_cast<size_t>(total)});
  }

  // --- services ---
  for (size_t r = 0; r < roles.size(); ++r) {
    const Role& role = roles[r];
    std::vector<double> handler;
    for (const std::string& ep : role.endpoints) {
      const auto d =
          index.Durations(index.Of(std::string(role.server) + ":" + ep));
      handler.insert(handler.end(), d.begin(), d.end());
    }
    const std::string service = r < 3 ? "mws" : "pkg";
    const std::string op = r == 3 ? "auth" : role.name;
    out.push_back(P50(service + ".handler_us." + op, "us", handler));
  }
  out.push_back({"pkg.extract_us_per_key", "us",
                 Ratio(index.SumUs(index.Of("srv.pkg:pkg.extract")) +
                           index.SumUs(index.Of("srv.pkg:pkg.extract_batch")),
                       keys),
                 run.keys_extracted});

  // --- store ---
  out.push_back(P50("store.put_us", "us", durations({"store.put"})));
  // Writes of either shape; compaction stalls land in this tail.
  out.push_back(P99("store.write_p99_us", "us",
                    durations({"store.put", "store.put_batch"})));
  {
    // Retrieval scans only: the retention job's scans are excluded.
    std::vector<size_t> scans;
    for (const char* name : {"store.scan", "store.scan_keys"}) {
      for (size_t i : index.Of(name)) {
        if (index.ParentName(i) != "admin.prune") scans.push_back(i);
      }
    }
    uint64_t rows = 0;
    for (size_t i : scans) rows += index.span(i).a;
    out.push_back(P50("store.scan_us", "us", index.Durations(scans)));
    out.push_back({"store.rows_scanned_per_result", "ratio",
                   Ratio(static_cast<double>(rows),
                         static_cast<double>(run.retrieved)),
                   run.retrieved});
  }
  out.push_back({"store.wal_bytes_per_payload_byte", "ratio",
                 Ratio(static_cast<double>(context.wal_bytes),
                       static_cast<double>(run.payload_bytes_acked)),
                 run.payload_bytes_acked / kPayloadBytes});
  out.push_back({"store.disk_bytes_per_live_payload_byte", "ratio",
                 Ratio(static_cast<double>(context.disk_bytes),
                       static_cast<double>(context.live_messages *
                                           kPayloadBytes)),
                 context.live_messages});
  out.push_back({"store.compactions", "count",
                 static_cast<double>(context.compactions), 1});

  // --- process ---
  out.push_back({"proc.cpu_busy_share", "ratio",
                 Ratio(run.cpu_s,
                       run.wall_s * static_cast<double>(context.nproc)),
                 1});
  out.push_back(P99("bench.generator_lag_p99_ms", "ms", run.lag_ms));
  {
    // Share of client root spans' time that their child spans cover.
    double covered = 0;
    double total = 0;
    size_t n = 0;
    for (const char* root :
         {"client.fetch", "client.deposit", "client.deposit_batch"}) {
      for (size_t i : index.Of(root)) {
        covered += index.CoveredUs(i);
        total += index.DurationUs(i);
        ++n;
      }
    }
    out.push_back({"trace.client_coverage", "ratio", Ratio(covered, total), n});
  }
  const double traced = Ratio(msgs, run.wall_s);
  out.push_back({"trace.overhead_pct", "%",
                 context.untraced_msgs_per_s > 0
                     ? 100.0 * (context.untraced_msgs_per_s - traced) /
                           context.untraced_msgs_per_s
                     : 0,
                 run.msgs});
  return out;
}

void PrintMetric(const Metric& metric) {
  std::printf("metric %-44s %14.6g %-6s n=%zu\n", metric.name.c_str(),
              metric.value, metric.unit.c_str(), metric.samples);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                attempted, failed);
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace e2e
