#ifndef MWSIBE_OBS_OP_H_
#define MWSIBE_OBS_OP_H_

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mws::obs {

/// The instruments a protocol service keeps per operation:
/// `<service>.requests{op}`, `<service>.errors{op}` and
/// `<service>.latency_us{op}`, plus the root span name
/// `<service>.<op>`. The instrument pointers are null when metrics are
/// disabled.
struct OpInstruments {
  Counter* requests = nullptr;
  Counter* errors = nullptr;
  Histogram* latency = nullptr;
  std::string root;

  /// `registry` may be null (instruments stay null).
  static OpInstruments Resolve(Registry* registry, const std::string& service,
                               const std::string& op) {
    OpInstruments out;
    out.root = service + "." + op;
    if (registry == nullptr) return out;
    out.requests = registry->GetCounter(service + ".requests", {{"op", op}});
    out.errors = registry->GetCounter(service + ".errors", {{"op", op}});
    out.latency =
        registry->GetHistogram(service + ".latency_us", {{"op", op}});
    return out;
  }

  /// Runs one operation under these instruments: times it into
  /// `latency`, opens the root span (inert without a tracer), passes
  /// that span to `body` for its stage children, and counts the
  /// outcome. Returns `body`'s result unchanged.
  template <typename Body>
  auto Run(Tracer* tracer, Body&& body) const {
    ScopedTimer timer(latency);
    Span span = Tracer::MaybeStartTrace(tracer, root);
    auto result = body(span);
    if (requests != nullptr) requests->Increment();
    if (errors != nullptr && !result.ok()) errors->Increment();
    return result;
  }
};

}  // namespace mws::obs

#endif  // MWSIBE_OBS_OP_H_
