#ifndef MWSIBE_WIRE_TRANSPORT_H_
#define MWSIBE_WIRE_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>

#include "src/util/bytes.h"
#include "src/util/result.h"

namespace mws::wire {

/// Synthetic network model. The paper's prototype ran four servers over
/// TCP on one host; we substitute an in-process transport with an
/// explicit latency/bandwidth model so experiments can account for (and
/// sweep) deployment network cost without real sockets or sleeps.
struct NetworkModel {
  /// One-way propagation delay per message, microseconds.
  int64_t latency_micros = 0;
  /// Serialization bandwidth; 0 = infinite.
  int64_t bytes_per_second = 0;

  /// Constrained-device uplink shapes used by the benches.
  static NetworkModel Loopback() { return {0, 0}; }
  static NetworkModel Lan() { return {200, 1'000'000'000 / 8}; }
  static NetworkModel Wan() { return {20'000, 100'000'000 / 8}; }
  /// GPRS-class link of a 2010 smart meter.
  static NetworkModel MeterUplink() { return {300'000, 40'000 / 8}; }
};

/// Traffic and simulated-time accounting for one transport. Counters are
/// atomics so concurrent Call()s (e.g. from the TcpServer worker pool)
/// can update them without a lock; readers see each field individually
/// consistent, not a cross-field snapshot.
struct TransportStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> request_bytes{0};
  std::atomic<uint64_t> response_bytes{0};
  /// Total modeled network time (both directions, all calls).
  std::atomic<int64_t> simulated_network_micros{0};
};

/// Request/response transport between clients and services. Handlers are
/// registered per endpoint name ("mws.deposit", "pkg.extract", ...).
class Transport {
 public:
  using Handler =
      std::function<util::Result<util::Bytes>(const util::Bytes& request)>;

  virtual ~Transport() = default;

  virtual util::Result<util::Bytes> Call(const std::string& endpoint,
                                         const util::Bytes& request) = 0;
};

/// In-process transport: dispatches to registered handlers, charging the
/// network model's cost to its stats counter.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(NetworkModel model = NetworkModel::Loopback())
      : model_(model) {}

  /// Registers `handler`; overwrites any previous registration. Not safe
  /// concurrently with Call(): register every endpoint before serving
  /// (the handler map is read lock-free on the hot path).
  void Register(const std::string& endpoint, Handler handler);

  /// Registers a typed service method: the handler decodes the request
  /// with `Request::Decode`, calls `(service->*method)`, and encodes the
  /// response. A decode or method error is returned unchanged, so the
  /// caller sees the method's own Status. `service` must outlive the
  /// transport's use.
  template <typename Service, typename Request, typename Response>
  void RegisterMethod(const std::string& endpoint, Service* service,
                      util::Result<Response> (Service::*method)(
                          const Request&)) {
    Register(endpoint,
             [service, method](
                 const util::Bytes& raw) -> util::Result<util::Bytes> {
               MWS_ASSIGN_OR_RETURN(Request request, Request::Decode(raw));
               MWS_ASSIGN_OR_RETURN(Response response,
                                    (service->*method)(request));
               return response.Encode();
             });
  }

  util::Result<util::Bytes> Call(const std::string& endpoint,
                                 const util::Bytes& request) override;

  const TransportStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.calls = 0;
    stats_.request_bytes = 0;
    stats_.response_bytes = 0;
    stats_.simulated_network_micros = 0;
  }
  const NetworkModel& model() const { return model_; }
  /// Not safe concurrently with Call(); set the model before serving.
  void set_model(const NetworkModel& model) { model_ = model; }

  /// When true, Call() sleeps for the modeled transfer time instead of
  /// only charging it to the stats — used by the concurrency benches to
  /// reproduce deployment latency on loopback, where overlapping that
  /// latency across dispatch workers is the effect under test. Set
  /// before serving (same rule as set_model).
  void set_realize_network(bool realize) { realize_network_ = realize; }

 private:
  /// Modeled one-way cost of sending `bytes`.
  int64_t TransferMicros(size_t bytes) const;

  NetworkModel model_;
  bool realize_network_ = false;
  TransportStats stats_;
  std::map<std::string, Handler> handlers_;
};

}  // namespace mws::wire

#endif  // MWSIBE_WIRE_TRANSPORT_H_
