#ifndef MWSIBE_E2EBENCH_SPANS_H_
#define MWSIBE_E2EBENCH_SPANS_H_

// In-memory span recording for the traced benchmark run, and the
// self-time / coverage arithmetic over a recorded span tree.
//
// Spans are opened only by the benchmark's own decorators around calls
// into the program's public functions. A span's parent is the span that
// was open on the same thread when it started, so a client step, the
// router call it makes and the router's per-shard sub-calls form one
// tree. Server-side spans run on TcpServer worker threads and start
// their own trees: nothing on the wire links them to the client span
// that caused them.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

struct Span {
  uint32_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // id of the root span of this tree
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
  /// Free per-span counters: request/response bytes for transport
  /// spans, rows returned for store scans.
  uint64_t a = 0;
  uint64_t b = 0;
};

int64_t SteadyNs();

/// Collects spans from any number of threads. Each thread appends to its
/// own buffer; Collect() merges them and must run after every recording
/// thread has finished.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint32_t Intern(const std::string& name);
  /// Every interned name, indexed by id.
  std::vector<std::string> Names() const;

  std::vector<Span> Collect() const;
  /// Writes one tab-separated line per span (id, parent, request, name,
  /// start_ns, end_ns, a, b). Returns false on an IO error.
  bool WriteTsv(const std::string& path) const;

 private:
  friend class SpanScope;
  std::vector<Span>* ThreadBuffer();

  const uint64_t generation_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span. A null recorder makes every operation a no-op, so the
/// untraced run pays one branch per decorated call.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, uint32_t name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_counters(uint64_t a, uint64_t b) {
    span_.a = a;
    span_.b = b;
  }

 private:
  SpanRecorder* recorder_;
  Span span_;
  uint64_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
};

/// Per-span figures derived from the tree.
struct SpanTimes {
  /// Duration minus the part of [start, end) that child spans cover.
  std::vector<int64_t> self_ns;
  /// Length of the union of the children's intervals, clipped to the
  /// parent.
  std::vector<int64_t> covered_ns;
  std::vector<uint32_t> child_count;
  std::vector<int64_t> child_sum_ns;
  std::vector<int64_t> child_max_ns;
};

/// Aligned with `spans`. Children whose parent is not in `spans` are
/// ignored.
SpanTimes ComputeSpanTimes(const std::vector<Span>& spans);

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_SPANS_H_
