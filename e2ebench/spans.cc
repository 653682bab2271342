#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace e2e {

namespace {

std::atomic<uint64_t> g_generation{1};

// The span open on this thread, and the tree it belongs to.
thread_local uint64_t t_current = 0;
thread_local uint64_t t_request = 0;

// This thread's buffer in the recorder with generation t_generation.
// Generations are never reused, so a recorder allocated at the address
// of a destroyed one cannot pick up a stale buffer.
thread_local uint64_t t_generation = 0;
thread_local std::vector<Span>* t_buffer = nullptr;

}  // namespace

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : generation_(g_generation.fetch_add(1)) {}

uint32_t SpanRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::vector<std::string> SpanRecorder::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_;
}

std::vector<Span>* SpanRecorder::ThreadBuffer() {
  if (t_generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 12);
    t_buffer = buffers_.back().get();
    t_generation = generation_;
  }
  return t_buffer;
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::vector<Span> spans = Collect();
  std::vector<std::string> names = Names();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\ta\tb\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.name < names.size() ? names[s.name].c_str() : "?", static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.a),
                 static_cast<unsigned long long>(s.b));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(SpanRecorder* recorder, uint32_t name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current;
  span_.request = t_current == 0 ? span_.id : t_request;
  saved_current_ = t_current;
  saved_request_ = t_request;
  t_current = span_.id;
  t_request = span_.request;
  span_.start_ns = SteadyNs();
}

SpanScope::~SpanScope() {
  if (recorder_ == nullptr) return;
  span_.end_ns = SteadyNs();
  t_current = saved_current_;
  t_request = saved_request_;
  recorder_->ThreadBuffer()->push_back(span_);
}

SpanTimes ComputeSpanTimes(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  SpanTimes out;
  out.self_ns.assign(n, 0);
  out.covered_ns.assign(n, 0);
  out.child_count.assign(n, 0);
  out.child_sum_ns.assign(n, 0);
  out.child_max_ns.assign(n, 0);

  std::unordered_map<uint64_t, size_t> index;
  index.reserve(n);
  for (size_t i = 0; i < n; ++i) index.emplace(spans[i].id, i);

  // Each parent's children, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(n);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const size_t p = it->second;
    const int64_t duration = s.end_ns - s.start_ns;
    out.child_count[p] += 1;
    out.child_sum_ns[p] += duration;
    out.child_max_ns[p] = std::max(out.child_max_ns[p], duration);
    const int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }

  for (size_t i = 0; i < n; ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (!open || lo > run_hi) {
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (open) covered += run_hi - run_lo;
    out.covered_ns[i] = covered;
    out.self_ns[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

}  // namespace e2e
