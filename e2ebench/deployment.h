#ifndef MWSIBE_E2EBENCH_DEPLOYMENT_H_
#define MWSIBE_E2EBENCH_DEPLOYMENT_H_

// The benchmark's topology, all in one process: two MWS shards, each a
// persistent store::KvStore + mws::MwsService behind its own
// wire::TcpServer, one pkg::PkgService behind its own TcpServer, and a
// client-side wire::ShardRouter holding one shared
// PipelinedTcpClientTransport per shard plus one to the PKG. The control
// plane is replicated onto both shards in the same order, as
// sim::ShardedWarehouse does it.
//
// With a SpanRecorder the deployment also installs the traced run's
// decorators: a transport wrapper around the router as clients see it,
// around each router child and around the PKG connection; a front
// InProcessTransport per TcpServer whose handlers time the call into the
// service's own transport; and a store::Table wrapper around each
// shard's KvStore.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "src/mws/mws_service.h"
#include "src/obs/metrics.h"
#include "src/pkg/pkg_service.h"
#include "src/store/kvstore.h"
#include "src/util/clock.h"
#include "src/util/random.h"
#include "src/wire/pipeline.h"
#include "src/wire/router.h"
#include "src/wire/tcp.h"

namespace e2e {

constexpr size_t kShards = 2;
constexpr int kServerWorkers = 4;
constexpr int kRsaBits = 768;

/// kEpochMicros + steady time elapsed since construction.
class BenchClock : public mws::util::Clock {
 public:
  BenchClock();
  int64_t NowMicros() const override;
  /// The protocol timestamp that corresponds to steady instant `ns`.
  int64_t MicrosAtSteadyNs(int64_t ns) const;

 private:
  int64_t start_ns_;
};

/// Times every Call into `inner` as a span named "<prefix>:<endpoint>",
/// with request/response bytes as the span counters.
class TracedTransport : public mws::wire::Transport {
 public:
  TracedTransport(mws::wire::Transport* inner, SpanRecorder* recorder,
                  std::string prefix);
  mws::util::Result<mws::util::Bytes> Call(
      const std::string& endpoint, const mws::util::Bytes& request) override;

 private:
  uint32_t NameFor(const std::string& endpoint);

  mws::wire::Transport* inner_;
  SpanRecorder* recorder_;
  std::string prefix_;
  /// Pre-interned names of the protocol endpoints.
  std::vector<std::pair<std::string, uint32_t>> names_;
};

/// Times the writes and scans on `inner` as "store.<op>" spans (point
/// reads and deletes pass through untimed: they are the bulk of the calls
/// and no metric needs them). Scans record the rows they returned as span
/// counter `a`, batches their entry count.
class TracedTable : public mws::store::Table {
 public:
  TracedTable(mws::store::Table* inner, SpanRecorder* recorder);

  mws::util::Status Put(const std::string& key,
                        const mws::util::Bytes& value) override;
  mws::util::Status PutBatch(
      const std::vector<std::pair<std::string, mws::util::Bytes>>& entries)
      override;
  mws::util::Result<mws::util::Bytes> Get(
      const std::string& key) const override;
  mws::util::Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  std::vector<std::pair<std::string, mws::util::Bytes>> Scan(
      const std::string& prefix) const override;
  std::vector<std::string> ScanKeys(const std::string& prefix) const override;
  size_t CountPrefix(const std::string& prefix) const override;
  size_t Size() const override;
  mws::util::Status Flush() override;

 private:
  mws::store::Table* inner_;
  SpanRecorder* recorder_;
  uint32_t put_, put_batch_, scan_, scan_keys_;
};

class Deployment {
 public:
  struct Options {
    /// Directory for the shard stores; must exist and be empty.
    std::string dir;
    uint64_t seed = 1;
    /// KvStore auto-compaction threshold (0 = manual only).
    size_t compact_threshold_bytes = 0;
    /// Non-null for the traced run; must outlive the deployment.
    SpanRecorder* recorder = nullptr;
  };

  static mws::util::Result<std::unique_ptr<Deployment>> Create(
      const Options& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // --- Replicated control plane (set-up only) ---
  mws::util::Status RegisterDevice(const std::string& id,
                                   const mws::util::Bytes& mac_key);
  mws::util::Status RegisterReceiver(const std::string& name,
                                     const std::string& password,
                                     const mws::util::Bytes& rsa_public_key);
  /// Grants on every shard; fails if the shards hand out different AIDs.
  mws::util::Status Grant(const std::string& name,
                          const std::string& attribute);

  /// Retention: prunes shard-local ids <= `local_max` on shard `shard`.
  mws::util::Result<size_t> Prune(size_t shard, uint64_t local_max);

  /// Stops the clients and servers and closes the stores (flushing their
  /// WAL buffers). Every accessor below except ShardPath and DiskBytes is
  /// invalid afterwards. Idempotent.
  void Shutdown();

  /// The transport clients use: the router (traced when recording).
  mws::wire::Transport* client_transport() { return client_view_; }
  const mws::ibe::SystemParams& params() const {
    return pkg_->PublicParams();
  }
  BenchClock& clock() { return clock_; }
  /// Null outside the traced run.
  SpanRecorder* recorder() const { return options_.recorder; }
  mws::pkg::PkgService& pkg() { return *pkg_; }
  mws::mws::MwsService& shard_mws(size_t i) { return *shards_[i].mws; }
  std::string ShardPath(size_t i) const;
  /// Requests shed by any TcpServer, reconnects of any client connection.
  uint64_t ShedRequests() const;
  uint64_t Reconnects() const;
  /// A KvStore counter (store.wal_bytes, store.compactions) summed over
  /// shards; 0 outside the traced run.
  uint64_t StoreCounter(const std::string& name);
  /// Total bytes of every file in the store directory.
  uint64_t DiskBytes() const;

 private:
  struct Shard {
    std::unique_ptr<mws::util::DeterministicRandom> rng;
    std::unique_ptr<mws::store::KvStore> store;
    std::unique_ptr<TracedTable> traced_store;
    std::unique_ptr<mws::mws::MwsService> mws;
    std::unique_ptr<mws::wire::InProcessTransport> service;
    std::unique_ptr<mws::wire::InProcessTransport> front;
    std::unique_ptr<mws::wire::TcpServer> server;
    std::unique_ptr<mws::wire::PipelinedTcpClientTransport> connection;
    std::unique_ptr<TracedTransport> traced_connection;
  };

  explicit Deployment(const Options& options);
  /// Starts a TcpServer for `service`, fronted by a timing transport
  /// when recording.
  mws::util::Status Serve(mws::wire::InProcessTransport* service,
                          const std::vector<std::string>& endpoints,
                          const std::string& label,
                          std::unique_ptr<mws::wire::InProcessTransport>* front,
                          std::unique_ptr<mws::wire::TcpServer>* server);

  Options options_;
  BenchClock clock_;
  mws::util::DeterministicRandom admin_rng_;
  mws::util::DeterministicRandom pkg_rng_;
  mws::obs::Registry store_metrics_;
  mws::util::Bytes mws_pkg_key_;
  std::array<Shard, kShards> shards_;

  std::unique_ptr<mws::pkg::PkgService> pkg_;
  std::unique_ptr<mws::wire::InProcessTransport> pkg_service_;
  std::unique_ptr<mws::wire::InProcessTransport> pkg_front_;
  std::unique_ptr<mws::wire::TcpServer> pkg_server_;
  std::unique_ptr<mws::wire::PipelinedTcpClientTransport> pkg_connection_;
  std::unique_ptr<TracedTransport> traced_pkg_;

  std::unique_ptr<mws::wire::ShardRouter> router_;
  std::unique_ptr<TracedTransport> traced_router_;
  mws::wire::Transport* client_view_ = nullptr;
  bool shut_down_ = false;
};

/// Endpoint names the services register.
const std::vector<std::string>& MwsEndpoints();
const std::vector<std::string>& PkgEndpoints();

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_DEPLOYMENT_H_
