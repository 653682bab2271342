#include "deployment.h"

#include <filesystem>
#include <utility>

#include "inputs.h"
#include "src/math/params.h"
#include "src/wire/auth.h"

namespace e2e {

using mws::util::Bytes;
using mws::util::Result;
using mws::util::Status;

const std::vector<std::string>& MwsEndpoints() {
  static const std::vector<std::string> kEndpoints = {
      "mws.deposit", "mws.deposit_batch", "mws.auth", "mws.retrieve",
      "mws.retrieve_chunk"};
  return kEndpoints;
}

const std::vector<std::string>& PkgEndpoints() {
  static const std::vector<std::string> kEndpoints = {
      "pkg.auth", "pkg.extract", "pkg.extract_batch"};
  return kEndpoints;
}

BenchClock::BenchClock() : start_ns_(SteadyNs()) {}

int64_t BenchClock::NowMicros() const {
  return MicrosAtSteadyNs(SteadyNs());
}

int64_t BenchClock::MicrosAtSteadyNs(int64_t ns) const {
  return kEpochMicros + (ns - start_ns_) / 1000;
}

TracedTransport::TracedTransport(mws::wire::Transport* inner,
                                 SpanRecorder* recorder, std::string prefix)
    : inner_(inner), recorder_(recorder), prefix_(std::move(prefix)) {
  for (const auto* list : {&MwsEndpoints(), &PkgEndpoints()}) {
    for (const std::string& endpoint : *list) {
      names_.emplace_back(endpoint,
                          recorder_->Intern(prefix_ + ":" + endpoint));
    }
  }
}

uint32_t TracedTransport::NameFor(const std::string& endpoint) {
  for (const auto& [name, id] : names_) {
    if (name == endpoint) return id;
  }
  return recorder_->Intern(prefix_ + ":" + endpoint);
}

Result<Bytes> TracedTransport::Call(const std::string& endpoint,
                                    const Bytes& request) {
  SpanScope span(recorder_, NameFor(endpoint));
  Result<Bytes> response = inner_->Call(endpoint, request);
  span.set_counters(request.size(),
                    response.ok() ? response.value().size() : 0);
  return response;
}

TracedTable::TracedTable(mws::store::Table* inner, SpanRecorder* recorder)
    : inner_(inner),
      recorder_(recorder),
      put_(recorder->Intern("store.put")),
      put_batch_(recorder->Intern("store.put_batch")),
      scan_(recorder->Intern("store.scan")),
      scan_keys_(recorder->Intern("store.scan_keys")) {}

Status TracedTable::Put(const std::string& key, const Bytes& value) {
  SpanScope span(recorder_, put_);
  return inner_->Put(key, value);
}

Status TracedTable::PutBatch(
    const std::vector<std::pair<std::string, Bytes>>& entries) {
  SpanScope span(recorder_, put_batch_);
  span.set_counters(entries.size(), 0);
  return inner_->PutBatch(entries);
}

Result<Bytes> TracedTable::Get(const std::string& key) const {
  return inner_->Get(key);
}

Status TracedTable::Delete(const std::string& key) {
  return inner_->Delete(key);
}

bool TracedTable::Contains(const std::string& key) const {
  return inner_->Contains(key);
}

std::vector<std::pair<std::string, Bytes>> TracedTable::Scan(
    const std::string& prefix) const {
  SpanScope span(recorder_, scan_);
  auto rows = inner_->Scan(prefix);
  span.set_counters(rows.size(), 0);
  return rows;
}

std::vector<std::string> TracedTable::ScanKeys(
    const std::string& prefix) const {
  SpanScope span(recorder_, scan_keys_);
  auto keys = inner_->ScanKeys(prefix);
  span.set_counters(keys.size(), 0);
  return keys;
}

size_t TracedTable::CountPrefix(const std::string& prefix) const {
  return inner_->CountPrefix(prefix);
}

size_t TracedTable::Size() const { return inner_->Size(); }

Status TracedTable::Flush() { return inner_->Flush(); }

Deployment::Deployment(const Options& options)
    : options_(options),
      admin_rng_(Mix(options.seed, 7001)),
      pkg_rng_(Mix(options.seed, 7002)) {}

Deployment::~Deployment() { Shutdown(); }

std::string Deployment::ShardPath(size_t i) const {
  return options_.dir + "/shard" + std::to_string(i) + ".kv";
}

Status Deployment::Serve(
    mws::wire::InProcessTransport* service,
    const std::vector<std::string>& endpoints, const std::string& label,
    std::unique_ptr<mws::wire::InProcessTransport>* front,
    std::unique_ptr<mws::wire::TcpServer>* server) {
  mws::wire::InProcessTransport* backend = service;
  if (options_.recorder != nullptr) {
    *front = std::make_unique<mws::wire::InProcessTransport>();
    for (const std::string& endpoint : endpoints) {
      const uint32_t name = options_.recorder->Intern(label + ":" + endpoint);
      SpanRecorder* recorder = options_.recorder;
      (*front)->Register(endpoint, [service, recorder, name, endpoint](
                                       const Bytes& request) {
        SpanScope span(recorder, name);
        return service->Call(endpoint, request);
      });
    }
    backend = front->get();
  }
  mws::wire::TcpServer::Options server_options;
  server_options.worker_threads = kServerWorkers;
  auto started = mws::wire::TcpServer::Start(backend, 0, server_options);
  if (!started.ok()) return started.status();
  *server = std::move(started).value();
  return Status::Ok();
}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const Options& options) {
  auto d = std::unique_ptr<Deployment>(new Deployment(options));
  SpanRecorder* recorder = options.recorder;
  d->mws_pkg_key_ = d->admin_rng_.Generate(32);

  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = d->shards_[i];
    shard.rng = std::make_unique<mws::util::DeterministicRandom>(
        Mix(options.seed, 7100 + i));
    auto store = mws::store::KvStore::Open(
        {.path = d->ShardPath(i),
         .metrics = recorder != nullptr ? &d->store_metrics_ : nullptr,
         .compact_threshold_bytes = options.compact_threshold_bytes});
    if (!store.ok()) return store.status();
    shard.store = std::move(store).value();
    mws::store::Table* table = shard.store.get();
    if (recorder != nullptr) {
      shard.traced_store = std::make_unique<TracedTable>(table, recorder);
      table = shard.traced_store.get();
    }
    shard.mws = std::make_unique<mws::mws::MwsService>(
        table, d->mws_pkg_key_, &d->clock_, shard.rng.get());
    shard.service = std::make_unique<mws::wire::InProcessTransport>();
    shard.mws->RegisterEndpoints(shard.service.get());
    MWS_RETURN_IF_ERROR(d->Serve(shard.service.get(), MwsEndpoints(),
                                 "srv.mws", &shard.front, &shard.server));
    shard.connection = std::make_unique<mws::wire::PipelinedTcpClientTransport>(
        "127.0.0.1", shard.server->port());
  }

  d->pkg_ = std::make_unique<mws::pkg::PkgService>(
      mws::math::GetParams(mws::math::ParamPreset::kTest), d->mws_pkg_key_,
      &d->clock_, &d->pkg_rng_);
  d->pkg_service_ = std::make_unique<mws::wire::InProcessTransport>();
  d->pkg_->RegisterEndpoints(d->pkg_service_.get());
  MWS_RETURN_IF_ERROR(d->Serve(d->pkg_service_.get(), PkgEndpoints(),
                               "srv.pkg", &d->pkg_front_, &d->pkg_server_));
  d->pkg_connection_ = std::make_unique<mws::wire::PipelinedTcpClientTransport>(
      "127.0.0.1", d->pkg_server_->port());

  std::vector<mws::wire::Transport*> children;
  mws::wire::Transport* control = d->pkg_connection_.get();
  if (recorder != nullptr) {
    for (size_t i = 0; i < kShards; ++i) {
      Shard& shard = d->shards_[i];
      shard.traced_connection = std::make_unique<TracedTransport>(
          shard.connection.get(), recorder, "conn.shard" + std::to_string(i));
      children.push_back(shard.traced_connection.get());
    }
    d->traced_pkg_ = std::make_unique<TracedTransport>(
        d->pkg_connection_.get(), recorder, "conn.pkg");
    control = d->traced_pkg_.get();
  } else {
    for (Shard& shard : d->shards_) children.push_back(shard.connection.get());
  }
  mws::wire::ShardRouterOptions router_options;
  router_options.control = control;
  d->router_ = std::make_unique<mws::wire::ShardRouter>(
      mws::wire::ShardMap(kShards), std::move(children), router_options);
  d->client_view_ = d->router_.get();
  if (recorder != nullptr) {
    d->traced_router_ =
        std::make_unique<TracedTransport>(d->router_.get(), recorder, "router");
    d->client_view_ = d->traced_router_.get();
  }
  return d;
}

Status Deployment::RegisterDevice(const std::string& id, const Bytes& mac_key) {
  for (Shard& shard : shards_) {
    MWS_RETURN_IF_ERROR(shard.mws->RegisterDevice(id, mac_key));
  }
  return Status::Ok();
}

Status Deployment::RegisterReceiver(const std::string& name,
                                    const std::string& password,
                                    const Bytes& rsa_public_key) {
  const Bytes hash = mws::wire::HashPassword(password);
  for (Shard& shard : shards_) {
    MWS_RETURN_IF_ERROR(
        shard.mws->RegisterReceivingClient(name, hash, rsa_public_key));
  }
  return Status::Ok();
}

Status Deployment::Grant(const std::string& name,
                         const std::string& attribute) {
  uint64_t first_aid = 0;
  for (size_t i = 0; i < kShards; ++i) {
    auto aid = shards_[i].mws->GrantAttribute(name, attribute);
    if (!aid.ok()) return aid.status();
    if (i == 0) {
      first_aid = aid.value();
    } else if (aid.value() != first_aid) {
      return Status::Internal("AID tables diverged across shards");
    }
  }
  return Status::Ok();
}

Result<size_t> Deployment::Prune(size_t shard, uint64_t local_max) {
  return shards_[shard].mws->PruneMessagesThrough(local_max);
}

uint64_t Deployment::ShedRequests() const {
  uint64_t total = pkg_server_ ? pkg_server_->shed_requests() : 0;
  for (const Shard& shard : shards_) {
    if (shard.server) total += shard.server->shed_requests();
  }
  return total;
}

uint64_t Deployment::Reconnects() const {
  uint64_t total = pkg_connection_ ? pkg_connection_->reconnects() : 0;
  for (const Shard& shard : shards_) {
    if (shard.connection) total += shard.connection->reconnects();
  }
  return total;
}

uint64_t Deployment::StoreCounter(const std::string& name) {
  if (options_.recorder == nullptr) return 0;
  return store_metrics_.GetCounter(name)->Value();
}

uint64_t Deployment::DiskBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void Deployment::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Clients first, then servers (joining their workers), then the
  // services and finally the stores, whose destructors flush the WAL.
  traced_router_.reset();
  router_.reset();
  traced_pkg_.reset();
  pkg_connection_.reset();
  for (Shard& shard : shards_) {
    shard.traced_connection.reset();
    shard.connection.reset();
  }
  if (pkg_server_) pkg_server_->Shutdown();
  for (Shard& shard : shards_) {
    if (shard.server) shard.server->Shutdown();
  }
  pkg_server_.reset();
  pkg_front_.reset();
  pkg_service_.reset();
  pkg_.reset();
  for (Shard& shard : shards_) {
    shard.server.reset();
    shard.front.reset();
    shard.service.reset();
    shard.mws.reset();
    shard.traced_store.reset();
    shard.store.reset();
  }
  client_view_ = nullptr;
}

}  // namespace e2e
