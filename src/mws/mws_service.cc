#include "src/mws/mws_service.h"

#include "src/ibe/attribute.h"
#include "src/mws/policy_expr.h"

namespace mws::mws {

namespace {

/// The PolicyDb inherits the service-wide metrics sink unless the
/// caller wired its own.
store::PolicyDbOptions ResolvePolicyOptions(const MwsOptions& options) {
  store::PolicyDbOptions policy = options.policy;
  if (policy.metrics == nullptr) policy.metrics = options.metrics;
  return policy;
}

}  // namespace

MwsService::MwsService(store::Table* storage, util::Bytes mws_pkg_key,
                       const util::Clock* clock, util::RandomSource* rng,
                       MwsOptions options)
    : options_(options),
      rng_(rng),
      message_db_(storage, options.metrics),
      policy_db_(storage, ResolvePolicyOptions(options)),
      user_db_(storage),
      device_keys_(storage),
      sda_(&device_keys_, clock, options.freshness_window_micros),
      gatekeeper_(&user_db_, clock, &rng_, options.cipher,
                  options.freshness_window_micros, options.metrics,
                  options.tuning),
      mms_(&message_db_, &policy_db_),
      token_generator_(std::move(mws_pkg_key), options.cipher, clock, &rng_,
                       options.ticket_lifetime_micros),
      deposit_obs_(obs::OpInstruments::Resolve(options.metrics, "mws",
                                               "deposit")),
      auth_obs_(obs::OpInstruments::Resolve(options.metrics, "mws", "auth")),
      retrieve_obs_(obs::OpInstruments::Resolve(options.metrics, "mws",
                                                "retrieve")),
      deposit_batch_obs_(obs::OpInstruments::Resolve(options.metrics, "mws",
                                                     "deposit_batch")),
      retrieve_chunk_obs_(obs::OpInstruments::Resolve(
          options.metrics, "mws", "retrieve_chunk")) {
  if (options_.metrics != nullptr) {
    deposit_batch_size_ =
        options_.metrics->GetHistogram("mws.batch_size", {{"op", "deposit_batch"}});
    retrieve_chunk_size_ = options_.metrics->GetHistogram(
        "mws.batch_size", {{"op", "retrieve_chunk"}});
    deposit_batch_item_us_ = options_.metrics->GetHistogram(
        "mws.batch_item_us", {{"op", "deposit_batch"}});
  }
}

util::Status MwsService::RegisterDevice(const std::string& device_id,
                                        const util::Bytes& mac_key) {
  if (device_id.empty() || mac_key.empty()) {
    return util::Status::InvalidArgument("device id and key required");
  }
  return device_keys_.Register(device_id, mac_key);
}

util::Status MwsService::RegisterReceivingClient(
    const std::string& rc_identity, const util::Bytes& password_hash,
    const util::Bytes& rsa_public_key) {
  if (rc_identity.empty() || password_hash.empty()) {
    return util::Status::InvalidArgument("identity and password required");
  }
  return user_db_.Register({rc_identity, password_hash, rsa_public_key});
}

util::Result<uint64_t> MwsService::GrantAttribute(
    const std::string& rc_identity, const std::string& attribute) {
  MWS_RETURN_IF_ERROR(ibe::ValidateAttribute(attribute));
  if (!user_db_.Get(rc_identity).ok()) {
    return util::Status::NotFound("unknown receiving client: " + rc_identity);
  }
  return policy_db_.Grant(rc_identity, attribute);
}

util::Status MwsService::RevokeAttribute(const std::string& rc_identity,
                                         const std::string& attribute) {
  return policy_db_.Revoke(rc_identity, attribute);
}

util::Result<uint64_t> MwsService::GrantPolicyExpression(
    const std::string& rc_identity, const std::string& expression) {
  if (!user_db_.Get(rc_identity).ok()) {
    return util::Status::NotFound("unknown receiving client: " + rc_identity);
  }
  // Validate the expression now so stored text always parses.
  MWS_RETURN_IF_ERROR(PolicyExpression::Parse(expression).status());
  return policy_db_.GrantExpression(rc_identity, expression);
}

util::Status MwsService::RevokePolicyExpression(const std::string& rc_identity,
                                                uint64_t seq) {
  return policy_db_.RevokeExpression(rc_identity, seq);
}

util::Result<std::vector<store::PolicyRow>> MwsService::PolicyTable() const {
  return policy_db_.AllRows();
}

util::Result<size_t> MwsService::PruneMessagesThrough(uint64_t max_id) {
  return message_db_.PruneThrough(max_id);
}

util::Result<std::vector<util::Result<store::MessageDb::AppendOutcome>>>
MwsService::DepositItems(std::span<const wire::DepositRequest> items,
                         obs::Span& span) {
  std::vector<util::Result<store::MessageDb::AppendOutcome>> outcomes(
      items.size(), util::Status::Internal("not appended"));

  // Per-item admission: a bad MAC or attribute rejects that item only.
  // Valid items proceed to one grouped append.
  std::vector<store::StoredMessage> valid;
  std::vector<size_t> valid_index;  // position of valid[i] in `items`
  valid.reserve(items.size());
  {
    obs::Span verify = span.Child("sda.verify");
    for (size_t i = 0; i < items.size(); ++i) {
      const wire::DepositRequest& item = items[i];
      util::Status admitted = sda_.Verify(item);
      if (admitted.ok()) admitted = ibe::ValidateAttribute(item.attribute);
      if (!admitted.ok()) {
        outcomes[i] = std::move(admitted);
        continue;
      }
      store::StoredMessage m;
      m.u = item.u;
      m.ciphertext = item.ciphertext;
      m.attribute = item.attribute;
      m.nonce = item.nonce;
      m.device_id = item.device_id;
      m.timestamp_micros = item.timestamp_micros;
      valid.push_back(std::move(m));
      valid_index.push_back(i);
    }
  }

  if (!valid.empty()) {
    // At-least-once delivery: a device whose ack was lost retransmits
    // the identical deposit, so the store dedupes by (ID_SD, nonce)
    // instead of storing twice.
    obs::Span append = span.Child("md.append");
    MWS_ASSIGN_OR_RETURN(std::vector<store::MessageDb::AppendOutcome> appended,
                         message_db_.AppendDedupedBatch(valid));
    for (size_t v = 0; v < appended.size(); ++v) {
      outcomes[valid_index[v]] = appended[v];
    }
  }
  return outcomes;
}

util::Result<wire::DepositResponse> MwsService::Deposit(
    const wire::DepositRequest& request) {
  return deposit_obs_.Run(
      options_.tracer,
      [&](obs::Span& span) -> util::Result<wire::DepositResponse> {
        MWS_ASSIGN_OR_RETURN(auto outcomes, DepositItems({&request, 1}, span));
        MWS_ASSIGN_OR_RETURN(store::MessageDb::AppendOutcome outcome,
                             std::move(outcomes.front()));
        return wire::DepositResponse{outcome.id};
      });
}

util::Result<wire::DepositBatchResponse> MwsService::DepositBatch(
    const wire::DepositBatchRequest& request) {
  const int64_t start_us = obs::SteadyNowMicros();
  util::Result<wire::DepositBatchResponse> result = deposit_batch_obs_.Run(
      options_.tracer,
      [&](obs::Span& span) -> util::Result<wire::DepositBatchResponse> {
        MWS_ASSIGN_OR_RETURN(auto outcomes,
                             DepositItems(request.items, span));
        wire::DepositBatchResponse response;
        response.items.resize(outcomes.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
          wire::DepositBatchResponse::Item& item = response.items[i];
          if (!outcomes[i].ok()) {
            item.error = wire::EncodeWireError(outcomes[i].status());
            continue;
          }
          item.ok = true;
          item.message_id = outcomes[i]->id;
          item.deduplicated = outcomes[i]->deduplicated;
        }
        return response;
      });
  if (deposit_batch_size_ != nullptr) {
    deposit_batch_size_->Record(request.items.size());
  }
  if (deposit_batch_item_us_ != nullptr && !request.items.empty()) {
    // Amortized cost of one message inside the batch — the number the
    // batch path exists to shrink (compare against mws.latency_us{op=
    // deposit}).
    const uint64_t elapsed_us =
        static_cast<uint64_t>(obs::SteadyNowMicros() - start_us);
    deposit_batch_item_us_->Record(elapsed_us / request.items.size());
  }
  return result;
}

util::Result<wire::RcAuthResponse> MwsService::Authenticate(
    const wire::RcAuthRequest& request) {
  return auth_obs_.Run(options_.tracer, [&](obs::Span& span) {
    obs::Span child = span.Child("gatekeeper.auth");
    return gatekeeper_.Authenticate(request);
  });
}

util::Result<wire::RetrieveResponse> MwsService::Retrieve(
    const wire::RetrieveRequest& request) {
  return retrieve_obs_.Run(
      options_.tracer,
      [&](obs::Span& span) -> util::Result<wire::RetrieveResponse> {
        wire::RetrieveChunkRequest unbounded;
        unbounded.session_id = request.session_id;
        unbounded.after_message_id = request.after_message_id;
        unbounded.from_micros = request.from_micros;
        unbounded.to_micros = request.to_micros;
        unbounded.max_messages = UINT32_MAX;
        MWS_ASSIGN_OR_RETURN(wire::RetrieveChunkResponse chunk,
                             RetrieveItems(unbounded, span));
        return wire::RetrieveResponse{std::move(chunk.messages),
                                      std::move(chunk.token)};
      });
}

util::Result<wire::RetrieveChunkResponse> MwsService::RetrieveChunk(
    const wire::RetrieveChunkRequest& request) {
  util::Result<wire::RetrieveChunkResponse> result = retrieve_chunk_obs_.Run(
      options_.tracer,
      [&](obs::Span& span) { return RetrieveItems(request, span); });
  if (retrieve_chunk_size_ != nullptr && result.ok()) {
    retrieve_chunk_size_->Record(result.value().messages.size());
  }
  return result;
}

util::Result<wire::RetrieveChunkResponse> MwsService::RetrieveItems(
    const wire::RetrieveChunkRequest& request, obs::Span& span) {
  if (request.max_messages == 0) {
    return util::Status::InvalidArgument("max_messages must be positive");
  }
  RcSession session;
  {
    obs::Span lookup = span.Child("gatekeeper.session");
    MWS_ASSIGN_OR_RETURN(session, gatekeeper_.GetSession(request.session_id));
  }
  wire::RetrieveChunkResponse response;
  {
    obs::Span fetch = span.Child("mms.fetch");
    MWS_ASSIGN_OR_RETURN(
        MessageManagementSystem::Chunk chunk,
        mms_.FetchChunkFor(session.rc_identity, request.after_message_id,
                           request.from_micros, request.to_micros,
                           request.max_messages));
    response.messages = std::move(chunk.messages);
    response.has_more = chunk.has_more;
    response.next_after_id = chunk.next_after_id;
  }
  // The token covers the whole sweep, so issuing it per chunk would be
  // wasted RSA + cipher work; only the final chunk carries one.
  if (!response.has_more) {
    obs::Span token = span.Child("tg.token");
    MWS_ASSIGN_OR_RETURN(std::vector<store::PolicyRow> grants,
                         mms_.GrantsFor(session.rc_identity));
    MWS_ASSIGN_OR_RETURN(
        response.token,
        token_generator_.IssueToken(session.rc_identity,
                                    session.rsa_public_key, grants));
  }
  return response;
}

void MwsService::RegisterEndpoints(wire::InProcessTransport* transport) {
  transport->RegisterMethod("mws.deposit", this, &MwsService::Deposit);
  transport->RegisterMethod("mws.auth", this, &MwsService::Authenticate);
  transport->RegisterMethod("mws.retrieve", this, &MwsService::Retrieve);
  transport->RegisterMethod("mws.deposit_batch", this,
                            &MwsService::DepositBatch);
  transport->RegisterMethod("mws.retrieve_chunk", this,
                            &MwsService::RetrieveChunk);
}

}  // namespace mws::mws
