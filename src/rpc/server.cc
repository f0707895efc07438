#include "rpc/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
// tm-sync: allow(thread-ownership, sleep_for only; threads live in WorkerPool)
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "core/batch.h"
#include "core/modules.h"
#include "crypto/sha256.h"
#include "node/fault_injection.h"
#include "node/snapshot.h"
#include "rpc/node_host.h"

namespace tokenmagic::rpc {

namespace {

using common::Status;

std::string HistogramJson(const common::Histogram& h) {
  if (h.count() == 0) {
    return "{\"count\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"max\":0}";
  }
  return common::StrFormat(
      "{\"count\":%lld,\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"max\":%lld}",
      static_cast<long long>(h.count()), h.PercentileInterpolated(50.0),
      h.PercentileInterpolated(99.0), h.PercentileInterpolated(99.9),
      static_cast<long long>(h.Max()));
}

core::ResilientOptions WithClock(core::ResilientOptions options,
                                 const common::Clock* clock) {
  if (options.clock == nullptr) options.clock = clock;
  return options;
}

}  // namespace

std::string ServerStats::ToJson() const {
  return common::StrFormat(
      "{\"connections_accepted\":%llu,\"frames_received\":%llu,"
      "\"decode_errors\":%llu,\"admitted\":%llu,\"ok\":%llu,"
      "\"module_index_cold\":%llu,\"degraded\":%llu,\"shed_overloaded\":%llu,\"cancelled\":%llu,"
      "\"timeouts\":%llu,\"unsatisfiable\":%llu,\"invalid_argument\":%llu,"
      "\"internal_errors\":%llu,\"write_failures\":%llu,"
      "\"latency_micros\":%s,\"queue_wait_micros\":%s}",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(frames_received),
      static_cast<unsigned long long>(decode_errors),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(module_index_cold),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(shed_overloaded),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(timeouts),
      static_cast<unsigned long long>(unsatisfiable),
      static_cast<unsigned long long>(invalid_argument),
      static_cast<unsigned long long>(internal_errors),
      static_cast<unsigned long long>(write_failures),
      HistogramJson(latency_micros).c_str(),
      HistogramJson(queue_wait_micros).c_str());
}

Server::Server(const node::Node* node, ServerConfig config)
    : Server(nullptr, node, std::move(config)) {}

Server::Server(NodeHost* host, ServerConfig config)
    : Server(host, host == nullptr ? nullptr : host->mutable_node(),
             std::move(config)) {}

Server::Server(NodeHost* host, const node::Node* node, ServerConfig config)
    : host_(host),
      node_(node),
      config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock
                                      : common::SteadyClock::Instance()),
      resilient_(WithClock(config_.resilient, clock_)),
      queue_(config_.queue_capacity) {
  TM_CHECK(node != nullptr);
  TM_CHECK(config_.workers > 0);
  TM_CHECK(!config_.socket_path.empty());
}

Server::~Server() { Stop(); }

common::Status Server::Start() {
  TM_CHECK(!started_.exchange(true));
  auto listener = ListenUnix(config_.socket_path);
  TM_RETURN_NOT_OK(listener.status());
  listener_ = std::move(listener).value();
  workers_.Start(config_.workers, [this](size_t i) { WorkerLoop(i); });
  io_.Spawn([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  // Order matters. 1) Flag the drain so readers stop admitting and
  // workers answer queued items with Cancelled. 2) Wake the acceptor.
  // 3) Close the queue: TryPush now reports kClosed (reader answers
  // Cancelled inline) and workers drain what is already queued.
  // 4) Join workers — after this every admitted request has had its
  // response written. 5) Wake readers blocked in recv and join them.
  draining_.store(true);
  listener_.Shutdown();
  queue_.Close();
  workers_.Join();
  {
    common::MutexLock lock(&conns_mu_);
    for (auto& weak : conns_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        conn->fd.Shutdown();
      }
    }
  }
  io_.Join();
  listener_.Close();
  ::unlink(config_.socket_path.c_str());
}

ServerStats Server::StatsSnapshot() const {
  common::MutexLock lock(&stats_mu_);
  return stats_;
}

void Server::AcceptLoop() {
  while (!draining_.load()) {
    auto accepted = Accept(listener_);
    if (!accepted.ok()) break;  // listener shut down (drain) or broken
    auto conn = std::make_shared<Connection>(std::move(accepted).value());
    {
      common::MutexLock lock(&conns_mu_);
      // Prune dead entries so the registry tracks live connections, not
      // every connection ever accepted.
      std::erase_if(conns_,
                    [](const std::weak_ptr<Connection>& w) { return w.expired(); });
      conns_.push_back(conn);
    }
    {
      common::MutexLock lock(&stats_mu_);
      ++stats_.connections_accepted;
    }
    io_.Spawn([this, conn] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(std::shared_ptr<Connection> conn) {
  while (!draining_.load()) {
    std::string payload;
    if (!ReadFrame(conn->fd, &payload).ok()) break;  // eof / reset / drain
    {
      common::MutexLock lock(&stats_mu_);
      ++stats_.frames_received;
    }
    Request request;
    Status decoded = DecodeRequest(payload, &request);
    if (!decoded.ok()) {
      // The frame was well-delimited but its payload is malformed: the
      // stream may be desynced (e.g. a corrupted length upstream), so
      // answer typed and tear the connection down instead of guessing.
      {
        common::MutexLock lock(&stats_mu_);
        ++stats_.decode_errors;
      }
      Response response;
      response.request_id = request.request_id;
      response.status = decoded;
      WriteResponse(conn, response);
      break;
    }
    if (request.op == Op::kPing || request.op == Op::kStats) {
      WriteResponse(conn, ProcessControl(request));
      continue;
    }
    if (request.op != Op::kSelect) {
      // Cluster ops apply inline on the reader thread so ops issued on
      // one connection take effect in submission order (the harness
      // relies on submit-then-mine sequencing).
      WriteResponse(conn, ProcessCluster(request));
      continue;
    }
    WorkItem item{conn, request, clock_->NowNanos()};
    BoundedQueue<WorkItem>::Push admitted = queue_.TryPush(std::move(item));
    if (admitted == BoundedQueue<WorkItem>::Push::kOk) {
      common::MutexLock lock(&stats_mu_);
      ++stats_.admitted;
      continue;
    }
    Response response;
    response.request_id = request.request_id;
    response.status =
        admitted == BoundedQueue<WorkItem>::Push::kFull
            ? Status::ResourceExhausted("overloaded: admission queue full")
            : Status::Cancelled("server draining: request not admitted");
    CountOutcome(response);
    WriteResponse(conn, response);
  }
  // Shutdown, not Close: a worker may still hold this connection and be
  // writing a response. The fd number stays reserved until the last
  // shared_ptr drops (~Connection closes it), so no thread can ever
  // write to a recycled descriptor.
  conn->fd.Shutdown();
}

void Server::WorkerLoop(size_t worker_index) {
  // Independent deterministic stream per worker; which worker serves
  // which request is scheduler-dependent, so selection randomness is
  // reproducible per worker, not per request.
  common::Rng rng(config_.seed ^
                  (0x9e3779b97f4a7c15ull * (worker_index + 1)));
  while (std::optional<WorkItem> item = queue_.Pop()) {
    Response response;
    if (draining_.load()) {
      // Queued behind the drain: typed Cancelled, never silent loss.
      response.request_id = item->request.request_id;
      response.status =
          Status::Cancelled("server draining: queued request cancelled");
    } else {
      response = ProcessSelect(item->request, item->admitted_nanos, &rng);
    }
    CountOutcome(response);
    WriteResponse(item->conn, response);
  }
}

Response Server::ProcessSelect(const Request& request, int64_t admitted_nanos,
                               common::Rng* rng) {
  Response response;
  response.request_id = request.request_id;

  int64_t picked_up_nanos = clock_->NowNanos();
  int64_t queue_wait_nanos =
      std::max<int64_t>(picked_up_nanos - admitted_nanos, 0);
  {
    common::MutexLock lock(&stats_mu_);
    stats_.queue_wait_micros.Add(queue_wait_nanos / 1000);
  }

  // Deadline propagation: the client's budget is end-to-end, so the
  // time already burned waiting in the admission queue comes off the
  // selector's budget. A request that waited out its whole budget
  // answers Timeout without doing any selection work.
  uint32_t budget_millis =
      request.deadline_millis == 0
          ? config_.default_deadline_millis
          : std::min(request.deadline_millis, config_.max_deadline_millis);
  double remaining_seconds =
      static_cast<double>(budget_millis) / 1e3 -
      static_cast<double>(queue_wait_nanos) / 1e9;
  if (remaining_seconds <= 0.0) {
    response.status =
        Status::Timeout("deadline budget spent in admission queue");
    return response;
  }

  // Shared for the whole selection: input.universe and input.index
  // borrow the node's batch index / ht index, so an InstallSnapshot
  // replacing the node must wait until this request resolves.
  common::ReaderMutexLock node_lock(&node_mu_);
  if (!node_->blockchain().HasToken(request.target)) {
    response.status = Status::InvalidArgument(common::StrFormat(
        "unknown target token %llu",
        static_cast<unsigned long long>(request.target)));
    return response;
  }

  common::Deadline deadline(remaining_seconds, request.iteration_budget,
                            clock_);
  core::SelectionInput input;
  input.target = request.target;
  input.universe = node_->batches().MixinUniverse(request.target);
  input.requirement = request.requirement;
  input.index = &node_->ht_index();
  input.policy = config_.policy;
  input.deadline = &deadline;
  // Hold the batch snapshot via the concurrent-reader surface and pin it
  // on the input, exactly like wallet spends do.
  const core::Batch& batch = node_->batches().BatchOfToken(request.target);
  std::shared_ptr<const node::Node::BatchAnalysisSnapshot> snapshot =
      node_->AnalysisSnapshotShared(batch.index);
  input.history = snapshot->history;
  input.context = &snapshot->context;
  input.owner = snapshot;
  const bool index_cold = !core::ModuleIndexBuilt(snapshot->context);

  auto selected = resilient_.SelectWithReport(input, rng);

  int64_t done_nanos = clock_->NowNanos();
  response.server_micros =
      static_cast<uint64_t>(std::max<int64_t>(done_nanos - picked_up_nanos,
                                              0)) /
      1000;
  {
    common::MutexLock lock(&stats_mu_);
    stats_.latency_micros.Add(
        static_cast<int64_t>(response.server_micros));
    if (index_cold) ++stats_.module_index_cold;
  }

  if (!selected.ok()) {
    response.status = selected.status();
    return response;
  }
  core::ResilientSelection selection = std::move(selected).value();
  response.status = Status::OK();
  response.members = std::move(selection.result.members);
  response.satisfied = selection.report.satisfied_requirement;
  response.degraded = selection.report.degraded;
  response.stage = selection.report.stage;
  return response;
}

Response Server::ProcessControl(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (request.op == Op::kPing) {
    common::ReaderMutexLock node_lock(&node_mu_);
    response.status = Status(
        common::StatusCode::kOk,
        common::StrFormat("%zu", node_->blockchain().token_count()));
  } else {
    response.status = Status(common::StatusCode::kOk,
                             StatsSnapshot().ToJson());
  }
  return response;
}

Response Server::ProcessCluster(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (host_ == nullptr) {
    response.status = Status::InvalidArgument(
        "cluster ops disabled: server hosts no mutable node");
    return response;
  }
  // Exclusive: cluster ops mutate (or serialize) the node, and a
  // concurrent Select borrows the node's indices under the shared side.
  common::WriterMutexLock node_lock(&node_mu_);
  node::Node* node = host_->mutable_node();
  switch (request.op) {
    case Op::kGenesis: {
      std::vector<std::vector<crypto::Point>> grants;
      Status decoded = DecodeGrants(request.blob, &grants);
      if (!decoded.ok()) {
        response.status = decoded;
        break;
      }
      std::vector<std::vector<chain::TokenId>> minted =
          node->Genesis(grants);
      Status persisted = host_->Persist();
      if (!persisted.ok()) {
        response.status = persisted;
        break;
      }
      response.blob = EncodeMintedTokens(minted);
      response.status = Status::OK();
      break;
    }
    case Op::kSubmitTx: {
      node::SignedTransaction tx;
      std::vector<crypto::Point> output_keys;
      Status decoded = DecodeSignedTx(request.blob, &tx, &output_keys);
      if (!decoded.ok()) {
        response.status = decoded;
        break;
      }
      // The verdict (accept or the exact failed check) is the payload;
      // the mempool is memory-only (snapshots carry mined state), so an
      // accepted-but-unmined tx is lost on kill in both cluster modes.
      response.status =
          node->SubmitTransaction(std::move(tx), std::move(output_keys));
      break;
    }
    case Op::kMine: {
      node::MinedBlock mined = node->MineBlock();
      Status persisted = host_->Persist();
      if (!persisted.ok()) {
        response.status = persisted;
        break;
      }
      MineSummary summary;
      summary.height = mined.height;
      summary.transactions = mined.transactions;
      summary.rejected = mined.rejected.size();
      response.blob = EncodeMineSummary(summary);
      response.status = Status::OK();
      break;
    }
    case Op::kSnapshot: {
      std::string snapshot = node::SnapshotToString(*node);
      if (snapshot.size() > kMaxBlobBytes) {
        response.status = Status::ResourceExhausted(common::StrFormat(
            "snapshot of %zu bytes exceeds the %u-byte blob bound",
            snapshot.size(), kMaxBlobBytes));
        break;
      }
      response.blob = std::move(snapshot);
      response.status = Status::OK();
      break;
    }
    case Op::kSnapshotDigest: {
      response.status =
          Status(common::StatusCode::kOk,
                 crypto::Sha256Hex(node::SnapshotToString(*node)));
      break;
    }
    case Op::kInstallSnapshot: {
      // Installing a snapshot of the state the node is already in must
      // not be a full-invalidation hammer: replacing the node would drop
      // every cached analysis snapshot and epoch chain even though the
      // restored state is identical. Snapshot encoding is canonical, so
      // a byte-compare against the live state decides.
      if (node::SnapshotToString(*node) == request.blob) {
        response.status = host_->Persist();
        break;
      }
      auto restored =
          node::NodeFromSnapshot(request.blob, host_->node_config());
      if (!restored.ok()) {
        // Typed restore failure; the current node keeps serving — an
        // install never leaves the server on half-restored state.
        response.status = restored.status();
        break;
      }
      host_->Replace(std::move(restored).value());
      node_ = host_->mutable_node();
      Status persisted = host_->Persist();
      if (!persisted.ok()) {
        response.status = persisted;
        break;
      }
      response.status = Status::OK();
      break;
    }
    default:
      response.status = Status::InvalidArgument("unknown cluster op");
      break;
  }
  return response;
}

void Server::CountOutcome(const Response& response) {
  common::MutexLock lock(&stats_mu_);
  switch (response.status.code()) {
    case common::StatusCode::kOk:
      ++stats_.ok;
      if (response.degraded) ++stats_.degraded;
      break;
    case common::StatusCode::kResourceExhausted:
      ++stats_.shed_overloaded;
      break;
    case common::StatusCode::kCancelled:
      ++stats_.cancelled;
      break;
    case common::StatusCode::kTimeout:
      ++stats_.timeouts;
      break;
    case common::StatusCode::kUnsatisfiable:
      ++stats_.unsatisfiable;
      break;
    case common::StatusCode::kInvalidArgument:
      ++stats_.invalid_argument;
      break;
    default:
      ++stats_.internal_errors;
      break;
  }
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           const Response& response) {
  std::string frame = EncodeFrame(EncodeResponse(response));
  node::FaultInjector::TransportFaultPlan plan;
  if (config_.faults != nullptr) {
    plan = config_.faults->NextTransportFault();
  }
  using TF = node::FaultInjector::TransportFault;
  if (plan.fault == TF::kDelayResponse && plan.delay_millis > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(plan.delay_millis));
  }
  Status written = Status::OK();
  {
    common::MutexLock lock(&conn->write_mu);
    switch (plan.fault) {
      case TF::kDropConnection:
        // Liveness fault: the peer loses this response and sees eof.
        conn->fd.Shutdown();
        written = Status::IoError("fault injection: connection dropped");
        break;
      case TF::kCorruptFrame:
        written = WriteAll(conn->fd, config_.faults->CorruptFrame(frame));
        break;
      case TF::kTruncateFrame:
        written = WriteAll(conn->fd, config_.faults->TruncateFrame(frame));
        break;
      case TF::kDuplicateResponse:
        written = WriteAll(conn->fd, frame);
        if (written.ok()) written = WriteAll(conn->fd, frame);
        break;
      case TF::kNone:
      case TF::kDelayResponse:
        written = WriteAll(conn->fd, frame);
        break;
    }
  }
  if (!written.ok()) {
    common::MutexLock lock(&stats_mu_);
    ++stats_.write_failures;
  }
}

}  // namespace tokenmagic::rpc
