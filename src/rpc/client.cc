#include "rpc/client.h"

#include <utility>

#include "common/strings.h"

namespace tokenmagic::rpc {

namespace {

using common::Status;

bool TransportFailure(const Status& status) {
  // recv timeouts count: a response that never arrived (dropped or
  // delayed past the read timeout) leaves the stream in an unknown
  // state, so the connection must be rebuilt either way.
  return status.IsIoError() || status.IsTimeout();
}

}  // namespace

common::Result<Client> Client::Connect(const std::string& path,
                                       ClientOptions options) {
  Client client(path, std::move(options));
  TM_RETURN_NOT_OK(client.Reconnect());
  return client;
}

common::Status Client::Reconnect() {
  Disconnect();
  auto fd = ConnectUnix(path_);
  TM_RETURN_NOT_OK(fd.status());
  fd_ = std::move(fd).value();
  if (options_.recv_timeout_millis > 0) {
    TM_RETURN_NOT_OK(SetRecvTimeout(fd_, options_.recv_timeout_millis));
  }
  return Status::OK();
}

void Client::Disconnect() {
  fd_.Close();
  reader_.Reset();
}

common::Result<Response> Client::Call(Request request) {
  if (!fd_.valid()) {
    return Status::IoError("client is disconnected");
  }
  request.request_id = next_request_id_++;
  Status written = WriteFrame(fd_, EncodeRequest(request));
  if (!written.ok()) {
    Disconnect();
    return written;
  }
  for (;;) {
    std::string payload;
    Status read = reader_.Read(fd_, &payload);
    if (!read.ok()) {
      Disconnect();
      // A malformed header or checksum mismatch is a transport problem
      // (corrupted/truncated stream), not an application verdict: report
      // it as IoError so CallWithRetry reconnects.
      if (read.IsIoError() || read.IsTimeout()) return read;
      return Status::IoError(common::StrFormat(
          "response stream desynced: %s", read.message().c_str()));
    }
    Response response;
    Status decoded = DecodeResponse(payload, &response);
    if (!decoded.ok()) {
      // Corrupted or desynced stream: fail loud and force a reconnect.
      Disconnect();
      return Status::IoError(common::StrFormat(
          "response stream desynced: %s", decoded.message().c_str()));
    }
    if (response.request_id < request.request_id) {
      continue;  // stale duplicate of an earlier response; skip it
    }
    if (response.request_id != request.request_id) {
      Disconnect();
      return Status::IoError(common::StrFormat(
          "response stream desynced: got id %llu, expected %llu",
          static_cast<unsigned long long>(response.request_id),
          static_cast<unsigned long long>(request.request_id)));
    }
    return response;
  }
}

common::Result<Response> Client::CallWithRetry(Request request) {
  const common::RetryPolicy& policy = options_.retry;
  Status last = Status::Internal("retry loop never ran");
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (attempt > 1) {
      double backoff = policy.BackoffSeconds(attempt);
      if (options_.sleeper && backoff > 0.0) options_.sleeper(backoff);
    }
    if (!fd_.valid()) {
      last = Reconnect();
      if (!last.ok()) continue;
    }
    auto result = Call(request);
    if (result.ok()) {
      if (result->status.IsResourceExhausted() &&
          attempt < policy.max_attempts) {
        // The server shed us; that is exactly what backoff is for.
        last = result->status;
        continue;
      }
      return result;
    }
    last = result.status();
    if (!TransportFailure(last)) return last;
  }
  return last;
}

common::Result<Response> Client::Select(
    chain::TokenId target, chain::DiversityRequirement requirement,
    uint32_t deadline_millis, uint64_t iteration_budget) {
  Request request;
  request.op = Op::kSelect;
  request.target = target;
  request.requirement = requirement;
  request.deadline_millis = deadline_millis;
  request.iteration_budget = iteration_budget;
  return CallWithRetry(request);
}

common::Result<std::string> Client::Ping() {
  Request request;
  request.op = Op::kPing;
  auto response = CallWithRetry(request);
  TM_RETURN_NOT_OK(response.status());
  if (!response->status.ok()) return response->status;
  return response->status.message();
}

common::Result<std::string> Client::Stats() {
  Request request;
  request.op = Op::kStats;
  auto response = CallWithRetry(request);
  TM_RETURN_NOT_OK(response.status());
  if (!response->status.ok()) return response->status;
  return response->status.message();
}

common::Result<std::vector<std::vector<chain::TokenId>>> Client::Genesis(
    const std::vector<std::vector<crypto::Point>>& grants) {
  Request request;
  request.op = Op::kGenesis;
  request.blob = EncodeGrants(grants);
  auto response = Call(std::move(request));
  TM_RETURN_NOT_OK(response.status());
  if (!response->status.ok()) return response->status;
  std::vector<std::vector<chain::TokenId>> minted;
  TM_RETURN_NOT_OK(DecodeMintedTokens(response->blob, &minted));
  return minted;
}

common::Result<Response> Client::SubmitTx(
    const node::SignedTransaction& tx,
    const std::vector<crypto::Point>& output_keys) {
  Request request;
  request.op = Op::kSubmitTx;
  request.blob = EncodeSignedTx(tx, output_keys);
  return Call(std::move(request));
}

common::Result<MineSummary> Client::Mine() {
  Request request;
  request.op = Op::kMine;
  auto response = Call(std::move(request));
  TM_RETURN_NOT_OK(response.status());
  if (!response->status.ok()) return response->status;
  MineSummary summary;
  TM_RETURN_NOT_OK(DecodeMineSummary(response->blob, &summary));
  return summary;
}

common::Result<std::string> Client::FetchSnapshot() {
  Request request;
  request.op = Op::kSnapshot;
  auto response = CallWithRetry(std::move(request));
  TM_RETURN_NOT_OK(response.status());
  if (!response->status.ok()) return response->status;
  return std::move(response->blob);
}

common::Result<std::string> Client::SnapshotDigest() {
  Request request;
  request.op = Op::kSnapshotDigest;
  auto response = CallWithRetry(std::move(request));
  TM_RETURN_NOT_OK(response.status());
  if (!response->status.ok()) return response->status;
  return response->status.message();
}

common::Result<Response> Client::InstallSnapshot(
    const std::string& snapshot) {
  Request request;
  request.op = Op::kInstallSnapshot;
  request.blob = snapshot;
  return Call(std::move(request));
}

}  // namespace tokenmagic::rpc
