// Blocking client for the mixin-selection daemon.
//
// One Client owns one connection and is single-threaded (load generators
// open one client per connection thread). Call() is strict
// request/response with correlation-id checking: responses carrying an
// older id are skipped (a fault-injected server may duplicate a frame),
// a *newer* or unknown id means the stream is desynced and the
// connection is closed with a typed IoError. SO_RCVTIMEO bounds every
// read so a dropped or delayed response can never hang the caller.
//
// CallWithRetry layers the library's deterministic common::RetryPolicy
// on top: transport failures (IoError, recv Timeout) reconnect and
// retry, and an Overloaded (ResourceExhausted) verdict — the server
// shedding load — retries after backoff. Application verdicts
// (Unsatisfiable, InvalidArgument, selection Timeout, Cancelled) are
// returned as-is: retrying them would just re-spend the server's time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "rpc/protocol.h"
#include "rpc/socket_io.h"

namespace tokenmagic::rpc {

struct ClientOptions {
  /// Receive timeout per read; 0 hangs forever (not recommended).
  uint32_t recv_timeout_millis = 5000;
  /// Retry schedule for CallWithRetry (transport faults + Overloaded).
  common::RetryPolicy retry;
  /// How CallWithRetry waits out backoff. Defaults to no wait (tests);
  /// real load generators inject an actual sleeper.
  common::Sleeper sleeper;
};

class Client {
 public:
  /// Connects to the daemon at `path`.
  [[nodiscard]] static common::Result<Client> Connect(
      const std::string& path, ClientOptions options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// One strict request/response exchange. Assigns the request id. A
  /// returned Result is ok when the *transport* worked; the server's
  /// verdict (OK / Timeout / Overloaded / ...) rides on Response.status.
  [[nodiscard]] common::Result<Response> Call(Request request);

  /// Call() plus the options' retry policy: reconnects and retries on
  /// transport failure, backs off and retries on Overloaded.
  [[nodiscard]] common::Result<Response> CallWithRetry(Request request);

  /// Convenience wrappers.
  [[nodiscard]] common::Result<Response> Select(
      chain::TokenId target, chain::DiversityRequirement requirement,
      uint32_t deadline_millis = 0, uint64_t iteration_budget = 0);
  /// Returns the server's token count rendered as a string.
  [[nodiscard]] common::Result<std::string> Ping();
  /// Returns the server's stats counters as JSON.
  [[nodiscard]] common::Result<std::string> Stats();

  // Cluster-op wrappers (servers built with a NodeHost; see
  // rpc/node_host.h). Mutations go through plain Call() — a retry after
  // a lost response could apply the mutation twice — so a transport
  // fault surfaces as IoError and the harness decides. The idempotent
  // reads (digest, snapshot fetch) retry like any other read.

  /// Seeds the chain; returns the minted token ids per grant.
  [[nodiscard]] common::Result<std::vector<std::vector<chain::TokenId>>>
  Genesis(const std::vector<std::vector<crypto::Point>>& grants);
  /// Submits a signed spend. The transport-ok Response carries the
  /// verifier verdict (OK = pooled, typed rejection otherwise).
  [[nodiscard]] common::Result<Response> SubmitTx(
      const node::SignedTransaction& tx,
      const std::vector<crypto::Point>& output_keys);
  /// Mines the mempool into one block.
  [[nodiscard]] common::Result<MineSummary> Mine();
  /// Fetches the server's full snapshot string.
  [[nodiscard]] common::Result<std::string> FetchSnapshot();
  /// Fetches the sha256 hex of the server's snapshot string.
  [[nodiscard]] common::Result<std::string> SnapshotDigest();
  /// Replaces the server's node with one restored from `snapshot`.
  [[nodiscard]] common::Result<Response> InstallSnapshot(
      const std::string& snapshot);

  bool connected() const { return fd_.valid(); }

 private:
  Client(std::string path, ClientOptions options)
      : path_(std::move(path)), options_(std::move(options)) {}

  [[nodiscard]] common::Status Reconnect();
  /// Closes the connection and drops whatever its reader buffered.
  void Disconnect();

  std::string path_;
  ClientOptions options_;
  Fd fd_;
  FrameReader reader_;
  uint64_t next_request_id_ = 1;
};

}  // namespace tokenmagic::rpc
