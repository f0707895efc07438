// The mixin-selection daemon: serves framed Select/Ping/Stats requests
// over an AF_UNIX socket against one node's chain state.
//
// Threading model (three thread families, all owned by WorkerPool):
//
//   acceptor ──► per-connection readers ──┬─► run now on the reader
//                (decode, admit, shed)     └─► bounded queue ──► workers
//
// Each connection has one reader thread with one buffered FrameReader;
// it decodes frames and serves control ops (Ping/Stats) and cluster ops
// inline. A Select is admitted one of three ways (DESIGN.md decision 20):
//   * run now — one of the `workers` execution slots is free and nothing
//     is queued: the reader runs the Select and writes the response
//     itself, holding the slot through the write, so a closed-loop
//     client's Selects make no thread hand-off;
//   * queue — otherwise, if the queue has room, a worker thread runs it
//     once a slot frees up (a released slot goes to the queue head
//     first, so nothing queued is overtaken);
//   * shed — otherwise the reader answers Overloaded (ResourceExhausted)
//     immediately instead of queueing without bound, so latency under
//     overload stays bounded by `queue_capacity / throughput` and memory
//     by `queue_capacity` items (DESIGN.md decision 11).
// `workers` is therefore the number of concurrent selections; each slot
// owns one deterministic rng stream. Queued and inline Selects run the
// same RunSelect: re-anchor the request's deadline budget (queue wait
// already spent counts against it) and run the default resilient selector
// ladder over the node's shared per-batch analysis snapshot.
//
// Deadline propagation: the client's deadline_millis is an end-to-end
// budget. The reader stamps admission time; RunSelect subtracts the
// queue wait and hands the remainder to the selector as a
// common::Deadline, so a request that waited out its budget in the
// queue answers Timeout without doing any selection work.
//
// Graceful shutdown (Stop): new admissions are refused with Cancelled,
// workers answer every queued item Cancelled and are joined, in-flight
// selections (on workers or readers) complete and their responses are
// written, then readers are woken and joined. Nothing is silently
// dropped.
//
// Node contract: the server reads the node through Node::InstanceFor
// (the batch and HT indices plus the concurrent per-batch snapshots
// served by core::BatchSnapshots) and blockchain(). In read-only mode
// (const Node* ctor) the node must be
// *quiescent* while serving — no Genesis/MineBlock between Start() and
// Stop(). In cluster mode (NodeHost ctor) the server itself is the only
// writer: cluster ops (Genesis/SubmitTx/Mine/Snapshot/InstallSnapshot)
// run exclusively under `node_mu_` on the reader thread that received
// them, Select/Ping hold `node_mu_` shared, and every applied mutation
// is persisted through the host before its response is written.
//
// Fault injection: an optional node::FaultInjector attacks the response
// write path (corrupt/truncate/drop/duplicate/delay) — liveness, never
// consistency — so soak tests can prove clients and server survive a
// hostile transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/resilient.h"
#include "node/node.h"
#include "rpc/bounded_queue.h"
#include "rpc/protocol.h"
#include "rpc/socket_io.h"
#include "rpc/worker_pool.h"

namespace tokenmagic::node {
class FaultInjector;
}  // namespace tokenmagic::node

namespace tokenmagic::rpc {

class NodeHost;

struct ServerConfig {
  /// AF_UNIX socket path to listen on.
  std::string socket_path;
  /// Concurrent selections: execution slots, shared by readers running
  /// a Select inline and the worker threads draining the queue.
  size_t workers = 4;
  /// Admission queue capacity; a full queue sheds with Overloaded.
  size_t queue_capacity = 64;
  /// Budget applied when a request carries deadline_millis == 0.
  uint32_t default_deadline_millis = 250;
  /// Ceiling clamped onto every request budget.
  uint32_t max_deadline_millis = 5000;
  /// Seed for the per-slot selection rngs.
  uint64_t seed = 1;
  /// Clock for deadlines and latency accounting (tests inject).
  const common::Clock* clock = nullptr;
  /// Optional transport-fault injector (tests/soak only). Not owned.
  node::FaultInjector* faults = nullptr;
};

/// Counter snapshot; every terminal verdict increments exactly one of
/// the outcome counters, so issued == sum(outcomes) holds at quiescence.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t decode_errors = 0;
  uint64_t admitted = 0;
  /// Subset of admitted that waited in the queue for a worker instead of
  /// running on the reader that decoded it.
  uint64_t queued = 0;
  uint64_t ok = 0;
  /// Selects whose batch snapshot had no module index yet when acquired
  /// (the first Select per sealed snapshot builds it; a healthy cache
  /// keeps this near the number of snapshots served).
  uint64_t module_index_cold = 0;
  uint64_t degraded = 0;  ///< subset of ok that used a fallback/relaxation
  uint64_t shed_overloaded = 0;
  uint64_t cancelled = 0;
  uint64_t timeouts = 0;
  uint64_t unsatisfiable = 0;
  uint64_t invalid_argument = 0;
  uint64_t internal_errors = 0;
  uint64_t write_failures = 0;
  common::Histogram latency_micros;     ///< selection service time
  common::Histogram queue_wait_micros;  ///< admission -> selection start

  /// Flat JSON object (stable keys; Stats responses carry this).
  std::string ToJson() const;
};

class Server {
 public:
  /// Read-only serving: `node` must outlive the server and stay
  /// quiescent while serving. Cluster ops answer InvalidArgument.
  Server(const node::Node* node, ServerConfig config);

  /// Cluster-mode serving: `host` owns the node and must outlive the
  /// server. Cluster ops mutate the hosted node under `node_mu_` and
  /// persist through the host after every applied mutation.
  Server(NodeHost* host, ServerConfig config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches acceptor + workers.
  [[nodiscard]] common::Status Start();

  /// Graceful shutdown: answers queued work with Cancelled, completes
  /// in-flight work, joins every thread. Idempotent.
  void Stop();

  ServerStats StatsSnapshot() const TM_EXCLUDES(stats_mu_);

  const std::string& socket_path() const { return config_.socket_path; }

 private:
  /// One accepted connection. The write mutex serializes responses from
  /// workers and the reader onto the stream.
  struct Connection {
    explicit Connection(Fd socket) : fd(std::move(socket)) {}
    Fd fd;
    common::Mutex write_mu;  // tm-lock-rank(60)
  };

  struct WorkItem {
    std::shared_ptr<Connection> conn;
    Request request;
    int64_t admitted_nanos = 0;
  };

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// Runs one admitted Select in `slot` to a terminal verdict, writes the
  /// response, then releases the slot. Called by the reader that decoded
  /// the request (run now) and by workers (queued).
  void RunSelect(const std::shared_ptr<Connection>& conn,
                 const Request& request, int64_t admitted_nanos, size_t slot)
      TM_EXCLUDES(stats_mu_, node_mu_);

  /// Runs one Select to a terminal verdict (never blocks on I/O).
  Response ProcessSelect(const Request& request, int64_t admitted_nanos,
                         common::Rng* rng)
      TM_EXCLUDES(stats_mu_, node_mu_);
  Response ProcessControl(const Request& request)
      TM_EXCLUDES(stats_mu_, node_mu_);

  /// Applies one cluster op exclusively (reader-thread inline, so ops on
  /// one connection apply in submission order). InvalidArgument when the
  /// server has no NodeHost.
  Response ProcessCluster(const Request& request)
      TM_EXCLUDES(stats_mu_, node_mu_);

  /// Serializes, applies any armed transport fault, writes under the
  /// connection's write mutex, and accounts the outcome.
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const Response& response) TM_EXCLUDES(stats_mu_);

  void CountOutcome(const Response& response) TM_EXCLUDES(stats_mu_);

  Server(NodeHost* host, const node::Node* node, ServerConfig config);

  /// Null in read-only mode; set iff cluster ops are enabled.
  NodeHost* host_;
  /// Guards the hosted node: Select/Ping readers hold it shared for the
  /// whole request, cluster mutations hold it exclusively. Ordered
  /// before stats_mu_. In read-only mode node_ never changes and the
  /// shared lock is uncontended.
  /// Root of the server's lock order: held across calls into the node
  /// (Node::state_mu_, then BatchSnapshots::snapshots_mu_) and across
  /// per-request stats updates.
  mutable common::SharedMutex node_mu_;  // tm-lock-rank(10)
  const node::Node* node_ TM_GUARDED_BY(node_mu_);
  ServerConfig config_;
  const common::Clock* clock_;
  core::ResilientSelector resilient_;

  Fd listener_;
  /// Admission: the queued items and the `workers` execution slots.
  BoundedQueue<WorkItem> queue_;
  /// One selection rng per slot, used only by the thread holding that
  /// slot (the queue's mutex orders the hand-over).
  std::vector<common::Rng> slot_rngs_;
  WorkerPool workers_;
  WorkerPool io_;
  // Lifecycle flags polled by reader/worker loops; each guards no
  // payload of its own, so plain seq_cst flips suffice.
  std::atomic<bool> draining_{false};  // tm-atomic(standalone lifecycle flag)
  std::atomic<bool> started_{false};  // tm-atomic(standalone lifecycle flag)
  std::atomic<bool> stopped_{false};  // tm-atomic(standalone lifecycle flag)

  mutable common::Mutex conns_mu_;  // tm-lock-rank(50)
  /// Weak registry of live connections so Stop() can wake blocked
  /// readers via shutdown(2).
  std::vector<std::weak_ptr<Connection>> conns_ TM_GUARDED_BY(conns_mu_);

  /// Maximal rank: taken under node_mu_ on the request path and never
  /// held while acquiring anything else.
  mutable common::Mutex stats_mu_;  // tm-lock-rank(80)
  ServerStats stats_ TM_GUARDED_BY(stats_mu_);
};

}  // namespace tokenmagic::rpc
