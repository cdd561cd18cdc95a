// RouterServer — TCP front door of a sharded deployment.
//
// Same wire contract as CoschedServer (CSC1 frames, one protocol version,
// VersionMismatch for any other) so every client — CoschedClient,
// benchmark_app, the examples — talks to a sharded fleet unchanged. The
// difference is behind the dispatcher: requests go to a ShardRouter instead
// of one LiveSchedulerService, job ids are global (shard-encoded), SubmitJob
// acks carry the routed shard, and GetMetrics answers the fan-in block (with
// the per-shard health entries).
//
// Deliberately simpler than CoschedServer: no telemetry streaming
// (SubscribeTelemetry answers BadRequest — subscribe to the shards' own
// servers in an RPC-addressable deployment) and no per-request tail
// sampling. The HTTP side door serves the *fleet* view:
// ShardRouter::render_prometheus() — router counters, per-shard gauges and
// the merged latency histogram — instead of the process registry, /healthz
// answers the health fan-in (JSON breakdown, 503 when every shard is down)
// and /debug/profile serves the process profiler's collapsed stacks.
//
// TraceDump fans in too: the reply merges the router's own dump with each
// remote shard's dump — span names namespaced "shard<k>/", pids separated,
// flow events left intact so Perfetto stitches a request's router span to
// the shard's replan span through the shared trace id.
//
// The router is borrowed, not owned: the caller builds the fleet (add
// shards), hands it in, and may keep using it directly (the router is
// thread-safe).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/alerts.hpp"
#include "obs/http.hpp"
#include "shard/router.hpp"

namespace cosched {

struct RouterServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  int backlog = 16;
  std::size_t worker_threads = 2;
  std::size_t max_connections = 32;
  double idle_poll_seconds = 0.2;
  double request_deadline_seconds = 10.0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  bool enable_http = true;
  std::uint16_t http_port = 0;  ///< 0 = ephemeral; read back with http_port()
  /// SLO watchdog over the router process's registry (which includes every
  /// local shard — they share the process). Remote shards run their own
  /// engines; GetAlerts//alerts fans those in shard-labelled. Compiled out
  /// under COSCHED_ALERTS_DISABLED regardless of this switch.
  bool enable_alerts = true;
  AlertEngineOptions alerts;
  /// Latency budget (ms) behind the default burn-rate rules.
  double alert_budget_ms = 900.0;
};

struct RouterServerStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t rejected_connections = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t malformed_frames = 0;
};

class RouterServer {
 public:
  /// `router` must outlive the server and have its shards added already.
  RouterServer(ShardRouter& router, RouterServerOptions options);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  bool start(std::string& error);
  std::uint16_t port() const { return port_; }
  std::uint16_t http_port() const { return http_ ? http_->port() : 0; }

  /// Blocks until stop() is called or an RPC Shutdown arrives.
  void wait();
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  void stop();

  ShardRouter& router() { return router_; }
  /// The router's own SLO watchdog (nullptr when disabled/compiled out).
  AlertEngine* alert_engine() { return alerts_.get(); }
  RouterServerStats stats() const;

 private:
  void accept_main();
  /// Fleet alert fan-in: the router's own rules (shard_id == -1) plus each
  /// remote shard's GetAlerts entries rewritten with its shard id. Local
  /// shards share the process registry the router engine already watches.
  AlertsResponse collect_alerts();
  void worker_main();
  void serve_connection(Socket socket);
  ResponseEnvelope handle_request(const RequestEnvelope& request,
                                  std::uint64_t trace_id);
  std::uint64_t next_server_trace_id();

  ShardRouter& router_;
  RouterServerOptions options_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<HttpEndpoint> http_;
  std::unique_ptr<AlertEngine> alerts_;

  std::mutex mutex_;
  std::condition_variable wake_;      ///< workers: connection queue
  std::condition_variable finished_;  ///< wait(): shutdown latch
  std::deque<Socket> pending_;
  std::size_t active_sessions_ = 0;
  bool stopping_ = false;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> trace_id_counter_{0};

  mutable std::mutex stats_mutex_;
  RouterServerStats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace cosched
