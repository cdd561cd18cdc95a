// CoschedServer — TCP front door of the online co-scheduling service.
//
// Threading model (see DESIGN.md §net/rpc):
//
//   accept thread ──> connection queue ──> N session workers
//                                             │  (frame <-> envelope)
//                                             v
//                                     LiveSchedulerService
//                                     (1 scheduler thread, FIFO commands)
//
// The accept loop is non-blocking and enforces the connection cap: when
// `max_connections` sessions are active, new connections are closed
// immediately (counted in stats().rejected_connections) instead of queueing
// unbounded work. Each worker owns one connection at a time and serves its
// requests sequentially; every request gets a fresh server-side deadline
// (`request_deadline_seconds`), checked before dispatch and used as the
// timeout of the scheduler-thread command — an expired budget turns into an
// RpcStatus::DeadlineExpired response, never a stuck worker.
//
// Shutdown paths: an RPC Shutdown request acknowledges, then trips the same
// latch as stop(); wait() blocks until either fires. Drain is forwarded to
// the service — admissions stop, queued jobs finish, the fleet empties.
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
#include "obs/metrics_registry.hpp"
#include "online/live_service.hpp"
#include "rpc/protocol.hpp"

namespace cosched {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  int backlog = 16;
  std::size_t worker_threads = 2;
  /// Connection cap: sessions beyond this are refused at accept time.
  std::size_t max_connections = 32;
  /// Server-side budget per request, seconds. <= 0 expires immediately
  /// (useful only for testing the DeadlineExpired path).
  double request_deadline_seconds = 10.0;
  /// How long a worker blocks waiting for the next frame before re-checking
  /// the stop flag. Purely a responsiveness knob.
  double idle_poll_seconds = 0.2;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Observability side door: a second listening port serving GET /metrics
  /// (Prometheus text format) and GET /healthz over HTTP/1.0.
  bool enable_http = true;
  std::uint16_t http_port = 0;  ///< 0 = ephemeral; read back with http_port()
  /// Shard identity advertised on the wire (SubmitJob acks and the
  /// GetMetrics shard block). -1 = standalone server; a shard router's
  /// RPC-addressable backend is a plain CoschedServer started with its
  /// shard id set.
  std::int32_t shard_id = -1;
  /// SLO watchdog: scrape the process registry into the embedded tsdb and
  /// evaluate alert rules on a background tick (obs/alerts.hpp). When
  /// `alerts.rules` is empty the server installs default_alert_rules()
  /// against `alert_budget_ms`. Compiled out under COSCHED_ALERTS_DISABLED
  /// regardless of this switch.
  bool enable_alerts = true;
  AlertEngineOptions alerts;
  /// Latency budget (ms) behind the default burn-rate rules; slo.json's
  /// p95_ms is the natural source.
  double alert_budget_ms = 900.0;
  LiveServiceOptions service;
};

struct ServerStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t rejected_connections = 0;  ///< closed at the cap
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;  ///< non-Ok responses sent
  std::uint64_t malformed_frames = 0;  ///< bad magic / oversized / truncated
  std::uint64_t telemetry_frames = 0;  ///< SubscribeTelemetry frames pushed
  std::uint64_t telemetry_dropped_spans = 0;  ///< shed by backpressure
};

class CoschedServer {
 public:
  explicit CoschedServer(ServerOptions options);
  ~CoschedServer();

  CoschedServer(const CoschedServer&) = delete;
  CoschedServer& operator=(const CoschedServer&) = delete;

  /// Binds the listener and launches the accept loop + workers. False (with
  /// `error` filled) when the address cannot be bound.
  bool start(std::string& error);

  /// Port actually bound (after start()).
  std::uint16_t port() const { return port_; }

  /// HTTP observability port actually bound (after start(); 0 when
  /// enable_http is off).
  std::uint16_t http_port() const { return http_ ? http_->port() : 0; }

  /// Blocks until stop() is called or an RPC Shutdown arrives.
  void wait();

  /// True once a Shutdown request has been received.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Stops accepting, unblocks workers, joins all threads. Idempotent.
  void stop();

  LiveSchedulerService& service() { return *service_; }
  /// The SLO watchdog (nullptr when disabled or compiled out).
  AlertEngine* alert_engine() { return alerts_.get(); }
  ServerStats stats() const;

 private:
  void accept_main();
  void worker_main();
  void serve_connection(Socket socket);
  /// Decodes, dispatches and encodes one request.
  ResponseEnvelope handle_request(const RequestEnvelope& request);
  /// Turns the connection into a server-push telemetry stream
  /// (SubscribeTelemetry); returns when the subscriber leaves, max_frames is
  /// reached or the server stops.
  void serve_telemetry(Socket& socket, const RequestEnvelope& request);
  /// Deterministic nonzero trace id for requests that did not bring one.
  std::uint64_t next_server_trace_id();
  /// Registers the callback metrics bridging server/cache state into the
  /// process registry; unregister_observability() drops them (stop()).
  void register_observability();
  void unregister_observability();

  ServerOptions options_;
  std::unique_ptr<LiveSchedulerService> service_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<HttpEndpoint> http_;
  std::unique_ptr<AlertEngine> alerts_;
  /// Cached at start(): workers observe without touching the registry map
  /// (whose mutex the /metrics render holds while sampling callbacks).
  HistogramMetric* request_latency_ = nullptr;
  HistogramMetric* queue_wait_metric_ = nullptr;
  std::vector<std::string> callback_names_;

  std::mutex mutex_;
  std::condition_variable wake_;      ///< workers: connection queue
  std::condition_variable finished_;  ///< wait(): shutdown latch
  std::deque<Socket> pending_;
  std::size_t active_sessions_ = 0;
  bool stopping_ = false;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> trace_id_counter_{0};
  std::atomic<std::int64_t> telemetry_subscribers_{0};

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace cosched
