#include "shard/router_server.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace cosched {

RouterServer::RouterServer(ShardRouter& router, RouterServerOptions options)
    : router_(router), options_(std::move(options)) {
  COSCHED_EXPECTS(options_.worker_threads >= 1);
  COSCHED_EXPECTS(options_.max_connections >= 1);
}

RouterServer::~RouterServer() { stop(); }

bool RouterServer::start(std::string& error) {
  NetStatus status = NetStatus::Ok;
  listener_ = Socket::listen_on(options_.host, options_.port,
                                options_.backlog, status);
  if (status != NetStatus::Ok) {
    error = std::string("cannot listen on ") + options_.host + ": " +
            to_string(status);
    return false;
  }
  port_ = listener_.local_port();

  // A serving router profiles itself — the phase timers are cheap enough
  // to leave on, and /debug/profile is only useful with data behind it.
  Profiler::global().set_enabled(true);

  // The router's own SLO watchdog. It scrapes the *fleet* page — router
  // counters, per-shard gauges and the merged latency histogram — so the
  // default burn-rate rules watch fleet-wide latency, not just this
  // process's registry. Remote shards run their own engines and are fanned
  // in by collect_alerts().
  if (options_.enable_alerts && !kAlertsDisabled) {
    AlertEngineOptions alert_options = options_.alerts;
    if (alert_options.rules.rules.empty()) {
      alert_options.rules = default_alert_rules(options_.alert_budget_ms);
      // The fleet page's latency histogram is the router-side submit
      // latency (cosched_router_request_seconds) — cosched_rpc_request
      // _seconds belongs to the shard processes and never appears here.
      // Repoint the default burn rules at the family that exists.
      for (AlertRule& rule : alert_options.rules.rules)
        if (rule.histogram == "cosched_rpc_request_seconds")
          rule.histogram = "cosched_router_request_seconds";
    }
    if (!alert_options.exposition_source) {
      ShardRouter* router = &router_;
      alert_options.exposition_source = [router] {
        return router->render_prometheus();
      };
    }
    alerts_ = std::make_unique<AlertEngine>(std::move(alert_options));
    alerts_->set_journal(&router_.journal());
    if (!alerts_->start()) alerts_.reset();
  }

  if (options_.enable_http) {
    HttpOptions http_options;
    http_options.host = options_.host;
    http_options.port = options_.http_port;
    http_ = std::make_unique<HttpEndpoint>(http_options);
    ShardRouter* router = &router_;
    http_->handle("/metrics", [this, router](const std::string&,
                                             std::string& body,
                                             std::string& content_type) {
      body = router->render_prometheus();
      if (alerts_) body += render_alert_metrics(*alerts_);
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      return true;
    });
    // Liveness fans in: ok / degraded answer 200 (the body carries the
    // verdict and the per-shard breakdown), a fully-down fleet answers 503
    // so dumb load-balancer probes fail over without parsing JSON. Firing
    // alerts — the router's own or any shard's — demote ok to degraded but
    // never change the status code: the process is still serving.
    http_->handle_status(
        "/healthz", [this, router](const std::string&, std::string& body,
                                   std::string& content_type) {
          FleetHealth health = router->health();
          std::vector<std::string> firing;
          AlertsResponse fleet_alerts = collect_alerts();
          for (const AlertEntry& entry : fleet_alerts.alerts) {
            if (entry.state != static_cast<std::uint8_t>(AlertState::Firing))
              continue;
            firing.push_back(entry.shard_id < 0
                                 ? entry.rule
                                 : "shard" + std::to_string(entry.shard_id) +
                                       "/" + entry.rule);
          }
          body = ShardRouter::health_json(health, firing);
          content_type = "application/json";
          return health.state == FleetHealth::State::Down ? 503 : 200;
        });
    // Fleet alert fan-in: the router's own rules (shard=-1) plus every
    // remote shard's, shard-labelled. Text by default, ?format=json for
    // machines — same contract as the single-server /alerts.
    http_->handle("/alerts", [this](const std::string& target,
                                    std::string& body,
                                    std::string& content_type) {
      AlertsResponse fleet_alerts = collect_alerts();
      std::vector<AlertView> views;
      views.reserve(fleet_alerts.alerts.size());
      for (const AlertEntry& entry : fleet_alerts.alerts) {
        AlertView view;
        view.shard_id = entry.shard_id;
        view.rule = entry.rule;
        alert_state_from(entry.state, view.state);
        view.severity = entry.severity <= 2
                            ? static_cast<AlertSeverity>(entry.severity)
                            : AlertSeverity::Warn;
        view.value = entry.value;
        view.threshold = entry.threshold;
        view.since_seconds = entry.since_seconds;
        view.detail = entry.detail;
        views.push_back(std::move(view));
      }
      if (http_query_param(target, "format") == "json") {
        body = render_alerts_json(views, fleet_alerts.engine_enabled);
        content_type = "application/json";
      } else {
        body = render_alerts_text(views, fleet_alerts.engine_enabled);
      }
      return true;
    });
    http_->handle("/debug/profile", [](const std::string&, std::string& body,
                                       std::string&) {
      body = Profiler::global().render_collapsed();
      return true;
    });
    http_->handle("/debug/events", [router](const std::string& target,
                                            std::string& body, std::string&) {
      // ?job=<global id> fans through to the owning shard's journal (ids
      // rewritten to the global domain); bare = the router's own spillover
      // journal tail.
      const std::string job_param = http_query_param(target, "job");
      if (!job_param.empty()) {
        char* end = nullptr;
        long long id = std::strtoll(job_param.c_str(), &end, 10);
        if (end == job_param.c_str() || *end != '\0') {
          body = "bad job id: " + job_param + "\n";
          return true;
        }
        JobTimelineResponse reply;
        std::string error;
        RpcStatus status = router->job_timeline(id, reply, error);
        if (status != RpcStatus::Ok) {
          body = std::string(to_string(status)) + ": " + error + "\n";
          return true;
        }
        body = "job=" + std::to_string(id) +
               " events=" + std::to_string(reply.events.size()) +
               " truncated=" + (reply.truncated ? "1" : "0") + "\n";
        for (const JournalEvent& event : reply.events)
          body += render_journal_event(event) + "\n";
        return true;
      }
      for (const JournalEvent& event : router->journal().tail(256))
        body += render_journal_event(event) + "\n";
      return true;
    });
    if (!http_->start(error)) {
      http_.reset();
      listener_.close();
      return false;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread(&RouterServer::accept_main, this);
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i)
    workers_.emplace_back(&RouterServer::worker_main, this);
  return true;
}

void RouterServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  finished_.wait(lock, [&] {
    return stopping_ || shutdown_requested_.load(std::memory_order_acquire);
  });
}

void RouterServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  finished_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  listener_.close();
  if (http_) {
    http_->stop();
    http_.reset();
  }
  if (alerts_) {
    alerts_->stop();
    alerts_.reset();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
  started_ = false;
  // Shards are the caller's: the router (and its scheduler threads) outlive
  // this front door by design.
}

RouterServerStats RouterServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

AlertsResponse RouterServer::collect_alerts() {
  AlertsResponse fleet;
  fleet.engine_enabled = alerts_ != nullptr;
  if (alerts_) {
    for (const AlertView& view : alerts_->views()) {
      AlertEntry entry;
      entry.shard_id = -1;  // the router's own watchdog
      entry.rule = view.rule;
      entry.state = static_cast<std::uint8_t>(view.state);
      entry.severity = static_cast<std::uint8_t>(view.severity);
      entry.value = view.value;
      entry.threshold = view.threshold;
      entry.since_seconds = view.since_seconds;
      entry.detail = view.detail;
      if (view.state == AlertState::Firing) ++fleet.firing;
      fleet.alerts.push_back(std::move(entry));
    }
  }
  // Remote shards run their own engines; local shards share this process's
  // registry (the router engine above already watches them), and their
  // backend answers BadRequest — skipped, not an error. A remote shard that
  // cannot answer is skipped too: a partial fan-in beats none, and the
  // failure shows in cosched_shard_rpc_errors_total.
  for (std::size_t i = 0; i < router_.shard_count(); ++i) {
    ShardBackend& shard = router_.shard(i);
    if (shard.is_local()) continue;
    AlertsResponse remote;
    std::string shard_error;
    if (shard.alerts(remote, shard_error) != RpcStatus::Ok) continue;
    for (AlertEntry& entry : remote.alerts) {
      entry.shard_id = static_cast<std::int32_t>(i);
      if (entry.state == static_cast<std::uint8_t>(AlertState::Firing))
        ++fleet.firing;
      fleet.alerts.push_back(std::move(entry));
    }
  }
  return fleet;
}

void RouterServer::accept_main() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    NetStatus status = NetStatus::Ok;
    Socket conn = listener_.accept_connection(
        Deadline::after(options_.idle_poll_seconds), status);
    if (status == NetStatus::Timeout) continue;
    if (status != NetStatus::Ok) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    if (pending_.size() + active_sessions_ >= options_.max_connections) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.rejected_connections;
      continue;  // `conn` closes as it goes out of scope
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.accepted_connections;
    }
    pending_.push_back(std::move(conn));
    wake_.notify_one();
  }
}

void RouterServer::worker_main() {
  while (true) {
    Socket conn;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
      ++active_sessions_;
    }
    serve_connection(std::move(conn));
    std::lock_guard<std::mutex> lock(mutex_);
    --active_sessions_;
  }
}

std::uint64_t RouterServer::next_server_trace_id() {
  // Distinct mix constant from CoschedServer's so router-minted ids do not
  // collide with shard-minted ones in a shared tracer.
  std::uint64_t n = trace_id_counter_.fetch_add(1, std::memory_order_relaxed);
  return SplitMix64(0x40D7E45EEDULL + n).next() | 1;
}

void RouterServer::serve_connection(Socket socket) {
  std::vector<std::uint8_t> payload;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    FrameStatus frame_status =
        read_frame(socket, payload, Deadline::after(options_.idle_poll_seconds),
                   options_.max_frame_bytes);
    if (frame_status == FrameStatus::Timeout) continue;
    if (frame_status == FrameStatus::Closed) return;
    if (frame_status != FrameStatus::Ok) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
      return;
    }

    RequestEnvelope request;
    ResponseEnvelope response;
    if (!decode_request(payload, request)) {
      response.status = RpcStatus::BadRequest;
      response.error = "malformed request envelope";
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
    } else if (request.version != kProtocolVersion) {
      response = version_mismatch_response(request);
    } else {
      std::uint64_t trace_id =
          request.trace_id != 0 ? request.trace_id : next_server_trace_id();
      TraceContext context = Tracer::global().make_context(trace_id);
      TraceContextScope trace_scope(context);
      COSCHED_TRACE_SPAN(request_span, "router.request", -1.0,
                         std::string("type=") + to_string(request.type));
      COSCHED_PROFILE_PHASE(request_phase, "router.request");
      response = handle_request(request, trace_id);
      response.trace_id = trace_id;
    }

    // Read-your-reply: counted before the reply goes out, so a client
    // holding its reply always finds the request in stats().
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (response.status == RpcStatus::Ok)
        ++stats_.requests_ok;
      else
        ++stats_.requests_failed;
    }
    FrameStatus write_status = write_frame(
        socket, encode_response(response),
        Deadline::after(options_.request_deadline_seconds +
                        options_.idle_poll_seconds));
    if (write_status != FrameStatus::Ok) return;
    if (response.status == RpcStatus::Ok &&
        response.type == MessageType::Shutdown) {
      shutdown_requested_.store(true, std::memory_order_release);
      finished_.notify_all();
      return;
    }
  }
}

ResponseEnvelope RouterServer::handle_request(const RequestEnvelope& request,
                                              std::uint64_t trace_id) {
  ResponseEnvelope response;
  response.type = request.type;
  response.request_id = request.request_id;

  WireWriter body;
  WireReader reader(request.body);
  std::string error;
  auto fail = [&](RpcStatus status, std::string message) {
    response.status = status;
    response.error = std::move(message);
    return response;
  };

  switch (request.type) {
    case MessageType::SubmitJob: {
      TraceJob job;
      if (!decode_trace_job(reader, job) || !reader.complete())
        return fail(RpcStatus::BadRequest, "malformed SubmitJob body");
      SubmitJobResponse reply;
      RpcStatus status = router_.submit(job, reply, error, trace_id);
      if (status != RpcStatus::Ok) return fail(status, error);
      encode_submit_response(body, reply);
      break;
    }
    case MessageType::QueryJobStatus: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "malformed QueryJobStatus body");
      JobStatusResponse reply;
      RpcStatus status = router_.job_status(job_id, reply, error);
      if (status != RpcStatus::Ok) {
        return fail(status, error.empty()
                                ? "no job with id " + std::to_string(job_id)
                                : error);
      }
      encode_status_response(body, reply);
      break;
    }
    case MessageType::QueryJobTimeline: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "malformed QueryJobTimeline body");
      JobTimelineResponse reply;
      RpcStatus status = router_.job_timeline(job_id, reply, error);
      if (status != RpcStatus::Ok) {
        return fail(status, error.empty()
                                ? "no job with id " + std::to_string(job_id)
                                : error);
      }
      encode_timeline_response(body, reply);
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      if (!reader.complete())
        return fail(RpcStatus::BadRequest,
                    "unexpected QueryScheduleSnapshot body");
      ServiceSnapshot snapshot;
      RpcStatus status = router_.snapshot(snapshot, error);
      if (status != RpcStatus::Ok) return fail(status, error);
      encode_service_snapshot(body, snapshot);
      break;
    }
    case MessageType::GetMetrics: {
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "unexpected GetMetrics body");
      MetricsResponse reply;
      RpcStatus status = router_.metrics(reply, error);
      if (status != RpcStatus::Ok) return fail(status, error);
      encode_metrics_response(body, reply);
      break;
    }
    case MessageType::TraceDump: {
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "unexpected TraceDump body");
      // Fan-in: the router's own dump (which covers local shards — they
      // share this process's tracer) merged with every remote shard's
      // dump, namespaced "shard<k>/" and moved to its own Perfetto pid.
      // Flow events keep their name/id so the shared trace ids draw the
      // router -> shard arrows. A shard that cannot answer is skipped: a
      // partial trace beats no trace, and the failure shows up in the
      // cosched_shard_rpc_errors_total counters.
      const Tracer& tracer = Tracer::global();
      TraceDumpResponse reply;
      reply.enabled = tracer.enabled();
      reply.event_count = tracer.event_count();
      reply.text = tracer.dump_text();
      std::vector<std::string> chrome_parts;
      chrome_parts.push_back(tracer.export_chrome_json());
      for (std::size_t i = 0; i < router_.shard_count(); ++i) {
        ShardBackend& shard = router_.shard(i);
        if (shard.is_local()) continue;
        TraceDumpResponse remote;
        std::string shard_error;
        if (shard.trace_dump(remote, shard_error) != RpcStatus::Ok) continue;
        const std::string prefix = "shard" + std::to_string(i) + "/";
        reply.event_count += remote.event_count;
        reply.text += namespace_trace_text(remote.text, prefix);
        chrome_parts.push_back(namespace_chrome_trace(
            remote.chrome_json, static_cast<int>(i) + 2, prefix));
      }
      reply.chrome_json = chrome_parts.size() == 1
                              ? std::move(chrome_parts.front())
                              : merge_chrome_traces(chrome_parts);
      encode_trace_dump_response(body, reply);
      break;
    }
    case MessageType::Drain: {
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "unexpected Drain body");
      DrainResponse reply;
      RpcStatus status = router_.drain(reply, error);
      if (status != RpcStatus::Ok) return fail(status, error);
      encode_drain_response(body, reply);
      break;
    }
    case MessageType::Shutdown: {
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "unexpected Shutdown body");
      MetricsResponse fleet;
      body.real(router_.metrics(fleet, error) == RpcStatus::Ok
                    ? fleet.virtual_now
                    : 0.0);
      break;
    }
    case MessageType::GetAlerts: {
      if (!reader.complete())
        return fail(RpcStatus::BadRequest, "unexpected GetAlerts body");
      encode_alerts_response(body, collect_alerts());
      break;
    }
    case MessageType::SubscribeTelemetry: {
      // Streaming is a per-shard concern: in an RPC-addressable deployment
      // subscribe to the shard servers directly.
      return fail(RpcStatus::BadRequest,
                  "SubscribeTelemetry is not served by the router");
    }
  }
  response.status = RpcStatus::Ok;
  response.body = body.take();
  return response;
}

}  // namespace cosched
