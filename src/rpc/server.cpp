#include "rpc/server.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/log.hpp"
#include "obs/tail_sampler.hpp"
#include "obs/trace.hpp"
#include "online/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cosched {

namespace {

/// Frame-level sampling-mode label advertised to telemetry subscribers:
/// the head-based rate plus the tail policies, e.g.
/// "head:1-in-64,tail(slow-replans)".
std::string sampling_mode_label() {
  std::uint64_t every = Tracer::global().sample_every();
  std::string label =
      every <= 1 ? "head:all" : "head:1-in-" + std::to_string(every);
  std::string tail = TailSampler::global().mode_label();
  if (!tail.empty()) label += "," + tail;
  return label;
}

}  // namespace

CoschedServer::CoschedServer(ServerOptions options)
    : options_(std::move(options)) {
  COSCHED_EXPECTS(options_.worker_threads >= 1);
  COSCHED_EXPECTS(options_.max_connections >= 1);
  service_ = std::make_unique<LiveSchedulerService>(options_.service);
}

CoschedServer::~CoschedServer() { stop(); }

bool CoschedServer::start(std::string& error) {
  NetStatus status = NetStatus::Ok;
  listener_ = Socket::listen_on(options_.host, options_.port,
                                options_.backlog, status);
  if (status != NetStatus::Ok) {
    error = std::string("cannot listen on ") + options_.host + ": " +
            to_string(status);
    return false;
  }
  port_ = listener_.local_port();

  // SLO watchdog: scrape-and-evaluate on a background tick. A standalone
  // server gets the default burn-rate rules against its latency budget
  // unless the caller supplied a rule file.
  if (options_.enable_alerts) {
    AlertEngineOptions alert_options = options_.alerts;
    if (alert_options.rules.rules.empty())
      alert_options.rules = default_alert_rules(options_.alert_budget_ms);
    alerts_ = std::make_unique<AlertEngine>(std::move(alert_options));
    alerts_->set_journal(&service_->journal());
    alerts_->start();
  }

  if (options_.enable_http) {
    HttpOptions http_options;
    http_options.host = options_.host;
    http_options.port = options_.http_port;
    http_ = std::make_unique<HttpEndpoint>(http_options);
    http_->handle("/metrics", [this](const std::string&, std::string& body,
                                     std::string& content_type) {
      // Exemplars ride on the side door: a Grafana heatmap cell links
      // straight to the trace behind it. The labeled log/journal families
      // are hand-rendered (the registry callbacks are label-free).
      body = MetricsRegistry::global().render_prometheus(true);
      body += render_log_metrics();
      body += render_journal_metrics(service_->journal());
      if (alerts_) body += render_alert_metrics(*alerts_);
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      return true;
    });
    http_->handle("/healthz", [this](const std::string&, std::string& body,
                                     std::string&) {
      // Firing alerts degrade the verdict (still 200 — the process serves)
      // so a fleet prober sees the watchdog's judgement, not just liveness.
      std::vector<std::string> firing =
          alerts_ ? alerts_->firing_rules() : std::vector<std::string>{};
      if (firing.empty()) {
        body = "ok\n";
      } else {
        body = "degraded: firing";
        for (const std::string& rule : firing) body += " " + rule;
        body += "\n";
      }
      return true;
    });
    http_->handle("/alerts", [this](const std::string& target,
                                    std::string& body,
                                    std::string& content_type) {
      std::vector<AlertView> views =
          alerts_ ? alerts_->views() : std::vector<AlertView>{};
      if (http_query_param(target, "format") == "json") {
        body = render_alerts_json(views, alerts_ != nullptr);
        content_type = "application/json";
      } else {
        body = render_alerts_text(views, alerts_ != nullptr);
      }
      return true;
    });
    http_->handle("/debug/profile", [](const std::string&, std::string& body,
                                       std::string&) {
      // Collapsed-stack ("folded") format: one "path self_us" line per
      // phase, ready for flamegraph.pl / speedscope.
      body = Profiler::global().render_collapsed();
      return true;
    });
    http_->handle("/debug/events", [this](const std::string& target,
                                          std::string& body, std::string&) {
      // ?job=<id> filters to one job's timeline; bare = the newest 256
      // decisions fleet-wide (the firehose view).
      const DecisionJournal& journal = service_->journal();
      const std::string job_param = http_query_param(target, "job");
      if (!job_param.empty()) {
        char* end = nullptr;
        long long id = std::strtoll(job_param.c_str(), &end, 10);
        if (end == job_param.c_str() || *end != '\0') {
          body = "bad job id: " + job_param + "\n";
          return true;
        }
        JobTimeline timeline = journal.query(static_cast<std::int64_t>(id));
        body = "job=" + std::to_string(id) +
               " events=" + std::to_string(timeline.events.size()) +
               " truncated=" + (timeline.truncated ? "1" : "0") + "\n";
        for (const JournalEvent& event : timeline.events)
          body += render_journal_event(event) + "\n";
        return true;
      }
      for (const JournalEvent& event : journal.tail(256))
        body += render_journal_event(event) + "\n";
      return true;
    });
    if (!http_->start(error)) {
      http_.reset();
      listener_.close();
      return false;
    }
  }
  register_observability();

  // A serving scheduler profiles itself: the scoped phase timers cost two
  // clock reads per phase, and /debug/profile needs data behind it.
  Profiler::global().set_enabled(true);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread(&CoschedServer::accept_main, this);
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i)
    workers_.emplace_back(&CoschedServer::worker_main, this);
  return true;
}

void CoschedServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  finished_.wait(lock, [&] {
    return stopping_ || shutdown_requested_.load(std::memory_order_acquire);
  });
}

void CoschedServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  finished_.notify_all();
  // The accept loop and the sessions poll with idle_poll_seconds slices and
  // re-check the stop flag, so joining here is bounded; the listener is only
  // closed once no thread can be inside poll() on it.
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
  unregister_observability();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.clear();
    started_ = false;
  }
  service_->stop();
}

void CoschedServer::register_observability() {
  MetricsRegistry& reg = MetricsRegistry::global();
  request_latency_ = &reg.histogram(
      "cosched_rpc_request_seconds", "RPC request service time",
      {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
       1.0, 2.5});
  queue_wait_metric_ = &reg.histogram(kQueueWaitMetricName,
                                      kQueueWaitMetricHelp,
                                      queue_wait_metric_edges());
  auto cb = [&](const char* name, const char* help, const char* type,
                std::function<double()> sample) {
    reg.callback(name, help, type, std::move(sample));
    callback_names_.push_back(name);
  };
  const DegradationCache& cache = service_->oracle_cache();
  cb("cosched_cache_hits_total", "oracle cache hits", "counter",
     [&cache] { return static_cast<double>(cache.stats().hits); });
  cb("cosched_cache_misses_total", "oracle cache misses", "counter",
     [&cache] { return static_cast<double>(cache.stats().misses); });
  cb("cosched_cache_entries", "oracle cache live entries", "gauge",
     [&cache] { return static_cast<double>(cache.stats().entries); });
  cb("cosched_cache_evictions_total",
     "oracle cache entries dropped by compaction", "counter",
     [&cache] { return static_cast<double>(cache.stats().evictions); });
  cb("cosched_cache_compactions_total", "oracle cache compaction passes",
     "counter",
     [&cache] { return static_cast<double>(cache.stats().compactions); });
  cb("cosched_rpc_connections_active", "sessions currently being served",
     "gauge", [this] {
       std::lock_guard<std::mutex> lock(mutex_);
       return static_cast<double>(active_sessions_);
     });
  cb("cosched_rpc_queue_depth", "accepted connections awaiting a worker",
     "gauge", [this] {
       std::lock_guard<std::mutex> lock(mutex_);
       return static_cast<double>(pending_.size());
     });
  cb("cosched_rpc_connections_accepted_total", "connections accepted",
     "counter", [this] {
       return static_cast<double>(stats().accepted_connections);
     });
  cb("cosched_rpc_connections_rejected_total",
     "connections refused at the cap", "counter", [this] {
       return static_cast<double>(stats().rejected_connections);
     });
  cb("cosched_rpc_requests_ok_total", "requests answered Ok", "counter",
     [this] { return static_cast<double>(stats().requests_ok); });
  cb("cosched_rpc_requests_failed_total", "non-Ok responses sent", "counter",
     [this] { return static_cast<double>(stats().requests_failed); });
  cb("cosched_rpc_malformed_frames_total",
     "frames dropped as structurally invalid", "counter",
     [this] { return static_cast<double>(stats().malformed_frames); });
  cb("cosched_tracer_dropped_events_total",
     "trace events overwritten by the per-thread rings", "counter",
     [] { return static_cast<double>(Tracer::global().dropped_events()); });
  cb("cosched_tracer_sampled_out_traces_total",
     "traces suppressed by head-based sampling", "counter", [] {
       return static_cast<double>(Tracer::global().sampled_out_traces());
     });
  cb("cosched_tracer_buffered_events",
     "trace events currently resident across thread rings", "gauge",
     [] { return static_cast<double>(Tracer::global().event_count()); });
  cb("cosched_tail_considered_spans_total",
     "root spans observed by the tail sampler", "counter", [] {
       return static_cast<double>(TailSampler::global().stats().considered);
     });
  cb("cosched_tail_kept_spans_total",
     "root spans retained by the tail sampler (all keep reasons)",
     "counter",
     [] { return static_cast<double>(TailSampler::global().stats().kept()); });
  cb("cosched_tail_dropped_spans_total",
     "root spans rejected by every tail policy", "counter", [] {
       return static_cast<double>(TailSampler::global().stats().dropped);
     });
  cb("cosched_tail_pending_spans",
     "spans parked in the tail sampler's bounded pending window", "gauge",
     [] { return static_cast<double>(TailSampler::global().pending()); });
  cb("cosched_tail_retained_spans",
     "spans resident in the tail sampler's bounded retained ring", "gauge",
     [] { return static_cast<double>(TailSampler::global().retained()); });
  cb("cosched_telemetry_subscribers", "live SubscribeTelemetry streams",
     "gauge", [this] {
       return static_cast<double>(
           telemetry_subscribers_.load(std::memory_order_relaxed));
     });
  cb("cosched_telemetry_frames_total", "telemetry frames pushed", "counter",
     [this] { return static_cast<double>(stats().telemetry_frames); });
  cb("cosched_telemetry_dropped_spans_total",
     "span samples shed by per-subscriber backpressure", "counter", [this] {
       return static_cast<double>(stats().telemetry_dropped_spans);
     });
}

void CoschedServer::unregister_observability() {
  MetricsRegistry& reg = MetricsRegistry::global();
  for (const std::string& name : callback_names_)
    reg.unregister_callback(name);
  callback_names_.clear();
  // The latency histogram stays registered (its samples outlive the server;
  // nothing it references dies with us).
}

ServerStats CoschedServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void CoschedServer::accept_main() {
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
      if (stopping_) return;  // listener closed by stop()
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    if (pending_.size() + active_sessions_ >= options_.max_connections) {
      // At the cap: refuse by closing. The client sees a clean EOF before
      // any response and reports a transport error it may retry later.
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

void CoschedServer::worker_main() {
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

void CoschedServer::serve_connection(Socket socket) {
  std::vector<std::uint8_t> payload;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    FrameStatus frame_status =
        read_frame(socket, payload, Deadline::after(options_.idle_poll_seconds),
                   options_.max_frame_bytes);
    if (frame_status == FrameStatus::Timeout) continue;  // idle connection
    if (frame_status == FrameStatus::Closed) return;     // clean disconnect
    if (frame_status != FrameStatus::Ok) {
      // Truncated / BadMagic / Oversized: the stream is unusable; count it
      // and drop the connection.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
      return;
    }

    WallTimer request_timer;
    RequestEnvelope request;
    ResponseEnvelope response;
    std::uint64_t trace_id = 0;
    if (!decode_request(payload, request)) {
      response.status = RpcStatus::BadRequest;
      response.error = "malformed request envelope";
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
    } else if (request.version != kProtocolVersion) {
      response = version_mismatch_response(request);
    } else if (request.type == MessageType::SubscribeTelemetry) {
      // The connection becomes a server-push stream; serve_telemetry owns
      // it (including the ack and all stats) until the subscriber leaves.
      serve_telemetry(socket, request);
      return;
    } else {
      // Correlation: adopt the client's trace_id or mint one, latch
      // the head-based sampling decision, and keep the context installed
      // for the whole dispatch — the scheduler command queue re-installs
      // it on the scheduler thread, so replan and solver spans inherit it.
      trace_id = request.trace_id != 0 ? request.trace_id
                                       : next_server_trace_id();
      TraceContext context = Tracer::global().make_context(trace_id);
      TraceContextScope trace_scope(context);
      // Shard-addressable servers tag the request span with their shard id,
      // so a merged fleet dump attributes every span to its shard.
      COSCHED_TRACE_SPAN(
          request_span, "rpc.request", -1.0,
          std::string("type=") + to_string(request.type) +
              (options_.shard_id >= 0
                   ? " shard=" + std::to_string(options_.shard_id)
                   : std::string()));
      response = handle_request(request);
      response.trace_id = trace_id;
    }

    // Read-your-reply: the request is on the books (latency histogram,
    // ok/failed counters) before its reply goes out, so a client that
    // holds the reply always finds it in /metrics. The trace context is
    // gone by now (trace_scope closed with its branch), so the exemplar
    // trace id is passed explicitly.
    if (request_latency_)
      request_latency_->observe(request_timer.seconds(), trace_id);
    if (TailSampler::global().active()) {
      // Tail end-hook: report the finished root span with its measured
      // duration — the keep/drop decision happens *now*, when slowness is
      // known, independent of the head sampler's recording decision.
      CompletedSpan root;
      root.name = "rpc.request";
      root.trace_id = trace_id;
      root.duration_us = request_timer.seconds() * 1e6;
      root.error = response.status != RpcStatus::Ok;
      root.args = std::string("type=") + to_string(response.type);
      TailSampler::global().observe(std::move(root));
    }
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
    if (write_status != FrameStatus::Ok) return;  // peer went away mid-reply
    if (response.status == RpcStatus::Ok &&
        response.type == MessageType::Shutdown) {
      // Acknowledged; trip the latch after the reply is on the wire.
      shutdown_requested_.store(true, std::memory_order_release);
      finished_.notify_all();
      return;
    }
  }
}

std::uint64_t CoschedServer::next_server_trace_id() {
  // Deterministic per-server sequence, mixed so server-minted ids do not
  // collide with the small integers clients tend to pick; | 1 keeps them
  // nonzero (0 means "no trace" everywhere).
  std::uint64_t n = trace_id_counter_.fetch_add(1, std::memory_order_relaxed);
  return SplitMix64(0xC05C4EDB00C5ULL + n).next() | 1;
}

void CoschedServer::serve_telemetry(Socket& socket,
                                    const RequestEnvelope& request) {
  ResponseEnvelope ack;
  ack.type = request.type;
  ack.request_id = request.request_id;

  // Counted before the ack goes out, like every unary reply.
  auto fail = [&](RpcStatus status, const char* error) {
    ack.status = status;
    ack.error = error;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests_failed;
    }
    write_frame(socket, encode_response(ack),
                Deadline::after(options_.idle_poll_seconds));
  };

  TelemetrySubscribeRequest sub;
  WireReader reader(request.body);
  if (!decode_telemetry_subscribe_request(reader, sub) ||
      !reader.complete()) {
    fail(RpcStatus::BadRequest, "malformed SubscribeTelemetry body");
    return;
  }

  const double interval_seconds =
      static_cast<double>(std::max<std::uint32_t>(sub.interval_ms, 10)) /
      1000.0;
  const std::size_t max_spans =
      sub.max_spans_per_frame == 0 ? 512 : sub.max_spans_per_frame;
  std::uint64_t trace_id =
      request.trace_id != 0 ? request.trace_id : next_server_trace_id();

  TelemetrySubscribeAck ack_body;
  ack_body.interval_ms =
      static_cast<std::uint32_t>(interval_seconds * 1000.0);
  ack_body.max_spans_per_frame = static_cast<std::uint32_t>(max_spans);
  WireWriter ack_writer;
  encode_telemetry_subscribe_ack(ack_writer, ack_body);
  ack.trace_id = trace_id;
  ack.status = RpcStatus::Ok;
  ack.body = ack_writer.take();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests_ok;
  }
  if (write_frame(socket, encode_response(ack),
                  Deadline::after(options_.request_deadline_seconds)) !=
      FrameStatus::Ok)
    return;

  telemetry_subscribers_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cursor = Tracer::global().current_seq();
  std::uint64_t frame_seq = 0;
  std::vector<std::uint8_t> inbound;

  auto send_frame = [&](bool last) -> bool {
    TelemetryFrame frame;
    frame.frame_seq = frame_seq++;
    frame.last = last;
    // Subscribers learn which sampling configuration produced the span
    // stream (the label travels per frame: knobs can change mid-stream).
    frame.sampling_mode = sampling_mode_label();
    std::vector<PrometheusSample> samples;
    if (parse_prometheus_text(MetricsRegistry::global().render_prometheus(),
                              samples)) {
      frame.metrics.reserve(samples.size());
      for (PrometheusSample& s : samples) {
        TelemetryMetricSample m;
        m.name = s.labels.empty() ? std::move(s.name)
                                  : s.name + "{" + s.labels + "}";
        m.value = s.value;
        frame.metrics.push_back(std::move(m));
      }
    }
    Tracer::TelemetryBatch batch =
        Tracer::global().collect_since(cursor, sub.prefix, max_spans);
    cursor = batch.next_cursor;
    frame.dropped_spans = batch.dropped;
    frame.spans.reserve(batch.events.size());
    for (Tracer::TelemetryEvent& e : batch.events) {
      TelemetrySpanSample s;
      s.name = std::move(e.name);
      s.phase = static_cast<std::uint8_t>(e.phase);
      s.trace_id = e.trace_id;
      s.seq = e.seq;
      s.tid = e.tid;
      s.depth = e.depth;
      s.wall_us = e.wall_us;
      s.virtual_time = e.virtual_time;
      s.value = e.value;
      s.args = std::move(e.args);
      frame.spans.push_back(std::move(s));
    }
    ResponseEnvelope push;
    push.type = request.type;
    push.request_id = request.request_id;
    push.trace_id = trace_id;
    push.status = RpcStatus::Ok;
    WireWriter body;
    encode_telemetry_frame(body, frame);
    push.body = body.take();
    // A subscriber that cannot drain a frame within one interval (plus the
    // poll slack) is dropped — per-subscriber buffering stays bounded at
    // one in-flight frame.
    bool ok = write_frame(socket, encode_response(push),
                          Deadline::after(interval_seconds +
                                          options_.idle_poll_seconds)) ==
              FrameStatus::Ok;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (ok) ++stats_.telemetry_frames;
    stats_.telemetry_dropped_spans += batch.dropped;
    return ok;
  };

  bool running = true;
  while (running) {
    // Pace one interval, watching the stop flag and the subscriber socket
    // (a frame from the client = polite unsubscribe; EOF/garbage = gone).
    Deadline tick = Deadline::after(interval_seconds);
    bool unsubscribe = false;
    bool disconnected = false;
    while (!tick.expired()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
          unsubscribe = true;
          break;
        }
      }
      double slice =
          std::min(options_.idle_poll_seconds,
                   static_cast<double>(tick.remaining_ms()) / 1000.0);
      if (socket.wait_readable(Deadline::after(slice)) != NetStatus::Ok)
        continue;  // timeout: keep pacing
      FrameStatus in = read_frame(socket, inbound,
                                  Deadline::after(options_.idle_poll_seconds),
                                  options_.max_frame_bytes);
      if (in == FrameStatus::Ok) {
        unsubscribe = true;  // any client frame ends the stream cleanly
      } else {
        disconnected = true;  // EOF or a broken stream
        if (in != FrameStatus::Closed) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.malformed_frames;
        }
      }
      break;
    }
    if (disconnected) break;
    if (unsubscribe) {
      send_frame(true);  // best-effort final frame
      break;
    }
    bool last = sub.max_frames != 0 && frame_seq + 1 >= sub.max_frames;
    if (!send_frame(last) || last) running = false;
  }
  telemetry_subscribers_.fetch_sub(1, std::memory_order_relaxed);
}

ResponseEnvelope CoschedServer::handle_request(const RequestEnvelope& request) {
  ResponseEnvelope response;
  response.type = request.type;
  response.request_id = request.request_id;

  // Per-request server-side budget. The same budget bounds the wait on the
  // scheduler thread; an expired deadline is reported, not worked through.
  Deadline deadline = Deadline::after(options_.request_deadline_seconds);
  auto remaining_seconds = [&]() -> double {
    int ms = deadline.remaining_ms();
    return ms < 0 ? -1.0 : static_cast<double>(ms) / 1000.0;
  };
  if (deadline.expired()) {
    response.status = RpcStatus::DeadlineExpired;
    response.error = "request budget exhausted before dispatch";
    return response;
  }

  WireWriter body;
  WireReader reader(request.body);
  switch (request.type) {
    case MessageType::SubmitJob: {
      TraceJob job;
      if (!decode_trace_job(reader, job) || !reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "malformed SubmitJob body";
        return response;
      }
      SubmitOutcome outcome;
      if (!service_->submit(job, outcome, remaining_seconds())) {
        response.status = RpcStatus::DeadlineExpired;
        response.error = "scheduler did not answer within the budget";
        return response;
      }
      if (outcome.error == SubmitError::Draining) {
        response.status = RpcStatus::Draining;
        response.error = "service is draining; admissions stopped";
        return response;
      }
      if (outcome.error == SubmitError::Invalid) {
        response.status = RpcStatus::InvalidJob;
        response.error = "job shape rejected (processes in [1, " +
                         std::to_string(service_->total_cores()) +
                         "], work > 0)";
        return response;
      }
      SubmitJobResponse reply;
      reply.job_id = outcome.job_id;
      reply.virtual_now = outcome.virtual_now;
      reply.status = outcome.status;
      reply.shard_id = options_.shard_id;
      encode_submit_response(body, reply);
      break;
    }
    case MessageType::QueryJobStatus: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "malformed QueryJobStatus body";
        return response;
      }
      StatusOutcome outcome;
      if (!service_->job_status(job_id, outcome, remaining_seconds())) {
        response.status = RpcStatus::DeadlineExpired;
        response.error = "scheduler did not answer within the budget";
        return response;
      }
      if (!outcome.found) {
        response.status = RpcStatus::UnknownJob;
        response.error = "no job with id " + std::to_string(job_id);
        return response;
      }
      JobStatusResponse reply;
      reply.found = true;
      reply.virtual_now = outcome.virtual_now;
      reply.status = outcome.status;
      encode_status_response(body, reply);
      break;
    }
    case MessageType::QueryJobTimeline: {
      std::int64_t job_id = reader.i64();
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "malformed QueryJobTimeline body";
        return response;
      }
      TimelineOutcome outcome;
      if (!service_->job_timeline(job_id, outcome, remaining_seconds())) {
        response.status = RpcStatus::DeadlineExpired;
        response.error = "scheduler did not answer within the budget";
        return response;
      }
      if (!outcome.found) {
        response.status = RpcStatus::UnknownJob;
        response.error = "no job with id " + std::to_string(job_id);
        return response;
      }
      JobTimelineResponse reply;
      reply.job_id = job_id;
      reply.found = true;
      reply.truncated = outcome.timeline.truncated;
      reply.virtual_now = outcome.virtual_now;
      reply.events = std::move(outcome.timeline.events);
      encode_timeline_response(body, reply);
      break;
    }
    case MessageType::GetAlerts: {
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "unexpected GetAlerts body";
        return response;
      }
      AlertsResponse reply;
      reply.engine_enabled = alerts_ != nullptr;
      if (alerts_) {
        for (const AlertView& view : alerts_->views()) {
          AlertEntry entry;
          entry.shard_id = options_.shard_id;
          entry.rule = view.rule;
          entry.state = static_cast<std::uint8_t>(view.state);
          entry.severity = static_cast<std::uint8_t>(view.severity);
          entry.value = view.value;
          entry.threshold = view.threshold;
          entry.since_seconds = view.since_seconds;
          entry.detail = view.detail;
          if (view.state == AlertState::Firing) ++reply.firing;
          reply.alerts.push_back(std::move(entry));
        }
      }
      encode_alerts_response(body, reply);
      break;
    }
    case MessageType::QueryScheduleSnapshot: {
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "unexpected QueryScheduleSnapshot body";
        return response;
      }
      ServiceSnapshot snapshot;
      if (!service_->snapshot(snapshot, remaining_seconds())) {
        response.status = RpcStatus::DeadlineExpired;
        response.error = "scheduler did not answer within the budget";
        return response;
      }
      encode_service_snapshot(body, snapshot);
      break;
    }
    case MessageType::GetMetrics: {
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "unexpected GetMetrics body";
        return response;
      }
      MetricsOutcome outcome;
      if (!service_->metrics(outcome, remaining_seconds())) {
        response.status = RpcStatus::DeadlineExpired;
        response.error = "scheduler did not answer within the budget";
        return response;
      }
      MetricsResponse reply;
      reply.virtual_now = outcome.virtual_now;
      reply.arrivals = outcome.arrivals;
      reply.admissions = outcome.admissions;
      reply.completions = outcome.completions;
      reply.replans = outcome.replans;
      reply.migrations = outcome.migrations;
      reply.running_mean_degradation = outcome.running_mean_degradation;
      reply.cache = outcome.cache;
      reply.deterministic_csv = outcome.deterministic_csv;
      MetricsRegistry& reg = MetricsRegistry::global();
      reply.astar_searches =
          reg.counter("cosched_astar_searches_total", "graph searches run")
              .value();
      reply.astar_expansions =
          reg.counter("cosched_astar_expansions_total", "subpaths expanded")
              .value();
      reply.astar_heuristic_evals =
          reg.counter("cosched_astar_heuristic_evals_total", "h(v) evaluations")
              .value();
      ServerStats snapshot = stats();
      reply.rpc_requests_ok = snapshot.requests_ok;
      reply.rpc_requests_failed = snapshot.requests_failed;
      if (request_latency_) {
        Histogram latency = request_latency_->snapshot();
        reply.rpc_request_count = latency.count();
        reply.rpc_request_seconds_sum = latency.sum();
        reply.rpc_request_seconds_p99 = latency.quantile(0.99);
        const Exemplar* newest = nullptr;
        for (const Exemplar& exemplar : latency.exemplars())
          if (exemplar.valid && (!newest || exemplar.seq > newest->seq))
            newest = &exemplar;
        if (newest) {
          reply.latency_exemplar_trace_id = newest->trace_id;
          reply.latency_exemplar_seconds = newest->value;
        }
      }
      if (queue_wait_metric_) {
        Histogram queue_wait = queue_wait_metric_->snapshot();
        reply.queue_wait_count = queue_wait.count();
        reply.queue_wait_seconds_sum = queue_wait.sum();
        reply.queue_wait_seconds_p99 = queue_wait.quantile(0.99);
      }
      reply.tracer_dropped_events = Tracer::global().dropped_events();
      TailSampler& tail = TailSampler::global();
      TailSamplerStats tail_stats = tail.stats();
      reply.tail_considered = tail_stats.considered;
      reply.tail_kept = tail_stats.kept();
      reply.tail_dropped = tail_stats.dropped;
      reply.tail_pending = tail.pending();
      reply.tail_retained_spans = tail.retained();
      // Shard/fan-in block of a single instance: its identity and its
      // spillover signals. A standalone server fronts no shards, so the
      // per-shard list stays empty and the router accounting zero.
      reply.shard_id = options_.shard_id;
      LoadProbe probe = service_->load();
      reply.command_queue_depth = probe.queue_depth;
      reply.replan_p95_seconds = probe.replan_p95_seconds;
      encode_metrics_response(body, reply);
      break;
    }
    case MessageType::TraceDump: {
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "unexpected TraceDump body";
        return response;
      }
      const Tracer& tracer = Tracer::global();
      TraceDumpResponse reply;
      reply.enabled = tracer.enabled();
      reply.event_count = tracer.event_count();
      reply.text = tracer.dump_text();
      reply.chrome_json = tracer.export_chrome_json();
      encode_trace_dump_response(body, reply);
      break;
    }
    case MessageType::Drain: {
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "unexpected Drain body";
        return response;
      }
      DrainOutcome outcome;
      if (!service_->drain(outcome, remaining_seconds())) {
        response.status = RpcStatus::DeadlineExpired;
        response.error = "drain did not finish within the budget";
        return response;
      }
      DrainResponse reply;
      reply.completions = outcome.completions;
      reply.virtual_now = outcome.virtual_now;
      encode_drain_response(body, reply);
      break;
    }
    case MessageType::Shutdown: {
      if (!reader.complete()) {
        response.status = RpcStatus::BadRequest;
        response.error = "unexpected Shutdown body";
        return response;
      }
      body.real(0.0);  // virtual_now placeholder when metrics unavailable
      MetricsOutcome outcome;
      if (service_->metrics(outcome, remaining_seconds())) {
        WireWriter fresh;
        fresh.real(outcome.virtual_now);
        body = std::move(fresh);
      }
      break;
    }
    case MessageType::SubscribeTelemetry: {
      // Streamed on the connection level (serve_telemetry); reaching the
      // unary dispatcher means the caller misrouted it.
      response.status = RpcStatus::BadRequest;
      response.error = "SubscribeTelemetry is a streaming request";
      return response;
    }
  }
  response.status = RpcStatus::Ok;
  response.body = body.take();
  return response;
}

}  // namespace cosched
