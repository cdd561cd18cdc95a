// Wire-format tests of the single protocol version (src/rpc/protocol):
//
//  * golden bytes — one fully populated instance of each pinned message is
//    encoded and compared byte for byte with the version-8 layout; a diff
//    here means the layout moved and kProtocolVersion must bump;
//  * a deterministic mutation sweep — every truncation prefix, seeded byte
//    flips and inflated u32 counts/lengths of each valid encoding go
//    through its decoder, which must reject or decode without crashing or
//    reading out of bounds (run under ASan/UBSan via `ctest -L net`).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rpc/protocol.hpp"
#include "util/rng.hpp"

namespace cosched {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(text.substr(i, 2), nullptr, 16)));
  return out;
}

template <typename T>
std::vector<std::uint8_t> encoded(void (*encode)(WireWriter&, const T&),
                                  const T& value) {
  WireWriter w;
  encode(w, value);
  return w.take();
}

/// Decodes `bytes` as one whole body: the decoder must succeed and consume
/// every byte.
template <typename T>
bool decodes_whole(bool (*decode)(WireReader&, T&),
                   const std::vector<std::uint8_t>& bytes, T& out) {
  WireReader r(bytes);
  return decode(r, out) && r.complete();
}

// ------------------------------------------------------------- fixtures

// One fully populated instance of every pinned message. Changing a value
// here changes the golden bytes below.

SubmitJobResponse golden_submit_ack() {
  JobStatusView status{.id = 0x0102030405,
                       .name = "mpi/lu.C.4",
                       .phase = JobPhase::Running,
                       .arrival_time = 3.25,
                       .admit_time = 4.0,
                       .finish_time = -1.0,
                       .work = 17.5,
                       .procs = {{40, 1, 0.125, 6.0}, {41, 2, 0.375, 5.5}}};
  return {.job_id = 0x0102030405, .virtual_now = 12.5, .status = status,
          .shard_id = 3};
}

MetricsResponse golden_metrics() {
  MetricsResponse m{
      .virtual_now = 99.75, .arrivals = 120, .admissions = 118,
      .completions = 110, .replans = 31, .migrations = 7,
      .running_mean_degradation = 0.1875,
      .cache = {.hits = 5000, .misses = 250, .entries = 240, .evictions = 10,
                .compactions = 2},
      .deterministic_csv = "t,jobs\n1,2\n",
      .astar_searches = 31, .astar_expansions = 4096,
      .astar_heuristic_evals = 8192, .rpc_requests_ok = 121,
      .rpc_requests_failed = 1, .rpc_request_count = 122,
      .rpc_request_seconds_sum = 3.5, .rpc_request_seconds_p99 = 0.625,
      .queue_wait_count = 118, .queue_wait_seconds_sum = 42.0,
      .queue_wait_seconds_p99 = 2.25, .tracer_dropped_events = 9,
      .tail_considered = 60, .tail_kept = 12, .tail_dropped = 45,
      .tail_pending = 3, .tail_retained_spans = 48,
      .latency_exemplar_trace_id = 0xABCDEF0123456789ull,
      .latency_exemplar_seconds = 0.5, .shard_id = -1,
      .command_queue_depth = 4, .replan_p95_seconds = 0.75,
      .router_spillovers = 5, .router_remapped_keys = 2,
      .shards = {{0, 70, 70, 69, 65, 18, 4, 99.75, 3, 0.75},
                 {1, 50, 50, 49, 45, 13, 3, 88.0, 1, 0.5}},
      .shard_health = {{.shard_id = 0},
                       {.shard_id = 1, .up = false, .transport_errors = 7,
                        .protocol_errors = 1, .application_errors = 2}}};
  return m;
}

TelemetryFrame golden_telemetry_frame() {
  TelemetrySpanSample span{.name = "replan.commit", .phase = 1,
                           .trace_id = 0x77, .seq = 900, .tid = 2,
                           .depth = 1, .wall_us = 12.5, .virtual_time = 3.0,
                           .value = 0.0, .args = "jobs=4"};
  return {.frame_seq = 7,
          .last = true,
          .dropped_spans = 2,
          .metrics = {{"cosched_cache_hits_total", 42.0},
                      {"cosched_rpc_request_seconds_count", 8.0}},
          .spans = {span},
          .sampling_mode = "head:1-in-64,tail(slow-replans)"};
}

JobTimelineResponse golden_timeline() {
  JournalEvent admitted{.job_id = 17, .kind = JournalEventKind::Admission,
                        .time = 4.0, .trace_id = 0xBEEF, .seq = 8,
                        .policy = "fifo", .candidates = 3, .co_runners = {},
                        .detail = ""};
  JournalEvent placed{.job_id = 17, .kind = JournalEventKind::Placement,
                      .time = 4.0, .trace_id = 0xBEEF, .seq = 9,
                      .policy = "solver", .machine = 3, .candidates = 6,
                      .degradation_delta = -0.5, .co_runners = {2, 11},
                      .detail = "batch=4"};
  return {.job_id = 17, .found = true, .truncated = false,
          .virtual_now = 30.0, .events = {admitted, placed}};
}

AlertsResponse golden_alerts() {
  AlertEntry fast{.shard_id = -1, .rule = "rpc_latency_burn_fast",
                  .state = 2, .severity = 2, .value = 9.5, .threshold = 8.0,
                  .since_seconds = 12.5, .detail = "fast=9.5 slow=8.2"};
  AlertEntry quiet{.shard_id = 3, .rule = "deep_queue", .state = 0,
                   .severity = 1, .detail = ""};
  return {.engine_enabled = true, .firing = 1, .alerts = {fast, quiet}};
}

RequestEnvelope golden_request() {
  return {.type = MessageType::QueryJobStatus,
          .request_id = 0x1122334455667788ull,
          .trace_id = 0x0102030405060708ull,
          .body = {0, 0, 0, 0, 0, 0, 0, 17}};
}

ResponseEnvelope golden_response() {
  return {.type = MessageType::Drain,
          .request_id = 42,
          .trace_id = 0x5151,
          .status = RpcStatus::Draining,
          .error = "service is draining",
          .body = {}};
}

// ---------------------------------------------------------- golden bytes

TEST(ProtocolGolden, EnvelopeBytes) {
  const std::string request_hex =
      "000802112233445566778801020304050607080000000000000011";
  EXPECT_EQ(hex(encode_request(golden_request())), request_hex);
  RequestEnvelope request;
  ASSERT_TRUE(decode_request(unhex(request_hex), request));
  EXPECT_EQ(request.version, kProtocolVersion);
  EXPECT_EQ(request.type, MessageType::QueryJobStatus);
  EXPECT_EQ(request.request_id, 0x1122334455667788u);
  EXPECT_EQ(request.trace_id, 0x0102030405060708u);
  EXPECT_EQ(request.body, golden_request().body);

  const std::string response_hex =
      "000805000000000000002a000000000000515103000000137365727669636520"
      "697320647261696e696e67";
  EXPECT_EQ(hex(encode_response(golden_response())), response_hex);
  ResponseEnvelope response;
  ASSERT_TRUE(decode_response(unhex(response_hex), response));
  EXPECT_EQ(response.trace_id, 0x5151u);
  EXPECT_EQ(response.status, RpcStatus::Draining);
  EXPECT_EQ(response.error, "service is draining");
  EXPECT_TRUE(response.body.empty());
}

TEST(ProtocolGolden, SubmitAckBytes) {
  const std::string golden =
      "0000000102030405402900000000000000000001020304050000000a6d70692f"
      "6c752e432e3401400a0000000000004010000000000000bff000000000000040"
      "31800000000000000000020000000000000028000000013fc000000000000040"
      "180000000000000000000000000029000000023fd80000000000004016000000"
      "00000000000003";
  EXPECT_EQ(hex(encoded(encode_submit_response, golden_submit_ack())), golden);
  SubmitJobResponse ack;
  ASSERT_TRUE(decodes_whole(decode_submit_response, unhex(golden), ack));
  EXPECT_EQ(ack.job_id, 0x0102030405);
  EXPECT_EQ(ack.status.name, "mpi/lu.C.4");
  ASSERT_EQ(ack.status.procs.size(), 2u);
  EXPECT_EQ(ack.status.procs[1].degradation, 0.375);
  EXPECT_EQ(ack.shard_id, 3);
  EXPECT_EQ(hex(encoded(encode_submit_response, ack)), golden);
}

TEST(ProtocolGolden, MetricsBytesWithFanInAndHealthBlocks) {
  const std::string golden =
      "4058f0000000000000000000000000780000000000000076000000000000006e"
      "000000000000001f00000000000000073fc80000000000000000000000001388"
      "00000000000000fa00000000000000f0000000000000000a0000000b742c6a6f"
      "62730a312c320a0000000000000002000000000000001f000000000000100000"
      "0000000000200000000000000000790000000000000001000000000000007a40"
      "0c0000000000003fe40000000000000000000000000076404500000000000040"
      "020000000000000000000000000009000000000000003c000000000000000c00"
      "0000000000002d00000000000000030000000000000030abcdef01234567893f"
      "e0000000000000ffffffff00000000000000043fe80000000000000000000000"
      "0000050000000000000002000000020000000000000000000000460000000000"
      "0000460000000000000045000000000000004100000000000000120000000000"
      "0000044058f0000000000000000000000000033fe80000000000000000000100"
      "0000000000003200000000000000320000000000000031000000000000002d00"
      "0000000000000d0000000000000003405600000000000000000000000000013f"
      "e000000000000000000002000000000100000000000000000000000000000000"
      "0000000000000000000000010000000000000000070000000000000001000000"
      "0000000002";
  EXPECT_EQ(hex(encoded(encode_metrics_response, golden_metrics())), golden);
  MetricsResponse metrics;
  ASSERT_TRUE(decodes_whole(decode_metrics_response, unhex(golden), metrics));
  EXPECT_EQ(metrics.cache.compactions, 2u);
  EXPECT_EQ(metrics.queue_wait_seconds_sum, 42.0);
  EXPECT_EQ(metrics.latency_exemplar_trace_id, 0xABCDEF0123456789u);
  EXPECT_EQ(metrics.router_spillovers, 5u);
  ASSERT_EQ(metrics.shards.size(), 2u);
  EXPECT_EQ(metrics.shards[1].virtual_now, 88.0);
  ASSERT_EQ(metrics.shard_health.size(), 2u);
  EXPECT_FALSE(metrics.shard_health[1].up);
  EXPECT_EQ(metrics.shard_health[1].application_errors, 2u);
  EXPECT_EQ(hex(encoded(encode_metrics_response, metrics)), golden);
}

TEST(ProtocolGolden, TelemetryFrameBytes) {
  const std::string golden =
      "00000000000000070100000000000000020000000200000018636f7363686564"
      "5f63616368655f686974735f746f74616c404500000000000000000021636f73"
      "636865645f7270635f726571756573745f7365636f6e64735f636f756e744020"
      "000000000000000000010000000d7265706c616e2e636f6d6d69740100000000"
      "0000007700000000000003840000000200000001402900000000000040080000"
      "000000000000000000000000000000066a6f62733d340000001f686561643a31"
      "2d696e2d36342c7461696c28736c6f772d7265706c616e7329";
  EXPECT_EQ(hex(encoded(encode_telemetry_frame, golden_telemetry_frame())),
            golden);
  TelemetryFrame frame;
  ASSERT_TRUE(decodes_whole(decode_telemetry_frame, unhex(golden), frame));
  ASSERT_EQ(frame.spans.size(), 1u);
  EXPECT_EQ(frame.spans[0].args, "jobs=4");
  EXPECT_EQ(frame.sampling_mode, "head:1-in-64,tail(slow-replans)");
  EXPECT_EQ(hex(encoded(encode_telemetry_frame, frame)), golden);
}

TEST(ProtocolGolden, TimelineBytes) {
  const std::string golden =
      "00000000000000110100403e0000000000000000000200000000000000110040"
      "10000000000000000000000000beef0000000000000008000000046669666fff"
      "ffffff0000000300000000000000000000000000000000000000000000001102"
      "4010000000000000000000000000beef000000000000000900000006736f6c76"
      "65720000000300000006bfe00000000000000000000200000000000000020000"
      "00000000000b0000000762617463683d34";
  EXPECT_EQ(hex(encoded(encode_timeline_response, golden_timeline())), golden);
  JobTimelineResponse timeline;
  ASSERT_TRUE(decodes_whole(decode_timeline_response, unhex(golden), timeline));
  ASSERT_EQ(timeline.events.size(), 2u);
  EXPECT_EQ(timeline.events[1].kind, JournalEventKind::Placement);
  EXPECT_EQ(timeline.events[1].co_runners, (std::vector<std::int64_t>{2, 11}));
  EXPECT_EQ(hex(encoded(encode_timeline_response, timeline)), golden);
}

TEST(ProtocolGolden, AlertsBytes) {
  const std::string golden =
      "01000000000000000100000002ffffffff000000157270635f6c6174656e6379"
      "5f6275726e5f6661737402024023000000000000402000000000000040290000"
      "0000000000000011666173743d392e3520736c6f773d382e3200000003000000"
      "0a646565705f7175657565000100000000000000000000000000000000000000"
      "000000000000000000";
  EXPECT_EQ(hex(encoded(encode_alerts_response, golden_alerts())), golden);
  AlertsResponse alerts;
  ASSERT_TRUE(decodes_whole(decode_alerts_response, unhex(golden), alerts));
  ASSERT_EQ(alerts.alerts.size(), 2u);
  EXPECT_EQ(alerts.alerts[0].detail, "fast=9.5 slow=8.2");
  EXPECT_EQ(alerts.alerts[1].shard_id, 3);
  EXPECT_EQ(hex(encoded(encode_alerts_response, alerts)), golden);
}

// -------------------------------------------------- foreign envelopes

// Only the version/type/request_id prefix is shared across versions; a
// foreign envelope decodes to that prefix so the server can answer
// VersionMismatch, and nothing past it is interpreted.
TEST(ProtocolVersion, ForeignEnvelopesDecodeToTheSharedPrefix) {
  // A version-1 request had no trace_id: its body follows the request id.
  WireWriter v1;
  v1.u16(1);
  v1.u8(static_cast<std::uint8_t>(MessageType::QueryJobStatus));
  v1.u64(77);
  v1.i64(5);
  RequestEnvelope request;
  ASSERT_TRUE(decode_request(v1.bytes(), request));
  EXPECT_EQ(request.version, 1);
  EXPECT_EQ(request.type, MessageType::QueryJobStatus);
  EXPECT_EQ(request.request_id, 77u);
  EXPECT_EQ(request.trace_id, 0u);
  EXPECT_TRUE(request.body.empty());

  // A newer version may define message types this one does not know.
  RequestEnvelope future = golden_request();
  future.version = kProtocolVersion + 1;
  future.type = static_cast<MessageType>(200);
  ASSERT_TRUE(decode_request(encode_request(future), request));
  EXPECT_EQ(request.version, kProtocolVersion + 1);
  EXPECT_EQ(static_cast<int>(request.type), 200);
  EXPECT_EQ(request.trace_id, 0u);
  EXPECT_TRUE(request.body.empty());

  ResponseEnvelope refusal = version_mismatch_response(future);
  EXPECT_EQ(refusal.version, kProtocolVersion);
  EXPECT_EQ(refusal.request_id, future.request_id);
  EXPECT_EQ(refusal.status, RpcStatus::VersionMismatch);

  // A reply from a server on another version is read as a refusal, never
  // as an Ok body.
  ResponseEnvelope foreign = golden_response();
  foreign.version = kProtocolVersion + 1;
  foreign.status = RpcStatus::Ok;
  foreign.body = {1, 2, 3};
  ResponseEnvelope response;
  ASSERT_TRUE(decode_response(encode_response(foreign), response));
  EXPECT_EQ(response.version, kProtocolVersion + 1);
  EXPECT_EQ(response.status, RpcStatus::VersionMismatch);
  EXPECT_TRUE(response.body.empty());

  // The shared prefix itself cut short is malformed.
  std::vector<std::uint8_t> cut = encode_request(golden_request());
  cut.resize(10);
  EXPECT_FALSE(decode_request(cut, request));
}

// ------------------------------------------------------ mutation sweep

/// One valid encoding plus the decoder its mutations go through. `decode`
/// answers whether the bytes were accepted as one whole message.
struct WireCase {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::function<bool(const std::vector<std::uint8_t>&)> decode;
  /// Bodies have exactly one layout, so every strict prefix and any
  /// trailing byte must be rejected. Envelopes carry "the rest" as body.
  bool fixed_layout = true;
};

template <typename T>
WireCase body_case(std::string name, void (*encode)(WireWriter&, const T&),
                   bool (*decode)(WireReader&, T&), const T& value) {
  return {std::move(name), encoded(encode, value),
          [decode](const std::vector<std::uint8_t>& bytes) {
            T out;
            return decodes_whole(decode, bytes, out);
          }};
}

std::vector<WireCase> wire_cases() {
  auto request = [](const std::vector<std::uint8_t>& bytes) {
    RequestEnvelope out;
    return decode_request(bytes, out);
  };
  auto response = [](const std::vector<std::uint8_t>& bytes) {
    ResponseEnvelope out;
    return decode_response(bytes, out);
  };
  TraceJob job{.arrival_time = 2.5, .name = "npb/cg.B",
               .kind = JobKind::ParallelNoComm, .processes = 2, .work = 9.0,
               .miss_rate = 0.25, .sensitivity = 0.5};
  JobStatusResponse status{.found = true, .virtual_now = 6.0,
                           .status = golden_submit_ack().status};
  ServiceSnapshot snapshot{.now = 3.25, .pending_jobs = 2, .free_slots = 5,
                           .completions = 11,
                           .machines = {{{7, 3, 0.25}}, {}, {{8, 3, 0.75}}}};
  TraceDumpResponse dump{.enabled = true, .event_count = 3,
                         .text = "rpc.request\n", .chrome_json = "[]"};
  TelemetrySubscribeRequest subscribe{.interval_ms = 25, .max_frames = 7,
                                      .prefix = "replan."};
  return {
      {"request envelope", encode_request(golden_request()), request, false},
      {"response envelope", encode_response(golden_response()), response,
       false},
      body_case("SubmitJob request", encode_trace_job, decode_trace_job, job),
      body_case("SubmitJob ack", encode_submit_response,
                decode_submit_response, golden_submit_ack()),
      body_case("QueryJobStatus reply", encode_status_response,
                decode_status_response, status),
      body_case("QueryScheduleSnapshot reply", encode_service_snapshot,
                decode_service_snapshot, snapshot),
      body_case("GetMetrics reply", encode_metrics_response,
                decode_metrics_response, golden_metrics()),
      body_case("TraceDump reply", encode_trace_dump_response,
                decode_trace_dump_response, dump),
      body_case("Drain reply", encode_drain_response, decode_drain_response,
                DrainResponse{.completions = 12, .virtual_now = 40.0}),
      body_case("SubscribeTelemetry request",
                encode_telemetry_subscribe_request,
                decode_telemetry_subscribe_request, subscribe),
      body_case("SubscribeTelemetry ack", encode_telemetry_subscribe_ack,
                decode_telemetry_subscribe_ack,
                TelemetrySubscribeAck{.interval_ms = 25,
                                      .max_spans_per_frame = 512}),
      body_case("telemetry frame", encode_telemetry_frame,
                decode_telemetry_frame, golden_telemetry_frame()),
      body_case("journal event", encode_journal_event, decode_journal_event,
                golden_timeline().events.back()),
      body_case("QueryJobTimeline reply", encode_timeline_response,
                decode_timeline_response, golden_timeline()),
      body_case("GetAlerts reply", encode_alerts_response,
                decode_alerts_response, golden_alerts())};
}

TEST(WireMutation, DecodersRejectOrDecodeEveryMutation) {
  Rng rng(0xC05C4ED5EEDULL);
  for (const WireCase& c : wire_cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.decode(c.bytes)) << "the unmutated encoding must decode";

    for (std::size_t n = 0; n < c.bytes.size(); ++n) {
      std::vector<std::uint8_t> prefix(c.bytes.begin(),
                                       c.bytes.begin() +
                                           static_cast<std::ptrdiff_t>(n));
      bool accepted = c.decode(prefix);
      if (c.fixed_layout) {
        EXPECT_FALSE(accepted) << "accepted a " << n << "-byte prefix";
      }
    }
    if (c.fixed_layout) {
      std::vector<std::uint8_t> trailing = c.bytes;
      trailing.push_back(0);
      EXPECT_FALSE(c.decode(trailing)) << "accepted a trailing byte";
    }

    for (int round = 0; round < 400; ++round) {
      std::vector<std::uint8_t> flipped = c.bytes;
      std::uint64_t flips = 1 + rng.uniform(4);
      for (std::uint64_t f = 0; f < flips; ++f)
        flipped[rng.uniform(flipped.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
      c.decode(flipped);  // either answer is fine; ASan/UBSan watch reads
    }

    // Every aligned-or-not 4-byte window read as a count or string length
    // and blown up: the decoders must bound it by the bytes actually left.
    const std::uint32_t inflated[] = {
        0xFFFFFFFFu, 0x7FFFFFFFu, 0x00010000u,
        static_cast<std::uint32_t>(c.bytes.size())};
    for (std::size_t at = 0; at + 4 <= c.bytes.size(); ++at) {
      for (std::uint32_t value : inflated) {
        std::vector<std::uint8_t> bumped = c.bytes;
        for (int i = 0; i < 4; ++i)
          bumped[at + static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(value >> (24 - 8 * i));
        c.decode(bumped);
      }
    }
  }
}

}  // namespace
}  // namespace cosched
