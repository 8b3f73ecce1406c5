// Tests for cord::trace: record layout, tracer bounds, metrics registry,
// log histogram, trace determinism, the golden span chain of one RC send
// in CoRD mode, Chrome-trace export, and the kernel's proc_read surface.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "os/policies.hpp"
#include "perftest/perftest.hpp"
#include "sim/stats.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "test_util.hpp"

namespace {

using namespace cord;

// ---------------------------------------------------------------------------
// Record / Tracer basics
// ---------------------------------------------------------------------------

TEST(TraceRecord, IsFixedSizePod) {
  static_assert(sizeof(trace::Record) == 40);
  static_assert(std::is_trivially_copyable_v<trace::Record>);
  SUCCEED();
}

TEST(Tracer, DisabledRecordsNothingThroughEngine) {
  sim::Engine engine;
  trace::Tracer tracer(engine);
  EXPECT_EQ(engine.tracer(), nullptr);  // never attached
  tracer.set_enabled(true);
  EXPECT_EQ(engine.tracer(), &tracer);
  tracer.set_enabled(false);
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(Tracer, BoundedWithDropCounter) {
  sim::Engine engine;
  trace::Tracer tracer(engine, /*max_records=*/10);
  tracer.set_enabled(true);
  for (int i = 0; i < 25; ++i) {
    tracer.record(trace::Point::kWqePost, tracer.new_span(), 0x100, 1, 0);
  }
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.dropped(), 15u);
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.record(trace::Point::kWqePost, 1, 0x100, 1, 0);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, SlabGrowthPreservesOrder) {
  sim::Engine engine;
  trace::Tracer tracer(engine, 1u << 16);
  tracer.set_enabled(true);
  const std::size_t n = 5000;  // spans multiple 2048-record slabs
  for (std::size_t i = 0; i < n; ++i) {
    tracer.record(trace::Point::kWireTx, static_cast<std::uint32_t>(i + 1),
                  0x100, 0, 0, /*arg=*/i);
  }
  ASSERT_EQ(tracer.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(tracer[i].arg, i);
    EXPECT_EQ(tracer[i].span, i + 1);
  }
}

TEST(Tracer, DetachesFromEngineOnDestruction) {
  sim::Engine engine;
  {
    trace::Tracer tracer(engine);
    tracer.set_enabled(true);
    ASSERT_EQ(engine.tracer(), &tracer);
  }
  EXPECT_EQ(engine.tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, CountsAndPercentiles) {
  sim::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0.0);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<std::uint64_t>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
  // Log-bucketed: percentiles are octave-accurate, not exact.
  EXPECT_GT(h.percentile(50.0), 250.0);
  EXPECT_LT(h.percentile(50.0), 1000.0);
  EXPECT_LE(h.percentile(99.0), 1000.0);
  EXPECT_GE(h.percentile(99.0), h.percentile(50.0));
}

TEST(LogHistogram, FixedMemoryAcrossWideRange) {
  sim::LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(std::uint64_t{1} << 63);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), std::uint64_t{1} << 63);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramRoundTrip) {
  trace::MetricsRegistry m;
  m.counter("ops", 1).add(3);
  m.counter("ops", 1).add();          // same entry
  m.counter("ops", 2).add(10);
  m.gauge("depth").set(-4);
  m.histogram("lat", 1).add(100);
  EXPECT_EQ(m.find_counter("ops", 1)->value, 4u);
  EXPECT_EQ(m.find_counter("ops", 2)->value, 10u);
  EXPECT_EQ(m.gauge_value("depth"), -4);
  EXPECT_EQ(m.find_histogram("lat", 1)->count(), 1u);
  EXPECT_EQ(m.find_counter("missing"), nullptr);
  EXPECT_EQ(m.find_counter("ops", 3), nullptr);
  // Kind mismatch is a programming error.
  EXPECT_THROW(m.gauge("ops", 1), std::logic_error);
}

TEST(MetricsRegistry, LabelsSortedAndCallbackGauge) {
  trace::MetricsRegistry m;
  m.counter("t.ops", 9).add();
  m.counter("t.ops", 2).add();
  m.counter("t.ops", 5).add();
  m.counter("t.ops").add();  // unlabelled entry excluded from labels()
  const auto labels = m.labels("t.ops");
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], 2u);
  EXPECT_EQ(labels[1], 5u);
  EXPECT_EQ(labels[2], 9u);

  std::int64_t live = 7;
  m.callback_gauge("live", [&live] { return live; });
  EXPECT_EQ(m.gauge_value("live"), 7);
  live = 42;
  EXPECT_EQ(m.gauge_value("live"), 42);
}

TEST(MetricsRegistry, TextAndCsvAreDeterministic) {
  trace::MetricsRegistry m;
  m.counter("b.ops", 2).add(5);
  m.counter("a.ops").add(1);
  m.histogram("lat", 1).add(64);
  const std::string t1 = m.text();
  const std::string t2 = m.text();
  EXPECT_EQ(t1, t2);
  // Sorted map order: "a.ops" line precedes "b.ops".
  EXPECT_LT(t1.find("a.ops"), t1.find("b.ops"));
  EXPECT_NE(t1.find("lat"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: trace capture via perftest
// ---------------------------------------------------------------------------

perftest::Params traced_params(verbs::DataplaneMode mode, int iters = 30) {
  perftest::Params p;
  p.op = perftest::TestOp::kSend;
  p.msg_size = 4096;
  p.iterations = iters;
  p.warmup = 5;
  p.allow_inline = false;  // non-inline: the chain includes kDmaFetch
  p.client = verbs::ContextOptions{.mode = mode};
  p.server = verbs::ContextOptions{.mode = mode};
  p.capture_trace = true;
  return p;
}

TEST(TraceCapture, DeterministicAcrossIdenticalRuns) {
  const auto cfg = core::system_l();
  const auto p = traced_params(verbs::DataplaneMode::kCord);
  auto r1 = perftest::run_latency(cfg, p);
  auto r2 = perftest::run_latency(cfg, p);
  ASSERT_FALSE(r1.trace.empty());
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  EXPECT_EQ(r1.trace_dropped, 0u);
  // Byte-identical streams: traces are diffable artifacts.
  EXPECT_EQ(std::memcmp(r1.trace.data(), r2.trace.data(),
                        r1.trace.size() * sizeof(trace::Record)),
            0);
}

TEST(TraceCapture, TracingAddsNoVirtualTime) {
  const auto cfg = core::system_l();
  auto p = traced_params(verbs::DataplaneMode::kCord);
  auto traced = perftest::run_latency(cfg, p);
  p.capture_trace = false;
  auto plain = perftest::run_latency(cfg, p);
  // The observer must not distort the measurement.
  EXPECT_DOUBLE_EQ(traced.avg_us, plain.avg_us);
  EXPECT_DOUBLE_EQ(traced.p99_us, plain.p99_us);
}

/// Golden span-chain test: one RC send in CoRD mode must produce the
/// paper's full latency breakdown, in causal order.
TEST(TraceCapture, GoldenSpanChainCordRcSend) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());

  // Pick the first span that has a sender-side completion (a client data
  // send that ran to completion).
  std::uint32_t span = 0;
  for (const auto& rec : r.trace) {
    if (rec.point == trace::Point::kCompletion && rec.aux == 0 &&
        rec.span != 0) {
      span = rec.span;
      break;
    }
  }
  ASSERT_NE(span, 0u) << "no completed span found in trace";

  std::map<trace::Point, sim::Time> at;
  for (const auto& rec : r.trace) {
    if (rec.span == span && !at.contains(rec.point)) at[rec.point] = rec.t;
  }
  // The complete chain, user space -> kernel -> NIC -> wire -> CQE.
  for (trace::Point pt :
       {trace::Point::kVerbsPostSend, trace::Point::kSyscallEnter,
        trace::Point::kWqePost, trace::Point::kDoorbell,
        trace::Point::kWqeFetch, trace::Point::kDmaFetch,
        trace::Point::kWireTx, trace::Point::kDmaDeliver,
        trace::Point::kCompletion}) {
    ASSERT_TRUE(at.contains(pt)) << "span missing " << trace::to_string(pt);
  }
  EXPECT_LE(at[trace::Point::kVerbsPostSend], at[trace::Point::kSyscallEnter]);
  EXPECT_LE(at[trace::Point::kSyscallEnter], at[trace::Point::kWqePost]);
  EXPECT_LE(at[trace::Point::kWqePost], at[trace::Point::kDoorbell]);
  EXPECT_LE(at[trace::Point::kDoorbell], at[trace::Point::kWqeFetch]);
  EXPECT_LE(at[trace::Point::kWqeFetch], at[trace::Point::kDmaFetch]);
  EXPECT_LE(at[trace::Point::kDmaFetch], at[trace::Point::kWireTx]);
  EXPECT_LE(at[trace::Point::kWireTx], at[trace::Point::kDmaDeliver]);
  EXPECT_LE(at[trace::Point::kDmaDeliver], at[trace::Point::kCompletion]);
}

TEST(TraceCapture, BypassModeSkipsKernelPoints) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kBypass, 5));
  ASSERT_FALSE(r.trace.empty());
  bool saw_post = false;
  for (const auto& rec : r.trace) {
    EXPECT_NE(rec.point, trace::Point::kSyscallEnter);
    EXPECT_NE(rec.point, trace::Point::kSyscallExit);
    EXPECT_NE(rec.point, trace::Point::kPolicyEval);
    if (rec.point == trace::Point::kVerbsPostSend) saw_post = true;
  }
  EXPECT_TRUE(saw_post);  // user-space points still fire
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, and the trace-event envelope with one object per record.
void validate_json_structure(const std::string& json, std::size_t records) {
  long depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  std::size_t events = 0;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
        if (depth_obj == 1 && depth_arr == 1) ++events;
        ++depth_obj;
        break;
      case '}': --depth_obj; ASSERT_GE(depth_obj, 0); break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; ASSERT_GE(depth_arr, 0); break;
      default: break;
    }
  }
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(events, records);
}

TEST(ChromeTraceExport, ValidJsonWithOneEventPerRecord) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());
  const std::string json = trace::chrome_trace_json(r.trace);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  validate_json_structure(json, r.trace.size());
  // Spot-check vocabulary: slices and instants both present.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"wire-tx\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporter round-tripping: export -> reparse recovers the records exactly
// ---------------------------------------------------------------------------

TEST(PointNames, RoundTripEveryPoint) {
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(trace::Point::kCount);
       ++i) {
    const auto p = static_cast<trace::Point>(i);
    EXPECT_EQ(trace::point_from_name(trace::to_string(p)), p);
  }
  EXPECT_EQ(trace::point_from_name("not-a-point"), trace::Point::kCount);
  EXPECT_EQ(trace::point_from_name(""), trace::Point::kCount);
}

TEST(ExportRoundTrip, CsvIsByteExact) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());
  const std::string csv = trace::records_csv(r.trace);
  ASSERT_FALSE(csv.empty());
  const std::vector<trace::Record> parsed = trace::parse_records_csv(csv);
  ASSERT_EQ(parsed.size(), r.trace.size());
  // Field-exact: the 40-byte PODs memcmp equal...
  EXPECT_EQ(std::memcmp(parsed.data(), r.trace.data(),
                        parsed.size() * sizeof(trace::Record)),
            0);
  // ...and re-exporting reproduces the identical bytes.
  EXPECT_EQ(trace::records_csv(parsed), csv);
}

TEST(ExportRoundTrip, ChromeJsonIsByteExact) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());
  const std::string json = trace::chrome_trace_json(r.trace);
  const std::vector<trace::Record> parsed = trace::parse_chrome_trace(json);
  ASSERT_EQ(parsed.size(), r.trace.size());
  // The %.6f microsecond encoding is exact at 1 ps granularity, so even
  // the picosecond timestamps survive the text round trip bit-for-bit.
  EXPECT_EQ(std::memcmp(parsed.data(), r.trace.data(),
                        parsed.size() * sizeof(trace::Record)),
            0);
  EXPECT_EQ(trace::chrome_trace_json(parsed), json);
}

TEST(ExportRoundTrip, ParsersSkipJunkLines) {
  const std::string csv =
      "t_ps,dur_ps,point,span,qpn,tenant,node,arg,aux\n"
      "garbage line\n"
      "100,5,wire-tx,1,256,2,0,64,0\n"
      "100,5,no-such-point,1,256,2,0,64,0\n"
      "100,5,wire-tx,1,256,2,999,64,0\n"  // node > 0xFF
      "\n";
  const auto parsed = trace::parse_records_csv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].t, 100);
  EXPECT_EQ(parsed[0].dur, 5);
  EXPECT_EQ(parsed[0].point, trace::Point::kWireTx);
  EXPECT_EQ(parsed[0].qpn, 256u);
  EXPECT_EQ(trace::parse_chrome_trace("{\"traceEvents\":[]}").size(), 0u);
  EXPECT_EQ(trace::parse_chrome_trace("not json at all").size(), 0u);
}

// ---------------------------------------------------------------------------
// Kernel-side observability surface
// ---------------------------------------------------------------------------

/// Ten 64-byte RC sends from host 0 to host 1 as tenant 5. No gtest
/// macros inside: ASSERT_* expands to a plain `return`, which is
/// ill-formed in a coroutine — failures are counted instead.
sim::Task<> ten_sends(core::System& sys, verbs::DataplaneMode mode,
                      std::uint32_t& qpn_out, int& failures) {
  verbs::Context a(sys.host(0), 0, sys.options(mode, /*tenant=*/5));
  verbs::Context b(sys.host(1), 0, sys.options(mode, /*tenant=*/5));
  auto pd_a = co_await a.alloc_pd();
  auto pd_b = co_await b.alloc_pd();
  auto* scq_a = co_await a.create_cq(64);
  auto* rcq_a = co_await a.create_cq(64);
  auto* scq_b = co_await b.create_cq(64);
  auto* rcq_b = co_await b.create_cq(64);
  auto* qp_a =
      co_await a.create_qp({nic::QpType::kRC, pd_a, scq_a, rcq_a, 64, 64, 220});
  auto* qp_b =
      co_await b.create_qp({nic::QpType::kRC, pd_b, scq_b, rcq_b, 64, 64, 220});
  co_await a.connect_qp(*qp_a, {b.node(), qp_b->qpn()});
  co_await b.connect_qp(*qp_b, {a.node(), qp_a->qpn()});
  qpn_out = qp_a->qpn();

  std::vector<std::byte> src(64, std::byte{0x11});
  std::vector<std::byte> dst(64);
  auto* mr_b =
      co_await b.reg_mr(pd_b, dst.data(), dst.size(), nic::kAccessLocalWrite);
  for (int i = 0; i < 10; ++i) {
    (void)co_await b.post_recv(
        *qp_b,
        {1, {reinterpret_cast<std::uintptr_t>(dst.data()), 64, mr_b->lkey}});
    int rc = co_await a.post_send(
        *qp_a, {.sge = {reinterpret_cast<std::uintptr_t>(src.data()), 64, 0},
                .inline_data = true});
    if (rc != 0) ++failures;
    nic::Cqe wc = co_await a.wait_one(*scq_a);
    if (wc.status != nic::WcStatus::kSuccess) ++failures;
    (void)co_await b.wait_one(*rcq_b);
  }
}

TEST(ProcRead, CordModePopulatesTenantMetricsBypassDoesNot) {
  for (const bool cord : {true, false}) {
    SCOPED_TRACE(cord ? "cord" : "bypass");
    const auto mode =
        cord ? verbs::DataplaneMode::kCord : verbs::DataplaneMode::kBypass;
    core::System sys(core::system_l(), 2);
    std::uint32_t qpn = 0;
    int failures = 0;
    sys.engine().spawn(ten_sends(sys, mode, qpn, failures));
    sys.engine().run();
    ASSERT_EQ(failures, 0);
    ASSERT_NE(qpn, 0u);

    os::Kernel& k = sys.host(0).kernel();
    const std::string tenants = k.proc_read("tenants");
    if (cord) {
      // Per-tenant ops/bytes/latency, kernel-side, no app cooperation.
      EXPECT_NE(tenants.find("tenant 5"), std::string::npos) << tenants;
      EXPECT_NE(tenants.find("post_sends=10"), std::string::npos) << tenants;
      EXPECT_NE(tenants.find("tx_bytes=640"), std::string::npos) << tenants;
      EXPECT_NE(tenants.find("syscall_p99_ns="), std::string::npos);
      const auto* h = k.metrics().find_histogram("kernel.tenant.syscall_ns", 5);
      ASSERT_NE(h, nullptr);
      EXPECT_GT(h->count(), 0u);
      EXPECT_GT(h->percentile(50.0), 0.0);
      // tenant/<id> and metrics views agree.
      EXPECT_EQ(k.proc_read("tenant/5"), tenants);
      EXPECT_NE(k.proc_read("metrics").find("kernel.tenant.post_sends"),
                std::string::npos);
      const std::string qp = k.proc_read("qp/" + std::to_string(qpn));
      EXPECT_NE(qp.find("tx_msgs=10"), std::string::npos) << qp;
    } else {
      // Bypass: the kernel never saw the data plane.
      EXPECT_TRUE(tenants.empty()) << tenants;
      EXPECT_EQ(k.metrics().find_counter("kernel.tenant.post_sends", 5),
                nullptr);
    }
    EXPECT_TRUE(k.proc_read("bogus/path").empty());
  }
}

TEST(SystemMetrics, EngineGaugesAreLive) {
  core::System sys(core::system_l(), 2);
  EXPECT_EQ(sys.metrics().gauge_value("engine.events_processed"), 0);
  sys.engine().call_in(sim::ns(5), [] {});
  sys.engine().run();
  EXPECT_GT(sys.metrics().gauge_value("engine.events_processed"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("engine.clamped_events"), 0);
}

TEST(SystemMetrics, QueueGaugesMirrorEngineStats) {
  core::System sys(core::system_l(), 2);
  // Before any load: gauges exist and read zero.
  EXPECT_EQ(sys.metrics().gauge_value("engine.queue_peak_depth"), 0);
  int fired = 0;
  for (int i = 0; i < 5000; ++i) {
    sys.engine().call_at(sim::ns(10 + i * 5), [&fired] { ++fired; });
  }
  sys.engine().run();
  EXPECT_EQ(fired, 5000);
  EXPECT_EQ(sys.metrics().gauge_value("engine.queue_peak_depth"), 5000);
  // The same stats surface per host through the kernel's /proc-style
  // metrics read — the Kernel::proc_read("metrics") observability path.
  const std::string dump = sys.host(0).kernel().proc_read("metrics");
  EXPECT_NE(dump.find("engine.queue_depth"), std::string::npos);
  EXPECT_NE(dump.find("engine.queue_peak_depth"), std::string::npos);
  EXPECT_EQ(
      sys.host(0).kernel().metrics().gauge_value("engine.queue_peak_depth"),
      5000);
  EXPECT_EQ(sys.host(0).kernel().metrics().gauge_value("engine.queue_depth"),
            0);
}

TEST(SystemMetrics, NicGaugesMirrorDoorbellAndBurstCounters) {
  // Ten sequential RC sends (each waits for its completion): every post
  // rings its own doorbell, activates one burst of one WR, and the fused
  // drain segments one 64-byte chunk per message.
  core::System sys(core::system_l(), 2);
  std::uint32_t qpn = 0;
  int failures = 0;
  sys.engine().spawn(ten_sends(sys, verbs::DataplaneMode::kCord, qpn, failures));
  sys.engine().run();
  ASSERT_EQ(failures, 0);

  // System-wide sums over hosts.
  EXPECT_EQ(sys.metrics().gauge_value("nic.doorbells"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.doorbells_coalesced"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("nic.sq_bursts"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.sq_burst_wrs"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.sq_fused_batches"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.seg_msgs"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.seg_chunks"), 10);

  // Per-host mirror through the kernel's /proc-style metrics read: host 0
  // did all the sending, host 1 none.
  os::Kernel& k0 = sys.host(0).kernel();
  const std::string dump = k0.proc_read("metrics");
  int nic_rows = 0;
  for (const auto& row : os::Kernel::metric_table()) {
    if (!row.name.starts_with("nic.")) continue;
    ++nic_rows;
    EXPECT_NE(dump.find(row.name), std::string::npos) << row.name;
  }
  EXPECT_EQ(nic_rows, 13);
  EXPECT_EQ(k0.metrics().gauge_value("nic.sq_burst_wrs"), 10);
  EXPECT_EQ(sys.host(1).kernel().metrics().gauge_value("nic.sq_burst_wrs"), 0);
}

// ---------------------------------------------------------------------------
// The metric table: one scenario that drives every row
// ---------------------------------------------------------------------------

/// Host 0 (tenant 5, CoRD, tx_batch 4) writes 8 KiB messages to host 1
/// over two RC QPs from two source MRs, so the one-entry ICM caches
/// thrash; registers past its RegistrationQuota cap, deregisters an MR,
/// gets a receive post denied by its OpRateQuota, and waits for its last
/// completion by interrupt. No gtest macros inside (coroutine).
sim::Task<> metric_scenario(core::System& sys, int& failures) {
  verbs::ContextOptions opts = sys.options(verbs::DataplaneMode::kCord, 5);
  opts.tx_batch = 4;
  verbs::Context a(sys.host(0), 0, opts);
  verbs::Context b(sys.host(1), 0,
                   sys.options(verbs::DataplaneMode::kCord, 5));
  const cord::testing::RcEndpoints e[2] = {
      co_await cord::testing::connect_rc(a, b),
      co_await cord::testing::connect_rc(a, b)};

  std::vector<std::byte> src(2 * 8192, std::byte{0x11}), dst(2 * 8192);
  std::vector<std::byte> scratch(256);
  const nic::MemoryRegion* smr[2];
  const nic::MemoryRegion* rmr[2];
  for (int q = 0; q < 2; ++q) {
    smr[q] = co_await a.reg_mr(e[q].pd0, src.data() + q * 8192, 8192, 0);
    rmr[q] = co_await b.reg_mr(e[q].pd1, dst.data() + q * 8192, 8192,
                               nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
    if (smr[q] == nullptr || rmr[q] == nullptr) ++failures;
  }
  // Third registration fits the quota (cap 3) and is deregistered; the
  // fourth is denied.
  const auto* extra = co_await a.reg_mr(e[0].pd0, scratch.data(), 128,
                                        nic::kAccessLocalWrite);
  if (extra == nullptr) ++failures;
  if (co_await a.reg_mr(e[0].pd0, scratch.data() + 128, 128, 0) != nullptr) {
    ++failures;
  }
  // Receive posts: the op-rate quota (burst 2) denies the third.
  int denied = 0;
  for (int i = 0; i < 3; ++i) {
    const int rc = co_await a.post_recv(
        *e[0].qp0,
        {1, {cord::testing::uptr(scratch.data()), 64, extra->lkey}});
    if (rc != 0) ++denied;
  }
  if (denied != 1) ++failures;
  if (!co_await a.dereg_mr(extra->lkey)) ++failures;

  // Two rounds of four writes per QP: each full ring flushes in one
  // crossing, and alternating QPs/MRs misses the one-entry ICM caches.
  for (int round = 0; round < 2; ++round) {
    for (int q = 0; q < 2; ++q) {
      for (int i = 0; i < 4; ++i) {
        nic::SendWr wr;
        wr.wr_id = static_cast<std::uint64_t>(round * 8 + q * 4 + i);
        wr.opcode = nic::Opcode::kRdmaWrite;
        wr.sge = {cord::testing::uptr(src.data() + q * 8192), 8192,
                  smr[q]->lkey};
        wr.remote_addr = cord::testing::uptr(dst.data() + q * 8192);
        wr.rkey = rmr[q]->rkey;
        if (co_await a.post_send(*e[q].qp0, wr) != 0) ++failures;
      }
    }
  }
  if (co_await a.flush_all() != 0) ++failures;
  for (int q = 0; q < 2; ++q) {
    for (int i = 0; i < 8; ++i) {
      const nic::Cqe wc = co_await a.wait_one(*e[q].scq0);
      if (wc.status != nic::WcStatus::kSuccess) ++failures;
    }
  }
  // Two more writes on the first QP: the second doorbell finds its QP
  // context cached, and its completion is harvested by interrupt.
  for (int i = 0; i < 2; ++i) {
    nic::SendWr wr;
    wr.wr_id = 100 + static_cast<std::uint64_t>(i);
    wr.opcode = nic::Opcode::kRdmaWrite;
    wr.sge = {cord::testing::uptr(src.data()), 64, smr[0]->lkey};
    wr.remote_addr = cord::testing::uptr(dst.data());
    wr.rkey = rmr[0]->rkey;
    if (co_await a.post_send(*e[0].qp0, wr) != 0) ++failures;
    if (co_await a.flush(*e[0].qp0) != 0) ++failures;
    const nic::Cqe wc = i == 0 ? co_await a.wait_one(*e[0].scq0)
                               : co_await a.wait_one_event(*e[0].scq0);
    if (wc.status != nic::WcStatus::kSuccess) ++failures;
  }
}

/// Build the 2-host System L, configure host 0's policies, SLOs and the
/// bounded ICM, run metric_scenario to completion and build the system
/// causal aggregate.
std::unique_ptr<core::System> run_metric_scenario() {
  core::SystemConfig cfg = core::system_l();
  cfg.nic.icm_qp_capacity = 1;
  cfg.nic.icm_mr_capacity = 1;
  auto sys = std::make_unique<core::System>(cfg, 2);
  os::Kernel& k0 = sys->host(0).kernel();
  k0.policies().install(std::make_unique<os::StatsCollector>(k0.metrics()));
  k0.policies().install(std::make_unique<os::OpRateQuota>(
      1.0, 2, os::OpRateQuota::kind_bit(os::DataplaneOp::Kind::kPostRecv),
      k0.metrics()));
  k0.policies().install(
      std::make_unique<os::RegistrationQuota>(3, 1e9, 100, k0.metrics()));
  // Unmeetable 1 ps SLOs: every traced span violates.
  k0.set_latency_slo(5, 99.0, 1);
  sys->causal().set_slo(5, {99.0, 1});
  sys->set_tracing(true);
  int failures = 0;
  sys->engine().spawn(metric_scenario(*sys, failures));
  sys->engine().run();
  EXPECT_EQ(failures, 0);
  sys->analyze_causal();
  return sys;
}

/// The scenario's per-host /proc metrics dumps and system gauges, as the
/// hand-written registrations produced them before the metric table
/// (less the dropped kernel.crossings alias of kernel.syscalls).
constexpr const char* kHost0Dump = R"(engine.queue_depth 0
engine.queue_peak_depth 17
kernel.batch.flushed_ops 18
kernel.batch.flushes 6
kernel.batch.max_wrs 4
kernel.interrupts 1
kernel.ops_serviced 86
kernel.policy_epoch 4
kernel.syscalls 74
kernel.tenant.completions{tenant=5} 18
kernel.tenant.crossings{tenant=5} 54
kernel.tenant.polls{tenant=5} 45
kernel.tenant.post_recvs{tenant=5} 3
kernel.tenant.post_sends{tenant=5} 18
kernel.tenant.syscall_ns{tenant=5} count=54 mean=387.1 p50=391.7 p99=828.2 max=886
kernel.tenant.tx_bytes{tenant=5} 131200
kernel.verdict_cache.hits 16
kernel.verdict_cache.insertions 2
kernel.verdict_cache.misses 2
kernel.watchdog_violations 18
nic.doorbells 6
nic.doorbells_coalesced 12
nic.icm.mr_evictions 4
nic.icm.mr_hits 13
nic.icm.mr_misses 5
nic.icm.qp_evictions 4
nic.icm.qp_hits 1
nic.icm.qp_misses 5
nic.seg_chunks 34
nic.seg_msgs 18
nic.sq_burst_wrs 18
nic.sq_bursts 6
nic.sq_fused_batches 6
policy.oprate.denied{tenant=5} 1
policy.reg.denied{tenant=5} 1
policy.stats.bytes{tenant=5} 131200
policy.stats.dereg_mrs{tenant=5} 1
policy.stats.polls{tenant=5} 45
policy.stats.post_recvs{tenant=5} 3
policy.stats.post_sends{tenant=5} 18
policy.stats.reg_mrs{tenant=5} 4
)";
constexpr const char* kHost1Dump = R"(engine.queue_depth 0
engine.queue_peak_depth 17
kernel.batch.flushed_ops 0
kernel.batch.flushes 0
kernel.batch.max_wrs 0
kernel.interrupts 0
kernel.ops_serviced 16
kernel.policy_epoch 1
kernel.syscalls 16
kernel.verdict_cache.hits 0
kernel.verdict_cache.insertions 0
kernel.verdict_cache.misses 0
kernel.watchdog_violations 0
nic.doorbells 0
nic.doorbells_coalesced 0
nic.icm.mr_evictions 0
nic.icm.mr_hits 0
nic.icm.mr_misses 0
nic.icm.qp_evictions 0
nic.icm.qp_hits 0
nic.icm.qp_misses 0
nic.seg_chunks 0
nic.seg_msgs 0
nic.sq_burst_wrs 0
nic.sq_bursts 0
nic.sq_fused_batches 0
)";

TEST(MetricTable, KernelDumpsUnchanged) {
  auto sys = run_metric_scenario();
  EXPECT_EQ(sys->host(0).kernel().proc_read("metrics"), kHost0Dump);
  EXPECT_EQ(sys->host(1).kernel().proc_read("metrics"), kHost1Dump);
  const std::pair<const char*, std::int64_t> system_gauges[] = {
      {"causal.p99_e2e_ns", 11609},
      {"causal.spans", 18},
      {"causal.watchdog_violations", 18},
      {"engine.clamped_events", 0},
      {"engine.events_processed", 187},
      {"engine.queue_peak_depth", 17},
      {"nic.doorbells", 6},
      {"nic.doorbells_coalesced", 12},
      {"nic.seg_chunks", 34},
      {"nic.seg_msgs", 18},
      {"nic.sq_burst_wrs", 18},
      {"nic.sq_bursts", 6},
      {"nic.sq_fused_batches", 6}};
  for (const auto& [name, value] : system_gauges) {
    EXPECT_EQ(sys->metrics().gauge_value(name), value) << name;
  }
}

/// Metric names in a registry dump (the text before the label or value).
std::set<std::string> registry_names(const trace::MetricsRegistry& m) {
  std::set<std::string> names;
  std::istringstream in(m.text());
  for (std::string line; std::getline(in, line);) {
    names.insert(line.substr(0, line.find_first_of(" {")));
  }
  return names;
}

TEST(MetricTable, EveryRowHasUnitAndDoc) {
  std::map<std::string, int> rows;
  for (const auto& row : os::Kernel::metric_table()) {
    EXPECT_FALSE(row.unit.empty()) << row.name;
    EXPECT_FALSE(row.doc.empty()) << row.name;
    // Only registered rows can be folded into the system view.
    if (row.read == nullptr) {
      EXPECT_EQ(row.combine, trace::Combine::kHostOnly) << row.name;
    }
    ++rows[std::string(row.name)];
  }
  for (const auto& row : core::System::metric_table()) {
    EXPECT_FALSE(row.unit.empty()) << row.name;
    EXPECT_FALSE(row.doc.empty()) << row.name;
    EXPECT_NE(row.read, nullptr) << row.name;
    ++rows[std::string(row.name)];
  }
  for (const auto& [name, count] : rows) EXPECT_EQ(count, 1) << name;

  auto sys = run_metric_scenario();
  std::set<std::string> seen = registry_names(sys->metrics());
  for (int h = 0; h < 2; ++h) {
    seen.merge(registry_names(sys->host(h).kernel().metrics()));
  }
  for (const std::string& name : seen) {
    EXPECT_TRUE(rows.contains(name)) << name << " has no row";
  }
  // The scenario creates every lazily labelled metric too.
  for (const auto& [name, count] : rows) {
    EXPECT_TRUE(seen.contains(name)) << name << " never registered";
  }
}

TEST(MetricTable, SystemViewCombinesHosts) {
  auto sys = run_metric_scenario();
  const trace::MetricsRegistry& view = sys->metrics();
  const std::set<std::string> in_view = registry_names(view);
  const trace::MetricsRegistry& h0 = sys->host(0).kernel().metrics();
  const trace::MetricsRegistry& h1 = sys->host(1).kernel().metrics();
  for (const auto& row : os::Kernel::metric_table()) {
    SCOPED_TRACE(std::string(row.name));
    const std::int64_t a = h0.gauge_value(row.name);
    const std::int64_t b = h1.gauge_value(row.name);
    switch (row.combine) {
      case trace::Combine::kSum:
        EXPECT_EQ(view.gauge_value(row.name), a + b);
        break;
      case trace::Combine::kMax:
        EXPECT_EQ(view.gauge_value(row.name), std::max(a, b));
        break;
      case trace::Combine::kEngineWide:
        EXPECT_EQ(view.gauge_value(row.name), a);
        EXPECT_EQ(view.gauge_value(row.name), b);
        break;
      case trace::Combine::kHostOnly:
        EXPECT_FALSE(in_view.contains(std::string(row.name)));
        break;
    }
  }
  // Engine-wide rows equal the engine's own value.
  EXPECT_EQ(view.gauge_value("engine.queue_peak_depth"),
            static_cast<std::int64_t>(sys->engine().queue_peak_depth()));
  EXPECT_EQ(view.gauge_value("engine.queue_depth"),
            static_cast<std::int64_t>(sys->engine().pending_events()));
  // Non-trivial combination: both hosts crossed into their kernels.
  EXPECT_GT(h0.gauge_value("kernel.syscalls"), 0);
  EXPECT_GT(h1.gauge_value("kernel.syscalls"), 0);
}

}  // namespace
