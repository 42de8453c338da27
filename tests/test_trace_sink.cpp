// TraceSink tests: span collection, lifting PhaseTracer phases, and the
// Chrome trace-event JSON export (validated with the service JSON
// parser — the same format Perfetto/chrome://tracing load).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "service/json.h"
#include "telemetry/trace_sink.h"
#include "util/exec_context.h"

namespace {

using namespace pviz;
using telemetry::TraceSink;
using telemetry::TraceSpan;

TraceSpan makeSpan(const std::string& name, std::uint64_t traceId) {
  TraceSpan span;
  span.name = name;
  span.category = "test";
  span.traceId = traceId;
  span.threadId = 3;
  span.startUs = 1000;
  span.durationUs = 250;
  span.args.emplace_back("op", "study");
  return span;
}

TEST(TraceSink, CollectsSpans) {
  TraceSink sink;
  EXPECT_TRUE(sink.empty());
  sink.add(makeSpan("a", 1));
  sink.add(makeSpan("b", 1));
  EXPECT_EQ(sink.size(), 2u);
  const auto spans = sink.spans();
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].name, "b");
}

TEST(TraceSink, ChromeJsonIsWellFormed) {
  TraceSink sink;
  sink.add(makeSpan("phase/one", 7));
  const service::Json doc = service::Json::parse(sink.toChromeJson());

  const service::Json* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->asString(), "ms");

  const service::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->asArray().size(), 1u);

  const service::Json& e = events->asArray()[0];
  EXPECT_EQ(e.find("ph")->asString(), "X");
  EXPECT_EQ(e.find("name")->asString(), "phase/one");
  EXPECT_EQ(e.find("cat")->asString(), "test");
  EXPECT_EQ(e.find("pid")->asInt(), 1);
  EXPECT_EQ(e.find("tid")->asInt(), 3);
  EXPECT_EQ(e.find("ts")->asInt(), 1000);
  EXPECT_EQ(e.find("dur")->asInt(), 250);

  const service::Json* args = e.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("trace_id")->asString(), "7");
  EXPECT_EQ(args->find("op")->asString(), "study");
}

TEST(TraceSink, EscapesSpanNames) {
  TraceSink sink;
  TraceSpan span = makeSpan("quote\"back\\slash\nnewline", 1);
  sink.add(std::move(span));
  // Parsing succeeds and round-trips the name exactly.
  const service::Json doc = service::Json::parse(sink.toChromeJson());
  EXPECT_EQ(doc.find("traceEvents")->asArray()[0].find("name")->asString(),
            "quote\"back\\slash\nnewline");
}

TEST(TraceSink, EmptySinkStillParses) {
  TraceSink sink;
  const service::Json doc = service::Json::parse(sink.toChromeJson());
  EXPECT_TRUE(doc.find("traceEvents")->asArray().empty());
}

TEST(TraceSink, LiftsPhaseTracerPhases) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  {
    auto scope = ctx.phase("kernel/contour");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    auto scope = ctx.phase("kernel/render");
  }

  TraceSink sink;
  sink.addPhases(ctx.tracer(), /*traceId=*/42);
  ASSERT_EQ(sink.size(), 2u);
  const auto spans = sink.spans();
  EXPECT_EQ(spans[0].name, "kernel/contour");
  EXPECT_EQ(spans[0].category, "kernel");
  EXPECT_EQ(spans[0].traceId, 42u);
  EXPECT_GT(spans[0].startUs, 0u);
  EXPECT_GE(spans[0].durationUs, 2000u);  // slept 2 ms
  EXPECT_EQ(spans[1].name, "kernel/render");
  // Phases were recorded in order: the second starts after the first.
  EXPECT_GE(spans[1].startUs, spans[0].startUs);

  // The export parses and carries both spans.
  const service::Json doc = service::Json::parse(sink.toChromeJson());
  EXPECT_EQ(doc.find("traceEvents")->asArray().size(), 2u);
}

TEST(TraceSink, BeginRunClearsPhasesSoNoOrphanSpansLeak) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  {
    auto scope = ctx.phase("request-one/phase");
  }
  EXPECT_EQ(ctx.tracer().phases().size(), 1u);

  // The next request resets the context: lifting its tracer afterwards
  // must not resurrect the previous request's spans.
  ctx.beginRun();
  {
    auto scope = ctx.phase("request-two/phase");
  }
  TraceSink sink;
  sink.addPhases(ctx.tracer(), /*traceId=*/2);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.spans()[0].name, "request-two/phase");
}

TEST(TraceNowUs, IsMonotonic) {
  const std::uint64_t a = telemetry::traceNowUs();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::uint64_t b = telemetry::traceNowUs();
  EXPECT_GT(b, a);
}

}  // namespace
