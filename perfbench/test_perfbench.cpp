// Tests of the benchmark's own arithmetic: tail-percentile choice, span
// self time and the untraced remainder, seed determinism of the inputs,
// and reply checking.
//
//   ./.bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>

#include "check.h"
#include "stream.h"
#include "trace.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

Span span(const char* name, std::uint32_t lane, std::int64_t start,
          std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.lane = lane;
  s.startUs = start;
  s.endUs = end;
  s.parent = parent;
  return s;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  EXPECT_EQ(tailPercentileFor(19), 0.0);   // median leaves only 9 above
  EXPECT_EQ(tailPercentileFor(20), 50.0);
  EXPECT_EQ(tailPercentileFor(37), 50.0);  // p75 would leave 9
  EXPECT_EQ(tailPercentileFor(38), 75.0);
  EXPECT_EQ(tailPercentileFor(92), 90.0);
  EXPECT_EQ(tailPercentileFor(1000), 99.0);
  EXPECT_EQ(tailPercentileFor(1801), 99.0);
  EXPECT_EQ(tailPercentileFor(1802), 99.5);
  EXPECT_EQ(tailPercentileFor(10000), 99.9);
  for (std::size_t n : {20u, 57u, 100u, 1234u, 20000u}) {
    EXPECT_GE(samplesBeyond(n, tailPercentileFor(n)), 10u) << n;
  }
}

TEST(TailPercentile, FollowsUtilPercentileRank) {
  // util::percentile interpolates at rank q*(n-1): p90 of 1..100 lies
  // between the 90th and 91st samples, with 10 samples above it.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(pviz::util::percentile(v, 0.90), 90.1);
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(100, 100), 0u);
  EXPECT_EQ(samplesBeyond(0, 50), 0u);
}

TEST(SelfTime, NestedSpansOnOneLane) {
  // root [0,100) > a [10,60) > b [20,30); c [70,80) under root.
  std::vector<Span> spans = {span("root", 0, 0, 100, -1),
                             span("a", 0, 10, 60, 0), span("b", 0, 20, 30, 1),
                             span("c", 0, 70, 80, 0)};
  const std::vector<double> self = attributeSelfTime(spans, 0);
  EXPECT_NEAR(self[1], 40e-6, 1e-12);  // a minus b
  EXPECT_NEAR(self[2], 10e-6, 1e-12);
  EXPECT_NEAR(self[3], 10e-6, 1e-12);
  EXPECT_NEAR(self[0], 40e-6, 1e-12);  // untraced remainder
  EXPECT_NEAR(sum(self), 100e-6, 1e-12);
}

TEST(SelfTime, ConcurrentLanesShareWallTime) {
  // Two client lanes overlap on [20,40): each gets half of that stretch.
  std::vector<Span> spans = {span("root", 0, 0, 100, -1),
                             span("x", 1, 0, 40, 0), span("y", 2, 20, 60, 0)};
  const std::vector<double> self = attributeSelfTime(spans, 0);
  EXPECT_NEAR(self[1], 30e-6, 1e-12);
  EXPECT_NEAR(self[2], 30e-6, 1e-12);
  EXPECT_NEAR(self[0], 40e-6, 1e-12);
  EXPECT_NEAR(sum(self), 100e-6, 1e-12);
}

TEST(SelfTime, AParentWaitingOnAnotherLaneYieldsToItsChild) {
  // wait [0,100) on lane 0 dispatches child [20,60) to lane 1; an
  // unrelated span z [40,80) on lane 2 shares [40,60) with the child.
  std::vector<Span> spans = {span("root", 0, 0, 100, -1),
                             span("wait", 0, 0, 100, 0),
                             span("child", 1, 20, 60, 1),
                             span("z", 2, 40, 80, 0)};
  const std::vector<double> self = attributeSelfTime(spans, 0);
  EXPECT_NEAR(self[2], 30e-6, 1e-12);  // [20,40) + half of [40,60)
  EXPECT_NEAR(self[3], 20e-6, 1e-12);  // half of [40,60) and of [60,80)
  EXPECT_NEAR(self[1], 50e-6, 1e-12);  // [0,20) + half of [60,80) + [80,100)
  EXPECT_NEAR(self[0], 0.0, 1e-12);
  EXPECT_NEAR(sum(self), 100e-6, 1e-12);
}

TEST(SelfTime, IgnoresOtherTreesAndClipsToRoot) {
  std::vector<Span> spans = {span("root", 0, 100, 200, -1),
                             span("other", 0, 0, 300, -1),
                             span("late", 1, 150, 400, 0),
                             span("orphan-child", 0, 120, 130, 1)};
  const std::vector<double> self = attributeSelfTime(spans, 0);
  EXPECT_EQ(self[1], 0.0);
  EXPECT_EQ(self[3], 0.0);
  EXPECT_NEAR(self[2], 50e-6, 1e-12);
  EXPECT_NEAR(self[0], 50e-6, 1e-12);
}

TEST(Stream, SameSeedSameInputs) {
  const RequestStream a = drawRequestStream(42, 2);
  const RequestStream b = drawRequestStream(42, 2);
  const RequestStream c = drawRequestStream(43, 2);
  ASSERT_EQ(a.requests.size(), 800u);
  bool differs = false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].cacheKey, b.requests[i].cacheKey);
    EXPECT_EQ(pviz::service::toJson(a.requests[i].request).dump(),
              pviz::service::toJson(b.requests[i].request).dump());
    differs |= a.requests[i].cacheKey != c.requests[i].cacheKey;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(drawSweepScope(7).algorithms, drawSweepScope(7).algorithms);
  EXPECT_EQ(drawSweepScope(7).capsWatts, drawSweepScope(7).capsWatts);
  EXPECT_EQ(drawSweepScope(7).capsWatts.front(), 120.0);
  EXPECT_EQ(drawGridScope(7, 64).params.clipRadiusFraction,
            drawGridScope(7, 64).params.clipRadiusFraction);
}

TEST(Stream, MissKeysAreDistinctAndEveryPassHoldsTheMix) {
  const std::size_t passes = kStreamPasses;
  const RequestStream s = drawRequestStream(5, passes);
  std::set<std::string> missKeys;
  for (const StreamRequest& r : s.requests) {
    const bool hit = r.kind == Kind::HitStudy || r.kind == Kind::HitCharacterize;
    if (!hit) EXPECT_TRUE(missKeys.insert(r.cacheKey).second) << r.cacheKey;
  }
  std::size_t perPass = 0;
  for (const auto& [kind, count] : passMix()) {
    EXPECT_EQ(s.counts.at(kind), passes * count) << kindName(kind);
    perPass += count;
  }
  std::map<Kind, std::size_t> firstPass;
  for (std::size_t i = 0; i < perPass; ++i) ++firstPass[s.requests[i].kind];
  for (const auto& [kind, count] : passMix()) EXPECT_EQ(firstPass[kind], count);
}

TEST(ReplyCheck, CorruptedReplyCountsAsFailed) {
  using pviz::service::Json;
  using pviz::service::Response;
  Json result = Json::object();
  result.set("seconds", 1.25);
  result.set("watts", 97.5);
  Response good;
  good.id = "1";
  good.result = result;
  Response corrupted = good;
  corrupted.id = "2";
  corrupted.result = Json::object();
  corrupted.result.set("seconds", 1.25);
  corrupted.result.set("watts", 97.50000001);
  Response refused = good;
  refused.id = "3";
  refused.status = "overloaded";

  ReplyLedger ledger;
  EXPECT_TRUE(ledger.record("k", "1", good));
  EXPECT_TRUE(ledger.record("k", "2", corrupted));  // caught by settle()
  EXPECT_FALSE(ledger.record("k", "3", refused));
  EXPECT_FALSE(ledger.record("k", "4", good));      // answers another request
  EXPECT_EQ(ledger.settle("k", result), 1u);
  EXPECT_EQ(ledger.settle("absent", result), 0u);
}

TEST(Declaration, BenchmarkJsonNamesWhatPerfbenchPrints) {
  using pviz::service::Json;
  std::ifstream in(PERFBENCH_DECLARATION);
  ASSERT_TRUE(in) << PERFBENCH_DECLARATION;
  std::stringstream text;
  text << in.rdbuf();
  const Json declared = Json::parse(text.str());
  auto names = [](const Json& list, const char* field) {
    std::vector<std::string> out;
    for (const Json& entry : list.asArray()) {
      out.push_back(entry.find(field)->asString());
    }
    return out;
  };
  auto pairs = [](const Json& list) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const Json& entry : list.asArray()) {
      out.emplace_back(entry.find("name")->asString(),
                       entry.find("unit")->asString());
    }
    return out;
  };
  EXPECT_EQ(names(*declared.find("workloads"), "name"), workloadNames());
  EXPECT_EQ(pairs(*declared.find("end_to_end")), endToEndMetrics());
  EXPECT_EQ(pairs(*declared.find("per_layer")), perLayerMetrics());
}

}  // namespace
}  // namespace perfbench
