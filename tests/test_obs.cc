#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer {
namespace {

namespace obs = puffer::obs;

// --- MetricRegistry basics --------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  obs::MetricRegistry registry;
  const auto id = registry.counter("events");
  registry.add(id);
  registry.add(id, 4);
  const obs::MetricSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 1u);
  EXPECT_EQ(snapshot.metrics[0].name, "events");
  EXPECT_EQ(snapshot.metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(snapshot.metrics[0].value, 5);
}

TEST(Metrics, GaugeTracksHighWater) {
  obs::MetricRegistry registry;
  const auto id = registry.gauge("depth");
  registry.set(id, 3);
  registry.set(id, 7);
  registry.set(id, 2);
  registry.set_max(id, 5);  // below the current high-water, above the value
  const obs::MetricSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.metrics[0].value, 5);
  EXPECT_EQ(snapshot.metrics[0].high_water, 7);
}

TEST(Metrics, HistogramBucketsByUpperBound) {
  obs::MetricRegistry registry;
  const auto id = registry.histogram("sizes", {1.0, 4.0, 16.0});
  registry.observe(id, 0.5);   // <= 1
  registry.observe(id, 1.0);   // <= 1 (bounds are inclusive upper bounds)
  registry.observe(id, 3.0);   // <= 4
  registry.observe(id, 100.0); // overflow
  const obs::MetricSnapshot snapshot = registry.snapshot();
  const auto& metric = snapshot.metrics[0];
  ASSERT_EQ(metric.buckets.size(), 4u);
  EXPECT_EQ(metric.buckets[0], 2);
  EXPECT_EQ(metric.buckets[1], 1);
  EXPECT_EQ(metric.buckets[2], 0);
  EXPECT_EQ(metric.buckets[3], 1);
  EXPECT_EQ(metric.count, 4);
  EXPECT_DOUBLE_EQ(metric.min, 0.5);
  EXPECT_DOUBLE_EQ(metric.max, 100.0);
}

TEST(Metrics, RegistrationOrderIsSchemaOrder) {
  obs::MetricRegistry registry;
  registry.counter("b");
  registry.gauge("a");
  registry.histogram("c", {1.0});
  const obs::MetricSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "b");
  EXPECT_EQ(snapshot.metrics[1].name, "a");
  EXPECT_EQ(snapshot.metrics[2].name, "c");
}

TEST(Metrics, FindByName) {
  obs::MetricRegistry registry;
  registry.counter("x");
  registry.counter("y");
  const obs::MetricSnapshot snapshot = registry.snapshot();
  ASSERT_NE(snapshot.find("y"), nullptr);
  EXPECT_EQ(snapshot.find("y")->name, "y");
  EXPECT_EQ(snapshot.find("missing"), nullptr);
}

// --- merge semantics --------------------------------------------------------

/// A registry with one metric of each kind, filled from `values` — the
/// shared schema for the merge property tests below.
obs::MetricSnapshot make_part(const std::vector<double>& values) {
  obs::MetricRegistry registry;
  const auto events = registry.counter("events");
  const auto peak = registry.gauge("peak");
  const auto sizes = registry.histogram("sizes", {1.0, 8.0, 64.0});
  for (const double v : values) {
    registry.add(events);
    registry.set_max(peak, static_cast<int64_t>(v));
    registry.observe(sizes, v);
  }
  return registry.snapshot();
}

TEST(MetricsMerge, MergeEqualsWhole) {
  Rng rng{11};
  std::vector<double> all;
  for (int i = 0; i < 200; i++) {
    all.push_back(rng.uniform(0.0, 100.0));
  }
  const obs::MetricSnapshot whole = make_part(all);

  // Split into 4 parts round-robin (arbitrary partition) and merge.
  std::vector<std::vector<double>> parts(4);
  for (size_t i = 0; i < all.size(); i++) {
    parts[i % 4].push_back(all[i]);
  }
  obs::MetricSnapshot merged;
  for (const auto& part : parts) {
    merged.merge_from(make_part(part));
  }
  EXPECT_EQ(merged, whole);
}

TEST(MetricsMerge, OrderIndependent) {
  Rng rng{12};
  std::vector<std::vector<double>> parts(3);
  for (size_t p = 0; p < parts.size(); p++) {
    for (int i = 0; i < 50; i++) {
      parts[p].push_back(rng.uniform(0.0, 50.0));
    }
  }
  obs::MetricSnapshot forward, backward;
  for (size_t p = 0; p < parts.size(); p++) {
    forward.merge_from(make_part(parts[p]));
    backward.merge_from(make_part(parts[parts.size() - 1 - p]));
  }
  EXPECT_EQ(forward, backward);
}

TEST(MetricsMerge, Associative) {
  const obs::MetricSnapshot a = make_part({1.0, 5.0});
  const obs::MetricSnapshot b = make_part({9.0, 2.0, 70.0});
  const obs::MetricSnapshot c = make_part({0.5});

  obs::MetricSnapshot left = a;  // (a + b) + c
  left.merge_from(b);
  left.merge_from(c);

  obs::MetricSnapshot bc = b;  // a + (b + c)
  bc.merge_from(c);
  obs::MetricSnapshot right = a;
  right.merge_from(bc);

  EXPECT_EQ(left, right);
}

TEST(MetricsMerge, EmptySnapshotsAreIdentity) {
  const obs::MetricSnapshot part = make_part({3.0, 42.0});
  obs::MetricSnapshot adopted;
  adopted.merge_from(part);  // empty adopts other
  EXPECT_EQ(adopted, part);
  obs::MetricSnapshot kept = part;
  kept.merge_from(obs::MetricSnapshot{});  // merging empty is a no-op
  EXPECT_EQ(kept, part);
}

TEST(MetricsMerge, SchemaMismatchThrows) {
  obs::MetricRegistry a, b;
  a.counter("x");
  b.counter("y");
  obs::MetricSnapshot merged = a.snapshot();
  EXPECT_THROW(merged.merge_from(b.snapshot()), RequirementError);
}

TEST(MetricsMerge, AppendConcatenatesSchemas) {
  obs::MetricRegistry a, b;
  a.counter("first");
  b.counter("second");
  obs::MetricSnapshot combined = a.snapshot();
  combined.append_from(b.snapshot());
  ASSERT_EQ(combined.metrics.size(), 2u);
  EXPECT_EQ(combined.metrics[0].name, "first");
  EXPECT_EQ(combined.metrics[1].name, "second");
}

// --- determinism classes ----------------------------------------------------

TEST(Metrics, DeterministicViewFiltersClasses) {
  obs::MetricRegistry registry;
  registry.counter("invariant");
  registry.counter("per_shard", {.shard_local = true});
  registry.gauge("racy", {.scheduling_dependent = true});
  const obs::MetricSnapshot snapshot = registry.snapshot();

  const obs::MetricSnapshot same_shards = snapshot.deterministic_view(true);
  ASSERT_EQ(same_shards.metrics.size(), 2u);
  EXPECT_EQ(same_shards.metrics[0].name, "invariant");
  EXPECT_EQ(same_shards.metrics[1].name, "per_shard");

  const obs::MetricSnapshot cross_shards = snapshot.deterministic_view(false);
  ASSERT_EQ(cross_shards.metrics.size(), 1u);
  EXPECT_EQ(cross_shards.metrics[0].name, "invariant");
}

TEST(Metrics, ToJsonIsWellFormed) {
  obs::MetricRegistry registry;
  const auto id = registry.histogram("h\"quoted\"", {2.0});
  registry.observe(id, 1.0);
  registry.counter("empty_counter");
  registry.histogram("empty_hist", {1.0});
  const std::string json = registry.snapshot().to_json();
  // Structural sanity: balanced braces/brackets, escaped quote, and the
  // empty histogram's non-finite extremes rendered as null.
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("h\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
  size_t depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); i++) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      ASSERT_GT(depth, 0u);
      depth--;
    }
  }
  EXPECT_EQ(depth, 0u);
  EXPECT_FALSE(in_string);
}

// --- TraceWriter ------------------------------------------------------------

obs::TraceWriter make_trace() {
  obs::TraceWriter trace;
  trace.process_name(obs::kSimTracePid, "virtual time (sim)");
  trace.thread_name(obs::kSimTracePid, 0, "shard 0");
  trace.instant(obs::kSimTracePid, 0, "arrive", 1.5e6);
  obs::TraceArgs args;
  args.add("size", static_cast<int64_t>(3));
  args.add("label", "a\"b");
  args.add("ratio", 0.25);
  trace.complete(obs::kSimTracePid, 0, "batch", 1.5e6, 2.0e5, args.str());
  trace.counter(obs::kSimTracePid, "depth", 1.5e6, 3.0);
  return trace;
}

TEST(Trace, ByteIdenticalAcrossRepeatRuns) {
  const std::string a = make_trace().str();
  const std::string b = make_trace().str();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

TEST(Trace, RendersChromeTraceShape) {
  const obs::TraceWriter trace = make_trace();
  EXPECT_EQ(trace.event_count(), 5u);
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);        // escaped arg
}

TEST(Trace, AppendFromSplicesInCallOrder) {
  obs::TraceWriter shard0, shard1, merged;
  shard0.instant(obs::kSimTracePid, 0, "a", 1.0);
  shard1.instant(obs::kSimTracePid, 1, "b", 2.0);
  merged.append_from(shard0);
  merged.append_from(shard1);
  EXPECT_EQ(merged.event_count(), 2u);
  const std::string json = merged.str();
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
}

// --- ProfScope (perf plane) -------------------------------------------------

TEST(Prof, ScopesRecordWhenCompiledIn) {
  obs::prof_reset();
  obs::set_prof_enabled(true);
  {
    const obs::ProfScope scope{"test.scope"};
  }
  const obs::ProfSnapshot snapshot = obs::prof_snapshot();
  const std::vector<obs::ProfScopeStats> merged = snapshot.merged();
  const obs::ProfScopeStats* stats =
      obs::ProfSnapshot::find(merged, "test.scope");
  if (obs::kProfilingCompiled) {
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->count, 1);
    EXPECT_GE(stats->total_ns, 0);
    EXPECT_LE(stats->min_ns, stats->max_ns);
  } else {
    EXPECT_EQ(stats, nullptr);  // no-op build: query API returns empty
  }
  obs::prof_reset();
}

TEST(Prof, RuntimeGateSkipsRecording) {
  obs::prof_reset();
  obs::set_prof_enabled(false);
  {
    const obs::ProfScope scope{"gated.scope"};
  }
  obs::set_prof_enabled(true);
  const obs::ProfSnapshot snapshot = obs::prof_snapshot();
  EXPECT_EQ(obs::ProfSnapshot::find(snapshot.merged(), "gated.scope"),
            nullptr);
  obs::prof_reset();
}

TEST(Prof, ResetClearsCallingThread) {
  obs::set_prof_enabled(true);
  {
    const obs::ProfScope scope{"reset.scope"};
  }
  obs::prof_reset();
  const obs::ProfSnapshot snapshot = obs::prof_snapshot();
  EXPECT_EQ(obs::ProfSnapshot::find(snapshot.merged(), "reset.scope"),
            nullptr);
}

TEST(Prof, ExportTraceEmitsWallLanes) {
  obs::prof_reset();
  obs::set_prof_enabled(true);
  {
    const obs::ProfScope scope{"traced.scope"};
  }
  obs::TraceWriter trace;
  obs::prof_export_trace(trace);
  if (obs::kProfilingCompiled) {
    EXPECT_NE(trace.str().find("traced.scope"), std::string::npos);
  } else {
    EXPECT_EQ(trace.event_count(), 0u);
  }
  obs::prof_reset();
}

/// Threads that run one after another, each overflowing its own event cap:
/// together the retired threads keep kProfMaxRetiredEvents events, the
/// earliest first, and count the rest as dropped, while the histograms
/// count every scope.
TEST(Prof, RetiredEventsAreCappedProcessWide) {
  obs::prof_reset();
  obs::set_prof_enabled(true);
  constexpr size_t kThreads = 5;
  constexpr size_t kPerThread = obs::kProfMaxEventsPerThread + 100;
  static_assert((kThreads - 1) * obs::kProfMaxEventsPerThread >=
                obs::kProfMaxRetiredEvents);
  for (size_t t = 0; t < kThreads; t++) {
    std::thread{[] {
      for (size_t i = 0; i < kPerThread; i++) {
        const obs::ProfScope scope{"capped.scope"};
      }
    }}.join();
  }
  const obs::ProfSnapshot snapshot = obs::prof_snapshot();
  if (!obs::kProfilingCompiled) {
    EXPECT_TRUE(snapshot.threads.empty());
    return;
  }
  ASSERT_EQ(snapshot.threads.size(), kThreads);
  size_t kept = 0;
  int64_t dropped = 0;
  for (const obs::ProfThreadSnapshot& thread : snapshot.threads) {
    EXPECT_LE(thread.events.size(), obs::kProfMaxEventsPerThread);
    kept += thread.events.size();
    dropped += thread.dropped_events;
  }
  EXPECT_EQ(kept, obs::kProfMaxRetiredEvents);
  EXPECT_EQ(kept + static_cast<size_t>(dropped), kThreads * kPerThread);
  EXPECT_EQ(snapshot.threads.front().events.size(),
            obs::kProfMaxEventsPerThread);
  EXPECT_TRUE(snapshot.threads.back().events.empty());
  const std::vector<obs::ProfScopeStats> merged = snapshot.merged();
  const obs::ProfScopeStats* stats =
      obs::ProfSnapshot::find(merged, "capped.scope");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, static_cast<int64_t>(kThreads * kPerThread));

  // A reset frees the budget for the threads that follow.
  obs::prof_reset();
  std::thread{[] { const obs::ProfScope scope{"capped.scope"}; }}.join();
  const obs::ProfSnapshot after = obs::prof_snapshot();
  ASSERT_EQ(after.threads.size(), 1u);
  EXPECT_EQ(after.threads.front().events.size(), 1u);
  obs::prof_reset();
}

}  // namespace
}  // namespace puffer
