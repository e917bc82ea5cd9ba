// Tests of the benchmark's own logic (bench_lib.h): argument validation,
// percentile selection, span self time, the reference-path oracle and the
// fprop-coord table check.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/bin/perfbench_selftest

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "fprop/apps/registry.h"

namespace perfbench {
namespace {

using fprop::harness::AppHarness;
using fprop::harness::CampaignConfig;
using fprop::harness::CampaignResult;
using fprop::harness::TrialResult;

Args parse(std::vector<std::string> v) { return parse_args(v); }

TEST(Args, AcceptsTheDocumentedForm) {
  const Args a = parse({"--workload", "minife-recovery", "--seed", "18446744073709551615",
                        "--seconds", "10", "--trace", "1"});
  EXPECT_EQ(a.workload, Workload::MinifeRecovery);
  EXPECT_EQ(a.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.seconds, 10u);
  EXPECT_TRUE(a.trace);
  EXPECT_FALSE(a.perturb);
}

TEST(Args, RejectsBadValuesWithATypedError) {
  const std::vector<std::string> ok = {"--workload", "lulesh", "--seed", "1",
                                       "--seconds", "5", "--trace", "0"};
  auto with = [&](std::size_t at, std::string value) {
    auto v = ok;
    v[at] = std::move(value);
    return v;
  };
  EXPECT_THROW(parse(with(1, "matvec")), UsageError);
  EXPECT_THROW(parse(with(3, "abc")), UsageError);  // no silent zero
  EXPECT_THROW(parse(with(3, "-1")), UsageError);
  EXPECT_THROW(parse(with(3, "12x")), UsageError);
  EXPECT_THROW(parse(with(3, "")), UsageError);
  EXPECT_THROW(parse(with(3, "18446744073709551616")), UsageError);  // 2^64
  EXPECT_THROW(parse(with(5, "0")), UsageError);
  EXPECT_THROW(parse(with(5, "601")), UsageError);
  EXPECT_THROW(parse(with(5, "4294967306")), UsageError);  // 2^32 + 10
  EXPECT_THROW(parse(with(7, "2")), UsageError);
  EXPECT_THROW(parse({"--workload", "lulesh", "--seed", "1", "--seconds", "5"}),
               UsageError);
  auto twice = ok;
  twice.insert(twice.end(), {"--seed", "2"});
  EXPECT_THROW(parse(twice), UsageError);
  auto dangling = ok;
  dangling.push_back("--seed");
  EXPECT_THROW(parse(dangling), UsageError);
  auto unknown = ok;
  unknown.push_back("--jobs=4");
  EXPECT_THROW(parse(unknown), UsageError);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankWithItsSampleCount) {
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = percentile(one_to(1000), 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_THROW(percentile(one_to(999), 0.99), InsufficientSamples);  // 9 beyond
  EXPECT_NO_THROW(percentile(one_to(20), 0.50));                     // 10 beyond
  EXPECT_THROW(percentile(one_to(19), 0.50), InsufficientSamples);   // 9 beyond
  EXPECT_THROW(percentile({}, 0.50), InsufficientSamples);
  EXPECT_THROW(percentile(one_to(1000), 0.0), InsufficientSamples);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

Span span(const char* name, std::int64_t parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, ChildrenOverlappingEachOtherAndTheParent) {
  const std::vector<Span> spans = {
      span("root", kNoParent, 0, 10),
      span("a", 0, 1, 4),
      span("a", 0, 3, 6),   // overlaps its sibling: [1, 6] counted once
      span("b", 0, 8, 12),  // sticks out of the parent: only [8, 10] counts
      span("c", 1, 1, 2),   // grandchild: covers "a", not "root"
  };
  const auto layers = layer_times(spans);
  EXPECT_DOUBLE_EQ(layers.at("root").self, 10.0 - 5.0 - 2.0);
  EXPECT_EQ(layers.at("a").count, 2u);
  EXPECT_DOUBLE_EQ(layers.at("a").total, 6.0);
  EXPECT_DOUBLE_EQ(layers.at("a").self, (3.0 - 1.0) + 3.0);
  EXPECT_DOUBLE_EQ(layers.at("b").self, 4.0);
  EXPECT_DOUBLE_EQ(layers.at("c").self, 1.0);
}

TEST(SelfTime, TracerRecordsParentAndTrial) {
  Tracer tr;
  {
    ScopedSpan outer(tr, "outer");
    ScopedSpan inner(tr, "inner", outer.id(), 7);
  }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].trial, 7u);
  EXPECT_EQ(spans[0].trial, kNoTrial);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_GE(layer_times(spans).at("outer").self, 0.0);
}

// A small real campaign and its plan, shared by the oracle tests.
struct Campaign {
  AppHarness harness{fprop::apps::get_app("matvec"), {}};
  CampaignConfig config = [] {
    CampaignConfig c;
    c.trials = 12;
    c.seed = 5;
    c.jobs = 1;
    return c;
  }();
  CampaignResult result = fprop::harness::run_campaign(harness, config);
  fprop::harness::CampaignPlan plan =
      fprop::harness::plan_campaign(harness, config);
};

Campaign& campaign() {
  static Campaign c;
  return c;
}

std::vector<std::size_t> all(std::size_t n) {
  std::vector<std::size_t> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(i);
  return v;
}

TEST(Oracle, FastPathAgreesWithTheReferencePath) {
  Campaign& c = campaign();
  std::string first;
  EXPECT_EQ(oracle_failures(c.harness, c.plan, c.result.trials, all(12), 2, &first),
            0u)
      << first;
}

TEST(Oracle, PerturbedTrialResultCountsAsAFailure) {
  Campaign& c = campaign();
  std::vector<TrialResult> slots = c.result.trials;
  slots[3].global_cycles += 1;
  slots[7].contaminated_pct = std::nextafter(slots[7].contaminated_pct, 1e9);
  std::string first;
  EXPECT_EQ(oracle_failures(c.harness, c.plan, slots, all(12), 1, &first), 2u);
  EXPECT_NE(first.find("trial 3"), std::string::npos) << first;
  EXPECT_NE(first.find("global_cycles"), std::string::npos) << first;
  // Only sampled trials are checked.
  EXPECT_EQ(oracle_failures(c.harness, c.plan, slots, {0, 1, 2}, 1, nullptr), 0u);
}

TEST(Oracle, ProvenanceFieldsAreNotCompared) {
  Campaign& c = campaign();
  std::vector<TrialResult> slots = c.result.trials;
  slots[0].pruned = !slots[0].pruned;
  slots[0].prune_clock += 99;
  slots[0].dedup_count += 3;
  EXPECT_EQ(oracle_failures(c.harness, c.plan, slots, all(12), 1, nullptr), 0u);
  // ...but two runs of one engine must agree on them too.
  CampaignResult r = c.result;
  r.trials[0] = slots[0];
  EXPECT_EQ(campaign_mismatches(c.result, r), 1u);
  EXPECT_EQ(campaign_mismatches(c.result, c.result), 0u);
}

TEST(Oracle, EveryComparedFieldIsSeen) {
  const TrialResult base;
  auto differs = [&](auto mutate) {
    TrialResult t = base;
    mutate(t);
    return !trial_mismatches(t, base).empty();
  };
  EXPECT_TRUE(differs([](TrialResult& t) { t.outcome = fprop::harness::Outcome::Crashed; }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.injection.after = 1; }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.msg_injected = 1; }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.rank_first_contaminated.push_back(4); }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.trace.push_back({1, 2}); }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.slope_a = -0.0; }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.recovery_gave_up = true; }));
  EXPECT_TRUE(differs([](TrialResult& t) { t.first_detection_clock = 3; }));
  EXPECT_FALSE(differs([](TrialResult& t) { t.dedup_count = 0; }));
}

TEST(Oracle, SampleIsSeedDerivedAndDistinct) {
  const auto a = oracle_sample(9, 1000, 24);
  EXPECT_EQ(a, oracle_sample(9, 1000, 24));
  EXPECT_NE(a, oracle_sample(10, 1000, 24));
  ASSERT_EQ(a.size(), 24u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 1000u);
  EXPECT_EQ(oracle_sample(1, 5, 24).size(), 5u);
}

// fprop-coord's table, as its main() prints it.
std::string coord_stdout(const CampaignResult& r) {
  const auto& c = r.counts;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "campaign: lulesh, 8 ranks, %zu trials across 4 shards\n\n"
                "outcomes over %zu trials:\n"
                "  vanished        (V): %5.1f%%\n"
                "  output-unaffected (ONA): %.1f%%\n"
                "  wrong output   (WO): %5.1f%%\n"
                "  prolonged     (PEX): %5.1f%%\n"
                "  crashed         (C): %5.1f%%\n"
                "trial economy: %zu pruned, %zu deduped\n",
                c.total(), c.total(), c.pct(c.vanished), c.pct(c.ona),
                c.pct(c.wrong_output), c.pct(c.pex), c.pct(c.crashed),
                r.pruned_trials, r.deduped_trials);
  return buf;
}

TEST(CoordTable, PrintedTableMatchesTheInProcessResult) {
  const CampaignResult& r = campaign().result;
  const auto parsed = parse_coord_table(coord_stdout(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, coord_table(r));
  EXPECT_EQ(parsed->trials, "12");

  CampaignResult other = r;
  other.counts.crashed += 1;
  other.counts.vanished -= other.counts.vanished > 0 ? 1 : 0;
  EXPECT_FALSE(*parse_coord_table(coord_stdout(other)) == coord_table(r));
  other = r;
  other.pruned_trials += 1;
  EXPECT_FALSE(*parse_coord_table(coord_stdout(other)) == coord_table(r));
  EXPECT_FALSE(parse_coord_table("fprop-coord: spawn failed\n").has_value());
}

TEST(Output, ResultLineHasExactlyTheContractKeys) {
  std::map<std::string, Metric> m;
  m["trials_per_s"] = {412.5, "trials/s"};
  EXPECT_EQ(result_json(true, 1000, 0, m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"trials_per_s\": {\"value\": 412.5, \"unit\": "
            "\"trials/s\"}}}");
  m["bad"] = {std::nan(""), "s"};
  EXPECT_THROW(result_json(true, 1, 0, m), fprop::Error);
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

}  // namespace
}  // namespace perfbench
