#pragma once

// Logic of the campaign benchmark that does not time anything: argument
// validation, workload definitions, percentile and self-time arithmetic,
// span recording, the reference-path oracle and the fprop-coord table
// check. main.cpp drives the library through these; selftest.cpp tests
// them.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fprop/harness/harness.h"
#include "fprop/support/error.h"

namespace perfbench {

/// A bad command-line value. Raised before any value is narrowed or used;
/// main() turns it into exit code 2 without printing a result.
class UsageError : public fprop::Error {
 public:
  explicit UsageError(const std::string& what) : Error("usage: " + what) {}
};

/// A percentile asked of too few samples (fewer than kMinBeyond beyond it).
class InsufficientSamples : public fprop::Error {
 public:
  explicit InsufficientSamples(const std::string& what) : Error(what) {}
};

enum class Workload : std::uint8_t {
  Lulesh,
  McbObserved,
  MinifeRecovery,
};

inline constexpr Workload kWorkloads[] = {
    Workload::Lulesh, Workload::McbObserved, Workload::MinifeRecovery};

const char* workload_name(Workload w) noexcept;
/// Throws UsageError naming the accepted workloads.
Workload parse_workload(std::string_view name);

struct Args {
  Workload workload = Workload::Lulesh;
  std::uint64_t seed = 0;
  std::uint32_t seconds = 0;
  bool trace = false;
  /// Oracle self-check: corrupt one sampled trial result before the
  /// reference comparison, so the run must report a failure and exit 1.
  bool perturb = false;
};

inline constexpr std::uint32_t kMaxSeconds = 600;

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--perturb]`.
/// Every flag but --perturb is required. Numbers are decimal digits only,
/// range-checked as 64-bit values before narrowing. Throws UsageError.
Args parse_args(const std::vector<std::string>& argv);

// --- workloads --------------------------------------------------------------

/// Trials in one campaign of every workload: the paper injects 5,000 faults
/// per app; 1,000 is the smallest count the ROADMAP calls paper-sized, and
/// it keeps the p99 trial latency backed by ten samples beyond it.
inline constexpr std::size_t kCampaignTrials = 1000;

/// What a workload hands the library: the app, the experiment (harness)
/// configuration and the campaign configuration built from the seed.
struct WorkloadSpec {
  std::string app;
  fprop::harness::ExperimentConfig experiment;
  fprop::harness::CampaignConfig campaign;
  /// mcb-observed attaches a MetricsRegistry (as --metrics-out does); the
  /// runner supplies one per campaign when this is set.
  bool observed = false;
};

WorkloadSpec make_workload(Workload w, std::uint64_t seed, std::size_t jobs);

/// fprop-coord arguments for the lulesh campaign run as `shards`
/// single-threaded shard processes (after the binary path).
std::vector<std::string> coord_args(std::uint64_t seed, std::size_t trials,
                                    std::size_t shards);

// --- statistics -------------------------------------------------------------

inline constexpr std::size_t kMinBeyond = 10;

double median(std::vector<double> values);

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count it was taken from
  std::size_t beyond = 0;   ///< samples strictly above its rank
};

/// Nearest-rank percentile (q in (0, 1]). Throws InsufficientSamples when
/// fewer than kMinBeyond samples lie beyond the selected rank: a tail
/// percentile is only reported with at least ten samples past it.
Percentile percentile(std::vector<double> samples, double q);

// --- spans ------------------------------------------------------------------

inline constexpr std::uint64_t kNoTrial = ~0ull;
inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t parent = kNoParent;
  std::uint64_t trial = kNoTrial;  ///< shared by every span of one trial
  double start = 0.0;              ///< seconds since the tracer's origin
  double end = 0.0;
  double cpu = 0.0;  ///< thread CPU seconds (0 when not measured)
};

/// In-memory span store; thread-safe. Spans are opened and closed by the
/// benchmark around each public call it makes into a layer, and written out
/// only when the run ends.
class Tracer {
 public:
  Tracer();
  std::int64_t begin(std::string name, std::int64_t parent = kNoParent,
                     std::uint64_t trial = kNoTrial);
  void end(std::int64_t id, double cpu = 0.0);
  double now() const;
  std::vector<Span> spans() const;

 private:
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes (with the thread's CPU time
/// over the span) on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name,
             std::int64_t parent = kNoParent, std::uint64_t trial = kNoTrial);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
  double cpu0_;
};

struct LayerTime {
  std::size_t count = 0;
  double total = 0.0;  ///< summed durations
  double self = 0.0;   ///< summed self times
};

/// Per span name: count, total and self time. A span's self time is its
/// duration minus the part of [start, end] that the union of its children
/// covers: children may overlap each other and stick out of the parent, and
/// only the covered part inside the parent counts.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

double thread_cpu_seconds();

// --- correctness ------------------------------------------------------------

/// Fields of `got` that differ from the reference `ref`. Every TrialResult
/// field is compared bit-exactly except the trial-economy provenance
/// (pruned, prune_clock, dedup_count), as in the repository's equivalence
/// tests.
std::vector<std::string> trial_mismatches(
    const fprop::harness::TrialResult& got,
    const fprop::harness::TrialResult& ref);

/// Seed-derived sample of `count` distinct trial indices out of `trials`.
std::vector<std::size_t> oracle_sample(std::uint64_t seed, std::size_t trials,
                                       std::size_t count);

/// Trials of two campaigns that differ in any field, provenance included
/// (both sides ran the same engine), plus one per differing aggregate.
std::size_t campaign_mismatches(const fprop::harness::CampaignResult& a,
                                const fprop::harness::CampaignResult& b);

/// Re-runs every sampled trial on the reference path (cold start,
/// ExecTier::Interp, prune off, no recorder) on `jobs` threads and returns
/// how many of `slots` disagree with it. A trial that throws counts too.
/// With a tracer, each re-run is a "harness.run_trial" span under `parent`
/// carrying its trial id.
std::size_t oracle_failures(const fprop::harness::AppHarness& harness,
                            const fprop::harness::CampaignPlan& plan,
                            const std::vector<fprop::harness::TrialResult>& slots,
                            const std::vector<std::size_t>& sample,
                            std::size_t jobs, std::string* first_mismatch,
                            Tracer* tracer = nullptr,
                            std::int64_t parent = kNoParent);

/// The outcome table fprop-coord prints, as the printed tokens: trial
/// count, the five outcome percentages (V, ONA, WO, PEX, C; one decimal)
/// and the trial-economy counts.
struct CoordTable {
  std::string trials;
  std::string pct[5];
  std::string pruned;
  std::string deduped;
  bool operator==(const CoordTable&) const = default;
};

/// The table fprop-coord would print for an in-process result.
CoordTable coord_table(const fprop::harness::CampaignResult& r);

/// The table cut out of fprop-coord's standard output; nullopt if absent.
std::optional<CoordTable> parse_coord_table(const std::string& coord_stdout);

// --- output -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// {"name": {"value": v, "unit": "u"}, ...}, numbers printed with every digit.
std::string metrics_json(const std::map<std::string, Metric>& metrics);

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics"}, numbers printed with every digit.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics);

std::string json_escape(std::string_view s);
/// Shortest text that reads back as the same double; throws on NaN/inf.
std::string json_number(double v);

}  // namespace perfbench
