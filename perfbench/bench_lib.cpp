#include "bench_lib.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "fprop/support/rng.h"

namespace perfbench {

using fprop::harness::CampaignResult;
using fprop::harness::TrialResult;

// --- arguments ----------------------------------------------------------------

const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::Lulesh:
      return "lulesh";
    case Workload::McbObserved:
      return "mcb-observed";
    case Workload::MinifeRecovery:
      return "minife-recovery";
  }
  return "?";
}

Workload parse_workload(std::string_view name) {
  for (Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  std::string known;
  for (Workload w : kWorkloads) {
    known += known.empty() ? "" : ", ";
    known += workload_name(w);
  }
  throw UsageError("unknown workload '" + std::string(name) + "' (expected " +
                   known + ")");
}

namespace {

/// Decimal digits only (no sign, no blanks, no suffix), at most `max`; the
/// value is range-checked as a 64-bit number before anything narrows it.
std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t max) {
  const std::string where = std::string(flag) + " '" + std::string(text) + "'";
  if (text.empty()) throw UsageError(where + ": empty value");
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw UsageError(where + ": not a non-negative decimal integer");
    }
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
      throw UsageError(where + ": does not fit in 64 bits");
    }
    v = v * 10 + d;
  }
  if (v > max) {
    throw UsageError(where + ": above the maximum " + std::to_string(max));
  }
  return v;
}

}  // namespace

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  auto take = [&](std::size_t& i, bool& seen) -> const std::string& {
    const std::string& flag = argv[i];
    if (seen) throw UsageError(flag + " given twice");
    if (i + 1 >= argv.size()) throw UsageError(flag + " needs a value");
    seen = true;
    return argv[++i];
  };
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "--workload") {
      args.workload = parse_workload(take(i, have_workload));
    } else if (a == "--seed") {
      args.seed = parse_uint(a, take(i, have_seed),
                             std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_uint(a, take(i, have_seconds), kMaxSeconds);
      if (s == 0) throw UsageError("--seconds '0': must be at least 1");
      args.seconds = static_cast<std::uint32_t>(s);
    } else if (a == "--trace") {
      args.trace = parse_uint(a, take(i, have_trace), 1) == 1;
    } else if (a == "--perturb") {
      args.perturb = true;
    } else {
      throw UsageError("unknown argument '" + a + "'");
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  if (!have_seed) throw UsageError("--seed is required");
  if (!have_seconds) throw UsageError("--seconds is required");
  if (!have_trace) throw UsageError("--trace is required");
  return args;
}

// --- workloads ----------------------------------------------------------------

WorkloadSpec make_workload(Workload w, std::uint64_t seed, std::size_t jobs) {
  WorkloadSpec spec;
  spec.campaign.trials = kCampaignTrials;
  spec.campaign.seed = seed;
  spec.campaign.jobs = jobs;
  switch (w) {
    case Workload::Lulesh:
      spec.app = "lulesh";
      break;
    case Workload::McbObserved:
      spec.app = "mcb";
      spec.observed = true;
      break;
    case Workload::MinifeRecovery:
      // As recovery_campaign runs its Always policy: detector interval
      // derived from the golden run, one register fault plus one in-flight
      // message fault per trial.
      spec.app = "minife";
      spec.experiment.recovery.enabled = true;
      spec.experiment.recovery.policy = fprop::model::RollbackPolicy::Always;
      spec.experiment.recovery.detector_interval = 0;
      spec.campaign.msg_faults_per_run = 1;
      break;
  }
  return spec;
}

std::vector<std::string> coord_args(std::uint64_t seed, std::size_t trials,
                                    std::size_t shards) {
  return {"lulesh",
          std::to_string(trials),
          "--shards=" + std::to_string(shards),
          "--jobs=1",
          "--seed=" + std::to_string(seed)};
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) throw InsufficientSamples("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Percentile percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q <= 1.0)) {
    throw InsufficientSamples("percentile outside (0, 1]");
  }
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  const std::size_t beyond = n >= rank ? n - rank : 0;
  if (beyond < kMinBeyond) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "p%g of %zu samples has %zu beyond it; at least %zu needed",
                  q * 100.0, n, beyond, kMinBeyond);
    throw InsufficientSamples(buf);
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return {samples[rank - 1], n, beyond};
}

// --- spans --------------------------------------------------------------------

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double covered(double start, double end,
               std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_s = 0.0, cur_e = 0.0;
  bool open = false;
  for (auto [s, e] : intervals) {
    s = std::max(s, start);
    e = std::min(e, end);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      kids[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  return kids;
}

double self_time_of(const std::vector<Span>& spans,
                    const std::vector<std::size_t>& kids, std::size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(kids.size());
  for (std::size_t k : kids) intervals.emplace_back(spans[k].start, spans[k].end);
  return (s.end - s.start) - covered(s.start, s.end, std::move(intervals));
}

}  // namespace

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Tracer::Tracer() : origin_(steady_seconds()) {}

double Tracer::now() const { return steady_seconds() - origin_; }

std::int64_t Tracer::begin(std::string name, std::int64_t parent,
                           std::uint64_t trial) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.trial = trial;
  s.start = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t id, double cpu) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end = t;
  s.cpu = cpu;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::int64_t parent,
                       std::uint64_t trial)
    : tracer_(tracer),
      id_(tracer.begin(std::move(name), parent, trial)),
      cpu0_(thread_cpu_seconds()) {}

ScopedSpan::~ScopedSpan() { tracer_.end(id_, thread_cpu_seconds() - cpu0_); }

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = out[spans[i].name];
    ++lt.count;
    lt.total += spans[i].end - spans[i].start;
    lt.self += self_time_of(spans, kids[i], i);
  }
  return out;
}

// --- correctness --------------------------------------------------------------

std::vector<std::string> trial_mismatches(const TrialResult& got,
                                          const TrialResult& ref) {
  std::vector<std::string> out;
  auto same_double = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
#define PERFBENCH_CMP(field) \
  if (!(got.field == ref.field)) out.emplace_back(#field)
#define PERFBENCH_CMP_DOUBLE(field) \
  if (!same_double(got.field, ref.field)) out.emplace_back(#field)
  PERFBENCH_CMP(outcome);
  PERFBENCH_CMP(trap);
  PERFBENCH_CMP(injected);
  PERFBENCH_CMP(injection.rank);
  PERFBENCH_CMP(injection.site_id);
  PERFBENCH_CMP(injection.dyn_index);
  PERFBENCH_CMP(injection.bit);
  PERFBENCH_CMP(injection.cycle);
  PERFBENCH_CMP(injection.before);
  PERFBENCH_CMP(injection.after);
  PERFBENCH_CMP(msg_injected);
  PERFBENCH_CMP(headers_quarantined);
  PERFBENCH_CMP(header_records_quarantined);
  PERFBENCH_CMP(fault_pair_min_gap);
  PERFBENCH_CMP(total_cml_final);
  PERFBENCH_CMP(total_cml_peak);
  PERFBENCH_CMP_DOUBLE(contaminated_pct);
  PERFBENCH_CMP(contaminated_ranks);
  PERFBENCH_CMP(reported_iters);
  PERFBENCH_CMP(global_cycles);
  PERFBENCH_CMP(rank_first_contaminated);
  PERFBENCH_CMP_DOUBLE(slope_a);
  PERFBENCH_CMP_DOUBLE(slope_b);
  PERFBENCH_CMP(slope_usable);
  PERFBENCH_CMP(recovered);
  PERFBENCH_CMP(rollbacks);
  PERFBENCH_CMP(detections);
  PERFBENCH_CMP(wasted_cycles);
  PERFBENCH_CMP(residual_cml);
  PERFBENCH_CMP(recovery_gave_up);
  PERFBENCH_CMP(first_detection_clock);
#undef PERFBENCH_CMP
#undef PERFBENCH_CMP_DOUBLE
  bool same_trace = got.trace.size() == ref.trace.size();
  for (std::size_t i = 0; same_trace && i < got.trace.size(); ++i) {
    same_trace = got.trace[i].cycle == ref.trace[i].cycle &&
                 got.trace[i].cml == ref.trace[i].cml;
  }
  if (!same_trace) out.emplace_back("trace");
  return out;
}

std::size_t campaign_mismatches(const CampaignResult& a, const CampaignResult& b) {
  std::size_t bad = 0;
  const std::size_t n = std::min(a.trials.size(), b.trials.size());
  bad += std::max(a.trials.size(), b.trials.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    const TrialResult& x = a.trials[i];
    const TrialResult& y = b.trials[i];
    if (!trial_mismatches(x, y).empty() || x.pruned != y.pruned ||
        x.prune_clock != y.prune_clock || x.dedup_count != y.dedup_count) {
      ++bad;
    }
  }
  const auto& c = a.counts;
  const auto& d = b.counts;
  bad += c.vanished != d.vanished || c.ona != d.ona ||
         c.wrong_output != d.wrong_output || c.pex != d.pex ||
         c.crashed != d.crashed;
  bad += a.slopes != b.slopes;
  bad += a.max_contaminated_pct != b.max_contaminated_pct;
  bad += a.recovered_trials != b.recovered_trials ||
         a.total_rollbacks != b.total_rollbacks ||
         a.total_wasted_cycles != b.total_wasted_cycles;
  bad += a.total_msg_injected != b.total_msg_injected ||
         a.total_headers_quarantined != b.total_headers_quarantined ||
         a.total_header_records_quarantined !=
             b.total_header_records_quarantined;
  bad += a.pruned_trials != b.pruned_trials ||
         a.deduped_trials != b.deduped_trials;
  return bad;
}

std::vector<std::size_t> oracle_sample(std::uint64_t seed, std::size_t trials,
                                       std::size_t count) {
  count = std::min(count, trials);
  // Partial Fisher-Yates over the index range, driven by the run's seed.
  std::vector<std::size_t> idx(trials);
  for (std::size_t i = 0; i < trials; ++i) idx[i] = i;
  fprop::SplitMix64 rng(seed ^ 0x6f7261636c65ull);  // "oracle"
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next() % (trials - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::size_t oracle_failures(const fprop::harness::AppHarness& harness,
                            const fprop::harness::CampaignPlan& plan,
                            const std::vector<TrialResult>& slots,
                            const std::vector<std::size_t>& sample,
                            std::size_t jobs, std::string* first_mismatch,
                            Tracer* tracer, std::int64_t parent) {
  fprop::harness::TrialOptions reference;
  reference.warm_start = false;
  reference.exec_tier = fprop::vm::ExecTier::Interp;
  reference.prune = false;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::mutex mu;
  std::string first;  // guarded by mu
  auto note = [&](std::size_t trial, const std::string& what) {
    failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (first.empty()) first = "trial " + std::to_string(trial) + ": " + what;
  };
  auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < sample.size();
         k = next.fetch_add(1)) {
      const std::size_t i = sample[k];
      try {
        if (i >= slots.size() || i >= plan.plans.size()) {
          note(i, "index outside the campaign");
          continue;
        }
        std::optional<ScopedSpan> span;
        if (tracer != nullptr) span.emplace(*tracer, "harness.run_trial", parent, i);
        const TrialResult ref = harness.run_trial(plan.plans[i], reference);
        span.reset();
        const auto diff = trial_mismatches(slots[i], ref);
        if (!diff.empty()) {
          std::string fields;
          for (const auto& f : diff) fields += (fields.empty() ? "" : ",") + f;
          note(i, "differs from the reference path in " + fields);
        }
      } catch (const std::exception& e) {
        note(i, std::string("reference trial threw: ") + e.what());
      }
    }
  };
  std::vector<std::thread> pool;
  const std::size_t n = std::max<std::size_t>(1, std::min(jobs, sample.size()));
  for (std::size_t w = 1; w < n; ++w) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (first_mismatch != nullptr) *first_mismatch = first;
  return failures.load();
}

namespace {

std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

const char* const kTableLabels[5] = {"(V):", "(ONA):", "(WO):", "(PEX):",
                                     "(C):"};

}  // namespace

CoordTable coord_table(const CampaignResult& r) {
  const auto& c = r.counts;
  CoordTable t;
  t.trials = std::to_string(c.total());
  t.pct[0] = fmt_pct(c.pct(c.vanished));
  t.pct[1] = fmt_pct(c.pct(c.ona));
  t.pct[2] = fmt_pct(c.pct(c.wrong_output));
  t.pct[3] = fmt_pct(c.pct(c.pex));
  t.pct[4] = fmt_pct(c.pct(c.crashed));
  t.pruned = std::to_string(r.pruned_trials);
  t.deduped = std::to_string(r.deduped_trials);
  return t;
}

std::optional<CoordTable> parse_coord_table(const std::string& out) {
  // Token after `key` (leading blanks skipped) up to a blank or `stop`.
  auto token_after = [&](std::size_t from, const std::string& key,
                         char stop) -> std::optional<std::pair<std::string, std::size_t>> {
    const std::size_t at = out.find(key, from);
    if (at == std::string::npos) return std::nullopt;
    std::size_t p = at + key.size();
    while (p < out.size() && out[p] == ' ') ++p;
    std::size_t q = p;
    while (q < out.size() && out[q] != ' ' && out[q] != stop && out[q] != '\n') {
      ++q;
    }
    if (q == p) return std::nullopt;
    return std::make_pair(out.substr(p, q - p), q);
  };
  CoordTable t;
  auto n = token_after(0, "outcomes over ", ' ');
  if (!n) return std::nullopt;
  t.trials = n->first;
  std::size_t pos = n->second;
  for (int k = 0; k < 5; ++k) {
    auto v = token_after(pos, kTableLabels[k], '%');
    if (!v) return std::nullopt;
    t.pct[k] = v->first;
    pos = v->second;
  }
  auto pruned = token_after(pos, "trial economy:", ' ');
  if (!pruned) return std::nullopt;
  auto deduped = token_after(pruned->second, "pruned,", ' ');
  if (!deduped) return std::nullopt;
  t.pruned = pruned->first;
  t.deduped = deduped->first;
  return t;
}

// --- output -------------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw fprop::Error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    // Appended piecewise: GCC 12 -O3 raises a false -Wrestrict on
    // "literal" + std::string chains.
    out += '"';
    out += json_escape(name);
    out += "\": {\"value\": ";
    out += json_number(m.value);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}";
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": ";
  out += metrics_json(metrics);
  out += "}";
  return out;
}

}  // namespace perfbench
