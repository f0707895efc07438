// tm_bench — the repository benchmark program.
//
// Four workloads drive the library's public entry points (README.md says
// why each was chosen):
//
//   serve_light  rpc::Server/rpc::Client Select over a small testbed chain;
//                the rpc layer is a third of every round trip.
//   serve_heavy  the same daemon over a long ring history and a strict
//                requirement; the core ladder dominates server time.
//   paper_synth  TM_P (ProgressiveSelector) over the paper's synthetic
//                dataset read through a chained analysis::EpochChain view.
//   spend_mine   the write path: node::Wallet::Spend then Node::MineBlock.
//
//   tm_bench --workload NAME|all [--seed N] [--seconds S] [--trace PATH]
//            [--smoke 1] [--work-dir DIR]
//
// Inputs derive from --seed. The serve chain and paper_synth's datasets
// and targets are fixed fixtures; there the seed orders the requests and
// seeds the selectors. The process runs pinned to one CPU, and end-to-end
// times are its CPU time scaled by a reference kernel's speed (CpuNanos,
// SpeedProbe). An untraced run prints the end-to-end metrics; a run with
// --trace PATH also records spans around every call into a layer
// (trace.h), writes them to PATH as Chrome trace-event JSON and prints the
// per-layer metrics derived from them. Metric lines go to
// stdout as "metric <name> <value> <unit>", digests as "digest <name>
// <sha256>", and the last stdout line is one JSON object with the checks,
// digests and metrics. The exit code is 0 only when every correctness check
// passed, including the digests pinned in digests.txt.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/diversity.h"
#include "analysis/epoch_chain.h"
#include "chain/types.h"
#include "common/macros.h"
#include "common/strings.h"
#include "core/modules.h"
#include "core/progressive.h"
#include "core/resilient.h"
#include "crypto/keys.h"
#include "crypto/lsag.h"
#include "crypto/sha256.h"
#include "data/synthetic.h"
#include "node/node.h"
#include "node/snapshot.h"
#include "node/wallet.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/testbed.h"
#include "trace.h"

namespace tokenmagic::bench {
namespace {

using common::StrFormat;

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json names exactly these; run.py and the smoke
// test fail when the two disagree.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"ring_size_mean", "tokens"},
    {"unrelaxed_fraction", "fraction"},
    {"ok_fraction", "fraction"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload never calls reports 0 (README.md, "Per-layer metrics").
constexpr MetricDef kPerLayer[] = {
    {"rpc.server_us.p50", "us"},
    {"rpc.server_us.p99", "us"},
    {"rpc.server_us.mean", "us"},
    {"rpc.overhead_us.p50", "us"},
    {"rpc.overhead_us.p99", "us"},
    {"rpc.queue_wait_us.p50", "us"},
    {"rpc.queue_wait_us.p99", "us"},
    {"rpc.shed", "count"},
    {"rpc.decode_errors", "count"},
    {"rpc.write_failures", "count"},
    {"rpc.testbed_build_s", "s"},
    {"analysis.snapshot_acquire_us.p50", "us"},
    {"analysis.snapshot_acquire_us.mean", "us"},
    {"analysis.snapshot_cold_fraction", "fraction"},
    {"analysis.epoch_append_ms", "ms"},
    {"analysis.diversity_check_us.p50", "us"},
    {"core.select_us.p50", "us"},
    {"core.select_us.p99", "us"},
    {"core.select_us.mean", "us"},
    {"core.module_universe_us.p50", "us"},
    {"core.module_builds_per_select", "count"},
    {"core.stage_us.TM_B", "us"},
    {"core.stage_us.TM_P", "us"},
    {"core.stage_us.TM_S", "us"},
    {"core.stage_share.TM_B", "fraction"},
    {"core.stage_share.TM_P", "fraction"},
    {"core.stage_share.TM_S", "fraction"},
    {"core.relaxation_steps.mean", "count"},
    {"node.spend_us.mean", "us"},
    {"node.mine_ms.p50", "ms"},
    {"node.mine_ms.p99", "ms"},
    {"node.commit_ratio", "fraction"},
    {"node.mine_rejected", "count"},
    {"crypto.lsag_sign_us.p50", "us"},
    {"crypto.lsag_sign_us.mean", "us"},
    {"crypto.lsag_verify_us.p50", "us"},
    {"crypto.lsag_verify_us.mean", "us"},
    {"data.dataset_gen_ms", "ms"},
    {"trace.overhead_fraction", "fraction"},
};

constexpr const char* kStages[] = {"TM_B", "TM_P", "TM_S"};
constexpr const char* kStageSpans[] = {"stage.TM_B", "stage.TM_P",
                                       "stage.TM_S"};

/// Traced runs alternate untraced and traced time slices of this length so
/// both phases see the same chain state and machine load; the ratio of
/// their throughputs is the tracing overhead.
constexpr int64_t kTraceSliceNs = 200'000'000;

constexpr size_t kTraceCapacity = size_t{1} << 20;

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Log-linear latency histogram over nanoseconds: values below 2^kSubBits
/// are exact, larger ones fall in 2^kSubBits buckets per power of two
/// (< 0.4% wide). Fixed size, so memory does not grow with the op count
/// and peak RSS does not depend on throughput (common::Histogram keeps one
/// entry per distinct value, which at nanosecond resolution grows with
/// every op).
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr size_t kSub = size_t{1} << kSubBits;

  void Add(int64_t ns) {
    uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    ++counts_[Bucket(v)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// p in [0, 100]; interpolates linearly inside the bucket holding rank
  /// p/100 * count.
  double PercentileNs(double p) const {
    if (count_ == 0) return 0.0;
    double rank = p / 100.0 * static_cast<double>(count_);
    double before = 0.0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      double n = static_cast<double>(counts_[b]);
      if (rank <= before + n) {
        double low = static_cast<double>(BucketLow(b));
        double width = static_cast<double>(BucketWidth(b));
        return low + width * (rank - before) / n;
      }
      before += n;
    }
    return static_cast<double>(BucketLow(counts_.size() - 1));
  }

 private:
  static size_t Bucket(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int e = 63 - __builtin_clzll(v);
    size_t sub = static_cast<size_t>(v >> (e - kSubBits)) - kSub;
    return static_cast<size_t>(e - kSubBits + 1) * kSub + sub;
  }
  static uint64_t BucketLow(size_t b) {
    if (b < kSub) return b;
    int e = static_cast<int>(b / kSub) + kSubBits - 1;
    return (kSub + b % kSub) << (e - kSubBits);
  }
  static uint64_t BucketWidth(size_t b) {
    if (b < kSub) return 1;
    int e = static_cast<int>(b / kSub) + kSubBits - 1;
    return uint64_t{1} << (e - kSubBits);
  }

  std::array<uint64_t, (64 - kSubBits + 1) * kSub> counts_{};
  uint64_t count_ = 0;
};

/// Linearly interpolated percentile (R type 7) of `values`.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double h = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(h));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Percentile of whole-microsecond readings that truncate a continuous
/// time (Response::server_micros): each integer's samples are spread evenly
/// over [v, v + 1), the grouped-data estimate.
double TruncatedPercentile(std::vector<int64_t> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size());
  size_t index = std::min(static_cast<size_t>(rank), values.size() - 1);
  int64_t v = values[index];
  auto lo = std::lower_bound(values.begin(), values.end(), v) - values.begin();
  auto hi = std::upper_bound(values.begin(), values.end(), v) - values.begin();
  return static_cast<double>(v) +
         (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Durations of the named spans in units of `unit_ns` nanoseconds.
std::vector<double> SpanTimes(const Tracer& tracer, Layer layer,
                              const char* name, double unit_ns) {
  std::vector<double> out;
  for (int64_t ns : tracer.Durations(layer, name)) {
    out.push_back(static_cast<double>(ns) / unit_ns);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Throughput ratio of traced to untraced ops, from per-phase op counts
/// and busy time; the overhead is what tracing took away.
struct PhaseClock {
  uint64_t ops[2] = {0, 0};
  int64_t busy_ns[2] = {0, 0};

  static bool Traced(const Tracer* tracer, int64_t since_start_ns) {
    return tracer != nullptr && (since_start_ns / kTraceSliceNs) % 2 == 1;
  }
  void Add(bool traced, int64_t ns, uint64_t ok_ops) {
    ops[traced ? 1 : 0] += ok_ops;
    busy_ns[traced ? 1 : 0] += ns;
  }
  void Merge(const PhaseClock& other) {
    for (int i = 0; i < 2; ++i) {
      ops[i] += other.ops[i];
      busy_ns[i] += other.busy_ns[i];
    }
  }
  double OverheadFraction() const {
    if (ops[0] == 0 || ops[1] == 0 || busy_ns[0] == 0 || busy_ns[1] == 0) {
      return 0.0;
    }
    double untraced = static_cast<double>(ops[0]) / Seconds(busy_ns[0]);
    double traced = static_cast<double>(ops[1]) / Seconds(busy_ns[1]);
    return 1.0 - traced / untraced;
  }
};

/// CPU time of the whole process (every thread), in nanoseconds: the clock
/// of every end-to-end time. The benchmark shares its CPUs with other
/// tenants, so wall time also counts the waits for a CPU their load causes;
/// CPU time counts only the work this process does.
int64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Pins the process to the CPU it is running on, before it starts any
/// thread (threads inherit the mask). The serve workloads' client, reader
/// and worker threads then hand each request to one another on one CPU
/// instead of waking a thread on another one, which on a shared host costs
/// whatever the other tenants' load makes it cost; and SpeedProbe measures
/// the CPU the workload runs on. Returns the CPU, or -1 when pinning failed
/// (the run then measures unpinned).
int PinToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

/// Machine speed, from a reference kernel. Other tenants' load also changes
/// how much work a CPU second does: this machine switches between a fast
/// and a slow state (1.4x apart for pure arithmetic, 1.2-1.6x for the
/// workloads) for seconds to minutes at a time. So every run also times
/// this fixed kernel, in short slices between the workload's ops on the
/// same CPU and right before each set-up, and scales each measured time by
/// the kernel's current speed relative to its nominal rate. The kernel
/// belongs to the benchmark and calls nothing in the library, so a change
/// to the library cannot move it. It stays in cache: a version that also
/// chased pointers through a 4 MiB table read the memory system's load as
/// well, and scaled by it the spread between runs grew instead of
/// shrinking.
class SpeedProbe {
 public:
  /// Only a scale: at this rate times are reported as measured. The kernel
  /// ran 550,000-720,000 units per CPU second on a 4-vCPU Intel Xeon VM at
  /// 2.1 GHz.
  static constexpr double kNominalUnitsPerSecond = 600'000.0;
  static constexpr int64_t kSliceNs = 10'000'000;
  /// Measured time between slices, so the probe adds a tenth to a run.
  static constexpr int64_t kEveryNs = 100'000'000;

  SpeedProbe() {
    for (uint64_t i = 0; i < kSetSize; ++i) set_.insert(i * kGolden);
  }

  /// Runs one slice when `measured_ns` of loop time has passed since the
  /// last one (and at 0).
  void MaybeSlice(int64_t measured_ns) {
    if (measured_ns < next_ns_) return;
    next_ns_ = measured_ns + kEveryNs;
    Slice();
  }

  /// Runs one slice now (before a set-up, which is not in measured time).
  void Slice() {
    const int64_t t0 = CpuNanos();
    uint64_t units = 0;
    int64_t t1 = t0;
    while (t1 - t0 < kSliceNs) {
      Unit();
      ++units;
      t1 = CpuNanos();
    }
    asm volatile("" : : "r"(sink_));  // keep the kernel's work
    speeds_.push_back(static_cast<double>(units) / Seconds(t1 - t0) /
                      kNominalUnitsPerSecond);
  }

  /// Median speed of the run's slices relative to nominal (1 when none
  /// ran). A time measured at speed s reads as time * s.
  double Speed() const { return speeds_.empty() ? 1.0 : Median(speeds_); }

  /// Median speed of the last kRecent slices (1 when none ran): the speed
  /// to scale the op just measured by. The machine changes state within a
  /// run too, for seconds at a time.
  double Current() const {
    if (speeds_.empty()) return 1.0;
    const size_t n = std::min(speeds_.size(), kRecent);
    return Median(std::vector<double>(speeds_.end() - static_cast<ptrdiff_t>(n),
                                      speeds_.end()));
  }

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  static constexpr uint64_t kSetSize = 4096;
  /// Slices in the current speed: the last half second of measured time.
  static constexpr size_t kRecent = 5;

  uint64_t Mix() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  /// One unit of work: 256-bit products folded modulo 2^256 - 0x1000003D1
  /// (as secp256k1 field multiplication), then hash-set probes and a small
  /// sort (as the selectors' set work).
  void Unit() {
    for (int round = 0; round < 8; ++round) {
      uint64_t wide[8] = {};
      for (int i = 0; i < 4; ++i) {
        unsigned __int128 carry = 0;
        for (int j = 0; j < 4; ++j) {
          carry += static_cast<unsigned __int128>(limbs_[i]) * limbs_[j] +
                   wide[i + j];
          wide[i + j] = static_cast<uint64_t>(carry);
          carry >>= 64;
        }
        wide[i + 4] = static_cast<uint64_t>(carry);
      }
      unsigned __int128 carry = 0;
      for (int i = 0; i < 4; ++i) {
        carry += static_cast<unsigned __int128>(wide[i + 4]) * 0x1000003D1ull +
                 wide[i];
        limbs_[i] = static_cast<uint64_t>(carry) | 1;
        carry >>= 64;
      }
    }
    uint64_t hits = 0;
    for (uint64_t i = 0; i < 32; ++i) {
      hits += set_.count((limbs_[0] + i) % kSetSize * kGolden);
    }
    std::array<uint64_t, 32> small;
    for (uint64_t& v : small) v = Mix();
    std::sort(small.begin(), small.end());
    sink_ += limbs_[1] + hits + small[7];
  }

  std::unordered_set<uint64_t> set_;
  uint64_t limbs_[4] = {0x79be667ef9dcbbacull, 0x55a06295ce870b07ull,
                        0x029bfcdb2dce28d9ull, 0x59f2815b16f81798ull};
  uint64_t state_ = 88172645463325252ull;
  uint64_t sink_ = 0;
  int64_t next_ns_ = 0;
  std::vector<double> speeds_;
};

/// A loop's time budget: `seconds` of measured CPU time, or kWallFactor
/// times that in wall time, whichever ends first, so that a run whose CPU
/// is shared with a busy tenant still ends in time, with fewer samples.
/// Probe slices and checks outside the measured time take about a tenth
/// more, so the cap binds only when other tenants take a CPU share.
class MeasuredTime {
 public:
  static constexpr double kWallFactor = 1.3;

  explicit MeasuredTime(double seconds)
      : measure_ns_(static_cast<int64_t>(seconds * 1e9)),
        wall_stop_ns_(NowNanos() +
                      static_cast<int64_t>(seconds * kWallFactor * 1e9)) {}

  bool Left(int64_t measured_ns) const {
    return measured_ns < measure_ns_ && NowNanos() < wall_stop_ns_;
  }

 private:
  int64_t measure_ns_;
  int64_t wall_stop_ns_;
};

/// End-to-end timing over the measured interval, cut into equal windows.
/// Throughput and latency percentiles are medians over the windows, so
/// interference from outside the benchmark that hits one window moves one
/// sample instead of the result. That needs a steady workload; one whose
/// cost changes along the run (spend_mine) uses a single window. The time
/// axis is the loop's measured CPU time, which leaves out set-up, probe
/// slices and shadow calls. Every time is kept as measured and scaled by
/// the probe speed current when it was measured.
class WindowedMeter {
 public:
  static constexpr size_t kSteadyWindows = 10;

  WindowedMeter(double seconds, size_t windows)
      : window_ns_(std::max<int64_t>(
            static_cast<int64_t>(seconds * 1e9 / static_cast<double>(windows)),
            1)),
        windows_(windows) {}

  /// One op that started `since_start_ns` into the measured time and took
  /// `latency_ns` at probe speed `speed`.
  void AddLatency(int64_t since_start_ns, int64_t latency_ns, double speed) {
    Window& w = At(since_start_ns);
    w.latency[0].Add(latency_ns);
    w.latency[1].Add(std::llround(static_cast<double>(latency_ns) * speed));
  }

  /// Loop time from `since_start_ns` on: `busy_ns` of it (ops plus
  /// bookkeeping) at probe speed `speed`, in which `ok` ops completed.
  void AddBusy(int64_t since_start_ns, int64_t busy_ns, uint64_t ok,
               double speed) {
    Window& w = At(since_start_ns);
    w.busy_ns[0] += static_cast<double>(busy_ns);
    w.busy_ns[1] += static_cast<double>(busy_ns) * speed;
    w.ok += ok;
  }

  /// Median over windows of successful ops per second of loop time.
  double OpsPerSecond(bool scaled) const {
    std::vector<double> rates;
    for (const Window& w : windows_) {
      if (w.busy_ns[scaled] == 0.0) continue;
      rates.push_back(static_cast<double>(w.ok) / (w.busy_ns[scaled] / 1e9));
    }
    return Median(rates);
  }

  /// Median of the windows' p-th percentiles when every window holds ten
  /// samples beyond it; otherwise the p-th percentile of the whole run.
  double PercentileUs(double p, bool scaled) const {
    std::vector<double> per_window;
    LatencyHistogram pooled;
    bool windows_suffice = true;
    for (const Window& w : windows_) {
      const LatencyHistogram& latency = w.latency[scaled];
      double beyond = static_cast<double>(latency.count()) * (1 - p / 100);
      windows_suffice = windows_suffice && beyond >= 10.0;
      per_window.push_back(latency.PercentileNs(p) / 1e3);
      pooled.Merge(latency);
    }
    return windows_suffice ? Median(per_window) : pooled.PercentileNs(p) / 1e3;
  }

 private:
  /// [0] as measured, [1] scaled.
  struct Window {
    LatencyHistogram latency[2];
    double busy_ns[2] = {0.0, 0.0};
    uint64_t ok = 0;
  };
  Window& At(int64_t since_start_ns) {
    return windows_[std::min<size_t>(
        static_cast<size_t>(std::max<int64_t>(since_start_ns, 0) / window_ns_),
        windows_.size() - 1)];
  }
  int64_t window_ns_;
  std::vector<Window> windows_;
};

// ---------------------------------------------------------------------------
// Report: metrics, checks and digests of one workload run.
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  std::string trace_path;
  std::string work_dir = ".";
  bool smoke = false;

  bool traced() const { return !trace_path.empty(); }
  const char* scale() const { return smoke ? "smoke" : "full"; }
};

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Value(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Notes how far the per-layer means of `parts` add up to `whole`'s.
  void NoteLayerSum(const std::vector<std::string>& parts,
                    const std::string& whole) {
    double sum = 0.0;
    for (const std::string& part : parts) sum += Value(part);
    double total = Value(whole);
    Note("layer_sum", StrFormat("sum of %zu layer means / %s = %.3f",
                                parts.size(), whole.c_str(),
                                total > 0.0 ? sum / total : 0.0));
  }

  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  /// Informational line (never affects correctness).
  void Note(const std::string& name, const std::string& text) {
    notes_.push_back({name, text});
  }
  /// A digest of what the run computed from inputs made with `seed`.
  void Digest(const std::string& name, const std::string& hex,
              uint64_t seed) {
    digests_.push_back({name, hex, seed});
  }

  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const CheckResult& c) { return c.ok; });
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Compares each digest against the value pinned in `path` for this
  /// workload, scale and the digest's seed. A digest with no pinned value
  /// is noted, not checked.
  void CheckPinned(const Options& options, const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      Check("digests_readable", false, "cannot open " + path);
      return;
    }
    std::map<std::pair<std::string, std::string>, std::string> pinned;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string workload, scale, seed, name, hex;
      if (!(fields >> workload >> scale >> seed >> name >> hex)) continue;
      if (workload == options.workload && scale == options.scale()) {
        pinned[{seed, name}] = hex;
      }
    }
    for (const DigestValue& digest : digests_) {
      std::string seed = std::to_string(digest.seed);
      auto it = pinned.find({seed, digest.name});
      if (it == pinned.end()) {
        Note("unpinned_" + digest.name, "no value pinned for seed " + seed);
        continue;
      }
      Check("pinned_" + digest.name, it->second == digest.hex,
            it->second == digest.hex
                ? "matches seed " + seed
                : "seed " + seed + " pinned " + it->second + ", got " +
                      digest.hex);
    }
  }

  /// Prints every metric of `catalogue` (missing ones as 0), the checks,
  /// and the final JSON line.
  void Print(const Options& options,
             std::span<const MetricDef> catalogue) const {
    std::printf("workload %s seed %llu scale %s %s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.scale(), options.traced() ? "traced" : "untraced");
    std::string metrics;
    for (const MetricDef& def : catalogue) {
      double value = Value(def.name);
      std::printf("metric %s %.12g %s\n", def.name, value, def.unit);
      metrics += StrFormat("%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}",
                           metrics.empty() ? "" : ",", def.name, value,
                           def.unit);
    }
    std::string checks;
    for (const CheckResult& c : checks_) {
      std::printf("check %s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                  c.detail.c_str());
      checks += StrFormat("%s\"%s\":{\"ok\":%s,\"detail\":\"%s\"}",
                          checks.empty() ? "" : ",", c.name.c_str(),
                          c.ok ? "true" : "false",
                          JsonEscape(c.detail).c_str());
    }
    std::string notes;
    for (const auto& [name, text] : notes_) {
      std::printf("note %s %s\n", name.c_str(), text.c_str());
      notes += StrFormat("%s\"%s\":\"%s\"", notes.empty() ? "" : ",",
                         name.c_str(), JsonEscape(text).c_str());
    }
    std::string digests;
    for (const DigestValue& digest : digests_) {
      std::printf("digest %s %s\n", digest.name.c_str(), digest.hex.c_str());
      digests += StrFormat("%s\"%s\":\"%s\"", digests.empty() ? "" : ",",
                           digest.name.c_str(), digest.hex.c_str());
    }
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"scale\":\"%s\",\"traced\":%s,"
        "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"checks\":{%s},\"notes\":{%s},\"digests\":{%s},\"metrics\":{%s}}\n",
        options.workload.c_str(),
        static_cast<unsigned long long>(options.seed), options.scale(),
        options.traced() ? "true" : "false", correct() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), checks.c_str(),
        notes.c_str(), digests.c_str(), metrics.c_str());
    std::fflush(stdout);
  }

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  struct DigestValue {
    std::string name;
    std::string hex;
    uint64_t seed;
  };
  std::map<std::string, double> values_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<DigestValue> digests_;
};

/// A run's set-up times (CPU seconds), each as measured and scaled by the
/// probe speed of a slice taken right before it.
struct SetupTimes {
  std::vector<double> raw;
  std::vector<double> scaled;

  /// Times `set_up()` and records it.
  template <typename SetUp>
  void Time(SpeedProbe* probe, SetUp&& set_up) {
    probe->Slice();
    const int64_t t0 = CpuNanos();
    set_up();
    const double seconds = Seconds(CpuNanos() - t0);
    raw.push_back(seconds);
    scaled.push_back(seconds * probe->Current());
  }
};

/// Sets every end-to-end metric. Times are CPU times (CpuNanos) scaled by
/// the probe speed when they were measured. `ok` ops are the successful
/// ones out of `attempted`; `unrelaxed` of them meet the requested
/// requirement, and their rings hold `ring_tokens` tokens in total.
void SetEndToEnd(Report* report, const SetupTimes& setup,
                 const WindowedMeter& meter, const SpeedProbe& probe,
                 uint64_t attempted, uint64_t ok, uint64_t unrelaxed,
                 double ring_tokens) {
  report->Note("unscaled",
               StrFormat("speed %.6g setup_s %.6g ops_per_s %.6g "
                         "latency_p50_us %.6g latency_p99_us %.6g",
                         probe.Speed(), Median(setup.raw),
                         meter.OpsPerSecond(false),
                         meter.PercentileUs(50.0, false),
                         meter.PercentileUs(99.0, false)));
  double ok_ops = static_cast<double>(std::max<uint64_t>(ok, 1));
  report->attempted = attempted;
  report->failed = attempted - ok;
  report->Set("setup_s", Median(setup.scaled));
  report->Set("ops_per_s", meter.OpsPerSecond(true));
  report->Set("latency_p50_us", meter.PercentileUs(50.0, true));
  report->Set("latency_p99_us", meter.PercentileUs(99.0, true));
  report->Set("ring_size_mean", ring_tokens / ok_ops);
  report->Set("unrelaxed_fraction", static_cast<double>(unrelaxed) / ok_ops);
  report->Set("ok_fraction",
              static_cast<double>(ok) /
                  static_cast<double>(std::max<uint64_t>(attempted, 1)));
  report->Set("peak_rss_mb", PeakRssMb());
}

void SetDistribution(Report* report, const std::string& prefix,
                     const std::vector<double>& values, bool p99,
                     bool mean) {
  report->Set(prefix + ".p50", Percentile(values, 50.0));
  if (p99) report->Set(prefix + ".p99", Percentile(values, 99.0));
  if (mean) report->Set(prefix + ".mean", Mean(values));
}

/// Ring checks shared by every workload: sorted, unique, contains the
/// target, drawn from the target's mixin universe, and recursively
/// (c, ℓ)-diverse at `requirement`.
std::string RingProblem(const std::vector<chain::TokenId>& members,
                        chain::TokenId target,
                        std::span<const chain::TokenId> universe,
                        const chain::HtIndex& index,
                        const chain::DiversityRequirement& requirement) {
  if (members.empty()) return "empty ring";
  for (size_t i = 1; i < members.size(); ++i) {
    if (members[i - 1] >= members[i]) return "ring not sorted and unique";
  }
  if (!std::binary_search(members.begin(), members.end(), target)) {
    return "ring misses its target";
  }
  std::unordered_set<chain::TokenId> allowed(universe.begin(), universe.end());
  for (chain::TokenId member : members) {
    if (allowed.count(member) == 0) return "member outside the mixin universe";
  }
  if (!analysis::SatisfiesRecursiveDiversity(members, index, requirement)) {
    return "ring fails " + requirement.ToString();
  }
  return "";
}

void HashRing(crypto::Sha256* hasher,
              const std::vector<chain::TokenId>& members) {
  std::string text;
  for (chain::TokenId member : members) {
    text += StrFormat("%llu,", static_cast<unsigned long long>(member));
  }
  text += ";";
  hasher->Update(text);
}

std::string HexOf(const crypto::Sha256::Digest& digest) {
  return common::HexEncode(digest.data(), digest.size());
}

// ---------------------------------------------------------------------------
// Ladder probe: one resilient selection with a span per layer call. Serves
// the serve workloads' replay and spend_mine's shadow selection.
// ---------------------------------------------------------------------------

struct ProbeStats {
  uint64_t acquires = 0;
  uint64_t cold_acquires = 0;
  uint64_t selects = 0;
  uint64_t ok = 0;
  uint64_t module_builds = 0;
  uint64_t relaxation_steps = 0;
  uint64_t stage_wins[3] = {0, 0, 0};
  double stage_seconds[3] = {0.0, 0.0, 0.0};
  /// Last snapshot seen per batch; held so its address cannot be reused
  /// by a later snapshot and mistaken for a warm acquire.
  std::unordered_map<size_t, std::shared_ptr<const void>> last_snapshot;

  void Publish(Report* report) const {
    double n = static_cast<double>(std::max<uint64_t>(selects, 1));
    double won = static_cast<double>(std::max<uint64_t>(ok, 1));
    report->Set("analysis.snapshot_cold_fraction",
                acquires == 0 ? 0.0
                              : static_cast<double>(cold_acquires) /
                                    static_cast<double>(acquires));
    report->Set("core.module_builds_per_select",
                static_cast<double>(module_builds) / n);
    report->Set("core.relaxation_steps.mean",
                static_cast<double>(relaxation_steps) / won);
    for (size_t s = 0; s < 3; ++s) {
      report->Set(StrFormat("core.stage_us.%s", kStages[s]),
                  stage_seconds[s] * 1e6 / n);
      report->Set(StrFormat("core.stage_share.%s", kStages[s]),
                  static_cast<double>(stage_wins[s]) / won);
    }
  }
};

int StageIndex(const std::string& stage) {
  for (int s = 0; s < 3; ++s) {
    if (stage == kStages[s]) return s;
  }
  return -1;
}

/// Runs the resilient ladder for `target` on the node's current snapshot,
/// exactly as rpc::Server::ProcessSelect and Wallet::BuildSpend set it up,
/// plus shadow ModuleUniverse::Build and diversity-check calls. Returns the
/// ring (empty on failure).
std::vector<chain::TokenId> ProbeSelection(
    Tracer* tracer, uint64_t request, const node::Node& node,
    chain::TokenId target, chain::DiversityRequirement requirement,
    const core::ResilientSelector& ladder, double request_budget_s,
    common::Rng* rng, ProbeStats* stats) {
  const core::Batch& batch = node.batches().BatchOfToken(target);
  std::shared_ptr<const node::Node::BatchAnalysisSnapshot> snapshot;
  {
    ScopedSpan span(tracer, 0, request, Layer::kAnalysis, "snapshot_acquire");
    snapshot = node.AnalysisSnapshotShared(batch.index);
  }
  ++stats->acquires;
  std::shared_ptr<const void>& last = stats->last_snapshot[batch.index];
  if (last != snapshot) ++stats->cold_acquires;
  last = snapshot;

  common::Deadline deadline(request_budget_s);
  core::SelectionInput input;
  input.target = target;
  input.universe = node.batches().MixinUniverse(target);
  input.requirement = requirement;
  input.index = &node.ht_index();
  input.deadline = request_budget_s > 0.0 ? &deadline : nullptr;
  input.history = snapshot->history;
  input.context = &snapshot->context;
  input.owner = snapshot;

  ++stats->selects;
  int64_t start = NowNanos();
  auto selected = ladder.SelectWithReport(input, rng);
  int64_t end = NowNanos();
  uint32_t select_id = tracer == nullptr
                           ? 0
                           : tracer->Record(0, request, Layer::kCore,
                                            "select", start, end);
  std::vector<chain::TokenId> ring;
  if (selected.ok()) {
    const core::DegradationReport& report = selected->report;
    int64_t cursor = start;
    for (const core::StageAttempt& attempt : report.attempts) {
      int s = StageIndex(attempt.stage);
      if (attempt.stage != "TM_B") ++stats->module_builds;
      if (s < 0) continue;
      stats->stage_seconds[s] += attempt.seconds_spent;
      int64_t stage_end =
          cursor + static_cast<int64_t>(attempt.seconds_spent * 1e9);
      if (tracer != nullptr) {
        tracer->Record(select_id, request, Layer::kCore, kStageSpans[s],
                       cursor, stage_end);
      }
      cursor = stage_end;
    }
    ++stats->ok;
    int s = StageIndex(report.stage);
    if (s >= 0) ++stats->stage_wins[s];
    if (!report.attempts.empty()) {
      stats->relaxation_steps += static_cast<uint64_t>(
          std::max(report.attempts.back().relaxation_steps, 0));
    }
    ring = selected->result.members;
    ScopedSpan span(tracer, 0, request, Layer::kAnalysis, "diversity_check");
    (void)analysis::SatisfiesRecursiveDiversity(
        ring, node.ht_index(), report.satisfied_requirement);
  }
  {
    ScopedSpan span(tracer, 0, request, Layer::kCore, "module_universe");
    (void)core::ModuleUniverse::Build(input.universe, input.history,
                                      *input.context);
  }
  return ring;
}

void PublishProbeSpans(const Tracer& tracer, Report* report) {
  std::vector<double> acquire =
      SpanTimes(tracer, Layer::kAnalysis, "snapshot_acquire", 1e3);
  SetDistribution(report, "analysis.snapshot_acquire_us", acquire, false,
                  true);
  SetDistribution(report, "core.select_us",
                  SpanTimes(tracer, Layer::kCore, "select", 1e3), true,
                  true);
  report->Set("core.module_universe_us.p50",
              Percentile(SpanTimes(tracer, Layer::kCore, "module_universe", 1e3),
                         50.0));
  report->Set("analysis.diversity_check_us.p50",
              Percentile(SpanTimes(tracer, Layer::kAnalysis, "diversity_check", 1e3),
                         50.0));
}

/// Reads the number following `"key":` after `scope` in a flat Stats JSON.
double StatsNumber(const std::string& json, const std::string& scope,
                   const std::string& key) {
  size_t at = scope.empty() ? 0 : json.find("\"" + scope + "\"");
  if (at == std::string::npos) return -1.0;
  at = json.find("\"" + key + "\":", at);
  if (at == std::string::npos) return -1.0;
  return std::atof(json.c_str() + at + key.size() + 3);
}

// ---------------------------------------------------------------------------
// serve_light / serve_heavy
// ---------------------------------------------------------------------------

struct ServeParams {
  rpc::TestbedConfig testbed;
  chain::DiversityRequirement requirement;
  /// Untimed load before measuring, long enough for the first measured
  /// window to run at the steady rate.
  double warmup_seconds = 1.0;
  /// Testbed builds per run; setup_s is their median.
  int setup_reps = 3;
  /// Target only the genesis batch's tokens instead of every token.
  bool genesis_batch_only = false;
  /// A traced run replays every this-many-th traced request: 6,000-10,000
  /// replays (about 6 spans each) spread over the run.
  uint64_t replay_every = 4;
};

constexpr uint64_t kServeFixtureSeed = 42;
constexpr uint32_t kServeDeadlineMillis = 250;

/// The serve request stream: every target once per cycle, in an order
/// shuffled by the seed, so every run asks for the same mix of targets and
/// the seed changes only their order.
class ServeOrder {
 public:
  ServeOrder(uint64_t seed, std::vector<chain::TokenId> targets)
      : order_(std::move(targets)) {
    common::Rng rng(seed);
    for (size_t k = order_.size(); k > 1; --k) {
      std::swap(order_[k - 1], order_[rng.NextBounded(k)]);
    }
  }

  chain::TokenId Target(uint64_t i) const {
    return order_[i % order_.size()];
  }

 private:
  std::vector<chain::TokenId> order_;
};

struct ServedRing {
  chain::TokenId target = 0;
  chain::DiversityRequirement satisfied;
  std::vector<chain::TokenId> members;
};

/// What the serve client's loop saw.
struct ServeTally {
  explicit ServeTally(double seconds)
      : meter(seconds, WindowedMeter::kSteadyWindows) {}

  WindowedMeter meter;
  SpeedProbe speed;
  PhaseClock phases;
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t typed_failures = 0;
  uint64_t untyped = 0;
  uint64_t relaxed = 0;
  uint64_t warmup_ok = 0;
  double ring_size_sum = 0.0;
  /// Distinct (target, satisfied, ring) answers; every one is re-checked
  /// after the timed loop.
  std::unordered_map<uint64_t, ServedRing> distinct;
  std::string error;
  /// Replays of traced requests (traced runs only).
  ProbeStats replay;
};

uint64_t RingKey(const ServedRing& ring) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(ring.target);
  mix(static_cast<uint64_t>(ring.satisfied.c * 1024.0));
  mix(static_cast<uint64_t>(ring.satisfied.ell));
  for (chain::TokenId member : ring.members) mix(member);
  return h;
}

/// Counts one Select outcome; returns true for an OK ring.
bool TallyResponse(const ServeParams& params, chain::TokenId target,
                   common::Result<rpc::Response> response, ServeTally* out) {
  ++out->issued;
  if (!response.ok()) {
    ++out->typed_failures;  // transport failure after retries
    return false;
  }
  const common::Status& verdict = response->status;
  if (!verdict.ok()) {
    bool typed = verdict.IsTimeout() || verdict.IsResourceExhausted() ||
                 verdict.IsUnsatisfiable() || verdict.IsInvalidArgument() ||
                 verdict.IsCancelled();
    ++(typed ? out->typed_failures : out->untyped);
    return false;
  }
  ++out->ok;
  out->ring_size_sum += static_cast<double>(response->members.size());
  if (!(response->satisfied == params.requirement)) ++out->relaxed;
  ServedRing ring{target, response->satisfied, std::move(response->members)};
  uint64_t key = RingKey(ring);
  if (out->distinct.count(key) == 0) out->distinct.emplace(key, std::move(ring));
  return true;
}

/// The client: one connection in a closed loop, as a wallet waits for its
/// ring before it can sign. A request's latency is the process CPU time
/// from send to reply: client, reader and worker threads together, all on
/// the pinned CPU.
///
/// In a traced run some traced requests are then replayed in process, off
/// the measured time, through the server's default ladder on the same
/// snapshot, so the core and analysis spans that explain the server's time
/// run on the same machine state as the request itself.
void ServeClientLoop(const Options& options, const ServeParams& params,
                     const std::string& socket, const ServeOrder& order,
                     const node::Node& node, Tracer* tracer,
                     ServeTally* out) {
  const core::ResilientSelector ladder;
  common::Rng replay_rng(options.seed ^ 0x5e1ec7ull);
  auto client = rpc::Client::Connect(socket);
  if (!client.ok()) {
    out->error = "connect: " + client.status().ToString();
    return;
  }
  const int64_t warm_until =
      NowNanos() + static_cast<int64_t>(params.warmup_seconds * 1e9);
  uint64_t i = 0;
  for (; NowNanos() < warm_until; ++i) {
    auto response = client->Select(order.Target(i), params.requirement,
                                   kServeDeadlineMillis);
    if (response.ok() && response->status.ok()) ++out->warmup_ok;
  }

  const MeasuredTime budget(options.seconds);
  int64_t measured_ns = 0;
  for (; budget.Left(measured_ns); ++i) {
    out->speed.MaybeSlice(measured_ns);
    const chain::TokenId target = order.Target(i);
    const bool traced = PhaseClock::Traced(tracer, measured_ns);
    const int64_t t0 = CpuNanos();
    const uint32_t span =
        traced ? tracer->Begin(0, RequestId(0, i), Layer::kRpc, "call",
                               NowNanos())
               : 0;
    auto response =
        client->Select(target, params.requirement, kServeDeadlineMillis);
    if (traced) {
      tracer->End(span, NowNanos(),
                  response.ok()
                      ? static_cast<int64_t>(response->server_micros)
                      : -1);
    }
    const int64_t t1 = CpuNanos();
    bool ok = TallyResponse(params, target, std::move(response), out);
    out->phases.Add(traced, t1 - t0, ok ? 1 : 0);
    out->meter.AddLatency(measured_ns, t1 - t0, out->speed.Current());
    const int64_t busy = CpuNanos() - t0;
    out->meter.AddBusy(measured_ns, busy, ok ? 1 : 0, out->speed.Current());
    measured_ns += busy;
    if (traced && i % params.replay_every == 0) {
      // The replay gets its own trace track, after the client's.
      ProbeSelection(tracer, RequestId(1, i), node, target, params.requirement,
                     ladder, kServeDeadlineMillis / 1e3, &replay_rng,
                     &out->replay);
    }
  }
}

void RunServe(const Options& options, const ServeParams& params,
              Tracer* tracer, Report* report) {
  const std::string socket =
      StrFormat("%s/tm_bench_%d.sock", options.work_dir.c_str(),
                static_cast<int>(getpid()));
  rpc::TestbedConfig testbed_config = params.testbed;
  // The chain is a fixed fixture: its structure (which rings landed, how
  // many HTs each batch spans) sets ring sizes and server cost far more
  // than anything else, and one seed's chain can differ from another's by
  // 15% in both. --seed varies the request stream and the server's
  // selection randomness instead.
  testbed_config.seed = kServeFixtureSeed;

  // Set-up: build the testbed chain and start the daemon, several times;
  // the last one is served.
  ServeTally total(options.seconds);
  SetupTimes setup;
  std::unique_ptr<rpc::Testbed> testbed;
  std::unique_ptr<rpc::Server> server;
  common::Status started;
  for (int rep = 0; rep < params.setup_reps && started.ok(); ++rep) {
    server.reset();
    testbed.reset();
    setup.Time(&total.speed, [&] {
      {
        ScopedSpan span(tracer, 0, 0, Layer::kRpc, "testbed_build");
        testbed = std::make_unique<rpc::Testbed>(
            rpc::BuildTestbed(testbed_config));
      }
      rpc::ServerConfig server_config;
      server_config.socket_path = socket;
      server_config.workers = 2;
      server_config.queue_capacity = 64;
      server_config.seed = options.seed;
      server =
          std::make_unique<rpc::Server>(testbed->node.get(), server_config);
      started = server->Start();
    });
  }
  if (!started.ok()) {
    report->Check("server_start", false, started.ToString());
    return;
  }
  const node::Node& node = *testbed->node;
  const uint64_t token_count = node.blockchain().token_count();
  report->Digest("testbed_digest",
                 crypto::Sha256Hex(node::SnapshotToString(node)),
                 kServeFixtureSeed);
  report->Note("testbed", StrFormat("%llu tokens, %zu batches, %zu rings",
                                    static_cast<unsigned long long>(
                                        token_count),
                                    node.batches().batch_count(),
                                    node.ledger().size()));

  // Timed closed loop.
  std::vector<chain::TokenId> targets;
  for (chain::TokenId t = 0; t < token_count; ++t) {
    if (!params.genesis_batch_only ||
        node.batches().BatchOfToken(t).index == 0) {
      targets.push_back(t);
    }
  }
  const ServeOrder order(options.seed, std::move(targets));
  ServeClientLoop(options, params, socket, order, node, tracer, &total);
  if (!total.error.empty()) report->Check("client_connect", false, total.error);

  std::string stats_json;
  {
    auto client = rpc::Client::Connect(socket);
    auto stats = client.ok() ? client->Stats()
                             : common::Result<std::string>(client.status());
    if (stats.ok()) stats_json = *stats;
  }
  server->Stop();
  const std::unordered_map<uint64_t, ServedRing>& distinct = total.distinct;

  // Correctness: every request resolved to a typed verdict, the server's
  // own count agrees, and every distinct ring holds up.
  uint64_t resolved = total.ok + total.typed_failures;
  report->Check("resolved_equals_issued",
                resolved == total.issued && total.untyped == 0,
                StrFormat("issued %llu, resolved %llu, untyped %llu",
                          static_cast<unsigned long long>(total.issued),
                          static_cast<unsigned long long>(resolved),
                          static_cast<unsigned long long>(total.untyped)));
  double server_ok = StatsNumber(stats_json, "", "ok");
  report->Check("server_ok_count",
                server_ok == static_cast<double>(total.ok + total.warmup_ok),
                StrFormat("server ok %.0f, client ok %llu", server_ok,
                          static_cast<unsigned long long>(total.ok +
                                                          total.warmup_ok)));
  uint64_t bad = 0;
  std::string first_problem;
  for (const auto& [key, ring] : distinct) {
    std::string problem = RingProblem(
        ring.members, ring.target, node.batches().MixinUniverse(ring.target),
        node.ht_index(), ring.satisfied);
    if (!problem.empty() && bad++ == 0) first_problem = problem;
  }
  report->Check("rings_valid", bad == 0,
                StrFormat("%zu distinct rings, %llu invalid%s%s",
                          distinct.size(),
                          static_cast<unsigned long long>(bad),
                          bad == 0 ? "" : ": ", first_problem.c_str()));

  SetEndToEnd(report, setup, total.meter, total.speed, total.issued,
              total.ok, total.ok - total.relaxed, total.ring_size_sum);
  if (tracer == nullptr) return;

  // Per-layer: rpc from the traced calls and the Stats op.
  std::vector<int64_t> server_us;
  std::vector<double> overhead_us;
  for (const Span& span : tracer->spans()) {
    if (span.layer != Layer::kRpc || std::string_view(span.name) != "call" ||
        span.arg < 0) {
      continue;
    }
    server_us.push_back(span.arg);
    overhead_us.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                              1e3 -
                          static_cast<double>(span.arg));
  }
  report->Set("rpc.server_us.p50", TruncatedPercentile(server_us, 50.0));
  report->Set("rpc.server_us.p99", TruncatedPercentile(server_us, 99.0));
  report->Set("rpc.server_us.mean",
              Mean(std::vector<double>(server_us.begin(), server_us.end())));
  SetDistribution(report, "rpc.overhead_us", overhead_us, true, false);
  report->Set("rpc.queue_wait_us.p50",
              StatsNumber(stats_json, "queue_wait_micros", "p50"));
  report->Set("rpc.queue_wait_us.p99",
              StatsNumber(stats_json, "queue_wait_micros", "p99"));
  report->Set("rpc.shed", StatsNumber(stats_json, "", "shed_overloaded"));
  report->Set("rpc.decode_errors",
              StatsNumber(stats_json, "", "decode_errors"));
  report->Set("rpc.write_failures",
              StatsNumber(stats_json, "", "write_failures"));
  report->Set("rpc.testbed_build_s",
              Median(SpanTimes(*tracer, Layer::kRpc, "testbed_build", 1e9)));
  report->Set("trace.overhead_fraction", total.phases.OverheadFraction());

  // Per-layer core/analysis: from the replays.
  total.replay.Publish(report);
  PublishProbeSpans(*tracer, report);
  report->NoteLayerSum(
      {"analysis.snapshot_acquire_us.mean", "core.select_us.mean"},
      "rpc.server_us.mean");
}

// ---------------------------------------------------------------------------
// paper_synth
// ---------------------------------------------------------------------------

struct PaperParams {
  data::SyntheticParams dataset;
  /// Datasets in the fixture; targets rotate over them, so a run covers
  /// several draws of the synthetic distribution instead of one.
  size_t datasets = 16;
  /// Targets per dataset. A run selects about twice over the whole set.
  size_t targets_per_dataset = 48;
  chain::DiversityRequirement requirement;
  /// Untimed selections before measuring.
  size_t warmup_ops = 16;
  size_t digest_rings = 64;
  /// Set-up takes ~60 ms, so it is repeated often enough for its median
  /// to stay put when a few repetitions are slowed from outside.
  int setup_reps = 25;
};

/// The datasets and the target set are a fixed fixture, like the serve
/// chain. With a draw per seed, median selection time spread 20% over eight
/// seeds (8% over eight runs of one seed), which would bury a change under
/// the seed-to-seed spread. --seed shuffles the order of the targets and
/// seeds the selector's randomness.
constexpr uint64_t kPaperFixtureSeed = 42;

/// One interned synthetic dataset.
struct PaperUniverse {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<analysis::EpochChain> chain;
};

/// A selection request: a target token of one dataset.
struct PaperTarget {
  size_t dataset = 0;
  chain::TokenId token = 0;
};

void RunPaperSynth(const Options& options, const PaperParams& params,
                   Tracer* tracer, Report* report) {
  common::Rng fixture(kPaperFixtureSeed);
  std::vector<uint64_t> dataset_seeds;
  for (size_t d = 0; d < params.datasets; ++d) {
    dataset_seeds.push_back(fixture.Next());
  }

  // Set-up: generate each dataset and intern it with one epoch append.
  SpeedProbe speed;
  SetupTimes setup;
  std::vector<PaperUniverse> universes;
  for (int rep = 0; rep < params.setup_reps; ++rep) {
    universes.clear();
    setup.Time(&speed, [&] {
      for (uint64_t dataset_seed : dataset_seeds) {
        PaperUniverse u;
        data::SyntheticParams dataset_params = params.dataset;
        dataset_params.seed = dataset_seed;
        {
          ScopedSpan span(tracer, 0, 0, Layer::kData, "dataset_gen");
          u.dataset = std::make_unique<data::Dataset>(
              data::MakeSyntheticDataset(dataset_params));
        }
        {
          ScopedSpan span(tracer, 0, 0, Layer::kAnalysis, "epoch_append");
          u.chain = std::make_unique<analysis::EpochChain>();
          u.chain->Append(u.dataset->history, &u.dataset->index,
                          u.dataset->universe);
        }
        universes.push_back(std::move(u));
      }
    });
  }

  // The fixture's targets: distinct unspent tokens of each dataset, then
  // the whole set in the seed's order.
  std::vector<PaperTarget> targets;
  size_t tokens = 0;
  for (size_t d = 0; d < universes.size(); ++d) {
    std::vector<chain::TokenId> unspent = universes[d].dataset->UnspentTokens();
    for (size_t k = 0; k < params.targets_per_dataset && k < unspent.size();
         ++k) {
      std::swap(unspent[k],
                unspent[k + fixture.NextBounded(unspent.size() - k)]);
      targets.push_back({d, unspent[k]});
    }
    tokens += universes[d].dataset->universe.size();
  }
  common::Rng rng(options.seed ^ 0x7a9e5ull);
  for (size_t k = targets.size(); k > 1; --k) {
    std::swap(targets[k - 1], targets[rng.NextBounded(k)]);
  }
  report->Note("datasets",
               StrFormat("%zu datasets, %zu tokens, %zu super RSs each, "
                         "%zu targets",
                         universes.size(), tokens,
                         params.dataset.num_super_rs, targets.size()));

  core::ProgressiveSelector selector;
  WindowedMeter meter(options.seconds, WindowedMeter::kSteadyWindows);
  PhaseClock phases;
  ProbeStats probe;
  crypto::Sha256 ring_hasher;
  uint64_t digested = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t unrelaxed = 0;
  uint64_t invalid = 0;
  std::string first_problem;
  double ring_size_sum = 0.0;
  std::vector<size_t> last_rs_count(universes.size(), SIZE_MAX);

  const MeasuredTime budget(options.seconds);
  int64_t measured_ns = 0;
  for (uint64_t i = 0;
       budget.Left(measured_ns) || digested < params.digest_rings; ++i) {
    const bool warm = i < params.warmup_ops;
    const bool traced = !warm && PhaseClock::Traced(tracer, measured_ns);
    Tracer* span_tracer = traced ? tracer : nullptr;
    const uint64_t request = RequestId(0, i);
    const size_t d = targets[i % targets.size()].dataset;
    const PaperUniverse& u = universes[d];

    core::SelectionInput input;
    input.target = targets[i % targets.size()].token;
    input.universe = u.dataset->universe;
    input.requirement = params.requirement;
    input.index = &u.dataset->index;

    // Timed op: acquire the chained view, then one TM_P selection.
    int64_t t0 = CpuNanos();
    analysis::AnalysisContext view;
    {
      ScopedSpan span(span_tracer, 0, request, Layer::kAnalysis,
                      "snapshot_acquire");
      view = u.chain->View();
    }
    input.history = u.chain->History();
    input.context = &view;
    const int64_t select_start = NowNanos();
    auto selected = selector.Select(input, &rng);
    const int64_t select_end = NowNanos();
    const int64_t t1 = CpuNanos();
    // The digest covers the first rings of the seeded sequence, warm-up
    // included.
    if (i < params.digest_rings) {
      HashRing(&ring_hasher, selected.ok() ? selected->members
                                           : std::vector<chain::TokenId>{});
      ++digested;
    }
    if (warm) continue;
    ++attempted;
    meter.AddLatency(measured_ns, t1 - t0, speed.Current());
    meter.AddBusy(measured_ns, t1 - t0, selected.ok() ? 1 : 0,
                  speed.Current());
    phases.Add(traced, t1 - t0, selected.ok() ? 1 : 0);
    measured_ns += t1 - t0;
    speed.MaybeSlice(measured_ns);
    if (traced) {
      uint32_t id = tracer->Record(0, request, Layer::kCore, "select",
                                   select_start, select_end);
      tracer->Record(id, request, Layer::kCore, kStageSpans[1], select_start,
                     select_end);
      ++probe.acquires;
      if (view.rs_count() != last_rs_count[d]) ++probe.cold_acquires;
      last_rs_count[d] = view.rs_count();
      ++probe.selects;
      ++probe.module_builds;
      probe.stage_seconds[1] += Seconds(select_end - select_start);
    }
    if (!selected.ok()) continue;
    ++ok;
    const std::vector<chain::TokenId>& ring = selected->members;
    ring_size_sum += static_cast<double>(ring.size());
    std::string problem =
        RingProblem(ring, input.target, u.dataset->universe, u.dataset->index,
                    params.requirement);
    if (problem.empty()) {
      ++unrelaxed;
    } else if (invalid++ == 0) {
      first_problem = problem;
    }
    if (traced) {
      ++probe.ok;
      ++probe.stage_wins[1];
      {
        ScopedSpan span(tracer, 0, request, Layer::kAnalysis,
                        "diversity_check");
        (void)analysis::SatisfiesRecursiveDiversity(ring, view,
                                                    params.requirement);
      }
      ScopedSpan span(tracer, 0, request, Layer::kCore, "module_universe");
      (void)core::ModuleUniverse::Build(input.universe, input.history, view);
    }
  }

  report->Check("rings_valid", invalid == 0,
                StrFormat("%llu rings, %llu invalid%s%s",
                          static_cast<unsigned long long>(ok),
                          static_cast<unsigned long long>(invalid),
                          invalid == 0 ? "" : ": ", first_problem.c_str()));
  report->Digest("ring_digest", HexOf(ring_hasher.Finalize()), options.seed);

  SetEndToEnd(report, setup, meter, speed, attempted, ok, unrelaxed,
              ring_size_sum);
  if (tracer == nullptr) return;

  probe.Publish(report);
  PublishProbeSpans(*tracer, report);
  report->Set("data.dataset_gen_ms",
              Median(SpanTimes(*tracer, Layer::kData, "dataset_gen", 1e6)));
  report->Set("analysis.epoch_append_ms",
              Median(SpanTimes(*tracer, Layer::kAnalysis, "epoch_append",
                               1e6)));
  report->Set("trace.overhead_fraction", phases.OverheadFraction());
}

// ---------------------------------------------------------------------------
// spend_mine
// ---------------------------------------------------------------------------

struct SpendParams {
  size_t wallets = 256;
  size_t tokens_per_wallet = 8;
  size_t cluster_size = 2;
  size_t lambda = 256;
  /// Payments per block. All of a block's rings are selected on the same
  /// snapshot, so a later transaction can break an earlier one's first
  /// practical configuration and is then rejected at mine time.
  size_t spends_per_block = 4;
  /// Blocks per episode. An episode starts from a fresh set-up, so every
  /// episode of a seed does identical work. A run measures whole episodes:
  /// the share of a block's payments that commit changes along an episode
  /// (it climbs once the first batch of payment outputs seals).
  size_t blocks = 600;
  chain::DiversityRequirement requirement{2.0, 2};
  double budget_seconds = 0.25;
  /// Set-ups before the first episode; every later episode adds one.
  int setup_reps = 3;
};

/// The chain and wallets of one episode.
struct SpendWorld {
  std::unique_ptr<node::Node> node;
  std::vector<std::unique_ptr<node::Wallet>> wallets;
};

SpendWorld BuildSpendWorld(const SpendParams& params, uint64_t seed) {
  SpendWorld world;
  node::NodeConfig config;
  config.lambda = params.lambda;
  world.node = std::make_unique<node::Node>(config);
  for (size_t w = 0; w < params.wallets; ++w) {
    world.wallets.push_back(std::make_unique<node::Wallet>(
        StrFormat("bench-wallet-%zu", w), world.node.get(), seed * 1000 + w));
  }
  // Genesis: each wallet's tokens in HTs of cluster_size outputs.
  std::vector<std::vector<crypto::Point>> grants;
  std::vector<size_t> owner;
  for (size_t w = 0; w < params.wallets; ++w) {
    for (size_t left = params.tokens_per_wallet; left > 0;) {
      size_t take = std::min(params.cluster_size, left);
      std::vector<crypto::Point> grant;
      for (size_t i = 0; i < take; ++i) {
        grant.push_back(world.wallets[w]->NewOutputKey());
      }
      grants.push_back(std::move(grant));
      owner.push_back(w);
      left -= take;
    }
  }
  auto minted = world.node->Genesis(grants);
  for (size_t g = 0; g < minted.size(); ++g) {
    for (chain::TokenId token : minted[g]) {
      TM_CHECK(world.wallets[owner[g]]->Claim(token).ok());
    }
  }
  return world;
}

/// The wallet's unspent tokens in sealed batches, the ones it can spend.
std::vector<chain::TokenId> SealedSpendable(const node::Node& node,
                                            const node::Wallet& wallet) {
  std::vector<chain::TokenId> out;
  for (chain::TokenId token : wallet.SpendableTokens()) {
    if (node.batches().BatchOfToken(token).sealed) out.push_back(token);
  }
  return out;
}

/// A payment from one wallet to another. When its transaction is rejected
/// at mine time the payer pays again in a later block, from another token:
/// Wallet::Spend marks the first token spent when it submits.
struct Payment {
  size_t payer = 0;
  size_t receiver = 0;
};

void RunSpendMine(const Options& options, const SpendParams& params,
                  Tracer* tracer, Report* report) {
  core::ResilientOptions ladder_options;
  ladder_options.total_budget_seconds = params.budget_seconds;
  const core::ResilientSelector selector(ladder_options);

  // Shadow-call inputs (traced runs only): fresh keys for same-size rings.
  common::Rng shadow_rng(options.seed ^ 0x5adull);
  std::vector<crypto::Keypair> fresh_keys;
  if (tracer != nullptr) {
    for (int i = 0; i < 64; ++i) {
      fresh_keys.push_back(crypto::Keypair::Generate(&shadow_rng));
    }
  }

  WindowedMeter meter(options.seconds, 1);
  SpeedProbe speed;
  PhaseClock phases;
  ProbeStats probe;
  SetupTimes setup;
  uint64_t payments = 0;  // resolved: committed or failed
  uint64_t failed_payments = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t rejected = 0;
  uint64_t budget_hits = 0;
  uint64_t unrelaxed = 0;
  uint64_t invalid = 0;
  uint64_t request = 0;
  std::string first_failure;
  std::string first_problem;
  double ring_size_sum = 0.0;
  std::string first_digest;
  size_t episodes = 0;
  bool digests_agree = true;
  bool ran_dry = false;
  const MeasuredTime budget(options.seconds);
  int64_t measured_ns = 0;
  int64_t episode_ns = 0;

  // As many whole episodes as fit in the measured time, at least one.
  for (int episode = 0;
       !ran_dry && (episode == 0 || budget.Left(measured_ns + episode_ns));
       ++episode) {
    const int64_t episode_start = measured_ns;
    SpendWorld world;
    for (int rep = 0; rep < (episode == 0 ? params.setup_reps : 1); ++rep) {
      setup.Time(&speed,
                 [&] { world = BuildSpendWorld(params, options.seed); });
    }
    node::Node& node = *world.node;
    common::Rng block_rng(options.seed ^ 0xb10cull);
    std::deque<Payment> retries;
    size_t cursor = 0;

    for (size_t block = 0; block < params.blocks; ++block) {
      const int64_t t0 = CpuNanos();
      const int64_t block_start = measured_ns;
      const bool traced = PhaseClock::Traced(tracer, measured_ns);
      int64_t shadow_ns = 0;

      // This block's payments, one per payer: retries first, then new
      // payments from the next payers in round-robin order.
      std::vector<Payment> batch;
      std::vector<std::vector<chain::TokenId>> spendable;
      auto take = [&](const Payment& p) {
        for (const Payment& q : batch) {
          if (q.payer == p.payer) return false;
        }
        std::vector<chain::TokenId> tokens =
            SealedSpendable(node, *world.wallets[p.payer]);
        if (tokens.empty()) return false;
        batch.push_back(p);
        spendable.push_back(std::move(tokens));
        return true;
      };
      for (size_t r = retries.size();
           r > 0 && batch.size() < params.spends_per_block; --r) {
        Payment p = retries.front();
        retries.pop_front();
        if (!take(p)) retries.push_back(p);
      }
      for (size_t tried = 0; tried < params.wallets &&
                             batch.size() < params.spends_per_block;
           ++tried) {
        size_t payer = cursor;
        cursor = (cursor + 1) % params.wallets;
        size_t receiver =
            (payer + 1 + block_rng.NextBounded(params.wallets - 1)) %
            params.wallets;
        take({payer, receiver});
      }
      if (batch.empty()) {
        ran_dry = true;
        break;
      }

      // Submit every payment, then mine the block.
      std::vector<std::pair<size_t, chain::TokenId>> in_pool;
      for (size_t k = 0; k < batch.size(); ++k) {
        const Payment& p = batch[k];
        chain::TokenId token =
            spendable[k][block_rng.NextBounded(spendable[k].size())];
        crypto::Point output_key = world.wallets[p.receiver]->NewOutputKey();
        ++request;
        if (traced) {
          // Shadow calls on the same snapshot, off the timed path and with
          // their own rng, so the chain is the same as in an untraced run.
          int64_t shadow_start = CpuNanos();
          std::vector<chain::TokenId> ring = ProbeSelection(
              tracer, request, node, token, params.requirement, selector,
              0.0, &shadow_rng, &probe);
          size_t ring_size =
              std::clamp<size_t>(ring.size(), 2, fresh_keys.size());
          std::vector<crypto::Point> ring_keys;
          for (size_t i = 0; i < ring_size; ++i) {
            ring_keys.push_back(fresh_keys[i].pub);
          }
          std::string message = StrFormat(
              "shadow %llu", static_cast<unsigned long long>(request));
          common::Result<crypto::LsagSignature> signature =
              common::Status::Internal("unsigned");
          {
            ScopedSpan span(tracer, 0, request, Layer::kCrypto, "lsag_sign");
            signature = crypto::Lsag::Sign(ring_keys, 0, fresh_keys[0],
                                           message, &shadow_rng);
          }
          if (signature.ok()) {
            ScopedSpan span(tracer, 0, request, Layer::kCrypto,
                            "lsag_verify");
            (void)crypto::Lsag::Verify(*signature, message);
          }
          shadow_ns += CpuNanos() - shadow_start;
        }

        const int64_t s0 = CpuNanos();
        common::Status spent;
        {
          ScopedSpan span(traced ? tracer : nullptr, 0, request, Layer::kNode,
                          "spend");
          spent = world.wallets[p.payer]->Spend(
              &node, token, params.requirement, selector, {output_key},
              StrFormat("bench block %zu payment %zu", block, k));
        }
        meter.AddLatency(block_start, CpuNanos() - s0, speed.Current());
        if (spent.ok()) {
          ++submitted;
          in_pool.emplace_back(k, token);
          continue;
        }
        ++payments;
        ++failed_payments;
        if (spent.IsTimeout()) ++budget_hits;
        if (first_failure.empty()) first_failure = spent.ToString();
      }
      node::MinedBlock mined;
      {
        ScopedSpan span(traced ? tracer : nullptr, 0, request, Layer::kNode,
                        "mine");
        mined = node.MineBlock();
      }
      // Mining order is submission order; rejected payments are retried.
      std::vector<bool> was_rejected(in_pool.size(), false);
      for (const node::MinedBlock::RejectedTx& r : mined.rejected) {
        TM_CHECK(r.index < in_pool.size());
        was_rejected[r.index] = true;
      }
      std::vector<chain::TokenId> committed_tokens;
      for (size_t j = 0; j < in_pool.size(); ++j) {
        const Payment& p = batch[in_pool[j].first];
        if (was_rejected[j]) {
          ++rejected;
          retries.push_back(p);
          continue;
        }
        const std::vector<chain::TokenId>& outputs =
            mined.outputs[committed_tokens.size()];
        TM_CHECK(outputs.size() == 1);
        TM_CHECK(world.wallets[p.receiver]->Claim(outputs[0]).ok());
        committed_tokens.push_back(in_pool[j].second);
      }
      const int64_t busy = CpuNanos() - t0 - shadow_ns;
      meter.AddBusy(block_start, busy, committed_tokens.size(),
                    speed.Current());
      phases.Add(traced, busy, committed_tokens.size());
      measured_ns += busy;
      speed.MaybeSlice(measured_ns);
      payments += committed_tokens.size();
      committed += committed_tokens.size();

      // Re-check the committed rings, off the timed path. Each transaction
      // has one input, so the block's rings end the ledger in order.
      const size_t first_ring = node.ledger().size() - committed_tokens.size();
      for (size_t j = 0; j < committed_tokens.size(); ++j) {
        const chain::RsView& ring = node.ledger().view(first_ring + j);
        chain::TokenId token = committed_tokens[j];
        ring_size_sum += static_cast<double>(ring.members.size());
        std::string problem =
            RingProblem(ring.members, token,
                        node.batches().MixinUniverse(token), node.ht_index(),
                        params.requirement);
        if (problem.empty()) {
          ++unrelaxed;
        } else if (invalid++ == 0) {
          first_problem = problem;
        }
      }
    }
    if (ran_dry) break;
    episode_ns = measured_ns - episode_start;
    // Every episode of a seed must end in the same chain state.
    std::string digest = crypto::Sha256Hex(node::SnapshotToString(node));
    if (episodes++ == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      digests_agree = false;
    }
  }

  report->Check("wallets_funded", !ran_dry,
                ran_dry ? "no wallet had a spendable sealed token" : "");
  report->Check("payments_ok", failed_payments == 0,
                StrFormat("%llu payments failed%s%s",
                          static_cast<unsigned long long>(failed_payments),
                          first_failure.empty() ? "" : ", first: ",
                          first_failure.c_str()));
  report->Check("budget_hits_zero", budget_hits == 0,
                StrFormat("%llu selections hit the %.2f s budget",
                          static_cast<unsigned long long>(budget_hits),
                          params.budget_seconds));
  report->Check("rings_valid", invalid == 0,
                StrFormat("%llu committed rings, %llu invalid%s%s",
                          static_cast<unsigned long long>(committed),
                          static_cast<unsigned long long>(invalid),
                          invalid == 0 ? "" : ": ", first_problem.c_str()));
  report->Check("episodes_deterministic", digests_agree && episodes > 0,
                StrFormat("%zu episodes of %zu blocks", episodes,
                          params.blocks));
  report->Note("transactions",
               StrFormat("%llu submitted, %llu committed, %llu rejected at "
                         "mine time",
                         static_cast<unsigned long long>(submitted),
                         static_cast<unsigned long long>(committed),
                         static_cast<unsigned long long>(rejected)));
  report->Digest("state_digest", first_digest, options.seed);

  SetEndToEnd(report, setup, meter, speed, payments, committed, unrelaxed,
              ring_size_sum);
  if (tracer == nullptr) return;

  probe.Publish(report);
  PublishProbeSpans(*tracer, report);
  SetDistribution(report, "node.mine_ms",
                  SpanTimes(*tracer, Layer::kNode, "mine", 1e6), true, false);
  report->Set("node.commit_ratio",
              static_cast<double>(committed) /
                  static_cast<double>(std::max<uint64_t>(submitted, 1)));
  report->Set("node.mine_rejected", static_cast<double>(rejected));
  std::vector<double> spend_us =
      SpanTimes(*tracer, Layer::kNode, "spend", 1e3);
  report->Set("node.spend_us.mean", Mean(spend_us));
  SetDistribution(report, "crypto.lsag_sign_us",
                  SpanTimes(*tracer, Layer::kCrypto, "lsag_sign", 1e3),
                  false, true);
  SetDistribution(report, "crypto.lsag_verify_us",
                  SpanTimes(*tracer, Layer::kCrypto, "lsag_verify", 1e3),
                  false, true);
  report->Set("trace.overhead_fraction", phases.OverheadFraction());
  report->NoteLayerSum({"core.select_us.mean", "crypto.lsag_sign_us.mean",
                        "crypto.lsag_verify_us.mean"},
                       "node.spend_us.mean");
}

// ---------------------------------------------------------------------------
// Workload table and entry point.
// ---------------------------------------------------------------------------

// Smoke sizes keep every code path and check but shrink the chain so the
// whole smoke test runs in seconds.
ServeParams ServeLight(bool smoke) {
  ServeParams p;
  p.testbed.num_wallets = smoke ? 16 : 32;
  p.testbed.tokens_per_wallet = 4;
  p.testbed.cluster_size = 2;
  p.testbed.spend_rounds = 2;
  p.testbed.lambda = 64;
  p.requirement = {2.0, 2};
  p.warmup_seconds = smoke ? 0.05 : 1.0;
  p.replay_every = 16;
  return p;
}

ServeParams ServeHeavy(bool smoke) {
  ServeParams p;
  p.testbed.num_wallets = smoke ? 16 : 32;
  p.testbed.tokens_per_wallet = smoke ? 4 : 8;
  p.testbed.cluster_size = 2;
  p.testbed.spend_rounds = smoke ? 4 : 128;
  p.testbed.lambda = 256;
  p.requirement = {1.0, 8};
  p.genesis_batch_only = true;
  p.warmup_seconds = smoke ? 0.05 : 1.0;
  // A build takes ~4 s; one keeps the traced run under 30 s.
  p.setup_reps = 1;
  return p;
}

PaperParams PaperSynth(bool smoke) {
  PaperParams p;
  p.dataset.num_super_rs = smoke ? 100 : 1000;
  p.dataset.super_size_min = 5;
  p.dataset.super_size_max = 15;
  p.dataset.num_fresh = 64;
  p.dataset.sigma = 12.0;
  p.targets_per_dataset = smoke ? 4 : 48;
  p.requirement = {0.6, 30};
  p.warmup_ops = smoke ? 2 : 16;
  p.digest_rings = smoke ? 8 : 64;
  return p;
}

SpendParams SpendMine(bool smoke) {
  SpendParams p;
  if (smoke) {
    p.wallets = 32;
    p.tokens_per_wallet = 4;
    p.lambda = 32;
    p.blocks = 24;
  }
  return p;
}

constexpr const char* kWorkloads[] = {"serve_light", "serve_heavy",
                                      "paper_synth", "spend_mine"};

int RunOne(const Options& options) {
  Report report;
  const int cpu = PinToCurrentCpu();
  report.Note("cpu", cpu < 0 ? "not pinned" : StrFormat("pinned to %d", cpu));
  std::unique_ptr<Tracer> tracer =
      options.traced() ? std::make_unique<Tracer>(kTraceCapacity) : nullptr;
  if (options.workload == "serve_light") {
    RunServe(options, ServeLight(options.smoke), tracer.get(), &report);
  } else if (options.workload == "serve_heavy") {
    RunServe(options, ServeHeavy(options.smoke), tracer.get(), &report);
  } else if (options.workload == "paper_synth") {
    RunPaperSynth(options, PaperSynth(options.smoke), tracer.get(), &report);
  } else {
    RunSpendMine(options, SpendMine(options.smoke), tracer.get(), &report);
  }
  if (tracer != nullptr) {
    report.Check("trace_written", tracer->WriteChromeJson(options.trace_path),
                 StrFormat("%zu spans to %s, %llu dropped",
                           tracer->spans().size(), options.trace_path.c_str(),
                           static_cast<unsigned long long>(
                               tracer->dropped())));
  }
  report.CheckPinned(options, TM_BENCH_DIGESTS);
  report.Check("attempted_nonzero", report.attempted > 0,
               StrFormat("%llu ops", static_cast<unsigned long long>(
                                         report.attempted)));
  if (options.traced()) {
    report.Print(options, kPerLayer);
  } else {
    report.Print(options, kEndToEnd);
  }
  return report.correct() ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "tm_bench: %s\nusage: tm_bench --workload "
               "serve_light|serve_heavy|paper_synth|spend_mine|all "
               "[--seed N] [--seconds S] [--trace PATH] [--smoke 0|1] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace tokenmagic::bench

int main(int argc, char** argv) {
  using namespace tokenmagic;
  using namespace tokenmagic::bench;
  Options options;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[i + 1];
    int64_t number = 0;
    double real = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && common::ParseInt64(value, &number) &&
               number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && common::ParseDouble(value, &real) &&
               real > 0.0 && real <= 120.0) {
      options.seconds = real;
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (flag == "--smoke" && common::ParseInt64(value, &number)) {
      options.smoke = number != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  std::vector<std::string> workloads;
  for (const char* name : kWorkloads) {
    if (options.workload == "all" || options.workload == name) {
      workloads.push_back(name);
    }
  }
  if (workloads.empty()) return Usage("unknown or missing --workload");
  if (workloads.size() == 1) return RunOne(options);

  // --workload all: each workload in its own child process, so peak RSS
  // and allocator state are per workload.
  int worst = 0;
  for (const std::string& name : workloads) {
    Options child = options;
    child.workload = name;
    if (options.traced()) child.trace_path = options.trace_path + "." + name;
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0) return Usage("fork failed");
    if (pid == 0) _exit(RunOne(child));
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      worst = 1;
    }
  }
  return worst;
}
