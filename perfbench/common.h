// Shared plumbing of the repository benchmark: arguments, statistics, the
// result line, the host block, hermetic model set-up, metrics-registry
// reads and the per-layer table of a traced run.
//
// The benchmark drives the program only through its public functions; it
// adds no instrumentation to src/. Per-layer numbers come from timing
// calls into each module's public API (a replay of the workload's own
// inputs) and from the counters the program already exports through
// obs::MetricsRegistry.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/dader.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace perfbench {

using namespace dader;

/// \brief Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-phase budget
  bool trace = false;     ///< per-layer run instead of the timed run
  bool tiny = false;      ///< self-test sizes
  std::string scratch;    ///< per-run directory for pretraining caches
  std::string git_sha = "unknown";
};

// --- statistics --------------------------------------------------------

/// \brief Middle value; the mean of the two middle values for an even
/// count; 0 for an empty sample.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// \brief Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// \brief The tail of a sample: the highest percentile, up to p99, with at
/// least ten samples beyond it (p99 from 1000 samples on; the eleventh-
/// largest sample below that) when that lies above the median, else (20
/// samples or fewer) the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< e.g. 99 for p99; 100 means the maximum
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& values);

/// \brief "p50=1.23 p99=4.56 (n=1000)" for the human-readable report.
std::string DescribeLatency(const std::vector<double>& values);

// --- timing ------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// \brief Runs `pass` until about `seconds` have elapsed: a further pass
/// starts only while half of the last pass still fits. At least one pass.
/// `pass` returns the seconds its measured work took (its checks run
/// outside that time); returns those, one per pass.
std::vector<double> RunPasses(double seconds,
                              const std::function<double(int)>& pass);

// --- the result line ---------------------------------------------------

/// \brief Collects metrics and correctness verdicts; renders the last line
/// of the run's standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// \brief Records a failed correctness check (the run is not correct).
  void Fail(const std::string& why);
  /// \brief Fail() unless `ok`.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;
  /// Non-empty when the run measured something other than the program
  /// (e.g. the load generator fell behind): no result is reported.
  std::string invalid;

  /// \brief `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  std::string Json() const;
  /// \brief One "name value unit" line per metric.
  void PrintTable() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// --- host block --------------------------------------------------------

/// \brief Prints the host block (nproc, ISA tier, VNNI, build type,
/// sanitizer, git sha) as one JSON line; true when the build may report
/// end-to-end numbers (Release, no sanitizer).
bool PrintHostBlock(const Args& args);

/// \brief Logical CPUs of the host.
int HostThreads();

/// \brief Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// --- hermetic model set-up ---------------------------------------------

/// \brief Points DADER_CACHE_DIR at a fresh directory under the run's
/// scratch dir, so the next pretrained model build always pretrains.
void UseFreshPretrainCache(const Args& args);

/// \brief Scale of every model workload: the smoke preset. --tiny shrinks
/// the workloads' inputs, never the model or its training.
core::ExperimentScale BenchScale();

/// \brief Runs `setup` `repeats` times and returns the median wall time in
/// seconds. Each call must rebuild the workload's state from scratch; the
/// state of the last call is the one measured.
double TimeSetups(int repeats, const std::function<void()>& setup);

/// \brief Source -> target of the adapted matcher every model workload
/// uses: AB (labeled) -> WA (unlabeled), the direction bench_dedup adapts.
inline constexpr const char* kSource = "AB";
inline constexpr const char* kTarget = "WA";
/// \brief Data seed of the adaptation task the matcher is trained on; the
/// matcher is the program under test, not a workload input.
inline constexpr uint64_t kTaskSeed = 7;
/// \brief Model seed of the matcher.
inline constexpr uint64_t kModelSeed = 42;

/// \brief The adapted matcher and the task it was trained on (its labeled
/// source doubles as the int8 calibration set).
struct TrainedMatcher {
  core::DaTask task;
  core::DaModel model;
};

/// \brief Pretrains the LM (fresh cache, so it always runs) and adapts it
/// AB -> WA with MMD (Algorithm 1), in eval mode. Aborts the run on
/// failure.
TrainedMatcher TrainServingMatcher(const Args& args);

/// \brief Wraps raw record pairs into an unlabeled ERDataset for the
/// extractor's public EncodePairs.
data::ERDataset PairsDataset(const data::Schema& schema_a,
                             const data::Schema& schema_b,
                             const std::vector<std::pair<data::Record,
                                                         data::Record>>& pairs);

// --- metrics registry --------------------------------------------------

int64_t CounterValue(const std::string& name);
int64_t LabeledCounter(const std::string& base, const std::string& key,
                       const std::string& value);
obs::Histogram* HistogramOf(const std::string& name);
/// \brief Sum of a histogram's observations (its recorded time, for the
/// *_ms histograms).
double HistogramSum(const std::string& name);

/// \brief Adds the registry-backed per-layer metrics every workload shares
/// (serve.*, tensor.gemm/qgemm.*, util.pool.*) to `report`. Reads the
/// registry as it stands: reset it before the phase being attributed.
void AddRegistryLayers(Report* report);

// --- per-layer replay helpers -------------------------------------------

/// \brief Per-pair cost of the model layers, measured by replaying `pairs`
/// through the public calls in batches of `batch`.
struct ModelLayerCosts {
  double encode_us_per_pair = 0.0;      ///< FeatureExtractor::EncodePairs
  double forward_us_per_pair = 0.0;     ///< FeatureExtractor::Forward
  double encoder_us_per_pair = 0.0;     ///< TransformerEncoder::Forward
  double matcher_us_per_pair = 0.0;     ///< Matcher::PredictProbabilities
};
ModelLayerCosts ReplayModelLayers(const core::DaModel& model,
                                  const data::ERDataset& pairs, int64_t batch,
                                  size_t max_pairs);

/// \brief Adds every per-layer metric with `value` 0 unless the workload
/// set it already; the traced result lists every per-layer metric on every
/// workload, and 0 means "this layer did not run here".
void FillAbsentLayers(Report* report);

// --- the traced table ----------------------------------------------------

struct LayerTime {
  std::string layer;  ///< module name: serve, text, core, nn, tensor, ...
  std::string what;   ///< which public call or counter it comes from
  double ms = 0.0;
  /// Part of the row above it (or concurrent with the rows that are
  /// summed): shown, but not subtracted from the wall time.
  bool nested = false;
};

/// \brief Prints the per-layer table of a traced run: each layer's time
/// and share of the end-to-end wall time, the unattributed remainder (wall
/// minus the sum of the layers) and the tracing overhead (traced minus
/// untraced median wall time of the same phase). Adds the wall, remainder
/// and overhead to `report` as trace.* metrics.
void PrintLayerTable(const std::string& workload, double wall_ms,
                     const std::vector<LayerTime>& layers,
                     double traced_ms, double untraced_median_ms,
                     Report* report);

}  // namespace perfbench
