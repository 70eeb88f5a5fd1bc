#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>

#include "tensor/cpu_dispatch.h"
#include "util/string_util.h"

namespace perfbench {

// --- statistics --------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  if (n > 20.0) {
    // Nearest rank n - 10: the eleventh-largest sample.
    const double q = std::min(0.99, 1.0 - 10.0 / n);
    tail.percentile = 100.0 * q;
    tail.value = Quantile(values, q);
    return tail;
  }
  tail.percentile = 100.0;
  tail.value = values.empty()
                   ? 0.0
                   : *std::max_element(values.begin(), values.end());
  return tail;
}

std::string DescribeLatency(const std::vector<double>& values) {
  const Tail tail = TailOf(values);
  return StrFormat("p50=%.3f p%.3g=%.3f (n=%zu)", Median(values),
                   tail.percentile, tail.value, tail.samples);
}

std::vector<double> RunPasses(double seconds,
                              const std::function<double(int)>& pass) {
  std::vector<double> times;
  const auto start = Clock::now();
  double elapsed_s = 0.0;
  do {
    times.push_back(pass(static_cast<int>(times.size())));
    elapsed_s = MsSince(start) / 1000.0;
  } while (elapsed_s + times.back() / 2.0 < seconds);
  return times;
}

// --- the result line ---------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::Fail(const std::string& why) {
  failures_.push_back(why);
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

std::string Report::Json() const {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct() ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", metrics_[i].name.c_str(), v,
                     metrics_[i].unit.c_str());
  }
  out += "}}";
  return out;
}

void Report::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// --- host block --------------------------------------------------------

int HostThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// From the compiler's own macros: a sanitized build of this binary cannot
// hide behind a build option.
std::string SanitizerName() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

}  // namespace

bool PrintHostBlock(const Args& args) {
  const std::string build_type = DADER_BENCH_BUILD_TYPE;
  const std::string sanitizer = SanitizerName();
  std::printf(
      "{\"host\": {\"nproc\": %d, \"isa\": \"%s\", \"vnni\": %s, "
      "\"build_type\": \"%s\", \"sanitizer\": \"%s\", \"git_sha\": \"%s\"}, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}\n",
      HostThreads(), cpu::IsaName(cpu::ActiveIsa()),
      cpu::HostSupportsVnni() ? "true" : "false", build_type.c_str(),
      sanitizer.c_str(), args.git_sha.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
  return build_type == "Release" && sanitizer == "none";
}

// --- hermetic model set-up ---------------------------------------------

void UseFreshPretrainCache(const Args& args) {
  static int generation = 0;
  const std::string dir =
      args.scratch + "/pretrain_cache_" + std::to_string(generation++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setenv("DADER_CACHE_DIR", dir.c_str(), 1);
}

core::ExperimentScale BenchScale() { return core::SmokeScale(); }

double TimeSetups(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    setup();
    times.push_back(MsSince(start) / 1000.0);
  }
  std::printf("setup: %d repeats, seconds:", repeats);
  for (double t : times) std::printf(" %.3f", t);
  std::printf("\n");
  return Median(times);
}

TrainedMatcher TrainServingMatcher(const Args& args) {
  const core::ExperimentScale scale = BenchScale();
  UseFreshPretrainCache(args);
  TrainedMatcher out;
  out.task = core::BuildDaTask(kSource, kTarget, scale, kTaskSeed).ValueOrDie();
  out.model = core::BuildModel(core::ExtractorKind::kLM, scale,
                               /*pretrained=*/true, kModelSeed)
                  .ValueOrDie();
  core::RunSingleDa(core::AlignMethod::kMMD, scale, out.task, &out.model)
      .ValueOrDie();
  out.model.extractor->SetTraining(false);
  out.model.matcher->SetTraining(false);
  return out;
}

data::ERDataset PairsDataset(
    const data::Schema& schema_a, const data::Schema& schema_b,
    const std::vector<std::pair<data::Record, data::Record>>& pairs) {
  data::ERDataset dataset("perfbench", "bench", schema_a, schema_b);
  for (const auto& [a, b] : pairs) dataset.AddPair({a, b, /*label=*/-1});
  return dataset;
}

// --- metrics registry --------------------------------------------------

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

int64_t LabeledCounter(const std::string& base, const std::string& key,
                       const std::string& value) {
  return CounterValue(obs::LabeledName(base, key, value));
}

obs::Histogram* HistogramOf(const std::string& name) {
  return obs::MetricsRegistry::Default().GetHistogram(name);
}

double HistogramSum(const std::string& name) {
  return HistogramOf(name)->sum();
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Every per-layer metric with its unit, in report order (the names in
// BENCHMARK.json "per_layer").
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.batch_size.mean", "count"},
      {"serve.forward_ms.mean", "ms"},
      {"serve.shard.skew", "ratio"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cache.evictions", "count"},
      {"serve.stream.backpressure_waits", "count"},
      {"serve.shed_share", "ratio"},
      {"serve.deadline_expired_share", "ratio"},
      {"serve.gen_lag_ms.p99", "ms"},
      {"serve.open_loop.p50_ms", "ms"},
      {"serve.open_loop.p99_ms", "ms"},
      {"text.encode_us_per_pair", "us"},
      {"core.extractor_forward_us_per_pair", "us"},
      {"core.matcher_us_per_pair", "us"},
      {"core.train_epoch_s", "s"},
      {"core.quant_calibrate_s", "s"},
      {"nn.encoder_us_per_pair", "us"},
      {"tensor.gemm.calls.direct", "count"},
      {"tensor.gemm.calls.blocked", "count"},
      {"tensor.gemm.calls.blocked_mt", "count"},
      {"tensor.gemm.ms_sum.tiny", "ms"},
      {"tensor.gemm.ms_sum.small", "ms"},
      {"tensor.gemm.ms_sum.medium", "ms"},
      {"tensor.gemm.ms_sum.large", "ms"},
      {"tensor.qgemm.calls.direct", "count"},
      {"tensor.qgemm.calls.fast", "count"},
      {"tensor.qgemm.calls.exact", "count"},
      {"tensor.qgemm.ms_sum", "ms"},
      {"tensor.train_forward_ms_per_step", "ms"},
      {"tensor.da_loss_ms_per_step", "ms"},
      {"tensor.backward_ms_per_step", "ms"},
      {"tensor.optimizer_step_ms", "ms"},
      {"util.pool.wait_ms.p99", "ms"},
      {"util.pool.run_ms.sum", "ms"},
      {"block.index_build_ms", "ms"},
      {"block.index_probe_ms", "ms"},
      {"block.sign_ms", "ms"},
      {"block.lsh_insert_ms", "ms"},
      {"block.lsh_bucket_ms", "ms"},
      {"block.gen_ms", "ms"},
      {"block.duplicate_ratio", "ratio"},
      {"block.candidates_per_record", "count"},
      {"block.pair_reduction", "ratio"},
      {"dedup.block_ms", "ms"},
      {"dedup.match_ms", "ms"},
      {"block.cluster_ms", "ms"},
      {"trace.wall_ms", "ms"},
      {"trace.remainder_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace

void AddRegistryLayers(Report* report) {
  // serve: batcher, forward, router balance, cache, admission.
  obs::Histogram* batch = HistogramOf("serve.batch.size");
  report->Add("serve.batch_size.mean",
              Ratio(batch->sum(), static_cast<double>(batch->count())),
              "count");
  obs::Histogram* forward = HistogramOf("serve.latency.forward_ms");
  report->Add("serve.forward_ms.mean",
              Ratio(forward->sum(), static_cast<double>(forward->count())),
              "ms");
  std::vector<double> per_shard;
  for (int shard = 0;; ++shard) {
    const std::string name = obs::LabeledName(
        "serve.shard.requests.total", "shard", std::to_string(shard));
    bool registered = false;
    for (const std::string& n : obs::MetricsRegistry::Default().Names()) {
      registered = registered || n == name;
    }
    if (!registered) break;
    per_shard.push_back(static_cast<double>(CounterValue(name)));
  }
  const double shard_mean = Mean(per_shard);
  report->Add("serve.shard.skew",
              per_shard.empty()
                  ? 0.0
                  : Ratio(*std::max_element(per_shard.begin(),
                                            per_shard.end()),
                          shard_mean),
              "ratio");
  const double hits = static_cast<double>(CounterValue("serve.cache.hits.total"));
  const double misses =
      static_cast<double>(CounterValue("serve.cache.misses.total"));
  report->Add("serve.cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Add("serve.cache.evictions",
              static_cast<double>(CounterValue("serve.cache.evictions.total")),
              "count");
  report->Add("serve.stream.backpressure_waits",
              static_cast<double>(
                  CounterValue("serve.stream.backpressure_waits.total")),
              "count");
  const double admitted =
      static_cast<double>(CounterValue("serve.requests.admitted.total"));
  const double shed =
      static_cast<double>(CounterValue("serve.requests.shed.total"));
  report->Add("serve.shed_share", Ratio(shed, admitted + shed), "ratio");
  report->Add("serve.deadline_expired_share",
              Ratio(static_cast<double>(CounterValue(
                        "serve.requests.deadline_expired.total")),
                    admitted),
              "ratio");

  // tensor: GEMM dispatch paths and time by shape class.
  for (const char* path : {"direct", "blocked", "blocked_mt"}) {
    report->Add(std::string("tensor.gemm.calls.") + path,
                static_cast<double>(
                    LabeledCounter("tensor.gemm.kernel.calls", "path", path)),
                "count");
  }
  for (const char* cls : {"tiny", "small", "medium", "large"}) {
    report->Add(std::string("tensor.gemm.ms_sum.") + cls,
                HistogramSum(obs::LabeledName("tensor.gemm.ms", "class", cls)),
                "ms");
  }
  for (const char* path : {"direct", "fast", "exact"}) {
    report->Add(std::string("tensor.qgemm.calls.") + path,
                static_cast<double>(
                    LabeledCounter("tensor.qgemm.kernel.calls", "path", path)),
                "count");
  }
  report->Add("tensor.qgemm.ms_sum", HistogramSum("tensor.qgemm.ms"), "ms");

  // util: the global thread pool.
  obs::Histogram* wait = HistogramOf("threadpool.task.wait_ms");
  report->Add("util.pool.wait_ms.p99",
              wait->count() > 0 ? wait->Quantile(0.99) : 0.0, "ms");
  report->Add("util.pool.run_ms.sum", HistogramSum("threadpool.task.run_ms"),
              "ms");
}

ModelLayerCosts ReplayModelLayers(const core::DaModel& model,
                                  const data::ERDataset& pairs, int64_t batch,
                                  size_t max_pairs) {
  ModelLayerCosts costs;
  const size_t n = std::min(pairs.size(), max_pairs);
  if (n == 0) return costs;
  auto* lm = dynamic_cast<core::LMFeatureExtractor*>(model.extractor.get());
  Rng rng(kModelSeed);
  double encode_ms = 0.0, forward_ms = 0.0, encoder_ms = 0.0, matcher_ms = 0.0;
  for (size_t begin = 0; begin < n; begin += static_cast<size_t>(batch)) {
    const size_t end = std::min(n, begin + static_cast<size_t>(batch));
    std::vector<size_t> indices(end - begin);
    std::iota(indices.begin(), indices.end(), begin);

    auto start = Clock::now();
    const core::EncodedBatch encoded =
        model.extractor->EncodePairs(pairs, indices);
    encode_ms += MsSince(start);

    start = Clock::now();
    const Tensor features = model.extractor->Forward(encoded, &rng).Detach();
    forward_ms += MsSince(start);

    if (lm != nullptr) {
      start = Clock::now();
      lm->encoder()->Forward(encoded.token_ids, encoded.mask, encoded.overlap,
                             encoded.batch, &rng);
      encoder_ms += MsSince(start);
    }

    start = Clock::now();
    model.matcher->PredictProbabilities(features, &rng);
    matcher_ms += MsSince(start);
  }
  const double us_per_pair = 1000.0 / static_cast<double>(n);
  costs.encode_us_per_pair = encode_ms * us_per_pair;
  costs.forward_us_per_pair = forward_ms * us_per_pair;
  costs.encoder_us_per_pair = encoder_ms * us_per_pair;
  costs.matcher_us_per_pair = matcher_ms * us_per_pair;
  return costs;
}

void FillAbsentLayers(Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (!report->Has(name)) report->Add(name, 0.0, unit);
  }
}

// --- the traced table ----------------------------------------------------

void PrintLayerTable(const std::string& workload, double wall_ms,
                     const std::vector<LayerTime>& layers, double traced_ms,
                     double untraced_median_ms, Report* report) {
  std::printf("\n== per-layer time: %s ==\n", workload.c_str());
  std::printf("%-8s %-52s %12s %8s\n", "layer", "source", "ms", "share");
  double sum = 0.0;
  for (const LayerTime& row : layers) {
    if (!row.nested) sum += row.ms;
    const std::string what = (row.nested ? "  " : "") + row.what;
    std::printf("%-8s %-52s %12.3f %7.1f%%\n", row.layer.c_str(),
                what.c_str(), row.ms, 100.0 * Ratio(row.ms, wall_ms));
  }
  std::printf("%-8s %-52s %12.3f %7.1f%%\n", "-", "remainder (wall - layers)",
              wall_ms - sum, 100.0 * Ratio(wall_ms - sum, wall_ms));
  std::printf("%-8s %-52s %12.3f\n", "-", "end-to-end wall", wall_ms);
  std::printf("%-8s %-52s %12.3f (traced %.3f - untraced median %.3f)\n",
              "-", "tracing overhead", traced_ms - untraced_median_ms,
              traced_ms, untraced_median_ms);
  report->Add("trace.wall_ms", wall_ms, "ms");
  report->Add("trace.remainder_ms", wall_ms - sum, "ms");
  report->Add("trace.overhead_ms", traced_ms - untraced_median_ms, "ms");
}

}  // namespace perfbench
