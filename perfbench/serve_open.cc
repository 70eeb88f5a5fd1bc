// serve_open: the online matching path.
//
// Set-up trains the AB -> WA matcher (MMD), then starts a 2-shard
// ShardedMatchService with the feature cache on and int8 quantization at
// start-up, and computes a reference label for every pool pair by direct
// public calls on an identically quantized copy of the model.
//
// Measured phase:
//   1. a seeded Poisson open loop at kOfferedRps: one generator thread
//      submits on schedule; each request's latency counts from the time it
//      was due, so a stall shows up in the tail;
//   2. a single-threaded closed loop with kClosedWindow requests in
//      flight (below one shard's queue capacity, so nothing is shed),
//      which gives the throughput.
// Pairs are drawn Zipf-skewed from a pool four times larger than the
// total cache capacity, so cache hits, misses and LRU evictions all occur.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <thread>

#include "core/quantize.h"
#include "data/generators.h"
#include "serve/sharded_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

// About half of the lowest closed-loop rps a 4-core AVX-512 VM showed under
// noisy neighbours (19k req/s; 50-67k is typical). At 25k the service fell
// behind the schedule whenever the host slowed, and the latency of those
// runs measured the backlog, not the service.
constexpr double kOfferedRps = 10000.0;
constexpr int kShards = 2;
// Absorbs a 40 ms stall of a shard at the offered rate without shedding.
// (At 4096 the open-loop p99 rose 3-4x on the tuning host.)
constexpr size_t kQueueCapacity = 1024;
constexpr int64_t kMaxBatch = 32;
constexpr size_t kCachePerShard = 1024;
constexpr size_t kPoolPairs = 4 * kShards * kCachePerShard;
constexpr size_t kClosedWindow = 128;
constexpr double kZipfExponent = 1.0;
constexpr int kSetupRepeats = 2;
// Latency quantiles and the closed loop's rate are medians over
// consecutive windows, so a host hiccup in one window cannot move them.
constexpr size_t kLatencyWindows = 45;  // open loop, by due time
constexpr double kRateWindowMs = 250.0;  // closed loop, by completion time
// A generator that is late on a typical send, or very late on the tail,
// fell behind its schedule: the run measured the load generator, not the
// service, and is invalid. Isolated multi-ms lags are host scheduling
// hiccups that also delay the service, so they stay in the latency tail.
constexpr double kMaxGenLagP50Ms = 1.0;
constexpr double kMaxGenLagP99Ms = 50.0;

struct Inputs {
  data::Schema schema_a;
  data::Schema schema_b;
  std::vector<std::pair<data::Record, data::Record>> pool;
  std::vector<double> zipf_cdf;      // over popularity ranks
  std::vector<size_t> rank_to_pool;  // rank -> pool index
};

Inputs MakeInputs(const Args& args) {
  const size_t pool_size = args.tiny ? 512 : kPoolPairs;
  auto tables =
      data::GenerateTables(kTarget, args.tiny ? 400 : 6000, args.seed)
          .ValueOrDie();
  Inputs in;
  in.schema_a = tables.a.schema();
  in.schema_b = tables.b.schema();
  Rng rng(args.seed ^ 0x5e7fe0ULL);
  // Half gold matches, half random cross-table pairs.
  for (size_t i = 0; i < pool_size; ++i) {
    size_t ra, rb;
    if (i % 2 == 0 && !tables.gold_matches.empty()) {
      const auto& g =
          tables.gold_matches[rng.NextBelow(tables.gold_matches.size())];
      ra = g.first;
      rb = g.second;
    } else {
      ra = rng.NextBelow(tables.a.size());
      rb = rng.NextBelow(tables.b.size());
    }
    in.pool.emplace_back(tables.a.row(ra), tables.b.row(rb));
  }
  double total = 0.0;
  for (size_t r = 0; r < pool_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    in.zipf_cdf.push_back(total);
  }
  for (double& c : in.zipf_cdf) c /= total;
  in.rank_to_pool.resize(pool_size);
  std::iota(in.rank_to_pool.begin(), in.rank_to_pool.end(), 0);
  rng.Shuffle(&in.rank_to_pool);
  return in;
}

size_t DrawPair(const Inputs& in, Rng* rng) {
  const double u = rng->NextDouble();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u) -
      in.zipf_cdf.begin());
  return in.rank_to_pool[std::min(rank, in.rank_to_pool.size() - 1)];
}

serve::ShardedServeConfig ServiceConfig(const Args& args,
                                        const data::ERDataset* calib) {
  serve::ShardedServeConfig config;
  config.num_shards = kShards;
  config.shard.queue_capacity = kQueueCapacity;
  config.shard.max_batch = kMaxBatch;
  config.shard.batch_wait_ms = 0.2;
  config.shard.default_deadline_ms = 60000.0;
  config.shard.feature_cache_capacity = args.tiny ? 64 : kCachePerShard;
  config.shard.seed = kModelSeed;
  config.shard.quantize = true;
  config.shard.quant_calib = calib;
  return config;
}

// Everything set-up builds; rebuilt from scratch by every set-up repeat.
struct State {
  std::unique_ptr<core::DaTask> task;  // calibration pairs outlive the service
  std::unique_ptr<serve::ShardedMatchService> service;
  core::DaModel reference;             // quantized like the service's model
  std::vector<int> reference_labels;   // per pool pair
  double quant_calibrate_s = 0.0;
};

std::unique_ptr<State> Setup(const Args& args, const Inputs& in) {
  auto state = std::make_unique<State>();
  TrainedMatcher trained = TrainServingMatcher(args);
  state->task = std::make_unique<core::DaTask>(std::move(trained.task));
  state->reference = core::CloneModel(trained.model, kModelSeed).ValueOrDie();
  state->reference.extractor->SetTraining(false);  // clones start in training
  state->reference.matcher->SetTraining(false);
  const serve::ShardedServeConfig config =
      ServiceConfig(args, &state->task->source);

  const auto start = Clock::now();
  state->service =
      serve::ShardedMatchService::Create(config, in.schema_a, in.schema_b,
                                         std::move(trained.model))
          .ValueOrDie();
  state->quant_calibrate_s = MsSince(start) / 1000.0;

  serve::MatchService::QuantizeForServing(config.shard, &state->reference)
      .CheckOK();
  const data::ERDataset pairs = PairsDataset(in.schema_a, in.schema_b, in.pool);
  Rng rng(kModelSeed);
  for (size_t begin = 0; begin < pairs.size();
       begin += static_cast<size_t>(kMaxBatch)) {
    const size_t end =
        std::min(pairs.size(), begin + static_cast<size_t>(kMaxBatch));
    std::vector<size_t> indices(end - begin);
    std::iota(indices.begin(), indices.end(), begin);
    const Tensor features =
        state->reference.extractor
            ->Forward(state->reference.extractor->EncodePairs(pairs, indices),
                      &rng)
            .Detach();
    for (float p :
         state->reference.matcher->PredictProbabilities(features, &rng)) {
      state->reference_labels.push_back(p >= 0.5f ? 1 : 0);
    }
  }
  return state;
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;      // non-OK responses
  int64_t mismatched = 0;  // OK responses whose label differs from reference
  std::vector<double> latency_ms;  // open loop: from due time to response
  std::vector<double> lag_ms;      // open loop: send time - due time
  std::vector<double> queue_ms;    // MatchResponse::queue_ms
  // Closed loop, OK responses: (completion ms since start, total_ms).
  std::vector<std::pair<double, double>> done;
  double wall_s = 0.0;

  void Record(const serve::MatchResponse& r, int reference_label) {
    ++attempted;
    if (!r.status.ok()) {
      ++failed;
      return;
    }
    mismatched += r.label != reference_label ? 1 : 0;
    queue_ms.push_back(r.queue_ms);
  }
};

serve::MatchRequest RequestFor(const Inputs& in, size_t idx) {
  serve::MatchRequest request;
  request.a = in.pool[idx].first;
  request.b = in.pool[idx].second;
  return request;
}

Outcome RunOpenLoop(const State& state, const Inputs& in, double seconds,
                    Rng* rng) {
  const size_t n = static_cast<size_t>(std::ceil(kOfferedRps * seconds));
  std::vector<double> due_ms(n);
  std::vector<size_t> pair(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng->NextDouble()) / kOfferedRps * 1000.0;
    due_ms[i] = t;
    pair[i] = DrawPair(in, rng);
  }
  std::vector<std::future<serve::MatchResponse>> futures(n);
  std::vector<double> lag_ms(n);
  std::atomic<size_t> published{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(due_ms[i]));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      futures[i] = state.service->SubmitAsync(RequestFor(in, pair[i]));
      lag_ms[i] = std::chrono::duration<double, std::milli>(sent - due).count();
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });
  Outcome out;
  for (size_t i = 0; i < n; ++i) {
    for (size_t seen = published.load(std::memory_order_acquire); seen <= i;
         seen = published.load(std::memory_order_acquire)) {
      published.wait(seen, std::memory_order_acquire);
    }
    const serve::MatchResponse r = futures[i].get();
    out.Record(r, state.reference_labels[pair[i]]);
    if (r.status.ok()) out.latency_ms.push_back(lag_ms[i] + r.total_ms);
  }
  generator.join();
  out.wall_s = MsSince(t0) / 1000.0;
  out.lag_ms = std::move(lag_ms);
  return out;
}

Outcome RunClosedLoop(const State& state, const Inputs& in, double seconds,
                      Rng* rng) {
  Outcome out;
  std::deque<std::pair<size_t, std::future<serve::MatchResponse>>> window;
  const auto start = Clock::now();
  auto complete_oldest = [&] {
    auto& [idx, future] = window.front();
    const serve::MatchResponse r = future.get();
    out.Record(r, state.reference_labels[idx]);
    if (r.status.ok()) out.done.emplace_back(MsSince(start), r.total_ms);
    window.pop_front();
  };
  while (MsSince(start) < seconds * 1000.0) {
    if (window.size() >= kClosedWindow) complete_oldest();
    const size_t idx = DrawPair(in, rng);
    window.emplace_back(idx, state.service->SubmitAsync(RequestFor(in, idx)));
  }
  while (!window.empty()) complete_oldest();
  out.wall_s = MsSince(start) / 1000.0;
  return out;
}

// Median over kLatencyWindows consecutive (by due time) windows of each
// window's p50 and tail.
std::pair<double, double> WindowedLatency(const std::vector<double>& latency) {
  std::vector<double> p50, tail;
  const size_t per = std::max<size_t>(1, latency.size() / kLatencyWindows);
  for (size_t begin = 0; begin + per <= latency.size(); begin += per) {
    const std::vector<double> window(latency.begin() + begin,
                                     latency.begin() + begin + per);
    p50.push_back(Median(window));
    tail.push_back(TailOf(window).value);
  }
  return {Median(p50), Median(tail)};
}

// Medians over the full kRateWindowMs windows of a closed loop: of the
// completion rate, and of each window's p50 and tail of MatchResponse
// total_ms.
struct ClosedFigures {
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
ClosedFigures WindowedClosed(const Outcome& closed) {
  std::vector<std::vector<double>> windows(
      std::max<size_t>(1, static_cast<size_t>(closed.wall_s * 1000.0 /
                                              kRateWindowMs)));
  for (const auto& [t, total_ms] : closed.done) {
    const size_t w = static_cast<size_t>(t / kRateWindowMs);
    if (w < windows.size()) windows[w].push_back(total_ms);
  }
  std::vector<double> rates, p50, tail;
  for (const std::vector<double>& w : windows) {
    rates.push_back(static_cast<double>(w.size()) * 1000.0 / kRateWindowMs);
    p50.push_back(Median(w));
    tail.push_back(TailOf(w).value);
  }
  return {Median(rates), Median(p50), Median(tail)};
}

// Adds the phase's counts to `report` and checks its labels; false when
// the open-loop generator fell behind (the run is invalid).
bool CheckOutcome(const Outcome& o, const char* phase, Report* report) {
  report->attempted += o.attempted;
  report->failed += o.failed;
  report->Check(o.mismatched == 0,
                StrFormat("%s: %lld OK labels differ from the reference",
                          phase, static_cast<long long>(o.mismatched)));
  if (!o.lag_ms.empty()) {
    std::printf("%s: generator lag %s ms\n", phase,
                DescribeLatency(o.lag_ms).c_str());
    const double lag_p50 = Median(o.lag_ms);
    const double lag_p99 = Quantile(o.lag_ms, 0.99);
    if (lag_p50 > kMaxGenLagP50Ms || lag_p99 > kMaxGenLagP99Ms) {
      report->invalid = StrFormat(
          "the load generator fell behind its schedule (lag p50 %.3f ms, "
          "p99 %.3f ms; limits %.1f / %.1f ms)",
          lag_p50, lag_p99, kMaxGenLagP50Ms, kMaxGenLagP99Ms);
      return false;
    }
  }
  return true;
}

}  // namespace

void RunServeOpen(const Args& args, Report* report) {
  const Inputs in = MakeInputs(args);
  std::unique_ptr<State> state;
  const double setup_s = TimeSetups(args.trace || args.tiny ? 1 : kSetupRepeats, [&] {
    state.reset();
    state = Setup(args, in);
  });

  const serve::ServeStats quant = state->service->stats();
  report->Check(quant.quant_calibrations >= 1 && quant.quant_rollbacks == 0,
                StrFormat("int8 quantization did not engage (calibrations %lld, "
                          "rollbacks %lld)",
                          static_cast<long long>(quant.quant_calibrations),
                          static_cast<long long>(quant.quant_rollbacks)));
  report->Check(core::IsQuantized(state->reference),
                "reference model is not quantized");

  Rng rng(args.seed ^ 0x0be7100bULL);
  const double open_s = args.seconds * 0.45;
  const double closed_s = args.seconds * 0.45;
  // Warm-up: fills the feature cache and the batcher's steady state.
  CheckOutcome(RunClosedLoop(*state, in, args.seconds * 0.1, &rng), "warm-up",
               report);

  const Outcome open = RunOpenLoop(*state, in, open_s, &rng);
  if (!CheckOutcome(open, "open loop", report)) return;
  const Outcome closed = RunClosedLoop(*state, in, closed_s, &rng);
  CheckOutcome(closed, "closed loop", report);
  const ClosedFigures fig = WindowedClosed(closed);
  const auto [open_p50, open_p99] = WindowedLatency(open.latency_ms);
  std::printf("open loop at %.0f req/s: %zu requests, latency from the due "
              "time %s; median of %zu windows: p50 %.4f p99 %.4f ms\n",
              kOfferedRps, open.latency_ms.size(),
              DescribeLatency(open.latency_ms).c_str(), kLatencyWindows,
              open_p50, open_p99);
  std::printf("closed loop (window %zu): %lld requests in %.3f s; medians "
              "over %.0f ms windows: %.1f req/s, latency p50 %.4f p99 %.4f "
              "ms\n",
              kClosedWindow, static_cast<long long>(closed.attempted),
              closed.wall_s, kRateWindowMs, fig.rps, fig.p50_ms, fig.p99_ms);

  if (!args.trace) {
    const double ok = static_cast<double>(open.attempted - open.failed +
                                          closed.attempted - closed.failed);
    const double agree =
        ok > 0 ? (ok - static_cast<double>(open.mismatched + closed.mismatched)) /
                     ok
               : 0.0;
    report->Add("setup_s", setup_s, "s");
    report->Add("work_per_s", fig.rps, "1/s");
    report->Add("latency_p50_ms", fig.p50_ms, "ms");
    report->Add("latency_p99_ms", fig.p99_ms, "ms");
    report->Add("quality", agree, "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("serve_rps=%.1f serve_p50_ms=%.4f serve_p99_ms=%.4f "
                "(closed loop); open loop p50 %.4f p99 %.4f ms\n",
                fig.rps, fig.p50_ms, fig.p99_ms, open_p50, open_p99);
    return;
  }

  // Traced pass: the same open + closed phases with the registry zeroed
  // first, so every exported counter describes exactly this pass.
  obs::MetricsRegistry::Default().ResetAllForTest();
  const Outcome t_open = RunOpenLoop(*state, in, open_s, &rng);
  if (!CheckOutcome(t_open, "traced open loop", report)) return;
  const Outcome t_closed = RunClosedLoop(*state, in, closed_s, &rng);
  CheckOutcome(t_closed, "traced closed loop", report);
  AddRegistryLayers(report);

  std::vector<double> queue = t_open.queue_ms;
  queue.insert(queue.end(), t_closed.queue_ms.begin(), t_closed.queue_ms.end());
  report->Add("serve.queue_wait_ms.p50", Median(queue), "ms");
  report->Add("serve.queue_wait_ms.p99", TailOf(queue).value, "ms");
  report->Add("serve.gen_lag_ms.p99", TailOf(t_open.lag_ms).value, "ms");
  const auto [t_open_p50, t_open_p99] = WindowedLatency(t_open.latency_ms);
  report->Add("serve.open_loop.p50_ms", t_open_p50, "ms");
  report->Add("serve.open_loop.p99_ms", t_open_p99, "ms");
  report->Add("core.quant_calibrate_s", state->quant_calibrate_s, "s");

  // Per-request attribution of the open loop's mean latency. Everything
  // read from the registry is read before the replay, which runs qgemm too.
  obs::Histogram* batch = HistogramOf("serve.batch.size");
  const double mean_batch =
      batch->count() > 0 ? batch->sum() / static_cast<double>(batch->count())
                         : 0.0;
  obs::Histogram* fwd = HistogramOf("serve.latency.forward_ms");
  const double forward_ms =
      fwd->count() > 0 ? fwd->sum() / static_cast<double>(fwd->count()) : 0.0;
  const double hits = static_cast<double>(CounterValue("serve.cache.hits.total"));
  const double misses =
      static_cast<double>(CounterValue("serve.cache.misses.total"));
  const double miss_share = hits + misses > 0 ? misses / (hits + misses) : 1.0;
  const double qgemm_per_batch_ms =
      fwd->count() > 0 ? HistogramSum("tensor.qgemm.ms") /
                             static_cast<double>(fwd->count())
                       : 0.0;

  const data::ERDataset pairs = PairsDataset(in.schema_a, in.schema_b, in.pool);
  const ModelLayerCosts costs =
      ReplayModelLayers(state->reference, pairs, kMaxBatch, 2048);
  report->Add("text.encode_us_per_pair", costs.encode_us_per_pair, "us");
  report->Add("core.extractor_forward_us_per_pair", costs.forward_us_per_pair,
              "us");
  report->Add("nn.encoder_us_per_pair", costs.encoder_us_per_pair, "us");
  report->Add("core.matcher_us_per_pair", costs.matcher_us_per_pair, "us");

  const double per_batch_misses = mean_batch * miss_share / 1000.0;
  PrintLayerTable(
      "serve_open (mean open-loop request latency)", Mean(t_open.latency_ms),
      {{"serve", "load generator lag (send - due)", Mean(t_open.lag_ms)},
       {"serve", "queue wait (MatchResponse::queue_ms)", Mean(t_open.queue_ms)},
       {"serve", "batch forward (serve.latency.forward_ms)", forward_ms},
       {"text", "EncodePairs x batch misses",
        costs.encode_us_per_pair * per_batch_misses, true},
       {"core", "extractor Forward x batch misses",
        costs.forward_us_per_pair * per_batch_misses, true},
       {"nn", "TransformerEncoder::Forward x batch misses",
        costs.encoder_us_per_pair * per_batch_misses, true},
       {"core", "Matcher::PredictProbabilities x batch",
        costs.matcher_us_per_pair * mean_batch / 1000.0, true},
       {"tensor", "int8 GEMM per batch (tensor.qgemm.ms)", qgemm_per_batch_ms,
        true}},
      Mean(t_open.latency_ms), Mean(open.latency_ms), report);
}

}  // namespace perfbench
