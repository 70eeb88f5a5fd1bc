// dedup_e2e: raw WA records in, entity clusters out, through
// block::RunDedup — blocking, a StreamSubmitter window into a 2-shard fp32
// ShardedMatchService, and union-find clustering.
//
// Every candidate is a distinct pair (an input comes back only after the
// others have evicted its pairs), so the feature cache never hits:
// this is the workload on which a cache change should show nothing, and
// on which the fp32 extractor forward does most of the work.

#include <cstdio>
#include <memory>
#include <set>

#include "block/pipeline.h"
#include "block/union_find.h"
#include "data/generators.h"
#include "serve/sharded_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kShards = 2;
constexpr int64_t kMaxBatch = 32;
constexpr size_t kQueueCapacity = 256;
constexpr int kSetupRepeats = 2;
// The inputs: kInputs seeded table pairs of kEntities entities each (about
// 255 records and 3.2k candidates; a pass takes about 0.55 s on a 4-core
// AVX-512 VM). Small inputs give a run many passes to take medians over;
// the F1 is pooled over all kInputs, so it rests on as many gold matches
// as 1500 entities hold.
constexpr size_t kInputs = 10;
constexpr int64_t kEntities = 150;

serve::ShardedServeConfig ServiceConfig() {
  serve::ShardedServeConfig config;
  config.num_shards = kShards;
  config.shard.queue_capacity = kQueueCapacity;
  config.shard.max_batch = kMaxBatch;
  config.shard.batch_wait_ms = 0.2;
  config.shard.default_deadline_ms = 120000.0;
  config.shard.feature_cache_capacity = 4096;
  config.shard.seed = kModelSeed;
  return config;
}

block::DedupConfig PipelineConfig() {
  block::DedupConfig config;
  config.queue_capacity = 2048;
  // One shard's queue: even if every in-flight pair routes to the same
  // shard, nothing is shed.
  config.max_in_flight = kQueueCapacity;
  config.deadline_ms = 120000.0;
  // Signing stays sequential (the generator's default): blocking is about
  // 1% of a pass, and a signing pool would only contend with the shards.
  return config;
}

struct State {
  TrainedMatcher trained;  // the model itself moves into the service
  std::unique_ptr<serve::ShardedMatchService> service;
};

std::unique_ptr<State> Setup(const Args& args,
                             const data::GeneratedTables& tables) {
  auto state = std::make_unique<State>();
  state->trained = TrainServingMatcher(args);
  // Kept for the traced run's per-layer replay of the model layers.
  core::DaModel serving =
      core::CloneModel(state->trained.model, kModelSeed).ValueOrDie();
  state->service =
      serve::ShardedMatchService::Create(ServiceConfig(), tables.a.schema(),
                                         tables.b.schema(), std::move(serving))
          .ValueOrDie();
  return state;
}

void CheckSame(const block::DedupResult& first, const block::DedupResult& r,
               Report* report) {
  report->Check(r.candidates.emitted == first.candidates.emitted &&
                    r.candidate_recall == first.candidate_recall &&
                    r.matches == first.matches && r.f1 == first.f1,
                StrFormat("repeated dedup pass differs: candidates %lld vs "
                          "%lld, recall %.6f vs %.6f, matches %lld vs %lld, "
                          "F1 %.6f vs %.6f",
                          static_cast<long long>(r.candidates.emitted),
                          static_cast<long long>(first.candidates.emitted),
                          r.candidate_recall, first.candidate_recall,
                          static_cast<long long>(r.matches),
                          static_cast<long long>(first.matches), r.f1,
                          first.f1));
}

struct Pass {
  block::DedupResult result;
  double seconds = 0.0;
  int64_t true_matches = 0;  // accepted pairs that are gold matches
};

int64_t TrueMatches(const block::DedupResult& r,
                    const data::GeneratedTables& tables) {
  std::set<std::pair<size_t, size_t>> gold(tables.gold_matches.begin(),
                                           tables.gold_matches.end());
  int64_t tp = 0;
  for (const block::Candidate& m : r.matched_pairs) {
    tp += static_cast<int64_t>(gold.count({m.a, m.b}));
  }
  return tp;
}

}  // namespace

void RunDedupE2e(const Args& args, Report* report) {
  // One more table pair warms the process up: a pass over an input the
  // feature cache already holds would hit it.
  const size_t num_inputs = args.tiny ? 2 : kInputs;
  std::vector<data::GeneratedTables> inputs;
  for (size_t p = 0; p <= num_inputs; ++p) {
    inputs.push_back(data::GenerateTables(kTarget, args.tiny ? 100 : kEntities,
                                          args.seed * 16 + p)
                         .ValueOrDie());
  }
  const data::GeneratedTables warm_up_input = std::move(inputs.back());
  inputs.pop_back();
  std::printf("dedup input: %zu table pairs of about %zu + %zu records\n",
              inputs.size(), inputs[0].a.size(), inputs[0].b.size());

  std::unique_ptr<State> state;
  const double setup_s = TimeSetups(args.trace || args.tiny ? 1 : kSetupRepeats, [&] {
    state.reset();
    state = Setup(args, inputs[0]);
  });
  const block::DedupConfig config = PipelineConfig();

  auto run_pass = [&](const data::GeneratedTables& tables) {
    Pass pass;
    const auto start = Clock::now();
    pass.result = block::RunDedup(tables.a, tables.b, &tables.gold_matches,
                                  state->service.get(), config)
                      .ValueOrDie();
    pass.seconds = MsSince(start) / 1000.0;
    pass.true_matches = TrueMatches(pass.result, tables);
    report->attempted +=
        pass.result.responses_ok + pass.result.responses_failed;
    report->failed += pass.result.responses_failed;
    return pass;
  };

  // An untimed warm-up pass (the first pass of a process runs about 30%
  // slower), then passes that cycle through the inputs until the time is
  // up, at least once through all of them and back to the first. Every
  // pass over an input must repeat the counts and quality of the input's
  // first pass exactly. An input comes back only after all the others,
  // whose candidates have evicted its own from the feature cache, so no
  // pass hits the cache.
  run_pass(warm_up_input);
  std::vector<Pass> first;  // first pass over each input
  std::vector<double> rates, pass_ms;
  const auto phase_start = Clock::now();
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  size_t n = 0;
  for (; n <= num_inputs || MsSince(phase_start) / 1000.0 +
                                 Median(pass_ms) / 2000.0 < phase_s;
       ++n) {
    const size_t t = n % num_inputs;
    const Pass pass = run_pass(inputs[t]);
    const double records = static_cast<double>(inputs[t].a.size() +
                                               inputs[t].b.size());
    rates.push_back(records / pass.seconds);
    pass_ms.push_back(pass.seconds * 1000.0);
    report->Check(pass.result.candidate_recall > 0.0,
                  "dedup produced no candidates");
    if (n < num_inputs) {
      first.push_back(pass);
      std::printf("input %zu: %zu records, %lld candidates, recall %.4f, "
                  "reduction %.1fx, F1 %.4f\n",
                  t, inputs[t].a.size() + inputs[t].b.size(),
                  static_cast<long long>(pass.result.candidates.emitted),
                  pass.result.candidate_recall, pass.result.pair_reduction,
                  pass.result.f1);
    } else {
      CheckSame(first[t].result, pass.result, report);
    }
  }
  int64_t tp = 0, accepted = 0, gold = 0;
  for (size_t t = 0; t < num_inputs; ++t) {
    tp += first[t].true_matches;
    accepted += first[t].result.matches;
    gold += static_cast<int64_t>(inputs[t].gold_matches.size());
  }
  const double precision = accepted > 0 ? static_cast<double>(tp) / accepted : 0;
  const double recall = gold > 0 ? static_cast<double>(tp) / gold : 0.0;
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0;
  report->Check(f1 > 0.0, "dedup found no true match");
  std::printf("dedup: %zu passes over %zu inputs, pass %s ms, records/s "
              "median %.1f, pooled P %.4f R %.4f F1 %.6f, %lld cache hits\n",
              pass_ms.size(), num_inputs, DescribeLatency(pass_ms).c_str(),
              Median(rates), precision, recall, f1,
              static_cast<long long>(CounterValue("serve.cache.hits.total")));

  if (!args.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("work_per_s", Median(rates), "1/s");
    report->Add("latency_p50_ms", Median(pass_ms), "ms");
    report->Add("latency_p99_ms", TailOf(pass_ms).value, "ms");
    report->Add("quality", f1, "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("dedup_records_per_s=%.1f dedup_f1=%.6f\n", Median(rates), f1);
    return;
  }

  // Traced pass: the next input of the cycle once more, with the registry
  // zeroed first. Everything read from the registry is read before any
  // replay.
  const size_t traced_input = n % num_inputs;
  obs::MetricsRegistry::Default().ResetAllForTest();
  const Pass repeat = run_pass(inputs[traced_input]);
  CheckSame(first[traced_input].result, repeat.result, report);
  AddRegistryLayers(report);
  obs::Histogram* queue = HistogramOf("serve.latency.queue_ms");
  report->Add("serve.queue_wait_ms.p50", queue->Quantile(0.5), "ms");
  report->Add("serve.queue_wait_ms.p99", queue->Quantile(0.99), "ms");
  double gemm_ms = 0.0;
  for (const char* cls : {"tiny", "small", "medium", "large"}) {
    gemm_ms += HistogramSum(obs::LabeledName("tensor.gemm.ms", "class", cls));
  }
  const double gen_ms = HistogramSum("block.candidates.gen_ms");

  const data::GeneratedTables& tables = inputs[traced_input];
  const double records =
      static_cast<double>(tables.a.size() + tables.b.size());
  const block::DedupResult& traced = repeat.result;
  const double traced_ms = repeat.seconds * 1000.0;

  const auto cluster_start = Clock::now();
  block::UnionFind uf(tables.a.size() + tables.b.size());
  for (const block::Candidate& m : traced.matched_pairs) {
    uf.Union(m.a, static_cast<uint32_t>(tables.a.size()) + m.b);
  }
  const size_t clusters = uf.Clusters(2).size();
  const double cluster_ms = MsSince(cluster_start);
  report->Check(clusters == traced.clusters,
                "union-find replay disagrees with the pipeline's clusters");

  const BlockLayerTimes block = ReplayBlockLayers(tables, config.candidates);
  AddBlockLayers(block, gen_ms, traced.candidates, records,
                 traced.pair_reduction, report);
  report->Add("dedup.block_ms", traced.block_ms, "ms");
  report->Add("dedup.match_ms", traced.match_ms, "ms");
  report->Add("block.cluster_ms", cluster_ms, "ms");

  std::vector<std::pair<data::Record, data::Record>> pairs;
  for (const block::Candidate& c :
       block::CollectCandidates(tables.a, tables.b, config.candidates)) {
    if (pairs.size() >= 2048) break;
    pairs.emplace_back(tables.a.row(c.a), tables.b.row(c.b));
  }
  const ModelLayerCosts costs = ReplayModelLayers(
      state->trained.model,
      PairsDataset(tables.a.schema(), tables.b.schema(), pairs), kMaxBatch,
      pairs.size());
  report->Add("text.encode_us_per_pair", costs.encode_us_per_pair, "us");
  report->Add("core.extractor_forward_us_per_pair", costs.forward_us_per_pair,
              "us");
  report->Add("nn.encoder_us_per_pair", costs.encoder_us_per_pair, "us");
  report->Add("core.matcher_us_per_pair", costs.matcher_us_per_pair, "us");

  // CPU work of the model layers over every candidate; the two shards run
  // in parallel, so these can add up to more than the match time.
  const double per_candidate_ms =
      static_cast<double>(traced.candidates.emitted) / 1000.0;
  PrintLayerTable(
      "dedup_e2e (one RunDedup pass over one input)", traced_ms,
      {{"block", "candidate generation (concurrent with match)",
        traced.block_ms, true},
       {"block", "InvertedIndex::Build replay", block.index_build_ms, true},
       {"block", "InvertedIndex::Probe replay", block.index_probe_ms, true},
       {"block", "MinHasher::SignTable replay", block.sign_ms, true},
       {"block", "LshIndex::Insert replay", block.lsh_insert_ms, true},
       {"block", "LshIndex::ForEachBucket replay", block.lsh_bucket_ms, true},
       {"serve", "match: stream into the service (match_ms)", traced.match_ms},
       {"text", "EncodePairs x candidates",
        costs.encode_us_per_pair * per_candidate_ms, true},
       {"core", "extractor Forward x candidates",
        costs.forward_us_per_pair * per_candidate_ms, true},
       {"nn", "TransformerEncoder::Forward x candidates",
        costs.encoder_us_per_pair * per_candidate_ms, true},
       {"core", "Matcher::PredictProbabilities x candidates",
        costs.matcher_us_per_pair * per_candidate_ms, true},
       {"tensor", "fp32 GEMM (tensor.gemm.ms, all classes)", gemm_ms, true},
       {"block", "cluster (UnionFind replay)", cluster_ms}},
      traced_ms, Median(pass_ms), report);
}

}  // namespace perfbench
