// block_scale: blocking only, over about 85k WA records — the combined
// inverted-index + MinHash/LSH candidate generator, with no matcher.
//
// Without this workload the block layer would be about 2% of dedup_e2e
// and effectively unmeasured. No tensor or serve layer runs here, so it is
// where model-side changes should show nothing.

#include <cstdio>
#include <memory>

#include "block/inverted_index.h"
#include "block/minhash.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A table generation takes about 0.3 s, and single ones vary by +-20%.
constexpr int kSetupRepeats = 7;
// About 85k records and 3.0M candidates: well between two power-of-two
// growth steps of the candidate containers (2^21 and 2^22) at every seed,
// so peak RSS does not jump between seeds. (60k entities, about 102k
// records, put the count on the 2^21 step.) One pass takes about 10 s on a
// 4-core AVX-512 VM.
constexpr int64_t kEntities = 50000;

block::CandidateGenConfig GeneratorConfig() {
  block::CandidateGenConfig config;
  config.sign_threads = static_cast<size_t>(std::min(4, HostThreads()));
  config.minhash.max_bucket_size = 256;
  return config;
}

}  // namespace

BlockLayerTimes ReplayBlockLayers(const data::GeneratedTables& tables,
                                  const block::CandidateGenConfig& config) {
  BlockLayerTimes times;
  block::InvertedIndex index(config.index);
  auto start = Clock::now();
  index.Build(tables.b);
  times.index_build_ms = MsSince(start);

  start = Clock::now();
  size_t probed = 0;
  for (size_t i = 0; i < tables.a.size(); ++i) {
    probed += index.Probe(tables.a.row(i)).size();
  }
  times.index_probe_ms = MsSince(start);

  const block::MinHasher hasher(config.minhash);
  std::unique_ptr<ThreadPool> pool;
  if (config.sign_threads > 1) {
    pool = std::make_unique<ThreadPool>(config.sign_threads);
  }
  start = Clock::now();
  const auto sig_a = hasher.SignTable(tables.a, pool.get());
  const auto sig_b = hasher.SignTable(tables.b, pool.get());
  times.sign_ms = MsSince(start);

  block::LshIndex lsh(config.minhash);
  start = Clock::now();
  for (size_t i = 0; i < sig_a.size(); ++i) {
    lsh.Insert(static_cast<uint32_t>(i), sig_a[i]);
  }
  for (size_t j = 0; j < sig_b.size(); ++j) {
    lsh.Insert(static_cast<uint32_t>(sig_a.size() + j), sig_b[j]);
  }
  times.lsh_insert_ms = MsSince(start);

  start = Clock::now();
  size_t bucketed = 0;
  lsh.ForEachBucket(
      [&](const std::vector<uint32_t>& ids) { bucketed += ids.size(); });
  times.lsh_bucket_ms = MsSince(start);
  std::printf("block replay: %zu probe candidates, %zu LSH buckets holding "
              "%zu ids\n",
              probed, lsh.num_buckets(), bucketed);
  return times;
}

void AddBlockLayers(const BlockLayerTimes& times, double gen_ms,
                    const block::CandidateStats& stats, double records,
                    double pair_reduction, Report* report) {
  report->Add("block.index_build_ms", times.index_build_ms, "ms");
  report->Add("block.index_probe_ms", times.index_probe_ms, "ms");
  report->Add("block.sign_ms", times.sign_ms, "ms");
  report->Add("block.lsh_insert_ms", times.lsh_insert_ms, "ms");
  report->Add("block.lsh_bucket_ms", times.lsh_bucket_ms, "ms");
  report->Add("block.gen_ms", gen_ms, "ms");
  const double surfaced =
      static_cast<double>(stats.index_candidates + stats.lsh_candidates);
  report->Add("block.duplicate_ratio",
              surfaced > 0 ? static_cast<double>(stats.duplicates) / surfaced
                           : 0.0,
              "ratio");
  report->Add("block.candidates_per_record",
              static_cast<double>(stats.emitted) / records, "count");
  report->Add("block.pair_reduction", pair_reduction, "ratio");
}

void RunBlockScale(const Args& args, Report* report) {
  // Set-up is loading the records: generating both tables from the seed.
  data::GeneratedTables tables;
  const double setup_s = TimeSetups(args.trace || args.tiny ? 1 : kSetupRepeats, [&] {
    tables = data::GenerateTables(kTarget, args.tiny ? 2000 : kEntities, args.seed)
                 .ValueOrDie();
  });
  const double records =
      static_cast<double>(tables.a.size() + tables.b.size());
  const double cross = static_cast<double>(tables.a.size()) *
                       static_cast<double>(tables.b.size());
  std::printf("block input: %zu + %zu records, %zu gold matches\n",
              tables.a.size(), tables.b.size(), tables.gold_matches.size());
  const block::CandidateGenConfig config = GeneratorConfig();

  std::vector<block::CandidateStats> stats;
  std::vector<double> recalls;
  auto pass = [&](int) {
    block::CandidateStats s;
    const auto start = Clock::now();
    const std::vector<block::Candidate> candidates =
        block::CollectCandidates(tables.a, tables.b, config, &s);
    const double seconds = MsSince(start) / 1000.0;
    recalls.push_back(block::CandidateRecall(candidates, tables.gold_matches));
    ++report->attempted;
    if (!stats.empty()) {
      report->Check(s.emitted == stats.front().emitted &&
                        s.duplicates == stats.front().duplicates &&
                        recalls.back() == recalls.front(),
                    StrFormat("blocking pass differs from the first: %lld vs "
                              "%lld candidates, recall %.6f vs %.6f",
                              static_cast<long long>(s.emitted),
                              static_cast<long long>(stats.front().emitted),
                              recalls.back(), recalls.front()));
    }
    stats.push_back(s);
    return seconds;
  };

  const std::vector<double> pass_s =
      RunPasses(args.trace ? args.seconds / 2 : args.seconds, pass);
  std::vector<double> pass_ms;
  for (double s : pass_s) pass_ms.push_back(s * 1000.0);
  const double reduction = cross / static_cast<double>(stats.front().emitted);
  report->Check(stats.front().emitted > 0 && recalls.front() > 0.5,
                StrFormat("blocking lost the gold matches (recall %.4f)",
                          recalls.front()));
  std::printf("blocking: %zu passes, pass %s ms; %lld candidates, recall "
              "%.4f, reduction %.1fx\n",
              pass_s.size(), DescribeLatency(pass_ms).c_str(),
              static_cast<long long>(stats.front().emitted), recalls.front(),
              reduction);

  if (!args.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("work_per_s", records / Median(pass_s), "1/s");
    report->Add("latency_p50_ms", Median(pass_ms), "ms");
    report->Add("latency_p99_ms", TailOf(pass_ms).value, "ms");
    report->Add("quality", recalls.front(), "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("block_records_per_s=%.1f block_candidate_recall=%.6f "
                "block_pair_reduction=%.3f\n",
                records / Median(pass_s), recalls.front(), reduction);
    return;
  }

  // Traced pass: one more generator run with the registry zeroed first.
  obs::MetricsRegistry::Default().ResetAllForTest();
  // Everything read from the registry is read before the replay, whose
  // SignTable reports to the same thread-pool histograms.
  const double traced_ms = pass(static_cast<int>(stats.size())) * 1000.0;
  AddRegistryLayers(report);
  const double pool_run_ms = HistogramSum("threadpool.task.run_ms");
  const double gen_ms = HistogramSum("block.candidates.gen_ms");
  const BlockLayerTimes times = ReplayBlockLayers(tables, config);
  AddBlockLayers(times, gen_ms, stats.back(), records, reduction, report);
  PrintLayerTable(
      "block_scale (one GenerateCandidates pass)", traced_ms,
      {{"block", "InvertedIndex::Build replay", times.index_build_ms},
       {"block", "InvertedIndex::Probe replay", times.index_probe_ms},
       {"block", "MinHasher::SignTable replay", times.sign_ms},
       {"block", "LshIndex::Insert replay", times.lsh_insert_ms},
       {"block", "LshIndex::ForEachBucket replay", times.lsh_bucket_ms},
       {"util", "thread-pool task run time (threadpool.task.run_ms)",
        pool_run_ms, true}},
      traced_ms, Median(pass_ms), report);
}

}  // namespace perfbench
