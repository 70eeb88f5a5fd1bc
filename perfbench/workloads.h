// The four workloads of the repository benchmark (see README.md for why
// each exists and which layers it stresses). Each runs its set-up, its
// measured phase and its correctness checks, and fills `report` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#pragma once

#include "block/candidate_stream.h"
#include "common.h"
#include "data/generators.h"

namespace perfbench {

void RunServeOpen(const Args& args, Report* report);
void RunDedupE2e(const Args& args, Report* report);
void RunBlockScale(const Args& args, Report* report);
void RunDaTrain(const Args& args, Report* report);

/// \brief Wall time of each blocking stage, replayed through the public
/// block calls on a workload's own tables.
struct BlockLayerTimes {
  double index_build_ms = 0.0;  ///< InvertedIndex::Build over table B
  double index_probe_ms = 0.0;  ///< InvertedIndex::Probe of every A record
  double sign_ms = 0.0;         ///< MinHasher::SignTable over A and B
  double lsh_insert_ms = 0.0;   ///< LshIndex::Insert of every signature
  double lsh_bucket_ms = 0.0;   ///< LshIndex::ForEachBucket over all buckets
};
BlockLayerTimes ReplayBlockLayers(const data::GeneratedTables& tables,
                                  const block::CandidateGenConfig& config);

/// \brief Adds the block.* per-layer metrics: the replayed stage times,
/// `gen_ms` (block.candidates.gen_ms of the traced pass) and the
/// candidate-stream ratios.
void AddBlockLayers(const BlockLayerTimes& times, double gen_ms,
                    const block::CandidateStats& stats, double records,
                    double pair_reduction, Report* report);

}  // namespace perfbench
