// da_train: Algorithm 2 (InvGAN+KD) AB -> WA at smoke scale, the re-train
// a new target domain triggers. LM pretraining is set-up; the timed part is
// core::RunSingleDa.
//
// It shares the tensor/nn layers with serving but adds the autograd tape,
// the backward GEMMs, the optimizer and intra-op thread fan-out, so a
// change to inference mode or GEMM threading that slows training shows
// here.
//
// The adaptation task is fixed (kTaskSeed): Algorithm 2's target F1 moves
// by about +-0.1 across generated tasks, far wider than any usable bound,
// so the task is part of the program under test and must give the same
// F1 on every run.

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/matcher.h"
#include "tensor/nn_ops.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kReplaySteps = 20;

struct State {
  core::DaTask task;
  core::DaModel pretrained;  // every pass adapts a fresh copy
};

std::unique_ptr<State> Setup(const Args& args) {
  const core::ExperimentScale scale = BenchScale();
  auto state = std::make_unique<State>();
  UseFreshPretrainCache(args);
  state->task =
      core::BuildDaTask(kSource, kTarget, scale, kTaskSeed).ValueOrDie();
  state->pretrained = core::BuildModel(core::ExtractorKind::kLM, scale,
                                       /*pretrained=*/true, kModelSeed)
                          .ValueOrDie();
  return state;
}

// Pairs one adaptation epoch of Algorithm 2 feeds through F': every step
// takes one source and one target batch, one step per source batch.
double PairsPerEpoch(const core::DaTask& t) {
  return 2.0 * static_cast<double>(t.source.size());
}

struct StepTimes {
  double forward_ms = 0.0;
  double da_loss_ms = 0.0;
  double backward_ms = 0.0;
  double optimizer_ms = 0.0;
};

// Replays kReplaySteps generator steps of InvGAN+KD through public calls:
// teacher F and matcher M frozen, student F' and discriminator A trained.
StepTimes ReplayTrainingSteps(const core::ExperimentScale& scale,
                              const State& state) {
  const core::DaderConfig& cfg = scale.model;
  core::DaModel student = core::CloneModel(state.pretrained, 7).ValueOrDie();
  student.extractor->SetTraining(true);
  core::DomainDiscriminator disc(student.extractor->feature_dim(),
                                 cfg.disc_hidden, /*deep=*/true, 11);
  AdamOptimizer opt_fp(student.extractor->Parameters(), cfg.learning_rate);
  AdamOptimizer opt_d(disc.Parameters(), cfg.learning_rate);
  Rng rng(kModelSeed);
  const size_t batch = static_cast<size_t>(cfg.batch_size);
  std::vector<double> fwd, loss, bwd, optim;
  for (int step = 0; step < kReplaySteps; ++step) {
    std::vector<size_t> src(batch), tgt(batch);
    for (size_t i = 0; i < batch; ++i) {
      src[i] = (static_cast<size_t>(step) * batch + i) % state.task.source.size();
      tgt[i] = (static_cast<size_t>(step) * batch + i) %
               state.task.target_unlabeled.size();
    }
    auto start = Clock::now();
    const core::EncodedBatch bs =
        student.extractor->EncodePairs(state.task.source, src);
    const core::EncodedBatch bt =
        student.extractor->EncodePairs(state.task.target_unlabeled, tgt);
    Tensor real = student.extractor->Forward(bs, &rng).Detach();
    Tensor fake = student.extractor->Forward(bt, &rng);
    Tensor d_real = disc.Forward(real, &rng);
    Tensor d_fake = disc.Forward(fake.Detach(), &rng);
    Tensor d_fooled = disc.Forward(fake, &rng);
    Tensor teacher =
        state.pretrained.matcher
            ->Forward(state.pretrained.extractor->Forward(bs, &rng).Detach(),
                      &rng)
            .Detach();
    Tensor student_logits =
        state.pretrained.matcher->Forward(student.extractor->Forward(bs, &rng),
                                          &rng);
    fwd.push_back(MsSince(start));

    start = Clock::now();
    const std::vector<float> ones(batch, 1.0f), zeros(batch, 0.0f);
    Tensor loss_d = ops::MulScalar(
        ops::Add(ops::BinaryCrossEntropyWithLogits(d_real, ones),
                 ops::BinaryCrossEntropyWithLogits(d_fake, zeros)),
        0.5f);
    Tensor loss_fp = ops::Add(
        ops::BinaryCrossEntropyWithLogits(d_fooled, ones),
        ops::KnowledgeDistillationLoss(student_logits, teacher,
                                       cfg.kd_temperature));
    loss.push_back(MsSince(start));

    start = Clock::now();
    opt_d.ZeroGrad();
    loss_d.Backward();
    opt_fp.ZeroGrad();
    loss_fp.Backward();
    bwd.push_back(MsSince(start));

    start = Clock::now();
    opt_d.ClipGradNorm(cfg.grad_clip_norm);
    opt_d.Step();
    opt_fp.ClipGradNorm(cfg.grad_clip_norm);
    opt_fp.Step();
    optim.push_back(MsSince(start));
  }
  return {Median(fwd), Median(loss), Median(bwd), Median(optim)};
}

}  // namespace

void RunDaTrain(const Args& args, Report* report) {
  const core::ExperimentScale scale = BenchScale();
  std::unique_ptr<State> state;
  const double setup_s = TimeSetups(args.trace || args.tiny ? 1 : kSetupRepeats, [&] {
    state.reset();
    state = Setup(args);
  });
  const double pairs_per_epoch = PairsPerEpoch(state->task);

  std::vector<double> f1s;
  std::vector<double> epoch_marks_ms;  // EpochCallback times since pass start
  // Adaptation-epoch times (between consecutive EpochCallbacks) of every
  // pass; the first epoch of a pass also holds source pretraining.
  std::vector<double> epoch_ms;
  auto pass = [&](int) {
    core::DaModel model =
        core::CloneModel(state->pretrained, kModelSeed).ValueOrDie();
    epoch_marks_ms.clear();
    const auto pass_start = Clock::now();
    const core::DaRunOutcome outcome =
        core::RunSingleDa(core::AlignMethod::kInvGANKD, scale, state->task,
                          &model, /*track_source_f1=*/false,
                          [&](const core::EpochStats&) {
                            epoch_marks_ms.push_back(MsSince(pass_start));
                          })
            .ValueOrDie();
    const double seconds = MsSince(pass_start) / 1000.0;
    for (size_t i = 1; i < epoch_marks_ms.size(); ++i) {
      epoch_ms.push_back(epoch_marks_ms[i] - epoch_marks_ms[i - 1]);
    }
    ++report->attempted;
    if (outcome.train.verdict != core::GuardVerdict::kHealthy) ++report->failed;
    f1s.push_back(outcome.test_f1);
    report->Check(f1s.back() == f1s.front(),
                  StrFormat("target F1 %.6f differs from the first pass's "
                            "%.6f",
                            f1s.back(), f1s.front()));
    return seconds;
  };

  const std::vector<double> pass_s =
      RunPasses(args.trace ? args.seconds / 2 : args.seconds, pass);
  report->Check(f1s.front() > 0.0, "adapted matcher finds no target match");
  const double epoch_p50 = Median(epoch_ms);
  const Tail epoch_tail = TailOf(epoch_ms);
  std::printf("da_train: %zu passes of %s s; adaptation epoch %s ms, %.0f "
              "pairs per epoch; target F1 %.4f\n",
              pass_s.size(), DescribeLatency(pass_s).c_str(),
              DescribeLatency(epoch_ms).c_str(), pairs_per_epoch,
              f1s.front());

  if (!args.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("work_per_s", pairs_per_epoch / (epoch_p50 / 1000.0), "1/s");
    report->Add("latency_p50_ms", epoch_p50, "ms");
    report->Add("latency_p99_ms", epoch_tail.value, "ms");
    report->Add("quality", f1s.front(), "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("train_pairs_per_s=%.1f train_target_f1=%.6f\n",
                pairs_per_epoch / (epoch_p50 / 1000.0), f1s.front());
    return;
  }

  // Traced pass: one more run with the registry zeroed first.
  obs::MetricsRegistry::Default().ResetAllForTest();
  const double traced_ms = pass(static_cast<int>(f1s.size())) * 1000.0;
  AddRegistryLayers(report);
  std::vector<double> epoch_s;
  for (size_t i = 1; i < epoch_marks_ms.size(); ++i) {
    epoch_s.push_back((epoch_marks_ms[i] - epoch_marks_ms[i - 1]) / 1000.0);
  }
  report->Add("core.train_epoch_s", Median(epoch_s), "s");
  const StepTimes step = ReplayTrainingSteps(scale, *state);
  report->Add("tensor.train_forward_ms_per_step", step.forward_ms, "ms");
  report->Add("tensor.da_loss_ms_per_step", step.da_loss_ms, "ms");
  report->Add("tensor.backward_ms_per_step", step.backward_ms, "ms");
  report->Add("tensor.optimizer_step_ms", step.optimizer_ms, "ms");

  const double first_ms = epoch_marks_ms.empty() ? 0.0 : epoch_marks_ms.front();
  const double later_ms =
      epoch_marks_ms.empty() ? 0.0 : epoch_marks_ms.back() - first_ms;
  // One adaptation step per source batch in each of epochs 2..N.
  const double steps =
      static_cast<double>(epoch_s.size()) *
      std::ceil(static_cast<double>(state->task.source.size()) /
                static_cast<double>(scale.model.batch_size));
  PrintLayerTable(
      "da_train (one RunSingleDa pass)", traced_ms,
      {{"core", "source pretraining + epoch 1 (to 1st EpochCallback)",
        first_ms},
       {"core", "epochs 2..N (between EpochCallbacks)", later_ms},
       {"tensor", "forward x steps of epochs 2..N (replay)",
        step.forward_ms * steps, true},
       {"tensor", "DA + KD losses x steps (replay)", step.da_loss_ms * steps,
        true},
       {"tensor", "backward x steps (replay)", step.backward_ms * steps, true},
       {"tensor", "optimizer x steps (replay)", step.optimizer_ms * steps,
        true}},
      traced_ms, Median(pass_s) * 1000.0, report);
}

}  // namespace perfbench
