// resnet_train: ResNetConfig::small_bottleneck on 32x32 synthetic images,
// batch 16, SGD with momentum.
//
// It reaches the tensor library through conv, im2col and BatchNorm instead
// of attention, so a GEMM-driver change meets different shapes here than on
// gpt_train, and any regression on them shows.
#include <cmath>

#include "data/synthetic.hpp"
#include "nn/optim.hpp"
#include "shapes.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace caraml::e2e {
namespace {

constexpr float kLearningRate = 0.05f;
constexpr float kMomentum = 0.9f;
constexpr int kWarmupSteps = 2;
constexpr int kLossFinalStep = 20;  // train_loss_final, as for gpt_train

class ResnetTrain : public Workload {
 public:
  explicit ResnetTrain(const Options& options) : options_(options) {}

  Names names() const override {
    return {"train_images_per_s", "img/s", "step_ms"};
  }
  int min_units() const override { return kLossFinalStep - kWarmupSteps; }
  int probe_units() const override { return 6; }

  void setup(Probe& probe) override {
    Rng root(options_.seed);
    Rng init_rng = root.split();
    batch_rng_ = root.split();
    dataset_ = std::make_unique<data::SyntheticImageDataset>(
        shapes::kClasses, shapes::kImageChannels, shapes::kImageSize,
        shapes::kImageSize, root.next_u64());
    model_ = std::make_unique<nn::ResNet>(shapes::resnet_config(), init_rng);
    optimizer_ = std::make_unique<nn::Sgd>(model_->parameters(),
                                           kLearningRate, kMomentum);
    losses_.clear();
    for (int i = 0; i < kWarmupSteps; ++i) step(probe);
  }

  Unit run_unit(Probe& probe) override {
    Unit unit;
    const Stopwatch watch;
    float loss = 0.0f;
    {
      auto span = probe.scope("resnet_train.step");
      loss = step(probe);
    }
    unit.seconds = watch.elapsed_seconds();
    unit.items = static_cast<double>(shapes::kResnetBatch);
    unit.latencies_ms.push_back(unit.seconds * 1e3);
    unit.ok = std::isfinite(loss);
    return unit;
  }

  void check(Checks& checks) override {
    bool finite = true;
    for (float loss : losses_) finite = finite && std::isfinite(loss);
    checks.expect(finite, "resnet_train: every loss is finite");
    checks.expect(static_cast<int>(losses_.size()) >= kLossFinalStep,
                  "resnet_train: ran at least " +
                      std::to_string(kLossFinalStep) + " steps");
    if (static_cast<int>(losses_.size()) >= kLossFinalStep) {
      checks.expect(losses_[kLossFinalStep - 1] < losses_.front(),
                    "resnet_train: loss falls over the first " +
                        std::to_string(kLossFinalStep) + " steps");
    }
  }

  void outputs(Metrics& out) const override {
    if (static_cast<int>(losses_.size()) >= kLossFinalStep) {
      out["train_loss_final"] = {losses_[kLossFinalStep - 1], "nats"};
    }
  }

  void layer_metrics(const Probe& probe, Metrics& out) const override {
    out["data.image_batch_ms"] = {probe.median_ms("data.image_batch"), "ms"};
    out["nn.resnet.forward_ms"] = {probe.median_ms("nn.resnet.forward"), "ms"};
    out["nn.resnet.backward_ms"] = {probe.median_ms("nn.resnet.backward"),
                                    "ms"};
    out["nn.optim.sgd_step_ms"] = {probe.median_ms("nn.optim.sgd_step"), "ms"};
  }

 private:
  float step(Probe& probe) {
    data::SyntheticImageDataset::Batch batch;
    {
      auto span = probe.scope("data.image_batch");
      batch = dataset_->sample_batch(shapes::kResnetBatch, batch_rng_);
    }
    {
      auto span = probe.scope("nn.optim.sgd_zero_grad");
      optimizer_->zero_grad();
    }
    tensor::Tensor logits;
    {
      auto span = probe.scope("nn.resnet.forward");
      logits = model_->forward(batch.images);
    }
    nn::LossResult loss;
    {
      auto span = probe.scope("nn.resnet.loss");
      loss = nn::softmax_cross_entropy(logits, batch.labels);
    }
    {
      auto span = probe.scope("nn.resnet.backward");
      model_->backward(loss.grad_logits);
    }
    {
      auto span = probe.scope("nn.optim.sgd_step");
      optimizer_->step();
    }
    losses_.push_back(loss.loss);
    return loss.loss;
  }

  Options options_;
  std::unique_ptr<data::SyntheticImageDataset> dataset_;
  std::unique_ptr<nn::ResNet> model_;
  std::unique_ptr<nn::Sgd> optimizer_;
  Rng batch_rng_;
  std::vector<float> losses_;
};

}  // namespace

std::unique_ptr<Workload> make_resnet_train(const Options& options) {
  return std::make_unique<ResnetTrain>(options);
}

}  // namespace caraml::e2e
