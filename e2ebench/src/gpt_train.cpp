// gpt_train: single-worker GPT training on BPE-encoded synthetic OSCAR text.
//
// Set-up is the paper's preprocessing path (corpus generation, BPE training,
// encoding), so the tokenizer dominates set-up here and nowhere else. Timed
// steps run fat-shape GEMMs, fused attention, forward, backward and Adam.
#include <cmath>
#include <cstdio>
#include <sstream>

#include "data/bpe.hpp"
#include "data/synthetic.hpp"
#include "models/gpt_cost.hpp"
#include "nn/optim.hpp"
#include "shapes.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace caraml::e2e {
namespace {

constexpr std::size_t kCorpusWords = 1000;  // ~4.8 KB of text
constexpr float kLearningRate = 1e-3f;
constexpr int kWarmupSteps = 2;
// train_loss_final is the loss of this step (counting warm-up), so it is the
// same number on every run of one seed, however fast the host is.
constexpr int kLossFinalStep = 20;
// Steps the 1-thread child replays to prove the loss sequence is bit-exact
// across thread counts.
constexpr int kThreadCheckSteps = 4;

class GptTrain : public Workload {
 public:
  explicit GptTrain(const Options& options) : options_(options) {}

  Names names() const override {
    return {"train_tokens_per_s", "tok/s", "step_ms"};
  }
  int min_units() const override { return kLossFinalStep - kWarmupSteps; }
  int probe_units() const override { return 4; }

  void setup(Probe& probe) override {
    Rng root(options_.seed);
    Rng corpus_rng = root.split();
    Rng init_rng = root.split();
    batch_rng_ = root.split();
    {
      auto span = probe.scope("data.corpus_gen");
      corpus_ = data::synthetic_oscar_text(kCorpusWords, corpus_rng);
    }
    {
      auto span = probe.scope("data.bpe_train");
      tokenizer_.train(corpus_, static_cast<std::size_t>(shapes::kGptVocab));
    }
    std::vector<std::int32_t> ids;
    {
      auto span = probe.scope("data.bpe_encode");
      ids = tokenizer_.encode(corpus_);
    }
    num_tokens_ = ids.size();
    stream_ = std::make_unique<data::TokenStream>(std::move(ids));
    model_ = std::make_unique<nn::GptModel>(
        shapes::gpt_config(
            static_cast<std::int64_t>(tokenizer_.vocab_size())),
        init_rng);
    optimizer_ = std::make_unique<nn::Adam>(model_->parameters(),
                                            kLearningRate);
    losses_.clear();
    for (int i = 0; i < kWarmupSteps; ++i) step(probe);
  }

  Unit run_unit(Probe& probe) override {
    Unit unit;
    const Stopwatch watch;
    float loss = 0.0f;
    {
      auto span = probe.scope("gpt_train.step");
      loss = step(probe);
    }
    unit.seconds = watch.elapsed_seconds();
    unit.items = static_cast<double>(shapes::kGptBatch * shapes::kGptBlock);
    unit.latencies_ms.push_back(unit.seconds * 1e3);
    unit.ok = std::isfinite(loss);
    return unit;
  }

  void check(Checks& checks) override {
    bool finite = true;
    for (float loss : losses_) finite = finite && std::isfinite(loss);
    checks.expect(finite, "gpt_train: every loss is finite");
    checks.expect(static_cast<int>(losses_.size()) >= kLossFinalStep,
                  "gpt_train: ran at least " +
                      std::to_string(kLossFinalStep) + " steps");
    if (static_cast<int>(losses_.size()) >= kLossFinalStep) {
      checks.expect(losses_[kLossFinalStep - 1] < losses_.front(),
                    "gpt_train: loss falls over the first " +
                        std::to_string(kLossFinalStep) + " steps");
    }
    // Bit-exact loss sequence at 1 thread, from a child process (the
    // tensor pool's size is fixed per process).
    std::string child;
    try {
      child = run_self({"--workload", "gpt_train", "--seed",
                        std::to_string(options_.seed), "--threads", "1",
                        "--loss-check", std::to_string(kThreadCheckSteps)});
    } catch (const std::exception& e) {
      child = std::string("error: ") + e.what();
    }
    const std::string own = loss_bits(kThreadCheckSteps);
    checks.expect(child == own,
                  "gpt_train: 1-thread loss sequence equals the " +
                      std::to_string(options_.threads) + "-thread one" +
                      (child == own ? "" : " (1 thread: " + child +
                                               "; pinned: " + own + ")"));
  }

  void outputs(Metrics& out) const override {
    if (static_cast<int>(losses_.size()) >= kLossFinalStep) {
      out["train_loss_final"] = {losses_[kLossFinalStep - 1], "nats"};
    }
  }

  void layer_metrics(const Probe& probe, Metrics& out) const override {
    const double encode_s = probe.median_ms("data.bpe_encode") / 1e3;
    out["data.corpus_gen_s"] = {probe.median_ms("data.corpus_gen") / 1e3, "s"};
    out["data.bpe_train_s"] = {probe.median_ms("data.bpe_train") / 1e3, "s"};
    out["data.bpe_encode_s"] = {encode_s, "s"};
    out["data.bpe_encode_kb_per_s"] = {
        static_cast<double>(corpus_.size()) / 1e3 / encode_s, "KB/s"};
    out["data.tokens"] = {static_cast<double>(num_tokens_), "count"};
    out["data.sample_batch_ms"] = {probe.median_ms("data.sample_batch"), "ms"};
    out["nn.gpt.forward_ms"] = {probe.median_ms("nn.gpt.forward"), "ms"};
    out["nn.loss_ms"] = {probe.median_ms("nn.loss"), "ms"};
    out["nn.gpt.backward_ms"] = {probe.median_ms("nn.gpt.backward"), "ms"};
    out["nn.optim.step_ms"] = {probe.median_ms("nn.optim.step"), "ms"};
    out["nn.optim.zero_grad_ms"] = {probe.median_ms("nn.optim.zero_grad"),
                                    "ms"};
    // Analytic FLOPs from the cost model the simulator uses, at this
    // workload's shape.
    models::GptConfig cost;
    cost.num_layers = static_cast<int>(shapes::kGptLayers);
    cost.hidden_size = static_cast<int>(shapes::kGptEmbed);
    cost.num_heads = static_cast<int>(shapes::kGptHeads);
    cost.seq_length = static_cast<int>(shapes::kGptBlock);
    cost.vocab_size = static_cast<int>(model_->config().vocab_size);
    const double gflop = cost.flops_per_iteration(shapes::kGptBatch) / 1e9;
    out["nn.analytic_gflop_per_step"] = {gflop, "GFLOP"};
    out["nn.achieved_gflops"] = {
        gflop / (probe.median_ms("gpt_train.step") / 1e3), "GFLOP/s"};
  }

  /// The first `steps` losses as exact hex floats.
  std::string loss_bits(int steps) const {
    std::ostringstream os;
    for (int i = 0; i < steps && i < static_cast<int>(losses_.size()); ++i) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%a ",
                    static_cast<double>(losses_[static_cast<std::size_t>(i)]));
      os << buffer;
    }
    return os.str();
  }

  /// Train until `steps` losses exist (child mode of the thread check).
  void train_to(Probe& probe, int steps) {
    while (static_cast<int>(losses_.size()) < steps) step(probe);
  }

 private:
  float step(Probe& probe) {
    data::TokenStream::Batch batch;
    {
      auto span = probe.scope("data.sample_batch");
      batch = stream_->sample_batch(shapes::kGptBatch, shapes::kGptBlock,
                                    batch_rng_);
    }
    {
      auto span = probe.scope("nn.optim.zero_grad");
      optimizer_->zero_grad();
    }
    tensor::Tensor logits;
    {
      auto span = probe.scope("nn.gpt.forward");
      logits = model_->forward(batch.inputs);
    }
    nn::LossResult loss;
    {
      auto span = probe.scope("nn.loss");
      loss = nn::softmax_cross_entropy(logits, batch.targets);
    }
    {
      auto span = probe.scope("nn.gpt.backward");
      model_->backward(loss.grad_logits);
    }
    {
      auto span = probe.scope("nn.optim.step");
      optimizer_->step();
    }
    losses_.push_back(loss.loss);
    return loss.loss;
  }

  Options options_;
  std::string corpus_;
  data::BpeTokenizer tokenizer_;
  std::size_t num_tokens_ = 0;
  std::unique_ptr<data::TokenStream> stream_;
  std::unique_ptr<nn::GptModel> model_;
  std::unique_ptr<nn::Adam> optimizer_;
  Rng batch_rng_;
  std::vector<float> losses_;
};

}  // namespace

std::unique_ptr<Workload> make_gpt_train(const Options& options) {
  return std::make_unique<GptTrain>(options);
}

std::string gpt_train_loss_bits(const Options& options) {
  GptTrain workload(options);
  Probe untraced;
  workload.setup(untraced);
  workload.train_to(untraced, options.loss_check_steps);
  return workload.loss_bits(options.loss_check_steps);
}

}  // namespace caraml::e2e
