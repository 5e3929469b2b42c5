// gpt_decode: one closed-loop caller issues greedy GptModel::generate
// requests back to back on the gpt_train model shape.
//
// Prompt lengths run from short to past block_size, so the sliding context
// window is exercised. The workload is forward-only and its GEMMs are skinny
// (one sequence), so a KV-cache or skinny-GEMM change shows here and not on
// gpt_train.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>

#include "nn/gpt.hpp"
#include "shapes.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace caraml::e2e {
namespace {

// Prompt lengths from short to past the 128-token window. The count is odd
// so the median request sits inside one length class rather than on the
// edge between two.
constexpr std::int64_t kPromptLengths[] = {8, 24, 40, 56, 72, 96, 120, 144, 168};
constexpr const char* kSpanNames[] = {
    "nn.generate.p8",  "nn.generate.p24",  "nn.generate.p40",
    "nn.generate.p56", "nn.generate.p72",  "nn.generate.p96",
    "nn.generate.p120", "nn.generate.p144", "nn.generate.p168"};
constexpr std::size_t kClasses = std::size(kPromptLengths);
constexpr std::size_t kShort = 0;  // prompt 8
constexpr std::size_t kLong = 5;   // prompt 96
constexpr std::int64_t kNewTokens = 8;
// A generated token passes the oracle when it is the oracle's argmax, or
// when its logit is within this distance of the maximum: a near-tie whose
// order a kernel with a different summation order (a KV cache, a batched
// forward) may legitimately flip.
constexpr float kTieTolerance = 1e-5f;

struct Request {
  std::vector<std::int64_t> prompt;
  std::vector<std::int64_t> output;
};

class GptDecode : public Workload {
 public:
  explicit GptDecode(const Options& options) : options_(options) {}

  Names names() const override {
    return {"decode_tokens_per_s", "tok/s", "request_ms"};
  }
  int min_units() const override { return 2; }
  int probe_units() const override { return 1; }

  void setup(Probe& probe) override {
    Rng root(options_.seed);
    Rng init_rng = root.split();
    prompt_rng_ = root.split();
    order_rng_ = root.split();
    model_ = std::make_unique<nn::GptModel>(shapes::gpt_config(), init_rng);
    requests_.clear();
    // Warm-up: one request of every class.
    for (std::size_t c = 0; c < kClasses; ++c) issue(probe, c);
  }

  /// One cycle: every prompt class once, in a seeded order, so each unit
  /// carries the same length mix whatever the seed.
  Unit run_unit(Probe& probe) override {
    std::vector<std::size_t> order(kClasses);
    for (std::size_t c = 0; c < kClasses; ++c) order[c] = c;
    std::shuffle(order.begin(), order.end(), order_rng_);
    Unit unit;
    for (const std::size_t cls : order) {
      const Stopwatch watch;
      issue(probe, cls);
      const double seconds = watch.elapsed_seconds();
      unit.seconds += seconds;
      unit.latencies_ms.push_back(seconds * 1e3);
    }
    unit.items = static_cast<double>(kNewTokens * kClasses);
    unit.operations = static_cast<std::int64_t>(kClasses);
    return unit;
  }

  void check(Checks& checks) override {
    std::int64_t tokens = 0;
    std::int64_t mismatched = 0;
    bool shapes_ok = true;
    for (const Request& request : requests_) {
      const std::size_t p = request.prompt.size();
      shapes_ok = shapes_ok &&
                  request.output.size() == p + kNewTokens &&
                  std::equal(request.prompt.begin(), request.prompt.end(),
                             request.output.begin());
      if (!shapes_ok) break;
      tokens += kNewTokens;
      mismatched += oracle_mismatches(request);
    }
    checks.expect(shapes_ok && !requests_.empty(),
                  "gpt_decode: every request returns prompt + " +
                      std::to_string(kNewTokens) + " tokens");
    checks.expect(mismatched == 0,
                  "gpt_decode: every generated token is the argmax of a full "
                  "forward over its context window (" +
                      std::to_string(mismatched) + " of " +
                      std::to_string(tokens) + " differ)");
  }

  void layer_metrics(const Probe& probe, Metrics& out) const override {
    const double short_ms = probe.median_ms(kSpanNames[kShort]) / kNewTokens;
    const double long_ms = probe.median_ms(kSpanNames[kLong]) / kNewTokens;
    out["nn.generate.ms_per_token.short"] = {short_ms, "ms"};
    out["nn.generate.ms_per_token.long"] = {long_ms, "ms"};
    out["nn.generate.long_short_ratio"] = {long_ms / short_ms, "ratio"};
  }

 private:
  void issue(Probe& probe, std::size_t cls) {
    Request request;
    request.prompt.resize(static_cast<std::size_t>(kPromptLengths[cls]));
    for (auto& id : request.prompt) {
      id = prompt_rng_.uniform_int(0, shapes::kGptVocab - 1);
    }
    Rng unused(0);  // greedy decoding draws no random numbers
    {
      auto span = probe.scope(kSpanNames[cls]);
      request.output =
          model_->generate(request.prompt, kNewTokens, 0.0f, unused);
    }
    requests_.push_back(std::move(request));
  }

  /// Recompute oracle: the logits of every generated position from a full
  /// forward over its context window. Windows that start at token 0 are
  /// prefixes of one sequence, so one causal forward covers them all; the
  /// sliding windows past block_size are batched into one [n, block] forward.
  std::int64_t oracle_mismatches(const Request& request) {
    const std::int64_t block = shapes::kGptBlock;
    const std::int64_t vocab = shapes::kGptVocab;
    const auto& seq = request.output;
    const std::int64_t first = static_cast<std::int64_t>(request.prompt.size());
    const std::int64_t last = static_cast<std::int64_t>(seq.size());
    std::int64_t mismatched = 0;
    const auto judge = [&](const float* logits, std::int64_t token) {
      const float best = *std::max_element(logits, logits + vocab);
      if (!(logits[token] >= best - kTieTolerance)) ++mismatched;
    };

    // Token j is predicted from window seq[max(0, j - block), j).
    const std::int64_t prefix_end = std::min(last, block + 1);
    if (first < prefix_end) {
      const std::int64_t t = prefix_end - 1;
      tensor::Tensor tokens({1, t});
      for (std::int64_t i = 0; i < t; ++i) {
        tokens[i] = static_cast<float>(seq[static_cast<std::size_t>(i)]);
      }
      const tensor::Tensor logits = model_->forward(tokens);
      for (std::int64_t j = first; j < prefix_end; ++j) {
        judge(logits.data() + (j - 1) * vocab,
              seq[static_cast<std::size_t>(j)]);
      }
    }
    const std::int64_t slide_begin = std::max(first, prefix_end);
    const std::int64_t windows = last - slide_begin;
    if (windows > 0) {
      tensor::Tensor tokens({windows, block});
      for (std::int64_t w = 0; w < windows; ++w) {
        const std::int64_t start = slide_begin + w - block;
        for (std::int64_t i = 0; i < block; ++i) {
          tokens[w * block + i] =
              static_cast<float>(seq[static_cast<std::size_t>(start + i)]);
        }
      }
      const tensor::Tensor logits = model_->forward(tokens);
      for (std::int64_t w = 0; w < windows; ++w) {
        judge(logits.data() + (w * block + block - 1) * vocab,
              seq[static_cast<std::size_t>(slide_begin + w)]);
      }
    }
    return mismatched;
  }

  Options options_;
  std::unique_ptr<nn::GptModel> model_;
  Rng prompt_rng_;
  Rng order_rng_;
  std::vector<Request> requests_;
};

}  // namespace

std::unique_ptr<Workload> make_gpt_decode(const Options& options) {
  return std::make_unique<GptDecode>(options);
}

}  // namespace caraml::e2e
