// The four workloads and the kernel/module replay of the traced run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace caraml::e2e {

std::unique_ptr<Workload> make_gpt_train(const Options& options);
std::unique_ptr<Workload> make_gpt_decode(const Options& options);
std::unique_ptr<Workload> make_resnet_train(const Options& options);
std::unique_ptr<Workload> make_sim_sweep(const Options& options);

/// Child mode of the gpt_train thread check: set up, train
/// options.loss_check_steps steps and return the losses as hex floats.
std::string gpt_train_loss_bits(const Options& options);

/// Kernel and module replay at the workloads' shapes (traced run only).
void replay_layers(Probe& probe, std::uint64_t seed, Metrics& out);

}  // namespace caraml::e2e
