#include "jube/jube.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <regex>
#include <thread>

#include "jube/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace caraml::jube {

bool Parameter::active(const std::set<std::string>& tags) const {
  if (tag.empty()) return true;
  if (str::starts_with(tag, "!")) return tags.count(tag.substr(1)) == 0;
  return tags.count(tag) > 0;
}

bool Step::active(const std::set<std::string>& tags) const {
  if (tag.empty()) return true;
  if (str::starts_with(tag, "!")) return tags.count(tag.substr(1)) == 0;
  return tags.count(tag) > 0;
}

void ActionRegistry::register_action(const std::string& name, Action action) {
  CARAML_CHECK_MSG(!actions_.count(name), "duplicate action: " + name);
  actions_[name] = std::move(action);
}

bool ActionRegistry::has(const std::string& name) const {
  return actions_.count(name) > 0;
}

const Action& ActionRegistry::at(const std::string& name) const {
  const auto it = actions_.find(name);
  if (it == actions_.end()) throw NotFound("no registered action: " + name);
  return it->second;
}

namespace {

/// Names of every ${...} placeholder remaining in `text`.
std::set<std::string> placeholder_names(const std::string& text) {
  std::set<std::string> names;
  std::size_t pos = 0;
  while ((pos = text.find("${", pos)) != std::string::npos) {
    const std::size_t close = text.find('}', pos + 2);
    if (close == std::string::npos) break;
    names.insert(text.substr(pos + 2, close - pos - 2));
    pos = close + 1;
  }
  return names;
}

std::string join_names(const std::set<std::string>& names) {
  std::vector<std::string> decorated;
  decorated.reserve(names.size());
  for (const auto& name : names) decorated.push_back("${" + name + "}");
  return str::join(decorated, ", ");
}

}  // namespace

std::string substitute_context(const std::string& text,
                               const Context& context) {
  std::string out = text;
  // Iterate so parameters may reference other parameters; the pass count is
  // bounded so a reference cycle cannot loop forever.
  bool converged = false;
  for (int pass = 0; pass < 8; ++pass) {
    std::string next = out;
    for (const auto& [name, value] : context) {
      next = str::replace_all(next, "${" + name + "}", value);
    }
    if (next == out) {
      converged = true;
      break;
    }
    out = std::move(next);
  }
  // Partially substituted text must never leak into step commands or
  // parameter values: leftovers are either a reference cycle (the parameter
  // exists but expanding it never reaches a fixed point) or a reference to a
  // parameter that is not in the context at all.
  std::set<std::string> cyclic;
  std::set<std::string> unknown;
  for (const auto& name : placeholder_names(out)) {
    (context.count(name) ? cyclic : unknown).insert(name);
  }
  // Name the whole cycle, not just the parameter the loop stalled on:
  // a -> ${b} -> ${a} leaves only one of the two in the final text.
  for (std::set<std::string> frontier = cyclic; !frontier.empty();) {
    std::set<std::string> next;
    for (const auto& name : frontier) {
      for (const auto& ref : placeholder_names(context.at(name))) {
        if (context.count(ref) && cyclic.insert(ref).second) next.insert(ref);
      }
    }
    frontier = std::move(next);
  }
  if (!converged || !cyclic.empty()) {
    throw Error("parameter substitution did not converge in '" + text +
                "': cyclic reference(s) " + join_names(cyclic));
  }
  if (!unknown.empty()) {
    throw Error("unresolved parameter reference(s) in '" + text + "': " +
                join_names(unknown));
  }
  return out;
}

void Benchmark::add_parameter_set(ParameterSet set) {
  parameter_sets_.push_back(std::move(set));
}

void Benchmark::add_step(Step step) { steps_.push_back(std::move(step)); }

void Benchmark::add_pattern(Pattern pattern) {
  patterns_.push_back(std::move(pattern));
}

std::vector<Context> Benchmark::expand(
    const std::set<std::string>& tags) const {
  // Gather active parameters; a later parameter set overrides an earlier
  // parameter of the same name (JUBE's override semantics).
  std::vector<Parameter> active;
  for (const auto& set : parameter_sets_) {
    for (const auto& parameter : set.parameters) {
      if (!parameter.active(tags)) continue;
      const auto it = std::find_if(
          active.begin(), active.end(),
          [&](const Parameter& p) { return p.name == parameter.name; });
      if (it != active.end()) {
        *it = parameter;
      } else {
        active.push_back(parameter);
      }
    }
  }

  std::vector<Context> contexts = {Context{}};
  for (const auto& parameter : active) {
    CARAML_CHECK_MSG(!parameter.values.empty(),
                     "parameter '" + parameter.name + "' has no values");
    std::vector<Context> expanded;
    expanded.reserve(contexts.size() * parameter.values.size());
    for (const auto& base : contexts) {
      for (const auto& value : parameter.values) {
        Context next = base;
        next[parameter.name] = value;
        expanded.push_back(std::move(next));
      }
    }
    contexts = std::move(expanded);
  }

  // Resolve ${...} references inside parameter values.
  for (auto& context : contexts) {
    for (auto& [name, value] : context) {
      value = substitute_context(value, context);
    }
  }
  return contexts;
}

std::vector<std::string> Benchmark::step_order() const {
  // Kahn's algorithm over step dependencies.
  std::map<std::string, std::vector<std::string>> successors;
  std::map<std::string, int> in_degree;
  for (const auto& step : steps_) {
    if (!in_degree.count(step.name)) in_degree[step.name] = 0;
    for (const auto& dep : step.depends) {
      const bool known = std::any_of(
          steps_.begin(), steps_.end(),
          [&](const Step& s) { return s.name == dep; });
      CARAML_CHECK_MSG(known, "step '" + step.name + "' depends on unknown '" +
                                  dep + "'");
      successors[dep].push_back(step.name);
      ++in_degree[step.name];
    }
  }
  std::vector<std::string> ready;
  for (const auto& step : steps_) {
    if (in_degree[step.name] == 0) ready.push_back(step.name);
  }
  std::vector<std::string> order;
  while (!ready.empty()) {
    const std::string current = ready.front();
    ready.erase(ready.begin());
    order.push_back(current);
    for (const auto& succ : successors[current]) {
      if (--in_degree[succ] == 0) ready.push_back(succ);
    }
  }
  CARAML_CHECK_MSG(order.size() == steps_.size(),
                   "cyclic step dependencies in benchmark '" + name_ + "'");
  return order;
}

std::vector<std::pair<std::string, std::string>> Benchmark::active_steps(
    const std::vector<std::string>& order,
    const std::set<std::string>& tags) const {
  std::vector<std::pair<std::string, std::string>> active;
  active.reserve(order.size());
  for (const auto& step_name : order) {
    const auto it = std::find_if(
        steps_.begin(), steps_.end(),
        [&](const Step& s) { return s.name == step_name; });
    if (it->active(tags)) active.emplace_back(it->name, it->action_name);
  }
  return active;
}

void Benchmark::analyse(Workpackage& wp,
                        const std::vector<std::string>& order) const {
  // Run every pattern over the step outputs concatenated in *execution*
  // order, keep the last match of group 1 (JUBE's default reduce). Iterating
  // wp.outputs directly would concatenate in std::map alphabetical order and
  // let an upstream step's figure of merit win whenever step names do not
  // sort in dependency order.
  std::string all_output;
  for (const auto& step_name : order) {
    const auto it = wp.outputs.find(step_name);
    if (it == wp.outputs.end()) continue;
    all_output += it->second;
    all_output += "\n";
  }
  for (const auto& pattern : patterns_) {
    const std::regex re(pattern.regex);
    // "Matched" is tracked separately from the captured text: a capture
    // group that legitimately matches the empty string still counts.
    bool matched = false;
    std::string last;
    for (auto it =
             std::sregex_iterator(all_output.begin(), all_output.end(), re);
         it != std::sregex_iterator(); ++it) {
      if (it->size() >= 2) {
        matched = true;
        last = (*it)[1].str();
      }
    }
    if (matched) wp.analysed[pattern.name] = last;
  }
}

namespace {

/// Shared pool for timed step attempts. Intentionally leaked: a genuinely
/// hung action still occupies its worker at process exit, and joining it
/// would hang shutdown — leaking the pool preserves the old detach-on-
/// timeout semantics for hung actions only.
ThreadPool& timed_attempt_pool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::default_threads());
  return *pool;
}

/// Run one step attempt, bounded by `timeout_s` when positive. The attempt
/// runs on a shared pool worker instead of a freshly detached thread, so a
/// parallel sweep with timeouts recycles a bounded set of threads. On
/// timeout the attempt is abandoned — in-process actions cannot be killed,
/// like a hung Slurm job that outlives its sbatch timeout — and the pool
/// grows by one worker so only genuinely hung actions cost a thread; an
/// attempt that completes in time returns its worker to the pool. (Queue
/// wait counts against the timeout, as a scheduler queue would.)
std::string run_action_bounded(const Action& action, const Context& context,
                               double timeout_s) {
  if (timeout_s <= 0.0) return action(context);
  auto future = timed_attempt_pool().submit(
      [action, context]() { return action(context); });
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) ==
      std::future_status::timeout) {
    timed_attempt_pool().add_worker();
    throw Error("step timed out after " + std::to_string(timeout_s) + "s");
  }
  return future.get();
}

}  // namespace

Workpackage Benchmark::run_workpackage(const ActionRegistry& registry,
                                       const std::set<std::string>& tags,
                                       const std::vector<std::string>& order,
                                       const Context& context,
                                       const RunOptions* options,
                                       std::size_t index) const {
  // Concurrent workpackages each record spans on their own worker thread's
  // track (Tracer::thread_track), so traces nest correctly under load.
  TELEMETRY_SPAN("jube/workpackage");
  Workpackage wp;
  wp.context = context;

  if (options == nullptr) {
    // Strict semantics: the first step error propagates as an exception.
    for (const auto& step_name : order) {
      const auto it = std::find_if(
          steps_.begin(), steps_.end(),
          [&](const Step& s) { return s.name == step_name; });
      const Step& step = *it;
      if (!step.active(tags)) continue;
      const Action& action = registry.at(step.action_name);
      wp.outputs[step.name] = action(wp.context);
    }
    analyse(wp, order);
    return wp;
  }

  RunOptions local = *options;
  // Each workpackage gets an independent, order-free retry jitter stream, so
  // sequential and parallel sweeps back off byte-identically.
  local.retry.seed = hash::derive_seed(options->retry.seed, index);

  std::set<std::string> broken;  // failed or skipped steps
  for (const auto& step_name : order) {
    const auto it = std::find_if(
        steps_.begin(), steps_.end(),
        [&](const Step& s) { return s.name == step_name; });
    const Step& step = *it;
    if (!step.active(tags)) continue;

    StepOutcome outcome;
    outcome.step = step_name;

    // Transitive skip: a dependent of a failed step can never run.
    const bool blocked = std::any_of(
        step.depends.begin(), step.depends.end(),
        [&](const std::string& dep) { return broken.count(dep) > 0; });
    if (blocked) {
      outcome.status = "skipped";
      outcome.attempts = 0;
      outcome.error = "dependency failed";
      broken.insert(step_name);
      wp.step_outcomes.push_back(std::move(outcome));
      continue;
    }

    // A missing action is a configuration error, not a transient fault —
    // fail the step immediately instead of burning retries.
    if (!registry.has(step.action_name)) {
      outcome.status = "failed";
      outcome.error = "no registered action: " + step.action_name;
      if (!local.harvest_partial) throw NotFound(outcome.error);
      broken.insert(step_name);
      wp.step_outcomes.push_back(std::move(outcome));
      continue;
    }

    const Action& action = registry.at(step.action_name);
    std::string output;
    const fault::RetryOutcome retried = fault::retry_with_backoff(
        name_ + "/" + step_name, local.retry,
        [&]() {
          output =
              run_action_bounded(action, wp.context, local.step_timeout_s);
        },
        local.sleeper);
    outcome.attempts = retried.attempts;
    outcome.backoff_s = retried.total_backoff_s;
    if (retried.succeeded) {
      outcome.status = retried.attempts > 1 ? "retried" : "ok";
      wp.outputs[step_name] = std::move(output);
    } else {
      outcome.status = "failed";
      outcome.error = retried.last_error;
      if (!local.harvest_partial) {
        throw Error("step '" + step_name + "' failed after " +
                    std::to_string(retried.attempts) +
                    " attempts: " + retried.last_error);
      }
      broken.insert(step_name);
    }
    wp.step_outcomes.push_back(std::move(outcome));
  }

  for (const auto& outcome : wp.step_outcomes) {
    if (outcome.status == "failed" || outcome.status == "skipped") {
      wp.status = "failed";
      break;
    }
    if (outcome.status == "retried") wp.status = "degraded";
  }

  analyse(wp, order);
  // Surface the workpackage status in result tables: an action may have
  // reported its own (pattern-extracted) status, but step-level failures
  // and retries outrank a clean-looking output.
  if (wp.status != "ok" || !wp.analysed.count("status")) {
    wp.analysed["status"] = wp.status;
  }
  return wp;
}

RunResult Benchmark::run_sweep(const ActionRegistry& registry,
                               const std::set<std::string>& tags,
                               const RunOptions* options,
                               const SweepOptions& sweep) const {
  CARAML_CHECK_MSG(sweep.jobs >= 0, "sweep jobs must be >= 0");
  const std::vector<std::string> order = step_order();
  const std::vector<Context> contexts = expand(tags);

  RunResult result;
  result.workpackages.resize(contexts.size());

  SweepCache cache;
  std::vector<std::string> fingerprints;
  if (!sweep.cache_path.empty()) {
    cache.open(sweep.cache_path);
    // Retry/timeout knobs change what a workpackage produces (attempt
    // counts, harvested failures), so they are fingerprint material too.
    std::string extra = sweep.fault_fingerprint;
    if (options != nullptr) {
      extra += "|retry=" + std::to_string(options->retry.max_attempts) + "," +
               std::to_string(options->retry.seed) +
               "|timeout=" + std::to_string(options->step_timeout_s);
    }
    const auto steps = active_steps(order, tags);
    fingerprints.resize(contexts.size());
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      fingerprints[i] =
          workpackage_fingerprint(name_, contexts[i], steps, extra);
    }
  }

  // Statically-doomed workpackages (the --skip-doomed gate) and cache hits
  // are settled first; everything else is dispatched below. Results are
  // written by expansion index, so the table order is deterministic
  // regardless of completion order.
  std::vector<std::string> gate_actions;
  if (sweep.static_gate) {
    for (const auto& [step, action] : active_steps(order, tags)) {
      (void)step;
      gate_actions.push_back(action);
    }
  }
  std::vector<std::size_t> pending;
  pending.reserve(contexts.size());
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    if (sweep.static_gate) {
      const std::string reason = sweep.static_gate(contexts[i], gate_actions);
      if (!reason.empty()) {
        Workpackage skipped;
        skipped.context = contexts[i];
        skipped.status = "skipped";
        skipped.analysed["status"] = "skipped";
        skipped.analysed["skip_reason"] = reason;
        result.workpackages[i] = std::move(skipped);
        ++result.skipped;
        continue;
      }
    }
    Workpackage cached;
    if (cache.enabled() && cache.lookup(fingerprints[i], cached)) {
      cached.context = contexts[i];
      result.workpackages[i] = std::move(cached);
      ++result.cache_hits;
      continue;
    }
    pending.push_back(i);
  }
  result.cache_misses = pending.size();

  const auto run_one = [&](std::size_t i) {
    Workpackage wp =
        run_workpackage(registry, tags, order, contexts[i], options, i);
    // Only completed workpackages are cached, so a re-run retries failures
    // instead of replaying them.
    if (cache.enabled() && wp.status != "failed") {
      cache.append(fingerprints[i], name_, wp);
    }
    result.workpackages[i] = std::move(wp);
  };

  if (sweep.jobs == 1 || pending.size() <= 1) {
    for (const std::size_t i : pending) run_one(i);
  } else {
    // A dedicated pool (not ThreadPool::global()): actions are free to use
    // the global pool internally without deadlocking against the sweep.
    const std::size_t workers =
        std::min(sweep.jobs == 0 ? ThreadPool::default_threads()
                                 : static_cast<std::size_t>(sweep.jobs),
                 pending.size());
    ThreadPool pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(pending.size());
    for (const std::size_t i : pending) {
      futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
    // Drain everything before rethrowing, then surface the error of the
    // lowest expansion index — the same failure a sequential run hits first.
    std::vector<std::exception_ptr> errors(pending.size());
    for (std::size_t k = 0; k < futures.size(); ++k) {
      try {
        futures[k].get();
      } catch (...) {
        errors[k] = std::current_exception();
      }
    }
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  auto& metrics = telemetry::Registry::global();
  metrics.counter("jube/workpackages").add(
      static_cast<std::int64_t>(contexts.size()));
  if (cache.enabled()) {
    metrics.counter("jube/sweep_cache_hits")
        .add(static_cast<std::int64_t>(result.cache_hits));
    metrics.counter("jube/sweep_cache_misses")
        .add(static_cast<std::int64_t>(result.cache_misses));
  }
  return result;
}

RunResult Benchmark::run(const ActionRegistry& registry,
                         const std::set<std::string>& tags) const {
  return run_sweep(registry, tags, nullptr, SweepOptions{});
}

RunResult Benchmark::run(const ActionRegistry& registry,
                         const std::set<std::string>& tags,
                         const SweepOptions& sweep) const {
  return run_sweep(registry, tags, nullptr, sweep);
}

RunResult Benchmark::run(const ActionRegistry& registry,
                         const std::set<std::string>& tags,
                         const RunOptions& options) const {
  return run_sweep(registry, tags, &options, SweepOptions{});
}

RunResult Benchmark::run(const ActionRegistry& registry,
                         const std::set<std::string>& tags,
                         const RunOptions& options,
                         const SweepOptions& sweep) const {
  return run_sweep(registry, tags, &options, sweep);
}

TextTable RunResult::table(const std::vector<std::string>& columns) const {
  TextTable table(columns);
  for (const auto& wp : workpackages) {
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const auto& column : columns) {
      const auto analysed = wp.analysed.find(column);
      if (analysed != wp.analysed.end()) {
        row.push_back(analysed->second);
        continue;
      }
      const auto param = wp.context.find(column);
      row.push_back(param != wp.context.end() ? param->second : "");
    }
    table.add_row(std::move(row));
  }
  return table;
}

namespace {

Parameter parse_parameter(const yaml::NodePtr& node) {
  Parameter parameter;
  parameter.name = node->at("name")->as_string();
  parameter.tag = node->get_or("tag", "");
  const yaml::NodePtr values = node->find("values");
  if (values && values->is_sequence()) {
    for (const auto& value : values->items()) {
      parameter.values.push_back(value->as_string());
    }
  } else if (values && values->is_scalar()) {
    // Comma-separated scalar, as JUBE allows: "16,32,64".
    for (const auto& piece : str::split(values->as_string(), ',')) {
      parameter.values.push_back(str::trim(piece));
    }
  } else {
    throw ParseError("parameter '" + parameter.name + "' needs values");
  }
  return parameter;
}

}  // namespace

Benchmark Benchmark::from_yaml(const yaml::NodePtr& root) {
  CARAML_CHECK_MSG(root && root->is_map(), "JUBE YAML root must be a map");
  const yaml::NodePtr bench_node = root->find("benchmark");
  CARAML_CHECK_MSG(bench_node != nullptr, "missing 'benchmark' key");
  Benchmark benchmark(bench_node->is_map()
                          ? bench_node->get_or("name", "unnamed")
                          : bench_node->as_string());

  if (const yaml::NodePtr sets = root->find("parametersets")) {
    for (const auto& set_node : sets->items()) {
      ParameterSet set;
      set.name = set_node->at("name")->as_string();
      for (const auto& p : set_node->at("parameters")->items()) {
        set.parameters.push_back(parse_parameter(p));
      }
      benchmark.add_parameter_set(std::move(set));
    }
  }
  if (const yaml::NodePtr steps = root->find("steps")) {
    for (const auto& step_node : steps->items()) {
      Step step;
      step.name = step_node->at("name")->as_string();
      step.action_name = step_node->get_or("do", step.name);
      step.tag = step_node->get_or("tag", "");
      if (const yaml::NodePtr deps = step_node->find("depend")) {
        if (deps->is_sequence()) {
          for (const auto& d : deps->items()) step.depends.push_back(d->as_string());
        } else {
          step.depends.push_back(deps->as_string());
        }
      }
      benchmark.add_step(std::move(step));
    }
  }
  if (const yaml::NodePtr patterns = root->find("patterns")) {
    for (const auto& p : patterns->items()) {
      benchmark.add_pattern(
          Pattern{p->at("name")->as_string(), p->at("regex")->as_string()});
    }
  }
  return benchmark;
}

Benchmark Benchmark::from_yaml_file(const std::string& path) {
  return from_yaml(yaml::parse_file(path));
}

}  // namespace caraml::jube
