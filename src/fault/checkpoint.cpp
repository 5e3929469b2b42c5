#include "fault/checkpoint.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace caraml::fault {

namespace json = telemetry::json;

namespace {

/// The fingerprinted payload: every field except the fingerprint itself, in
/// a fixed member order so the serialization (and thus the hash) is stable.
/// sampler_state is a full 64-bit RNG state and is stored as a hex string —
/// a JSON double would silently lose bits above 2^53.
std::string payload_json(const TrainingCheckpoint& checkpoint) {
  json::Value root{json::Object{}};
  root.set("schema_version", checkpoint.schema_version);
  root.set("step", checkpoint.step);
  root.set("samples_consumed", checkpoint.samples_consumed);
  root.set("optimizer_clock_s", checkpoint.optimizer_clock_s);
  root.set("sampler_state", hash::hex16(checkpoint.sampler_state));
  return json::dump(root);
}

}  // namespace

std::string TrainingCheckpoint::to_json() const {
  const std::string payload = payload_json(*this);
  json::Value root = json::parse(payload);
  root.set("fingerprint", hash::fnv1a_hex(payload));
  return json::dump(root);
}

TrainingCheckpoint TrainingCheckpoint::from_json(const std::string& text) {
  json::Value root{json::Object{}};
  try {
    root = json::parse(text);
  } catch (const std::exception& e) {
    throw ParseError(std::string("checkpoint is not valid JSON: ") + e.what());
  }
  TrainingCheckpoint checkpoint;
  try {
    checkpoint.schema_version =
        static_cast<int>(root.at("schema_version").as_int());
    if (checkpoint.schema_version != TrainingCheckpoint{}.schema_version) {
      throw ParseError("unsupported checkpoint schema_version " +
                       std::to_string(checkpoint.schema_version) +
                       " (expected " +
                       std::to_string(TrainingCheckpoint{}.schema_version) +
                       ")");
    }
    checkpoint.step = root.at("step").as_int();
    checkpoint.samples_consumed = root.at("samples_consumed").as_int();
    checkpoint.optimizer_clock_s = root.at("optimizer_clock_s").as_number();
    const std::string& state_hex = root.at("sampler_state").as_string();
    checkpoint.sampler_state = std::strtoull(state_hex.c_str(), nullptr, 16);
    const std::string stamped = root.at("fingerprint").as_string();
    const std::string expected = hash::fnv1a_hex(payload_json(checkpoint));
    if (stamped != expected) {
      throw ParseError("checkpoint fingerprint mismatch: stamped " + stamped +
                       ", payload hashes to " + expected +
                       " (file corrupted or hand-edited)");
    }
  } catch (const ParseError&) {
    throw;
  } catch (const std::exception& e) {
    throw ParseError(std::string("checkpoint schema violation: ") + e.what());
  }
  return checkpoint;
}

void TrainingCheckpoint::save(const std::string& path) const {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw Error("cannot write checkpoint: " + tmp);
    out << to_json() << "\n";
    if (!out.flush()) throw Error("short write to checkpoint: " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

TrainingCheckpoint TrainingCheckpoint::load(const std::string& path) {
  // A leftover tmp file means a previous save crashed between write and
  // rename; the rename never happened, so the tmp holds a possibly-partial
  // write nobody will ever promote. Drop it so it cannot accumulate.
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  if (std::filesystem::exists(tmp, ec)) {
    log::warn() << "removing stale checkpoint temp file (crash mid-save?): "
                << tmp;
    std::filesystem::remove(tmp, ec);
  }
  std::ifstream in(path);
  if (!in) throw Error("cannot read checkpoint: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return from_json(buffer.str());
  } catch (const ParseError& e) {
    // gcc-style located diagnostic, same shape src/check renders, so a
    // corrupt checkpoint reads like any other lint/validation failure.
    throw ParseError(path + ":1:1: error: " + e.what() +
                     " [fault/checkpoint-corrupt]");
  }
}

}  // namespace caraml::fault
