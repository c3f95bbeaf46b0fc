#pragma once

// Shared test helper: the fixed inputs behind the committed golden bytes in
// tests/data/ (golden_bytes.txt and golden_cache.qsnap.journal).  Those
// files were written by an earlier build whose codecs encoded every integer
// one byte at a time; the golden tests in io_test and net_test encode these
// same inputs with the current codecs and compare byte for byte, so a codec
// change that alters the wire format or existing cache files fails loudly.
// fingerprint_models() feeds golden_fingerprints.txt, written by the
// word-at-a-time fingerprint stream: the cache keys of every persisted
// journal depend on those digests.
//
// Never edit these values: the committed bytes depend on every one of them.
// Add new fixtures instead, with their own committed bytes.

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/cache_store.hpp"
#include "net/protocol.hpp"
#include "problems/mvc/mvc.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "qubo/batch.hpp"
#include "qubo/model.hpp"

namespace qross::testing::golden {

/// Six variables: a diagonal term, off-diagonal terms on both sides of a
/// byte boundary, and weights whose bit patterns use every mantissa byte.
inline qubo::QuboModel model() {
  qubo::QuboModel m(6);
  m.set_offset(1.5);
  m.add_term(0, 0, -2.25);
  m.add_term(0, 3, 4.0);
  m.add_term(1, 2, -0.5);
  m.add_term(2, 5, 1.0 / 3.0);
  m.add_term(4, 4, -7.0);
  m.add_term(3, 5, 1e-300);
  return m;
}

/// Named models whose fingerprints are pinned: the model above, a TSP
/// penalty formulation at two relaxation parameters, an MVC model, and a
/// model built from out-of-order, repeated and exactly cancelling terms
/// (0.1 + 0.2 + 0.3 on one key sums to 0.6000000000000001 in call order).
inline std::vector<std::pair<std::string, qubo::QuboModel>>
fingerprint_models() {
  std::vector<std::pair<std::string, qubo::QuboModel>> models;
  models.emplace_back("golden", model());
  const auto tsp = tsp::build_tsp_problem(tsp::generate_uniform(8, 0xF1));
  models.emplace_back("tsp_a10", tsp.to_qubo(10.0));
  models.emplace_back("tsp_a60", tsp.to_qubo(60.0));
  models.emplace_back("mvc",
                      mvc::generate_random_mvc(24, 0.2, 0xF2).to_qubo(2.0));
  qubo::QuboModel messy(5);
  messy.set_offset(0.25);
  messy.add_term(3, 1, 0.1);
  messy.add_term(0, 4, -2.5);
  messy.add_term(1, 3, 0.2);
  messy.add_term(4, 4, 0.1);
  messy.add_term(2, 2, 1.0);
  messy.add_term(4, 0, 0.75);
  messy.add_term(0, 1, 0.5);
  messy.add_term(4, 4, 0.2);
  messy.add_term(1, 0, -0.5);
  messy.add_term(2, 3, 1e-3);
  messy.add_term(0, 0, 3.0);
  messy.add_term(2, 2, -1.0);
  messy.add_term(4, 4, 0.3);
  models.emplace_back("messy", std::move(messy));
  return models;
}

/// Assignments of 6 and 11 bits (a partial trailing byte and a full one
/// plus a partial), plus an empty one; energies include -0.0 and infinity,
/// whose bit patterns a lossy codec would not preserve.
inline qubo::SolveBatch batch(std::uint8_t salt = 0) {
  qubo::SolveBatch b;
  b.results.push_back({{1, 0, 1, 1, 0, static_cast<std::uint8_t>(salt & 1)},
                       -3.75 - salt});
  b.results.push_back({{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0}, -0.0});
  b.results.push_back({{}, std::numeric_limits<double>::infinity()});
  b.results.push_back({{1, 1, 1, 1, 1, 1}, 1.0 / 7.0 + salt});
  return b;
}

inline net::SubmitJobFrame submit() {
  net::SubmitJobFrame s;
  s.tag = 0x0102030405060708ULL;
  s.solver = "da";
  s.num_replicas = 4;
  s.num_sweeps = 30;
  s.seed = 0xDEADBEEFCAFEF00DULL;
  s.priority = -3;
  s.deadline_ms = 250;
  s.bypass_cache = true;
  s.stream_status = false;
  s.model = model();
  s.trace_id = 0xA5A5A5A55A5A5A5AULL;
  return s;
}

inline net::ResultFrame result() {
  net::ResultFrame r;
  r.tag = 42;
  r.status = service::JobStatus::done;
  r.cache_hit = true;
  r.coalesced = false;
  r.wait_ms = 0.125;
  r.run_ms = 17.5;
  r.batch = std::make_shared<const qubo::SolveBatch>(batch());
  return r;
}

/// The entries of the committed journal, in append order.  The last one
/// re-uses the first key, so a loader that merges newest-wins keeps it.
inline std::vector<io::CacheEntry> cache_entries() {
  std::vector<io::CacheEntry> entries;
  for (std::uint8_t k = 0; k < 3; ++k) {
    io::CacheEntry e;
    e.key = {0x1111111111111111ULL * (k + 1), 0xF0E1D2C3B4A59687ULL ^ k};
    e.run_ms = 2.5 * k + 0.1;
    e.batch = std::make_shared<const qubo::SolveBatch>(batch(k));
    entries.push_back(std::move(e));
  }
  io::CacheEntry again = entries.front();
  again.run_ms = 99.0;
  again.batch = std::make_shared<const qubo::SolveBatch>(batch(5));
  entries.push_back(std::move(again));
  return entries;
}

inline std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto byte : bytes) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 15]);
  }
  return out;
}

/// Reads `name hex` lines (blank lines and `#` comments skipped).
inline std::map<std::string, std::string> read_hex_table(
    const std::string& path) {
  std::map<std::string, std::string> table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    table[name] = hex;
  }
  return table;
}

}  // namespace qross::testing::golden
