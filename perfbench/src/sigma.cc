#include "sigma.h"

#include <utility>

#include "probe.h"

namespace perfbench {

Sigma GenerateSigma(uint64_t seed, size_t facts, size_t links) {
  Rng rng(seed);
  // Even spread over the levels, in a seeded order.
  std::vector<size_t> level_of(facts);
  for (size_t i = 0; i < facts; ++i) level_of[i] = i % kLevels.size();
  for (size_t i = facts; i > 1; --i) {
    std::swap(level_of[i - 1], level_of[rng.Below(i)]);
  }
  Sigma sigma;
  std::string& src = sigma.source;
  src =
      "level(u). level(c). level(s). level(t).\n"
      "order(u, c). order(c, s). order(s, t).\n";
  for (size_t i = 0; i < facts; ++i) {
    const std::string& l = kLevels[level_of[i]];
    const std::string key = "k" + std::to_string(i);
    sigma.keys.push_back(key);
    src += l + "[obj(" + key + " : id -" + l + "-> " + key + ", val -" + l +
           "-> v" + std::to_string(rng.Below(kValues)) + ")].\n";
  }
  src += "t[obj(K : vet -u-> yes)] :- c[obj(K : val -c-> v0)] << cau.\n";
  if (links > 0) {
    for (size_t i = 0; i < links; ++i) {
      src += "link(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
    }
    src += "reach(X, Y) :- link(X, Y).\n";
    src += "reach(X, Z) :- link(X, Y), reach(Y, Z).\n";
  }
  return sigma;
}

std::string PointGoal(const std::string& level, const std::string& key,
                      const std::string& mode) {
  return "?- " + level + "[obj(" + key + " : val -C-> V)] << " + mode + ".";
}

std::string WideGoal(const std::string& level, const std::string& value,
                     const std::string& mode) {
  return "?- " + level + "[obj(K : val -C-> " + value + ")] << " + mode + ".";
}

std::string ReachGoal(size_t node) {
  return "?- reach(n" + std::to_string(node) + ", X).";
}

std::string ChurnFact(const std::string& level, const std::string& key) {
  return level + "[obj(" + key + " : id -" + level + "-> " + key + ", val -" +
         level + "-> vw)].";
}

std::string ChurnWideGoal() { return "?- t[obj(K : val -C-> vw)] << cau."; }

}  // namespace perfbench
