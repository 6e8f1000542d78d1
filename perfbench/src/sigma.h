// The seeded base database Sigma_0 and the goal texts the workloads
// send. Servers only ever see the generated .mlog file and requests.
#ifndef MULTILOG_PERFBENCH_SIGMA_H_
#define MULTILOG_PERFBENCH_SIGMA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The security chain u < c < s < t, bottom first.
inline const std::vector<std::string> kLevels = {"u", "c", "s", "t"};
/// The belief modes the read mix cycles through.
inline const std::vector<std::string> kModes = {"fir", "opt", "cau"};
/// Distinct values of the `val` cell in Sigma_0 (v0..v6).
constexpr int kValues = 7;

struct Sigma {
  std::string source;
  /// Entity keys, in fact order; each key holds exactly one fact.
  std::vector<std::string> keys;
};

/// `facts` two-cell obj facts (key cell id + value cell val) spread
/// evenly over the chain, levels and values drawn from `seed`, plus one
/// key-local derived rule with a cautious-belief body. With `links` > 0
/// a link chain n0 -> n1 -> ... and a recursive reach/2 closure are
/// appended (cold_build only: the router refuses cross-key rules).
Sigma GenerateSigma(uint64_t seed, size_t facts, size_t links);

/// Point read of one entity at session level `level`.
std::string PointGoal(const std::string& level, const std::string& key,
                      const std::string& mode);
/// Key-free read binding the value cell.
std::string WideGoal(const std::string& level, const std::string& value,
                     const std::string& mode);
/// Magic-plan point query over the link chain.
std::string ReachGoal(size_t node);

/// The fact a write_churn writer asserts and retracts for `key`; its
/// value `vw` never occurs in Sigma_0.
std::string ChurnFact(const std::string& level, const std::string& key);
/// The replica reader's key-free read of every live churn fact.
std::string ChurnWideGoal();

}  // namespace perfbench

#endif  // MULTILOG_PERFBENCH_SIGMA_H_
