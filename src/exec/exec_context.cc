#include "exec/exec_context.h"

#include <cstdio>

namespace uload {
namespace {

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

std::string OperatorMetrics::ToString() const {
  std::string out = "batches=" + std::to_string(batches_produced) +
                    " tuples=" + std::to_string(tuples_produced) +
                    " open=" + FormatMs(open_ns) + " next=" + FormatMs(next_ns);
  if (peak_bytes > 0) out += " mem=" + std::to_string(peak_bytes) + "B";
  return out;
}

bool FaultSpec::ShouldFail(int op, const std::string& label, Site s,
                           int64_t call) const {
  if (!enabled()) return false;
  if (op_index >= 0 && op != op_index) return false;
  if (!op_substring.empty() && label.find(op_substring) == std::string::npos) {
    return false;
  }
  if (site != Site::kAny && site != s) return false;
  if (call_index >= 0) return call == call_index;
  // Random mode: splitmix64 over (seed, op, site, call) — deterministic for
  // a given spec regardless of thread schedule.
  uint64_t x = random_seed;
  x ^= static_cast<uint64_t>(op) * 0x9e3779b97f4a7c15ull;
  x ^= static_cast<uint64_t>(s) * 0xbf58476d1ce4e5b9ull;
  x ^= static_cast<uint64_t>(call) * 0x94d049bb133111ebull;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return u < random_prob;
}

OperatorMetrics* ExecContext::Register(std::string label, int* ordinal) {
  MutexLock lock(&metrics_mu_);
  metrics_.emplace_back();
  metrics_.back().label = std::move(label);
  if (ordinal != nullptr) *ordinal = static_cast<int>(metrics_.size()) - 1;
  return &metrics_.back();
}

void ExecContext::ResetMetrics() {
  MutexLock lock(&metrics_mu_);
  for (OperatorMetrics& m : metrics_) m.Reset();
}

std::deque<OperatorMetrics> ExecContext::MetricsSnapshot() const {
  MutexLock lock(&metrics_mu_);
  return metrics_;
}

size_t ExecContext::metric_count() const {
  MutexLock lock(&metrics_mu_);
  return metrics_.size();
}

int64_t ExecContext::total_tuples() const {
  MutexLock lock(&metrics_mu_);
  int64_t n = 0;
  for (const OperatorMetrics& m : metrics_) n += m.tuples_produced;
  return n;
}

int64_t ExecContext::total_batches() const {
  MutexLock lock(&metrics_mu_);
  int64_t n = 0;
  for (const OperatorMetrics& m : metrics_) n += m.batches_produced;
  return n;
}

std::string ExecContext::Summary() const {
  MutexLock lock(&metrics_mu_);
  std::string out;
  for (const OperatorMetrics& m : metrics_) {
    out += m.label + "  [" + m.ToString() + "]\n";
  }
  return out;
}

}  // namespace uload
