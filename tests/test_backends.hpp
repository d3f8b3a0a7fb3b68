// Helpers for tests that run on every engine backend: a scoped
// environment variable, and the list of backends (fibers at chosen worker
// counts, then threads) a test should cover on this host.

#pragma once

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "net/engine.hpp"

namespace pmps::test_support {

/// Sets an environment variable for one scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// One engine backend to run a test on; `workers` applies to fibers.
struct Backend {
  net::EngineBackend kind;
  int workers;
};

/// Fibers with each of `fiber_workers`, then threads. Only threads when
/// PMPS_ENGINE=threads selects them (ThreadSanitizer cannot follow the
/// fiber switch) or fibers are unsupported.
inline std::vector<Backend> backends(std::initializer_list<int> fiber_workers) {
  std::vector<Backend> out;
  if (net::resolve_engine_backend() == net::EngineBackend::kFibers)
    for (const int w : fiber_workers)
      out.push_back({net::EngineBackend::kFibers, w});
  out.push_back({net::EngineBackend::kThreads, 1});
  return out;
}

inline std::string describe(const Backend& b, int p) {
  return (b.kind == net::EngineBackend::kThreads
              ? std::string("threads")
              : "fibers x" + std::to_string(b.workers)) +
         " p=" + std::to_string(p);
}

}  // namespace pmps::test_support
