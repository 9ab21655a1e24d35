#ifndef VISTA_TESTS_REGISTRY_READS_H_
#define VISTA_TESTS_REGISTRY_READS_H_

// Name-checked registry reads for test assertions. Registry::counter(name)
// creates a missing name and reads 0, so a misspelt name would silently pass
// a check such as EXPECT_EQ(..., 0). These read through the registry's
// snapshots instead and fail the calling test when no component registered
// the name.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace vista {

/// Value of counter `name`.
inline int64_t RegisteredCounter(const obs::Registry& registry,
                                 const std::string& name) {
  for (const obs::Counter* c : registry.counters()) {
    if (c->name() == name) return c->value();
  }
  ADD_FAILURE() << "counter \"" << name << "\" was never registered";
  return -1;
}

/// Sum of every counter whose name starts with `prefix` (e.g. the
/// per-layer "dl.int8_ops." counters).
inline int64_t RegisteredCounterSum(const obs::Registry& registry,
                                    const std::string& prefix) {
  int64_t sum = 0;
  bool found = false;
  for (const obs::Counter* c : registry.counters()) {
    if (c->name().rfind(prefix, 0) == 0) {
      sum += c->value();
      found = true;
    }
  }
  if (!found) {
    ADD_FAILURE() << "no counter named \"" << prefix << "*\" was registered";
    return -1;
  }
  return sum;
}

/// High-water mark of gauge `name`.
inline int64_t RegisteredGaugeMax(const obs::Registry& registry,
                                  const std::string& name) {
  for (const obs::Gauge* g : registry.gauges()) {
    if (g->name() == name) return g->max_value();
  }
  ADD_FAILURE() << "gauge \"" << name << "\" was never registered";
  return -1;
}

}  // namespace vista

#endif  // VISTA_TESTS_REGISTRY_READS_H_
