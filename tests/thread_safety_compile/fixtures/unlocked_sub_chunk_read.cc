// Negative fixture: reads a ReTraTree sub-chunk's representatives
// without holding the sub-chunk's `mu`, which a concurrent catch-up holds
// exclusive while it changes them. Under Clang with `-Wthread-safety
// -Werror` this translation unit MUST fail to compile (ctest marks it
// WILL_FAIL); positive_control.cc reads the same field under the lock.
#include <cstddef>

#include "core/retratree.h"

namespace {

// BUG (deliberate): no lock on sc.mu around the guarded read.
size_t CountRepresentatives(const hermes::core::SubChunk& sc) {
  return sc.representatives.size();
}

}  // namespace

int main() {
  hermes::core::SubChunk sc;
  return static_cast<int>(CountRepresentatives(sc));
}
