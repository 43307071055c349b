#include "analysis/spatial.hpp"

namespace phifi::analysis {

double PatternTally::fraction(fi::ErrorPattern pattern) const {
  const std::size_t classified = total() - count(fi::ErrorPattern::kNone);
  if (classified == 0) return 0.0;
  return static_cast<double>(count(pattern)) /
         static_cast<double>(classified);
}

}  // namespace phifi::analysis
