#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace btbsim {

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    if (n == 0)
        return 0.0;
    return std::exp(log_sum / static_cast<double>(n));
}

double
vecMin(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::min_element(values.begin(), values.end());
}

double
vecMax(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::max_element(values.begin(), values.end());
}

} // namespace btbsim
