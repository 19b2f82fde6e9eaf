/**
 * @file
 * SHA-256 of a byte string, as lowercase hex. The benchmark digests
 * each world's MetricsRegistry JSON with it, so a speed-only change
 * can show that every simulated statistic stayed the same.
 */

#ifndef PERFBENCH_SHA256_HH
#define PERFBENCH_SHA256_HH

#include <string>

namespace perfbench
{

/** FIPS 180-4 SHA-256 of @p data, as 64 lowercase hex digits. */
std::string sha256Hex(const std::string &data);

} // namespace perfbench

#endif // PERFBENCH_SHA256_HH
